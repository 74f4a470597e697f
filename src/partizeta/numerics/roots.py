"""Polynomial roots: mpmath's ``polyroots`` (Durand-Kerner) with a residual
contract and a stable order.

Roots come back as ``mpc``, sorted by real part rounded to 2^-(prec/2) and
then by imaginary part, so conjugate pairs on a common vertical line (the
critical line Re = 1/2, say) always list the lower root first. Residuals
|p(root)| are checked against 2^-(prec/2) times the coefficient sup norm;
non-convergence and a broken contract raise ``RootFindingError``. Double
roots converge; roots of multiplicity three or more do not.
"""

from __future__ import annotations

import mpmath as mp

from .hp import DEFAULT_PREC, guarded
from .poly import poly_eval, poly_to_mpc, poly_trim


class RootFindingError(ArithmeticError):
    pass


@guarded()
def poly_roots(coeffs, prec: int = DEFAULT_PREC, max_iterations: int = 400):
    """All complex roots of c_0 + c_1 z + ... + c_n z^n, degree >= 1.

    Returns (roots, residuals) in the order described above. Residual
    contract: |p(root)| <= 2^-(prec/2) * max|c_i| for every root.
    """
    coeffs = poly_trim(list(coeffs))
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("poly_roots wants degree >= 1")
    # extra headroom: evaluation at |z| ~ R loses ~ n log2 R bits
    wp = 2 * prec + 8 * n + 64
    co = poly_to_mpc(coeffs, wp)
    # polyroots iterates at wp but stops once every correction is below the
    # eps of the calling context, 2^-(prec+24). A double root stalls near
    # 2^-(wp/2), below that stop; simple roots converge quadratically past it.
    with mp.workprec(prec + 24):
        try:
            roots = mp.polyroots(co[::-1], maxsteps=max_iterations,
                                 extraprec=wp - prec - 24)
        except mp.libmp.NoConvergence as exc:
            raise RootFindingError(f"polyroots did not converge: {exc}") from exc
    with mp.workprec(wp):
        roots = [mp.mpc(z) for z in roots]
        residuals = [abs(poly_eval(co, z)) for z in roots]
        bound = mp.ldexp(max(abs(c) for c in co), -(prec // 2))
    worst = max(residuals)
    if worst > bound:
        raise RootFindingError(
            f"roots miss the residual contract (worst {worst}, bound {bound})")
    order = sorted(range(n), key=lambda i: (mp.nint(mp.ldexp(roots[i].real, prec // 2)),
                                            roots[i].imag))
    return [roots[i] for i in order], [residuals[i] for i in order]
