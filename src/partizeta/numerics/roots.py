"""Polynomial roots: mpmath's ``polyroots`` (Durand-Kerner) with a residual
contract and a stable order.

Roots come back as ``mpc``, sorted by real part rounded to 2^-(prec/2) and
then by imaginary part, so conjugate pairs on a common vertical line (the
critical line Re = 1/2, say) always list the lower root first. Each residual
|p(z)| is checked against 2^-(prec/2) times sum_i |c_i| |z|^i, the scale of
its own normwise backward error; non-convergence and a broken contract raise
``RootFindingError``. Double roots converge; roots of multiplicity three or
more do not.
"""

from __future__ import annotations

import mpmath as mp

from .hp import DEFAULT_PREC, guarded
from .poly import poly_eval, poly_to_mpc, poly_trim


class RootFindingError(ArithmeticError):
    pass


# Durand-Kerner sweeps before polyroots gives up
MAX_STEPS = 400


@guarded()
def poly_roots(coeffs, prec: int = DEFAULT_PREC):
    """All complex roots of c_0 + c_1 z + ... + c_n z^n, degree >= 1.

    Returns (roots, residuals) in the order described above. Residual
    contract: |p(z)| <= 2^-(prec/2) * sum_i |c_i| |z|^i for every root z.
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
            roots = mp.polyroots(co[::-1], maxsteps=MAX_STEPS,
                                 extraprec=wp - prec - 24)
        except mp.libmp.NoConvergence as exc:
            raise RootFindingError(f"polyroots did not converge: {exc}") from exc
    with mp.workprec(wp):
        roots = [mp.mpc(z) for z in roots]
        residuals = [abs(poly_eval(co, z)) for z in roots]
        moduli = [abs(c) for c in co]
        bounds = [mp.ldexp(poly_eval(moduli, abs(z)), -(prec // 2)) for z in roots]
    for res, bound in zip(residuals, bounds):
        if res > bound:
            raise RootFindingError(
                f"a root misses the residual contract (residual {res}, bound {bound})")
    order = sorted(range(n), key=lambda i: (mp.nint(mp.ldexp(roots[i].real, prec // 2)),
                                            roots[i].imag))
    return [roots[i] for i in order], [residuals[i] for i in order]
