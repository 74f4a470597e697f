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

from .hp import DEFAULT_PREC, check_work, guarded
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
    Its price is checked against the work budget before any iteration.
    """
    coeffs = poly_trim(list(coeffs))
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("poly_roots wants degree >= 1")
    # extra headroom: evaluation at |z| ~ R loses ~ n log2 R bits
    wp = 2 * prec + 8 * n + 64
    # n^3 (50 + wp^2/40000) units of ~1 us: sweeps of n^2 products, about n
    # of them. Priced and timed: degree 34 at 256 bits 2.6 x 10^6, 2.5 s;
    # degree 38 at 256 bits (a weight-40 profile) 3.8 x 10^6, ~3 s; degree 10
    # at 4096 bits 1.8 x 10^6, 1.7 s; degree 14 at 152 bits 1.5 x 10^5, 0.19 s
    # (2-core x86 VM, CPython 3.11, mpmath pure-Python backend, one fresh
    # process each)
    check_work(n ** 3 * (50 + wp * wp // 40000),
               f"the roots of a degree-{n} polynomial at {prec} bits")
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
