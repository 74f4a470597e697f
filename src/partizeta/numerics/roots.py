"""Polynomial roots: Durand-Kerner in two stages, Python floats then
mpmath's ``polyroots``, with a residual contract and a stable order.

The float stage iterates on the polynomial scaled by a root-radius bound
until every correction is below 2^-44; its roots seed ``polyroots``, which
then needs only the few quadratic sweeps from there to its 2^-(prec+24)
stop at the working precision. Where doubles cannot settle the roots (no
convergence, a start that is not finite, roots outside the double range)
``polyroots`` runs from its own start, at its own price.

Roots come back as ``mpc``, sorted by real part rounded to 2^-(prec/2) and
then by imaginary part, so conjugate pairs on a common vertical line (the
critical line Re = 1/2, say) always list the lower root first. Each residual
|p(z)| is checked against 2^-(prec/2) times sum_i |c_i| |z|^i, the scale of
its own normwise backward error; non-convergence and a broken contract raise
``RootFindingError``. Double roots converge; roots of multiplicity three or
more do not.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

from .hp import DEFAULT_PREC, check_work, estimating, guarded
from .poly import poly_eval, poly_to_mpc, poly_trim


class RootFindingError(ArithmeticError):
    pass


# Durand-Kerner sweeps before polyroots gives up, and before the float stage does
MAX_STEPS = 400
# the float stage has converged once every correction of the scaled roots is below this
FLOAT_STOP = 2.0 ** -44
# ... and has stalled once its largest correction, already below STALL_FLOOR,
# has gone STALL_STEPS sweeps without a new low: doubles then sit at their
# noise floor above FLOAT_STOP (the period polynomial of the weight-42
# profile Lambda = 21, ..., 1, ..., 21 wanders near 1e-12 from sweep 164 on
# and gives up at 190). Above the floor a run can wander longer on its way in
# (that one, 22 sweeps near 3e-3); below it a converging run goes at most 14
# sweeps without a new low ((z - 1)^2 (z + 2))
STALL_FLOOR = 2.0 ** -20
STALL_STEPS = 20


def _float_seeds(co, n):
    """Durand-Kerner start points for the roots of co = c_0..c_n (mpc), found
    in Python complex arithmetic, or None where doubles cannot settle them.

    The iteration runs on q(w) = p(R w)/(c_n R^n), R = max_i |c_i/c_n|^(1/(n-i))
    (a root-radius bound up to a factor 2), whose coefficients have modulus
    <= 1; it starts on the unit circle, off the real axis and not symmetric
    about it (real starts of a real polynomial never leave the real axis). R
    and q are formed at 64 bits. None when the sweeps do not converge within
    MAX_STEPS or stall (STALL_STEPS sweeps without a new low of the largest
    correction, once below STALL_FLOOR), or a start point R w is not finite
    or repeats another.
    """
    with estimating(64):
        lead = co[-1]
        radii = [abs(c / lead) ** (mp.mpf(1) / (n - i)) for i, c in enumerate(co[:-1]) if c]
        if not radii:  # p = c_n z^n
            return None
        R = max(radii)
        q = [complex(c / lead / R ** (n - i)) for i, c in enumerate(co)]
        R = float(R)
    w = [cmath.exp(1j * (2 * math.pi * j + math.pi / 2) / n) for j in range(n)]
    best, since = math.inf, 0
    try:
        for _ in range(MAX_STEPS):
            worst = 0.0
            for i, z in enumerate(w):
                x = poly_eval(q, z)
                for j, y in enumerate(w):
                    if j != i and z != y:
                        x /= z - y
                w[i] = z - x
                worst = max(worst, abs(x))
            if worst < FLOAT_STOP:
                break
            best, since = (worst, 0) if worst < best else (best, since + 1)
            if since >= STALL_STEPS and best < STALL_FLOOR:
                return None
        else:  # no convergence (a multiple root, or too ill-conditioned for doubles)
            return None
    except OverflowError:  # abs() of a finite complex past the double range
        return None
    seeds = [R * z for z in w]
    # Durand-Kerner divides by the differences of its start points
    if not all(map(cmath.isfinite, seeds)) or len(set(seeds)) < n:
        return None
    return [mp.mpc(z) for z in seeds]


@guarded()
def poly_roots(coeffs, prec: int = DEFAULT_PREC):
    """All complex roots of c_0 + c_1 z + ... + c_n z^n, degree >= 1.

    Returns (roots, residuals) in the order described above. Residual
    contract: |p(z)| <= 2^-(prec/2) * sum_i |c_i| |z|^i for every root z.
    The roots are seeded from the float stage and finished by ``polyroots``
    at wp = 2 prec + 8 n + 64 bits. The price of both stages is checked
    against the work budget before any iteration; where the float stage
    yields no seeds, the price of a cold ``polyroots`` is checked before it
    runs.
    """
    coeffs = poly_trim(coeffs)
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("poly_roots wants degree >= 1")
    # extra headroom: evaluation at |z| ~ R loses ~ n log2 R bits
    wp = 2 * prec + 8 * n + 64
    # in units of ~1 us: the float stage, at most MAX_STEPS sweeps of n^2
    # complex steps at ~1/3 each; then the mp stage, sweeps of n^2 steps at
    # 30 + wp^2/120000: one per doubling of the seeds' 2^-44 to 2^-(prec+24),
    # one that sees the stop, two of margin and one for the residuals. Priced
    # and timed: degree 14 at 152 bits (H_16^+) 6.3 x 10^4, 0.03 s; degree 34
    # at 256 bits (H_36^+) 4.4 x 10^5, 0.20 s; degree 10 at 4096 bits (H_12^+)
    # 6.8 x 10^5, 0.52 s; degree 10 at 8000 bits (Delta's period polynomial)
    # 2.7 x 10^6, 1.7 s (2-core x86 VM, CPython 3.11, mpmath pure-Python
    # backend, one fresh process each)
    step = n * n * (30 + wp * wp // 120000)
    floats = MAX_STEPS * n * n // 3
    what = f"the roots of a degree-{n} polynomial at {prec} bits"
    check_work(floats + (math.ceil(math.log2((prec + 24) / 44)) + 4) * step, what)
    co = poly_to_mpc(coeffs, wp)
    seeds = _float_seeds(co, n)
    if seeds is None:
        # from its own start polyroots takes about n + 10 sweeps (19 for
        # H_16^+, 44 for H_36^+). Priced and timed: degree 42 at 256 bits (the
        # period polynomial of Lambda = 22, ..., 1, ..., 22) 3.7 x 10^6, 2.2 s
        check_work(floats + (n + 12) * step, what)
    # polyroots iterates at wp but stops once every correction is below the
    # eps of the calling context, 2^-(prec+24). A double root stalls near
    # 2^-(wp/2), below that stop; simple roots converge quadratically past it.
    with mp.workprec(prec + 24):
        try:
            roots = mp.polyroots(co[::-1], maxsteps=MAX_STEPS,
                                 extraprec=wp - prec - 24, roots_init=seeds)
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
