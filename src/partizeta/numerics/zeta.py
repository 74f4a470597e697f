"""The Riemann zeta function and certified power-sum tails.

``riemann_zeta`` wraps mpmath's ``zeta`` (analytic continuation included)
with the pole rejections this package relies on. ``power_sum_tail`` is the
one Euler-Maclaurin engine: sum_{i >= N} (i + c)^{-w} with an explicit
remainder bound, which the restricted-part-set Euler products use for their
congruence-class tails.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from .hp import DEFAULT_PREC, guarded
from .series import TruncatedSeries
from .tables import zeta_neg_int


@guarded()
def power_sum_tail(w, c, N: int, prec: int = DEFAULT_PREC):
    """(value, bound) for sum_{i=N}^{inf} (i+c)^{-w}, Re(w) > 1, c >= 0.

    Euler-Maclaurin at x0 = N + c; the returned bound covers the truncated
    correction terms (first omitted term times the standard complex factor),
    not arithmetic rounding, which the guard bits absorb.
    """
    w = mp.mpmathify(w)
    if mp.re(w) <= 1:
        raise ValueError("power_sum_tail wants Re(w) > 1")
    V = max(8, (prec + 40) // 6)
    # the correction series is asymptotic: terms shrink only while
    # 2v < 2 pi x0, so push the expansion point out past ~V first
    N_eff = max(N, V + 2 + int(abs(mp.im(w)) / 4))
    head = mp.fsum((n + mp.mpf(c)) ** (-w) for n in range(N, N_eff))
    x0 = N_eff + mp.mpf(c)
    res = x0 ** (1 - w) / (w - 1) + x0 ** (-w) / 2
    rising = w  # (w)_{2v-1} for v = 1
    for v in range(1, V + 1):
        res += mp.bernoulli(2 * v) / mp.factorial(2 * v) * rising * x0 ** (-w - 2 * v + 1)
        rising = rising * (w + 2 * v - 1) * (w + 2 * v)
    nxt = abs(mp.bernoulli(2 * V + 2) / mp.factorial(2 * V + 2) * rising
              * x0 ** (-w - 2 * V - 1))
    corr = abs((w + 2 * V + 1) / (mp.re(w) + 2 * V + 1))
    return res + head, nxt * (corr + 1)


@guarded()
def riemann_zeta(s, prec: int = DEFAULT_PREC):
    """zeta(s) to relative error 2^-(prec-8), including the analytic
    continuation left of Re(s) = 1 that the meromorphic-extension experiment
    needs. The pole s = 1 and arguments within 2^-(prec/2) of it are
    rejected. Real input gives a real result.
    """
    s = mp.mpmathify(s)
    if mp.im(s) == 0:
        s = mp.re(s)
        if s == 1:
            raise ValueError("zeta pole at s=1")
    if abs(s - 1) < mp.ldexp(1, -(prec // 2)):
        raise ValueError("zeta evaluated too close to the pole s=1")
    return mp.zeta(s)


def euler_bernoulli_genfunc_check(T: int) -> bool:
    """Expand t/(1 - e^-t) to order T and match coefficients against zeta.

    Checks constant term 1, linear coefficient 1/2, and coefficient of
    t^{n+1} equal to -zeta(-n)/n! for 1 <= n <= T-1, all in exact rationals.
    """
    if T < 2:
        raise ValueError("need T >= 2")
    # (1 - e^-t)/t = sum_j (-1)^j t^j / (j+1)!
    denom = TruncatedSeries([Fraction((-1) ** j, math.factorial(j + 1)) for j in range(T + 1)], T)
    g = denom.reciprocal()
    if g[0] != 1 or g[1] != Fraction(1, 2):
        return False
    for n in range(1, T):
        if g[n + 1] != -zeta_neg_int(n) / math.factorial(n):
            return False
    return True
