"""The Riemann zeta function and certified power-sum tails.

``riemann_zeta`` wraps mpmath's ``zeta`` (analytic continuation included)
with the pole rejections this package relies on. ``power_sum_tails`` is the
one Euler-Maclaurin engine: sum_{i >= N} (i + c)^{-js} for j = 1..J from one
setup, which the restricted-part-set Euler products use for their
congruence-class tails. Its correction loop runs on fixed-point Python
integers: each multiple sums only as many correction terms as its x0^{-js}
factor leaves visible at the working precision (an exact integer
comparison), and carries an explicit remainder bound computed in mp
arithmetic at that order from the first omitted term, rounded up by the
fixed-point truncation.
``zeta_multiples_direct`` gives zeta(sk) at the k where a short direct sum
already reaches the working precision, which the log series over multiples
uses.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

from .hp import DEFAULT_PREC, guarded
from .series import TruncatedSeries
from .tables import zeta_neg_int


def power_sum_tail(w, c, N: int, prec: int = DEFAULT_PREC):
    """(value, bound) for sum_{i=N}^{inf} (i+c)^{-w}, Re(w) > 1, c >= 0:
    the j = 1 entry of ``power_sum_tails``."""
    return power_sum_tails(w, 1, c, N, prec)[0]


# work budget of power_sum_tails: J x (N_eff - N + V), the multiples times
# the head powers and correction terms one setup may need. The 2N product
# at s = 2 needs 1.2 x 10^5 at 2048 bits (0.45 s) and 2.5 x 10^5 at 3000
# bits (1.5 s; 2-core x86 VM, mpmath pure-Python backend, one fresh process
# each); 8192 bits would need 1.9 x 10^6
POWER_SUM_MAX_WORK = 2 ** 18


@guarded()
def power_sum_tails(s, J: int, c, N: int, prec: int = DEFAULT_PREC):
    """[(value, bound)] for sum_{i=N}^{inf} (i+c)^{-js}, j = 1..J; Re(s) > 1,
    c >= 0.

    Euler-Maclaurin at x0 = N_eff + c, set up once for all J multiples: the
    powers (i+c)^{-js} and x0^{-js} are running products of the j = 1
    powers, and B_{2v}/(2v)! x0^{1-2v} is shared. The correction terms of
    multiple j are x0^{-w} T_v, w = js, T_v = B_{2v}/(2v)! x0^{1-2v}
    (w)_{2v-1}; the loop over v runs on Python integers scaled by 2^F,
    F = wp + 32 at working precision wp, stepping T_{v+1} = T_v rho_v
    (w+2v-1)(w+2v) with the ratios rho_v = coef_{v+1}/coef_v shared by all
    j. Each multiple sums its own number V_j <= V of terms: it stops at the
    first whose |x0^{-w} T_v| is below 2^-(wp+8), an exact integer
    comparison; the factor x0^{-js} makes late multiples need few. Each
    bound is then computed in mp arithmetic at V_j: the first omitted term,
    rounded up by the fixed-point truncation, times
    1 + |w+2V_j+1|/(Re w+2V_j+1) (the Backlund remainder bound plus the term
    itself). It covers the truncated correction, not arithmetic rounding,
    which the guard bits absorb. J x (N_eff - N + V) above
    POWER_SUM_MAX_WORK raises ArithmeticError (work budget) before any power
    is computed.
    """
    s = mp.mpmathify(s)
    if mp.re(s) <= 1:
        raise ValueError("power_sum_tails wants Re(s) > 1")
    V = max(8, (prec + 40) // 6)
    # the correction series is asymptotic: terms shrink only while
    # 2v < 2 pi x0, so push the expansion point out past ~V, far enough for
    # the largest |Im(js)|
    N_eff = max(N, V + 2 + int(J * abs(mp.im(s)) / 4))
    if J * (N_eff - N + V) > POWER_SUM_MAX_WORK:
        raise ArithmeticError(f"the power-sum tails of {J} multiples at {prec} bits need "
                              f"{J * (N_eff - N + V)} powers and correction terms; their "
                              f"work budget is POWER_SUM_MAX_WORK = {POWER_SUM_MAX_WORK}")
    c = mp.mpf(c)
    base = [(n + c) ** (-s) for n in range(N, N_eff)]
    x0 = N_eff + c
    x0_s = x0 ** (-s)
    coef = []  # B_{2v}/(2v)! x0^{1-2v}, v = 1..V+1
    x0_odd, x0_m2 = 1 / x0, x0 ** -2
    for v in range(1, V + 2):
        coef.append(mp.bernoulli(2 * v) / mp.factorial(2 * v) * x0_odd)
        x0_odd *= x0_m2
    wp = mp.mp.prec
    F = wp + 32
    # T_{v+1} = T_v q_v, q_v = rho_v (w^2 + (4v-1) w + (2v-1) 2v); quad[v-1]
    # holds the three coefficients at scale 2^(F+G). rho_v = m 2^e with
    # |rho_v| >= 1/(60 x0^2) > 2^-G and m of at most wp bits, so
    # e > -(G + wp) and they are exact integers
    G = 2 * math.ceil(math.log2(x0)) + 6
    FG = F + G
    quad = []
    for v in range(V):
        rho = to_fixed((coef[v + 1] / coef[v])._mpf_, FG)
        quad.append((rho, (4 * v + 3) * rho, (2 * v + 1) * (2 * v + 2) * rho))
    coef1 = to_fixed(coef[0]._mpf_, F)

    def fixed(n):  # n 2^-F as an mpf
        return mp.mpf(from_man_exp(n, -F))

    sr, si = to_fixed(mp.re(s)._mpf_, F), to_fixed(mp.im(s)._mpf_, F)
    log2_x0 = math.log2(x0)
    out = []
    head, x0_w = [1] * len(base), 1  # (i+c)^{-w} and x0^{-w} at w = js
    for j in range(1, J + 1):
        head = [h * b for h, b in zip(head, base)]
        x0_w *= x0_s
        w = j * s
        wr, wi = j * sr, j * si
        w2r, w2i = wr * wr - wi * wi >> F, 2 * wr * wi >> F  # w^2
        # |x0^{-w} T| < 2^-(wp+8) once |T| < limit in fixed point;
        # limit >= 2^27 since Re(w) > 1 and x0 >= 10
        limit = 1 << (F - wp - 8 + math.floor(float(mp.re(w)) * log2_x0))
        tr, ti = coef1 * wr >> F, coef1 * wi >> F  # T_1 = coef_1 w
        acc_r = acc_i = order = 0  # order = terms summed so far
        if wi:
            limit2 = limit * limit
            while order < V and tr * tr + ti * ti >= limit2:
                acc_r += tr
                acc_i += ti
                a, b, g = quad[order]
                qr, qi = (a * w2r + b * wr >> F) + g, a * w2i + b * wi >> F
                tr, ti = tr * qr - ti * qi >> FG, tr * qi + ti * qr >> FG
                order += 1
        else:
            while order < V and abs(tr) >= limit:
                acc_r += tr
                a, b, g = quad[order]
                tr = tr * ((a * w2r + b * wr >> F) + g) >> FG
                order += 1
        # each step truncates T once (< 1 ulp); an earlier truncation grows
        # as T does, and every summed |T| is >= limit >= 2^27 ulps, so T is
        # off by < order + 1 ulps plus order 2^-27 |T| per part; q_v's own
        # rounding (rho_v in mp, w^2 and q_v truncated) adds ~2^-(wp-8) |T|
        # per step, and 2^-20 |T| per step covers both
        slack = order + 1 + (order * (abs(tr) + abs(ti)) >> 20)
        nxt = (mp.hypot(fixed(tr), fixed(ti)) + fixed(2 * slack)) * abs(x0_w)
        corr = abs((w + 2 * order + 1) / (mp.re(w) + 2 * order + 1))
        res = x0 / (w - 1) + mp.mpf(1) / 2 + fixed(acc_r)
        if wi:
            res += mp.mpc(0, fixed(acc_i))
        out.append((x0_w * res + mp.fsum(head), nxt * (corr + 1)))
    return out


# a direct sum of at most this many terms stands in for zeta(w) once Re(w)
# is large enough (see direct_zeta_start)
DIRECT_MAX_TERMS = 40


def direct_zeta_start(sigma, prec: int) -> int:
    """Least k with sigma k > 1 + prec / log2(DIRECT_MAX_TERMS), sigma > 0.

    From there on zeta(sk), Re(s) = sigma, is the sum of its first
    DIRECT_MAX_TERMS terms to 2^-prec: the omitted terms add up to at most
    DIRECT_MAX_TERMS^{1 - sigma k}/(sigma k - 1).
    """
    return int(mp.floor((1 + prec / mp.log(DIRECT_MAX_TERMS, 2)) / sigma)) + 1


@guarded()
def zeta_multiples_direct(s, k_first: int, k_last: int, prec: int = DEFAULT_PREC):
    """[zeta(sk) for k = k_first..k_last] by direct sums, for
    k_first >= direct_zeta_start(Re(s), prec).

    zeta(sk) = sum_{n <= N_k} (n^{-s})^k, where N_k <= DIRECT_MAX_TERMS is the
    least N whose omitted terms, at most N^{1 - sigma k}/(sigma k - 1), stay
    below 2^-prec. The powers are running products of n^{-s}.
    """
    s = mp.mpmathify(s)
    if k_first < direct_zeta_start(mp.re(s), prec):
        raise ValueError(f"zeta(s k) at k={k_first} needs more than "
                         f"{DIRECT_MAX_TERMS} direct terms")
    sigma = float(mp.re(s))

    def enough(n, k):  # n^{1 - sigma k}/(sigma k - 1) <= 2^-prec
        x = sigma * k - 1
        return x * math.log2(n) + math.log2(x) >= prec

    n_max = DIRECT_MAX_TERMS
    while n_max > 2 and enough(n_max - 1, k_first):
        n_max -= 1
    base = [mp.mpf(n) ** (-s) for n in range(2, n_max + 1)]
    powers = [mp.mpf(n) ** (-s * k_first) for n in range(2, n_max + 1)]
    out = []
    for k in range(k_first, k_last + 1):
        while n_max > 2 and enough(n_max - 1, k):
            n_max -= 1
        del powers[n_max - 1:]  # keep n = 2..n_max
        out.append(1 + mp.fsum(powers))
        powers = [p * b for p, b in zip(powers, base)]
    return out


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
