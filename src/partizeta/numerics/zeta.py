"""The Riemann zeta function and certified power-sum tails.

``riemann_zeta`` wraps mpmath's ``zeta`` (analytic continuation included)
with the pole rejections this package relies on. ``_class_tails`` is the
one Euler-Maclaurin engine, and it has one shape: the class sums
sum_{i >= N} (Li + r)^{-js}, j = 1..J, from one setup. The
restricted-part-set Euler products take their congruence-class tails from
it. ``power_sum_tails`` is its class c mod 1, sum_{i >= N} (i + c)^{-js}
for an integer c >= 0; it gives the numeric ``fixedlen`` values their
zeta(mj) = 1 + sum_{i >= 2} i^{-mj}.

The base powers are integer powers k^-s from a ``_Powers`` table built once
per request. k^-s is completely multiplicative, so only a prime costs an mp
power (Johansson's trick for power sums, in the paper cited below). Past
them the engine runs on fixed-point Python integers: the powers of every
multiple, the correction terms, the assembly and the certificate. Each
setup is priced by its bits before any power (``POWER_SUM_MAX_WORK``). Each
multiple sums only as many correction terms as its y^{-js} factor
(y = L x0) leaves visible at the working precision, an exact integer
comparison. It carries an explicit bound, rounded up: the first omitted
term plus the truncation of every fixed-point step (Johansson, "Rigorous
high-precision computation of the Hurwitz zeta function and its
derivatives", 2015, for the remainder). The ratios of consecutive
B_2v/(2v)! are floored from the exact Bernoulli table, once per working
precision. ``zeta_multiples_direct`` gives zeta(sk) at the k where a short
direct sum already reaches the working precision, which the log series over
multiples uses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import mpmath as mp
from mpmath.libmp import from_man_exp, round_ceiling, to_fixed

from .hp import DEFAULT_PREC, guarded
from .series import TruncatedSeries
from .tables import bernoulli_table, zeta_neg_int


# work budget of the Euler-Maclaurin setups, in units of ~1 us: at most
# N_eff - N + 1 mp powers at 30 + wp^2/5000 each (a complex one: 0.05 ms at
# 256 bits, 0.66 ms at 2048, 36 ms at 16,384; only primes and non-integer s
# pay it all), which also covers the Bernoulli table to B_(2V+2) (V^3
# growth, a tenth of that), plus J (N_eff - N + V) fixed-point steps at
# 1 + F^2/2^20 (a complex one: 1.3 us at 256 bits, 5.7 us at 2048).
# Priced and timed: the heaviest tier-1 class 8.4 x 10^5, 0.6 s; 2N at s = 2,
# --prec 2048 9.0 x 10^5, 0.5 s, --prec 3150 (the last that runs) 4.2 x 10^6,
# 1.6 s; zeta(1835) at 15,000 bits 1.2 x 10^8, 14.6 s (2-core x86 VM,
# CPython 3.11, mpmath pure-Python backend, one fresh process each)
POWER_SUM_MAX_WORK = 2 ** 22


def _check_work(n_powers: int, steps: int, wp: int, what: str) -> None:
    """ArithmeticError (work budget) if n_powers mp powers at wp bits and
    steps fixed-point steps at wp + 32 bits cost more than POWER_SUM_MAX_WORK."""
    work = n_powers * (30 + wp * wp // 5000) + steps * (1 + ((wp + 32) ** 2 >> 20))
    if work > POWER_SUM_MAX_WORK:
        raise ArithmeticError(f"{what} at {wp} bits needs {work} units of mp powers and "
                              f"fixed-point steps; its work budget is "
                              f"POWER_SUM_MAX_WORK = {POWER_SUM_MAX_WORK}")

# floor(beta_v 2^F) by F (V is a function of the precision, so of F), filled
# on first use by power_sum_tails, which holds the precision lock
_BERNOULLI_RATIOS: dict[int, list[int]] = {}


def _bernoulli_ratios(V: int, F: int) -> list[int]:
    """floor(beta_v 2^F), v = 1..V, beta_v = (B_{2v+2}/(2v+2)!)/(B_{2v}/(2v)!)
    = B_{2v+2}/(B_{2v} (2v+1)(2v+2)), from the exact ``bernoulli_table``."""
    if F not in _BERNOULLI_RATIOS:
        B = bernoulli_table(2 * V + 2)
        _BERNOULLI_RATIOS[F] = [(b.numerator * a.denominator << F)
                                // (b.denominator * a.numerator * (2 * v + 1) * (2 * v + 2))
                                for v, a, b in zip(range(1, V + 1), B[2::2], B[4::2])]
    return _BERNOULLI_RATIOS[F]


def _modulus(re: int, im: int) -> int:
    """An integer >= |re + i im|."""
    return math.isqrt(re * re + im * im) + 1 if im else abs(re)


def _pow2_above(num: int, den: int) -> int:
    """A k >= 0 with num <= den 2^k (den > 0); 0 when num <= den."""
    return 0 if num <= den else num.bit_length() - den.bit_length() + 1


def _mul(a: int, b: int, p: int, q: int, F: int) -> tuple[int, int]:
    """(a + ib)(p + iq) 2^-F, each part truncated once: three products,
    k = p(a + b), re = k - b(p + q), im = k + a(q - p), exact before the
    shift."""
    if not (b or q):
        return a * p >> F, 0
    k = p * (a + b)
    return k - b * (p + q) >> F, k + a * (q - p) >> F


# trial division stops below this divisor: a k with no smaller factor is
# one mp power, truncated once like a prime's, so a huge part (a prime such
# as 2^89 - 1, say) costs at most ~2000 divisions
_TRIAL_DIVISORS = 1 << 12


def _least_prime_factor(k: int) -> int:
    """The least prime factor of k >= 2, or k when it has none below
    _TRIAL_DIVISORS."""
    if not k & 1:
        return 2
    d = 3
    while d * d <= k and d < _TRIAL_DIVISORS:
        if k % d == 0:
            return d
        d += 2
    return k


class _Powers:
    """The fixed-point powers of one request: k^-s, Re(s) > 1, for integers
    k >= 1 at scale 2^F, as (re, im, err), err an integer >= the error in
    units of 2^-F. s is first truncated to the grid (exact for arguments of
    at most F - 32 bits). An entry is made on first use, so a request pays
    only for the k it reads: a prime costs one mp power at the working
    precision, truncated (err 2), and so does a k with no factor below
    _TRIAL_DIVISORS; any other k = p m, p its least prime factor, is the
    fixed product of the entries of p and m, off by
    |p^-s| err(m) + |m^-s| err(p) + 2 <= (err(p) + err(m))/2 + 2 since
    p, m >= 2 (err(p) = 2, so err stays <= 6). The relative rounding of the
    mp powers (2^-wp each, once per prime factor) is left to the guard bits,
    as everywhere in this module. A table serves one request and is dropped
    with it.
    """

    def __init__(self, s, F: int):
        self.F = F
        self.sr, self.si = self.pair(s)
        self._entries = {1: (1 << F, 0, 0)}

    @cached_property
    def s(self):  # made on first use: normalizing it takes superlinear time in F
        return self.value(self.sr, self.si, bool(self.si))

    def pair(self, z) -> tuple[int, int]:
        """z 2^F as two integers, each truncated once."""
        if isinstance(z, mp.mpc):
            return to_fixed(z._mpc_[0], self.F), to_fixed(z._mpc_[1], self.F)
        return to_fixed(mp.mpf(z)._mpf_, self.F), 0

    def value(self, re: int, im: int, cplx: bool):
        """(re + i im) 2^-F as an mp number, exactly; an mpc when cplx."""
        x = mp.mpf(from_man_exp(re, -self.F))
        return mp.mpc(x, mp.mpf(from_man_exp(im, -self.F))) if cplx else x

    def __getitem__(self, k: int) -> tuple[int, int, int]:
        entry = self._entries.get(k)
        if entry is None:
            p = _least_prime_factor(k)
            if p == k:
                entry = (*self.pair(mp.mpf(k) ** (-self.s)), 2)
            else:
                ar, ai, ae = self[p]
                br, bi, be = self[k // p]
                entry = (*_mul(ar, ai, br, bi, self.F), (ae + be + 1) // 2 + 2)
            self._entries[k] = entry
        return entry


def _class_tails(powers: _Powers, J: int, r: int, L: int, N: int):
    """[(re, im, err)] at scale 2^-F (F = powers.F) for the class sums
    sum_{i >= N} (Li + r)^{-js}, j = 1..J, L >= 1, r >= 0, N >= 1. err
    bounds the error in units of 2^-F.

    Euler-Maclaurin at x0 = N_eff + r/L, set up once for all J multiples, on
    Python integers at scale 2^F (pairs for complex s). The base powers
    (Li + r)^{-s}, N <= i < N_eff, and y^{-s}, y = L N_eff + r, come from
    ``powers``; every x0 term is formed from the exact y and L. The head
    powers and y^{-js} are running products of the j = 1 powers; a head
    power whose fixed-point value reaches 0 stays 0 and is dropped. Multiple
    j adds
    y^{-w} (x0/(w-1) + 1/2 + sum_v T_v), w = js,
    T_v = B_{2v}/(2v)! x0^{1-2v} (w)_{2v-1}, stepped as
    T_{v+1} = T_v rho_v (w+2v-1)(w+2v) with rho_v = beta_v x0^{-2}; the
    ratios beta_v do not depend on x0 and are built once per working
    precision. Each multiple sums its own number V_j <= V of terms: it stops
    at the first whose |y^{-w} T_v| is below 2^-(wp+8), wp = F - 32, an
    exact integer comparison; the factor y^{-js} makes late multiples need
    few. Each bound is an integer rounded up: the first omitted term, rounded
    up by the fixed-point truncation, times 1 + |w+2V_j+1|/(Re w+2V_j+1) (the
    Backlund remainder bound plus the term itself), plus the truncation ulps
    of every power, correction term and assembly step. A multiple whose sum
    is below 2^-F (test below) is 0 with bound 1; the rest are priced, mp
    powers and fixed-point steps by their bits, before any power and before
    the Bernoulli ratios: past POWER_SUM_MAX_WORK, ArithmeticError.
    """
    F = powers.F
    wp = F - 32
    ONE = 1 << F
    sr, si = powers.sr, powers.si
    # with Re(js) >= F + 1 + bitlen(a), a = LN + r, the sum is at most
    # a^(-Re js) (1 + a) <= 2^-F once its first base a is >= 2: 0, off by at
    # most 1 (a huge s needs no power and no 2^(Re js))
    a = L * N + r
    live = J if a < 2 else ((F + 1 + a.bit_length()) * ONE - 1) // sr
    zeros = max(0, J - live)
    J -= zeros
    if not J:
        return [(0, 0, 1)] * zeros
    V = max(8, wp // 6)
    # the correction series is asymptotic: terms shrink only while
    # 2v < 2 pi x0, so push the expansion point out past ~V, far enough for
    # the largest |Im(js)|
    N_eff = max(N, V + 2 + J * abs(si) // (4 * ONE))
    _check_work(N_eff - N + 1, J * (N_eff - N + V), wp, f"the power-sum tail of {J} multiples")
    y = L * N_eff + r  # x0 = y/L
    base = [powers[L * i + r] for i in range(N, N_eff)] + [powers[y]]
    x0r, x0i, x0e = base.pop()
    br, bi = [b[0] for b in base], [b[1] for b in base]
    be = max((b[2] for b in base), default=0)
    # every |base| <= 2^kh, the fixed powers included (kh = 0 unless a base is 1)
    kh = _pow2_above(max((_modulus(p, q) for p, q in zip(br, bi)), default=0) + be, ONE)
    # T_{v+1} = T_v rho_v P_v, P_v = (w+2v-1)(w+2v); rho[v-1] is rho_v at
    # scale 2^(F+G), G = 2 ceil(log2 x0) + 6: |rho_v| >= 1/(60 x0^2) > 2^-G
    # keeps F bits in each
    log2_x0 = math.log2(y / L)
    G = 2 * math.ceil(log2_x0) + 6
    FG = F + G
    Y2 = y * y
    inv_x0_2 = (L * L << F + G) // Y2  # x0^-2 2^(F+G)
    rho = [beta * inv_x0_2 >> F for beta in _bernoulli_ratios(V, F)]
    out = []
    hr, hi = br, bi  # (Li+r)^{-w} and y^{-w} at w = js
    xr, xi = x0r, x0i
    # (a + ib)(p + iq) in three products as in _mul, with p + q and q - p
    # formed once per base
    bsum = [p + q for p, q in zip(br, bi)]
    bdif = [q - p for p, q in zip(br, bi)]
    x0sum, x0dif = x0r + x0i, x0i - x0r
    for j in range(1, J + 1):
        if j > 1:
            if si:
                ks = [p * (a + b) for a, b, p in zip(hr, hi, br)]
                hr, hi = ([k - b * u >> F for k, b, u in zip(ks, hi, bsum)],
                          [k + a * d >> F for k, a, d in zip(ks, hr, bdif)])
                while hr and not (hr[-1] or hi[-1]):
                    hr.pop()
                    hi.pop()
                k = x0r * (xr + xi)
                xr, xi = k - xi * x0sum >> F, k + xr * x0dif >> F
            else:
                hr = [h * b >> F for h, b in zip(hr, br)]
                while hr and not hr[-1]:
                    hr.pop()
                xr = xr * x0r >> F
        wr, wi = j * sr, j * si
        # |y^{-w} T| < 2^-(wp+8) once |T| < limit in fixed point;
        # limit >= 2^27 since Re(w) > 1 and x0 >= 10
        limit = 1 << (F - wp - 8 + math.floor(wr / ONE * log2_x0))
        tr, ti = wr * L // (12 * y), wi * L // (12 * y)  # T_1 = w/(12 x0)
        # P_v = w^2 + (4v-1) w + (2v-1) 2v steps by the exact
        # D_v = 4 w + (8v+2), D_(v+1) = D_v + 8: w^2 is its only truncation
        Pr, Pi = (wr * wr - wi * wi >> F) + 3 * wr + 2 * ONE, (2 * wr * wi >> F) + 3 * wi
        Dr, Di, eight = 4 * wr + 10 * ONE, 4 * wi, 8 * ONE
        acc_r = acc_i = order = 0  # order = terms summed so far
        if wi:
            limit2 = limit * limit
            while order < V and tr * tr + ti * ti >= limit2:
                acc_r += tr
                acc_i += ti
                qr, qi = rho[order] * Pr >> F, rho[order] * Pi >> F
                k = qr * (tr + ti)
                tr, ti = k - ti * (qr + qi) >> FG, k + tr * (qi - qr) >> FG
                Pr += Dr
                Pi += Di
                Dr += eight
                order += 1
        else:
            while order < V and abs(tr) >= limit:
                acc_r += tr
                tr = tr * (rho[order] * Pr >> F) >> FG
                Pr += Dr
                Dr += eight
                order += 1
        # res = x0/(w-1) + 1/2 + sum_v T_v, value = y^{-w} res + head
        a = wr - ONE
        if wi:
            d = L * (a * a + wi * wi)
            rr = (y * a << 2 * F) // d + (ONE >> 1) + acc_r
            ri = -(y * wi << 2 * F) // d + acc_i
            vr = (xr * rr - xi * ri >> F) + sum(hr)
            vi = (xr * ri + xi * rr >> F) + sum(hi)
        else:
            rr, ri = (y << 2 * F) // (L * a) + (ONE >> 1) + acc_r, 0
            vr, vi = (xr * rr >> F) + sum(hr), 0
        # Error bounds in ulps (2^-F), as moduli. Each truncation to the grid
        # (>> F, //) is off by < 1 per part, < sqrt(2) in modulus. A power
        # p^j whose fixed base is within e of p, |p| <= 2^k, has
        # e_j <= 2^k e_(j-1) + e 2^(k(j-1)) + 2, so e_j <= j (e + 2) 2^(k(j-1)):
        # e_x for y^{-w} (k = 0, y >= 10) and e_h for each of the n head
        # powers, dropped ones included (their true value is at most e_h).
        # The head sum is exact.
        e_x = j * (x0e + 2)
        e_h = len(br) * (j * (be + 2) << kh * (j - 1))
        # T_1 and each step truncate once, and an error grows by |q_v| <= 2^kg
        # (|beta_v| < 1/(4 pi^2) < 1/39, |w+2v-1||w+2v| <= (|w| + 2 order)^2
        # for the summed steps), so the summed T_v are off by
        # < sqrt(2) v 2^(kg(v-1)) and their sum by < order (order+1) 2^(kg order);
        # x0/(w-1) adds < 2, 1/2 is exact
        kg = _pow2_above(((_modulus(wr, wi) + 2 * order * ONE) * L) ** 2, 39 * Y2 * ONE * ONE)
        e_res = 2 + (order * (order + 1) << kg * order)
        # the fixed product of x = y^{-w} and res is off by
        # <= |x| e_res + |res| e_x, |x| < 1, plus its own truncation
        e_val = e_h + e_res + -(-_modulus(rr, ri) * e_x // ONE) + 2
        # each step truncates T once (< 1 ulp); an earlier truncation grows
        # as T does, and every summed |T| is >= limit >= 2^27 ulps, so T is
        # off by < order + 1 ulps plus order 2^-27 |T| per part; q_v's own
        # rounding (rho_v and w^2 truncated) adds ~2^-(wp-8) |T| per step,
        # and 2^-20 |T| per step covers both
        slack = order + 1 + (order * (abs(tr) + abs(ti)) >> 20)
        # first omitted term times 1 + |w+2V_j+1|/(Re w+2V_j+1), rounded up
        cd = wr + (2 * order + 1) * ONE
        num = (_modulus(tr, ti) + 2 * slack) * (_modulus(xr, xi) + e_x) * (_modulus(cd, wi) + cd)
        out.append((vr, vi, -(-num // (cd * ONE)) + e_val))
    return out + [(0, 0, 1)] * zeros


@guarded()
def power_sum_tails(s, J: int, c: int, N: int, prec: int = DEFAULT_PREC):
    """[(value, bound)] for sum_{i=N}^{inf} (i+c)^{-js}, j = 1..J; Re(s) > 1,
    c a non-negative int, N >= 1.

    One ``_class_tails`` pass for the class c mod 1 at F = wp + 32, wp the
    working precision, its integer powers from a ``_Powers`` table of this
    call (one mp power per prime). Each value and bound becomes an mp number
    once, the bound rounded up to 24 bits; zeta(js) - 1, j = 1..J, is one
    call. ValueError for c not an int >= 0 (a bool, Fraction or mp number
    included) or N < 1; a price above POWER_SUM_MAX_WORK raises
    ArithmeticError (work budget) before any power is computed.
    """
    if type(c) is not int or c < 0 or N < 1:
        raise ValueError(f"power_sum_tails wants c a non-negative int and N >= 1, "
                         f"not c = {c!r}, N = {N}")
    s = mp.mpmathify(s)
    if mp.re(s) <= 1:
        raise ValueError("power_sum_tails wants Re(s) > 1")
    powers = _Powers(s, mp.mp.prec + 32)
    cplx = isinstance(s, mp.mpc)
    return [(powers.value(vr, vi, cplx), mp.mpf(from_man_exp(err, -powers.F, 24, round_ceiling)))
            for vr, vi, err in _class_tails(powers, J, c, 1, N)]


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
