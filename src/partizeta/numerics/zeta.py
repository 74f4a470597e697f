"""The Riemann zeta function and certified power-sum tails.

``riemann_zeta`` gives zeta(s) with the pole rejections this package relies
on; the log series over multiples is its one caller. A non-integer s with
Re(s) > 1 is summed by the engine below, with a certificate, 2-3x faster
than mpmath there; mpmath's ``zeta`` gives the integers (exact and cached,
cheaper than the engine), the analytic continuation Re(s) <= 1 (where the
engine sums nothing) and an s whose engine price is past the work budget.
``_class_tails`` is the one Euler-Maclaurin engine, and it has one shape:
the class sums sum_{i >= N} (Li + r)^{-js}, j = 1..J, from one setup; a
multiple with Re(js) <= 1 is not summed. The restricted-part-set Euler
products take their congruence-class tails from it. ``power_sum_tails`` is
its class 0 mod 1, sum_{i >= N} i^{-js} for Re(s) > 0; it gives
``riemann_zeta`` its engine values, the numeric ``fixedlen`` values and
the shuffle identity their zeta(mj) = 1 + sum_{i >= 2} i^{-mj}, and at
s = 1 the log-gamma expansion its tails H(k, N) = sum_{i >= N} i^-k.

The base powers are integer powers k^-s from a ``_Powers`` table built once
per request. k^-s is completely multiplicative, so only a prime costs an mp
power (Johansson's trick for power sums, in the paper cited below). Past
them the engine runs on fixed-point Python integers: the powers of every
multiple, the correction terms, the assembly and the certificate. Each
setup is priced by its bits (``_class_work``), and checked against the work
budget before any power. Each
multiple sums only as many correction terms as its y^{-js} factor
(y = L x0) leaves visible at the working precision, an exact integer
comparison. It carries an explicit bound, rounded up: the first omitted
term plus the truncation of every fixed-point step (Johansson, "Rigorous
high-precision computation of the Hurwitz zeta function and its
derivatives", 2015, for the remainder). The ratios of consecutive
B_2v/(2v)! are floored from the exact Bernoulli table, once per working
precision. The expansion point moves out with |Im(js)|, and further where
V terms are predicted to miss the stop (``_reach``).
``zeta_multiples_direct`` gives zeta(sk) at the k where a short direct sum
already reaches the working precision, which the log series over multiples
uses.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property

import mpmath as mp
from mpmath.libmp import from_man_exp, round_ceiling, to_fixed

from .hp import DEFAULT_PREC, WORK_BUDGET, check_work, estimating, guarded, working
from .tables import bernoulli_table, zeta_neg_int


# the price of mp powers and fixed-point steps, in units of ~1 us: an mp
# power at wp bits costs 30 + wp^2/5000 (a complex one: 0.05 ms at 256 bits,
# 0.66 ms at 2048, 36 ms at 16,384; only primes and non-integer s pay it
# all), a step at F bits 1 + F^2/2^20 (a complex one: 1.3 us at 256 bits,
# 5.7 us at 2048). For an Euler-Maclaurin setup the powers also cover the
# Bernoulli table to B_(2V+2) (V^3 growth, a tenth of that). Priced and
# timed: the heaviest tier-1 class 8.4 x 10^5, 0.6 s; 2N at s = 2,
# --prec 2048 9.0 x 10^5, 0.5 s, --prec 3150 4.2 x 10^6, 1.6 s; zeta(1835) at
# 15,000 bits 1.2 x 10^8, 14.6 s (2-core x86 VM, CPython 3.11, mpmath
# pure-Python backend, one fresh process each)
def _work(n_powers: int, steps: int, F: int) -> int:
    """The price of n_powers mp powers at F - 32 bits and steps fixed-point
    steps at F bits, in units of ~1 us."""
    return n_powers * (30 + (F - 32) ** 2 // 5000) + steps * (1 + (F * F >> 20))


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
    """The fixed-point powers of one request: k^-s, Re(s) > 0, for integers
    k >= 1 at scale 2^F, as (re, im, err), err an integer >= the error in
    units of 2^-F. s is first truncated to the grid (exact for arguments of
    at most F - 32 bits). An entry is made on first use, so a request pays
    only for the k it reads: a prime costs one mp power at the working
    precision, truncated (err 2), and so does a k with no factor below
    _TRIAL_DIVISORS; any other k = p m, p its least prime factor, is the
    fixed product of the entries of p and m, off by
    |p^-s| err(m) + |m^-s| err(p) + 2 <= (err(p) + err(m))/2 + 2 since
    p, m >= 2 (err(p) <= 2, so err stays <= 6). A prime p with
    (bitlen(p) - 1) Re(s) > F has p^-s < 2^-F: its entry is (0, 0, 1), an
    integer test with no mp power (a huge Re(s) costs nothing). The relative
    rounding of the mp powers (2^-wp each, once per prime factor) is left to
    the guard bits, as everywhere in this module. A table serves one request
    and is dropped with it.
    """

    def __init__(self, s, F: int):
        self.F = F
        self.sr, self.si = self.pair(s)
        self._entries = {1: (1 << F, 0, 0)}
        # reach[j]: the expansion point that the multiples 1..j need
        # (``_reach``), filled on first use
        self.reach: list[float] = []

    @cached_property
    def s(self):  # made on first use: normalizing it takes superlinear time in F
        return self.value(self.sr, self.si, bool(self.si))

    def pair(self, z) -> tuple[int, int]:
        """z 2^F as two integers, each truncated once."""
        if isinstance(z, mp.mpc):
            return to_fixed(z._mpc_[0], self.F), to_fixed(z._mpc_[1], self.F)
        return to_fixed(mp.mpf(z)._mpf_, self.F), 0

    def value(self, re: int, im: int, cplx: bool):
        """(re + i im) 2^-F as an mp number, rounded; an mpc when cplx."""
        x = self._mpf(re)
        return mp.mpc(x, self._mpf(im)) if cplx else x

    def _mpf(self, man: int):
        # the trailing zero bits are shifted out first: mpmath strips them a
        # byte at a time (2^F at F = 10^6 + 32: 1.8 s unshifted, 0.3 ms shifted)
        zeros = (man & -man).bit_length() - 1 if man else 0
        return mp.mpf(from_man_exp(man >> zeros, zeros - self.F))

    def __getitem__(self, k: int) -> tuple[int, int, int]:
        entry = self._entries.get(k)
        if entry is None:
            p = _least_prime_factor(k)
            if p == k and (k.bit_length() - 1) * self.sr > self.F << self.F:
                entry = (0, 0, 1)
            elif p == k:
                entry = (*self.pair(mp.mpf(k) ** (-self.s)), 2)
            else:
                ar, ai, ae = self[p]
                br, bi, be = self[k // p]
                entry = (*_mul(ar, ai, br, bi, self.F), (ae + be + 1) // 2 + 2)
            self._entries[k] = entry
        return entry


_LN_2PI = math.log(2 * math.pi)


def _ln_gamma_abs(z: complex) -> float:
    """ln|Gamma(z)|, Re(z) > 0, in doubles to ~1e-8: shifted up to Re(z) >= 10,
    then Stirling's series to its z^-3 term."""
    shift = 0.0
    while z.real < 10:
        shift += math.log(abs(z))
        z += 1
    return ((z - 0.5) * cmath.log(z) - z + 1 / (12 * z) - 1 / (360 * z ** 3)).real \
        + _LN_2PI / 2 - shift


def _reach(powers: _Powers, J: int, V: int) -> float:
    """The least expansion point x0 >= V + 2 at which the first correction
    term that ``_class_tails`` leaves out after V terms, |x0^-w T_(V+1)|, is
    predicted below its stop 2^-(wp+8), wp = F - 32, for every summed
    multiple w = js, j <= J.

    With |B_2v/(2v)!| = 2 zeta(2v)/(2 pi)^2v, n = 2V + 1, that term is
    2 |(w)_n| / ((2 pi)^(n+1) x0^(Re w + n)) up to zeta(n + 1) = 1 + 2^-n, so
    x0 must reach exp((ln|(w)_n| + ln 2 - (n+1) ln 2 pi + (wp+8) ln 2)/(Re w + n)),
    in doubles. ln|(w)_n| <= ln((|w|)_n) by ``math.lgamma`` comes first; only
    a multiple for which that bound could raise the maximum needs the exact
    ln|Gamma(w+n)/Gamma(w)|, and for real s the bound is exact. The maxima
    over j are kept in powers.reach. A multiple with Re w or |Im w| >= 2^40
    is skipped: with Im w that large the expansion point is already >= 2^38
    (``_class_shape``), past any work budget; with Re w that large x0 = 10
    does.
    """
    F = powers.F
    ONE = 1 << F
    if max(powers.sr, abs(powers.si)) >= ONE << 40:
        return V + 2.0
    reach = powers.reach
    if not reach:
        reach.append(V + 2.0)  # for no multiple
    n = 2 * V + 1
    c = math.log(2) * (F - 23) - (n + 1) * _LN_2PI
    first = ONE // max(powers.sr, 1) + 1  # the least j with Re(js) > 1, exactly
    # s in doubles, once (an integer quotient at 10^6 bits takes ~0.3 ms)
    sr, si = powers.sr / ONE, powers.si / ONE
    for j in range(len(reach), J + 1):
        need = reach[-1]
        if j >= first and max(j * sr, abs(j * si)) < 2.0 ** 40:
            w = complex(j * sr, j * si)
            a = abs(w)
            x0 = math.exp((math.lgamma(a + n) - math.lgamma(a) + c) / (w.real + n))
            if x0 > need and si:
                x0 = math.exp((_ln_gamma_abs(w + n) - _ln_gamma_abs(w) + c) / (w.real + n))
            need = max(need, x0)
        reach.append(need)
    return reach[J]


def _class_shape(powers: _Powers, J: int, r: int, L: int, N: int) -> tuple[int, int, int]:
    """(live, V, N_eff) of ``_class_tails``: the multiples j <= live are
    summed, the rest are below 2^-F; V is the order, N_eff the expansion
    point."""
    F = powers.F
    ONE = 1 << F
    # with Re(js) >= F + 1 + bitlen(a), a = LN + r, the sum is at most
    # a^(-Re js) (1 + a) <= 2^-F once its first base a is >= 2: 0, off by at
    # most 1 (a huge s needs no power and no 2^(Re js))
    a = L * N + r
    live = J if a < 2 else min(J, ((F + 1 + a.bit_length()) * ONE - 1) // powers.sr)
    V = max(8, (F - 32) // 6)
    # the correction series is asymptotic: terms shrink only while
    # 2v < 2 pi x0, so push the expansion point out past ~V, far enough for
    # the largest |Im(js)|; where V terms there are predicted to miss the
    # stop (a large |Im(js)|: a term then gains ~1 bit, not ~6), push it on
    # to the x0 = N_eff + r/L they need
    N_eff = max(N, V + 2 + live * abs(powers.si) // (4 * ONE))
    need = _reach(powers, live, V)
    if need > N_eff + r / L:
        N_eff = math.ceil(need - r / L)
    return live, V, N_eff


def _class_work(powers: _Powers, J: int, r: int, L: int, N: int) -> int:
    """The price of ``_class_tails``: at most N_eff - N + 1 mp powers and
    live (N_eff - N + V) fixed-point steps."""
    live, V, N_eff = _class_shape(powers, J, r, L, N)
    return _work(N_eff - N + 1, live * (N_eff - N + V), powers.F) if live else 0


def _class_tails(powers: _Powers, J: int, r: int, L: int, N: int):
    """[(re, im, err)] at scale 2^-F (F = powers.F) for the class sums
    sum_{i >= N} (Li + r)^{-js}, j = 1..J, L >= 1, r >= 0, N >= 1. err
    bounds the error in units of 2^-F; an unsummed multiple, Re(js) <= 1, is None.

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
    is below 2^-F is 0 with bound 1. The shape (which multiples are summed,
    V, N_eff) is ``_class_shape``'s, and ``_class_work`` its price: callers
    check it before any power.
    """
    F = powers.F
    wp = F - 32
    ONE = 1 << F
    sr, si = powers.sr, powers.si
    live, V, N_eff = _class_shape(powers, J, r, L, N)
    zeros = J - live
    J = live
    if not J:
        return [(0, 0, 1)] * zeros
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
        if wr <= ONE:  # Re(js) <= 1: not summed
            out.append(None)
            continue
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
def power_sum_tails(s, J: int, N: int, prec: int = DEFAULT_PREC):
    """[(value, bound)] for sum_{i=N}^{inf} i^{-js}, j = 1..J; Re(s) > 0,
    N >= 1. A multiple with Re(js) <= 1 is not summed: its entry is None.

    One ``_class_tails`` pass for the class 0 mod 1 at F = wp + 32, wp the
    working precision, its integer powers from a ``_Powers`` table of this
    call (one mp power per prime). Each value and bound becomes an mp number
    once, the bound rounded up to 24 bits; zeta(js) - 1, j = 1..J, is one
    call. ValueError for N < 1; its price (``power_sum_work``) is checked
    against the work budget before any power is computed.
    """
    if N < 1:
        raise ValueError(f"power_sum_tails wants N >= 1, not N = {N}")
    s = mp.mpmathify(s)
    if mp.re(s) <= 0:
        raise ValueError("power_sum_tails wants Re(s) > 0")
    powers = _Powers(s, mp.mp.prec + 32)
    check_work(_class_work(powers, J, 0, 1, N),
               f"the power sums of {J} multiples at {mp.mp.prec} bits")
    cplx = isinstance(s, mp.mpc)
    return [None if t is None else
            (powers.value(t[0], t[1], cplx), mp.mpf(from_man_exp(t[2], -powers.F, 24, round_ceiling)))
            for t in _class_tails(powers, J, 0, 1, N)]


def power_sum_work(s, J: int, N: int, prec: int = DEFAULT_PREC) -> int:
    """The price of ``power_sum_tails(s, J, N, prec)``, for a caller that
    prices it with its own work."""
    with working(prec):
        return _class_work(_Powers(mp.mpmathify(s), mp.mp.prec + 32), J, 0, 1, N)


# a direct sum of at most this many terms stands in for zeta(w) once Re(w)
# is large enough (see direct_zeta_start)
DIRECT_MAX_TERMS = 40


def direct_zeta_start(sigma, prec: int) -> int:
    """Least k with sigma k > 1 + prec / log2(DIRECT_MAX_TERMS), sigma > 0,
    at 53 bits whatever the working precision (every caller gets one k).

    From there on zeta(sk), Re(s) = sigma, is the sum of its first
    DIRECT_MAX_TERMS terms to 2^-prec: the omitted terms add up to at most
    DIRECT_MAX_TERMS^{1 - sigma k}/(sigma k - 1).
    """
    with estimating():
        return int((1 + prec / mp.log(DIRECT_MAX_TERMS, 2)) / +sigma) + 1


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

    A non-integer s with Re(s) > 1 is the power sum sum_{i >= 1} i^-s from one
    ``power_sum_tails(s, 1, 1, prec)`` setup, the certified engine, 2-3x
    faster there than mpmath's zeta: its bound must be within
    2^(7-prec) |zeta(s)| (the final rounding to prec bits takes the rest of
    2^(8-prec)), else ArithmeticError. mpmath's ``zeta`` gives every other
    value: an integer s (exact and cached, cheaper than the engine), Re(s) <= 1
    (where the engine sums nothing), and an s whose engine price is past the
    work budget (|Im(s)| in the tens of thousands at 1024 bits, say).
    """
    s = mp.mpmathify(s)
    if mp.im(s) == 0:
        s = mp.re(s)
        if s == 1:
            raise ValueError("zeta pole at s=1")
    if abs(s - 1) < mp.ldexp(1, -(prec // 2)):
        raise ValueError("zeta evaluated too close to the pole s=1")
    if mp.re(s) <= 1 or mp.isint(s) or power_sum_work(s, 1, 1, prec) > WORK_BUDGET:
        return mp.zeta(s)
    value, bound = power_sum_tails(s, 1, 1, prec)[0]
    if bound > mp.ldexp(abs(value) - bound, 7 - prec):
        raise ArithmeticError(f"the power sum's bound {bound} misses 2^(7-{prec}) |zeta(s)|")
    return value


def riemann_zeta_work(s, prec: int) -> int:
    """The price of ``riemann_zeta(s, prec)``, in units of ~1 us, at least 400.

    mpmath's zeta: 400 + prec^2/50 (m = 2, s = 1.5: 38 calls in 0.07 s at
    256 bits, 134 in 2.5 s at 1024, 263 in 25.2 s at 2048; 2-core x86 VM).
    The engine: 400 for the call, N_eff + V fixed-point steps (``_class_shape``;
    N_eff grows with |Im(s)|), and an mp power for y and for each prime
    p <= X = min(N_eff, 2^(F/Re(s) + 1)), at most 1.26 X/ln(X) of them
    (Rosser-Schoenfeld; ``_Powers`` zeroes a prime past 2^(F/Re(s) + 1) with
    no power). ``power_sum_work`` would price every head base as an mp power.
    """
    s = mp.mpmathify(s)
    if mp.re(s) <= 1 or mp.isint(s):
        return 400 + prec * prec // 50
    with working(prec):
        powers = _Powers(s, mp.mp.prec + 32)
        _, V, N_eff = _class_shape(powers, 1, 0, 1, 1)
    F = powers.F
    X = min(N_eff, 2.0 ** min(64, F * (1 << F) / powers.sr + 1))
    return 400 + _work(math.ceil(1.26 * X / math.log(X)) + 1, N_eff + V, F)


def euler_bernoulli_genfunc_check(T: int) -> bool:
    """Expand t/(1 - e^-t) to order T and match coefficients against zeta.

    Checks constant term 1, linear coefficient 1/2, and coefficient of
    t^{n+1} equal to -zeta(-n)/n! for 1 <= n <= T-1, all in exact rationals.
    """
    if T < 2:
        raise ValueError("need T >= 2")
    # (1 - e^-t)/t = sum_j d_j t^j, d_j = (-1)^j / (j+1)!, d_0 = 1; its
    # reciprocal g: g_0 = 1, g_n = -sum_{i<=n} d_i g_{n-i}
    d = [Fraction((-1) ** j, math.factorial(j + 1)) for j in range(T + 1)]
    g = [1]
    for n in range(1, T + 1):
        g.append(-sum(d[i] * g[n - i] for i in range(1, n + 1)))
    if g[0] != 1 or g[1] != Fraction(1, 2):
        return False
    for n in range(1, T):
        if g[n + 1] != -zeta_neg_int(n) / math.factorial(n):
            return False
    return True
