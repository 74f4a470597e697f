"""Zeta functions of partitions over restricted part sets, by independent routes.

Routes implemented:

* ``euler_product`` -- the defining product over the parts, multiplied out
  up to a finite cutoff, with the remaining log-tail summed exactly through
  congruence-class power sums: one batched Euler-Maclaurin pass per residue
  class serves every multiple js (the engine of ``power_sum_tails``,
  certified bounds).
* ``dirichlet_partition_series`` -- the same product with a periodic weight
  chi, |chi| <= 1; ``euler_product`` is its chi = 1 case. One fixed-point
  pass on Python integers: k^-s comes from an integer-power table of the
  request (an mp power per prime only, k^-s being completely multiplicative),
  the finite product, the class tails and the j-series are integer products,
  and one ``exp`` ends it. The tests check it against a k-series in mpmath's
  Hurwitz zeta and the brute Dirichlet series.
* ``closed_form_gamma`` -- the gamma-product closed form for a single
  congruence class {a+m, a+2m, ...} at integer argument n >= 2, from the
  log-gamma sum over the n-th roots of unity (``_log_gamma_ring``: mpmath's
  ``loggamma`` once per conjugate pair of roots, at the route's precision).
* ``log_eval_general`` -- the log-gamma expansion of the same closed form:
  the finite product as logs for i < N, then the tails H(k, N) = sum_{i >= N}
  i^-k from ``power_sum_tails`` on exact integer coefficients, 0 below k = n.
* ``log_eval_multiples`` -- log zeta over multiples of m as sum_k
  zeta(sk)/(k m^{ks}), valid on Re(s) > 0 away from s = 1/N, where the k = N
  term hits the zeta pole; those points come back as ``PoleReport``. zeta(sk)
  is mpmath's zeta (``riemann_zeta``, whose one caller this is) at small and
  moderate Re(sk) and a direct sum of at most 40 terms once that reaches the
  working precision (``zeta_multiples_direct``).
* ``zeta_via_mobius`` -- zeta(n) by Moebius inversion of the log series
  over the multiples of m, a sum of the same rings at a = 0.

Cross-route agreement is the correctness argument; the test-suite grids
exercise it at 10^-35.
"""

from __future__ import annotations

import math

import mpmath as mp
from mpmath.libmp import from_man_exp, round_ceiling

from .numerics import (
    DEFAULT_PREC,
    GUARD_BITS,
    check_work,
    direct_zeta_start,
    guarded,
    power_sum_tails,
    riemann_zeta,
    zeta_multiples_direct,
)
from .numerics.hp import estimating
from .numerics.zeta import (
    DIRECT_MAX_TERMS,
    _class_tails,
    _class_work,
    _modulus,
    _mul,
    _Powers,
    _work,
    power_sum_work,
)
from .partitions import DivergentPartSetError, PartSet

POLE_SNAP = 1e-6  # distance to some 1/N below which we report the pole


def check_congruence_class(a: int, m: int) -> None:
    """ValueError unless the residue/modulus pair selects a convergent part
    set {a+m, a+2m, ...}."""
    if m < 1 or a < 0:
        raise ValueError("need a >= 0, m >= 1")
    if a == 0 and m == 1:
        raise ValueError("a=0, m=1 diverges (all parts, including 1)")


class PoleReport:
    """s is within POLE_SNAP of the pole 1/pole_at_k of the extension."""

    __slots__ = ("s", "pole_at_k", "message")

    def __init__(self, s: complex, pole_at_k: int, message: str):
        self.s, self.pole_at_k, self.message = s, pole_at_k, message


def _e(x):
    return mp.expjpi(2 * x)


# ----------------------------------------------------------------------
def euler_product(spec: PartSet, s, prec: int = DEFAULT_PREC):
    """prod_{k in M} (1 - k^-s)^{-1}, or prod (1 + k^-s) for distinct parts:
    ``dirichlet_partition_series`` at the weight chi = 1, (value, bound)."""
    return dirichlet_partition_series(spec, (1,), s, prec)


@guarded(extra=GUARD_BITS)
def dirichlet_partition_series(spec: PartSet, chi, s, prec: int = DEFAULT_PREC):
    """prod_{k in M} (1 - chi(k) k^-s)^{-1}, or prod (1 + chi(k) k^-s) for
    distinct parts, as (value, certificate); Re(s) > 1.

    The weight is periodic, one period chi = (chi(0), ..., chi(q-1)) with
    chi(k) = chi[k % q] and every |chi(r)| <= 1. The part 1 contributes
    sum_{i <= cap} chi(1)^i, or 1/(1 - chi(1)) if its multiplicity is
    unbounded (divergent unless |chi(1)| < 1). Complete multiplicativity is
    needed only for the identity with the Dirichlet series sum chi(n) a_n n^-s,
    a_n the multiplicative partition counts of n, not for the product.

    The factors up to a cutoff K >= 64 (past min_part and every class
    residue), and the explicit parts past K that no class covers, are
    multiplied out as one product P, their parts enumerated directly; the
    dropped log-tail T is sum_j 1/j sum_r chi(r)^j sum_{k>K, k = r mod L}
    k^-js over the member classes r mod L = lcm(q, M), each class's power
    sums for all j from one Euler-Maclaurin setup (``_class_tails``). The
    value is P^-1 exp(T), or P exp(-T) for distinct parts: only exp of the
    tail is taken, so no branch of log enters, complex s included.

    One fixed-point pass at the working precision wp = prec + 2 GUARD_BITS
    of the tails, on Python integers at scale 2^-(wp+32) (pairs, whether s
    and chi are real or complex): every k^-s comes from one ``_Powers``
    table of this call (one mp power per prime), P is an integer product,
    and T sums the class tails with chi(r)^j as running products. The
    certificate bounds the error of T: the E-M bounds, every truncation of
    the j-series, and its remainder past jmax, in integers rounded up; the
    finite product's truncations (below 2^-wp relative, like the final mp
    rounding) are left to the guard bits, so a finite part set has
    certificate 0. It must come out below 2^(12-prec), else ArithmeticError.
    Only P, T and the certificate become mp numbers, and only exp(T) is an
    mp function. The whole evaluation is priced before any power: the
    enumeration of the parts up to K and of the residues, then the finite
    part and every class setup (``_class_work``).
    """
    s = mp.mpmathify(s)
    sigma = mp.re(s)
    powers = _Powers(s, mp.mp.prec + 32)
    if powers.sr <= 1 << powers.F:  # Re(s) as the engine reads it, on its grid
        raise ValueError("the Euler product needs Re(s) > 1")
    chi = _period(chi)
    q = len(chi)
    cap = spec.ones_multiplicity_cap()
    c1 = chi[1 % q]
    if cap is None and not abs(c1) < 1:
        raise DivergentPartSetError(f"part set {spec.spec_string()} diverges: part 1 "
                                    f"repeats without bound at weight {c1}")
    # distinct parts: log prod (1 + chi k^-s) = -(sum -log(1 - (-chi) k^-s))
    sign = -1 if spec.distinct else 1
    chi = [sign * c for c in chi]
    cplx = isinstance(s, mp.mpc) or any(isinstance(c, mp.mpc) for c in chi)
    F = powers.F
    ONE = 1 << F
    weights = [powers.pair(c) for c in chi]  # chi(r) 2^F, each off by < 2 ulps
    # the accelerated tail converges geometrically in j, so a modest cutoff
    # suffices; it only must clear every non-congruence irregularity
    K = max(64, spec.tail_start() + 1)
    jmax = max(4, math.ceil((prec + 60) / (float(sigma) * math.log2(K))) + 1)
    what = f"the Euler product of {spec.spec_string()} at {F - 32} bits"
    # enumerating the members up to K and the residues r mod L = lcm(q, M)
    # and pricing each class, F-bit integer tests: 5 + F/2^11 us per slot
    # (2N|200001N, 2 x 10^5 classes, in 1.0 s at 144 bits; 2N|3N|...|13N,
    # 2.4 x 10^4, in 9.0 s at 10^6 bits), checked before any enumeration
    L = math.lcm(q, *(m for _, m in spec.classes))
    work = (5 + (F >> 11)) * sum((K + L) // m for _, m in spec.classes)
    check_work(work, what)
    # the finite part over the parts in (1, K] and the explicit parts past K
    # that no class covers: a fixed product each, an mp power unless _Powers
    # zeroes it
    parts = [k for k in spec.parts_outside_tail(K) if k > 1 and chi[k % q] != 0]
    work += _work(sum((k.bit_length() - 1) * powers.sr <= F << F for k in parts),
                  len(parts), F)
    M, residues = spec.tail_classes()
    classes = []  # (r, i0): the members > K congruent to r mod L are r + L i, i >= i0
    for r in (r0 + M * t for r0 in residues for t in range(L // M)):
        if chi[r % q] != 0:
            step = (r - K) % L  # the first member > K is K + (step or L)
            i0 = (K + (step if step else L) - r) // L
            classes.append((r, i0))
            work += _class_work(powers, jmax, r, L, i0)
    check_work(work, what)
    tail_r = tail_i = err = 0  # T and its certificate, at 2^-F
    if M is not None:
        # sum_{k>K, k = r mod L} k^-js over the classes of one weight chi(g),
        # g = r mod q, added up per j
        sums = {}
        for r, i0 in classes:
            tails = _class_tails(powers, jmax, r, L, i0)
            got = sums.get(r % q)
            sums[r % q] = tails if got is None else [
                (a + x, b + y, e + f) for (a, b, e), (x, y, f) in zip(got, tails)]
        S = [[0, 0, 0] for _ in range(jmax)]  # sum_g chi(g)^j A_gj, error
        for g, tails in sums.items():
            cr, ci = weights[g]
            pr, pi = ONE, 0  # chi(g)^j, off by <= j (2 + 2) ulps (|chi| <= 1)
            for j, (ar, ai, ae) in enumerate(tails, 1):
                pr, pi = _mul(pr, pi, cr, ci, F)
                xr, xi = _mul(pr, pi, ar, ai, F)
                # |chi^j| ae + |A| e(chi^j) + 2
                e = (-(-(_modulus(pr, pi) + 4 * j) * ae // ONE)
                     - (-_modulus(ar, ai) * 4 * j // ONE) + 2)
                S_j = S[j - 1]
                S_j[0] += xr
                S_j[1] += xi
                S_j[2] += e
        for j, (xr, xi, e) in enumerate(S, 1):
            tail_r += xr // j
            tail_i += xi // j
            err += -(-e // j) + 2
        # j-series remainder (|chi| <= 1): sum_{k>K} k^{-j sigma} <= K^{1-j sigma}/(j sigma - 1),
        # so the multiples past jmax add at most
        # K (K^-sigma)^n / ((n sigma - 1)(1 - K^-sigma)), n = jmax + 1, with
        # m >= K^-sigma the fixed |K^-s| rounded up and every step rounded up
        kr, ki, ke = powers[K]
        m = _modulus(kr, ki) + ke
        n = jmax + 1
        up = ONE
        for _ in range(n):
            up = -(-up * m >> F)
        err += -(-K * up * ONE * ONE // ((n * powers.sr - ONE) * (ONE - m)))
    certificate = mp.mpf(from_man_exp(err, -F, 24, round_ceiling))
    target = mp.ldexp(1, 12 - prec)
    if certificate > target:
        raise ArithmeticError(f"tail certificate {certificate} exceeds its target {target}")
    # the finite part, one product; the part 1 is the factor `ones`
    pr, pi = ONE, 0
    for k in parts:
        xr, xi = _mul(*weights[k % q], *powers[k][:2], F)
        pr, pi = _mul(pr, pi, ONE - xr, -xi, F)
    # an empty product is 1: mpmath's 1/1 at wp bits strips the trailing
    # zeros of the quotient a byte at a time (1.8 s at 10^6 bits)
    P = 1 if (pr, pi) == (ONE, 0) else powers.value(pr, pi, cplx)
    ones = 1 / (1 - c1) if cap is None else _geometric_sum(c1, cap + 1)
    return (ones * (P if sign < 0 or P == 1 else 1 / P)
            * mp.exp(sign * powers.value(tail_r, tail_i, cplx)), certificate)


def _geometric_sum(c, n: int):
    """sum_{i < n} c^i, n >= 1, in O(log n) products: exactly n when c = 1,
    else by doubling, S(2i) = S(i)(1 + c^i) and S(i + 1) = S(i) + c^i, since
    (1 - c^n)/(1 - c) cancels badly for c near 1."""
    if c == 1:
        return mp.mpf(n)
    S, P = mp.mpf(1), c  # S(i) and c^i at i = 1
    for bit in bin(n)[3:]:
        S, P = S * (1 + P), P * P
        if bit == "1":
            S, P = S + P, P * c
    return S


def _period(chi) -> list:
    """One period of a weight as mpmath numbers, each of modulus <= 1."""
    chi = [mp.mpmathify(c) for c in chi]
    if not chi:
        raise ValueError("the weight needs one period, chi = (chi(0), ..., chi(q-1))")
    for r, c in enumerate(chi):
        if not abs(c) <= 1:
            raise ValueError(f"weight at residue {r} has |chi({r})| = {abs(c)} > 1")
    return chi


def _ring(a: int, m: int, n: int) -> list:
    """[(w_r, z_r)] for r = 0..n/2, z_r = (a - e(r/n))/m: the n-th roots of
    unity up to conjugation (z_(n-r) is the conjugate of z_r), w_r = 2 for
    an interior r, 1 at r = 0 and r = n/2."""
    return [(1 if r == 0 or 2 * r == n else 2, (a - _e(mp.mpf(r) / n)) / m)
            for r in range(n // 2 + 1)]


def _log_gamma_ring(a: int, m: int, n: int):
    """sum_{r<n} log Gamma(1 + (a - e(r/n))/m), real: summed over ``_ring``,
    the terms at r and n - r being conjugate, in mpmath's ``loggamma`` at
    the caller's precision."""
    # no pole or branch cut: Re(1 + z_r) >= 1 + (a - 1)/m >= 1/2, as a = 0 needs m >= 2
    return mp.fsum(w * mp.re(mp.loggamma(1 + z)) for w, z in _ring(a, m, n))


def _ring_work(n: int, wp: int) -> int:
    """The price of ``_log_gamma_ring``: n//2 + 1 log-gamma calls at ~400 +
    wp^2/100 us each, set when a call ran 40 bits above wp. The price is
    kept, so no refusal moves; ``mp.loggamma`` at wp itself takes about half
    of it up to ~2000 bits (warm: 0.3 ms at 136 bits, 0.6 ms at 328, 6 ms at
    1096, 27-35 ms at 2120) and all of it at 4168 (0.17-0.20 s). The first
    call at a precision costs 2-3x more (2-core x86 VM, CPU time)."""
    return (n // 2 + 1) * (400 + wp * wp // 100)


@guarded(extra=32)
def closed_form_gamma(a: int, m: int, n: int, prec: int = DEFAULT_PREC):
    """Gamma(1+a/m)^{-n} prod_{r=0}^{n-1} Gamma(1 + (a - e(r/n))/m), n >= 2.

    The zeta value over parts {a+m, a+2m, ...} at integer argument n, as
    exp of the log-gamma ring (``_log_gamma_ring``, real by construction)
    less n log Gamma(1 + a/m). Target: within 2^(1-prec) of the exact value,
    relative; the n//2 + 2 log-gamma values at prec + 72 bits lose
    log2(n + 1) + 8 bits and the log of their largest modulus, well inside
    72, and the result is rounded once. Their price is checked against the
    work budget before any evaluation.
    """
    check_congruence_class(a, m)
    if n < 2:
        raise ValueError("closed form needs n >= 2")
    wp = mp.mp.prec
    # the ring and the base term: (n + 2)//2 + 1 = n//2 + 2 calls
    check_work(_ring_work(n + 2, wp), f"the gamma closed form at n = {n} and {wp} bits")
    return mp.exp(_log_gamma_ring(a, m, n) - n * mp.loggamma(1 + mp.mpf(a) / m))


def _ring_power_sums(a: int, n: int, kmax: int):
    """c_k = m^k/n (sum_r z_r^k - n (a/m)^k), k = 1..kmax, exactly and for any
    m: the constant term of p = (a - x)^k mod x^n - 1 less a^k, 0 for k < n."""
    p = [1] + [0] * (n - 1)
    for k in range(1, kmax + 1):
        p = [a * c - d for c, d in zip(p, p[-1:] + p[:-1])]
        yield p[0] - a ** k


@guarded(extra=32)
def log_eval_general(a: int, m: int, n: int, prec: int = DEFAULT_PREC):
    """log zeta over {a+m, a+2m, ...} at n, via the log-gamma expansion.

    -sum_{1 <= i < N} log(1 - (m i + a)^-n), the Weierstrass product of
    Gamma over z_r = (a - e(r/n))/m multiplied out by prod_r (x - e(r/n)) =
    x^n - 1, + sum_{k >= n} (-1)^k H(k, N) (sum_r z_r^k - n (a/m)^k)/k, the
    coefficients n m^-k c_k exact (``_ring_power_sums``; 0 for k < n) and
    H(k, N) = sum_{i >= N} i^-k from one ``power_sum_tails(1, kmax, N)``
    setup, none when kmax < n; N = max(16, wp/32), wp the working precision.
    The expansion needs max_r |z_r| < 2 (asserted). The tails' bounds,
    weighted by the coefficients, must come out below 2^-wp, else
    ArithmeticError. Its price is checked against the work budget before any
    evaluation.
    """
    check_congruence_class(a, m)
    if m < 2 or n < 2:
        raise ValueError("log_eval_general needs m, n >= 2")
    # |z_r| is largest at the root nearest -1
    zmax = abs(a - _e(mp.mpf(n // 2) / n)) / m
    if zmax >= 2:
        raise ValueError(f"|a - e(r/n)|/m reaches {zmax} >= 2: expansion diverges")
    wp = mp.mp.prec
    N = max(16, wp // 32)
    # H(k, N) <= (N-1)^(1-k)/(k-1) and |sum_r z_r^k - n (a/m)^k| <= 2 n zmax^k,
    # so the terms past kmax add up to at most 4 n N (zmax/(N-1))^kmax <= 2^-wp;
    # the tails' error is absolute, and term k multiplies it by up to zmax^k
    kmax = max(2, math.ceil((wp + math.log2(4 * n * N)) / math.log2((N - 1) / float(zmax))))
    bits = wp + max(0, math.ceil(kmax * math.log2(zmax)))
    # the price: N - 1 head powers and logs, and once kmax >= n the tail setup
    # and the coefficient table, kmax n integer steps at one unit each (a = 3,
    # n = 600, kmax = 700: 0.055 s, ~0.13 us a step; 2-core x86 VM)
    check_work(_work(2 * (N - 1), 0, wp + 32)
               + (power_sum_work(1, kmax, N, bits) + kmax * n if kmax >= n else 0),
               f"the log-gamma expansion at (a, m, n) = ({a}, {m}, {n}) and {wp} bits")
    head = -mp.fsum(mp.log1p(-mp.mpf(m * i + a) ** -n) for i in range(1, N))
    if kmax < n:
        return head
    tails = power_sum_tails(1, kmax, N, bits)[n - 1:]  # H(k, N), k = n..kmax
    # term k is H(k, N) times (-1)^k n c_k / (k m^k)
    terms = [((-1) ** k * n * c, k * m ** k)
             for k, c in enumerate(_ring_power_sums(a, n, kmax), 1) if k >= n]
    with estimating():  # the bounds as the terms weight them
        err = mp.fsum(b * abs(c) / d for (_, b), (c, d) in zip(tails, terms))
    if err > mp.ldexp(1, -wp):
        raise ArithmeticError(f"the tails' weighted bound {err} exceeds 2^-{wp}")
    return head + mp.fsum(h * c / d for (h, _), (c, d) in zip(tails, terms))


@guarded()
def log_eval_multiples(m: int, s, prec: int = DEFAULT_PREC):
    """log zeta over multiples of m: sum_{k>=1} zeta(sk)/(k m^{ks}).

    Defined for Re(s) > 0; this is the meromorphic extension left of
    Re(s) = 1, with poles exactly at s = 1/N (the k = N term is zeta(1)).
    Arguments within 1e-6 of the nearest such point return a PoleReport
    instead of a value. The series stops once its remainder bound is below
    2^(12-prec). zeta(sk) is a direct sum (``zeta_multiples_direct``) from
    k = direct_zeta_start(Re(s), working precision) on, a riemann_zeta call
    below that, about (1 + (prec + 40)/5.3)/Re(s) of them. Their price is
    checked against the work budget before any zeta call.
    """
    if m < 2:
        raise ValueError("log_eval_multiples needs m >= 2")
    s = mp.mpmathify(s)
    sigma = mp.re(s)
    if sigma <= 0:
        raise ValueError("no extension beyond Re(s) > 0 (essential singularity at 0)")
    # floor(1/sigma) within one, which the tests below absorb, at the bits
    # that needs (at 10^6 bits the quotient takes 2 s)
    with estimating(64 + max(0, -mp.mag(sigma))):
        N0 = int(1 / +sigma)
    # pole detection: the 1/N nearest to s is 1/floor(1/sigma) or the next
    if abs(mp.im(s)) < POLE_SNAP:
        N = min((n for n in (N0, N0 + 1) if n >= 1), key=lambda n: abs(s - mp.mpf(1) / n))
        if abs(s - mp.mpf(1) / N) < POLE_SNAP:
            return PoleReport(
                s=complex(s), pole_at_k=N,
                message=f"term k={N} is zeta(1): pole of the extension at s=1/{N}")
    wp = mp.mp.prec
    k0 = N0  # least k with sigma k > 1
    while sigma * k0 <= 1:
        k0 += 1
    gap = sigma * k0 - 1
    kd = direct_zeta_start(sigma, wp)  # riemann_zeta below kd, direct sums from it
    # |zeta(sk)| <= x/(x - 1), x = sigma k0, and 1/(1 - m^-sigma) <= (1 + u)/u,
    # u = sigma ln m: the terms from k on add up to below 2^(12-prec) once
    # u k + ln k > u K; no k < K0 = K - ln(K)/u does, so any k > K - ln(K0)/u does
    with estimating():  # sigma and x - 1 rounded to 53 bits
        x, gap = +sigma, +gap
        u = x * mp.log(m)
        K = (mp.log((1 + gap) / gap * (1 + u) / u) + (prec - 12) * mp.ln2) / u
        K0 = max(1, K - mp.log(max(1, K)) / u)
        kmax = max(k0, int(K - mp.log(K0) / u))
    # the price: a riemann_zeta call takes ~400 + wp^2/50 us (m = 2, s = 1.5:
    # 38 calls in 0.07 s at 256 bits, 134 in 2.5 s at 1024, 263 in 25.2 s at
    # 2048; 2-core x86 VM), a direct-sum term ~2 + wp^2/2^19
    check_work(min(kmax, kd - 1) * (400 + wp * wp // 50)
               + max(0, kmax - kd + 1) * DIRECT_MAX_TERMS * (2 + (wp * wp >> 19)),
               f"the log series over the multiples of {m} at {wp} bits")
    direct = zeta_multiples_direct(s, kd, kmax, wp) if kd <= kmax else []
    m_s = mp.mpf(m) ** (-s)
    weight = 1  # m^{-sk}
    total = mp.mpc(0)
    for k in range(1, kmax + 1):
        weight *= m_s
        z = riemann_zeta(s * k, wp) if k < kd else direct[k - kd]
        total += z * weight / k
    if mp.im(s) == 0:
        total = mp.re(total)
    return total


@guarded(extra=32)
def zeta_via_mobius(m: int, n: int, K: int, prec: int = DEFAULT_PREC):
    """Partial sum m^n sum_{k<=K} mu(k)/k sum_{r<nk} log Gamma(1 - e(r/nk)/m),
    each inner sum the log-gamma ring at a = 0 (``_log_gamma_ring``).

    Converges to zeta(n) as K grows (inverted from the multiples-of-m log
    formula). Its price, the rings of the squarefree k, is checked against
    the work budget before any evaluation.
    """
    if m < 2 or n < 2 or K < 1:
        raise ValueError("need m, n >= 2 and K >= 1")
    wp = mp.mp.prec
    what = f"the Moebius sum at n = {n}, K = {K} and {wp} bits"
    # over K/2 of the k <= K are squarefree (sum_p p^-2 < 1/2), their rings
    # at least k calls each: a K whose K^2/8 calls are past it skips the sieve
    check_work(K * K // 8 * _ring_work(0, wp), what)
    mob = _mobius_upto(K)
    check_work(sum(_ring_work(n * k, wp) for k in range(1, K + 1) if mob[k]), what)
    return mp.mpf(m) ** n * mp.fsum(mp.mpf(mob[k]) / k * _log_gamma_ring(0, m, n * k)
                                    for k in range(1, K + 1) if mob[k])


def _mobius_upto(K: int) -> list[int]:
    """[mu(k) for k = 0..K], mu(0) = 0: each prime p flips the sign at its
    multiples and zeroes the multiples of p^2."""
    mu, composite = [0] + [1] * K, [False] * (K + 1)
    for p in range(2, K + 1):
        if not composite[p]:
            for k in range(p, K + 1, p):
                composite[k] = k > p
                mu[k] = 0 if k % (p * p) == 0 else -mu[k]
    return mu
