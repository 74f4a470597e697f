"""Partition zeta functions over restricted part sets, by independent routes.

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
  congruence class {a+m, a+2m, ...} at integer argument n >= 2.
* ``log_eval_general`` -- the log-gamma Taylor expansion of the same closed
  form (series in zeta(k) - 1).
* ``log_eval_multiples`` -- log zeta over multiples of m as sum_k
  zeta(sk)/(k m^{ks}), valid on Re(s) > 0 away from s = 1/N, where the k = N
  term hits the zeta pole; those points come back as ``PoleReport``. zeta(sk)
  is mpmath's zeta at small and moderate Re(sk) and a direct sum of at most
  40 terms once that reaches the working precision
  (``zeta_multiples_direct``).

Cross-route agreement is the correctness argument; the test-suite grids
exercise it at 10^-35.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import from_man_exp, round_ceiling

from .numerics import (
    DEFAULT_PREC,
    GUARD_BITS,
    TruncatedSeries,
    direct_zeta_start,
    guarded,
    log_gamma,
    riemann_zeta,
    zeta_multiples_direct,
)
from .numerics.zeta import _check_work, _class_tails, _modulus, _mul, _Powers
from .partitions import DivergentPartSetError, PartSet, multiplicative_partition_count

POLE_SNAP = 1e-6  # distance to some 1/N below which we report the pole
# work budget of closed_form_gamma: n + 1 log-gamma calls of ~0.8 ms each at
# 256 bits (2-core x86 VM, mpmath pure-Python backend), i.e. ~3.4 s at the cap
GAMMA_MAX_N = 4096
# work budget of log_eval_multiples: its riemann_zeta calls below the
# direct-sum range, ~(1 + wp / 5.3)/Re(s) of them at working precision
# wp = prec + 40; each takes ~0.6 ms at wp = 104 and ~2.4 ms at wp = 296
# (same VM), i.e. ~1.2 s (prec 64) or ~4.9 s (prec 256) at the cap
LOG_SERIES_MAX_ZETA = 2048
_LOG_SERIES_OVER = (f"the log series needs more than {LOG_SERIES_MAX_ZETA} zeta(sk) calls "
                    f"at this Re(s); its work budget is LOG_SERIES_MAX_ZETA = "
                    f"{LOG_SERIES_MAX_ZETA}")


@dataclass(frozen=True)
class CongruenceClassSpec:
    """Residue/modulus pair selecting parts {a+m, a+2m, ...}."""

    a: int
    m: int

    def __post_init__(self):
        if self.m < 1 or self.a < 0:
            raise ValueError("need a >= 0, m >= 1")
        if self.a == 0 and self.m == 1:
            raise ValueError("a=0, m=1 diverges (all parts, including 1)")


@dataclass(frozen=True)
class PoleReport:
    s: complex
    pole_at_k: int
    message: str


def _e(x):
    return mp.expjpi(2 * x)


# ----------------------------------------------------------------------
@guarded()
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
    needed only for the Dirichlet-series identity that
    ``dirichlet_series_oracle`` checks, not for the product.

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
    mp function.
    """
    s = mp.mpmathify(s)
    sigma = mp.re(s)
    if sigma <= 1:
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
    powers = _Powers(s, mp.mp.prec + 32)
    F = powers.F
    ONE = 1 << F
    weights = [powers.pair(c) for c in chi]  # chi(r) 2^F, each off by < 2 ulps
    # the accelerated tail converges geometrically in j, so a modest cutoff
    # suffices; it only must clear every non-congruence irregularity
    K = max(64, spec.tail_start() + 1)
    # the finite part over the parts in (1, K] and the explicit parts past K
    # that no class covers: at most an mp power each, priced before any
    # power like the tails'
    parts = [k for k in spec.parts_outside_tail(K) if k > 1 and chi[k % q] != 0]
    _check_work(len(parts), 0, F - 32, f"the finite product over {len(parts)} parts")
    tail_r = tail_i = err = 0  # T and its certificate, at 2^-F
    M, residues = spec.tail_classes()
    if M is not None:
        L = math.lcm(q, M)
        jmax = max(4, math.ceil((prec + 60) / (float(sigma) * math.log2(K))) + 1)
        # sum_{k>K, k = r mod L} k^-js over the classes of one weight chi(g),
        # g = r mod q, added up per j
        sums = {}
        for r in (r0 + M * t for r0 in residues for t in range(L // M)):
            if chi[r % q] != 0:
                # members > K congruent to r mod L: first is K+((r-K) mod L or L)
                step = (r - K) % L
                i0 = (K + (step if step else L) - r) // L  # first = r + L*i0
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
    P = powers.value(pr, pi, cplx)
    ones = 1 / (1 - c1) if cap is None else sum(c1 ** i for i in range(cap + 1))
    return (ones * (P if sign < 0 else 1 / P) * mp.exp(sign * powers.value(tail_r, tail_i, cplx)),
            certificate)


def _period(chi) -> list:
    """One period of a weight as mpmath numbers, each of modulus <= 1."""
    chi = [mp.mpmathify(c) for c in chi]
    if not chi:
        raise ValueError("the weight needs one period, chi = (chi(0), ..., chi(q-1))")
    for r, c in enumerate(chi):
        if not abs(c) <= 1:
            raise ValueError(f"weight at residue {r} has |chi({r})| = {abs(c)} > 1")
    return chi


@guarded(extra=32)
def closed_form_gamma(a: int, m: int, n: int, prec: int = DEFAULT_PREC):
    """Gamma(1+a/m)^{-n} prod_{r=0}^{n-1} Gamma(1 + (a - e(r/n))/m), n >= 2.

    The zeta value over parts {a+m, a+2m, ...} at integer argument n. The
    product is real after pairing conjugate factors; the imaginary residue is
    checked against 2^-(prec/2) before being discarded. Target: within
    2^(1-prec) of the exact value, relative; the n + 1 log-gamma values at
    prec + 72 bits lose log2(n + 1) + 8 bits and the log of their largest
    modulus, well inside 72, and the result is rounded once. n above
    GAMMA_MAX_N raises ArithmeticError (work budget) before any evaluation.
    """
    CongruenceClassSpec(a, m)
    if n < 2:
        raise ValueError("closed form needs n >= 2")
    if n > GAMMA_MAX_N:
        raise ArithmeticError(f"closed form at n={n} needs {n + 1} log-gamma calls; "
                              f"its work budget is n <= {GAMMA_MAX_N}")
    wp = mp.mp.prec
    acc = mp.mpc(0)
    for r in range(n):
        z = 1 + (a - _e(mp.mpf(r) / n)) / m
        acc += log_gamma(z, wp)
    acc -= n * log_gamma(1 + mp.mpf(a) / m, wp)
    val = mp.exp(acc)
    if abs(mp.im(val)) > mp.mpf(2) ** (-(prec // 2)) * (1 + abs(val)):
        raise ArithmeticError(f"imaginary residue {mp.im(val)} too large")
    return mp.re(val)


@guarded(extra=32)
def log_eval_general(a: int, m: int, n: int, prec: int = DEFAULT_PREC):
    """log zeta over {a+m, a+2m, ...} at n, via the log-gamma expansion.

    Two-part series: n log(1+a/m) - sum_r log(1+z_r) plus
    sum_r sum_{k>=2} (-1)^k (zeta(k)-1) (z_r^k - (a/m)^k)/k, with
    z_r = (a - e(r/n))/m. Convergence needs max_r |z_r| < 2 (asserted); the
    Euler-Mascheroni terms cancel since sum_r e(r/n) = 0.
    """
    CongruenceClassSpec(a, m)
    if m < 2 or n < 2:
        raise ValueError("log_eval_general needs m, n >= 2")
    zs = [(a - _e(mp.mpf(r) / n)) / m for r in range(n)]
    zmax = max(abs(z) for z in zs)
    if zmax >= 2:
        raise ValueError(f"|a - e(r/n)|/m reaches {zmax} >= 2: expansion diverges")
    am = mp.mpf(a) / m
    total = n * mp.log(1 + am) - mp.fsum(mp.log(1 + z) for z in zs)
    # series terms: (zeta(k)-1) ~ 2^-k, z^k <= zmax^k; zeta(k) - 1 >= 2^-k
    # keeps wp bits from zeta(k) at wp + k + 8 (2^-wp would grow by zmax^k)
    ratio = zmax / 2 if zmax > 1 else mp.mpf(1) / 2
    kmax = int(mp.ceil((prec + 60) / -mp.log(ratio, 2))) + 4
    acc = mp.mpc(0)
    zk, amk = [z * z for z in zs], am * am  # z^k and (a/m)^k as running products
    for k in range(2, kmax + 1):
        zeta1 = riemann_zeta(k, mp.mp.prec + k + 8) - 1
        acc += (-1) ** k * zeta1 * (mp.fsum(zk, absolute=False) - n * amk) / k
        zk = [p * z for p, z in zip(zk, zs)]
        amk *= am
    total += acc
    if abs(mp.im(total)) > mp.mpf(2) ** (-(prec // 2)) * (1 + abs(total)):
        raise ArithmeticError(f"imaginary residue {mp.im(total)} too large")
    return mp.re(total)


@guarded()
def log_eval_multiples(m: int, s, prec: int = DEFAULT_PREC):
    """log zeta over multiples of m: sum_{k>=1} zeta(sk)/(k m^{ks}).

    Defined for Re(s) > 0; this is the meromorphic extension left of
    Re(s) = 1, with poles exactly at s = 1/N (the k = N term is zeta(1)).
    Arguments within 1e-6 of the nearest such point return a PoleReport
    instead of a value. The series stops once its remainder bound is below
    2^(12-prec). zeta(sk) is a direct sum (``zeta_multiples_direct``) from
    k = direct_zeta_start(Re(s), working precision) on; the riemann_zeta
    calls below that, about (1 + (prec + 40)/5.3)/Re(s), are capped at
    LOG_SERIES_MAX_ZETA (ArithmeticError past it, before the evaluation).
    """
    if m < 2:
        raise ValueError("log_eval_multiples needs m >= 2")
    s = mp.mpmathify(s)
    sigma = mp.re(s)
    if sigma <= 0:
        raise ValueError("no extension beyond Re(s) > 0 (essential singularity at 0)")
    # pole detection: the 1/N nearest to s is 1/floor(1/sigma) or the next
    if abs(mp.im(s)) < POLE_SNAP:
        N0 = int(mp.floor(1 / sigma))
        N = min((n for n in (N0, N0 + 1) if n >= 1), key=lambda n: abs(s - mp.mpf(1) / n))
        if abs(s - mp.mpf(1) / N) < POLE_SNAP:
            return PoleReport(
                s=complex(s), pole_at_k=N,
                message=f"term k={N} is zeta(1): pole of the extension at s=1/{N}")
    wp = mp.mp.prec
    k0 = int(mp.floor(1 / sigma))  # least k with sigma k > 1
    while sigma * k0 <= 1:
        k0 += 1
    # zeta(sk) goes through riemann_zeta below kd, and is a short direct sum
    # from there on; the budget counts the riemann_zeta calls
    kd = direct_zeta_start(sigma, wp)
    if k0 > LOG_SERIES_MAX_ZETA:
        raise ArithmeticError(_LOG_SERIES_OVER)
    # convergent range: geometric in m^-sigma; |zeta(sk)| <= zeta(sigma k0)
    zbound = riemann_zeta(sigma * k0, wp)
    target = mp.ldexp(1, 12 - prec)
    m_sigma = mp.mpf(m) ** (-sigma)
    geo = m_sigma ** k0  # m^{-k sigma}
    k = k0
    while True:  # the series stops once its remainder bound is below target
        k += 1
        geo *= m_sigma
        if min(k, kd) > LOG_SERIES_MAX_ZETA:
            raise ArithmeticError(_LOG_SERIES_OVER)
        if zbound * geo / (k * (1 - m_sigma)) < target:
            break
    kmax = k - 1
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
    """Partial sum m^n sum_{k<=K} mu(k)/k sum_r log Gamma(1 - e(r/nk)/m).

    Converges to zeta(n) as K grows (inverted from the multiples-of-m log
    formula); the inner sum is real after conjugate pairing. The terms at r
    and nk - r are conjugate, so r = 0..nk/2 are evaluated and the
    interior ones counted twice.
    """
    if m < 2 or n < 2 or K < 1:
        raise ValueError("need m, n >= 2 and K >= 1")
    mob = _mobius_upto(K)
    wp = mp.mp.prec
    total = mp.mpf(0)
    for k in range(1, K + 1):
        if mob[k] == 0:
            continue
        nk = n * k
        inner = mp.fsum(
            (1 if r == 0 or 2 * r == nk else 2)
            * mp.re(log_gamma(1 - _e(mp.mpf(r) / nk) / m, wp))
            for r in range(nk // 2 + 1))
        total += mp.mpf(mob[k]) / k * inner
    total *= mp.mpf(m) ** n
    return total


def _mobius_upto(K: int) -> list[int]:
    mu = [1] * (K + 1)
    primes = []
    is_comp = [False] * (K + 1)
    for i in range(2, K + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > K:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    mu[0] = 0
    return mu


@guarded(extra=32)
def zeta_via_gamma_series(n: int, prec: int = DEFAULT_PREC, antisymmetric: bool = False):
    """zeta(n) as [z^n] prod_{j<n} Gamma(1 - z e(j/n)), n >= 2.

    The product is expanded as exp of the summed log-gamma Taylor series
    (the Euler-Mascheroni terms cancel because the n-th roots of unity sum
    to zero). The antisymmetric variant extracts [z^n](P - 1/P)/2 instead;
    both equal zeta(n).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    wp = mp.mp.prec
    T = n
    A = [mp.mpc(0)] * (T + 1)
    for j in range(n):
        w = -_e(mp.mpf(j) / n)  # log Gamma(1 + w z): -gamma w z + sum zeta(k)(-w)^k z^k /k
        A[1] += -mp.euler * w
        for k in range(2, T + 1):
            A[k] += riemann_zeta(k, wp) * (-w) ** k / k
    series = TruncatedSeries(A, T)
    P = series.exp()
    if antisymmetric:
        Q = TruncatedSeries([-c for c in A], T).exp()
        val = (P[T] - Q[T]) / 2
    else:
        val = P[T]
    if abs(mp.im(val)) > mp.mpf(2) ** (-(prec // 2)) * (1 + abs(val)):
        raise ArithmeticError("imaginary residue too large")
    return mp.re(val)


@guarded()
def dirichlet_series_oracle(spec: PartSet, chi, s, nmax: int, prec: int = DEFAULT_PREC):
    """Brute Dirichlet partial sum sum_{n<=nmax} chi(n) a_n n^{-s}, the weight
    given by one period as in ``dirichlet_partition_series`` and completely
    multiplicative, with a_n counted by multiplicative partitions. Oracle
    for ``dirichlet_partition_series``."""
    s, chi = mp.mpmathify(s), _period(chi)
    powers = _Powers(s, mp.mp.prec + 32)
    cplx = isinstance(s, mp.mpc)
    return mp.fsum(chi[n % len(chi)] * multiplicative_partition_count(n, spec)
                   * powers.value(*powers[n][:2], cplx)
                   for n in range(1, nmax + 1) if chi[n % len(chi)] != 0)


@guarded()
def mainthm_reading_report(a: int, m: int, n: int, prec: int = DEFAULT_PREC) -> dict:
    """Which part-set reading matches the gamma closed form: {a+m, a+2m, ...}
    (index from 1) or the inclusive {a, a+m, ...}?

    Returns both Euler-product values, the closed form, and the verdict; the
    inclusive reading requires a >= 2 to converge at all.
    """
    exclusive = PartSet(classes=((a, m),))
    cf = closed_form_gamma(a, m, n, prec)
    ex_val, _ = euler_product(exclusive, mp.mpf(n), prec=prec)
    report = {"a": a, "m": m, "n": n, "closed_form": cf, "exclusive": ex_val}
    report["exclusive_dev"] = abs(ex_val - cf)
    if a >= 2:
        inclusive = PartSet(classes=((a, m),), explicit_parts=frozenset({a}))
        in_val, _ = euler_product(inclusive, mp.mpf(n), prec=prec)
        report["inclusive"] = in_val
        report["inclusive_dev"] = abs(in_val - cf)
    else:
        report["inclusive"] = None
        report["inclusive_dev"] = None
    report["matching_reading"] = "exclusive (parts a+mj, j>=1)"
    return report
