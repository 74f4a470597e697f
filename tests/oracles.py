"""Reference oracles: slow, direct forms of what the package computes by
faster routes, and the paper's stated claims as checks, grouped by the
module they check. The tests compare against them; no command runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from partizeta.fixedlen import compositions, fixedlen_zeta, mzv_bruteforce
from partizeta.modular import (
    LProfile,
    _lambda_values,
    hausdorff_distance,
    hk_polynomial,
    period_polynomial,
    rh_check,
    sigma_power,
    tau_eta_oracle,
    zeta_polynomial,
)
from partizeta.numerics import (
    DEFAULT_PREC,
    GUARD_BITS,
    guarded,
    poly_negate_var,
    poly_roots,
    poly_to_mpc,
    stirling1_row,
)
from partizeta.partitions import UNBOUNDED, DivergentPartSetError, PartSet


# ---------------------------------------------------------------- series
def series_log(c: list) -> list:
    """Coefficients of log(sum_n c_n x^n) through the order of c; requires
    c_0 = 1. n L_n = n c_n - sum_{j<n} j L_j c_{n-j}."""
    if c[0] != 1:
        raise ValueError("log needs constant term 1")
    out = [c[0] * 0]
    for n in range(1, len(c)):
        s = n * c[n]
        for j in range(1, n):
            if c[n - j] != 0:
                s -= j * out[j] * c[n - j]
        out.append(s / n)
    return out


# ---------------------------------------------------------------- partitions
def enumerate_partitions(n: int, constraints: PartSet | None = None,
                         length_filter: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n with parts in the constraint set, as nonincreasing
    tuples in reverse-lex order.

    Respects ``distinct`` and ``max_ones``; the optional length filter keeps
    only partitions of that exact length.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    cons = constraints or PartSet()
    allowed = [p for p in range(n, 0, -1) if cons.contains(p)]
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def rec(remaining: int, max_part: int, start_idx: int):
        if remaining == 0:
            if length_filter is None or len(stack) == length_filter:
                out.append(tuple(stack))
            return
        if length_filter is not None and len(stack) >= length_filter:
            return
        for idx in range(start_idx, len(allowed)):
            p = allowed[idx]
            if p > max_part or p > remaining:
                continue
            if p == 1 and cons.max_ones is not UNBOUNDED:
                if stack.count(1) >= cons.max_ones:
                    continue
            stack.append(p)
            rec(remaining - p, p, idx + (1 if cons.distinct else 0))
            stack.pop()

    rec(n, n if n else 0, 0)
    return out


def product_sum_expand(f, T: int) -> list[Fraction]:
    """Coefficients of prod_n (1 - f(n) q^n)^{-1} through q^T, exact.

    f maps positive integers to Fractions. Computed both by expanding the
    product, one geometric series 1/(1 - f(n) q^n) at a time, and by summing
    prod f(part) over enumerated partitions of each n; the routes must agree
    exactly or an ArithmeticError flags a defect.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    via_product = [Fraction(1)] + [Fraction(0)] * T
    for n in range(1, T + 1):
        val = Fraction(f(n))
        for j in range(n, T + 1):
            via_product[j] += val * via_product[j - n]
    for n in range(0, T + 1):
        direct = sum((math.prod((Fraction(f(p)) for p in lam), start=Fraction(1))
                      for lam in enumerate_partitions(n)), Fraction(0))
        if direct != via_product[n]:
            raise ArithmeticError(
                f"product/enumeration mismatch at q^{n}: {via_product[n]} vs {direct}")
    return via_product


@guarded()
def brute_zeta(constraints: PartSet, s, part_bound: int, length_bound: int,
               prec: int = 53):
    """sum n_lambda^{-s} over constrained partitions with parts <= part_bound
    and length <= length_bound, as (value, note).

    A lower bound of the true zeta value (every summand positive), by exact
    multiset dynamic programming over the allowed parts: no partition is
    materialized, but the sum is the enumeration's, up to rounding.
    """
    if constraints.is_divergent_for_zeta():
        raise DivergentPartSetError(f"part set {constraints.spec_string()} diverges")
    note = (f"parts<={part_bound} length<={length_bound} "
            f"spec={constraints.spec_string()} (lower bound; all summands positive)")
    L = length_bound
    s = mp.mpmathify(s)
    # suffix DP: cur[l] sums prod p^-s over the multisets of the parts seen
    # so far with exactly l parts
    cur = [mp.mpf(1)] + [mp.mpf(0)] * L
    for p in reversed(constraints.parts_upto(part_bound)):
        v = mp.mpf(p) ** -s
        if p == 1:
            cap = constraints.ones_multiplicity_cap()
            cap = L if cap is UNBOUNDED else cap
        else:
            cap = 1 if constraints.distinct else L
        new = []
        for l in range(L + 1):
            acc, vp = mp.mpf(0), mp.mpf(1)
            for c in range(0, min(cap, l) + 1):
                acc += vp * cur[l - c]
                vp *= v
            new.append(acc)
        cur = new
    return mp.fsum(cur), note


def multiplicative_partition_count(n: int, constraints: PartSet) -> int:
    """Number of multisets of parts with product n (sets for distinct parts):
    the Dirichlet coefficient a_n of the part-set zeta function. Part sets
    containing 1 are rejected: 1 may repeat freely in a product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if constraints.contains(1):
        raise DivergentPartSetError("part set contains 1: infinitely many factorizations")

    def rec(m: int, max_divisor: int) -> int:
        if m == 1:
            return 1
        small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
        divisors = set(small) | {m // d for d in small}
        return sum(rec(m // d, d - 1 if constraints.distinct else d) for d in divisors
                   if 2 <= d <= max_divisor and constraints.contains(d))

    return rec(n, n)


# ---------------------------------------------------------------- pzeta
@guarded()
def dirichlet_series_oracle(spec: PartSet, chi, s, nmax: int, prec: int = DEFAULT_PREC):
    """Brute Dirichlet partial sum sum_{n<=nmax} chi(n) a_n n^{-s}, the weight
    given by one period chi(n) = chi[n % q] and completely multiplicative,
    a_n counted by ``multiplicative_partition_count``."""
    s, chi = mp.mpmathify(s), [mp.mpmathify(c) for c in chi]
    return mp.fsum(chi[n % len(chi)] * multiplicative_partition_count(n, spec) * mp.mpf(n) ** -s
                   for n in range(1, nmax + 1) if chi[n % len(chi)] != 0)


# ---------------------------------------------------------------- modular
@dataclass(frozen=True)
class UniversalPolynomial:
    """F_n: the -2 x_1 sigma_1(n)/n term plus one monomial per partition of n
    with no part equal to n: coefficient (-1)^l (l-1)!/prod(mult_i!), variable
    x_{i+1} to the power mult_i."""

    n: int
    linear_coeff: Fraction                    # multiplies x_1
    monomials: tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]
    # each monomial: (coefficient, ((part i, multiplicity m_i), ...))

    def evaluate(self, x1, higher) -> Fraction:
        """higher[i] is the value bound to x_{i+1}, i = 1..n-1."""
        total = self.linear_coeff * x1
        for coeff, powers in self.monomials:
            term = coeff
            for i, m_i in powers:
                term *= higher[i] ** m_i
            total += term
        return total


def universal_F(n: int) -> UniversalPolynomial:
    """Structured universal polynomial F_n (feasible for n up to ~45): the
    partition sum that ``tau_recursive`` evaluates as a log-series
    coefficient."""
    if n < 1:
        raise ValueError("n must be >= 1")
    monos = []

    # partitions of n into parts < n, by multiplicity vectors
    def rec(remaining, part, mults):
        if remaining == 0:
            length = sum(m for _, m in mults)
            denom = math.prod(math.factorial(m) for _, m in mults)
            coeff = Fraction((-1) ** length * math.factorial(length - 1), denom)
            monos.append((coeff, tuple(mults)))
            return
        for p in range(min(part, remaining), 0, -1):
            if p >= n:
                continue
            for m in range(remaining // p, 0, -1):
                mults.append((p, m))
                rec(remaining - p * m, p - 1, mults)
                mults.pop()

    rec(n, n - 1, [])
    return UniversalPolynomial(n=n, linear_coeff=Fraction(-2 * sigma_power(n, 1), n),
                               monomials=tuple(monos))


def hecke_failures(tau: list[int], weight: int = 12) -> list[tuple]:
    """The Hecke relations that tau(1..N) breaks, for a weight-k eigenform
    normalized by tau(1) = 1: tau(mn) = tau(m) tau(n) for coprime m, n, and
    tau(p^(r+1)) = tau(p) tau(p^r) - p^(k-1) tau(p^(r-1)), all mn, p^(r+1) <= N.
    Each failure is listed as (m, n) or (p, r + 1)."""
    N = len(tau)
    t = [0] + tau  # t[n] = tau(n)
    bad = [(m, n) for m in range(2, N + 1) for n in range(m + 1, N // m + 1)
           if math.gcd(m, n) == 1 and t[m * n] != t[m] * t[n]]
    for p in range(2, N + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            r = 1
            while p ** (r + 1) <= N:
                if t[p ** (r + 1)] != t[p] * t[p ** r] - p ** (weight - 1) * t[p ** (r - 1)]:
                    bad.append((p, r + 1))
                r += 1
    return bad


def lambda_delta(s: int, prec: int = DEFAULT_PREC):
    """Completed critical value of the weight-12 level-1 form at an integer
    s in [1, 11]: entry s of the profile's pass (``_lambda_values`` at k = 12,
    sign +1, tau from the eta product), within 2^(10-prec) of the exact value."""
    if s not in range(1, 12):
        raise ValueError("Lambda(Delta, s) is computed at the integers 1 <= s <= 11")
    return _lambda_values(12, 1, tau_eta_oracle, prec)[s - 1]


@guarded()
def l_value(prof: LProfile, j: int, prec: int = DEFAULT_PREC):
    """Raw L(f, j) recovered from Lambda(f, j) = (sqrt N/2 pi)^j Gamma(j) L(f, j)."""
    factor = (mp.sqrt(prof.level) / (2 * mp.pi)) ** j * mp.factorial(j - 1)
    return prof.lam[j - 1] / factor


@guarded()
def moments_from_l_values(prof: LProfile, m: int, prec: int = DEFAULT_PREC):
    """The moment M_f(m) = (1/(k-2)!) sum_j C(k-2, j) Lambda(f, j+1) j^m in
    its other displayed form: sum_j (sqrt N/2 pi)^{j+1} L(f,j+1) j^m/(k-2-j)!."""
    k = prof.weight
    total = mp.mpf(0)
    for j in range(k - 1):
        jm = mp.mpf(1) if (j == 0 and m == 0) else mp.mpf(j) ** m
        L = l_value(prof, j + 1, mp.mp.prec)
        total += ((mp.sqrt(prof.level) / (2 * mp.pi)) ** (j + 1) * L
                  / mp.factorial(k - 2 - j) * jm)
    return total


@guarded()
def zeta_polynomial_from_moments(prof: LProfile, prec: int = DEFAULT_PREC) -> list:
    """c_0..c_{k-2} of Z_f as displayed: sum_h (-s)^h sum_m C(m+h, h)
    s(k-2, m+h) M_f(m), the moments from ``moments_from_l_values``. The
    alternating Stirling sum loses about 1.4 bits per unit of weight."""
    k = prof.weight
    S = stirling1_row(k - 2)
    M = [moments_from_l_values(prof, m, mp.mp.prec) for m in range(k - 1)]
    return [(-1) ** h * mp.fsum(math.comb(m + h, h) * S[m + h] * M[m] for m in range(k - 1 - h))
            for h in range(k - 1)]


def hk_arccot_excess(k: int, m: int, t, prec: int):
    """h_k(t) - m pi/2 as the arccot sum sum_{j<k-2} (pi/2 - atan(2t/(2j+1))),
    term by term at 2 prec + 64 bits, with t as given."""
    with mp.workprec(2 * prec + 64):
        return (mp.fsum(mp.pi / 2 - mp.atan(2 * t / (2 * j + 1)) for j in range(k - 2))
                - m * mp.pi / 2)


@guarded()
def weight4_inequality_check(prof: LProfile, prec: int = DEFAULT_PREC) -> dict:
    """(N/pi^2) L(f,3)^2 >= L(f,2)^2, and its equivalence with the two roots
    of the quadratic period polynomial lying on the unit circle."""
    if prof.weight != 4:
        raise ValueError("this check is specific to weight 4")
    L2 = l_value(prof, 2, mp.mp.prec)
    L3 = l_value(prof, 3, mp.mp.prec)
    lhs = prof.level / mp.pi ** 2 * L3 ** 2
    holds = bool(lhs >= L2 ** 2)
    trivial = bool(abs(L2) < mp.mpf(2) ** (-(prec // 2)))
    roots, _ = poly_roots(period_polynomial(prof, mp.mp.prec), prec=mp.mp.prec)
    on_circle = bool(max(abs(abs(r) - 1) for r in roots) < mp.mpf(2) ** (-(prec // 4)))
    if holds != on_circle:
        raise ArithmeticError("inequality and unit-circle verdicts disagree")
    return {"holds": holds, "trivial_zero_case": trivial, "roots_on_circle": on_circle,
            "lhs": lhs, "rhs": L2 ** 2}


def convergence_experiment(profiles: list[LProfile], prec: int = DEFAULT_PREC) -> list[dict]:
    """Root distances of Z_f to the comparison polynomial H_k^{sign}(-s).

    All profiles must share weight and sign. Each row reports the Hausdorff
    distance and asserts the ordinate bound (k-3)(k-7/2) for sign +1 resp.
    (k-4)(k-9/2) for sign -1.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    k = profiles[0].weight
    sign = profiles[0].sign
    if any(p.weight != k or p.sign != sign for p in profiles):
        raise ValueError("profiles must share weight and sign")
    Hms = poly_negate_var(hk_polynomial(k, sign))
    href, _ = poly_roots(poly_to_mpc(Hms, prec + GUARD_BITS), prec=prec)
    bound = (k - 3) * (k - mp.mpf(7) / 2) if sign == 1 else (k - 4) * (k - mp.mpf(9) / 2)
    rows = []
    for i, prof in enumerate(profiles):
        roots, dev = rh_check(zeta_polynomial(prof, prec), prec)
        max_ord = max(abs(mp.im(r)) for r in roots)
        if not max_ord < bound:
            raise ArithmeticError(
                f"ordinate bound violated: {max_ord} !< {bound} (profile {i})")
        rows.append({
            "profile": prof.source or f"profile-{i}",
            "distance": hausdorff_distance(roots, href, prec),
            "max_ordinate": max_ord,
            "ordinate_bound": bound,
            "critical_line_dev": dev,
        })
    return rows


# ---------------------------------------------------------------- fixedlen
def length_reduction(n: int, k: int, bound: int = 1000, prec: int = DEFAULT_PREC):
    """zeta({n}^k) as fixedlen_zeta(n, k) minus the shorter-composition MZVs.

    Emits the identity structurally (composition terms with sign) and checks
    it numerically at brute-force scale. Returns a dict with the terms, both
    sides, and the brute-force tail allowance.
    """
    if n < 2 or k < 2:
        raise ValueError("need n >= 2, k >= 2")
    terms = [{"composition": comp, "index": tuple(a * n for a in comp), "sign": -1}
             for comp in compositions(k) if len(comp) < k]
    lhs, tails = mzv_bruteforce([n] * k, bound)
    rhs = float(fixedlen_zeta(n, k, prec))
    for t in terms:
        v, tl = mzv_bruteforce(t["index"], bound)
        rhs -= v
        tails += tl
    return {
        "target": tuple([n] * k),
        "fixedlen_arg": (n, k),
        "subtracted": terms,
        "lhs_bruteforce": lhs,
        "rhs": rhs,
        "diff": lhs - rhs,
        "tail_allowance": tails,
    }
