"""Fixed-length partition zeta values, equal-argument MZVs, and the
composition decoupling between them.

The length-k value over all partitions (weak inequalities) is
[y^{mk}] exp(sum_j zeta(mj) y^{mj} / j), i.e. the complete Bell polynomial
B_k(a)/k! of a_j = (j-1)! zeta(mj); the strict-inequality MZV analogue
negates the a_j and carries (-1)^k. Both are built here as that sequence and
handed to ``numerics.bell``: the numeric values by its exp-series route, the
exact values (even arguments: rationals times a power of pi) by its
Hessenberg-determinant route, with the series route as the exact oracle.
The numeric zeta(mj), j = 1..k, come from one ``power_sum_tails`` setup,
the exact ones from the Bernoulli table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .numerics import (
    DEFAULT_PREC,
    bell_via_determinant,
    bell_via_series,
    guarded,
    power_sum_tails,
    riemann_zeta,
    zeta_even_rational,
)


@dataclass(frozen=True)
class MZVIndex:
    """Exponent tuple (m_1, ..., m_k); m_1 sits on the outermost (largest)
    summation variable, so convergence needs m_1 >= 2."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if not self.exponents or any(m < 1 for m in self.exponents):
            raise ValueError("exponents must be positive integers")

    @property
    def length(self):
        return len(self.exponents)

    def is_convergent(self):
        return self.exponents[0] >= 2


def compositions(k: int) -> list[tuple[int, ...]]:
    """All 2^{k-1} compositions of k, in first-part-ascending order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [(first, *rest) for first in range(1, k) for rest in compositions(k - first)] + [(k,)]


# ----------------------------------------------------------------------
def fixedlen_zeta(m: int, k: int, prec: int = DEFAULT_PREC):
    """zeta over length-k partitions at integer argument m >= 2.

    pi^{mk} [z^{mk}] exp(sum_j zeta(mj)/j (z/pi)^{mj}) = B_k(a)/k! with
    a_j = (j-1)! zeta(mj), by the exp-series route. Work past
    SERIES_MAX_WORK (the series) or POWER_SUM_MAX_WORK (the zeta values)
    raises ArithmeticError (work budget) before any evaluation.
    """
    if m < 2 or k < 0:
        raise ValueError("need m >= 2, k >= 0")
    return _series_value(m, k, 1, prec)


def fixedlen_zeta_exact(m: int, k: int) -> Fraction:
    """Exact rational r with zeta over length-k partitions = r * pi^{mk}.

    Even m only (odd zeta values have no exact path). B_k(a)/k! by the
    Hessenberg-determinant route, with a_j = (j-1)! zeta(mj)/pi^{mj}; the pi
    powers are homogeneous in B_k, so they factor out as pi^{mk}. Work
    m k^3 + (m k)^3 / 350 above EXACT_MAX_WORK raises ArithmeticError (work
    budget) before any evaluation.
    """
    return Fraction(bell_via_determinant(_exact_sequence(m, k, 1)), math.factorial(k))


def fixedlen_zeta_exact_series(m: int, k: int) -> Fraction:
    """Same rational through the exp-series route; oracle for the determinant."""
    return Fraction(bell_via_series(_exact_sequence(m, k, 1)), math.factorial(k))


@guarded()
def mzv_equal_args(n: int, k: int, prec: int = DEFAULT_PREC):
    """zeta({n}^k) = (-1)^k [z^{nk}] exp(-sum_j zeta(nj)/j z^{nj})
    = (-1)^k B_k(-a)/k!.

    The series terms are O(1) while the value is at least (k!)^-n (the term
    n_i = i), so the series runs n log2(k!) bits above the working precision
    to absorb the cancellation. Past SERIES_MAX_WORK or POWER_SUM_MAX_WORK
    at that precision it raises ArithmeticError (work budget) before any
    evaluation.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2, k >= 0")
    wp = prec
    if k > 1:
        _check_series_work(n, k, wp)  # checked alone first: k! is slow for a huge k
        # n log2(k!) >= n (bit_length(k!) - 1), checked in integers first: n
        # may not fit a float, nor 10^400 bits mpmath's precision setting
        k_fact = math.factorial(k)
        _check_series_work(n, k, prec + n * (k_fact.bit_length() - 1))
        wp = prec + math.ceil(n * math.log2(k_fact))
    return _series_value(n, k, -1, wp)


def mzv_equal_args_exact(n: int, k: int) -> Fraction:
    """Exact rational r with zeta({n}^k) = r * pi^{nk}, even n, by the
    determinant route on the negated sequence, under the work budget
    EXACT_MAX_WORK of ``fixedlen_zeta_exact``."""
    return (-1) ** k * Fraction(bell_via_determinant(_exact_sequence(n, k, -1)),
                                math.factorial(k))


# work budget of the exact routes: m k^3 + (m k)^3 / 350, their cost in units
# of ~50 ns. The k x k determinant over rationals of ~m k log(m k) bits takes
# ~m k^3: (2, 300) at 5.5 x 10^7 takes 2.2 s, (4, 150) 0.7 s, and (2, 400) at
# 1.3 x 10^8 6.0 s. (m k)^3 / 350 prices the exact Bernoulli table to B_{mk},
# which grows like n^3.2: B_1000 builds cold in 0.085 s (2.9 x 10^6 units),
# B_1900 in 0.90 s (2.0 x 10^7), B_2500 in 2.0 s (4.5 x 10^7) and B_3000 in
# 3.9 s (7.7 x 10^7; 2-core x86 VM, CPython 3.11, one fresh process each)
EXACT_MAX_WORK = 2 ** 26


def _exact_sequence(m: int, k: int, sign: int) -> list[Fraction]:
    if m < 2 or m % 2:
        raise ValueError("exact route needs even m >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    if m * k ** 3 + (m * k) ** 3 // 350 > EXACT_MAX_WORK:
        raise ArithmeticError(f"the exact length-{k} value at argument {m} needs "
                              f"m k^3 + (m k)^3 / 350 above its work budget "
                              f"EXACT_MAX_WORK = {EXACT_MAX_WORK}")
    # a_j = sign (j-1)! zeta(mj), the Bell arguments of the length-k value
    return [sign * math.factorial(j - 1) * zeta_even_rational(m * j) for j in range(1, k + 1)]


# work budget of the numeric length-k series at series precision p, in units
# of ~5 us: k (k + p), above the ~k^2 (p + 900)/1000 of its ~k^2/2 products
# for every k <= 1000, and capping p at 2^18/k bits, past which one product
# costs more than linearly in p. fixedlen (2, 480) at 64 bits (2.6 x 10^5)
# takes 1.0 s, (8, 399) at 256 0.8 s and mzv (2, 129) at 256 (series
# precision prec + n log2(k!); 2.5 x 10^5) 0.3 s (2-core x86 VM, CPython 3.11,
# one fresh process each). The zeta values have POWER_SUM_MAX_WORK.
SERIES_MAX_WORK = 2 ** 18


def _check_series_work(m: int, k: int, prec: int) -> None:
    """ArithmeticError (work budget) if the length-k series at argument m
    and series precision prec needs more than SERIES_MAX_WORK."""
    if k * (k + prec) > SERIES_MAX_WORK:
        raise ArithmeticError(f"the length-{k} series at argument {m} and {prec} bits needs "
                              f"k (k + p) = {k * (k + prec)}, above SERIES_MAX_WORK = "
                              f"{SERIES_MAX_WORK}")


@guarded(extra=16)
def _series_value(m: int, k: int, sign: int, prec: int):
    """sign^k B_k(a)/k! for a_j = sign (j-1)! zeta(mj), as an mpf, 16 bits
    above the guarded precision. zeta(mj) = 1 + sum_{i >= 2} i^{-mj},
    j = 1..k, from one ``power_sum_tails`` setup, the 1 added exactly (from
    i = 1 the head 1^{-mj} = 1 would make the bounds grow like 2^j). Work past
    SERIES_MAX_WORK, or POWER_SUM_MAX_WORK for the zeta values, raises
    ArithmeticError (work budget) before any power is computed.
    """
    _check_series_work(m, k, prec)
    if k == 0:  # B_0 of the empty sequence is the exact 1
        return mp.mpf(1)
    tails = power_sum_tails(m, k, 0, 2, mp.mp.prec)
    a = [sign * math.factorial(j - 1) * (1 + v) for j, (v, _) in enumerate(tails, 1)]
    return sign ** k * bell_via_series(a) / math.factorial(k)


# ----------------------------------------------------------------------
# work budget of mzv_bruteforce in summed terms, length x bound: 10^6 float
# terms at length 2 take ~0.4 s and ~40 MB (2-core x86 VM, CPython 3.11)
MZV_MAX_TERMS = 4 * 10 ** 6


@guarded()
def mzv_bruteforce(index, bound: int, prec: int = 53):
    """Strict nested sum for zeta(m_1, ..., m_k) with n_1 <= bound.

    Certified lower bound of the MZV; the returned tail estimate is the
    product upper bound prod_{j>=2} H_{m_j}(bound) * bound^{1-m_1}/(m_1-1).
    Returns (value, tail_estimate). length x bound above MZV_MAX_TERMS raises
    ArithmeticError (work budget) before any evaluation.
    """
    idx = index.exponents if isinstance(index, MZVIndex) else tuple(index)
    idx = MZVIndex(idx)
    if not idx.is_convergent():
        raise ValueError(f"index {idx.exponents}: leading exponent must be >= 2")
    ex = idx.exponents
    k = idx.length
    if bound < k:
        raise ValueError("bound must be at least the length")
    if k * bound > MZV_MAX_TERMS:
        raise ArithmeticError(f"brute force at length {k}, bound {bound} sums {k * bound} "
                              f"terms; its work budget is length x bound <= {MZV_MAX_TERMS}")

    num = float if prec <= 53 else mp.mpf
    G = [num(0)] * (bound + 1)
    acc = num(0)
    for n in range(1, bound + 1):
        acc += num(n) ** (-ex[-1])
        G[n] = acc
    for lev in range(k - 2, -1, -1):
        acc = num(0)
        new = [num(0)] * (bound + 1)
        for n in range(1, bound + 1):
            acc += num(n) ** (-ex[lev]) * G[n - 1]
            new[n] = acc
        G = new
    tail = num(bound) ** (1 - ex[0]) / (ex[0] - 1)
    for e in ex[1:]:
        tail *= sum(num(n) ** (-e) for n in range(1, bound + 1))
    return G[bound], tail


@guarded()
def shuffle_check(s, bound: int, prec: int = DEFAULT_PREC):
    """Length-2 analytic continuation identity: the weak double sum against
    (zeta(2s) + zeta(s)^2)/2. Returns (lhs, rhs, diff, lhs_tail_estimate)."""
    sv = mp.mpf(s)
    if sv <= 1:
        raise ValueError("need s > 1")
    rhs = (riemann_zeta(2 * sv, mp.mp.prec) + riemann_zeta(sv, mp.mp.prec) ** 2) / 2
    # weak 2-fold nested partial sum in float when that is enough
    sf = float(sv)
    acc_inner = 0.0
    lhs_f = 0.0
    for n in range(1, bound + 1):
        acc_inner += float(n) ** (-sf)          # H_s(n)
        lhs_f += float(n) ** (-sf) * acc_inner  # n1 = n >= n2
    lhs = mp.mpf(lhs_f)
    tail = riemann_zeta(sv, mp.mp.prec) * mp.mpf(bound) ** (1 - sv) / (sv - 1)
    return lhs, rhs, lhs - rhs, tail


@guarded()
def decoupling_check(m: int, k: int, bound: int, prec: int = DEFAULT_PREC):
    """Fixed-length value vs the sum of strict MZVs over compositions of k.

    lhs = fixedlen_zeta(m, k); rhs = sum over compositions (a_1..a_j) of
    zeta(a_1 m, ..., a_j m) by brute force, coefficient 1 each. Returns
    (lhs, rhs, diff, tail_estimate_sum).
    """
    if m < 2 or k < 1:
        raise ValueError("need m >= 2, k >= 1")
    lhs = fixedlen_zeta(m, k, prec)
    rhs_f = 0.0
    tails = 0.0
    for comp in compositions(k):
        v, t = mzv_bruteforce([a * m for a in comp], bound)
        rhs_f += v
        tails += t
    rhs = mp.mpf(rhs_f)
    return lhs, rhs, lhs - rhs, mp.mpf(tails)


def length_reduction(n: int, k: int, bound: int = 1000, prec: int = DEFAULT_PREC):
    """zeta({n}^k) as fixedlen_zeta(n, k) minus the shorter-composition MZVs.

    Emits the identity structurally (list of composition terms with sign) and
    verifies it numerically at brute-force scale. Returns a dict with the
    terms, both sides, and the brute-force tail allowance.
    """
    if n < 2 or k < 2:
        raise ValueError("need n >= 2, k >= 2")
    terms = [{"composition": comp, "index": tuple(a * n for a in comp), "sign": -1}
             for comp in compositions(k) if len(comp) < k]
    lhs, lhs_tail = mzv_bruteforce([n] * k, bound)
    rhs = float(fixedlen_zeta(n, k, prec))
    tails = lhs_tail
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
