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
from fractions import Fraction

import mpmath as mp

from .numerics import (
    DEFAULT_PREC,
    GUARD_BITS,
    WORK_BUDGET,
    bell_via_determinant,
    bell_via_series,
    bernoulli_work,
    check_work,
    guarded,
    power_sum_tails,
    zeta_even_rational,
)
from .numerics.bell import determinant_work
from .numerics.zeta import power_sum_work


class MZVIndex:
    """Exponent tuple (m_1, ..., m_k); m_1 sits on the outermost (largest)
    summation variable, so convergence needs m_1 >= 2."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        if not exponents or any(m < 1 for m in exponents):
            raise ValueError("exponents must be positive integers")
        self.exponents = exponents

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
    a_j = (j-1)! zeta(mj), by the exp-series route. Its price, the series and
    the zeta values (``_series_work``), is checked against the work budget
    before any evaluation.
    """
    if m < 2 or k < 0:
        raise ValueError("need m >= 2, k >= 0")
    check_work(_series_work(m, k, prec), f"the length-{k} value at argument {m} and {prec} bits")
    return _series_value(m, k, 1, prec)


def fixedlen_zeta_exact(m: int, k: int) -> Fraction:
    """Exact rational r with zeta over length-k partitions = r * pi^{mk}.

    Even m only (odd zeta values have no exact path). B_k(a)/k! by the
    Hessenberg-determinant route, with a_j = (j-1)! zeta(mj)/pi^{mj}; the pi
    powers are homogeneous in B_k, so they factor out as pi^{mk}. Its price,
    the determinant and the Bernoulli table to B_{mk}, is checked against
    the work budget before any evaluation.
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
    n_i = i), so the series runs n ceil(log2(k!)) bits above the working
    precision to absorb the cancellation. Its price at that precision is
    checked against the work budget before any evaluation.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2, k >= 0")
    # log2(k!) rounded up from lgamma, times n in integers (n may not fit a
    # float); past k = 2^53 the series alone is over the budget
    bits = n * math.ceil(math.lgamma(min(k, 2 ** 53) + 1) / math.log(2))
    check_work(_series_work(n, k, prec + bits), f"the MZV of {k} equal arguments {n} at {prec} bits")
    return _series_value(n, k, -1, prec + bits)


def mzv_equal_args_exact(n: int, k: int) -> Fraction:
    """Exact rational r with zeta({n}^k) = r * pi^{nk}, even n, by the
    determinant route on the negated sequence, priced as
    ``fixedlen_zeta_exact``."""
    return (-1) ** k * Fraction(bell_via_determinant(_exact_sequence(n, k, -1)),
                                math.factorial(k))


def _exact_sequence(m: int, k: int, sign: int) -> list[Fraction]:
    if m < 2 or m % 2:
        raise ValueError("exact route needs even m >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    check_work(determinant_work(m, k) + bernoulli_work(m * k),
               f"the exact length-{k} value at argument {m}")
    # a_j = sign (j-1)! zeta(mj), the Bell arguments of the length-k value
    return [sign * math.factorial(j - 1) * zeta_even_rational(m * j) for j in range(1, k + 1)]


def _series_work(m: int, k: int, prec: int) -> int:
    """The price of ``_series_value(m, k, sign, prec)``: 4 k (k + prec) for
    its ~k^2/2 products (fixedlen (2, 480) at 64 bits takes 1.0 s, (8, 399)
    at 256 0.8 s; 2-core x86 VM, CPython 3.11), plus the zeta values, priced
    at no more than WORK_BUDGET/4 bits: past that the series alone is over
    the budget, and the cap keeps a 2^prec out of the price."""
    return 4 * k * (k + prec) + power_sum_work(m, k, 2,
                                               min(prec, WORK_BUDGET // 4) + GUARD_BITS + 16)


@guarded(extra=16)
def _series_value(m: int, k: int, sign: int, prec: int):
    """sign^k B_k(a)/k! for a_j = sign (j-1)! zeta(mj), as an mpf, 16 bits
    above the guarded precision. zeta(mj) = 1 + sum_{i >= 2} i^{-mj},
    j = 1..k, from one ``power_sum_tails`` setup, the 1 added exactly (from
    i = 1 the head 1^{-mj} = 1 would make the bounds grow like 2^j). Its
    callers check ``_series_work`` first.
    """
    if k == 0:  # B_0 of the empty sequence is the exact 1
        return mp.mpf(1)
    tails = power_sum_tails(m, k, 2, mp.mp.prec)
    a = [sign * math.factorial(j - 1) * (1 + v) for j, (v, _) in enumerate(tails, 1)]
    return sign ** k * bell_via_series(a) / math.factorial(k)


# ----------------------------------------------------------------------
def mzv_bruteforce(index, bound: int):
    """Strict nested sum for zeta(m_1, ..., m_k) with n_1 <= bound, in floats.

    Certified lower bound of the MZV; the returned tail estimate is the
    product upper bound prod_{j>=2} H_{m_j}(bound) * bound^{1-m_1}/(m_1-1).
    Returns (value, tail_estimate). Its price, length x bound units (10^6
    float terms at length 2 take ~0.4 s and ~40 MB, so the budget also caps
    its memory), is checked against the work budget before any evaluation.
    """
    idx = index.exponents if isinstance(index, MZVIndex) else tuple(index)
    idx = MZVIndex(idx)
    if not idx.is_convergent():
        raise ValueError(f"index {idx.exponents}: leading exponent must be >= 2")
    ex = idx.exponents
    k = idx.length
    if bound < k:
        raise ValueError("bound must be at least the length")
    check_work(k * bound, f"the brute-force MZV at length {k} and bound {bound}")

    G = [0.0] * (bound + 1)
    acc = 0.0
    for n in range(1, bound + 1):
        acc += float(n) ** (-ex[-1])
        G[n] = acc
    for lev in range(k - 2, -1, -1):
        acc = 0.0
        new = [0.0] * (bound + 1)
        for n in range(1, bound + 1):
            acc += float(n) ** (-ex[lev]) * G[n - 1]
            new[n] = acc
        G = new
    tail = float(bound) ** (1 - ex[0]) / (ex[0] - 1)
    for e in ex[1:]:
        tail *= sum(float(n) ** (-e) for n in range(1, bound + 1))
    return G[bound], tail


@guarded()
def shuffle_check(s, bound: int, prec: int = DEFAULT_PREC):
    """Length-2 analytic continuation identity: the weak double sum against
    (zeta(2s) + zeta(s)^2)/2. Returns (lhs, rhs, diff, lhs_tail_estimate)."""
    sv = mp.mpf(s)
    if sv <= 1:
        raise ValueError("need s > 1")
    z1, z2 = (1 + h for h, _ in power_sum_tails(sv, 2, 2, mp.mp.prec))  # zeta(s), zeta(2s)
    rhs = (z2 + z1 ** 2) / 2
    # weak 2-fold nested partial sum in float when that is enough
    sf = float(sv)
    acc_inner = 0.0
    lhs_f = 0.0
    for n in range(1, bound + 1):
        acc_inner += float(n) ** (-sf)          # H_s(n)
        lhs_f += float(n) ** (-sf) * acc_inner  # n1 = n >= n2
    lhs = mp.mpf(lhs_f)
    tail = z1 * mp.mpf(bound) ** (1 - sv) / (sv - 1)
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
