"""Exact combinatorial number tables: Bernoulli, Stirling (first kind), and
the exact rational values of the Riemann zeta function at integers.

All entries are ``fractions.Fraction``; tables are grown on demand and cached,
then treated as immutable (concurrent reads are safe). Bernoulli numbers come
exact from mpmath's ``bernfrac``; the Stirling numbers from their recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

_bernoulli: list[Fraction] = []
_stirling1: list[list[int]] = [[1]]


def bernoulli_table(n: int) -> list[Fraction]:
    """B_0..B_n as exact rationals, B_1 = -1/2.

    Entries come from mpmath's ``bernfrac`` (von Staudt-Clausen denominator,
    numerator rounded from a value computed at a precision it picks itself),
    so they are exact and independent of ``mp.prec``. The cache only grows:
    the longer list is built first and published with one assignment.
    """
    global _bernoulli
    table = _bernoulli
    if len(table) <= n:
        table = table + [Fraction(*mp.bernfrac(i)) for i in range(len(table), n + 1)]
        _bernoulli = table
    return table[: n + 1]


def bernoulli(n: int) -> Fraction:
    return bernoulli_table(n)[n]


def stirling1_table(n: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind, rows 0..n.

    s(i,j) with s(i,j) = s(i-1,j-1) - (i-1) s(i-1,j); row i has entries 0..i.
    """
    global _stirling1
    while len(_stirling1) <= n:
        i = len(_stirling1)
        prev = _stirling1[i - 1]
        row = [0] * (i + 1)
        for j in range(i + 1):
            row[j] = (prev[j - 1] if j >= 1 else 0) - (i - 1) * (prev[j] if j < i else 0)
        _stirling1.append(row)
    return _stirling1[: n + 1]


def stirling1(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return stirling1_table(n)[n][k]


def zeta_neg_int(n: int) -> Fraction:
    """zeta(-n) for n >= 0, exact.

    zeta(0) = -1/2; for n >= 1, zeta(-n) = -B_{n+1}/(n+1) (convention-free
    since n+1 >= 2). Vanishes at negative even arguments.
    """
    if n < 0:
        raise ValueError("zeta_neg_int wants n >= 0")
    if n == 0:
        return Fraction(-1, 2)
    return Fraction(-1) * bernoulli(n + 1) / (n + 1)


def zeta_even_rational(k: int) -> Fraction:
    """zeta(k)/pi^k for even k >= 2, exact: (-1)^{k/2+1} B_k 2^k / (2 k!)."""
    if k < 2 or k % 2:
        raise ValueError("zeta_even_rational wants even k >= 2")
    j = k // 2
    return Fraction((-1) ** (j + 1), 2) * bernoulli(k) * Fraction(2**k, math.factorial(k))
