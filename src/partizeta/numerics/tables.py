"""Exact combinatorial numbers: the Bernoulli table, one row of Stirling
numbers (first kind), and the exact rational values of the Riemann zeta
function at integers.

The Bernoulli table grows on demand: a growth builds the longer list aside
and publishes it with one assignment, so concurrent reads and growth are
safe. Bernoulli numbers come from the tangent numbers; a Stirling row is
built from its recurrence on each call, with no shared state.
"""

from __future__ import annotations

import math
from fractions import Fraction

_bernoulli: list[Fraction] = []


def _tangent_numbers(n: int) -> list[int]:
    """T_0..T_n, the tangent numbers (T_1 = 1, T_2 = 2, T_3 = 16), exact from
    Brent and Harvey's in-place integer recurrence ("Fast computation of
    Bernoulli, tangent and secant numbers", 2011)."""
    T = [0, 1][: n + 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def bernoulli_table(n: int) -> list[Fraction]:
    """B_0..B_n as exact rationals, B_1 = -1/2, B_2k = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1)). The tangent recurrence cannot extend a shorter run, so a
    short table is rebuilt to max(n + 1, 3/2 its length) entries, keeping the
    entries it has: growth one index at a time reruns it O(log n) times."""
    if n < 0:
        raise ValueError("bernoulli_table wants n >= 0")
    global _bernoulli
    table = _bernoulli
    if len(table) <= n:
        T = _tangent_numbers((max(n + 1, 3 * len(table) // 2) - 1) // 2)
        new = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (2 * len(T) - 2)
        for k in range(max(1, (len(table) + 1) // 2), len(T)):
            new[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * T[k], 4 ** k * (4 ** k - 1))
        table = table + new[len(table):]
        _bernoulli = table
    return table[: n + 1]


def bernoulli_work(n: int) -> int:
    """The price in ~1 us of the table to B_n from empty, n^3 / 7000: B_1000
    builds cold in 0.085 s, B_2048 in 1.2 s and B_3000 in 3.9 s (2-core x86
    VM, CPython 3.11, one fresh process each)."""
    return n ** 3 // 7000


def bernoulli(n: int) -> Fraction:
    return bernoulli_table(n)[n]


def stirling1_row(n: int) -> list[int]:
    """Signed Stirling numbers of the first kind s(n, 0..n), from the
    recurrence s(i, j) = s(i-1, j-1) - (i-1) s(i-1, j), row by row."""
    if n < 0:
        raise ValueError("stirling1_row wants n >= 0")
    row = [1]
    for i in range(1, n + 1):
        row = [a - (i - 1) * b for a, b in zip([0] + row, row + [0])]
    return row


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
