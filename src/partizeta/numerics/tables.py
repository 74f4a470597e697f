"""Exact combinatorial numbers: the Bernoulli table, one row of Stirling
numbers (first kind), and the exact rational values of the Riemann zeta
function at integers.

The Bernoulli table grows on demand from the tangent numbers and keeps the
last column of their recurrence, so a growth computes only new columns. It
grows under a lock and publishes the table with its column in one
assignment, so reads need no lock. A Stirling row is built from its
recurrence on each call, with no shared state.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

# B_0..B_(2m+1) and the last column of the tangent recurrence (T_m after each
# of its passes 1..m), published together; one growth at a time
_state: tuple[list[Fraction], list[int]] = ([], [])
_GROWTH = threading.Lock()


def _next_column(column: list[int]) -> list[int]:
    """Column m + 1 of Brent and Harvey's tangent recurrence ("Fast computation
    of Bernoulli, tangent and secant numbers", 2011) from column m: pass 1 sets
    T_(m+1) = m T_m = m!, pass k >= 2 T_(m+1) = (m+1-k) T_m + (m+3-k) T_(m+1)
    with T_m as pass k left it. Its last entry is T_(m+1) (T_1 = 1, T_3 = 16)."""
    m = len(column)
    if not m:
        return [1]
    new = [m * column[0]]
    for a, t in zip(range(m - 1, 0, -1), column[1:]):
        new.append(a * t + (a + 2) * new[-1])
    new.append(2 * new[-1])
    return new


def bernoulli_table(n: int) -> list[Fraction]:
    """B_0..B_n as exact rationals, B_1 = -1/2, B_2k = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1)). The table keeps the last column of the tangent
    recurrence, so a longer table computes only its new columns: any sequence
    of growths to B_n costs what one build to B_n costs."""
    if n < 0:
        raise ValueError("bernoulli_table wants n >= 0")
    global _state
    if len(_state[0]) <= n:
        with _GROWTH:
            table, column = _state
            table = table + [Fraction(1), Fraction(-1, 2)][len(table):]
            for k in range(len(table) // 2, n // 2 + 1):
                column = _next_column(column)
                table += [Fraction((-1) ** (k - 1) * 2 * k * column[-1], 4 ** k * (4 ** k - 1)),
                          Fraction(0)]
            _state = (table, column)
    return _state[0][: n + 1]


def bernoulli_work(n: int) -> int:
    """The price in ~1 us of the table to B_n from empty, n^3 / 7000 (a growth
    costs less): B_1000 builds cold in 0.09 s, B_2048 in 0.85 s and B_3000 in
    2.8 s (2-core x86 VM, CPython 3.11, one fresh process each)."""
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
