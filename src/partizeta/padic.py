"""p-adic interpolation of fixed-length partition zeta values, in exact
rational arithmetic throughout.

The Euler-factor-stripped values zeta*(1-n) = (1 - p^{n-1}) zeta(1-n) obey
the Kummer congruences; the complete Bell polynomial of the zeta* sequence
(``numerics.bell``, determinant route) then interpolates the length-k value
over parts prime to p at negative arguments. Everything here is a valuation
statement about differences of rationals, so no floating representation
appears anywhere; the Kummer valuation reads its difference off one
cross-multiplied integer and never forms the rationals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .numerics import bell_via_determinant, bernoulli, bernoulli_work, check_work, zeta_neg_int
from .numerics.bell import determinant_work

INFINITE_VALUATION = math.inf


@functools.lru_cache(maxsize=128)
def is_prime(n: int) -> bool:
    """Trial division by the odd d <= sqrt(n), priced from the bit length of
    n first: sqrt(n)/2 steps of ~0.27 us, so an odd n below 2^50 is inside
    the work budget (2-core x86 VM, CPython 3.11). Cached: a request asks
    for the same p several times."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    check_work((1 << (n.bit_length() + 1) // 2) // 8, f"trial division of a {n.bit_length()}-bit p")
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PadicContext:
    """Prime p, congruence exponent a, length k; requires odd p >= k + 3."""

    p: int
    a: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"p={self.p} must be an odd prime")
        if self.p < self.k + 3:
            raise ValueError(f"need p >= k+3, got p={self.p}, k={self.k}")
        if self.a < 0 or self.k < 1:
            raise ValueError("need a >= 0 and k >= 1")


def padic_valuation(q, p: int):
    """v_p of a rational (math.inf for 0)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        return INFINITE_VALUATION
    return _valuation(q.numerator, p) - _valuation(q.denominator, p)


def _valuation(n: int, p: int) -> int:
    """v_p of a nonzero integer."""
    v = 0
    while True:
        n, r = divmod(n, p)
        if r:
            return v
        v += 1


def zeta_star_neg(p: int, n: int) -> Fraction:
    """zeta*(1-n) = (1 - p^{n-1}) zeta(1-n) for positive even n, exact."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 2 or n % 2:
        raise ValueError("zeta_star_neg wants even n >= 2 (trivial zeros out of scope)")
    return (1 - Fraction(p) ** (n - 1)) * zeta_neg_int(n - 1)


def kummer_valuation(p: int, a: int, k1: int, k2: int):
    """v_p(zeta*(1-k1) - zeta*(1-k2)), exact (math.inf when they are equal).

    Preconditions (violations named): k1, k2 positive even, neither divisible
    by p-1, and k1 = k2 mod p^a (p-1). Its price, the Bernoulli table to
    B_max(k1, k2), is checked against the work budget first. With
    B_k = N_k/D_k and zeta*(1-k) = -(1-p^{k-1}) B_k/k, the difference is
    (1-p^{k1-1}) N1 D2 k2 - (1-p^{k2-1}) N2 D1 k1 over D1 D2 k1 k2 up to
    sign: two valuations of integers, and no gcd on the ~1000-digit numbers
    that Fractions would take.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"precondition: p={p} must be an odd prime")
    for name, k in (("k1", k1), ("k2", k2)):
        if k < 2 or k % 2:
            raise ValueError(f"precondition: {name}={k} must be positive even")
        if k % (p - 1) == 0:
            raise ValueError(f"precondition: (p-1) must not divide {name}={k}")
    # (p-1) p^a >= 2^(a (bits(p) - 1)): a nonzero k1 - k2 below that is no
    # multiple of it, and the modulus is formed only at most about twice the
    # size of k1 - k2
    d = k1 - k2
    if d and (d.bit_length() <= a * (p.bit_length() - 1) or d % ((p - 1) * p ** a)):
        raise ValueError(f"precondition: k1={k1} and k2={k2} not congruent "
                         f"mod (p-1) p^a = {p - 1}*{p}^{a}")
    check_work(bernoulli_work(max(k1, k2)), f"the Kummer check of B_{k1} and B_{k2}")
    b1, b2 = bernoulli(k1), bernoulli(k2)
    n1, d1, n2, d2 = b1.numerator, b1.denominator, b2.numerator, b2.denominator
    top = (1 - p ** (k1 - 1)) * (n1 * d2 * k2) - (1 - p ** (k2 - 1)) * (n2 * d1 * k1)
    if top == 0:
        return INFINITE_VALUATION
    return _valuation(top, p) - _valuation(d1 * d2 * k1 * k2, p)


def kummer_check(p: int, a: int, k1: int, k2: int) -> bool:
    """Kummer congruence instance, exact: True iff
    v_p((1-p^{k1-1}) B_{k1}/k1 - (1-p^{k2-1}) B_{k2}/k2) >= a+1, i.e.
    ``kummer_valuation`` (same preconditions and price) is at least a+1.
    """
    return kummer_valuation(p, a, k1, k2) >= a + 1


def padic_fixedlen(ctx: PadicContext, m: int) -> Fraction:
    """Length-k zeta over parts prime to p, continued to the point s = 1 - m.

    B_k(a)/k! by the Hessenberg-determinant route, with
    a_r = (r-1)! zeta*((1-m) r). m must be even >= 2, so the even-r entries
    fall on trivial zeros and the odd-r entries on Kummer-governed even
    arguments; 1/k! is p-integral because p >= k+3.
    """
    if m < 2 or m % 2:
        raise ValueError("evaluation points 1-m use even m >= 2")
    return Fraction(bell_via_determinant(_zeta_star_sequence(ctx.p, m, ctx.k)),
                    math.factorial(ctx.k))


def _zeta_star_sequence(p: int, m: int, k: int) -> list[Fraction]:
    """a_r = (r-1)! zeta*((1-m) r), r = 1..k; for even m, (1-m) r = 1 - n with
    n = 1 + (m-1) r, and even r give odd n: trivial zeros."""
    return [math.factorial(r - 1) * zeta_star_neg(p, 1 + (m - 1) * r) if r % 2
            else Fraction(0) for r in range(1, k + 1)]


def interpolation_valuation(p: int, a: int, k: int, m1: int, m2: int):
    """v_p of the difference of the interpolated length-k values at 1-m1 and
    1-m2 (math.inf when they are equal).

    Preconditions: p >= k+3 odd prime; m1, m2 in S_2 (= 2 mod p-1);
    m1 = m2 mod p^a. Its price, the Bernoulli table and the two
    determinants, is checked against the work budget before any evaluation.
    """
    ctx = PadicContext(p=p, a=a, k=k)
    for name, m in (("m1", m1), ("m2", m2)):
        if m < 2:
            raise ValueError(f"precondition: {name}={m} must be >= 2")
        if (m - 2) % (p - 1):
            raise ValueError(f"precondition: {name}={m} not in S_2 (== 2 mod p-1={p-1})")
    # p^a >= 2^(a (bits(p) - 1)): a nonzero m1 - m2 below that is no multiple
    # of it, and p^a is formed only at most twice the size of m1 - m2
    d = m1 - m2
    if d and (d.bit_length() <= a * (p.bit_length() - 1) or d % p ** a):
        raise ValueError(f"precondition: m1={m1}, m2={m2} not congruent mod p^a = {p}^{a}")
    # the largest index is B_n at n = 1 + (m - 1) r, r the largest odd r <= k;
    # past 64 bits m and n are named by their bit lengths
    m = max(m1, m2)
    n = 1 + (m - 1) * (k - 1 + k % 2)
    what = (f"m = {m} (to B_{n})" if n.bit_length() <= 64
            else f"a {m.bit_length()}-bit m (to B_n, n of {n.bit_length()} bits)")
    check_work(bernoulli_work(n) + 2 * determinant_work(m, k),
               f"the interpolation check at k = {k}, {what}")
    return padic_valuation(padic_fixedlen(ctx, m1) - padic_fixedlen(ctx, m2), p)


def interpolation_check(p: int, a: int, k: int, m1: int, m2: int) -> bool:
    """Continuity congruence of the interpolated length-k value.

    True iff the values at 1-m1 and 1-m2 agree mod p^{a+1}, i.e.
    ``interpolation_valuation`` (same preconditions) is at least a+1.
    """
    return interpolation_valuation(p, a, k, m1, m2) >= a + 1


def suggest_m2(p: int, a: int, k: int, m1: int) -> int:
    """Smallest valid m2 > m1 for interpolation_check, by CRT.

    Needs m2 = 2 mod (p-1) and m2 = m1 mod p^a; since gcd(p-1, p^a) = 1 the
    joint step is (p-1) p^a.
    """
    PadicContext(p=p, a=a, k=k)
    if (m1 - 2) % (p - 1):
        raise ValueError(f"m1={m1} not in S_2")
    # p^a >= 2^bits: past 2^64 the check at m2 > p^a needs B_n, n > 2^64,
    # refused here at that bound before p^a is formed
    bits = a * (p.bit_length() - 1)
    if bits > 64:
        check_work(bernoulli_work(1 << 64),
                   f"the interpolation check at m2 > p^a = {p}^{a} (at least {bits} bits)")
    return m1 + (p - 1) * p ** a
