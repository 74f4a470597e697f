"""Exact p-adic congruence machinery."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from partizeta.numerics import bell_via_determinant, bell_via_series, bernoulli
from partizeta.padic import (
    INFINITE_VALUATION,
    PadicContext,
    interpolation_check,
    is_prime,
    kummer_check,
    kummer_valuation,
    padic_fixedlen,
    padic_valuation,
    suggest_m2,
    zeta_star_neg,
)


def test_context_invariants():
    PadicContext(p=5, a=0, k=1)
    PadicContext(p=11, a=2, k=3)
    with pytest.raises(ValueError):
        PadicContext(p=5, a=0, k=3)  # p < k+3
    with pytest.raises(ValueError):
        PadicContext(p=9, a=0, k=1)  # not prime
    with pytest.raises(ValueError):
        PadicContext(p=2, a=0, k=1)


def test_padic_valuation():
    assert padic_valuation(Fraction(0), 5) == INFINITE_VALUATION
    assert padic_valuation(Fraction(50, 3), 5) == 2
    assert padic_valuation(Fraction(-1562, 21), 7) == -1
    assert padic_valuation(Fraction(7, 5), 5) == -1
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1), 6)


def test_zeta_star_values():
    assert zeta_star_neg(5, 2) == Fraction(1, 3)
    assert zeta_star_neg(7, 2) == Fraction(1, 2)
    assert zeta_star_neg(5, 4) == Fraction(-31, 30)


def test_zeta_star_p_integral_off_the_divisible_classes():
    # von Staudt-Clausen: (1-p^{n-1}) zeta(1-n) is p-integral when (p-1) | n fails
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for n in range(2, 61, 2):
            if n % (p - 1) == 0:
                continue
            assert padic_valuation(zeta_star_neg(p, n), p) >= 0, (p, n)


def test_zeta_star_rejects_odd():
    with pytest.raises(ValueError):
        zeta_star_neg(5, 3)
    with pytest.raises(ValueError):
        zeta_star_neg(5, 1)


def test_kummer_examples():
    assert kummer_check(5, 0, 2, 6)
    assert kummer_check(7, 1, 2, 44)  # k2 = 2 + 7*6
    # the (5,0,2,4) gate case violates both clauses; divisibility is named first
    with pytest.raises(ValueError, match="divide"):
        kummer_check(5, 0, 2, 4)
    with pytest.raises(ValueError, match="congruent"):
        kummer_check(7, 0, 2, 4)
    with pytest.raises(ValueError, match="even"):
        kummer_check(5, 0, 3, 7)
    with pytest.raises(ValueError, match="divide"):
        kummer_check(5, 0, 4, 8)


def test_kummer_randomized_theorem_check():
    rng = random.Random(424242)
    primes = [3, 5, 7, 11, 13, 17, 19, 23]
    done = 0
    while done < 60:
        p = rng.choice(primes)
        a = rng.choice([0, 0, 1])
        k1 = rng.randrange(2, 50, 2)
        if k1 % (p - 1) == 0:
            continue
        k2 = k1 + p ** a * (p - 1) * rng.randint(1, 2)
        if k2 > 500:
            continue
        assert kummer_check(p, a, k1, k2), (p, a, k1, k2)
        done += 1


def fraction_route(p, k1, k2):
    return padic_valuation(zeta_star_neg(p, k1) - zeta_star_neg(p, k2), p)


def test_kummer_valuation_on_the_a10_instances():
    # A10's 200 seeded instances (acceptance.criterion_10)
    rng = random.Random(20260811)
    primes = [3, 5, 7, 11, 13, 17, 19, 23]
    count = 0
    while count < 200:
        p = rng.choice(primes)
        a = rng.choice([0, 0, 0, 1])
        step = p ** a * (p - 1)
        k1 = rng.randrange(2, 60, 2)
        if k1 % (p - 1) == 0:
            continue
        k2 = k1 + step * rng.randint(1, 3)
        if k2 > 600:
            continue
        assert kummer_valuation(p, a, k1, k2) == fraction_route(p, k1, k2), (p, a, k1, k2)
        count += 1


def test_kummer_valuation_up_to_b600():
    # a boolean check alone cannot see a wrong valuation: the congruence is a
    # theorem, so kummer_check is True on every valid instance
    rng = random.Random(600)
    primes = [3, 5, 7, 11, 13, 17, 19, 23]
    seen = set()
    done = 0
    while done < 150:
        p = rng.choice(primes)
        a = rng.choice([0, 1, 2])
        k1 = rng.randrange(2, 601, 2)
        if k1 % (p - 1) == 0:
            continue
        k2 = k1 + p ** a * (p - 1) * rng.randint(-4, 4)
        if not 2 <= k2 <= 600 or k2 == k1:
            continue
        v = kummer_valuation(p, a, k1, k2)
        assert v == fraction_route(p, k1, k2), (p, a, k1, k2)
        assert v >= a + 1 and kummer_check(p, a, k1, k2)
        seen.add((a, v - a))
        done += 1
    assert {a for a, _ in seen} == {0, 1, 2}
    assert any(extra > 1 for _, extra in seen)  # deeper than the congruence


def test_kummer_valuation_equal_indices_is_infinite():
    for p, a, k in ((5, 0, 2), (7, 2, 44), (23, 1, 600)):
        assert kummer_valuation(p, a, k, k) == INFINITE_VALUATION == fraction_route(p, k, k)
        assert kummer_check(p, a, k, k)


def test_padic_fixedlen_k1_is_zeta_star():
    ctx = PadicContext(p=5, a=0, k=1)
    for m in (2, 6, 22):
        assert padic_fixedlen(ctx, m) == zeta_star_neg(5, m)
    assert padic_fixedlen(ctx, 2) == Fraction(1, 3)


def test_padic_fixedlen_k2_structure():
    # entries at even r sit on trivial zeros, so only the diagonal survives
    ctx = PadicContext(p=7, a=0, k=2)
    assert padic_fixedlen(ctx, 2) == zeta_star_neg(7, 2) ** 2 / 2 == Fraction(1, 8)


def test_padic_fixedlen_preconditions():
    ctx = PadicContext(p=7, a=0, k=2)
    with pytest.raises(ValueError):
        padic_fixedlen(ctx, 3)  # odd evaluation index
    with pytest.raises(ValueError):
        padic_fixedlen(ctx, 0)


@pytest.mark.parametrize("k, p", [(1, 5), (2, 7), (3, 11)])
def test_padic_fixedlen_is_bell_of_zeta_star(k, p):
    # (1/k!) B_k(a) with a_r = (r-1)! zeta*((1-m) r), zeta* built here from
    # the Bernoulli numbers, both Bell routes held to each other
    for a in (0, 1):
        for m in (2, suggest_m2(p, a, k, 2)):
            seq = []
            for r in range(1, k + 1):
                n = 1 + (m - 1) * r
                zstar = -(1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n if n % 2 == 0 else 0
                seq.append(math.factorial(r - 1) * Fraction(zstar))
            want = bell_via_series(seq) / math.factorial(k)
            assert bell_via_determinant(seq) / math.factorial(k) == want
            assert padic_fixedlen(PadicContext(p=p, a=a, k=k), m) == want, (k, p, a, m)


@pytest.mark.parametrize("k, p", [(1, 5), (2, 7), (3, 11)])
def test_padic_fixedlen_p_integral(k, p):
    # the 1/k! in B_k(a)/k! and every zeta* entry stay p-integral on S_2
    for m in range(2, 2 + 6 * (p - 1), p - 1):
        assert padic_valuation(padic_fixedlen(PadicContext(p=p, a=0, k=k), m), p) >= 0, m


def test_factorial_entries_p_integral():
    # (k-i)!/(k-j)! has zero p-valuation whenever p >= k+3
    for k in (1, 2, 3, 4):
        p = k + 3 if is_prime(k + 3) else k + 5
        if not is_prime(p):
            continue
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                q = Fraction(math.factorial(k - i), math.factorial(k - j))
                assert padic_valuation(q, p) == 0


def test_interpolation_acceptance_trio():
    for (k, p) in ((1, 5), (2, 7), (3, 11)):
        for a in (0, 1):
            m2 = suggest_m2(p, a, k, 2)
            assert interpolation_check(p, a, k, 2, m2), (k, p, a)


def test_interpolation_spec_instances():
    assert suggest_m2(5, 1, 1, 2) == 22
    assert interpolation_check(5, 1, 1, 2, 22)
    assert suggest_m2(7, 1, 2, 2) == 44
    assert interpolation_check(7, 1, 2, 2, 44)
    assert interpolation_check(7, 0, 2, 2, 8)


def test_interpolation_symmetric_and_monotone():
    assert interpolation_check(7, 1, 2, 2, 44) == interpolation_check(7, 1, 2, 44, 2)
    # truth at exponent a+1 implies truth at smaller exponents
    assert interpolation_check(7, 0, 2, 2, 44)


def test_interpolation_preconditions_named():
    with pytest.raises(ValueError, match="S_2"):
        interpolation_check(7, 0, 2, 3, 9)
    with pytest.raises(ValueError, match="p\\^a"):
        interpolation_check(7, 1, 2, 2, 8)  # 8 == 2 mod 6 but not mod 7
    with pytest.raises(ValueError, match="k\\+3"):
        interpolation_check(5, 0, 3, 2, 6)


def test_bernoulli_work_budget():
    # past the budget the checks refuse before the Bernoulli table grows:
    # B_n is priced n^3/7000, so B_3084 is the last index inside it
    with pytest.raises(ArithmeticError, match="WORK_BUDGET"):
        kummer_check(7, 0, 2, 3086)
    # the largest index is 1 + (m - 1) r for the largest odd r <= k: r = 3 at k = 4
    with pytest.raises(ArithmeticError, match="B_3094"):
        interpolation_check(11, 0, 4, 2, 1032)
    with pytest.raises(ArithmeticError, match="B_50506"):
        interpolation_check(101, 1, 5, 2, suggest_m2(101, 1, 5, 2))


def test_huge_p_and_a_priced_from_bit_lengths():
    # trial division of a 60-bit p and m2 > 5^(10^6) are refused before they
    # run; a small m1 - m2 is no multiple of 5^(10^6), which is not formed
    t0 = time.perf_counter()
    with pytest.raises(ArithmeticError, match="60-bit p"):
        is_prime(10 ** 18 + 3)
    with pytest.raises(ArithmeticError, match="WORK_BUDGET"):
        suggest_m2(5, 10 ** 6, 1, 2)
    with pytest.raises(ValueError, match="p\\^a"):
        interpolation_check(5, 10 ** 6, 1, 2, 6)
    assert time.perf_counter() - t0 < 1
    # the Kummer check neither: k1 - k2 = -4 is no multiple of (p-1) 5^(10^6),
    # named by p and a, and k1 = k2 needs no modulus
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"not congruent mod \(p-1\) p\^a = 4\*5\^1000000"):
        kummer_valuation(5, 10 ** 6, 2, 6)
    assert time.perf_counter() - t0 < 0.05
    t0 = time.perf_counter()
    assert kummer_valuation(5, 10 ** 6, 2, 2) == INFINITE_VALUATION
    assert time.perf_counter() - t0 < 0.05
    # a 65-bit m is named by its bit length, not in decimal
    with pytest.raises(ArithmeticError, match="65-bit m"):
        interpolation_check(5, 0, 1, 2, 2 + 4 * 2 ** 62)

