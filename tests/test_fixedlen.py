"""Fixed-length zeta values, equal-argument MZVs, decoupling identities."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import pytest

from oracles import length_reduction
from partizeta import fixedlen as fixedlen_module
from partizeta.fixedlen import (
    compositions,
    decoupling_check,
    fixedlen_zeta,
    fixedlen_zeta_exact,
    fixedlen_zeta_exact_series,
    mzv_bruteforce,
    mzv_equal_args,
    mzv_equal_args_exact,
    shuffle_check,
)
from partizeta.numerics import WORK_BUDGET, bell_via_determinant, riemann_zeta, zeta_even_rational

PREC = 256


def test_fixedlen_trivial_cases():
    with mp.workprec(PREC):
        assert fixedlen_zeta(2, 0, PREC) == 1
        assert abs(fixedlen_zeta(3, 1, PREC) - riemann_zeta(3, PREC)) < mp.mpf("1e-70")


def test_fixedlen_k2_value():
    with mp.workprec(PREC):
        assert abs(fixedlen_zeta(2, 2, PREC) - 7 * mp.pi ** 4 / 360) < mp.mpf("1e-70")


def test_fixedlen_exact_examples():
    assert fixedlen_zeta_exact(2, 1) == Fraction(1, 6)
    assert fixedlen_zeta_exact(2, 2) == Fraction(7, 360)
    assert fixedlen_zeta_exact(2, 3) == Fraction(31, 15120)
    assert fixedlen_zeta_exact(2, 3) == Fraction(2 ** 5 - 1, 2 ** 4) * zeta_even_rational(6)


def test_fixedlen_exact_rejects_odd():
    with pytest.raises(ValueError):
        fixedlen_zeta_exact(3, 2)


def test_numeric_values_take_zeta_from_the_power_sum_engine(monkeypatch):
    # one engine for zeta(mj): the numeric path calls no mpmath zeta
    monkeypatch.setattr(mp, "zeta", None)
    assert fixedlen_zeta(3, 4, PREC) > 1 and 0 < mzv_equal_args(3, 4, PREC) < 1


def test_exact_budget_admits_a_table_built_in_a_second(monkeypatch):
    # B_1900 builds cold in ~0.9 s and B_3084 (~4 s) are inside the budget,
    # B_3086 is past it; only the budget is exercised, on a stub table
    monkeypatch.setattr(fixedlen_module, "zeta_even_rational", lambda n: Fraction(1))
    assert fixedlen_zeta_exact(1900, 1) == 1 and fixedlen_zeta_exact(3084, 1) == 1
    with pytest.raises(ArithmeticError, match="WORK_BUDGET"):
        fixedlen_zeta_exact(3086, 1)


def test_fixedlen_pzv_family():
    for k in range(1, 11):
        want = Fraction(2 ** (2 * k - 1) - 1, 2 ** (2 * k - 2)) * zeta_even_rational(2 * k)
        assert fixedlen_zeta_exact(2, k) == want


def test_fixedlen_det_equals_series_exact():
    for m in (2, 4, 6, 8):
        for k in range(0, 9):
            assert fixedlen_zeta_exact(m, k) == fixedlen_zeta_exact_series(m, k)


def test_fixedlen_series_matches_exact_numerically():
    with mp.workprec(PREC + 20):
        for (m, k) in ((2, 4), (4, 3), (6, 2)):
            r = fixedlen_zeta_exact(m, k)
            want = mp.mpf(r.numerator) / r.denominator * mp.pi ** (m * k)
            assert abs(fixedlen_zeta(m, k, PREC) - want) < mp.mpf("1e-60")


def test_odd_m_series_matches_determinant_route():
    # odd m has no exact path: compare the numeric series value with the
    # determinant route on mpf zeta values, B_k(a)/k!, a_j = (j-1)! zeta(3j)
    m, k = 3, 4
    with mp.workprec(PREC + 40):
        a = [math.factorial(j - 1) * riemann_zeta(m * j, PREC + 40) for j in range(1, k + 1)]
        want = bell_via_determinant(a) / math.factorial(k)
        strict = bell_via_determinant([(-1) ** (j + 1) * v for j, v in enumerate(a, 1)])
        assert abs(fixedlen_zeta(m, k, PREC) - want) < mp.mpf("1e-70")
        assert abs(mzv_equal_args(m, k, PREC) - strict / math.factorial(k)) < mp.mpf("1e-70")


# ---------------------------------------------------------------- MZV
def test_mzv_equal_args_values():
    with mp.workprec(PREC + 20):
        assert abs(mzv_equal_args(2, 2, PREC) - mp.pi ** 4 / 120) < mp.mpf("1e-70")
        assert abs(mzv_equal_args(2, 5, PREC) - mp.pi ** 10 / math.factorial(11)) < mp.mpf("1e-65")
        assert abs(mzv_equal_args(3, 1, PREC) - riemann_zeta(3, PREC)) < mp.mpf("1e-70")


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("k", [6, 8, 10])
def test_mzv_equal_args_keeps_relative_precision(n, k):
    # zeta({7}^10) ~ 2^-150 comes out of O(1) series terms: the cancellation
    # must not eat into the 256 bits
    v = mzv_equal_args(n, k, prec=PREC)
    with mp.workprec(1400):
        ref = mzv_equal_args(n, k, prec=1400)
        assert abs(v - ref) < mp.mpf(2) ** -248 * ref


@pytest.mark.parametrize("prec", [64, 128, 256, 512, 1024])
@pytest.mark.parametrize("fn, m, k", [(fixedlen_zeta, 2, 5), (fixedlen_zeta, 3, 12),
                                      (mzv_equal_args, 3, 4), (mzv_equal_args, 5, 6)])
def test_series_values_precision_sweep(fn, m, k, prec):
    # each value within 2^(4-prec) relative of the same call at 2 prec + 64
    v = fn(m, k, prec)
    with mp.workprec(2 * prec + 64):
        ref = fn(m, k, 2 * prec + 64)
        assert abs(v - ref) <= mp.ldexp(abs(ref), 4 - prec)


def test_mzv_exact_family():
    for k in range(1, 11):
        assert mzv_equal_args_exact(2, k) == Fraction(1, math.factorial(2 * k + 1))


def test_k1_extraction_reproduces_zeta():
    with mp.workprec(PREC):
        for n in (2, 3, 5):
            assert abs(fixedlen_zeta(n, 1, PREC) - riemann_zeta(n, PREC)) < mp.mpf("1e-70")
            assert abs(mzv_equal_args(n, 1, PREC) - riemann_zeta(n, PREC)) < mp.mpf("1e-70")


def test_weak_sum_dominates_strict():
    with mp.workprec(PREC):
        for (m, k) in ((2, 2), (2, 4), (3, 2), (4, 3)):
            assert fixedlen_zeta(m, k, PREC) >= mzv_equal_args(m, k, PREC)


def test_mzv_bruteforce_single_index():
    v, tail = mzv_bruteforce((2,), 10 ** 6)
    assert abs(float(mp.zeta(2)) - v) < 1e-6


def test_mzv_bruteforce_depth_two():
    v, tail = mzv_bruteforce((2, 2), 1000)
    ref = float(mp.pi ** 4 / 120)
    # true tail at bound 1000 is ~1.6e-3 (the quoted 1e-5 needs bound ~2e5)
    assert abs(ref - v) < 2e-3
    assert abs(ref - v) <= tail
    v2, _ = mzv_bruteforce((2, 2), 2 * 10 ** 5)
    assert abs(ref - v2) < 1e-5


def test_mzv_bruteforce_mixed_index_finite():
    v, tail = mzv_bruteforce((4, 2), 1000)
    assert 0 < v < 1
    assert tail < 1e-6


def test_mzv_bruteforce_rejects_divergent():
    for index in ((1, 2), (1, 3)):
        with pytest.raises(ValueError, match="leading exponent must be >= 2"):
            mzv_bruteforce(index, 100)


# ---------------------------------------------------------------- compositions
def test_mzv_bruteforce_work_budget():
    # length x bound units: the budget caps the terms, and so the memory
    with pytest.raises(ArithmeticError, match="WORK_BUDGET"):
        mzv_bruteforce((2, 1), WORK_BUDGET // 2 + 1)


def test_compositions_small():
    assert compositions(1) == [(1,)]
    assert compositions(2) == [(1, 1), (2,)]
    assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for k in range(1, 11):
        assert len(compositions(k)) == 2 ** (k - 1)


# ---------------------------------------------------------------- identities
def test_shuffle_s2_exact_side():
    lhs, rhs, diff, tail = shuffle_check(2, 10 ** 4, PREC)
    with mp.workprec(PREC):
        assert abs(rhs - 7 * mp.pi ** 4 / 360) < mp.mpf("1e-60")
        assert abs(diff) <= tail


def test_shuffle_s3():
    lhs, rhs, diff, tail = shuffle_check(3, 10 ** 4, PREC)
    assert abs(diff) < mp.mpf("1e-6")


def test_shuffle_large_s_degenerates():
    lhs, rhs, diff, tail = shuffle_check(20, 100, PREC)
    with mp.workprec(PREC):
        assert abs(rhs - 1) < mp.mpf("1e-5")
        assert abs(diff) < mp.mpf("1e-10")


def test_identities_take_zeta_from_the_power_sum_engine(mp_zeta):
    # zeta(s) and zeta(2s) of the shuffle identity from one power_sum_tails
    # setup, and the fixed-length side of the decoupling from another
    shuffle_check(3, 1000, PREC)
    decoupling_check(3, 2, 1000, PREC)
    assert mp_zeta[0] == 0


def test_decoupling_exact_k2():
    assert (fixedlen_zeta_exact(2, 2)
            == mzv_equal_args_exact(2, 2) + zeta_even_rational(4))


def test_decoupling_trivial_k1():
    lhs, rhs, diff, tail = decoupling_check(2, 1, 2000, PREC)
    assert abs(diff) <= tail


def test_decoupling_numeric():
    for (m, k) in ((2, 3), (3, 2)):
        lhs, rhs, diff, tail = decoupling_check(m, k, 1000, PREC)
        assert abs(diff) <= tail, (m, k)


def test_decoupling_triangle_with_shuffle():
    # zeta(3,3) + zeta(6) vs (zeta(3)^2 + zeta(6))/2: closes within brute tails
    v33, t33 = mzv_bruteforce((3, 3), 2000)
    with mp.workprec(PREC):
        z6 = riemann_zeta(6, PREC)
        z3 = riemann_zeta(3, PREC)
        lhs = v33 + z6
        rhs = (z3 ** 2 + z6) / 2
        assert abs(lhs - rhs) <= t33 + mp.mpf("1e-12")


def test_length_reduction_exact_even_cases():
    # zeta(n,n) = fixedlen(n,2) - zeta(2n), exact for even n
    for n in (2, 4):
        assert (mzv_equal_args_exact(n, 2)
                == fixedlen_zeta_exact(n, 2) - zeta_even_rational(2 * n))


def test_length_reduction_numeric():
    rep = length_reduction(2, 3, bound=500, prec=PREC)
    assert rep["target"] == (2, 2, 2)
    assert len(rep["subtracted"]) == 3  # compositions of 3 shorter than (1,1,1)
    assert abs(rep["diff"]) <= rep["tail_allowance"]
    # spec quotes 1e-4 at bound 500; the actual brute residual is ~4e-3,
    # the 1e-4 scale needs the exact even-argument route (previous test)
    assert abs(rep["diff"]) < 1e-2
