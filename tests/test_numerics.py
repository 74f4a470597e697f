"""Numeric kernel: tables, series, gamma, zeta, Bell, root finder, and the
precision policy.

The special functions wrap mpmath, so they are tested by identities and by
routes that do not go through the wrapped function: the log-gamma
recurrence, reflection and Legendre series, quadrature for the incomplete
gamma, the functional equation for zeta, mpmath's Hurwitz zeta for the
home-grown Euler-Maclaurin tail, and the residual contract for the roots.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import pathlib
import pkgutil
import random
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partizeta
from partizeta.modular import hk_polynomial, hk_zero_solver
from partizeta.pzeta import closed_form_gamma
from partizeta.numerics import roots as roots_module
from partizeta.numerics import tables as tables_module
from partizeta.numerics import zeta as zeta_module
from partizeta.numerics import (
    GUARD_BITS,
    RootFindingError,
    TruncatedSeries,
    bernoulli,
    bernoulli_table,
    complete_bell,
    euler_bernoulli_genfunc_check,
    incomplete_gamma_upper,
    log_gamma,
    poly_eval,
    poly_negate_var,
    poly_roots,
    power_sum_tails,
    riemann_zeta,
    stirling1,
    stirling1_table,
    working,
    zeta_even_rational,
    zeta_neg_int,
)

PREC = 256
TOL = mp.mpf(2) ** -(PREC - 8)


# ---------------------------------------------------------------- tables
def test_bernoulli_values():
    B = bernoulli_table(12)
    assert B[0] == 1
    assert B[1] == Fraction(-1, 2)
    assert B[2] == Fraction(1, 6)
    assert B[12] == Fraction(-691, 2730)
    assert all(B[n] == 0 for n in range(3, 12, 2))


def test_bernoulli_defining_recurrence():
    # sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1 (holds in the B_1 = -1/2
    # convention). With B_0 = 1, n <= 130 determines B_0..B_130 exactly, which
    # covers every m k <= 120 the exact routes use; n = 600 spot-checks the top
    B = bernoulli_table(600)
    for n in [*range(1, 131), 600]:
        assert sum(math.comb(n + 1, j) * B[j] for j in range(n + 1)) == 0, n


def test_bernoulli_von_staudt_clausen():
    # B_n + sum over primes p with (p-1) | n of 1/p is an integer, n even >= 2
    B = bernoulli_table(600)
    primes = [p for p in range(2, 602) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for n in range(2, 601, 2):
        frac = B[n] + sum(Fraction(1, p) for p in primes if n % (p - 1) == 0)
        assert frac.denominator == 1, n


def test_bernoulli_table_matches_bernfrac():
    # every entry to B_600 and a spread up to PADIC_MAX_BERNOULLI = 2048
    # against mpmath's exact Bernoulli numbers
    B = bernoulli_table(2048)
    for n in [*range(601), *range(662, 2048, 62), 2048]:
        assert B[n] == Fraction(*mp.bernfrac(n)), n


def test_bernoulli_table_grows_geometrically(monkeypatch):
    # the tangent recurrence reruns from T_1 on each growth; one even index at
    # a time to B_600 must rebuild O(log n) times (3/2 growth: 16), not ~300
    calls = []
    tangent_numbers = tables_module._tangent_numbers
    monkeypatch.setattr(tables_module, "_bernoulli", [])
    monkeypatch.setattr(tables_module, "_tangent_numbers",
                        lambda n: calls.append(n) or tangent_numbers(n))
    for n in range(0, 601, 2):
        assert len(bernoulli_table(n)) == n + 1
    assert len(calls) <= 20, calls
    assert tables_module._bernoulli[:601] == [Fraction(*mp.bernfrac(n)) for n in range(601)]


def test_tables_reject_negative_indices():
    # n < 0 must raise, not slice from the end of a table long enough to allow it
    bernoulli_table(24)
    for n in (-1, -3, -25):
        for call in (bernoulli, bernoulli_table, stirling1_table):
            with pytest.raises(ValueError):
                call(n)


def test_tables_grow_safely_from_several_threads(monkeypatch):
    # four threads grow both tables from empty at once: each growth is built
    # aside and published with one assignment, so no thread sees a half-built
    # table and none leaves a duplicate row
    want_b, want_s = bernoulli_table(120), stirling1_table(60)
    start = threading.Barrier(4)

    def grow(_):
        start.wait(timeout=60)
        got_s = stirling1_table(60)
        got_b = [bernoulli(n) for n in range(121)]
        return got_b == want_b and got_s == want_s

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(tables_module, "_bernoulli", [])
            monkeypatch.setattr(tables_module, "_stirling1", [[1]])
            with ThreadPoolExecutor(4) as pool:
                assert all(pool.map(grow, range(4), timeout=60))
            assert tables_module._stirling1 == want_s
            assert tables_module._bernoulli[:121] == want_b
    finally:
        sys.setswitchinterval(old)


def test_stirling_triangle_row6():
    assert stirling1_table(6)[6] == [0, -120, 274, -225, 85, -15, 1]


def test_stirling_falling_factorial():
    # sum_k s(n,k) x^k == x(x-1)...(x-n+1) for n <= 20
    for n in range(0, 21):
        poly = [Fraction(1)]
        for i in range(n):
            new = [Fraction(0)] * (len(poly) + 1)
            for j, c in enumerate(poly):
                new[j] += c * (-i)
                new[j + 1] += c
            poly = new
        assert poly == [Fraction(stirling1(n, k)) for k in range(n + 1)]


def test_zeta_exact_values():
    assert zeta_neg_int(0) == Fraction(-1, 2)
    assert zeta_neg_int(1) == Fraction(-1, 12)
    assert zeta_neg_int(2) == 0
    assert zeta_even_rational(2) == Fraction(1, 6)
    assert zeta_even_rational(4) == Fraction(1, 90)


# ---------------------------------------------------------------- series
def test_series_ops_preconditions():
    s = TruncatedSeries([Fraction(1), Fraction(2)], 1)
    with pytest.raises(ValueError):
        s.exp()
    with pytest.raises(ValueError):
        TruncatedSeries([Fraction(0), Fraction(1)], 1).log()
    with pytest.raises(ValueError):
        TruncatedSeries([Fraction(0)], 0).reciprocal()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8),
                min_size=2, max_size=9))
def test_series_log_exp_round_trip(coeffs):
    coeffs[0] = Fraction(0)
    s = TruncatedSeries(coeffs, len(coeffs) - 1)
    assert s.exp().log() == s


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8),
                min_size=1, max_size=9),
       st.integers(min_value=1, max_value=5))
def test_series_reciprocal_round_trip(coeffs, c0):
    coeffs[0] = Fraction(c0)
    s = TruncatedSeries(coeffs, len(coeffs) - 1)
    assert (s * s.reciprocal()).coeffs == [Fraction(1)] + [Fraction(0)] * s.order


# ---------------------------------------------------------------- gamma
def test_log_gamma_special_points():
    assert abs(log_gamma(1, PREC)) < TOL
    with mp.workprec(PREC):
        assert abs(log_gamma(mp.mpf(1) / 2, PREC) - mp.log(mp.sqrt(mp.pi))) < TOL


def test_log_gamma_legendre_series_cross_check():
    # 60-term Legendre series at z = 1+i, with its plain-log part resummed
    # exactly; leftover tail is ~ sum_{k>60} (zeta(k)-1)/k ~ 2^-60
    with mp.workprec(PREC + 40):
        z = mp.mpc(0, 1)  # log Gamma(1+z) at z = i
        series = -mp.euler * z + z - mp.log(1 + z)
        for k in range(2, 61):
            series += (riemann_zeta(k, PREC) - 1) * (-z) ** k / k
        assert abs(log_gamma(mp.mpc(1, 1), PREC) - series) < mp.mpf(2) ** -55


def test_log_gamma_recurrence_property():
    rng = random.Random(1812)
    with mp.workprec(PREC + 20):
        worst = mp.mpf(0)
        for _ in range(1000):
            z = mp.mpc(rng.uniform(0.05, 10), rng.uniform(-10, 10))
            diff = abs(log_gamma(z + 1, PREC) - log_gamma(z, PREC) - mp.log(z))
            worst = max(worst, diff)
        assert worst < mp.mpf(2) ** -(PREC - 24)


def test_log_gamma_reflection_sanity():
    with mp.workprec(PREC + 20):
        for y in (mp.mpf("0.1"), mp.mpf("0.5"), mp.mpf(1), mp.mpf(2), mp.mpf("2.9")):
            lhs = mp.exp(log_gamma(mp.mpc(1, y), PREC) + log_gamma(mp.mpc(1, -y), PREC))
            rhs = mp.pi * y / mp.sinh(mp.pi * y)
            assert abs(lhs - rhs) < mp.mpf(2) ** -(PREC - 24)


def test_log_gamma_pole_rejection():
    with pytest.raises(ValueError):
        log_gamma(0, PREC)
    with pytest.raises(ValueError):
        log_gamma(-3, PREC)


# ---------------------------------------------------------------- incomplete gamma
def test_incomplete_gamma_exponential_case():
    with mp.workprec(PREC):
        assert abs(incomplete_gamma_upper(1, 1, PREC) - mp.exp(-1)) < TOL


def test_incomplete_gamma_small_x_limit():
    with mp.workprec(PREC):
        v = incomplete_gamma_upper(2, mp.mpf(10) ** -30, PREC)
        assert abs(v - 1) < mp.mpf(10) ** -29


def test_incomplete_gamma_quadrature_oracle():
    # adaptive quadrature of the defining integral, 30+ digits
    with mp.workprec(PREC):
        x0 = 2 * mp.pi
        ref = mp.quad(lambda t: t ** 11 * mp.exp(-t), [x0, mp.inf])
        assert abs(incomplete_gamma_upper(12, x0, PREC) - ref) < mp.mpf(10) ** -30


# ---------------------------------------------------------------- zeta
def test_zeta_exact_paths():
    with mp.workprec(PREC):
        assert abs(riemann_zeta(2, PREC) - mp.pi ** 2 / 6) < TOL
        assert abs(riemann_zeta(-1, PREC) + mp.mpf(1) / 12) < TOL
        assert riemann_zeta(-4, PREC) == 0
        assert abs(riemann_zeta(0, PREC) + mp.mpf(1) / 2) < TOL


def test_zeta_three_vs_oracle_50_digits():
    with mp.workprec(PREC):
        assert abs(riemann_zeta(3, PREC) - mp.zeta(3)) < mp.mpf(10) ** -50
        assert str(riemann_zeta(3, PREC))[:9] == "1.2020569"


def test_zeta_continuation_functional_equation():
    # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s), across the
    # critical strip and left of it
    with mp.workprec(PREC + 20):
        for s in (mp.mpf("0.21"), mp.mpf("0.75"), mp.mpc("0.7", "0.3"),
                  mp.mpc(2, 5), mp.mpf("-0.5"), mp.mpf("-2.5")):
            rhs = (2 ** s * mp.pi ** (s - 1) * mp.sin(mp.pi * s / 2) * mp.gamma(1 - s)
                   * riemann_zeta(1 - s, PREC))
            assert abs(riemann_zeta(s, PREC) - rhs) < TOL * max(1, abs(rhs)), s


def test_zeta_on_the_critical_line():
    # zeta(1/2), OEIS A059750; the functional equation is an identity there
    with mp.workprec(PREC + 20):
        want = mp.mpf("-1.460354508809586812889499152515298012467229331013")
        assert abs(riemann_zeta(mp.mpf(1) / 2, PREC) - want) < mp.mpf("1e-48")


def test_zeta_rejections():
    with pytest.raises(ValueError):
        riemann_zeta(1, PREC)
    with pytest.raises(ValueError):
        riemann_zeta(1 + mp.mpf(2) ** -200, PREC)
    with pytest.raises(ValueError):
        riemann_zeta(mp.mpc(1, mp.mpf(2) ** -200), PREC)


def test_power_sum_tails_vs_hurwitz_oracle():
    with mp.workprec(PREC + 20):
        val, bound = power_sum_tails(mp.mpf(2), 1, 0, 7, PREC)[0]
        ref = mp.zeta(2, 7)
        assert abs(val - ref) <= bound + TOL * max(1, abs(ref))
    # the classes 1 mod 3 from 34 and 1 mod 2 from 19, with a few multiples:
    # at j = 1 the rounding of the mp powers, which err leaves to the guard
    # bits, dwarfs err, so only the later multiples see the certificate
    _assert_class_tails_cover_the_error(mp.mpf(3), 4, 1, 3, 11, PREC)
    _assert_class_tails_cover_the_error(mp.mpc(2, 1), 4, 1, 2, 9, PREC)


def _assert_class_tails_cover_the_error(s, J, r, L, N, prec, extra=0):
    # the integer tails before any rounding to an mp number: within err
    # ulps of sum_{i >= N} (Li + r)^-js = L^-js zeta(js, N + r/L) at the
    # truncated s the engine works with, plus the relative rounding of the
    # mp powers that err leaves to the guard bits (2^-wp for each of the at
    # most 10 prime factors of a base, compounded over j multiples: j = 1 of
    # 2N at 256 bits is off by 2.6 x 10^7 ulps, all of it this). The check is
    # absolute at 2^-F, so the reference needs F bits and a margin, whatever
    # the size of the value
    with working(prec, extra):
        wp = mp.mp.prec
        powers = zeta_module._Powers(s, wp + 32)
        tails = zeta_module._class_tails(powers, J, r, L, N)
        s = powers.s
    assert len(tails) == J
    F = powers.F
    with mp.workprec(F + 64):
        for j, (re, im, err) in enumerate(tails, 1):
            ref = mp.zeta(j * s, N + mp.mpf(r) / L) / mp.mpf(L) ** (j * s)
            got = mp.mpc(mp.ldexp(re, -F), mp.ldexp(im, -F))
            assert abs(got - ref) <= mp.ldexp(err, -F) + j * mp.ldexp(abs(ref), 4 - wp), j


def _assert_bounds_cover_the_error(s, J, r, L, N, prec):
    """The tails of the class r mod L from N: for L = 1, power_sum_tails'
    mp values and bounds, rounding to prec bits included; for L > 1, the
    engine's integers at the working precision power_sum_tails would use."""
    if L > 1:
        _assert_class_tails_cover_the_error(s, J, r, L, N, prec)
        return
    tails = power_sum_tails(s, J, r, N, prec)
    assert len(tails) == J
    # mp.zeta(w, a) at complex w is accurate only to ~2^-(wp+15) absolute at
    # wp bits, and the value is ~(N+r)^-Re(w): the reference needs prec +
    # Re(Js) log2(N+r) bits and a margin (at 192 bits it is wrong for j = 20,
    # s = 3+0.8i, N = 33)
    extra = int(J * mp.re(s) * math.log2(N + r))
    with mp.workprec(max(2 * prec, prec + extra) + 64):
        for j, (val, bound) in enumerate(tails, 1):
            ref = mp.zeta(j * s, N + r)
            # the bound leaves out the final rounding to prec bits
            assert abs(val - ref) <= bound + mp.ldexp(abs(ref), 1 - prec), (j, val, ref)


# s = 3 at J = 40 and s = 2+5i at J = 20: the late multiples fall to a few
# correction terms, or none; c0 is the class 0 mod 1 (power_sum_tails at
# c = 0), c1 the class 1 mod 3
@pytest.mark.parametrize("s, J", [(mp.mpf("1.05"), 14), (mp.mpf(3), 6),
                                  (mp.mpc("1.5", "7"), 10), (mp.mpc(2, -30), 8),
                                  (mp.mpf(3), 40), (mp.mpc(2, 5), 20)])
@pytest.mark.parametrize("r, L", [(0, 1), (1, 3)], ids=["c0", "c1"])
@pytest.mark.parametrize("prec", [64, PREC])
def test_power_sum_tails_bounds_cover_the_error(s, J, r, L, prec):
    _assert_bounds_cover_the_error(s, J, r, L, 5, prec)


@pytest.mark.parametrize("r, L", [(0, 1), (1, 2)], ids=["c0", "c1"])
@pytest.mark.parametrize("prec", [64, PREC])
def test_power_sum_tails_bounds_cover_the_error_of_the_2N_product(r, L, prec):
    # the tail classes of 2N at s near 2: J = 28 multiples from N = 33, whose
    # orders fall from ~50 to ~3 at 256 bits
    _assert_bounds_cover_the_error(mp.mpf("2.0037"), 28, r, L, 33, prec)


# the tail classes of the scan workload's Euler products (s, J, r, L, N):
# distinct near s = 2.5 (class 0 mod 1 from N = 65), the classes 1 and 5
# mod 6 of 3N|1+2N, and 2+2N at complex s (class 0 mod 1 from N = 33, its
# members 2i scaled out); at 1024 bits the head-heavy class 1 mod 6 and the
# complex one
_SCAN_SHAPES = [(mp.mpf("2.5"), 23, 0, 1, 65), (mp.mpf("2.2"), 10, 1, 6, 11),
                (mp.mpf("2.2"), 10, 5, 6, 10), (mp.mpc(3, "0.8"), 20, 0, 1, 33)]


@pytest.mark.parametrize("s, J, r, L, N, prec", [
    pytest.param(*shape, prec, id=f"{prec}-s{i}-{shape[1]}-c{i}-{shape[4]}")
    for prec in (64, PREC, 512, 1024) for i, shape in enumerate(_SCAN_SHAPES)
    if prec < 1024 or i in (1, 3)])
def test_power_sum_tails_bounds_cover_the_error_of_scan_shapes(s, J, r, L, N, prec):
    _assert_bounds_cover_the_error(s, J, r, L, N, prec)


@pytest.mark.parametrize("c, N", [(-1, 1), (0, 0), (Fraction(-3, 2), 1), (mp.mpf(1) / 3, 5),
                                  (0.5, 5), (Fraction(1, 3), 5), (True, 1)])
def test_power_sum_tails_enforces_its_domain(c, N):
    # c must be an int >= 0 and N >= 1: c = -1 and N = 0 once divided by
    # zero, c = -3/2 returned a value outside the certificate's assumptions,
    # a rounded c stood for a slightly different sum, and a rational c is a
    # class r mod L, which only the engine itself takes
    with pytest.raises(ValueError, match="non-negative int"):
        power_sum_tails(mp.mpf(2), 3, c, N, 64)


@pytest.mark.parametrize("prec", [64, PREC, 1024])
@pytest.mark.parametrize("s", [mp.mpf("2.2"), mp.mpc(3, "0.8")])
def test_power_table_entries_match_mpmath_powers(mp_powers, s, prec):
    # k^-s for k <= 500 from one table: within 2^(4-wp) relative of mpmath's
    # power, one mp power per prime (95 of them) and none for a composite
    with working(prec):
        wp = mp.mp.prec
        powers = zeta_module._Powers(s, wp + 32)
        got = [powers.value(*powers[k][:2], True) for k in range(1, 501)]
    assert mp_powers[0] == sum(zeta_module._least_prime_factor(k) == k
                               for k in range(2, 501)) == 95
    with mp.workprec(wp + 16):
        for k, v in enumerate(got, 1):
            ref = mp.mpf(k) ** (-s)
            assert abs(v - ref) <= mp.ldexp(abs(ref), 4 - wp), k


def test_power_table_is_lazy(mp_powers):
    # 64 = 2^6 and 2 * 29 need the primes 2 and 29, nothing in between
    with working(PREC):
        powers = zeta_module._Powers(mp.mpf("2.5"), mp.mp.prec + 32)
        powers[64]
        powers[58]
    assert mp_powers[0] == 2 and sorted(powers._entries) == [1, 2, 4, 8, 16, 29, 32, 58, 64]


# class tails as the Euler product asks for them at 256 bits (r, L, N, J):
# 2N's class, the class 1 mod 6 of 3N|1+2N, and 2+2N at complex s
@pytest.mark.parametrize("s, r, L, N, J", [(mp.mpf("2.0037"), 0, 2, 33, 28),
                                           (mp.mpf("2.2"), 1, 6, 11, 25),
                                           (mp.mpc(3, "0.8"), 0, 2, 33, 19)])
def test_class_tails_certificates_cover_the_unrounded_error(s, r, L, N, J):
    # at the Euler product's working precision, prec + 2 GUARD_BITS
    _assert_class_tails_cover_the_error(s, J, r, L, N, PREC, GUARD_BITS)


@pytest.mark.parametrize("s", [mp.mpf("2.2"), mp.mpc(3, "0.8")])
def test_power_sum_tails_same_bits_with_a_cold_ratio_table(monkeypatch, s):
    # the Bernoulli ratio table is built once per working precision; a call
    # that builds it must give the bits of one that finds it built, also
    # after the tables of other precisions exist (the class 1 mod 6 from 11)
    def call(prec=PREC):
        with working(prec):
            return zeta_module._class_tails(zeta_module._Powers(s, mp.mp.prec + 32), 10, 1, 6, 11)

    monkeypatch.setattr(zeta_module, "_BERNOULLI_RATIOS", {})
    cold = call()
    monkeypatch.setattr(zeta_module, "_BERNOULLI_RATIOS", {})
    for prec in (64, 512, 1024):
        call(prec)
    assert len(zeta_module._BERNOULLI_RATIOS) == 3
    assert call() == cold
    assert call() == cold


def test_bernoulli_ratios_from_tangent_numbers_match_bernfrac(monkeypatch):
    # the ratios, read from a cold Bernoulli table, against ratios of mpmath's
    # exact Bernoulli numbers
    monkeypatch.setattr(zeta_module, "_BERNOULLI_RATIOS", {})
    monkeypatch.setattr(tables_module, "_bernoulli", [])
    F = 200
    B = [Fraction(*mp.bernfrac(n)) for n in range(83)]
    want = [math.floor(B[2 * v + 2] / (B[2 * v] * (2 * v + 1) * (2 * v + 2)) * 2 ** F)
            for v in range(1, 41)]
    assert zeta_module._bernoulli_ratios(40, F) == want


def test_bernoulli_ratio_table_is_not_built_at_import():
    code = ("import partizeta.cli\n"
            "from partizeta.numerics import tables, zeta\n"
            "assert zeta._BERNOULLI_RATIOS == {}, zeta._BERNOULLI_RATIOS.keys()\n"
            "assert tables._bernoulli == [], len(tables._bernoulli)\n")
    src = pathlib.Path(partizeta.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr


def test_one_exact_bernoulli_source():
    # the exact Bernoulli numbers come only from the tangent recurrence in
    # numerics/tables.py, which needs no mpmath; bernfrac is a test oracle
    src = pathlib.Path(partizeta.__file__).parent
    texts = {path.relative_to(src).as_posix(): path.read_text()
             for path in sorted(src.rglob("*.py"))}
    assert [name for name, text in texts.items() if "bernfrac" in text] == []
    recurrence = re.compile(r"\btangent\b|\(j - k \+ 2\)", re.IGNORECASE)
    assert [name for name, text in texts.items() if recurrence.search(text)] == [
        "numerics/tables.py"]
    assert "mpmath" not in texts["numerics/tables.py"]


def test_euler_generating_function_small_orders():
    # t^2 coefficient 1/12 = -zeta(-1); t^3 coefficient 0 = -zeta(-2)/2!
    assert euler_bernoulli_genfunc_check(3)
    assert euler_bernoulli_genfunc_check(4)
    assert euler_bernoulli_genfunc_check(12)


# ---------------------------------------------------------------- Bell
def test_bell_small_cases():
    assert complete_bell([Fraction(5)]) == 5
    assert complete_bell([Fraction(1), Fraction(1)]) == 2
    assert complete_bell([Fraction(1), Fraction(1), Fraction(1)]) == 5  # Bell number


def test_hessenberg_det_called_only_in_bell():
    # every length-k value goes through numerics.bell; no module keeps its own
    # determinant
    src = pathlib.Path(partizeta.__file__).parent
    callers = sorted(path.relative_to(src).as_posix() for path in src.rglob("*.py")
                     if "hessenberg_det(" in path.read_text())
    assert callers == ["numerics/bell.py"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=1, max_size=7))
def test_bell_routes_agree_exactly(values):
    complete_bell(values)  # raises ArithmeticError on route disagreement


def test_bell_float_domain():
    with mp.workprec(120):
        vals = [mp.mpf("0.5"), mp.mpf("-1.25"), mp.mpf(2)]
        v = complete_bell(vals)
        ref = complete_bell([Fraction(1, 2), Fraction(-5, 4), Fraction(2)])
        assert abs(v - mp.mpf(ref.numerator) / ref.denominator) < mp.mpf(2) ** -80


# ---------------------------------------------------------------- roots
def test_roots_quadratics():
    roots, res = poly_roots([1, 0, 1], prec=PREC)  # z^2 + 1
    with mp.workprec(PREC):
        assert max(min(abs(r - w) for r in roots) for w in (mp.mpc(0, 1), mp.mpc(0, -1))) < TOL
    # (z - 1/2)^2 + 11/4 = z^2 - z + 3
    roots, _ = poly_roots([Fraction(3), Fraction(-1), Fraction(1)], prec=PREC)
    with mp.workprec(PREC):
        want = [mp.mpc(mp.mpf(1) / 2, mp.sqrt(11) / 2), mp.mpc(mp.mpf(1) / 2, -mp.sqrt(11) / 2)]
        assert max(min(abs(r - w) for r in roots) for w in want) < TOL


def test_roots_synthetic_degree8():
    rng = random.Random(7)
    with mp.workprec(2 * PREC):
        true_roots = [mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(8)]
        coeffs = [mp.mpc(1)]
        for r in true_roots:
            nxt = [mp.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= r * c
            coeffs = nxt
    roots, res = poly_roots(coeffs, prec=PREC)
    with mp.workprec(PREC):
        worst = max(min(abs(t - r) for r in roots) for t in true_roots)
        assert worst < mp.mpf(10) ** -30
        norm = max(abs(c) for c in coeffs)
        assert max(res) <= mp.mpf(2) ** -(PREC // 2) * norm


def test_roots_residual_contract_and_order():
    roots1, _ = poly_roots([Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)], prec=128)
    roots2, _ = poly_roots([Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)], prec=128)
    assert [str(r) for r in roots1] == [str(r) for r in roots2]  # deterministic
    with mp.workprec(128):
        for want in (1, 2, 3):
            assert min(abs(r - want) for r in roots1) < mp.mpf(2) ** -100


@pytest.mark.parametrize("coeffs, want", [
    ([2, -3, 0, 1], [-2, 1, 1]),                                        # (z-1)^2 (z+2)
    ([1, 0, 2, 0, 1], [-1j, 1j, -1j, 1j]),                              # (z^2+1)^2
    ([Fraction(-3, 4), Fraction(13, 4), -4, 1], [0.5, 0.5, 3]),         # (z-1/2)^2 (z-3)
])
@pytest.mark.parametrize("prec", [64, 256])
def test_roots_double_roots(coeffs, want, prec):
    roots, res = poly_roots(coeffs, prec=prec)
    bound = mp.ldexp(max(abs(c) for c in coeffs), -(prec // 2))
    assert all(e <= bound for e in res)
    near = mp.ldexp(1, -(prec // 2 - 8))
    for w in want:
        assert sum(abs(z - w) < near for z in roots) == want.count(w)


def test_roots_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(roots_module, "MAX_STEPS", 1)
    with pytest.raises(RootFindingError):
        poly_roots([1, 0, 1], prec=PREC)


@pytest.mark.parametrize("prec", [64, 256])
def test_roots_reject_a_moved_simple_root(monkeypatch, prec):
    # a simple root moved by delta leaves a residual ~ |p'(z)| delta, far above
    # 2^-(prec/2) sum_i |c_i| |z|^i (a double root would leave ~ delta^2)
    found = mp.polyroots

    def moved(*args, **kwargs):
        zs = found(*args, **kwargs)
        zs[0] *= 1 + mp.ldexp(1, -(prec // 4))
        return zs

    monkeypatch.setattr(mp, "polyroots", moved)
    with pytest.raises(RootFindingError):
        poly_roots([-6, 11, -6, 1], prec=prec)


@pytest.mark.parametrize("k, sign, prec", [(20, 1, 64), (22, -1, 64), (30, -1, 64),
                                           (36, 1, 256)])
def test_roots_accept_accurate_roots_of_hk(k, sign, prec):
    # |H(z)| at an accurate root grows like sum_i |c_i| |z|^i, not max|c_i|:
    # a bound scaled by the coefficient sup norm alone rejected these
    H = poly_negate_var(hk_polynomial(k, sign))
    rts, _ = poly_roots(H, prec=prec)
    ords = hk_zero_solver(k, sign, prec=prec)
    with mp.workprec(prec):
        assert max(abs(mp.re(r) - mp.mpf(1) / 2) for r in rts) < mp.ldexp(1, 4 - prec)
        got = sorted((mp.im(r) for r in rts), reverse=True)
        assert max(abs(a - b) / max(1, abs(b)) for a, b in zip(ords, got)) \
            < mp.ldexp(1, 4 - prec)


def test_roots_rejects_constants():
    with pytest.raises(ValueError):
        poly_roots([Fraction(3)], prec=64)


# ---------------------------------------------------------------- precision policy
def test_kernels_are_thread_safe():
    # mpmath's context is process-global; the precision lock keeps each
    # thread's working precision its own
    precs = [128, 512] * 30
    want = {p: closed_form_gamma(1, 3, 4, p) for p in (128, 512)}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda p: closed_form_gamma(1, 3, 4, p), precs, timeout=120))
    finally:
        sys.setswitchinterval(old)
    assert [g == want[p] for g, p in zip(got, precs)] == [True] * len(precs)


def test_workprec_only_in_the_precision_policy():
    # hp.py owns precision; poly_roots keeps its own root-finding precision
    src = pathlib.Path(partizeta.__file__).parent
    sites = {path.relative_to(src).as_posix(): path.read_text().count("with mp.workprec(")
             for path in src.rglob("*.py") if path.name != "hp.py"}
    assert {name: n for name, n in sites.items() if n} == {"numerics/roots.py": 2}


def test_prec_is_the_only_accuracy_setting():
    # a tol, rel_tol or max_iterations parameter would be an accuracy setting
    # beside prec. The two exemptions serve callers in the package that pass
    # different values; finding them also shows the scan reaches methods.
    knobs = {"tol", "rel_tol", "max_iterations"}
    found = set()
    for info in pkgutil.walk_packages(partizeta.__path__, "partizeta."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", getattr(obj, attr)) for attr in dir(obj)
                            if not attr.startswith("_")]
            for qualname, member in members:
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):  # not callable, or built in (exceptions)
                    continue
                found |= {(module.__name__, qualname, p) for p in knobs & set(params)}
    assert found == {("partizeta.modular", "LProfile.validate", "tol"),
                     ("partizeta.numerics.poly", "poly_trim", "rel_tol")}
