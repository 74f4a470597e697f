"""Numeric kernel: tables, series, gamma, zeta, Bell, root finder, and the
precision policy.

The special functions come from mpmath, so what is built on them is tested
by identities and by routes that do not go through them: the log-gamma
ring against the gamma recurrence, reflection and Legendre series,
quadrature for the incomplete gamma, the functional equation for zeta,
mpmath's Hurwitz zeta for the home-grown Euler-Maclaurin tail, and the
residual contract for the roots.
"""

from __future__ import annotations

import ast
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
from oracles import series_log
from partizeta.modular import (
    _gamma_ladder,
    build_delta_profile,
    hk_polynomial,
    hk_zero_solver,
    period_polynomial,
    zeta_polynomial,
)
from partizeta.pzeta import _log_gamma_ring, closed_form_gamma
from partizeta.numerics import roots as roots_module
from partizeta.numerics import tables as tables_module
from partizeta.numerics import zeta as zeta_module
from partizeta.numerics import (
    GUARD_BITS,
    RootFindingError,
    bell_via_determinant,
    bell_via_series,
    bernoulli,
    bernoulli_table,
    euler_bernoulli_genfunc_check,
    guarded,
    poly_eval,
    poly_negate_var,
    poly_roots,
    poly_to_mpc,
    power_sum_tails,
    riemann_zeta,
    stirling1_row,
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
    # every entry to B_600 and a spread up to B_2048, built in ~1.2 s
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
        for call in (bernoulli, bernoulli_table, stirling1_row):
            with pytest.raises(ValueError):
                call(n)


def test_tables_grow_safely_from_several_threads(monkeypatch):
    # four threads grow the Bernoulli table from empty at once: each growth is
    # built aside and published with one assignment, so no thread sees a
    # half-built table and none leaves a duplicate entry
    want_b = bernoulli_table(120)
    start = threading.Barrier(4)

    def grow(_):
        start.wait(timeout=60)
        return [bernoulli(n) for n in range(121)] == want_b

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(tables_module, "_bernoulli", [])
            with ThreadPoolExecutor(4) as pool:
                assert all(pool.map(grow, range(4), timeout=60))
            assert tables_module._bernoulli[:121] == want_b
    finally:
        sys.setswitchinterval(old)


def test_stirling_triangle_row6():
    assert stirling1_row(6) == [0, -120, 274, -225, 85, -15, 1]


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
        assert poly == stirling1_row(n)


def test_zeta_exact_values():
    assert zeta_neg_int(0) == Fraction(-1, 2)
    assert zeta_neg_int(1) == Fraction(-1, 12)
    assert zeta_neg_int(2) == 0
    assert zeta_even_rational(2) == Fraction(1, 6)
    assert zeta_even_rational(4) == Fraction(1, 90)


# ---------------------------------------------------------------- series
@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8),
                min_size=2, max_size=9))
def test_series_log_exp_round_trip(coeffs):
    # bell_via_series reads exp(sum_j c_j x^j), c_j = a_j / j!, at one order:
    # E_n = B_n(a_1..a_n) / n!, and the log oracle gives the c_j back
    coeffs[0] = Fraction(0)
    a = [c * math.factorial(j) for j, c in enumerate(coeffs)][1:]
    E = [bell_via_series(a[:n]) / math.factorial(n) for n in range(len(coeffs))]
    assert series_log(E) == coeffs


# ---------------------------------------------------------------- gamma
# the gamma routes call mpmath's loggamma directly; these hold the log-gamma
# ring and the closed form to identities that do not go through it


def test_log_gamma_special_points():
    # Gamma(1/2) Gamma(3/2) = pi/2, and prod_{k >= 2} (1 - k^-2)^-1 = 2
    with mp.workprec(PREC):
        assert abs(_log_gamma_ring(0, 2, 2) - mp.log(mp.pi / 2)) < TOL
        assert abs(closed_form_gamma(1, 1, 2, PREC) - 2) < TOL


def test_log_gamma_legendre_series_cross_check():
    # log Gamma(1 + z) = -euler z + sum_{k >= 2} zeta(k) (-z)^k / k; over the
    # ring at a = 0 only the powers k = jn survive:
    # sum_r log Gamma(1 - e(r/n)/m) = sum_j zeta(jn) / (j m^jn)
    with mp.workprec(PREC + 20):
        for m, n in ((3, 4), (2, 7), (5, 2)):
            J = PREC // (n * int(math.log2(m))) + 2
            series = mp.fsum(riemann_zeta(j * n, PREC) / (j * mp.mpf(m) ** (j * n))
                             for j in range(1, J + 1))
            assert abs(_log_gamma_ring(0, m, n) - series) < TOL


def test_log_gamma_recurrence_property():
    # log Gamma(2 + z) = log Gamma(1 + z) + log(1 + z): the rings at a + m and
    # a differ by log prod_r ((a + m) - e(r/n))/m = log(((a + m)^n - 1)/m^n)
    with mp.workprec(PREC + 20):
        for a, m, n in ((0, 2, 2), (1, 3, 5), (2, 5, 4), (3, 7, 9), (0, 4, 12)):
            diff = _log_gamma_ring(a + m, m, n) - _log_gamma_ring(a, m, n)
            assert abs(diff - mp.log(mp.mpf((a + m) ** n - 1) / m ** n)) < TOL


def test_log_gamma_reflection_sanity():
    # Gamma(1 + z) Gamma(1 - z) = pi z / sin(pi z): the ring at a = 0, n = 4
    # pairs +-1/m with +-i/m, so prod_k (1 - (mk)^-4)^-1 =
    # (pi/m)^2 / (sin(pi/m) sinh(pi/m))
    with mp.workprec(PREC + 20):
        for m in (2, 3, 5, 8):
            x = mp.pi / m
            want = x * x / (mp.sin(x) * mp.sinh(x))
            assert abs(closed_form_gamma(0, m, 4, PREC) - want) < mp.ldexp(want, 2 - PREC)


# ---------------------------------------------------------------- incomplete gamma
# the upward ladder Gamma(a, x)/x^a, a = 1..11, of the discriminant-form pass
def test_incomplete_gamma_exponential_case():
    # the base Gamma(1, 1) = e^-1, and one step up Gamma(2, 1) = 1 * e^-1 + e^-1
    with mp.workprec(PREC):
        g = _gamma_ladder(mp.mpf(1), mp.exp(-1), 1)
        assert abs(g[0] - mp.exp(-1)) < TOL and abs(g[1] - 2 * mp.exp(-1)) < TOL


def test_incomplete_gamma_small_x_limit():
    with mp.workprec(PREC):
        x = mp.mpf(10) ** -30
        v = _gamma_ladder(x, mp.exp(-x), 1)[1] * x ** 2
        assert abs(v - 1) < mp.mpf(10) ** -29


def test_incomplete_gamma_quadrature_oracle():
    # adaptive quadrature of the defining integral, 30+ digits
    with mp.workprec(PREC):
        x0 = 2 * mp.pi
        ref = mp.quad(lambda t: t ** 11 * mp.exp(-t), [x0, mp.inf])
        v = _gamma_ladder(x0, mp.exp(-x0), 11)[11] * x0 ** 12
        assert abs(v - ref) < mp.mpf(10) ** -30


@pytest.mark.parametrize("n", [1, 7, 40])
def test_incomplete_gamma_ladder_matches_gammainc(n):
    # every rung a = 1..11 against mpmath's own Gamma(a, x) at x = 2 pi n, to
    # a few units in the last place
    with mp.workprec(PREC):
        x = 2 * mp.pi * n
        for a, g in enumerate(_gamma_ladder(x, mp.exp(-x), 10), 1):
            ref = mp.gammainc(a, x) / x ** a
            assert abs(g - ref) <= abs(ref) * TOL


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
        val, bound = power_sum_tails(mp.mpf(2), 1, 7, PREC)[0]
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
    with working(prec + extra):
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
    """The tails of the class r mod L from N: for the class 0 mod 1,
    power_sum_tails' mp values and bounds, rounding to prec bits included;
    for any other, the engine's integers at the working precision
    power_sum_tails would use."""
    if L > 1:
        _assert_class_tails_cover_the_error(s, J, r, L, N, prec)
        return
    assert r == 0
    tails = power_sum_tails(s, J, N, prec)
    assert len(tails) == J
    # the multiples with Re(js) <= 1 are not summed
    assert [j for j, t in enumerate(tails, 1) if t is None] == [
        j for j in range(1, J + 1) if mp.re(j * s) <= 1]
    first = sum(t is None for t in tails) + 1
    # mp.zeta(w, a) at complex w is accurate only to ~2^-(wp+15) absolute at
    # wp bits, and the value is ~N^-Re(w): the reference needs prec +
    # Re(Js) log2(N) bits and a margin (at 192 bits it is wrong for j = 20,
    # s = 3+0.8i, N = 33)
    extra = int(J * mp.re(s) * math.log2(N))
    with mp.workprec(max(2 * prec, prec + extra) + 64):
        for j, (val, bound) in enumerate(tails[first - 1:], first):
            ref = mp.zeta(j * s, N)
            # the bound leaves out the final rounding to prec bits
            assert abs(val - ref) <= bound + mp.ldexp(abs(ref), 1 - prec), (j, val, ref)


# s = 3 at J = 40 and s = 2+5i at J = 20: the late multiples fall to a few
# correction terms, or none; c0 is the class 0 mod 1 (power_sum_tails), c1
# the class 1 mod 3
@pytest.mark.parametrize("s, J", [(mp.mpf("1.05"), 14), (mp.mpf(3), 6),
                                  (mp.mpc("1.5", "7"), 10), (mp.mpc(2, -30), 8),
                                  (mp.mpf(3), 40), (mp.mpc(2, 5), 20)])
@pytest.mark.parametrize("r, L", [(0, 1), (1, 3)], ids=["c0", "c1"])
@pytest.mark.parametrize("prec", [64, PREC])
def test_power_sum_tails_bounds_cover_the_error(s, J, r, L, prec):
    _assert_bounds_cover_the_error(s, J, r, L, 5, prec)


@pytest.mark.parametrize("s, J, N, prec", [(1, 40, 16, 64), (1, 40, 16, PREC), (1, 40, 34, 1024),
                                           (mp.mpc("0.25", 3), 12, 5, PREC)])
def test_power_sum_tails_leave_out_the_multiples_left_of_1(s, J, N, prec):
    # s = 1: the harmonic tail j = 1 is None, and the entries j >= 2 are the
    # zeta tails H(j, N) of the log-gamma expansion; at Re(s) = 1/4 the
    # multiples j <= 4 are None
    _assert_bounds_cover_the_error(s, J, 0, 1, N, prec)


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


def test_power_sum_tails_enforces_its_domain():
    # N >= 1: N = 0 once divided by zero
    with pytest.raises(ValueError, match="N >= 1"):
        power_sum_tails(mp.mpf(2), 3, 0, 64)


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


def test_cli_import_leaves_out_what_no_route_uses():
    # a cold CLI process pays for every module it imports. -S keeps site (and
    # what its .pth files import) out, so sys.modules shows the package's own
    # imports on any host; build_id must be the same in every process
    code = ("import sys\n"
            "import partizeta.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'hashlib', 'random',\n"
            "              'partizeta.acceptance'} & set(sys.modules)))\n"
            "print(partizeta.build_id())\n")
    path = [str(pathlib.Path(partizeta.__file__).parents[1]), str(pathlib.Path(mp.__file__).parents[1])]
    runs = [subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=60)
            for _ in range(2)]
    assert [done.returncode for done in runs] == [0, 0], runs[0].stderr
    (loaded, first), (_, second) = (done.stdout.splitlines() for done in runs)
    assert loaded == "[]"
    assert re.fullmatch("[0-9a-f]{12}", first) and first == second == partizeta.build_id()


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


def test_one_riemann_zeta_caller():
    # every other zeta value in src/ comes from the power-sum engine; the log
    # series over multiples still calls mpmath's zeta below its direct sums
    src = pathlib.Path(partizeta.__file__).parent
    callers = [(path.relative_to(src).as_posix(), fn.name)
               for path in sorted(src.rglob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text())) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "riemann_zeta"]
    assert callers == [("pzeta.py", "log_eval_multiples")]


def test_every_public_name_in_src_has_a_caller_in_src():
    # src/ ships what the CLI, the acceptance criteria and the routes they run
    # reach; reference oracles live in tests/oracles.py. A re-export or an
    # __all__ entry is no use, nor is a reference inside the name's own
    # definition. Public methods of public classes count too. Two library routes are
    # kept without a caller, the log-gamma expansion of the closed form and
    # the Eisenstein coefficients, and LProfile.to_json, which writes the
    # --profile format
    src = pathlib.Path(partizeta.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))]
    defs = [stmt for tree in trees for stmt in tree.body]
    defs += [stmt for cls in defs if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
             for stmt in cls.body]
    public = {stmt.name for stmt in defs
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")}
    used = set()
    for stmt in (stmt for tree in trees for stmt in tree.body):
        names = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    assert sorted(public - used - {"log_eval_general", "eisenstein_coeffs", "to_json"}) == []


def test_every_defaulted_parameter_in_src_is_passed_in_src():
    # a default that no call in src/ overrides is a constant: a call passes
    # it by keyword, by position (a method's self counts as one), or through
    # *args or **kwargs. A call C(...) is a call of C.__init__. Exempt are
    # prec, which every evaluation takes, cli.main's argv, which the console
    # script leaves out, and LProfile.to_json, which writes the --profile format
    src = pathlib.Path(partizeta.__file__).parent
    trees = {path.relative_to(src).as_posix(): ast.parse(path.read_text())
             for path in sorted(src.rglob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    constructors = {id(fn): cls.name for tree in trees.values() for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"}

    def passes(call, fn, index, name):
        called = constructors.get(id(fn), fn.name)
        if getattr(call.func, "id", getattr(call.func, "attr", None)) != called:
            return False
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        shift = int(bool(fn.args.args) and fn.args.args[0].arg in ("self", "cls"))
        return index is not None and (len(call.args) + shift > index
                                      or any(isinstance(a, ast.Starred) for a in call.args))

    unpassed = []
    for path, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "to_json":
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            unpassed += [f"{path}::{fn.name}({name})" for index, name in defaulted
                         if name != "prec" and (path, fn.name, name) != ("cli.py", "main", "argv")
                         and not any(passes(call, fn, index, name) for call in calls)]
    assert unpassed == []


def test_one_work_budget_source():
    # numerics/hp.py holds the one budget constant and builds the one refusal
    # message; every other module prices its work and calls check_work
    src = pathlib.Path(partizeta.__file__).parent
    constant = re.compile(r"[A-Z0-9_]*(BUDGET|WORK)[A-Z0-9_]*|GAMMA_MAX_N|MZV_MAX_TERMS"
                          r"|[A-Z0-9_]*MAX_(ZETA|BERNOULLI)")
    constants, messages = set(), set()
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and constant.fullmatch(node.id):
                constants.add(name)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in docstrings \
                    and re.search("work budget", node.value, re.IGNORECASE):
                messages.add(name)
    assert constants == messages == {"numerics/hp.py"}


def test_euler_generating_function_small_orders(monkeypatch):
    # t^2 coefficient 1/12 = -zeta(-1); t^3 coefficient 0 = -zeta(-2)/2!; the
    # reciprocal recurrence matches every coefficient through t^40
    for T in (3, 4, 12, 40):
        assert euler_bernoulli_genfunc_check(T)
    # one wrong zeta(-n) is caught
    monkeypatch.setattr(zeta_module, "zeta_neg_int", lambda n: zeta_neg_int(n) + (n == 9))
    assert not euler_bernoulli_genfunc_check(12)


# ---------------------------------------------------------------- Bell
def test_bell_small_cases():
    for a, want in (([5], 5), ([1, 1], 2), ([1, 1, 1], 5)):  # B_3(1, 1, 1): a Bell number
        a = [Fraction(v) for v in a]
        assert bell_via_series(a) == bell_via_determinant(a) == want


def test_hessenberg_det_called_only_in_bell():
    # every length-k value goes through numerics.bell; no module keeps its own
    # determinant: numerics/bell.py alone defines one, and none builds an
    # mpmath matrix
    src = pathlib.Path(partizeta.__file__).parent
    builders = {path.relative_to(src).as_posix() for path in src.rglob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and "det" in node.name
                or isinstance(node, ast.Attribute) and node.attr in ("det", "matrix")}
    assert builders == {"numerics/bell.py"}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=1, max_size=7))
def test_bell_routes_agree_exactly(values):
    assert bell_via_series(values) == bell_via_determinant(values)


def test_bell_float_domain():
    # the routes within 2^-(prec/2) of each other, the scale poly_roots checks
    # its residuals against, and both within 2^-80 of the exact value
    with mp.workprec(120):
        vals = [mp.mpf("0.5"), mp.mpf("-1.25"), mp.mpf(2)]
        v, w = bell_via_series(vals), bell_via_determinant(vals)
        assert abs(v - w) <= mp.ldexp(max(abs(v), abs(w)), -60)
        ref = bell_via_series([Fraction(1, 2), Fraction(-5, 4), Fraction(2)])
        assert ref == bell_via_determinant([Fraction(1, 2), Fraction(-5, 4), Fraction(2)])
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


@pytest.mark.parametrize("poly, prec, sweeps", [
    (lambda: poly_negate_var(hk_polynomial(16, 1)), 136, 3),
    (lambda: period_polynomial(build_delta_profile(prec=256), 256), 256, 4),
    (lambda: zeta_polynomial(build_delta_profile(prec=256), 256), 256, 4),
], ids=["H16+", "delta-period", "delta-zeta"])
def test_roots_take_few_mp_sweeps(mp_polyval, poly, prec, sweeps):
    # the float stage hands mp.polyroots seeds good to ~2^-44, so it sweeps
    # once per doubling to its 2^-(prec+24) stop and once more to see it; from
    # its own start it swept 19 times (H_16^+ at 136 bits), 15 and 17 (the
    # period and zeta polynomials of Delta at 256 bits)
    co = poly()
    mp_polyval[0] = 0
    poly_roots(co, prec=prec)
    assert mp_polyval[0] == sweeps * (len(co) - 1)


@pytest.mark.parametrize("e", [-2200, 2200])
def test_roots_outside_the_double_range_start_cold(monkeypatch, e):
    # float(R) of the root radius 2^(e/2) is 0 or inf, so the seeds coincide
    # or are not finite and mp.polyroots runs from its own start. No root is
    # returned that misses the residual contract: at 2^1100 the absolute stop
    # 2^-(prec+24) is out of reach at wp bits, and at 2^-1100 polyroots'
    # cleanup rounds both roots below that stop to 0, where |p(0)| = 2^-2200
    starts = []
    found = mp.polyroots

    def record(*args, **kwargs):
        starts.append(kwargs["roots_init"])
        return found(*args, **kwargs)

    monkeypatch.setattr(mp, "polyroots", record)
    with pytest.raises(RootFindingError):
        poly_roots([-mp.ldexp(1, e), 0, 1], prec=PREC)
    roots, _ = poly_roots([-2, 0, 1], prec=PREC)
    assert starts[0] is None and starts[1] is not None
    with mp.workprec(PREC):
        assert all(abs(abs(z) - mp.sqrt(2)) < mp.ldexp(1, 2 - PREC) for z in roots)


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


def test_guarded_reads_prec_by_position_keyword_and_default():
    # prec comes from the position of the parameter, the keyword or the
    # default; the body runs at prec + GUARD_BITS + extra and the result is
    # rounded to prec
    seen = []

    @guarded(extra=8)
    def third(x, scale: int = 1, prec: int = 80):
        seen.append(mp.mp.prec)
        return (mp.mpf(x) / 3 * scale, [mp.mpf(x) / 7], "label")

    def want(prec):
        with mp.workprec(prec):
            return (mp.mpf(1) / 3, [mp.mpf(1) / 7], "label")

    assert third(1, 1, 100) == want(100)
    assert third(1, prec=120) == want(120)
    assert third(1, scale=1) == want(80)
    assert third(1) == want(80)
    assert seen == [148, 168, 128, 128]
    # prec with no default (poly_to_mpc) is read by position or keyword
    coeffs = [Fraction(1, 3), Fraction(2, 7)]
    with mp.workprec(70):
        rounded = [mp.mpf(1) / 3, mp.mpf(2) / 7]
    assert poly_to_mpc(coeffs, 70) == poly_to_mpc(coeffs, prec=70) == rounded
    with pytest.raises(TypeError):
        poly_to_mpc(coeffs)


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
