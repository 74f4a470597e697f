"""Modular-form side: tau recursion, completed values, period/zeta
polynomials, binomial-transform polynomials, the Ehrhart count against a
box-scan oracle."""

from __future__ import annotations

import itertools
import json
import math
import random
import types
from fractions import Fraction

import mpmath as mp
import pytest

from oracles import (
    convergence_experiment,
    hecke_failures,
    lambda_delta,
    universal_F,
    weight4_inequality_check,
    zeta_polynomial_from_moments,
)
from partizeta import modular
from partizeta.modular import (
    LProfile,
    build_delta_profile,
    ehrhart_simplex_count,
    eisenstein_coeffs,
    functional_eq_check,
    generating_check,
    hausdorff_distance,
    hk_polynomial,
    hk_zero_solver,
    period_polynomial,
    rh_check,
    rv_transform,
    tau_eta_oracle,
    tau_recursive,
    zeta_polynomial,
)
from partizeta.numerics import falling_poly, poly_eval, poly_negate_var, poly_roots, poly_to_mpc

PREC = 256


@pytest.fixture(scope="module")
def delta():
    return build_delta_profile(prec=PREC)


# ---------------------------------------------------------------- universal F
def test_universal_F_displayed_cases():
    F1 = universal_F(1)
    assert F1.linear_coeff == -2 and F1.monomials == ()
    F2 = universal_F(2)
    assert F2.linear_coeff == -3
    assert set(F2.monomials) == {(Fraction(1, 2), ((1, 2),))}
    F3 = universal_F(3)
    assert F3.linear_coeff == Fraction(-8, 3)
    assert set(F3.monomials) == {(Fraction(-1, 3), ((1, 3),)),
                                 (Fraction(1), ((2, 1), (1, 1)))}
    F4 = universal_F(4)
    assert F4.linear_coeff == Fraction(-7, 2)
    assert set(F4.monomials) == {(Fraction(1, 4), ((1, 4),)),
                                 (Fraction(-1), ((2, 1), (1, 2))),
                                 (Fraction(1, 2), ((2, 2),)),
                                 (Fraction(1), ((3, 1), (1, 1)))}


def test_universal_F_structural_eval_matches_recursion():
    tau = tau_recursive(20)
    for n in range(1, 19):
        F = universal_F(n)
        higher = {i: Fraction(tau[i]) for i in range(1, n)}  # x_{i+1} = tau(i+1)
        assert F.evaluate(Fraction(12), higher) == tau[n], n


def test_tau_values_and_oracle():
    tau = tau_recursive(100)
    assert tau[0] == 1 and tau[1] == -24 and tau[2] == 252
    assert tau == tau_eta_oracle(100)


def test_tau_routes_satisfy_the_hecke_relations():
    assert hecke_failures(tau_recursive(300)) == []
    assert hecke_failures(tau_eta_oracle(300)) == []
    # one wrong value breaks a relation the oracle watches
    assert hecke_failures([1, -24, 252, -1472, 4830, -6049]) == [(2, 3)]


def test_tau_recursive_refuses_a_non_integer_step(monkeypatch):
    # 24 (sigma(5) + 1) is not 24 sigma(5) mod 5, so tau(6) gets a remainder
    sigma = modular.sigma_power
    monkeypatch.setattr(modular, "sigma_power", lambda n, p: sigma(n, p) + (n == 5))
    assert tau_recursive(5) == tau_eta_oracle(5)
    with pytest.raises(ArithmeticError, match="tau\\(6\\) came out non-integer"):
        tau_recursive(6)


def test_eta_oracle_head():
    got = tau_eta_oracle(3)
    assert got == [1, -24, 252]


def test_eisenstein_coefficients():
    e2 = eisenstein_coeffs(2, 3)
    assert e2[0] == 1 and e2[1] == -24
    e4 = eisenstein_coeffs(4, 2)
    assert e4[1] == 240
    assert eisenstein_coeffs(8, 1)[0] == 1


# ---------------------------------------------------------------- Lambda(Delta)
def test_lambda_delta_functional_equation(delta):
    with mp.workprec(PREC):
        for j in range(1, 6):
            assert abs(delta.lam[j - 1] - delta.lam[11 - j]) < mp.mpf(2) ** -200


def test_lambda_delta_fixed_point_self_consistent():
    with mp.workprec(PREC):
        v1 = lambda_delta(6, prec=PREC)
        v2 = lambda_delta(6, prec=PREC)
        assert v1 == v2
        assert v1 > 0


def test_lambda_delta_meets_its_target_at_high_precision():
    # ~prec ln 2/(2 pi) = 221 terms at 2000 bits: the term count follows the target
    v = lambda_delta(6, prec=2000)
    w = lambda_delta(6, prec=2064)
    with mp.workprec(2100):
        assert abs(v - w) < mp.ldexp(1, 10 - 2000) / 100


@pytest.mark.parametrize("s", [1, 6])
@pytest.mark.parametrize("prec", [64, 128, 256, 512, 1024])
def test_lambda_delta_precision_sweep(s, prec):
    # within its stated target, 2^(10-prec), of the same call at 2 prec + 64
    v = lambda_delta(s, prec=prec)
    ref = lambda_delta(s, prec=2 * prec + 64)
    with mp.workprec(2 * prec + 64):
        assert abs(v - ref) <= mp.ldexp(1, 10 - prec)


def _two_gammainc_reference(prec):
    """Lambda(1..11) at prec + 32 bits by the split-integral series
    with two mp.gammainc calls per term (no ladder), tau from the recursion;
    the terms run while e^{-2 pi n} (2 pi n)^11 n^7 > 2^-(prec + 40)."""
    with mp.workprec(prec + 32):
        eps = mp.ldexp(1, -(prec + 40))
        nmax = 1
        while mp.exp(-2 * mp.pi * nmax) * (2 * mp.pi * nmax) ** 11 * nmax ** 7 > eps:
            nmax += 1
        tau = tau_recursive(nmax)
        out = []
        for s in range(1, 12):
            total = mp.mpf(0)
            for n in range(1, nmax + 1):
                x = 2 * mp.pi * n
                total += tau[n - 1] * (mp.gammainc(s, x) / x ** s
                                       + mp.gammainc(12 - s, x) / x ** (12 - s))
            out.append(total)
        return out


@pytest.mark.parametrize("prec", [64, 128, 256, 512, 1024])
def test_delta_profile_precision_sweep(prec):
    # all eleven values within 2^(10-prec) of the same profile at 2 prec + 64
    # and of the two-gammainc reference
    lam = build_delta_profile(prec).lam
    high = build_delta_profile(2 * prec + 64).lam
    ref = _two_gammainc_reference(prec)
    with mp.workprec(2 * prec + 64):
        assert max(abs(v - w) for v, w in zip(lam, high)) <= mp.ldexp(1, 10 - prec)
        assert max(abs(v - w) for v, w in zip(lam, ref)) <= mp.ldexp(1, 10 - prec)


@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_delta_profile_price_counts_its_work(monkeypatch, prec):
    # deterministic calibration: one mp.gammainc per term, at x = 2 pi n for
    # n = 1, 2, ..., then ten ladder steps and eleven sums. Each counted
    # operation takes over 1 us (one unit), and the price is at most 16 units
    # per operation up to 1024 bits
    xs, steps, priced = [], [0], []
    gammainc, ladder, check = mp.gammainc, modular._gamma_ladder, modular.check_work

    def counted_gammainc(a, x):
        xs.append(x)
        return gammainc(a, x)

    def counted_ladder(x, ex, n):
        steps[0] += n
        return ladder(x, ex, n)

    def priced_check(units, what):
        priced.append(units)
        check(units, what)

    monkeypatch.setattr(mp, "gammainc", counted_gammainc)
    monkeypatch.setattr(modular, "_gamma_ladder", counted_ladder)
    monkeypatch.setattr(modular, "check_work", priced_check)
    build_delta_profile(prec)
    terms = len(xs)
    with mp.workprec(prec + 64):
        assert [int(mp.nint(x / (2 * mp.pi))) for x in xs] == list(range(1, terms + 1))
    assert steps[0] == 10 * terms
    counted = terms + steps[0] + 11 * terms
    assert len(priced) == 1 and counted <= priced[0] <= 16 * counted


def test_lambda_delta_monotone_chain(delta):
    chain = delta.lam[5:]
    assert all(chain[i] <= chain[i + 1] for i in range(len(chain) - 1))
    assert chain[0] > 0


def test_lambda_delta_exact_period_relations(delta):
    # Manin period relations, exact rationals: the strongest internal check
    # of the completed-value pipeline (any Lambda error breaks them)
    lam = {j: delta.lam[j - 1] for j in range(1, 12)}
    with mp.workprec(PREC):
        tol = mp.mpf(2) ** -180
        assert abs(691 * lam[11] - 1620 * lam[9]) < tol
        assert abs(9 * lam[9] - 14 * lam[7]) < tol
        assert abs(5 * lam[2] - 12 * lam[6]) < tol
        assert abs(4 * lam[4] - 5 * lam[6]) < tol


def test_lambda_delta_decomposition_constants(delta):
    with mp.workprec(PREC):
        assert abs(70 * delta.lam[6] - mp.mpf("0.114379")) < mp.mpf("1e-5")
        assert abs(6 * delta.lam[5] - mp.mpf("0.00926927")) < mp.mpf("1e-5")


# ---------------------------------------------------------------- profiles
def test_lprofile_json_round_trip(delta):
    text = json.dumps(delta.as_dict(50))
    back = LProfile.from_json(text, prec=PREC)
    data = json.loads(text)
    assert all(len(v.strip("-0.")) >= 40 for v in data["lambda"])
    with mp.workprec(PREC):
        assert max(abs(a - b) for a, b in zip(back.lam, delta.lam)) < mp.mpf("1e-45")
    back.validate(tol=1e-20)


def test_lprofile_rejects_chain_violation():
    with mp.workprec(PREC):
        bad = LProfile(weight=4, level=1, sign=1,
                       lam=[mp.mpf(2), mp.mpf(3), mp.mpf(2)], source="bad")
        with pytest.raises(ValueError, match="chain"):
            bad.validate(tol=1e-20)


def test_lprofile_rejects_fe_violation():
    with mp.workprec(PREC):
        bad = LProfile(weight=4, level=1, sign=1,
                       lam=[mp.mpf(1), mp.mpf("0.5"), mp.mpf(2)], source="bad")
        with pytest.raises(ValueError, match="functional"):
            bad.validate(tol=1e-20)


def test_lprofile_validates_at_its_values_own_precision():
    # 2048-bit values that meet the functional equation exactly: at any
    # ambient precision (53 bits here) nothing may round them to less and
    # report a deviation above 2^-1024
    with mp.workprec(2048):
        upper = [mp.mpf(j) + mp.sqrt(j) / 7 for j in range(6, 12)]
    lam = upper[:0:-1] + upper
    prof = LProfile(weight=12, level=1, sign=1, lam=lam, source="exact")
    prof.validate(tol=mp.ldexp(1, -1024))
    with mp.workprec(2048):
        bad = LProfile(weight=12, level=1, sign=1, lam=[lam[0] + mp.ldexp(1, -1000), *lam[1:]])
    with pytest.raises(ValueError, match="functional"):
        bad.validate(tol=mp.ldexp(1, -1024))


def _synthetic_minus(k: int, lam_pairs):
    # lam_pairs: values for Lambda(k/2+1 .. k-1); FE fills the lower half
    with mp.workprec(PREC):
        lam = [mp.mpf(0)] * (k - 1)
        for i, v in enumerate(lam_pairs, start=1):
            lam[k // 2 - 1 + i] = mp.mpf(v)
            lam[k // 2 - 1 - i] = -mp.mpf(v)
        return LProfile(weight=k, level=37, sign=-1, lam=lam, source="synthetic")


def test_period_polynomial_sign_minus_simple_zero_at_one():
    prof = _synthetic_minus(6, ["0.4", "1.0"])
    with mp.workprec(PREC):
        R = period_polynomial(prof, PREC)
        at1 = poly_eval(R, mp.mpf(1))
        d_at1 = poly_eval([i * c for i, c in enumerate(R)][1:], mp.mpf(1))
        assert abs(at1) < mp.mpf(2) ** -200
        assert abs(d_at1) > mp.mpf("0.1")


# ---------------------------------------------------------------- moments / Z
def test_zeta_polynomial_leading_coefficient_is_plain_sum(delta):
    # c_{k-2} = M_f(0) = sum_j C(k-2, j) Lambda(j+1)/(k-2)!
    with mp.workprec(PREC):
        direct = sum(math.comb(10, j) * delta.lam[j] for j in range(11)) / mp.factorial(10)
        assert abs(zeta_polynomial(delta, PREC)[10] - direct) < mp.mpf(2) ** -200


def test_zeta_polynomial_agrees_with_the_moments_form():
    # the displayed form, moments from raw L-values through the Stirling sum,
    # at 40 guard bits: each coefficient within 2^(4-prec) relative
    for prec in (64, 256, 1024):
        prof = build_delta_profile(prec)
        Z = zeta_polynomial(prof, prec)
        ref = zeta_polynomial_from_moments(prof, prec + 40)
        with mp.workprec(prec + 40):
            for h, (a, b) in enumerate(zip(Z, ref)):
                assert abs(a - b) <= mp.ldexp(abs(b), 4 - prec), (prec, h)


def _tent_profile(k):
    # Lambda(j+1) = |k/2 - 1 - j| + 1: symmetric, rising from Lambda(k/2) = 1
    lam = [mp.mpf(abs(k // 2 - 1 - j) + 1) for j in range(k - 1)]
    return LProfile(weight=k, level=1, sign=1, lam=lam, source="tent")


@pytest.mark.parametrize("prec", [64, 256])
@pytest.mark.parametrize("k", [26, 40, 60])
def test_zeta_polynomial_keeps_its_precision_at_large_weight(k, prec):
    # Z(0) = Lambda(k-1): no cancellation between moments eats the bits
    prof = _tent_profile(k)
    prof.validate()
    Z = zeta_polynomial(prof, prec)
    with mp.workprec(prec):
        assert abs(Z[0] - prof.lam[k - 2]) <= mp.ldexp(prof.lam[k - 2], 4 - prec)


def test_zeta_weights_are_taylor_coefficients_of_the_falling_factorial():
    # P_h(j) = [y^h] (j + y)_(k-2), the h-th Taylor coefficient of the falling
    # factorial (x)_(k-2) at x = j, so W_hj = C(k-2, j) falling_poly(j, k-2)[h]
    for k in range(2, 61):
        W = modular._zeta_weights(k)
        for j in range(k - 1):
            row = falling_poly(j, k - 2)
            assert [W[h][j] for h in range(k - 1)] == [math.comb(k - 2, j) * c for c in row], k


def test_moments_central_term_vanishes_for_sign_minus():
    prof = _synthetic_minus(6, ["0.4", "1.0"])
    assert prof.lam[2] == 0  # Lambda(k/2) = 0 kills the j = k/2-1 term


def test_zeta_polynomial_delta_coefficients(delta):
    Z = zeta_polynomial(delta, PREC)
    with mp.workprec(PREC):
        assert abs(Z[10] / mp.mpf("5.11e-7") - 1) < mp.mpf("0.01")
        assert abs(Z[0] / mp.mpf("0.00596") - 1) < mp.mpf("0.01")
        # constant term is Lambda(k-1) = R(0) = Z(0)
        assert abs(Z[0] - delta.lam[10]) < mp.mpf(2) ** -200


def test_zeta_polynomial_weight4_minus_single_root():
    with mp.workprec(PREC):
        prof = LProfile(weight=4, level=11, sign=-1,
                        lam=[mp.mpf(-1), mp.mpf(0), mp.mpf(1)], source="synthetic")
        Z = zeta_polynomial(prof, PREC)
        roots, dev = rh_check(Z, PREC)
        assert len(roots) == 1
        assert abs(roots[0] - mp.mpf(1) / 2) < mp.mpf(2) ** -200
        # Z(s) = 1 - 2s for this profile
        assert abs(Z[0] - 1) < mp.mpf(2) ** -200
        assert abs(Z[1] + 2) < mp.mpf(2) ** -200
        assert Z[-1] == 0  # by the functional equation, exactly


@pytest.mark.parametrize("k", [4, 6, 12, 26, 40])
def test_zeta_polynomial_degree_is_the_functional_equations(k):
    # sign +1: c_{k-2} = sum_j C(k-2, j) Lambda(j+1)/(k-2)! > 0. sign -1:
    # c_{k-2} = 0 exactly, also where the data keep the functional equation
    # only to rounding, and c_{k-3} = (-1)^(k-3) (k-2)/(k-2)!
    # sum_{j > (k-2)/2} C(k-2, j) (2j - k + 2) Lambda(j+1), nonzero
    rng = random.Random(k)
    upper = sorted(mp.mpf(rng.random()) for _ in range(k // 2 - 1))
    f = math.factorial(k - 2)
    with mp.workprec(PREC):
        plus = LProfile(weight=k, level=1, sign=1, source="synthetic",
                        lam=upper[::-1] + [upper[0] / 2] + upper)
        plus.validate()
        Z = zeta_polynomial(plus, PREC)
        top = mp.fsum(math.comb(k - 2, j) * v for j, v in enumerate(plus.lam)) / f
        assert len(Z) == k - 1 and Z[-1] > 0
        assert abs(Z[-1] - top) <= mp.ldexp(top, -PREC + 8)
        minus = _synthetic_minus(k, upper)
        minus.lam[0] += mp.ldexp(1, -200)  # Lambda(1) + Lambda(k-1) = 2^-200
        minus.validate()
        Z = zeta_polynomial(minus, PREC)
        sub = (-1) ** (k - 3) * (k - 2) * mp.fsum(
            math.comb(k - 2, j) * (2 * j - k + 2) * minus.lam[j]
            for j in range(k // 2, k - 1)) / f
        assert len(Z) == k - 1 and Z[-1] == 0 and sub != 0
        assert abs(Z[-2] - sub) <= mp.ldexp(abs(sub), -150)
        roots, _ = rh_check(Z, PREC)
        assert len(roots) == k - 3


def test_functional_eq_controls():
    with mp.workprec(PREC):
        Z = [mp.mpf(0), mp.mpf(1), mp.mpf(-1)]
        assert functional_eq_check(Z, 1, PREC) == 0  # s(1-s) is symmetric
        assert functional_eq_check([mp.mpf(0), mp.mpf(1)], 1, PREC) > 1  # s vs 1-s
        assert poly_eval(Z, mp.mpf("0.5")) == mp.mpf("0.25")


def test_rh_check_negative_control():
    with mp.workprec(PREC):
        Z = [mp.mpf("0.2"), mp.mpf("-0.9"), mp.mpf(1)]  # (s-1/2)(s-0.4)
        roots, dev = rh_check(Z, PREC)
        assert abs(dev - mp.mpf("0.1")) < mp.mpf("1e-30")


def test_generating_identity_unrolled_and_scaling(delta):
    with mp.workprec(PREC):
        # n = 0 term: R(0) = Lambda(k-1) = Z(0)
        Z = zeta_polynomial(delta, PREC)
        R = period_polynomial(delta, PREC)
        assert abs(R[0] - poly_eval(Z, mp.mpf(0))) < mp.mpf(2) ** -200
    m128 = generating_check(delta, 12, 128)
    m256 = generating_check(delta, 12, PREC)
    with mp.workprec(PREC):
        assert m256 < mp.mpf("1e-20") and m128 < mp.mpf("1e-20")
        assert m256 < m128  # halving precision roughly squares the mismatch
        assert m256 < m128 ** mp.mpf("1.5")


# ---------------------------------------------------------------- R_Delta roots
def test_period_polynomial_delta_root_geometry(delta):
    R = period_polynomial(delta, PREC)
    roots, _ = poly_roots(R, prec=PREC)
    with mp.workprec(PREC):
        assert len(roots) == 10
        assert max(abs(abs(r) - 1) for r in roots) < mp.mpf("1e-50")
        # verified 5-decimal root set (high-precision, two independent stacks)
        want = [(0.0, 1.0), (-0.46536, 0.88512), (-0.74422, 0.66793),
                (-0.91116, 0.41204), (-0.99029, 0.13902)]
        for (x, y) in want:
            d = min(max(abs(mp.re(r) - x), abs(mp.im(r) - y)) for r in roots)
            assert d < mp.mpf("1e-4"), (x, y)


def test_published_root_table_misprint_is_sources_own_rounding(delta):
    """The published 3-decimal table came from 6-digit constants; with those
    constants the ordinate is 0.4113 (prints 0.411), with exact constants it
    is 0.41204. Both facts verified here; see the decisions ledger."""
    with mp.workprec(PREC):
        even = [mp.mpf(36) / 691, 0, 1, 0, 3, 0, 3, 0, 1, 0, mp.mpf(36) / 691]
        odd = [0, 4, 0, 25, 0, 42, 0, 25, 0, 4, 0]
        rounded = [mp.mpf("0.114379") * e + mp.mpf("0.00926927") * o
                   for e, o in zip(even, odd)]
        r1, _ = poly_roots(rounded, prec=PREC)
        table = [(0.0, 1.0), (-0.465, 0.885), (-0.744, 0.668),
                 (-0.911, 0.411), (-0.990, 0.140)]
        for (x, y) in table:
            d = min(max(abs(mp.re(r) - x), abs(mp.im(r) - y)) for r in r1)
            assert d < mp.mpf("6e-4"), (x, y)
        # exact constants (our Lambda values) move the unstable ordinate past 1e-3
        exact = [70 * delta.lam[6] * e + 6 * delta.lam[5] * o
                 for e, o in zip(even, odd)]
        r2, _ = poly_roots(exact, prec=PREC)
        d_411 = min(abs(mp.im(r) - mp.mpf("0.411")) for r in r2 if mp.im(r) > 0.3 and mp.im(r) < 0.5)
        assert mp.mpf("1e-3") < d_411 < mp.mpf("1.1e-3")


# ---------------------------------------------------------------- RV transform / H_k
def test_rv_transform_examples():
    H = rv_transform([Fraction(1)] * 4)
    assert H == [Fraction(1), Fraction(7, 3), Fraction(1), Fraction(2, 3)]
    # int inputs give Fractions too
    assert [type(h) for h in rv_transform([1] * 4)] == [Fraction] * 4
    assert rv_transform([1] * 4) == H
    assert rv_transform([Fraction(1)]) == [Fraction(1)]
    assert rv_transform([Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1)]) \
        == hk_polynomial(6, 1)
    with pytest.raises(ValueError):
        rv_transform([Fraction(1), Fraction(-1)])  # U(1) = 0


def test_falling_poly_at_integers_is_a_scaled_binomial():
    # e! C(n, e) at n = s + shift, and (-1)^e e! C(e - n - 1, e) below 0
    for e in range(9):
        for shift in range(-6, 7):
            row = falling_poly(shift, e)
            assert len(row) == e + 1 and row[-1] == 1
            for s in range(-8, 15):
                n = s + shift
                want = math.comb(n, e) if n >= 0 else (-1) ** e * math.comb(e - n - 1, e)
                assert poly_eval(row, s) == math.factorial(e) * want, (shift, e, s)


@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_rv_transform_of_mpf_copies_is_within_the_precision(prec):
    # each coefficient within 2^(4-prec) of the exact one, relative to the
    # sum of the absolute terms u_j b/e! that make it up
    rng = random.Random(prec)
    for _ in range(40):
        e = rng.randint(0, 8)  # e + 4 roundings at most, within 2^4
        U = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(e)]
        U.append(Fraction(rng.randint(1, 99), rng.randint(1, 99)))
        if sum(U) == 0:
            U[0] += 1
        exact = rv_transform(U)
        scale = [sum(abs(u * b) for u, b in zip(U, col)) / math.factorial(e)
                 for col in zip(*(falling_poly(e - j, e) for j in range(e + 1)))]
        with mp.workprec(prec):
            got = rv_transform([mp.mpf(u.numerator) / u.denominator for u in U])
            assert all(isinstance(g, mp.mpf) for g in got)
        with mp.workprec(prec + 64):
            for g, x, sc in zip(got, exact, scale):
                assert abs(g - mp.mpf(x.numerator) / x.denominator) \
                    <= mp.ldexp(mp.mpf(sc.numerator) / sc.denominator, 4 - prec)


def test_rv_transform_evaluates_series_coefficients():
    # H(n) = [z^n] U(z)/(1-z)^{e+1}
    U = [Fraction(2), Fraction(-1), Fraction(3)]
    H = rv_transform(U)
    e = 2
    for n in range(0, 8):
        coeff = sum(U[j] * math.comb(n - j + e, e) for j in range(min(n, e) + 1))
        assert poly_eval(H, Fraction(n)) == coeff


def test_rv_transform_unit_circle_to_critical_line():
    # 50 random self-inversive U with roots on the unit circle, U(1) != 0
    rng = random.Random(50)
    with mp.workprec(PREC):
        for trial in range(50):
            deg_pairs = rng.randint(1, 3)
            coeffs = [mp.mpf(1)]
            for _ in range(deg_pairs):
                theta = rng.uniform(0.1, 3.04)
                # (z - e^{i t})(z - e^{-i t}) = z^2 - 2 cos t z + 1
                quad = [mp.mpf(1), -2 * mp.cos(mp.mpf(theta)), mp.mpf(1)]
                nxt = [mp.mpf(0)] * (len(coeffs) + 2)
                for i, c in enumerate(coeffs):
                    for j, q in enumerate(quad):
                        nxt[i + j] += c * q
                coeffs = nxt
            if rng.random() < 0.5:
                coeffs = [a + b for a, b in zip(coeffs + [mp.mpf(0)], [mp.mpf(0)] + coeffs)]
            H = rv_transform(coeffs)
            roots, _ = poly_roots(poly_negate_var(H), prec=PREC)
            dev = max(abs(mp.re(r) - mp.mpf(1) / 2) for r in roots)
            assert dev < mp.mpf("1e-20"), trial


def test_hk_polynomial_structure():
    H6m = hk_polynomial(6, -1)
    assert H6m == [Fraction(1), Fraction(7, 3), Fraction(1), Fraction(2, 3)]
    assert len(hk_polynomial(8, 1)) == 7   # degree k-2
    assert len(hk_polynomial(8, -1)) == 6  # degree k-3


@pytest.mark.parametrize("sign", (-1, 1))
def test_hk_roots_ascend_in_im_along_the_critical_line(sign):
    # all roots share Re = 1/2, so the order must come from Im alone, not
    # from last-bit noise in Re: each conjugate pair lists its lower root first
    rts, _ = poly_roots(poly_to_mpc(poly_negate_var(hk_polynomial(14, sign)), PREC + 40),
                        prec=PREC)
    assert len(rts) == (11 if sign == -1 else 12)
    assert max(abs(mp.re(r) - mp.mpf(1) / 2) for r in rts) < mp.mpf(2) ** -100
    ims = [mp.im(r) for r in rts]
    assert ims == sorted(ims) and len(set(ims)) == len(ims)


def test_hk_zero_solver_counts_and_matching():
    with mp.workprec(PREC):
        for k in (6, 8):
            for sign in (-1, 1):
                ords = hk_zero_solver(k, sign, prec=PREC)
                assert len(ords) == (k - 3 if sign == -1 else k - 2)
                rts, _ = poly_roots(poly_to_mpc(poly_negate_var(hk_polynomial(k, sign)),
                                                PREC + 40), prec=PREC)
                got = sorted(mp.im(r) for r in rts)
                assert max(abs(a - b) for a, b in zip(sorted(ords), got)) < mp.mpf("1e-20")


@pytest.mark.parametrize("prec", [64, 136])
def test_hk_zero_solver_full_precision(prec):
    # every ordinate to prec bits, against the polynomial's roots at 2 prec + 64
    for k in (6, 12, 20):
        for sign in (-1, 1):
            ords = hk_zero_solver(k, sign, prec=prec)
            rts, _ = poly_roots(poly_negate_var(hk_polynomial(k, sign)), prec=2 * prec + 64)
            want = sorted((mp.im(r) for r in rts), reverse=True)
            assert len(ords) == len(want)
            with mp.workprec(2 * prec + 64):
                assert all(abs(t - w) <= mp.ldexp(max(1, abs(w)), 1 - prec)
                           for t, w in zip(ords, want))


@pytest.mark.parametrize("k, prec", [(k, prec) for k in (6, 12, 20)
                                     for prec in (64, 128, 256, 512, 1024)
                                     if k <= 12 or prec < 1024])
def test_hk_zero_solver_precision_sweep(k, prec):
    # within its stated target, 2^(1-prec) max(1, |t|), of the same call at
    # 2 prec + 64; the worst ordinate measured is within 2^(-0.1-prec) max(1, |t|)
    for sign in (-1, 1):
        ords = hk_zero_solver(k, sign, prec=prec)
        ref = hk_zero_solver(k, sign, prec=2 * prec + 64)
        with mp.workprec(2 * prec + 64):
            assert all(abs(t - r) <= mp.ldexp(max(1, abs(r)), 1 - prec)
                       for t, r in zip(ords, ref, strict=True))


@pytest.mark.parametrize("sign", [0, 2])
def test_hk_zero_solver_rejects_other_signs(sign, monkeypatch):
    # refused before any root search, as hk_polynomial refuses it
    monkeypatch.setattr(mp, "findroot", None)
    with pytest.raises(ValueError, match="sign"):
        hk_zero_solver(6, sign, prec=PREC)
    with pytest.raises(ValueError, match="sign"):
        hk_polynomial(6, sign)


@pytest.mark.parametrize("k, sign, prec", [(14, -1, 152), (16, 1, 136), (16, -1, 144)])
def test_hk_zero_solver_evaluations(mp_atan, k, sign, prec):
    # each h evaluation is k - 2 mp.atan calls. A target costs 9: two at the
    # ends of the bracket t0 -+ 2^-36 max(1, |t0|) round the float crossing
    # t0, seven in the Anderson findroot from it (three of them at its ends).
    # From (-tmax, tmax) it cost 16.1, 16.5 and 16.1 a target. H_14^-'s odd
    # count has the ordinate t = 0, whose bracket is 2^-36 wide all the same.
    ords = hk_zero_solver(k, sign, prec=prec)
    assert mp_atan[0] == 9 * (k - 2) * len(ords)


@pytest.mark.parametrize("bias", [2.0 ** -30, None], ids=["widened", "from-tmax"])
def test_hk_zero_solver_widens_a_bracket_that_misses(monkeypatch, mp_atan, bias):
    # a float stage that misses the crossing: its bracket is widened x 2^10
    # until its ends straddle the crossing at the working precision, or the
    # search starts from (-tmax, tmax); either way the ordinates stay the same
    want = hk_zero_solver(14, -1, prec=152)
    mp_atan[0] = 0
    atan = math.atan
    # modular's own math module only: mpmath's atan starts from math.atan
    monkeypatch.setattr(modular, "math", types.SimpleNamespace(
        **{**vars(math), "atan": lambda x: 0.0 if bias is None else atan(x) + bias}))
    got = hk_zero_solver(14, -1, prec=152)
    assert mp_atan[0] > 9 * (14 - 2) * len(got)
    with mp.workprec(152):
        assert all(abs(t - w) <= mp.ldexp(max(1, abs(w)), -151)
                   for t, w in zip(got, want, strict=True))


def test_roots_price_a_cold_start_before_it(mp_polyval):
    # a synthetic weight-48 profile, Lambda = 24, ..., 2, 1, 2, ..., 24. The
    # float stage settles its zeta polynomial, so mp.polyroots runs seeded at
    # the price of a few sweeps; it does not settle its period polynomial, so
    # mp.polyroots would start cold (~n + 10 sweeps), and that price is
    # refused before any mp sweep
    upper = list(range(1, 25))
    prof = LProfile(48, 1, 1, [mp.mpf(v) for v in upper[:0:-1] + upper])
    poly_roots(zeta_polynomial(prof, PREC), prec=PREC)
    assert mp_polyval[0] == 4 * 46
    with pytest.raises(ArithmeticError, match="work budget"):
        poly_roots(period_polynomial(prof, PREC), prec=PREC)
    assert mp_polyval[0] == 4 * 46


def test_hk_solver_weight6_explicit_roots():
    with mp.workprec(PREC):
        ords = sorted(hk_zero_solver(6, -1, prec=PREC))
        want = sorted([-mp.sqrt(11) / 2, mp.mpf(0), mp.sqrt(11) / 2])
        assert max(abs(a - b) for a, b in zip(ords, want)) < mp.mpf("1e-35")
        # largest ordinate vs (k-3)(k-1)/(2 pi): same order of magnitude
        assert abs(max(ords) - 15 / (2 * mp.pi)) < 1


# ---------------------------------------------------------------- Ehrhart
def box_scan_count(k, m):
    """Brute-force oracle: scan the (2m+1)^(k-3) box for members x, those with
    r = m - sum x >= 0 and (k-2) x_i + r >= 0 for every i."""
    count = 0
    for x in itertools.product(range(-m, m + 1), repeat=k - 3):
        r = m - sum(x)
        if r >= 0 and (k - 2) * min(x) + r >= 0:
            count += 1
    return count


def test_ehrhart_counts_match_polynomial():
    assert ehrhart_simplex_count(6, 0) == 1
    assert ehrhart_simplex_count(6, 1) == 5
    assert ehrhart_simplex_count(6, 4) == 69
    # the paper's Ehrhart identity, far past the box scan's reach
    for k in range(6, 18, 2):
        H = hk_polynomial(k, -1)
        for m in range(0, 41):
            assert ehrhart_simplex_count(k, m) == poly_eval(H, Fraction(m)), (k, m)


def test_ehrhart_count_matches_box_scan():
    # every (k, m), k <= 16, whose box holds at most 10^5 points
    cases = [(k, m) for k in range(6, 18, 2) for m in range(0, 23)
             if (2 * m + 1) ** (k - 3) <= 10 ** 5]
    assert len(cases) == 23 + 5 + 3 + 2 + 1 + 1
    for k, m in cases:
        assert ehrhart_simplex_count(k, m) == box_scan_count(k, m), (k, m)


def test_ehrhart_price_counts_its_terms(monkeypatch):
    priced, combs = [], []
    comb = math.comb

    def priced_check(units, what):
        assert not combs  # the price comes before any binomial
        priced.append(units)

    def counted_comb(n, r):
        combs.append(n)
        return comb(n, r)

    monkeypatch.setattr(modular, "check_work", priced_check)
    monkeypatch.setattr(math, "comb", counted_comb)
    assert ehrhart_simplex_count(12, 50) == poly_eval(hk_polynomial(12, -1), Fraction(50))
    assert len(combs) <= 10 * 50 + 1 <= priced[0] <= 2 * (10 * 50 + 1)


def test_ehrhart_resource_gate():
    # (12, 50) takes 501 binomials; (12, 10^6) takes 10^7 + 1, priced
    # 1.4 x 10^7 (about 7 s if run), and is refused before the first
    with pytest.raises(ArithmeticError, match="WORK_BUDGET"):
        ehrhart_simplex_count(12, 10 ** 6)


# ---------------------------------------------------------------- weight 4 / convergence
def test_weight4_trivial_zero_case():
    prof = LProfile(weight=4, level=11, sign=-1,
                    lam=[mp.mpf(-1), mp.mpf(0), mp.mpf(1)], source="synthetic")
    rep = weight4_inequality_check(prof, PREC)
    assert rep["holds"] and rep["trivial_zero_case"] and rep["roots_on_circle"]


def test_weight4_ingested_fixture(tmp_path):
    with mp.workprec(PREC):
        prof = LProfile(weight=4, level=5, sign=1,
                        lam=[mp.mpf("1.3"), mp.mpf("0.7"), mp.mpf("1.3")],
                        source="synthetic-fixture")
        path = tmp_path / "weight4.json"
        path.write_text(json.dumps(prof.as_dict(50)))
        loaded = LProfile.from_json(path.read_text(), prec=PREC)
        loaded.validate(tol=1e-20)
        rep = weight4_inequality_check(loaded, PREC)
        assert rep["holds"] and rep["roots_on_circle"]


def test_weight4_gate_ordering_rejects_bad_chain_first():
    with mp.workprec(PREC):
        bad = LProfile(weight=4, level=5, sign=1,
                       lam=[mp.mpf(2), mp.mpf(3), mp.mpf(2)], source="adversarial")
        with pytest.raises(ValueError, match="chain"):
            bad.validate(tol=1e-20)


def test_convergence_experiment_delta_bound(delta):
    rows = convergence_experiment([delta], prec=PREC)
    assert len(rows) == 1
    with mp.workprec(PREC):
        assert rows[0]["max_ordinate"] < rows[0]["ordinate_bound"]
        assert abs(rows[0]["max_ordinate"] - mp.mpf("8.447")) < mp.mpf("1e-3")
        assert rows[0]["ordinate_bound"] == (12 - 3) * (12 - mp.mpf(7) / 2)


def test_convergence_experiment_trend_sign_minus():
    profs = [_synthetic_minus(6, [str(x), "1.0"]) for x in ("0.5", "0.1", "0.02")]
    rows = convergence_experiment(profs, prec=PREC)
    dists = [row["distance"] for row in rows]
    assert dists[0] > dists[1] > dists[2]


def test_weight4_plus_roots_converge_to_sixth_roots_of_unity():
    # the k=4, sign +1 comparison polynomial is s^2 - s + 1 under s -> -s,
    # whose roots are exp(+-i pi/3); flattening the middle value drives the
    # two zeta-polynomial roots onto them
    H4 = hk_polynomial(4, 1)
    assert H4 == [Fraction(1), Fraction(1), Fraction(1)]  # C(s+2,2)+C(s,2)
    with mp.workprec(PREC):
        targets = [mp.expjpi(mp.mpf(1) / 3), mp.expjpi(-mp.mpf(1) / 3)]
        profs = []
        for mid in ("0.8", "0.3", "0.05"):
            profs.append(LProfile(weight=4, level=101, sign=1,
                                  lam=[mp.mpf(1), mp.mpf(mid), mp.mpf(1)],
                                  source=f"synthetic-{mid}"))
        dists = []
        for prof in profs:
            Z = zeta_polynomial(prof, PREC)
            roots, _ = rh_check(Z, PREC)
            dists.append(hausdorff_distance(roots, targets, PREC))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < mp.mpf("0.05")


def test_hausdorff_distance_basic():
    with mp.workprec(64):
        A = [mp.mpc(0, 0), mp.mpc(1, 0)]
        B = [mp.mpc(0, 0)]
        assert abs(hausdorff_distance(A, B, 64) - 1) < mp.mpf("1e-10")
