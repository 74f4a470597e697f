"""Modular-form side: tau recursion, completed values, period/zeta
polynomials, binomial-transform polynomials, Ehrhart oracle."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from partizeta import modular
from partizeta.modular import (
    LProfile,
    build_delta_profile,
    convergence_experiment,
    ehrhart_simplex_count,
    eisenstein_coeffs,
    functional_eq_check,
    generating_check,
    hausdorff_distance,
    hk_polynomial,
    hk_zero_solver,
    lambda_delta,
    moments,
    moments_from_l_values,
    period_polynomial,
    rh_check,
    rv_transform,
    tau_eta_oracle,
    tau_recursive,
    universal_F,
    weight4_inequality_check,
    zeta_polynomial,
)
from partizeta.numerics import poly_eval, poly_negate_var, poly_roots, poly_to_mpc

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


def test_lambda_delta_noninteger_argument_symmetry():
    # the series realizes the functional-equation symmetry off the integers too
    with mp.workprec(192):
        a = lambda_delta(mp.mpf("5.5"), prec=160)
        b = lambda_delta(mp.mpf("6.5"), prec=160)
        assert abs(a - b) < mp.mpf(2) ** -140
        assert a > 0


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
    text = delta.to_json(digits=50)
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
def test_moments_zeroth_is_plain_sum(delta):
    with mp.workprec(PREC):
        direct = sum(math.comb(10, j) * delta.lam[j] for j in range(11)) / mp.factorial(10)
        assert abs(moments(delta, 0, PREC) - direct) < mp.mpf(2) ** -200


def test_moments_two_displayed_forms_agree(delta):
    with mp.workprec(PREC):
        for m in range(0, 11):
            a = moments(delta, m, PREC)
            b = moments_from_l_values(delta, m, PREC)
            assert abs(a - b) < mp.mpf(2) ** -180, m


def test_moments_central_term_vanishes_for_sign_minus():
    prof = _synthetic_minus(6, ["0.4", "1.0"])
    assert prof.lam[2] == 0  # Lambda(k/2) = 0 kills the j = k/2-1 term


def test_zeta_polynomial_delta_coefficients(delta):
    Z = zeta_polynomial(delta, PREC)
    with mp.workprec(PREC):
        assert abs(Z.coeffs[10] / mp.mpf("5.11e-7") - 1) < mp.mpf("0.01")
        assert abs(Z.coeffs[0] / mp.mpf("0.00596") - 1) < mp.mpf("0.01")
        # constant term is Lambda(k-1) = R(0) = Z(0)
        assert abs(Z.coeffs[0] - delta.lam[10]) < mp.mpf(2) ** -200


def test_zeta_polynomial_weight4_minus_single_root():
    with mp.workprec(PREC):
        prof = LProfile(weight=4, level=11, sign=-1,
                        lam=[mp.mpf(-1), mp.mpf(0), mp.mpf(1)], source="synthetic")
        Z = zeta_polynomial(prof, PREC)
        roots, dev = rh_check(Z, PREC)
        assert len(roots) == 1
        assert abs(roots[0] - mp.mpf(1) / 2) < mp.mpf(2) ** -200
        # Z(s) = 1 - 2s for this profile
        assert abs(Z.coeffs[0] - 1) < mp.mpf(2) ** -200
        assert abs(Z.coeffs[1] + 2) < mp.mpf(2) ** -200


def test_functional_eq_controls():
    with mp.workprec(PREC):
        Z = modular.ZetaPolynomial([mp.mpf(0), mp.mpf(1), mp.mpf(-1)], weight=4, sign=1)
        assert functional_eq_check(Z, 1, PREC) == 0  # s(1-s) is symmetric
        Zbad = modular.ZetaPolynomial([mp.mpf(0), mp.mpf(1)], weight=4, sign=1)
        assert functional_eq_check(Zbad, 1, PREC) > 1  # s vs 1-s
    assert "ZetaPolynomial" in type(Z).__name__
    assert Z(mp.mpf("0.5")) == mp.mpf("0.25")


def test_rh_check_negative_control():
    with mp.workprec(PREC):
        Z = modular.ZetaPolynomial([mp.mpf("0.2"), mp.mpf("-0.9"), mp.mpf(1)],
                                   weight=4, sign=1)  # (s-1/2)(s-0.4)
        roots, dev = rh_check(Z, PREC)
        assert abs(dev - mp.mpf("0.1")) < mp.mpf("1e-30")


def test_generating_identity_unrolled_and_scaling(delta):
    with mp.workprec(PREC):
        # n = 0 term: R(0) = Lambda(k-1) = Z(0)
        Z = zeta_polynomial(delta, PREC)
        R = period_polynomial(delta, PREC)
        assert abs(R[0] - Z(mp.mpf(0))) < mp.mpf(2) ** -200
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
    assert rv_transform([Fraction(1)]) == [Fraction(1)]
    assert rv_transform([Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1)]) \
        == hk_polynomial(6, 1)
    with pytest.raises(ValueError):
        rv_transform([Fraction(1), Fraction(-1)])  # U(1) = 0


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


def test_hk_solver_weight6_explicit_roots():
    with mp.workprec(PREC):
        ords = sorted(hk_zero_solver(6, -1, prec=PREC))
        want = sorted([-mp.sqrt(11) / 2, mp.mpf(0), mp.sqrt(11) / 2])
        assert max(abs(a - b) for a, b in zip(ords, want)) < mp.mpf("1e-35")
        # largest ordinate vs (k-3)(k-1)/(2 pi): same order of magnitude
        assert abs(max(ords) - 15 / (2 * mp.pi)) < 1


# ---------------------------------------------------------------- Ehrhart
def test_ehrhart_counts_match_polynomial():
    H6 = hk_polynomial(6, -1)
    assert ehrhart_simplex_count(6, 0) == 1
    assert ehrhart_simplex_count(6, 1) == 5
    assert ehrhart_simplex_count(6, 4) == 69
    for m in range(0, 9):
        assert ehrhart_simplex_count(6, m) == poly_eval(H6, Fraction(m))
    H8 = hk_polynomial(8, -1)
    for m in range(0, 4):
        assert ehrhart_simplex_count(8, m) == poly_eval(H8, Fraction(m))


def test_ehrhart_resource_gate():
    with pytest.raises(ValueError):
        ehrhart_simplex_count(12, 50)


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
        path.write_text(prof.to_json())
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
