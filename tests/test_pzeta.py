"""Cross-route agreement for restricted-part-set zeta values."""

from __future__ import annotations

import ast
import pathlib
import time

import mpmath as mp
import pytest

from oracles import dirichlet_series_oracle
from partizeta import pzeta
from partizeta.numerics import (
    GUARD_BITS,
    direct_zeta_start,
    power_sum_tails,
    riemann_zeta,
    working,
)
from partizeta.partitions import DivergentPartSetError, PartSet, parse_part_set
from partizeta.pzeta import (
    PoleReport,
    check_congruence_class,
    closed_form_gamma,
    dirichlet_partition_series,
    euler_product,
    log_eval_general,
    log_eval_multiples,
    zeta_via_mobius,
)

PREC = 256


def test_congruence_class_spec_invariants():
    check_congruence_class(0, 2)
    check_congruence_class(3, 4)
    with pytest.raises(ValueError, match="diverges"):
        check_congruence_class(0, 1)
    with pytest.raises(ValueError, match="need a >= 0, m >= 1"):
        check_congruence_class(-1, 3)
    with pytest.raises(ValueError, match="need a >= 0, m >= 1"):
        closed_form_gamma(1, 0, 2)


# ---------------------------------------------------------------- euler product
def test_euler_product_even_parts_pi_half():
    v, bound = euler_product(parse_part_set("2N"), mp.mpf(2), prec=PREC)
    with mp.workprec(PREC):
        assert abs(v - mp.pi / 2) < mp.mpf("1e-40")
        assert bound < mp.mpf("1e-40")


def test_euler_product_ramanujan_form():
    v, _ = euler_product(parse_part_set("geq:2"), mp.mpf(3), prec=PREC)
    with mp.workprec(PREC):
        assert abs(v - 3 * mp.pi / mp.cosh(mp.pi * mp.sqrt(3) / 2)) < mp.mpf("1e-40")


def test_euler_product_distinct_euler_form():
    v, _ = euler_product(PartSet(distinct=True), mp.mpf(2), prec=PREC)
    with mp.workprec(PREC):
        assert abs(v - mp.sinh(mp.pi) / mp.pi) < mp.mpf("1e-40")


def test_euler_product_certificate_is_honest():
    # true error <= tail certificate + final-rounding ulp, on a known value
    for prec in (128, 256):
        v, bound = euler_product(parse_part_set("2N"), mp.mpf(2), prec=prec)
        with mp.workprec(prec + 60):
            err = abs(v - mp.pi / 2)
            assert err <= bound + mp.mpf(2) ** (-(prec - 6))


@pytest.mark.parametrize("spec", ["2N", "distinct", "geq:2", "3N|1+2N", "2+2N"])
@pytest.mark.parametrize("s", [mp.mpf(3), mp.mpc(3, 1)])
@pytest.mark.parametrize("prec", [64, 128, 256, 512, 1024])
def test_euler_product_precision_sweep(spec, s, prec):
    # within the certificate plus the final rounding of the same call at
    # 2 prec + 64
    v, bound = euler_product(parse_part_set(spec), s, prec=prec)
    ref, _ = euler_product(parse_part_set(spec), s, prec=2 * prec + 64)
    with mp.workprec(2 * prec + 64):
        assert abs(v - ref) <= bound + mp.ldexp(abs(v), 1 - prec)


# mp powers per request at 256 bits before the integer-power table (each
# k^-s, the class heads, L^-s and chi^j were mp powers), counted the same way
@pytest.mark.parametrize("spec, s, before", [
    ("2N", 2, 119), ("geq:2", 2, 125), ("2N|1+3N", 2, 463), ("1+97N", 2, 119),
    ("5+11N|2N", 2, 1383), ("2+2N", mp.mpc(3, "0.8"), 103), ("2N|3N|5N|7N", 2, 18634)])
def test_euler_product_mp_powers_only_for_primes(mp_powers, spec, s, before):
    # k^-s is completely multiplicative: only primes need an mp power
    euler_product(parse_part_set(spec), s, prec=PREC)
    assert mp_powers[0] <= (before // 3 if spec in ("2N", "geq:2", "2N|1+3N") else before)


def test_euler_product_rejects_divergent_and_domain():
    with pytest.raises(DivergentPartSetError):
        euler_product(parse_part_set("0+1N"), mp.mpf(2), prec=PREC)
    with pytest.raises(ValueError):
        euler_product(parse_part_set("2N"), mp.mpf("0.8"), prec=PREC)
    # Re(s) = 1 + 2^-400 is 1 on the engine's grid at 64 bits, where the
    # j = 1 tail is not summed
    with mp.workprec(600):
        s = 1 + mp.mpf(2) ** -400
    with pytest.raises(ValueError, match="Re"):
        euler_product(parse_part_set("2N"), s, prec=64)


def test_euler_product_ones_capped_factor():
    base, _ = euler_product(PartSet(min_part=2), mp.mpf(2), prec=128)
    capped, _ = euler_product(PartSet(max_ones=2), mp.mpf(2), prec=128)
    with mp.workprec(128):
        assert abs(capped - 3 * base) < mp.mpf("1e-30")


def test_disjoint_union_multiplicativity():
    # (2+6N) u (4+6N): union value equals the product of the class values,
    # by the product route and by the gamma closed form
    with mp.workprec(PREC + 20):
        u, _ = euler_product(parse_part_set("2+6N|4+6N"), mp.mpf(2), prec=PREC)
        a, _ = euler_product(parse_part_set("2+6N"), mp.mpf(2), prec=PREC)
        b, _ = euler_product(parse_part_set("4+6N"), mp.mpf(2), prec=PREC)
        assert abs(u - a * b) < mp.mpf("1e-40")
        cf = closed_form_gamma(2, 6, 2, PREC) * closed_form_gamma(4, 6, 2, PREC)
        assert abs(u - cf) < mp.mpf("1e-40")


def test_euler_product_finite_part_set():
    # parts {2, 3}: value is 1/((1 - 1/4)(1 - 1/9)) = 3/2 exactly
    v, bound = euler_product(parse_part_set("finite:{2,3}"), mp.mpf(2), prec=128)
    with mp.workprec(128):
        assert abs(v - mp.mpf(3) / 2) < mp.mpf("1e-35")
        assert bound == 0


def test_empty_euler_product_at_a_million_bits(mp_powers):
    # no part is left: the value 1 needs no mp power, and 2^F becomes an mp
    # number without mpmath stripping its F trailing zeros a byte at a time
    t0 = time.perf_counter()
    v, bound = euler_product(parse_part_set("geq:7|finite:{3}"), mp.mpf("1.5"), prec=10 ** 6)
    assert time.perf_counter() - t0 < 1
    assert v == 1 and bound == 0 and mp_powers[0] == 0


def test_euler_product_complex_argument():
    v, bound = euler_product(parse_part_set("2N"), mp.mpc(2, 1), prec=PREC)
    assert mp.isfinite(v)
    with mp.workprec(PREC):
        assert bound < mp.mpf("1e-40")


# ---------------------------------------------------------------- closed form
def test_closed_form_examples():
    with mp.workprec(PREC + 20):
        assert abs(closed_form_gamma(0, 2, 2, PREC) - mp.pi / 2) < mp.mpf("1e-40")
        want = mp.pi ** 2 / (9 * mp.sin(mp.pi / 3) * mp.sinh(mp.pi / 3))
        assert abs(closed_form_gamma(0, 3, 4, PREC) - want) < mp.mpf("1e-40")


@pytest.mark.parametrize("a, m, n", [(0, 2, 2), (1, 3, 3), (2, 5, 4)])
@pytest.mark.parametrize("prec", [64, 128, 256, 512, 1024])
def test_closed_form_precision_sweep(a, m, n, prec):
    # within its stated target, 2^(1-prec) relative, of the same call at
    # 2 prec + 64
    v = closed_form_gamma(a, m, n, prec)
    ref = closed_form_gamma(a, m, n, 2 * prec + 64)
    with mp.workprec(2 * prec + 64):
        assert abs(v - ref) <= mp.ldexp(abs(ref), 1 - prec)


@pytest.mark.parametrize("n", range(2, 10))
def test_closed_form_makes_one_log_gamma_call_per_conjugate_pair(monkeypatch, n):
    # the ring evaluates r = 0..n/2, and the base term is one call more
    calls = []
    loggamma = mp.loggamma

    def counted(z):
        calls.append(z)
        return loggamma(z)

    want = closed_form_gamma(1, 3, n, 64)
    monkeypatch.setattr(mp, "loggamma", counted)
    assert closed_form_gamma(1, 3, n, 64) == want
    assert len(calls) == n // 2 + 2


def test_one_log_gamma_ring():
    # in pzeta, mpmath's loggamma is called only by the ring and the closed
    # form's base term
    tree = ast.parse(pathlib.Path(pzeta.__file__).read_text())
    callers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "loggamma"]
    assert callers == ["_log_gamma_ring", "closed_form_gamma"]


def test_closed_form_matches_explicit_part_product():
    # class 1+4N means parts {5, 9, 13, ...}
    with mp.workprec(PREC + 20):
        cf = closed_form_gamma(1, 4, 2, PREC)
        ep, _ = euler_product(parse_part_set("1+4N"), mp.mpf(2), prec=PREC)
        assert abs(cf - ep) < mp.mpf("1e-40")


def test_mainthm_reading_report_pins_exclusive():
    # the gamma closed form is the zeta of the parts {a+m, a+2m, ...} (index
    # from 1), not of the inclusive {a, a+m, ...}
    cf = closed_form_gamma(3, 4, 2, PREC)
    exclusive, _ = euler_product(parse_part_set("3+4N"), mp.mpf(2), prec=PREC)
    inclusive, _ = euler_product(parse_part_set("3+4N|finite:{3}"), mp.mpf(2), prec=PREC)
    with mp.workprec(PREC):
        assert abs(exclusive - cf) < mp.mpf("1e-40")
        assert abs(inclusive - cf) > mp.mpf("0.1")


# ---------------------------------------------------------------- log series routes
def test_log_eval_general_cross_route():
    with mp.workprec(PREC + 20):
        for (a, m, n) in ((0, 2, 2), (2, 5, 3), (0, 10, 2)):
            lhs = mp.exp(log_eval_general(a, m, n, PREC))
            rhs = closed_form_gamma(a, m, n, PREC)
            assert abs(lhs - rhs) < mp.mpf("1e-40"), (a, m, n)


@pytest.mark.parametrize("a, m, n", [(0, 2, 2), (2, 5, 3), (3, 2, 3), (5, 3, 3), (2, 2, 3),
                                     (3, 2, 51)])
@pytest.mark.parametrize("prec", [64, 128, 256, 512, 1024])
def test_log_eval_general_precision_sweep(a, m, n, prec):
    # a > m: max |z_r| > 1, and term k multiplies the error of its tail
    # H(k, N) by |z_r|^k; within 2^(12-prec) relative of the closed form at
    # 2 prec + 64. At n = 51 the value is ~2.3e-36, so an absolute error of
    # 2^-prec would miss it
    v = log_eval_general(a, m, n, prec)
    with mp.workprec(2 * prec + 64):
        ref = mp.log(closed_form_gamma(a, m, n, 2 * prec + 64))
        assert abs(v - ref) <= mp.ldexp(abs(ref), 12 - prec), (a, m, n)


def _defining_log_product(a, m, n, prec):
    """-sum_i log(1 - (m i + a)^-n) at 2 prec + 64 bits, summed until the
    omitted terms are below 2^(-2 prec) of the sum: past x_i = (m i + a)^-n
    <= 1/4 they add up to at most (4/3) x_i (1 + (m i + a)/(m (n - 1)))."""
    with mp.workprec(2 * prec + 64):
        total, i = mp.mpf(0), 1
        while True:
            x = mp.mpf(m * i + a) ** -n
            if total and 2 * x * (1 + mp.mpf(m * i + a) / (m * (n - 1))) < mp.ldexp(total, -2 * prec):
                return total
            total -= mp.log1p(-x)
            i += 1


@pytest.mark.parametrize("a, m, n", [(3, 2, 2001), (1, 2, 10 ** 9)])
@pytest.mark.parametrize("prec", [64, 256])
def test_log_eval_general_large_n(a, m, n, prec):
    # values of ~2.3e-1399 and ~3^-(10^9): the head's logs carry them, the
    # tail coefficients vanish below k = n
    t0 = time.perf_counter()
    v = log_eval_general(a, m, n, prec)
    assert time.perf_counter() - t0 < 0.1
    ref = _defining_log_product(a, m, n, prec)
    with mp.workprec(2 * prec + 64):
        assert abs(v - ref) <= mp.ldexp(ref, 12 - prec), (a, m, n)


def test_ring_power_sums_are_the_root_sums():
    # m^-k n c_k = sum_r z_r^k - n (a/m)^k from the roots at 4 PREC, and
    # c_k = 0 exactly for k < n
    with mp.workprec(4 * PREC):
        for n in range(2, 8):
            roots = [mp.expjpi(mp.mpf(2 * r) / n) for r in range(n)]
            for a in range(0, 5):
                c = list(pzeta._ring_power_sums(a, n, 30))
                assert all(type(ck) is int for ck in c)
                assert c[:n - 1] == [0] * (n - 1), (a, n)
                for m in range(2, 7):
                    z = [(a - w) / m for w in roots]
                    zk, amk = [mp.mpf(1)] * n, mp.mpf(1)
                    for k in range(1, 31):
                        zk = [p * zr for p, zr in zip(zk, z)]
                        amk *= mp.mpf(a) / m
                        want = mp.fsum(zk) - n * amk
                        scale = max(1, n * max(abs(zr) for zr in z) ** k)
                        assert abs(mp.mpf(n * c[k - 1]) / m ** k - want) < mp.ldexp(scale, -PREC), \
                            (a, m, n, k)


def test_log_eval_general_takes_its_tails_from_the_engine(mp_zeta, monkeypatch):
    # every H(k, N) from one power_sum_tails setup at s = 1 once kmax >= n,
    # none when kmax < n: no mpmath zeta either way
    setups = []

    def counted(*args):
        setups.append(args)
        return power_sum_tails(*args)

    monkeypatch.setattr(pzeta, "power_sum_tails", counted)
    with mp.workprec(PREC + 20):
        assert abs(mp.exp(log_eval_general(5, 3, 3, PREC))
                   - closed_form_gamma(5, 3, 3, PREC)) < mp.mpf("1e-40")
    assert len(setups) == 1 and setups[0][0] == 1  # s = 1
    log_eval_general(3, 2, 2001, PREC)  # kmax = 118 < n
    log_eval_general(1, 2, 10 ** 9, PREC)
    assert len(setups) == 1
    assert mp_zeta[0] == 0


def test_log_eval_general_rejects_divergent_expansion():
    with pytest.raises(ValueError):
        log_eval_general(4, 2, 2, PREC)  # |(a - e(r/n))/m| reaches 2.5


def test_gamma_routes_are_priced_at_once(monkeypatch):
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def call(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(module, name, call)

    counted(pzeta, "riemann_zeta")
    counted(mp, "loggamma")
    counted(pzeta, "power_sum_tails")
    t0 = time.perf_counter()
    # the tail setup of 679 multiples at 4745 bits, priced 2.7 x 10^7
    with pytest.raises(ArithmeticError, match="WORK_BUDGET"):
        log_eval_general(3, 2, 3, 4096)
    # 48,475 log-gamma calls, refused before the sieve (K = 94: 2,834 calls,
    # 1.8 s)
    with pytest.raises(ArithmeticError, match="WORK_BUDGET"):
        zeta_via_mobius(2, 2, 400, PREC)
    assert time.perf_counter() - t0 < 1 and calls == []
    zeta_via_mobius(2, 2, 20, PREC)
    assert len(calls) == 136 and set(calls) == {"loggamma"}


def test_three_route_agreement_grid():
    # every valid (a, m, n) in {0..4} x {2..6} x {2..5}: routes within 1e-35
    with mp.workprec(PREC + 20):
        for m in range(2, 7):
            for a in range(0, min(5, m)):
                spec = PartSet(classes=((a, m),))
                for n in range(2, 6):
                    cf = closed_form_gamma(a, m, n, PREC)
                    ep, _ = euler_product(spec, mp.mpf(n), prec=PREC)
                    assert abs(cf - ep) < mp.mpf("1e-35"), (a, m, n)
                    lg = mp.exp(log_eval_general(a, m, n, PREC))
                    assert abs(cf - lg) < mp.mpf("1e-35"), (a, m, n)
                    if a == 0:
                        lm = mp.exp(log_eval_multiples(m, mp.mpf(n), prec=PREC))
                        assert abs(cf - lm) < mp.mpf("1e-35"), (a, m, n)


def test_log_eval_multiples_values_and_poles():
    with mp.workprec(PREC + 20):
        v = log_eval_multiples(2, mp.mpf(2), prec=PREC)
        assert abs(mp.exp(v) - mp.pi / 2) < mp.mpf("1e-40")
    out = log_eval_multiples(2, mp.mpf(1) / 3, prec=PREC)
    assert isinstance(out, PoleReport)
    assert out.pole_at_k == 3
    with pytest.raises(ValueError):
        log_eval_multiples(2, mp.mpf("-0.5"), prec=PREC)


def test_log_eval_multiples_snaps_to_the_nearest_pole():
    # 1/999 is also within POLE_SNAP of the first point; 1/1000 is nearer
    near = log_eval_multiples(2, mp.mpf(1) / 1000 + mp.mpf("3e-7"), prec=PREC)
    assert near.pole_at_k == 1000
    tiny = log_eval_multiples(2, mp.mpf("1e-9"), prec=PREC)
    assert tiny.pole_at_k == 10 ** 9 and tiny.message.endswith("s=1/1000000000")


@pytest.mark.parametrize("m, s, prec", [(2, mp.mpf("0.75"), 128), (3, mp.mpc("1.5", "2"), 128),
                                        (5, mp.mpf("0.3"), 64), (2, mp.mpf("2.5"), 256)])
def test_log_eval_multiples_matches_a_zeta_reference(m, s, prec):
    # the k-range straddles the direct-sum start: zeta(sk) comes from
    # riemann_zeta below it and from short direct sums above it
    kmax = int(2 * prec / (mp.re(s) * mp.log(m, 2))) + 8  # m^{-k Re s} < 2^{-2 prec}
    assert direct_zeta_start(mp.re(s), prec + GUARD_BITS) < kmax // 2
    value = log_eval_multiples(m, s, prec=prec)
    with mp.workprec(2 * prec):
        ref = mp.fsum(mp.zeta(s * k) / (k * mp.mpf(m) ** (s * k)) for k in range(1, kmax + 1))
        assert abs(value - ref) <= mp.ldexp(1, 12 - prec), (value, ref)


@pytest.mark.parametrize("c", ["1", "-1", "0.5", "0.6+0.5j"])
def test_ones_factor_keeps_the_bits_of_the_term_by_term_sum(monkeypatch, c):
    # sum_{i <= cap} chi(1)^i in O(log cap) products, not cap + 1 mp powers:
    # ones:0 to ones:8 round to the bits of the term-by-term sum
    chi = (mp.mpmathify(c),)
    specs = [parse_part_set(f"ones:{n}") for n in range(9)]
    fast = [dirichlet_partition_series(spec, chi, 4, prec=64)[0] for spec in specs]
    monkeypatch.setattr(pzeta, "_geometric_sum", lambda c, n: sum(c ** i for i in range(n)))
    assert [dirichlet_partition_series(spec, chi, 4, prec=64)[0] for spec in specs] == fast


def test_log_eval_multiples_work_budget(monkeypatch):
    calls = []

    def counted(s, prec):
        calls.append(s)
        return riemann_zeta(s, prec)

    monkeypatch.setattr(pzeta, "riemann_zeta", counted)
    # k0 = 498 continued terms, then ~28,000 zeta calls: refused before any
    # zeta call (the series' range is a closed form, with no zeta call)
    with pytest.raises(ArithmeticError, match="WORK_BUDGET"):
        log_eval_multiples(2, mp.mpf("0.00201"), prec=PREC)
    # k0 = 10^9 (off the real axis, so no pole snap): refused before any call
    with pytest.raises(ArithmeticError, match="WORK_BUDGET"):
        log_eval_multiples(2, mp.mpc("1e-9", 1), prec=PREC)
    assert calls == []


def test_log_eval_multiples_complex_point_finite():
    out = log_eval_multiples(3, mp.mpc("0.7", "0.3"), prec=PREC)
    assert not isinstance(out, PoleReport)
    assert mp.isfinite(out) and mp.isfinite(mp.exp(out))


# ---------------------------------------------------------------- zeta formulas
def test_mobius_formula_values():
    with mp.workprec(PREC + 20):
        assert abs(zeta_via_mobius(2, 2, 20, PREC) - riemann_zeta(2, PREC)) < mp.mpf("1e-8")
        assert abs(zeta_via_mobius(3, 3, 20, PREC) - riemann_zeta(3, PREC)) < mp.mpf("1e-10")


def test_mobius_single_term_unrolled():
    with mp.workprec(PREC + 20):
        v = zeta_via_mobius(2, 2, 1, PREC)
        assert abs(v - 4 * mp.log(mp.pi / 2)) < mp.mpf("1e-40")


@pytest.mark.parametrize("m, n, K", [(3, 3, 3), (2, 2, 3), (4, 5, 2)])
@pytest.mark.parametrize("prec", [64, PREC])
def test_mobius_pairs_conjugate_terms(m, n, K, prec):
    # the ring evaluates r <= n/2 and doubles the paired terms; an all-r
    # sum must agree with it in the Moebius route, at odd and even nk (3, 6,
    # 9; 2, 4, 6; 5, 10), and in the closed form at a = m - 1 > 0 and n, n + 1
    mu = [0, 1, -1, -1]
    with mp.workprec(2 * prec):
        def ring(a, N):
            return mp.fsum(mp.re(mp.loggamma(1 + (a - mp.expjpi(2 * mp.mpf(r) / N)) / m))
                           for r in range(N))

        ref = mp.mpf(m) ** n * mp.fsum(mp.mpf(mu[k]) / k * ring(0, n * k) for k in range(1, K + 1))
        assert abs(zeta_via_mobius(m, n, K, prec) - ref) <= mp.ldexp(abs(ref), 4 - prec)
        a = m - 1
        for nn in (n, n + 1):
            ref = mp.exp(ring(a, nn) - nn * mp.loggamma(1 + mp.mpf(a) / m))
            assert abs(closed_form_gamma(a, m, nn, prec) - ref) <= mp.ldexp(ref, 1 - prec)


def test_mobius_convergence_trend():
    with mp.workprec(140):
        ref = riemann_zeta(2, 120)
        errs = [abs(zeta_via_mobius(2, 2, K, 120) - ref) for K in range(5, 13)]
        assert errs[-1] < errs[0]
        for i in range(len(errs) - 1):
            assert errs[i + 1] < 2 * errs[i]  # monotone with 2x slack


# ---------------------------------------------------------------- dirichlet series
CHI4 = (0, 1, 0, -1)  # the character mod 4
ODD3 = PartSet(classes=((1, 2),), min_part=3)


def _hurwitz_product(spec, firsts, L, chi, s, bits=128):
    """exp sum_k (1/k) sum_f chi(f)^k L^{-sk} zeta(sk, f/L): the weighted
    product over the union of the classes {f, f+L, f+2L, ...}, through
    mpmath's Hurwitz zeta; no finite product and no Euler-Maclaurin tail."""
    assert {n for n in range(1, 300) if spec.contains(n)} \
        == {f + L * i for f in firsts for i in range(300) if f + L * i < 300}
    with mp.workprec(bits):
        s = mp.mpmathify(s)
        kmax = int(bits / (mp.re(s) * mp.log(min(firsts), 2))) + 1
        total = 0
        for k in range(1, kmax + 1):
            for f in firsts:
                c = mp.mpmathify(chi[f % len(chi)])
                if c:
                    total += c ** k * mp.mpf(L) ** (-s * k) * mp.zeta(s * k, mp.mpf(f) / L) / k
        return mp.exp(total)


@pytest.mark.parametrize("spec, firsts, L, chi, s", [
    (ODD3, (3, 5), 4, CHI4, 2),
    (parse_part_set("geq:2"), (2, 3), 2, (1, -1), 3),  # (-1)^k
    (ODD3, (3, 5), 4, CHI4, mp.mpc(5, 0.5)),
    # a complex character mod 5 on odd parts >= 5: classes refined mod L = 10
    (parse_part_set("3+2N"), (5, 7, 9, 11, 13), 10, (0, 1, 1j, -1j, -1), 3),
], ids=["chi4-odd3", "sign-geq2", "chi4-odd3-complex-s", "chi5-odd5"])
def test_dirichlet_matches_hurwitz_k_series(spec, firsts, L, chi, s):
    v, bound = dirichlet_partition_series(spec, chi, s, prec=PREC)
    assert bound < mp.ldexp(1, 12 - PREC)
    with mp.workprec(PREC):
        assert abs(v - _hurwitz_product(spec, firsts, L, chi, s)) < mp.mpf("1e-35")


# CHI4 on odd parts >= 3, and a complex character mod 5 on odd parts >= 5;
# 1024 bits at real s only
@pytest.mark.parametrize("spec, chi, s, prec", [
    pytest.param(spec, chi, s, prec, id=f"{prec}-{s_id}-{chi_id}")
    for prec in (64, 128, 256, 512, 1024)
    for s_id, s in (("s0", mp.mpf(3)), ("s1", mp.mpc(5, 0.5))) if prec < 1024 or s_id == "s0"
    for chi_id, spec, chi in (("chi4-odd3", ODD3, CHI4),
                              ("chi5-odd5", parse_part_set("3+2N"), (0, 1, 1j, -1j, -1)))])
def test_dirichlet_precision_sweep(spec, chi, s, prec):
    v, bound = dirichlet_partition_series(spec, chi, s, prec=prec)
    ref, _ = dirichlet_partition_series(spec, chi, s, prec=2 * prec + 64)
    # the rounded value hides up to 2 GUARD_BITS lost bits; unrounded, at the
    # working precision wp, the value must hold all but 4 of them (the
    # certificate, ~2^-(wp+8), stays below the final mp rounding either way)
    with working(prec + GUARD_BITS):
        wp = mp.mp.prec
        raw, raw_bound = dirichlet_partition_series.__wrapped__(spec, chi, s, prec)
    with mp.workprec(2 * prec + 64):
        assert abs(v - ref) <= bound + mp.ldexp(abs(v), 1 - prec)
        assert raw_bound == bound
        assert abs(raw - ref) <= bound + mp.ldexp(abs(raw), 4 - wp)


def test_dirichlet_reduces_to_euler_product():
    for text, s in (("distinct", mp.mpf(3)), ("ones:2|3+4N", mp.mpf(3)), ("2N", mp.mpc(4, 0.5))):
        spec = parse_part_set(text)
        assert dirichlet_partition_series(spec, (1,), s, prec=128) \
            == euler_product(spec, s, prec=128), text


def test_dirichlet_self_consistency_two_truncations():
    # geq:2 again, but with a class 99 + N that moves the cutoff
    # K = max(64, tail_start + 1) from 64 to 100
    late = PartSet(classes=((0, 1), (99, 1)), min_part=2)
    assert late.parts_upto(300) == parse_part_set("geq:2").parts_upto(300)
    v1, b1 = dirichlet_partition_series(parse_part_set("geq:2"), (1, -1), 3, prec=PREC)
    v2, b2 = dirichlet_partition_series(late, (1, -1), 3, prec=PREC)
    with mp.workprec(PREC):
        assert abs(v1 - v2) < b1 + b2 + mp.ldexp(1, 4 - PREC)


def test_dirichlet_character_oracle():
    prod, bound = dirichlet_partition_series(ODD3, CHI4, mp.mpf(2), prec=100)
    brute = dirichlet_series_oracle(ODD3, CHI4, mp.mpf(2), 5000, prec=100)
    with mp.workprec(100):
        assert abs(prod - brute) < mp.mpf("1e-4")


def test_dirichlet_input_checks():
    geq2 = parse_part_set("geq:2")
    with pytest.raises(ValueError, match="Re"):
        dirichlet_partition_series(geq2, CHI4, 1, prec=100)
    with pytest.raises(ValueError, match="residue 2"):
        dirichlet_partition_series(geq2, (1, 0, mp.mpf("1.5")), 2, prec=100)
    with pytest.raises(ValueError, match="residue 0"):
        dirichlet_partition_series(geq2, (mp.nan,), 2, prec=100)
    with pytest.raises(ValueError, match="period"):
        dirichlet_partition_series(geq2, (), 2, prec=100)
    # the part 1 repeats without bound: only |chi(1)| < 1 converges, to a
    # factor 1/(1 - chi(1))
    every = PartSet(classes=((0, 1),))
    with pytest.raises(DivergentPartSetError):
        dirichlet_partition_series(every, CHI4, 2, prec=100)
    half = (mp.mpf(1) / 2,)
    v_all, _ = dirichlet_partition_series(every, half, 2, prec=100)
    v_geq2, _ = dirichlet_partition_series(geq2, half, 2, prec=100)
    with mp.workprec(100):
        assert abs(v_all - 2 * v_geq2) < mp.ldexp(1, 4 - 100)
