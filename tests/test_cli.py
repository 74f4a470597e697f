"""Command-line surface: routes, exit codes, report determinism."""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partizeta import cli, pzeta
from partizeta.cli import main
from partizeta.numerics import WORK_BUDGET, working
from partizeta.partitions import parse_part_set

PREC_ARGS = ["--prec", "192"]
BUDGET = f"WORK_BUDGET = {WORK_BUDGET}"  # every refusal for work names it


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pzeta_all_routes_pi_half(capsys):
    code, out = run_cli(capsys, *PREC_ARGS, "pzeta", "--spec", "2N", "--s", "2",
                        "--routes", "all")
    assert code == 0
    data = json.loads(out)
    routes = {r["route"] for r in data["results"]}
    assert routes == {"product", "gamma", "logseries"}
    with mp.workprec(220):
        for rec in data["results"]:
            assert abs(mp.mpf(rec["value_re"]) - mp.pi / 2) < mp.mpf("1e-35")
        for dev in data["pairwise_deviation"].values():
            assert mp.mpf(dev) < mp.mpf("1e-35")


def test_logseries_carries_the_full_precision(capsys):
    # the series runs to 2^(12-prec), not to a looser CLI tolerance
    code, out = run_cli(capsys, "pzeta", "--spec", "2N", "--s", "2", "--routes", "all")
    assert code == 0
    data = json.loads(out)
    assert "tolerance" not in data["config"]
    with mp.workprec(300):
        assert mp.mpf(data["pairwise_deviation"]["logseries-vs-product"]) <= mp.mpf(2) ** -240


def test_no_tolerance_flag():
    assert "--tol" not in cli.build_parser().format_help()


def test_pzeta_all_of_n_with_capped_ones_uses_the_product(capsys):
    # N|ones:1 is the class (0, 1) with one 1 allowed: no gamma or log-series
    # route applies, the product gives prod_{k>=2} (1-k^-2)^-1 * 2 = 4
    code, out = run_cli(capsys, *PREC_ARGS, "pzeta", "--spec", "N|ones:1", "--s", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["route"] for r in results] == ["product"]
    with mp.workprec(220):
        assert abs(mp.mpf(results[0]["value_re"]) - 4) < mp.mpf("1e-50")


def test_pzeta_geq2_ramanujan(capsys):
    code, out = run_cli(capsys, *PREC_ARGS, "pzeta", "--spec", "geq:2", "--s", "3")
    assert code == 0
    data = json.loads(out)
    assert [r["route"] for r in data["results"]] == ["product"]
    with mp.workprec(220):
        want = 3 * mp.pi / mp.cosh(mp.pi * mp.sqrt(3) / 2)
        assert abs(mp.mpf(data["results"][0]["value_re"]) - want) < mp.mpf("1e-30")


def test_pzeta_grid_scan_reports_poles(capsys):
    code, out = run_cli(capsys, *PREC_ARGS, "pzeta", "--spec", "2N",
                        "--s", "0.2,0.21,0.25,0.4,0.5,1,2", "--routes", "logseries")
    assert code == 0
    data = json.loads(out)
    poles = {r["s"]: r["pole_at_k"] for r in data["results"] if "pole_at_k" in r}
    assert poles == {"0.2": 5, "0.25": 4, "0.5": 2, "1.0": 1}
    finite = [r for r in data["results"] if "value_re" in r]
    assert len(finite) == 3  # 0.21, 0.4, 2


def test_pzeta_divergent_spec_exit_2(capsys):
    code = main([*PREC_ARGS, "pzeta", "--spec", "0+1N", "--s", "2"])
    assert code == 2


@pytest.mark.parametrize("s", ["nan", "inf", "2,nan", "two", "1/0", "2j3", "+j"])
def test_pzeta_non_numeric_s_exit_2(capsys, s):
    code = main([*PREC_ARGS, "pzeta", "--spec", "2N", "--s", s])
    assert code == 2
    err = capsys.readouterr().err
    assert "--s" in err and "convert" not in err


@pytest.mark.parametrize("prec", [64, 1024])
def test_s_tokens_read_as_mpmath_reads_them(prec):
    # exact parts, rounded once: the bits of mpmath's own string conversion
    tokens = ["2", "-1", "0.21", "1e-9", "3.3", "1/3", " 3 ", ".5", "1e3", "2.0037", "1e401",
              "2+1j", "2.5+1J", "(2+1j)", "-2.5j", "2+0j", "3 + 0.8j"]
    with working(prec):
        for tok in tokens:
            got, want = cli._parse_s(tok), mp.mpmathify(tok)
            assert type(got) is type(want) and got == want, tok


@pytest.mark.parametrize("s, code", [("2.5+1j", 3), ("0.5", 2)])
def test_s_parse_is_cheap_at_a_huge_prec(capsys, s, code):
    # mpmath normalizes the exact quotient 25/10 a byte at a time: 3.6 s at
    # 10^6 bits before the budget refused the product (exit 3) or no route
    # applied (exit 2)
    t0 = time.perf_counter()
    assert main(["--prec", "1000000", "pzeta", "--spec", "2N", "--s", s,
                 "--routes", "product"]) == code
    assert time.perf_counter() - t0 < 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_default_tol_follows_prec(capsys):
    # at 64 bits a fixed 2^-200 target is out of the product certificate's reach
    code, out = run_cli(capsys, "--prec", "64", "pzeta", "--spec", "2N", "--s", "2")
    assert code == 0
    data = json.loads(out)
    assert {r["route"] for r in data["results"]} == {"product", "gamma", "logseries"}
    with mp.workprec(64):
        for rec in data["results"]:
            assert abs(mp.mpf(rec["value_re"]) - mp.pi / 2) < mp.mpf(2) ** -45


@pytest.mark.parametrize("spec", ["wat:7", "finite:{}|geq:2", "finite:{}|distinct", "finite:{}"])
def test_pzeta_bad_grammar_exit_2(capsys, spec):
    # an empty finite token is refused by name, not dropped from the union
    code = main([*PREC_ARGS, "pzeta", "--spec", spec, "--s", "2"])
    assert code == 2
    assert spec.split(":")[0] in capsys.readouterr().err


def test_fixedlen_exact_rendering(capsys):
    code, out = run_cli(capsys, *PREC_ARGS, "fixedlen", "--m", "2", "--k", "3", "--exact")
    assert code == 0
    data = json.loads(out)
    assert data["exact_rational"] == "31/15120"
    assert data["pi_power"] == 6
    assert data["rendered"] == "31/15120 * pi^6"


def test_exact_rationals_render_past_the_int_digit_limit():
    # fixedlen --m 1900 --k 1 --exact has a 4844-digit denominator, past
    # Python's default limit of 4300 digits; the limit is restored after
    limit = sys.get_int_max_str_digits()
    text = cli._ratio_text(Fraction(10 ** 5000 + 1, 3))
    assert text == "1" + "0" * 4999 + "1/3"
    assert sys.get_int_max_str_digits() == limit


def test_mzv_equal_args_exact(capsys):
    code, out = run_cli(capsys, *PREC_ARGS, "mzv", "--equal-args", "2", "2", "--exact")
    assert code == 0
    data = json.loads(out)
    assert data["exact_rational"] == "1/120"
    assert data["pi_power"] == 4


def test_mzv_equal_args_numeric_at_default_prec(capsys):
    # no precision block around the call: the value must still carry 256 bits
    code, out = run_cli(capsys, "mzv", "--equal-args", "2", "3")
    assert code == 0
    with mp.workprec(300):
        assert abs(mp.mpf(json.loads(out)["value"]) - mp.pi ** 6 / 5040) < mp.mpf("1e-70")


def test_mzv_equal_args_work_budget(capsys):
    # k (k + working precision) = 1.4 x 10^6, ~25 s; the budget stops it at once
    t0 = time.perf_counter()
    code = main(["mzv", "--equal-args", "2", "300"])
    assert code == 3 and time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert BUDGET in err
    assert len(err.strip().splitlines()) == 1


# the gate each request met before one work budget priced every evaluation:
# the refusal names WORK_BUDGET now, and no longer that gate
@pytest.mark.parametrize("argv, gate", [
    # (2, 1000) would run past a minute, B_{10^400} forever
    (["mzv", "--equal-args", "2", "1000", "--exact"], "EXACT_MAX_WORK = 67108864"),
    (["fixedlen", "--m", "2", "--k", "1000", "--exact"], "EXACT_MAX_WORK = 67108864"),
    (["mzv", "--equal-args", str(10 ** 400), "1", "--exact"],
     "EXACT_MAX_WORK = 67108864"),
    # n log2(k!) is priced in integers: 10^400 fits no float
    (["mzv", "--equal-args", str(10 ** 400), "2"],
     "SERIES_MAX_WORK = 262144"),
    # the 2N product at 8192 bits needs 1.9 x 10^6 powers and correction terms
    (["--prec", "8192", "pzeta", "--spec", "2N", "--s", "2", "--routes", "product"],
     "POWER_SUM_MAX_WORK = 4194304"),
    # 4 k (k + prec) = 4.3 x 10^6 units, past the budget; a huge k would
    # build k zeta values
    (["--prec", "64", "fixedlen", "--m", "2", "--k", "1000"],
     "SERIES_MAX_WORK = 262144"),
    (["fixedlen", "--m", "8", "--k", str(10 ** 400)], "SERIES_MAX_WORK = 262144"),
    # k (k + prec) is small, but the zeta(1000 j) at the series precision of
    # ~15,400 bits need B_5154 and up to 2577 powers at that precision
    (["--prec", "64", "mzv", "--equal-args", "1000", "8"],
     "POWER_SUM_MAX_WORK = 4194304"),
    # few products and zeta values, but at a series precision of 10^7 and
    # 6 x 10^7 bits
    (["--prec", "64", "mzv", "--equal-args", str(10 ** 7), "2"],
     "SERIES_MAX_WORK = 262144"),
    (["--prec", "64", "mzv", "--equal-args", str(6 * 10 ** 7), "2"],
     "SERIES_MAX_WORK = 262144"),
    # one zeta value each, whose Euler-Maclaurin order V = wp/6 needs the
    # exact Bernoulli table to B_5000 (14.6 s in all when run) and B_87000
    (["--prec", "15000", "fixedlen", "--m", "1835", "--k", "1"],
     "POWER_SUM_MAX_WORK = 4194304"),
    (["--prec", "262000", "fixedlen", "--m", "22000", "--k", "1"],
     "POWER_SUM_MAX_WORK = 4194304"),
    # few multiples and correction terms, but at 15,000 and 30,000 bits
    # (16.8 s, and past 60 s, when run)
    (["--prec", "15000", "pzeta", "--spec", "2N", "--s", "1000", "--routes", "product"],
     "POWER_SUM_MAX_WORK = 4194304"),
    (["--prec", "30000", "pzeta", "--spec", "2N", "--s", "3000", "--routes", "product"],
     "POWER_SUM_MAX_WORK = 4194304"),
])
def test_work_budgets_refuse_at_once(capsys, mp_powers, argv, gate):
    t0 = time.perf_counter()
    code = main(argv)
    assert code == 3 and time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert not out and BUDGET in err and gate.split()[0] not in err
    assert len(err.strip().splitlines()) == 1
    assert mp_powers[0] == 0


@pytest.mark.parametrize("argv", [
    # 263 zeta calls at 2088 bits: 25 s when run
    ["--prec", "2048", "pzeta", "--spec", "2N", "--s", "1.5", "--routes", "logseries"],
    # 202 log-gamma calls at 4168 bits, 0.17-0.20 s each warm
    ["--prec", "4096", "pzeta", "--spec", "2N", "--s", "400", "--routes", "gamma"],
    # 24,270 class setups (10.7 s when run), each inside the budget alone; nine
    # primes give 3.8 x 10^8 residue slots, priced before any is enumerated
    ["--prec", "64", "pzeta", "--spec", "2N|3N|5N|7N|11N|13N", "--s", "2", "--routes", "product"],
    ["--prec", "64", "pzeta", "--spec", "2N|3N|5N|7N|11N|13N|17N|19N|23N", "--s", "2",
     "--routes", "product"],
    # the profile's one pass at 10,000 bits, 7.9 x 10^6 units: 7.5 s when run
    ["--prec", "10000", "modular", "delta"],
    # the zeta call that sizes the series would run at 10^5 bits
    ["--prec", "100000", "pzeta", "--spec", "2N", "--s", "3.3", "--routes", "logseries"],
    # trial division of a 60-bit p: 5 x 10^8 steps, past 10 s when run
    ["padic", "--p", "1000000000000000003", "--a", "0", "--k", "1", "--m1", "2"],
    # m2 > 5^100000: the check at it was named in decimal, past Python's
    # 4300-digit limit (exit 2), and 5^(10^6) took 1.5 s to form
    ["padic", "--p", "5", "--a", "100000", "--k", "1", "--m1", "2"],
], ids=["logseries-2048-bits", "gamma-4096-bits", "six-primes", "nine-primes",
        "delta-10000-bits", "logseries-100000-bits", "padic-60-bit-p", "padic-a-100000"])
def test_whole_evaluations_are_priced_at_once(capsys, mp_powers, argv):
    # each price counts all of an evaluation's work, bits included
    t0 = time.perf_counter()
    code = main(argv)
    assert code == 3 and time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert not out and BUDGET in err
    assert len(err.strip().splitlines()) == 1
    assert mp_powers[0] == 0


@pytest.mark.parametrize("s", ["1e2000", "1e100000"])
def test_euler_product_at_a_huge_real_s(capsys, mp_powers, s):
    # every p^-s is below the grid, an integer test: 1e2000 took 17.4 s in mp
    # powers the value cannot see
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "--prec", "64", "pzeta", "--spec", "2N", "--s", s,
                        "--routes", "product")
    assert code == 0 and time.perf_counter() - t0 < 1
    assert json.loads(out)["results"][0]["value_re"] == "1.0"
    assert mp_powers[0] == 0


def test_part_one_capped_at_a_huge_multiplicity(capsys):
    # sum_{i <= cap} 1^i is cap + 1 exactly, not cap + 1 mp powers
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "--prec", "64", "pzeta", "--spec", "ones:1000000000000",
                        "--s", "2", "--routes", "product")
    assert code == 0 and time.perf_counter() - t0 < 1
    # prod_{k >= 2} (1 - k^-2)^-1 = 2
    with mp.workprec(64):
        assert mp.mpf(json.loads(out)["results"][0]["value_re"]) == 2 * (10 ** 12 + 1)


def _weight_200_profile(tmp_path):
    # Lambda(100..199) = 1, 2, ..., 100 and the functional equation below
    upper = [str(j) for j in range(1, 101)]
    return _profile_file(tmp_path, json.dumps(
        {"weight": 200, "level": 1, "sign": 1, "lambda": upper[:0:-1] + upper}))


@pytest.mark.parametrize("argv", [
    # the period polynomial of degree 198: ~1.3 x 10^9 units, hours
    lambda tmp: ["modular", "delta", "--profile", _weight_200_profile(tmp)],
    # ~11,000 terms of the profile's pass at 10^5 bits
    lambda tmp: ["--prec", "100000", "modular", "delta"],
], ids=["weight-200-profile", "delta-at-100000-bits"])
def test_modular_work_budgets_refuse_at_once(tmp_path, capsys, mp_powers, argv):
    t0 = time.perf_counter()
    code = main(argv(tmp_path))
    assert code == 3 and time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert not out and BUDGET in err
    assert len(err.strip().splitlines()) == 1
    assert mp_powers[0] == 0


def test_mzv_bruteforce_index(capsys):
    code, out = run_cli(capsys, *PREC_ARGS, "mzv", "--index", "4,2", "--bound", "500")
    assert code == 0
    data = json.loads(out)
    assert data["route"] == "bruteforce"


def test_mzv_requires_index_or_equal_args(capsys):
    assert main([*PREC_ARGS, "mzv"]) == 2


def test_padic_kummer_instance(capsys):
    code, out = run_cli(capsys, *PREC_ARGS, "padic", "--p", "5", "--a", "1",
                        "--k", "1", "--m1", "2", "--m2", "22")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["required"] == 2
    assert data["valuation_observed"] >= 2


def test_padic_auto_m2(capsys):
    code, out = run_cli(capsys, *PREC_ARGS, "padic", "--p", "7", "--a", "0",
                        "--k", "2", "--m1", "2")
    assert code == 0
    data = json.loads(out)
    assert data["m2"] == 8 and data["pass"] is True


def test_padic_invalid_exit_2(capsys):
    assert main([*PREC_ARGS, "padic", "--p", "5", "--a", "0", "--k", "3",
                 "--m1", "2"]) == 2


def test_padic_bernoulli_work_budget(capsys):
    # suggest_m2 gives m2 = 10102, which needs B_50506: refused at once
    t0 = time.perf_counter()
    code = main([*PREC_ARGS, "padic", "--p", "101", "--a", "1", "--k", "5", "--m1", "2"])
    assert code == 3 and time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert not out and BUDGET in err
    assert len(err.strip().splitlines()) == 1


def test_modular_delta_report_and_roots_csv(tmp_path, capsys):
    csv_path = tmp_path / "roots.csv"
    code, out = run_cli(capsys, "--prec", "128", "modular", "delta", "--report",
                        "--roots-csv", str(csv_path))
    assert code == 0
    data = json.loads(out)
    assert data["profile"]["weight"] == 12
    assert data["tau_head"][:3] == [1, -24, 252]
    roots = data["zeta_poly_roots"]
    assert len(roots) == 10
    with mp.workprec(160):
        for re_s, im_s in roots:
            assert abs(mp.mpf(re_s) - mp.mpf(1) / 2) < mp.mpf("1e-20")
        assert mp.mpf(data["functional_eq_residual"]) < mp.mpf("1e-20")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "re,im,residual"
    assert len(lines) == 11
    period_lines = (tmp_path / "roots.period.csv").read_text().splitlines()
    assert period_lines[0] == "re,im,residual"
    assert len(period_lines) == 11
    with mp.workprec(160):
        re_s, im_s, res_s = period_lines[1].split(",")
        assert abs(mp.sqrt(mp.mpf(re_s) ** 2 + mp.mpf(im_s) ** 2) - 1) < mp.mpf("1e-20")


@pytest.mark.parametrize("spec, factors, rest", [
    ("finite:{1000000}", [10 ** 6], None),
    ("geq:1000000", [], None),
    ("2N|finite:{1000001}", [1000001], "2N"),
    ("finite:{618970019642690137449562111}", [2 ** 89 - 1], None),
])
def test_euler_product_cost_does_not_follow_the_largest_part(capsys, spec, factors, rest):
    # the finite part enumerates its members and takes an explicit part past
    # the cutoff as one factor: no scan up to the part, no trial division up
    # to the root of a prime part
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "--prec", "64", "pzeta", "--spec", spec, "--s", "2",
                        "--routes", "product")
    assert code == 0 and time.perf_counter() - t0 < 1
    with mp.workprec(64):
        value = mp.mpf(json.loads(out)["results"][0]["value_re"])
        want = mp.mpf(1)
        for k in factors:
            want /= 1 - mp.mpf(k) ** -2
        if rest is not None:
            want *= pzeta.euler_product(parse_part_set(rest), 2, prec=64)[0]
        elif not factors:  # prod_{k >= N} k^2/(k^2 - 1) = N/(N - 1)
            want = mp.mpf(10 ** 6) / (10 ** 6 - 1)
        assert abs(value - want) <= mp.ldexp(want, -60)


def test_modular_delta_validates_past_1024_bits(capsys):
    # the profile check once ran at max(ambient, 512) bits, 552 under the
    # CLI: sign * Lambda(12 - j) rounded a 1224-bit value to 552 bits and
    # left a deviation of ~2^-560 from the equal Lambda(j), above the
    # tolerance 2^-576, so the run exited 2
    code, out = run_cli(capsys, "--prec", "1152", "modular", "delta")
    assert code == 0 and json.loads(out)["profile"]["weight"] == 12


def test_modular_delta_runs_at_3241_bits(capsys):
    # the profile's one pass prices 3.6 x 10^5 units here (0.34 s), where
    # eleven separate values were refused past 1726 bits
    code, out = run_cli(capsys, "--prec", "3241", "modular", "delta")
    assert code == 0 and json.loads(out)["profile"]["weight"] == 12


def test_modular_weight_40_profile_keeps_its_functional_equation(tmp_path, capsys):
    # Lambda(j+1) = |19 - j| + 1: at 64 bits the zeta polynomial's functional
    # equation holds to rounding, with no cancellation between moments. Its
    # leading coefficient is ~1e-29 of the largest, and it keeps all 38 roots
    # where a trim relative to the sup norm kept 19
    lam = [str(abs(19 - j) + 1) for j in range(39)]
    path = _profile_file(tmp_path, json.dumps(
        {"weight": 40, "level": 1, "sign": 1, "lambda": lam}))
    reports = {}
    for prec in ("64", "256"):
        code, out = run_cli(capsys, "--prec", prec, "modular", "delta", "--profile", path,
                            "--report")
        assert code == 0
        reports[prec] = json.loads(out)
    assert float(reports["64"]["functional_eq_residual"]) < 1e-14
    assert len(reports["64"]["zeta_poly_roots"]) == 38
    dev64, dev256 = (float(reports[p]["critical_line_max_dev"]) for p in ("64", "256"))
    assert abs(dev64 - dev256) <= 1e-12 * dev256


def test_modular_sign_minus_profile_has_no_spurious_root(tmp_path, capsys):
    # Lambda(1) + Lambda(5) = -1e-29 passes validate at 256 bits; Z's top
    # coefficient is 0 by the functional equation, not that rounding, so no
    # root runs off to ~1e30
    lam = ["-1.00000000000000000000000000001", "-0.5", "0", "0.5", "1"]
    path = _profile_file(tmp_path, json.dumps(
        {"weight": 6, "level": 1, "sign": -1, "lambda": lam}))
    code, out = run_cli(capsys, "--prec", "256", "modular", "delta", "--profile", path,
                        "--report")
    report = json.loads(out)
    assert code == 0 and len(report["zeta_poly_roots"]) == 3
    assert float(report["critical_line_max_dev"]) < 1e-25


def test_modular_report_profile_block_is_a_profile_file(tmp_path, capsys):
    # the --report profile block reads back through --profile to the same report
    code, out = run_cli(capsys, "--prec", "64", "modular", "delta", "--report")
    assert code == 0
    report = json.loads(out)
    path = _profile_file(tmp_path, json.dumps(report["profile"]))
    code, again = run_cli(capsys, "--prec", "64", "modular", "delta", "--report",
                          "--profile", path)
    assert code == 0
    again = json.loads(again)
    assert {**again, "config": None} == {**report, "config": None}


def test_pzeta_gamma_route_work_budget(capsys):
    # n = 10^6 would take ~10^6 log-gamma calls; the budget stops it at once
    t0 = time.perf_counter()
    code = main([*PREC_ARGS, "pzeta", "--spec", "2N", "--s", "1e6"])
    assert code == 3 and time.perf_counter() - t0 < 10
    err = capsys.readouterr().err
    assert BUDGET in err and len(err.strip().splitlines()) == 1
    assert main([*PREC_ARGS, "pzeta", "--spec", "2N", "--s", "1e6",
                 "--routes", "product"]) == 0


def test_logseries_work_budget(capsys):
    # ~28,000 zeta(sk) calls below the direct-sum range; the budget stops it at once
    t0 = time.perf_counter()
    code = main(["pzeta", "--spec", "2N", "--s", "0.00201", "--routes", "logseries"])
    assert code == 3 and time.perf_counter() - t0 < 10
    err = capsys.readouterr().err
    assert BUDGET in err
    assert len(err.strip().splitlines()) == 1


def _cli_process(*argv, unbuffered):
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "partizeta.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_closed_stdout_exits_0_quietly():
    # `partizeta selftest | head -3`: each line goes out as it is printed
    with _cli_process("selftest", unbuffered=True) as proc:
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0 and proc.stderr.read() == ""
    assert all(line.startswith("[PASS] A") for line in lines)
    # buffered: the report goes out at the final flush, into a closed pipe
    with _cli_process("fixedlen", "--m", "2", "--k", "1", "--exact", unbuffered=False) as proc:
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0 and proc.stderr.read() == ""


def test_usage_error_exits_2_with_one_line(capsys):
    # argparse reads "-1,2" as an option, so --s has no value
    with pytest.raises(SystemExit) as exc:
        main(["pzeta", "--spec", "2N", "--s", "-1,2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "--s" in err


def test_mzv_bruteforce_work_budget(capsys):
    # 2 x 10^11 terms would exhaust memory; the budget stops it at once
    t0 = time.perf_counter()
    code = main([*PREC_ARGS, "mzv", "--index", "2,1", "--bound", str(10 ** 11)])
    assert code == 3 and time.perf_counter() - t0 < 10
    err = capsys.readouterr().err
    assert BUDGET in err and len(err.strip().splitlines()) == 1


def test_profile_failing_validation_exit_2(tmp_path, capsys):
    # Lambda(1) != Lambda(3) breaks the functional equation: invalid input
    path = _profile_file(tmp_path, json.dumps(
        {"weight": 4, "level": 1, "sign": 1, "lambda": ["1", "2", "3"]}))
    assert main([*PREC_ARGS, "modular", "delta", "--profile", path]) == 2
    err = capsys.readouterr().err
    assert "--profile" in err and len(err.strip().splitlines()) == 1


def test_exit_codes_mapped_only_in_main():
    # every except clause outside main re-raises; main's return the exit code
    tree = ast.parse(inspect.getsource(cli))
    for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
        for handler in (n for n in ast.walk(fn) if isinstance(n, ast.ExceptHandler)):
            kinds = {type(n) for s in handler.body for n in ast.walk(s)}
            if fn.name == "main":
                assert ast.Return in kinds and ast.Raise not in kinds
            else:
                assert ast.Raise in kinds and ast.Return not in kinds, fn.name


_SPEC_TOKENS = st.one_of(
    st.just("N"), st.just("distinct"),
    st.integers(0, 8).map(lambda m: f"{m}N"),
    st.tuples(st.integers(0, 8), st.integers(0, 8)).map(lambda am: f"{am[0]}+{am[1]}N"),
    st.integers(0, 8).map(lambda g: f"geq:{g}"),
    st.integers(0, 8).map(lambda o: f"ones:{o}"),
    st.lists(st.integers(0, 8), max_size=3).map(
        lambda ps: "finite:{" + ",".join(map(str, ps)) + "}"),
    st.sampled_from(["ones:1000000000000", "2N|3N|5N|7N|11N|13N|17N|19N|23N"]),
)
_S_TOKENS = st.sampled_from(["nan", "abc", "0", "-1", "1e-9", "0.5", "2", "3.3", "2+1j",
                             "1.5", "400", "1e2000"])


def _run_at_prec(argv, prec: int = 64) -> tuple[int, str, list[str]]:
    """Run the CLI at --prec prec, usage errors included: exit 0/1/2/3 and
    never a traceback. Returns (code, stdout, stderr lines)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["--prec", str(prec), *argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue(), err.getvalue().strip().splitlines()


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(spec=st.lists(_SPEC_TOKENS, min_size=1, max_size=3).map("|".join),
       s=st.lists(_S_TOKENS, min_size=1, max_size=2).map(",".join),
       routes=st.sampled_from(["all", "product", "gamma", "logseries"]),
       prec=st.sampled_from([64, 256, 10 ** 5, 10 ** 6]))
# every route and outcome at a huge precision: refusals, a zero rule, a pole
@example(spec="2N", s="3.3,2", routes="all", prec=10 ** 6)
@example(spec="2N", s="400", routes="gamma", prec=10 ** 5)
@example(spec="3N", s="1.5", routes="logseries", prec=10 ** 5)
@example(spec="2N|3N|5N|7N|11N|13N|17N|19N|23N", s="2", routes="product", prec=10 ** 5)
@example(spec="ones:1000000000000", s="1e2000", routes="product", prec=10 ** 5)
@example(spec="2N", s="0.5", routes="all", prec=10 ** 5)
def test_pzeta_exit_code_contract(spec, s, routes, prec):
    t0 = time.perf_counter()
    # --s=... : argparse would read a leading "-1" as an option
    code, out, err = _run_at_prec(["pzeta", "--spec", spec, f"--s={s}", "--routes", routes],
                                  prec)
    assert code in (0, 2, 3)
    if code:
        assert len(err) == 1, (spec, s, err)
    else:
        assert json.loads(out)["results"]
    if prec >= 10 ** 5:
        # every route prices its bits: a run at this precision is a pole, an
        # empty product, a zero rule, invalid, or refused at once
        assert time.perf_counter() - t0 < 2, (spec, s, routes, prec)
        assert code != 3 or BUDGET in err[0], (spec, s, routes, prec, err)


_SMALL = st.integers(-2, 8).map(str)
_EXACT = st.sampled_from([[], ["--exact"]])
# the fixedlen routes refuse sizes past their work budgets at once
_SIZE = st.one_of(_SMALL, st.sampled_from(["1000", str(10 ** 400)]))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(argv=st.one_of(
    st.tuples(_SIZE, _SIZE, _EXACT).map(
        lambda t: ["fixedlen", "--m", t[0], "--k", t[1], *t[2]]),
    st.tuples(_SMALL, _SMALL, _EXACT).map(
        lambda t: ["mzv", "--equal-args", t[0], t[1], *t[2]]),
    st.tuples(_SIZE, _SIZE).map(lambda t: ["mzv", "--equal-args", t[0], t[1], "--exact"]),
    st.tuples(st.integers(-1, 13).map(str), st.integers(-1, 3).map(str), _SMALL, _SMALL,
              st.one_of(st.just([]), _SMALL.map(lambda m2: ["--m2", m2]))).map(
        lambda t: ["padic", "--p", t[0], "--a", t[1], "--k", t[2], "--m1", t[3], *t[4]]),
))
def test_fixedlen_mzv_padic_exit_code_contract(argv):
    code, out, err = _run_at_prec(argv)
    if out:  # a failed p-adic congruence exits 3 and still writes its report
        assert code in (0, 3)
        json.loads(out)
    else:
        assert code and len(err) == 1, (argv, err)


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers(-10 ** 30, 10 ** 30) | st.sampled_from([10 ** 4000, -(10 ** 400)]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)
_LAMBDA_ENTRY = st.one_of(
    st.sampled_from(["1", "2", "0", "-1", "nan", "inf", "-inf", "1e999999", "1e-999999",
                     "1e100000000000", "1e-100000000000", "abc", "", "1,5", "0x10"]),
    st.floats(), st.integers(-10 ** 20, 10 ** 20), _JSON)
# weight-4 profiles with Lambda(1) = Lambda(3), Lambda(2) <= Lambda(3): valid as they stand
_VALID = {"weight": 4, "level": 1, "sign": 1, "lambda": ["2", "1", "2"], "source": "fuzz"}


@st.composite
def _profile_texts(draw):
    prof = dict(_VALID, sign=draw(st.sampled_from([1, -1])))
    if prof["sign"] == -1:
        prof["lambda"] = ["2", "0", "-2"]
    for key in draw(st.lists(st.sampled_from(sorted(_VALID)), max_size=2, unique=True)):
        action = draw(st.sampled_from(["drop", "json", "entries"]))
        if action == "drop":
            del prof[key]
        elif action == "entries" and key == "lambda":
            prof[key] = draw(st.lists(_LAMBDA_ENTRY, max_size=5))
        else:
            prof[key] = draw(st.one_of(_JSON, st.sampled_from([0, -4, 5, 12, 2.5, "4", "x"])))
    if draw(st.booleans()):
        return json.dumps(prof)
    return draw(st.sampled_from([json.dumps(prof)[:-1], json.dumps([prof]), "[" * 5000,
                                 json.dumps(prof).replace('"2"', "2e999"), ""]))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(text=_profile_texts())
# values 3.3 x 10^11 bits apart: their exact difference once ran out of memory
@example(text=json.dumps(dict(_VALID, **{"lambda": ["1e100000000000", 1, "1e100000000000"]})))
def test_modular_profile_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("profile") / "profile.json"
    path.write_text(text)
    code, out, err = _run_at_prec(["modular", "delta", "--profile", str(path)])
    if code:
        assert code in (2, 3) and len(err) == 1 and not out, (text, err)
    else:
        profile = json.loads(out)["profile"]
        assert profile["weight"] == 4 and all(mp.isfinite(mp.mpf(v)) for v in profile["lambda"])


@pytest.mark.parametrize("text", [
    json.dumps(dict(_VALID, **{"lambda": ["nan", "1", "nan"]})),
    json.dumps(dict(_VALID, level=0)),
    json.dumps(dict(_VALID, weight=float("inf"))),
    "[" * 5000,
    json.dumps(dict(_VALID, **{"lambda": "212"})),
    json.dumps(dict(_VALID, weight=4.7)),
    json.dumps(dict(_VALID, level=True)),
    json.dumps(dict(_VALID, **{"lambda": ["0", "0", "0"]})),
    json.dumps(dict(_VALID, **{"lambda": ["1e-100000000000", "1e-100000000000", 1]})),
], ids=["nan-lambda", "level-0", "infinite-weight", "nested-too-deep", "lambda-string",
        "float-weight", "bool-level", "zero-lambda", "far-apart-lambda"])
def test_modular_profile_invalid_exit_2(tmp_path, text):
    code, out, err = _run_at_prec(["modular", "delta", "--profile",
                                   _profile_file(tmp_path, text)])
    assert code == 2 and len(err) == 1 and not out, err
    assert "--profile" in err[0]


def _profile_file(tmp_path, text):
    path = tmp_path / "profile.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda tmp: ["modular", "delta", "--profile", str(tmp / "missing.json")],
    lambda tmp: ["--out", str(tmp / "no" / "such" / "x.json"), "fixedlen",
                 "--m", "2", "--k", "1", "--exact"],
    lambda tmp: ["modular", "delta", "--profile",
                 _profile_file(tmp, '{"weight": 12, "level": 1, "sign": 1}')],
    lambda tmp: ["modular", "delta", "--profile", _profile_file(tmp, "not json")],
], ids=["missing-profile", "unwritable-out", "profile-without-lambda", "profile-not-json"])
def test_bad_files_exit_2_with_one_line(tmp_path, capsys, argv):
    assert main([*PREC_ARGS, *argv(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_report_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code = main([*PREC_ARGS, "--out", str(path), "fixedlen",
                     "--m", "2", "--k", "2", "--exact"])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert "build" in data["config"] and len(data["config"]["build"]) == 12


def test_csv_format_output(capsys):
    code, out = run_cli(capsys, "--prec", "128", "--format", "csv",
                        "fixedlen", "--m", "2", "--k", "1", "--exact")
    assert code == 0
    assert "exact_rational,1/6" in out


def test_prec_gate(capsys):
    assert main(["--prec", "32", "fixedlen", "--m", "2", "--k", "1"]) == 2
