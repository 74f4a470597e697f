"""Tests of the benchmark itself: tracer, references, cold start, generators.

    python3 -m pytest -q perfbench/test_perfbench.py

Traced calls run in worker subprocesses, so the tracer never rebinds the
partizeta modules of the test process.
"""

from __future__ import annotations

import json
import pathlib

import mpmath as mp
import pytest

import reference
import run
import tracer
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
S = "3458764513820540929/1152921504606846976"  # 3.0000000000000000009


def traced(reqs: list[dict]) -> list[list]:
    rnd = run.worker_round(reqs, trace=True)
    assert rnd["errors"] == [None] * len(reqs)
    return rnd["spans"]


def under(spans, name, ancestor) -> int:
    """How many ``name`` spans have an ``ancestor`` span above them."""
    count = 0
    for sp in spans:
        if sp[0] != name:
            continue
        p = sp[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        count += p >= 0
    return count


def test_traced_log_series_records_internal_zeta_calls():
    spans = traced([{"kind": "lem", "m": 3, "s": ["3/2", None], "prec": 128}])
    assert under(spans, "numerics.zeta.riemann_zeta", "pzeta.log_eval_multiples") > 10


def test_traced_kummer_check_records_table_spans():
    spans = traced([{"kind": "kummer", "p": 5, "a": 0, "k1": 2, "k2": 6}])
    assert under(spans, "numerics.tables.bernoulli_table", "padic.kummer_check") == 2


def test_self_times_sum_to_root_duration():
    spans = traced([{"kind": "euler", "spec": workloads.spec(classes=[(0, 2)]),
                     "s": [S, None], "prec": 128},
                    {"kind": "ehrhart", "k": 6, "d": 2}])
    c = tracer.summarize(spans, "bench.round")
    self_total = sum(v for k, v in c.items() if k.startswith("layer."))
    assert self_total == pytest.approx(c["root_s"], rel=1e-9, abs=1e-12)


def test_two_cold_rounds_report_identical_counts():
    reqs = [{"kind": "kummer", "p": 7, "a": 0, "k1": 10, "k2": 40},
            {"kind": "lem", "m": 4, "s": [S, None], "prec": 128},
            {"kind": "kummer", "p": 5, "a": 0, "k1": 6, "k2": 14}]
    first, second = (tracer.summarize(traced(reqs), "bench.round") for _ in range(2))
    keys = ["numerics.tables.bernoulli_table.calls", "numerics.tables.bernoulli_table.max_n",
            "numerics.tables.bernoulli_table.grow_calls", "numerics.zeta.riemann_zeta.calls",
            "pzeta.log_eval_multiples.zeta_calls"]
    assert [first[k] for k in keys] == [second[k] for k in keys]
    assert first["numerics.tables.bernoulli_table.grow_calls"] >= 2  # cold: the table grew


def test_reference_flags_perturbed_value_and_wrong_pole():
    refs = reference.References()
    req = {"kind": "lem", "m": 3, "s": [S, None], "prec": 256}
    with mp.workprec(300):
        value = reference.log_eval_multiples(3, reference.parse_real(S), 256)
        good = mp.nstr(value, 80)
        bad = mp.nstr(value * (1 + mp.mpf("1e-33")), 80)
    assert refs.check(req, good) is None
    assert refs.check(req, bad) is not None
    assert refs.check(req, {"pole_at_k": 1}) is not None
    pole = {"kind": "lem", "m": 3, "s": ["1/2", None], "pole": 2, "prec": 256}
    assert refs.check(pole, {"pole_at_k": 2}) is None
    assert refs.check(pole, good) is not None


def test_reference_flags_nonzero_cli_exit(tmp_path: pathlib.Path):
    refs = reference.References()
    req = {"kind": "cli", "argv": ["padic", "--p", "5", "--a", "0", "--k", "1", "--m1", "2"],
           "check": "padic"}
    report = json.dumps({"config": {"precision_bits": 256}, "pass": True, "required": 1,
                         "valuation_observed": 3})
    assert refs.check_cli(req, 0, report, tmp_path) is None
    assert refs.check_cli(req, 3, report, tmp_path) is not None


@pytest.mark.parametrize("workload", workloads.GENERATORS)
def test_request_list_is_a_function_of_workload_and_seed(workload):
    assert workloads.requests(workload, 5) == workloads.requests(workload, 5)
    assert workloads.requests(workload, 5) != workloads.requests(workload, 6)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail_stat([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)


def test_request_latency_is_one_sample_per_request():
    rounds = [{"latency_s": [1.0, 5.0, 2.0]}, {"latency_s": [2.0, 3.0, 2.5]},
              {"latency_s": [9.0, 4.0, 2.3]},
              {"latency_s": [4.0, None, None]}]  # a cli round cut short at the deadline
    assert run.request_latency(rounds) == pytest.approx([4.0, 4.0, 2.266666666666667])


def test_benchmark_json_names_what_the_run_prints():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()
