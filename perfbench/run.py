"""partizeta benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every round starts a fresh interpreter, so the package's module-level caches
(Bernoulli tables, zeta and tau caches, Spouge coefficients) start empty each
time. ``scan``, ``exact`` and ``modular`` run their request list in one
worker process per round; ``cli`` starts one process per request. Each
workload is a single client in a closed loop.

Rounds repeat the request list until the next would end past ``--seconds``.
Each request's latency is its mean over the untraced cold rounds;
``wall_s`` is the sum of these latencies, and ``req_p50_s`` and
``req_tail_s`` are taken over them, one sample per request. ``setup_s`` is
the median of set-up probes spread over the run.

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
including the tracing overhead. Outputs of every round are checked against
independent references after the timed rounds. The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; a run record
(environment, host-speed probe, every metric with its unit and sample count)
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from launcher import MARKER  # noqa: E402

# Rounds repeat the whole request list until the next one would end past
# --seconds; the statistics are per request, so the sample count and the
# tail percentile do not depend on how many rounds fit.
MIN_ROUNDS = 3
SETUP_FIRST = 3  # set-up probes before the first round; one more after each
SETUP_PROBES = 11  # at least this many in all
LIMIT_S = 150  # timeout of one round's process
MIB = 1024

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "req_p50_s": "s", "req_tail_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in tracer.SPANS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    units.update({
        f"{tracer.ZETA}.calls_re_gt_50": "count",
        f"{tracer.ZETA}.calls_int": "count",
        f"{tracer.BERN}.max_n": "index",
        f"{tracer.BERN}.grow_frac": "frac",
        f"{tracer.LEM}.zeta_per_call": "calls/call",
        f"{tracer.EULER}.tail_per_call": "calls/call",
        "cli.import_s": "s",
        "cli.main.self_s": "s",
        "trace.overhead_frac": "frac",
    })
    units.update({f"layer.{layer}.self_frac": "frac" for layer in tracer.LAYERS})
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def host_probe() -> float:
    """A fixed pure-Python loop; a diagnostic of host speed, never a scale."""
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t


# ----------------------------------------------------------------------
def start_worker(trace: bool) -> tuple[subprocess.Popen, float]:
    """Launch a worker; returns it and its launch-to-ready time."""
    argv = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if not line.startswith('{"ready"'):
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not start")
    return proc, ready


def setup_probe(workload: str) -> float:
    if workload == "cli":
        # with pipes, the end of the child is seen when its pipes close; a
        # bare wait with a timeout polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "launcher.py"), "--import-only"],
                       env=child_env(), cwd=ROOT, check=True, timeout=60, capture_output=True)
        return time.perf_counter() - t0
    proc, ready = start_worker(trace=False)
    proc.communicate(input="", timeout=60)
    return ready


def worker_round(reqs: list[dict], trace: bool) -> dict:
    proc, _ = start_worker(trace)
    try:
        out, _ = proc.communicate(input=json.dumps(reqs) + "\n", timeout=LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    res = json.loads(out.strip().splitlines()[-1])
    summary = None
    if trace:
        summary = tracer.summarize(res["spans"], "bench.round")
    return {"wall_s": res["wall_s"], "latency_s": res["latency_s"], "rss_kb": res["rss_kb"],
            "import_s": [res["import_s"]], "outputs": res["outputs"], "errors": res["errors"],
            "summary": summary, "spans": res.get("spans")}


def cli_round(reqs: list[dict], trace: bool, tmp: pathlib.Path,
              deadline: float | None = None, expected: list[float] | None = None) -> dict:
    """One process per request. With a deadline, a request whose expected
    latency would end past it is skipped (``None`` in every list), so the last
    round of a run fills the time left instead of overrunning it."""
    lat, rss, imports, outputs, errors, summaries, spans = [], [], [], [], [], [], []
    for i, req in enumerate(reqs):
        if deadline is not None and time.perf_counter() + expected[i] > deadline:
            for xs in (lat, outputs, errors):
                xs.append(None)
            continue
        work = tmp / f"req{i}"
        work.mkdir(parents=True, exist_ok=True)
        argv = [a.replace("{tmp}", str(work)) for a in req["argv"]]
        cmd = [sys.executable, str(HERE / "launcher.py")] + (["--trace"] if trace else [])
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + ["--"] + argv, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=LIMIT_S)
        lat.append(time.perf_counter() - t0)
        tail = proc.stderr.rsplit(MARKER, 1)
        record = json.loads(tail[1]) if len(tail) == 2 else None
        outputs.append({"code": proc.returncode, "stdout": proc.stdout, "dir": str(work)})
        errors.append(None if record else f"no launcher record: {proc.stderr[-300:]}")
        if record:
            rss.append(record["rss_kb"])
            imports.append(record["import_s"])
            if trace:
                summaries.append(tracer.summarize(record["spans"], "bench.process"))
                spans.append(record["spans"])
    return {"wall_s": sum(x for x in lat if x is not None), "latency_s": lat,
            "rss_kb": max(rss, default=0), "import_s": imports, "outputs": outputs,
            "errors": errors, "summary": tracer.merge(summaries) if trace else None, "spans": spans}


# ----------------------------------------------------------------------
def tail_stat(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples beyond."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def label(req: dict) -> str:
    """Request kind, with the CLI subcommand (and pzeta route) for ``cli``."""
    if req["kind"] != "cli":
        return req["kind"]
    argv = req["argv"]
    return " ".join(argv[:1] + argv[-1:]) if argv[0] == "pzeta" else argv[0]


def check_round(refs, reqs, rnd, cache) -> list[str]:
    """Failure reasons of one round (empty when every answer is right)."""
    failures = []
    for i, (req, out, err) in enumerate(zip(reqs, rnd["outputs"], rnd["errors"])):
        if rnd["latency_s"][i] is None:  # skipped at the end of a cli run
            continue
        if err:
            failures.append(f"request {i}: {err}")
            continue
        if req["kind"] == "cli":
            why = refs.check_cli(req, out["code"], out["stdout"], pathlib.Path(out["dir"]))
        else:
            key = (i, json.dumps(out))
            if key not in cache:
                cache[key] = refs.check(req, out)
            why = cache[key]
        if why:
            failures.append(f"request {i} ({req['kind']}): {why}")
    return failures


def environment(workload: str, seed: int) -> dict:
    import mpmath
    import platform

    sys.path.insert(0, str(SRC))
    import partizeta

    return {
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
        "build_id": partizeta.build_id(), "workload": workload, "seed": seed,
    }


def main(argv=None) -> int:
    # on SIGTERM, unwind so that every ``finally`` stops its child process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS) + ("all",),
                    help="one workload, or all of them in turn (no JSON line then)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "partizeta" / "__init__.py").is_file():
        print(f"no partizeta source under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "partizeta"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[0]))
    return 0


def run_workload(workload: str, seed: int, seconds: int, trace_flag: int) -> dict:
    """One run of one workload: prints the readable lines, writes the run
    record and returns the result object."""
    trace = bool(trace_flag)
    reqs = workloads.requests(workload, seed)
    # a traced run needs an untraced and a traced round; a cli round is long,
    # and after two full ones the last may stop short
    least = 2 if trace or workload == "cli" else MIN_ROUNDS
    started = time.perf_counter()
    deadline = started + seconds
    # set-up probes are spread over the run, so one slow moment of the host
    # does not move all of them
    setup = [setup_probe(workload) for _ in range(SETUP_FIRST)]
    tmp = OUT / f"tmp-{os.getpid()}"
    done, probes = [], []
    try:
        while True:
            traced = trace and len(done) % 2 == 1
            # the last untraced cli round may stop short; every other round
            # (traced ones too, whose counts must repeat) is started only if
            # it fits before the deadline
            partial = workload == "cli" and not traced and len(done) >= least
            if partial:
                expected = request_latency([r for r in done if not r["traced"]])
                if time.perf_counter() + min(expected) > deadline:
                    break
            elif len(done) >= least:
                same = [r["elapsed_s"] for r in done if r["traced"] == traced][-2:]
                if time.perf_counter() + max(same or [done[-1]["elapsed_s"]]) > deadline:
                    break
            t0 = time.perf_counter()
            before = host_probe()
            if workload == "cli":
                rnd = cli_round(reqs, traced, tmp / f"round{len(done)}",
                                deadline if partial else None, expected if partial else None)
            else:
                rnd = worker_round(reqs, traced)
            rnd["traced"] = traced
            probes.append({"round": len(done), "traced": traced, "before_s": before,
                           "after_s": host_probe(), "wall_s": rnd["wall_s"]})
            setup.append(setup_probe(workload))
            rnd["elapsed_s"] = time.perf_counter() - t0
            done.append(rnd)
        while len(setup) < SETUP_PROBES:
            setup.append(setup_probe(workload))
        measured_s = time.perf_counter() - started
        refs = reference.References()
        cache: dict = {}
        failures = [f for rnd in done for f in check_round(refs, reqs, rnd, cache)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [r for r in done if not r["traced"]]
    traced_rounds = [r for r in done if r["traced"]]
    lat = request_latency(plain)
    tail, pct = tail_stat(lat)
    kinds = sorted((x, label(req)) for x, req in zip(lat, reqs))
    e2e = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (sum(lat), len(plain)),
        "req_p50_s": (statistics.median(lat), len(lat)),
        "req_tail_s": (tail, len(lat)),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in plain) / MIB, len(plain)),
    }
    attempted = sum(x is not None for r in done for x in r["latency_s"])
    failed = len(failures)
    record = {
        "environment": environment(workload, seed),
        "seconds": seconds, "measured_s": measured_s, "trace": trace_flag,
        "rounds": len(done), "untraced_rounds": len(plain),
        "requests_per_round": len(reqs),
        "integer_argument_share": workloads.integer_argument_share(reqs),
        "host_probe": probes, "setup_samples_s": setup,
        "failed_frac": failed / attempted, "failures": failures[:20],
        "req_tail_percentile": pct,
        "req_p50_request": kinds[len(kinds) // 2][1], "req_tail_request": kinds[-min(11, len(kinds))][1],
        "latency_s": [r["latency_s"] for r in plain],
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k], "samples": n}
                       for k, (v, n) in e2e.items()},
    }
    if trace:
        layer = layer_values(traced_rounds, plain)
        units = per_layer_units()
        record["per_layer"] = {k: {"value": v, "unit": units[k], "samples": len(traced_rounds)}
                               for k, v in layer.items()}
        record["counts_repeat"] = counts_repeat(traced_rounds)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in e2e.items()}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{trace_flag}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if trace:
        with gzip.open(f"{stem}-spans.json.gz", "wt") as fh:
            json.dump([r["spans"] for r in traced_rounds[:1]], fh)

    for name, (value, n) in e2e.items():
        print(f"{workload} {name} = {value:.6g} {END_TO_END[name]} (n={n})")
    print(f"{workload} req_tail_s is the p{pct:.1f} latency of {len(lat)} requests, "
          f"each its mean over {len(plain)} untraced rounds")
    print(f"{workload} failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"{workload} share of requests at integer arguments = "
          f"{record['integer_argument_share']:.3f}")
    for why in failures[:5]:
        print(f"  FAILED {why}")
    print(f"{workload} run record: {stem.with_suffix('.json').relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_values(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics: the median over traced rounds of each round's value."""
    per_round = []
    for rnd in traced:
        m = tracer.layer_metrics(rnd["summary"])
        m["cli.import_s"] = statistics.median(rnd["import_s"])
        m["cli.main.self_s"] = rnd["summary"].get("layer.cli.self_s", 0)
        per_round.append(m)
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    out["trace.overhead_frac"] = sum(request_latency(traced)) / sum(request_latency(plain)) - 1
    return out


def request_latency(rounds: list[dict]) -> list[float]:
    """Each request's latency: its mean over the cold rounds that ran it.

    A shared host changes speed by up to half for seconds at a time, so each
    round of a request meets it at another speed. The mean over the rounds
    follows the host's average over the run; the fastest round, the median
    or a lower quantile each follow how many fast spells one run happens to
    catch, which spreads more from run to run."""
    n = len(rounds[0]["latency_s"])
    return [statistics.fmean(x for r in rounds if (x := r["latency_s"][i]) is not None)
            for i in range(n)]


def counts_repeat(traced: list[dict]) -> bool:
    """Whether every count repeated exactly across the traced rounds."""
    keys = [k for k in traced[0]["summary"] if k.endswith(("calls", ".max_n"))]
    return all(r["summary"].get(k) == traced[0]["summary"][k] for r in traced for k in keys)


if __name__ == "__main__":
    sys.exit(main())
