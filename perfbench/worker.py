"""One fresh process that runs a request list in a closed loop.

Protocol (one JSON object per line): the worker imports partizeta and
prints ``{"ready": ...}``; it then reads one line holding the request list
(end of input means a set-up probe: exit at once), runs the requests one
after another, and prints one result line. Values are serialized only after
the timed loop, so formatting is not part of any latency.

    python3 perfbench/worker.py [--trace]   (with src/ on PYTHONPATH)

mpmath and partizeta are imported inside functions, so the import that
``main`` times covers all of the package's import cost; the argument
parsers of ``reference`` (which never imports partizeta) are imported after
that timed import.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class Session:
    """Executes requests; keeps the profiles that later requests read."""

    def __init__(self, pz):
        from reference import parse_number

        self.pz = pz
        self.parse = parse_number
        self.profiles = {}

    def run(self, req):
        pz = self.pz
        import mpmath as mp

        kind = req["kind"]
        prec = req.get("prec", 256)
        if kind == "lem":
            with mp.workprec(prec):
                s = self.parse(req["s"])
            return pz.pzeta.log_eval_multiples(req["m"], s, prec=prec)
        if kind == "euler":
            with mp.workprec(prec):
                s = self.parse(req["s"])
            spec = pz.partitions.parse_part_set(req["spec"]["text"])
            return pz.pzeta.euler_product(spec, s, prec=prec)[0]
        if kind == "gamma":
            return pz.pzeta.closed_form_gamma(req["a"], req["m"], req["n"], prec=prec)
        if kind == "mobius":
            return pz.pzeta.zeta_via_mobius(req["m"], req["n"], req["K"], prec=prec)
        if kind == "kummer":
            return pz.padic.kummer_check(req["p"], req["a"], req["k1"], req["k2"])
        if kind == "interp":
            return pz.padic.interpolation_check(req["p"], req["a"], req["k"],
                                                req["m1"], req["m2"])
        if kind == "fixedlen_exact":
            return pz.fixedlen.fixedlen_zeta_exact(req["m"], req["k"])
        if kind == "mzv_exact":
            return pz.fixedlen.mzv_equal_args_exact(req["n"], req["k"])
        if kind == "hk_poly":
            return pz.modular.hk_polynomial(req["k"], req["sign"])
        if kind == "ehrhart":
            return pz.modular.ehrhart_simplex_count(req["k"], req["d"])
        if kind == "delta":
            prof = pz.modular.build_delta_profile(prec=prec)
            self.profiles[prec] = prof
            return prof.lam
        if kind == "zpoly":
            prof = self.profiles[prec]
            Z = pz.modular.zeta_polynomial(prof, prec)
            fe = pz.modular.functional_eq_check(Z, prof.sign, prec)
            roots, dev = pz.modular.rh_check(Z, prec)
            return {"fe": fe, "dev": dev, "roots": roots}
        if kind == "period_roots":
            R = pz.modular.period_polynomial(self.profiles[prec], prec)
            return pz.numerics.poly_roots(R, prec=prec)[0]
        if kind == "hk_zeros":
            return pz.modular.hk_zero_solver(req["k"], req["sign"], prec=prec)
        if kind == "hk_roots":
            H = pz.numerics.poly_negate_var(pz.modular.hk_polynomial(req["k"], req["sign"]))
            co = pz.numerics.poly_to_mpc(H, prec + pz.numerics.GUARD_BITS)
            return pz.numerics.poly_roots(co, prec=prec)[0]
        raise ValueError(f"unknown request kind {kind!r}")


def encode(value, prec: int):
    """JSON form of a result: exact rationals as 'n/d', reals with every digit."""
    import mpmath as mp
    from fractions import Fraction

    from partizeta.pzeta import PoleReport

    digits = int(prec * 0.30103) + 3
    if isinstance(value, PoleReport):
        return {"pole_at_k": value.pole_at_k}
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, mp.mpf):
        return mp.nstr(value, digits, strip_zeros=False)
    if isinstance(value, mp.mpc):
        return [mp.nstr(value.real, digits, strip_zeros=False),
                mp.nstr(value.imag, digits, strip_zeros=False)]
    if isinstance(value, dict):
        return {k: encode(v, prec) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v, prec) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def main(argv) -> int:
    trace = "--trace" in argv
    t0 = time.perf_counter()
    import partizeta as pz

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print(json.dumps({"ready": True}), flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    reqs = json.loads(line)
    session = Session(pz)
    results, lat, errors = [], [], []
    root = tracer.begin("bench.round") if tracer else None
    start = time.perf_counter()
    for req in reqs:
        t = time.perf_counter()
        span = tracer.begin("bench.request") if tracer else None
        try:
            out, err = session.run(req), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end(span)
        lat.append(time.perf_counter() - t)
        results.append(out)
        errors.append(err)
    wall = time.perf_counter() - start
    if tracer:
        tracer.end(root)
    encoded = [None if e else encode(v, r.get("prec", 256))
               for v, e, r in zip(results, errors, reqs)]
    payload = {
        "wall_s": wall, "latency_s": lat, "outputs": encoded, "errors": errors,
        "import_s": import_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        payload["spans"] = tracer.dump()
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
