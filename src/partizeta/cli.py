"""Command-line front end.

Subcommands: pzeta, fixedlen, mzv, padic, modular, selftest. Global flags
--prec/--out/--format control precision and emission; every route's
accuracy follows --prec. Reports are deterministic: identical invocations
produce byte-identical output (sorted keys, fixed digit counts, no
timestamps), and every report embeds the run configuration, a build
identifier, and per-value route provenance.

Exit codes: 0 success (a reader closing stdout early included), 1 selftest
failure, 2 invalid parameters/spec/file, 3 numeric failure (non-convergence,
a certificate above its target, the work budget exceeded, a failed p-adic
check). ``main`` maps exceptions to these codes, one stderr line each.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_rational, round_nearest

from . import __version__, build_id, fixedlen, modular, padic, pzeta
from .numerics import digits_for, poly_eval, poly_roots, working
from .partitions import DivergentPartSetError, parse_part_set

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3


class RunConfig:
    def __init__(self, args):
        self.precision_bits = args.prec
        if self.precision_bits < 64:
            raise ValueError("--prec must be at least 64")
        self.fmt = args.format
        self.out = args.out
        self.digits = digits_for(self.precision_bits)

    def header(self) -> dict:
        return {
            "build": build_id(),
            "version": __version__,
            "precision_bits": self.precision_bits,
            "format": self.fmt,
        }


def _numstr(cfg, x) -> str:
    return mp.nstr(mp.mpmathify(x), cfg.digits)


def _emit(cfg: RunConfig, payload: dict) -> None:
    payload = {"config": cfg.header(), **payload}
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(_flatten_csv(payload))
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten_csv(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten_csv(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        for i, item in enumerate(payload):
            rows.extend(_flatten_csv(item, f"{prefix}{i}."))
    else:
        rows.append([prefix.rstrip("."), payload])
    return rows


def _write_roots_csv(path, roots, residuals, cfg):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["re", "im", "residual"])
        for r, e in zip(roots, residuals):
            writer.writerow([_numstr(cfg, mp.re(r)), _numstr(cfg, mp.im(r)), _numstr(cfg, e)])


@contextmanager
def _naming(what: str):
    """Prefix a ValueError or ArithmeticError raised inside with the input it
    concerns; ``main`` turns the class into the exit code."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    except ArithmeticError as exc:
        raise ArithmeticError(f"{what}: {exc}") from exc


# ----------------------------------------------------------------------
def _pzeta_routes_at(spec, s, wanted, cfg):
    """Evaluate every applicable route at one argument; returns {name: value}
    (values may be PoleReports) and {name: tail bound}."""
    routes = {}
    tails = {}
    if wanted in ("product", "all") and mp.re(s) > 1:
        routes["product"], tails["product"] = pzeta.euler_product(
            spec, s, prec=cfg.precision_bits)
    cls = spec.single_class()
    if wanted in ("gamma", "all") and cls and mp.im(s) == 0 \
            and s == mp.floor(s) and int(s) >= 2:
        routes["gamma"] = pzeta.closed_form_gamma(*cls, int(s), prec=cfg.precision_bits)
    if wanted in ("logseries", "all") and cls and cls[0] == 0:
        out = pzeta.log_eval_multiples(cls[1], s, prec=cfg.precision_bits)
        if isinstance(out, pzeta.PoleReport):
            routes["logseries"] = out
        else:
            with working(cfg.precision_bits):
                routes["logseries"] = mp.exp(out)
    return routes, tails


# a + bj as mpmath reads it, spaces removed: either part may be missing
_COMPLEX = re.compile(r"\(?(?P<re>[+-]?\d*(?:\.\d*)?(?:e[+-]?\d+)?)??"
                      r"(?P<im>[+-]?\d*(?:\.\d*)?(?:e[+-]?\d+)?j)?\)?")


def _parse_s(tok: str):
    """One --s token at the working precision, in the forms mpmath reads: a
    decimal or p/q, inf or nan, or a + bj (an mpc even when b = 0). Each part
    is an exact Fraction, rounded once: mpmath's own decimal path
    normalizes an exact quotient such as 25/10 a byte at a time, 3.6 s at
    10^6 bits."""
    text = tok.strip().lower()
    if "j" not in text:
        return _parse_real(text)
    parts = _COMPLEX.fullmatch(text.replace(" ", ""))
    if parts is None or parts["im"] is None:
        raise ValueError(tok)
    return mp.mpc(_parse_real(parts["re"] or "0"), _parse_real(parts["im"][:-1]))


def _parse_real(text: str):
    _, _, exponent = text.partition("e")
    if text in ("inf", "+inf", "-inf", "nan") or exponent and abs(int(exponent)) > 400:
        return mp.mpf(text)  # no exact value, or one mpmath scales by 10^exponent itself
    x = Fraction(text)
    return mp.mpf(from_rational(x.numerator, x.denominator, mp.mp.prec, round_nearest))


def cmd_pzeta(args, cfg: RunConfig) -> int:
    with _naming(f"--spec {args.spec!r}"):
        spec = parse_part_set(args.spec)
    if spec.is_divergent_for_zeta():
        raise DivergentPartSetError(f"part set {spec.spec_string()!r} diverges: part 1 "
                                    "with unbounded multiplicity")
    try:
        with working(cfg.precision_bits):
            grid = sorted((_parse_s(tok) for tok in args.s.split(",") if tok.strip()),
                          key=lambda z: (mp.re(z), mp.im(z)))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--s {args.s!r}: expected numbers separated by commas") from None
    if not grid or not all(mp.isfinite(z) for z in grid):
        raise ValueError(f"--s {args.s!r}: give one or more finite numbers")

    results = []
    deviations = {}
    produced = 0
    for s in grid:  # sorted by parameter: order-stable aggregation
        with _naming(f"at s={mp.nstr(s, 8)}"):
            routes, tails = _pzeta_routes_at(spec, s, args.routes, cfg)
        produced += len(routes)
        for name in sorted(routes):
            val = routes[name]
            if isinstance(val, pzeta.PoleReport):
                results.append({"route": name, "spec": spec.spec_string(),
                                "s": _numstr(cfg, s), "pole_at_k": val.pole_at_k,
                                "message": val.message})
                continue
            rec = {
                "route": name,
                "spec": spec.spec_string(),
                "s": _numstr(cfg, s),
                "value_re": _numstr(cfg, mp.re(val)),
                "value_im": _numstr(cfg, mp.im(val)),
                "precision_bits": cfg.precision_bits,
            }
            if name in tails:
                rec["tail_bound"] = _numstr(cfg, tails[name])
            results.append(rec)
        with working(cfg.precision_bits):
            names = [n for n in sorted(routes)
                     if not isinstance(routes[n], pzeta.PoleReport)]
            for i, ni in enumerate(names):
                for nj in names[i + 1:]:
                    key = f"{ni}-vs-{nj}" if len(grid) == 1 \
                        else f"s={mp.nstr(s, 8)}:{ni}-vs-{nj}"
                    deviations[key] = _numstr(cfg, abs(routes[ni] - routes[nj]))
    if not produced:
        raise ValueError(f"no applicable route {args.routes!r} for spec "
                         f"{spec.spec_string()!r} at --s {args.s!r}")
    _emit(cfg, {"command": "pzeta", "results": results,
                "pairwise_deviation": deviations})
    return EXIT_OK


def _ratio_text(r) -> str:
    """A Fraction as "p/q", past the int-to-str digit limit parsing keeps."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{r.numerator}/{r.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_fixedlen(args, cfg: RunConfig) -> int:
    if args.exact:
        r = fixedlen.fixedlen_zeta_exact(args.m, args.k)
        payload = {
            "command": "fixedlen", "kind": "fixedlen", "m": args.m, "k": args.k,
            "route": "determinant-exact",
            "exact_rational": _ratio_text(r),
            "pi_power": args.m * args.k,
            "rendered": f"{_ratio_text(r)} * pi^{args.m * args.k}",
        }
    else:
        v = fixedlen.fixedlen_zeta(args.m, args.k, prec=cfg.precision_bits)
        payload = {"command": "fixedlen", "kind": "fixedlen", "m": args.m,
                   "k": args.k, "route": "series-exp", "value": _numstr(cfg, v)}
    _emit(cfg, payload)
    return EXIT_OK


def cmd_mzv(args, cfg: RunConfig) -> int:
    if args.equal_args:
        n, k = args.equal_args
        if args.exact:
            r = fixedlen.mzv_equal_args_exact(n, k)
            payload = {"command": "mzv", "kind": "mzv", "index": [n] * k,
                       "route": "determinant-exact",
                       "exact_rational": _ratio_text(r),
                       "pi_power": n * k}
        else:
            v = fixedlen.mzv_equal_args(n, k, prec=cfg.precision_bits)
            payload = {"command": "mzv", "kind": "mzv", "index": [n] * k,
                       "route": "series-exp", "value": _numstr(cfg, v)}
    elif args.index:
        with _naming(f"--index {args.index!r}"):
            idx = tuple(int(x) for x in args.index.split(","))
        v, tail = fixedlen.mzv_bruteforce(idx, args.bound)
        payload = {"command": "mzv", "kind": "mzv", "index": list(idx),
                   "route": "bruteforce", "bound": args.bound,
                   "value": repr(v), "tail_estimate": repr(tail)}
    else:
        raise ValueError("mzv needs --index or --equal-args")
    _emit(cfg, payload)
    return EXIT_OK


def cmd_padic(args, cfg: RunConfig) -> int:
    m2 = args.m2 if args.m2 is not None else padic.suggest_m2(args.p, args.a, args.k, args.m1)
    v = padic.interpolation_valuation(args.p, args.a, args.k, args.m1, m2)
    ok = v >= args.a + 1
    _emit(cfg, {
        "command": "padic",
        "p": args.p, "a": args.a, "k": args.k, "m1": args.m1, "m2": m2,
        "valuation_observed": "inf" if v == padic.INFINITE_VALUATION else v,
        "required": args.a + 1,
        "pass": ok,
    })
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_modular(args, cfg: RunConfig) -> int:
    # a failure anywhere in a profile's pipeline names the file it came from
    naming = _naming(f"--profile {args.profile!r}") if args.profile else nullcontext()
    with naming:
        if args.profile:
            with open(args.profile) as fh:
                prof = modular.LProfile.from_json(fh.read(), prec=cfg.precision_bits)
            prof.validate(tol=mp.ldexp(1, -(cfg.precision_bits // 3)))
        else:
            prof = modular.build_delta_profile(prec=cfg.precision_bits)
        # the period polynomial has degree k - 2, the most of any root search
        # here, so its roots come first: a refused price costs nothing else
        R = modular.period_polynomial(prof, cfg.precision_bits)
        rroots, rres = poly_roots(R, prec=cfg.precision_bits)
        Z = modular.zeta_polynomial(prof, cfg.precision_bits)
        fe = modular.functional_eq_check(Z, prof.sign, cfg.precision_bits)
        roots, dev = modular.rh_check(Z, cfg.precision_bits)
        with working(cfg.precision_bits):
            zres = [abs(poly_eval(Z, r)) for r in roots]
        gen = modular.generating_check(prof, 12, cfg.precision_bits)
    lam_digits = max(40, cfg.digits)  # profile decimals carry >= 40 digits
    payload = {
        "command": "modular",
        "profile": {"weight": prof.weight, "level": prof.level, "sign": prof.sign,
                    "source": prof.source,
                    "lambda": [mp.nstr(v, lam_digits) for v in prof.lam]},
        "functional_eq_residual": _numstr(cfg, fe),
        "critical_line_max_dev": _numstr(cfg, dev),
        "generating_check_mismatch": _numstr(cfg, gen),
    }
    if args.report:
        payload.update({
            "tau_head": modular.tau_recursive(10),
            "zeta_poly_coeffs": [_numstr(cfg, c) for c in Z],
            "zeta_poly_roots": [[_numstr(cfg, mp.re(r)), _numstr(cfg, mp.im(r))]
                                for r in roots],
            "period_poly_roots": [[_numstr(cfg, mp.re(r)), _numstr(cfg, mp.im(r))]
                                  for r in rroots],
        })
    _emit(cfg, payload)
    if args.roots_csv:
        # two scatter files: zeta-polynomial roots, and the period-polynomial
        # roots alongside (suffix .period.csv)
        _write_roots_csv(args.roots_csv, roots, zres, cfg)
        base = args.roots_csv
        period_path = (base[:-4] + ".period.csv") if base.endswith(".csv") \
            else base + ".period.csv"
        _write_roots_csv(period_path, rroots, rres, cfg)
    return EXIT_OK


def cmd_selftest(args, cfg: RunConfig) -> int:
    from . import acceptance  # loaded here, so that no other command pays for it
    results = acceptance.run_all(prec=cfg.precision_bits, report=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return EXIT_OK if not failed else EXIT_SELFTEST


# ----------------------------------------------------------------------
class _Parser(argparse.ArgumentParser):
    """Usage errors, in every subcommand too, exit 2 with one stderr line."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="partizeta", description="partition zeta / zeta polynomial engine")
    ap.add_argument("--prec", type=int, default=256,
                    help="working precision in bits (>= 64); every route's accuracy follows it")
    ap.add_argument("--out", default=None, help="write the report to this path")
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pzeta", help="restricted-part-set zeta values")
    p.add_argument("--spec", required=True, help="part-set grammar, e.g. 2N, 3+4N, geq:2, distinct")
    p.add_argument("--s", required=True,
                   help="argument s, or a comma grid (e.g. 0.2,0.25,0.5,1,2) for scans")
    p.add_argument("--routes", choices=("product", "gamma", "logseries", "all"), default="all")
    p.set_defaults(func=cmd_pzeta)

    p = sub.add_parser("fixedlen", help="fixed-length partition zeta values")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_fixedlen)

    p = sub.add_parser("mzv", help="multiple zeta values")
    p.add_argument("--index", help="comma list, e.g. 4,2")
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("--equal-args", nargs=2, type=int, metavar=("N", "K"), default=None)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_mzv)

    p = sub.add_parser("padic", help="p-adic interpolation congruence checks")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, default=None)
    p.set_defaults(func=cmd_padic)

    p = sub.add_parser("modular", help="zeta-polynomial pipeline")
    p.add_argument("action", choices=("delta",))
    p.add_argument("--report", action="store_true", help="emit the full pipeline report")
    p.add_argument("--profile", default=None, help="LProfile JSON to ingest instead of delta")
    p.add_argument("--roots-csv", default=None, help="write root scatter data here")
    p.set_defaults(func=cmd_modular)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    """Run one command; the only place where exceptions become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, RunConfig(args))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader went away (`partizeta selftest | head -3`)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:  # --profile unreadable, --out or --roots-csv unwritable
        print(f"cannot use {exc.filename!r}: {exc.strerror}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:  # includes DivergentPartSetError
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
