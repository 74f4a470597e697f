"""Span tracer for the benchmark: times calls into partizeta's public functions
from outside the package.

``Tracer.install`` wraps every public function and public method defined in a
``partizeta`` module, then rebinds every module and class attribute that *is*
one of the wrapped objects. The package imports its kernels by name
(``pzeta.riemann_zeta``, ``numerics.zeta.bernoulli_table``, ...), so rebinding
only the defining module's attribute would miss the internal calls.

Spans ``[name, start, end, parent, note]`` stay in memory and are dumped once
at the end; ``summarize`` turns the spans of one process into additive
counters, ``merge`` adds counters of several processes, and ``layer_metrics``
turns the merged counters into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "partizeta"

# the layers (modules) whose self-time share is reported
LAYERS = (
    "bench", "cli", "pzeta", "fixedlen", "padic", "modular", "partitions",
    "numerics.tables", "numerics.zeta", "numerics.gamma", "numerics.roots",
    "numerics.bell", "numerics.series", "numerics.poly", "numerics.hp",
)

# spans reported with .calls, .busy_s and .self_s
SPANS = (
    "numerics.zeta.riemann_zeta",
    "numerics.zeta.power_sum_tail",
    "numerics.tables.bernoulli_table",
    "numerics.gamma.log_gamma",
    "numerics.gamma.incomplete_gamma_upper",
    "numerics.roots.poly_roots",
    "numerics.bell.hessenberg_det",
    "numerics.series.TruncatedSeries.exp",
    "partitions.parse_part_set",
    "pzeta.log_eval_multiples",
    "pzeta.euler_product",
    "padic.kummer_check",
    "padic.interpolation_check",
    "modular.build_delta_profile",
    "modular.hk_zero_solver",
    "modular.ehrhart_simplex_count",
)

ZETA = "numerics.zeta.riemann_zeta"
BERN = "numerics.tables.bernoulli_table"
LEM = "pzeta.log_eval_multiples"
EULER = "pzeta.euler_product"
TAIL = "numerics.zeta.power_sum_tail"


# spans that keep their first argument (by name), read back in ``dump``
_NOTED = {ZETA: "s", BERN: "n"}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        noted = _NOTED.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1,
                          (args[0] if args else kwargs[noted]) if noted else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap partizeta's public functions and methods."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == PACKAGE or n.startswith(PACKAGE + ".")) and m is not None]
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__[len(PACKAGE) + 1:] or PACKAGE
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapped[id(fn)] = (fn, self.wrap(f"{short}.{attr}.{meth}", fn))
        # rebind every attribute that is one of the originals, wherever it lives
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            namespaces.extend(obj for obj in vars(mod).values()
                              if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])

    # -- output ---------------------------------------------------------
    def dump(self) -> list[list]:
        """Closed spans as JSON-ready lists; noted arguments become plain data."""
        import mpmath as mp

        out = []
        for name, start, end, parent, note in self.spans:
            if note is not None and name == ZETA:
                s = mp.mpmathify(note)
                re = float(mp.re(s))
                note = [re, bool(mp.im(s) == 0 and mp.re(s) == mp.floor(mp.re(s)))]
            out.append([name, start, end, parent, note])
        return out


# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    """Module (layer) of a span name: ``numerics.zeta.riemann_zeta`` ->
    ``numerics.zeta``; benchmark-owned spans are ``bench.*``."""
    head = name.split(".")
    if head[0] == "numerics":
        return ".".join(head[:2])
    return head[0]


def summarize(spans: list[list], root: str) -> dict:
    """Additive counters over the spans of one process.

    ``root`` names the benchmark's own span whose duration is the
    denominator of the layer shares. Self time is a span's duration minus
    its direct children's; busy time counts a span only when no ancestor has
    the same name, so recursion is not counted twice.
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    c: dict[str, float] = {}

    def add(key, value):
        c[key] = c.get(key, 0) + value

    max_n = 0
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        self_s = dur - child[i]
        add(f"layer.{layer_of(name)}.self_s", self_s)
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            add(f"{name}.busy_s", dur)
        if name == root:
            add("root_s", dur)
        if name == ZETA:
            add(f"{ZETA}.calls_re_gt_50", int(note[0] > 50))
            add(f"{ZETA}.calls_int", int(note[1]))
            if LEM in ancestors:
                add(f"{LEM}.zeta_calls", 1)
        elif name == TAIL and EULER in ancestors:
            add(f"{EULER}.tail_calls", 1)
        elif name == BERN:
            if note > max_n:
                add(f"{BERN}.grow_calls", 1)
                max_n = note
    c[f"{BERN}.max_n"] = max_n
    return c


def merge(counters: list[dict]) -> dict:
    """Sum counters of several processes; ``max_n`` takes the maximum."""
    out: dict[str, float] = {}
    for c in counters:
        for key, value in c.items():
            if key.endswith(".max_n"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(c: dict) -> dict:
    """Per-layer metric values (without units) from merged counters."""
    m = {}
    for name in SPANS:
        for field in ("calls", "busy_s", "self_s"):
            m[f"{name}.{field}"] = c.get(f"{name}.{field}", 0)
    m[f"{ZETA}.calls_re_gt_50"] = c.get(f"{ZETA}.calls_re_gt_50", 0)
    m[f"{ZETA}.calls_int"] = c.get(f"{ZETA}.calls_int", 0)
    bern_calls = c.get(f"{BERN}.calls", 0)
    m[f"{BERN}.max_n"] = c.get(f"{BERN}.max_n", 0)
    m[f"{BERN}.grow_frac"] = c.get(f"{BERN}.grow_calls", 0) / bern_calls if bern_calls else 0
    lem = c.get(f"{LEM}.calls", 0)
    m[f"{LEM}.zeta_per_call"] = c.get(f"{LEM}.zeta_calls", 0) / lem if lem else 0
    ep = c.get(f"{EULER}.calls", 0)
    m[f"{EULER}.tail_per_call"] = c.get(f"{EULER}.tail_calls", 0) / ep if ep else 0
    root = c.get("root_s", 0)
    for layer in LAYERS:
        share = c.get(f"layer.{layer}.self_s", 0) / root if root else 0
        m[f"layer.{layer}.self_frac"] = share
    return m
