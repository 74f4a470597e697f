"""Seeded request generators, one per workload.

A request list is a pure function of (workload, seed). Every list is built
from fixed *slots*: a slot fixes a request kind and a narrow cost band, and
the seed draws the parameters inside the band. That keeps the cost of a list
nearly the same from seed to seed while every seed sends different numbers,
and it keeps the median request inside one kind's band instead of on the gap
between two kinds.

Real arguments are dyadic rationals n / 2^60 with n odd, written as
``"n/1152921504606846976"``: they carry 60 random bits, convert exactly at
every precision used here, and no multiple s*k with k < 2^60 is an integer.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext

DEN = 2 ** 60
PREC = 256  # the paper's working precision
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
# the workloads BENCHMARK.json lists; ``modular`` runs on request only (see
# ``modular`` for why)
WORKLOADS = ("scan", "cli", "exact")


def dyadic(rng: random.Random, lo: float, hi: float) -> str:
    """Random odd n / 2^60 in (lo, hi]."""
    n = rng.randrange(math.ceil(lo * DEN) + 1, math.floor(hi * DEN) + 1) | 1
    return f"{n}/{DEN}"


def jitter(rng: random.Random, center: float, rel: float = 0.04) -> str:
    return dyadic(rng, center * (1 - rel), center * (1 + rel))


def decimal_text(q: str) -> str:
    """Exact decimal expansion of a dyadic 'n/d' (the CLI reads decimals)."""
    num, den = (int(x) for x in q.split("/"))
    with localcontext() as ctx:
        ctx.prec = 120
        return format(Decimal(num) / Decimal(den), "f")


# ----------------------------------------------------------------------
# part-set specs: (grammar text, structure the reference reads)
def spec(classes=(), finite=(), min_part=1, distinct=False) -> dict:
    toks = [f"{m}N" if a == 0 else f"{a}+{m}N" for a, m in classes]
    if finite:
        toks.append("finite:{" + ",".join(str(p) for p in sorted(finite)) + "}")
    if min_part > 1:
        toks.append(f"geq:{min_part}")
    if distinct:
        toks.append("distinct")
    return {"text": "|".join(toks), "classes": [list(c) for c in classes],
            "finite": sorted(finite), "min_part": min_part, "distinct": distinct}


def random_spec(rng: random.Random, template: str) -> dict:
    """One part set of the given grammar template; never contains 1 with
    unbounded multiplicity (that set diverges)."""
    if template == "mN":
        return spec(classes=[(0, rng.randint(2, 6))])
    if template == "a+mN":
        return spec(classes=[(rng.randint(1, 4), rng.randint(2, 6))])
    if template == "geq":
        return spec(min_part=rng.randint(2, 5))
    if template == "distinct":
        return spec(distinct=True, min_part=rng.choice((1, 1, 2)))
    if template == "union":  # lcm 6 keeps the number of tail classes fixed
        m1, m2 = rng.sample((2, 3), 2)
        return spec(classes=[(0, m1), (rng.randint(1, 3), m2)])
    if template == "finite":
        parts = rng.sample(range(2, 40), rng.randint(3, 8))
        return spec(classes=[(0, rng.randint(3, 6))], finite=parts)
    raise ValueError(template)




# ----------------------------------------------------------------------
def scan(seed: int) -> list[dict]:
    """One fresh process, all requests at 256 bits.

    Why: the Euler-Maclaurin zeta kernel and log-gamma do nearly all the
    work; no s*k is an integer, so the exact Bernoulli table never grows
    past the Euler-Maclaurin order and stays idle. This is where a faster
    zeta at large Re(s) or a faster log-gamma shows, and where faster table
    growth must not.
    """
    rng = random.Random(f"scan:{seed}")
    # The list is built in cost bands, heaviest first, so that the tail (the
    # eleventh heaviest of 31 requests) and the median (the sixteenth) each
    # fall in the middle of a band of five requests of one kind and one cost,
    # never on a gap between two kinds:
    #   ranks 1-8    log series, Moebius, the union and the complex product
    #   ranks 9-13   tail band: 2N at Re(s) near 2
    #   ranks 14-18  median band: geq:2 and distinct at Re(s) near 2.5
    #   ranks 19-31  the other grammar templates at Re(s) in (4.5, 6],
    #                gamma closed forms and the poles
    # The first request of each kind in a cold process pays for the caches
    # that later ones share (Bernoulli numbers as mpf, integer zeta values,
    # gamma coefficients), so the list opens with one request of each kind
    # outside the bands, in a fixed order, and shuffles the rest after them.
    # log_eval_multiples: the cost goes like 1/(Re(s) log m), so each slot
    # pins m and a narrow band of Re(s) in (0.2, 3].
    opening = [
        {"kind": "lem", "m": 5, "s": [jitter(rng, 0.8), None]},
        {"kind": "euler", "spec": random_spec(rng, "union"), "s": [jitter(rng, 4.5), None]},
        {"kind": "mobius", "m": rng.randint(2, 4), "n": 2, "K": 7},
        {"kind": "gamma", "a": rng.randint(0, 4), "m": rng.randint(2, 6), "n": rng.randint(2, 6)},
    ]
    reqs = [{"kind": "lem", "m": m, "s": [jitter(rng, sigma), None]}
            for m, sigma in ((3, 2.0), (4, 2.8))]
    reqs.append({"kind": "lem", "m": 5, "s": [jitter(rng, 2.4), jitter(rng, 1.0)]})
    # poles of the extension at s = 1/N must come back as PoleReport
    for N in rng.sample(range(1, 7), 4):
        reqs.append({"kind": "lem", "m": rng.randint(2, 5), "s": [f"1/{N}", None],
                     "pole": N})
    reqs.append({"kind": "mobius", "m": rng.randint(2, 4), "n": 3, "K": 6})
    cls = spec(classes=[(rng.randint(1, 3), rng.choice((2, 3)))])
    reqs.append({"kind": "euler", "spec": cls, "s": [jitter(rng, 3.0), jitter(rng, 0.8)]})
    for _ in range(5):
        reqs.append({"kind": "euler", "spec": spec(classes=[(0, 2)]),
                     "s": [jitter(rng, 2.0, 0.01), None]})
    for i in range(5):
        sp = spec(min_part=2) if i % 2 else spec(distinct=True)
        reqs.append({"kind": "euler", "spec": sp, "s": [jitter(rng, 2.5, 0.01), None]})
    for template in ("mN", "a+mN", "geq", "distinct", "finite"):
        reqs.append({"kind": "euler", "spec": random_spec(rng, template),
                     "s": [dyadic(rng, 4.5, 6.0), None]})
    for _ in range(3):
        reqs.append({"kind": "gamma", "a": rng.randint(0, 4), "m": rng.randint(2, 6),
                     "n": rng.randint(2, 6)})
    rng.shuffle(reqs)
    reqs = opening + reqs
    for r in reqs:
        r["prec"] = PREC
    return reqs


def exact(seed: int) -> list[dict]:
    """One fresh process: exact Fraction arithmetic, plus the zeros and roots
    of a few H_k polynomials.

    Why: it uses the exact-table layer unlike ``cli``. One process grows the
    Bernoulli table toward B_600 in upward steps, and between steps makes
    many lookups (each a list-slice copy). A change that speeds up growth but
    slows lookups shows here and not in ``cli``. The H_k requests carry the
    ``hk_zero_solver`` bisection and the ``poly_roots`` Aberth iteration,
    which no other benchmarked workload reaches.
    """
    rng = random.Random(f"exact:{seed}")
    phases: list[list[dict]] = []
    # Kummer instances as in A10 (primes 3..23, a <= 1, k2 <= 600); each
    # phase opens with a new record k2 near its level, then looks up below it
    for level in (100, 200, 300, 400, 600):
        phase = [kummer_instance(rng, level - rng.randrange(0, 12, 2), record=True)]
        phase += [kummer_instance(rng, phase[0]["k2"]) for _ in range(540)]
        phases.append(phase)
    others = []
    combos = [(1, 5), (2, 7), (3, 11)]
    for _ in range(4):
        k, p = rng.choice(combos)
        a = rng.randint(0, 1)
        m1 = 2 + (p - 1) * rng.randint(0, 1)
        others.append({"kind": "interp", "p": p, "a": a, "k": k, "m1": m1,
                       "m2": m1 + (p - 1) * p ** a})
    for _ in range(4):
        m = rng.choice((2, 4, 6, 8))
        others.append({"kind": "fixedlen_exact", "m": m, "k": rng.randint(6, min(15, 120 // m))})
        n = rng.choice((2, 4, 6, 8))
        others.append({"kind": "mzv_exact", "n": n, "k": rng.randint(6, min(15, 120 // n))})
    for _ in range(4):
        others.append({"kind": "hk_poly", "k": rng.randrange(6, 18, 2), "sign": rng.choice((1, -1))})
    # eight Ehrhart counts of one cost (the 6-simplex dilated by 9) rank just
    # below the four records above B_100 and the two heavy H_k requests, so
    # the tail (the eleventh heaviest request) is always one of them, never on
    # a gap between two kinds
    others += [{"kind": "ehrhart", "k": 6, "d": 9} for _ in range(8)]
    # H_k zeros and roots: two heavy requests (seeded k in {14, 16} and sign)
    # rank above the Ehrhart counts, two cheap ones (k = 6, both signs) far
    # below them
    for kind in ("hk_zeros", "hk_roots"):
        others.append({"kind": kind, "k": rng.choice((14, 16)), "sign": rng.choice((1, -1)),
                       "prec": rng.choice((136, 144, 152))})
    others += [{"kind": "hk_roots", "k": 6, "sign": sg, "prec": rng.choice((136, 144, 152))}
               for sg in (1, -1)]
    # spread the other requests over the phases whose table already covers
    # them, so only the record instances grow the table
    for req in others:
        fits = [ph for ph in phases if ph[0]["k2"] >= table_need(req)]
        ph = rng.choice(fits)
        ph.insert(rng.randint(1, len(ph)), req)
    return [r for ph in phases for r in ph]


def table_need(req: dict) -> int:
    """Largest Bernoulli index an exact request reads."""
    if req["kind"] == "interp":
        return (req["m2"] - 1) * req["k"] + 1
    if req["kind"] == "fixedlen_exact":
        return req["m"] * req["k"]
    if req["kind"] == "mzv_exact":
        return req["n"] * req["k"]
    return 0


def kummer_instance(rng: random.Random, level: int, record: bool = False) -> dict:
    """A valid Kummer instance with k2 <= level. A record instance has k2
    near level and k1 < 24, so it grows the table once, not twice."""
    while True:
        p = rng.choice(PRIMES)
        a = rng.choice((0, 0, 0, 1))
        step = p ** a * (p - 1)
        k2 = level - (level % 2) if record else rng.randrange(4, level + 1, 2)
        if k2 % (p - 1) == 0 or k2 - step < 2:
            if record:
                level -= 2
            continue
        most = (k2 - 2) // step
        k1 = k2 - step * (most if record else rng.randint(1, min(3, most)))
        return {"kind": "kummer", "p": p, "a": a, "k1": k1, "k2": k2}


def modular(seed: int) -> list[dict]:
    """One fresh process, modular-form pipelines at seeded precisions.

    Why: the hk_zero_solver bisection, the poly_roots Aberth iteration and
    the incomplete-gamma series of the completed L-values do all the work
    here and none in ``scan``. It is not in BENCHMARK.json: on a shared
    two-core host four workloads leave each run too short to be steady, and
    its kernels are reached elsewhere (``cli`` runs the delta pipeline,
    ``exact`` the H_k zeros and roots). Run it by name to see them dominate.
    """
    rng = random.Random(f"modular:{seed}")
    profiles = []
    # the profile cost grows like prec^2, so each slot keeps a narrow band
    for center in (136, 320, 504):
        prec = center + rng.choice((-8, 0, 8))
        profiles.append([{"kind": "delta", "prec": prec}, {"kind": "zpoly", "prec": prec},
                         {"kind": "period_roots", "prec": prec}])
    hk = []
    # the sign sets the number of zeros (k-2 or k-3), so each k keeps one
    # for the bisection; the cheap root requests take both signs
    for k, sign in ((6, 1), (8, -1), (10, 1), (12, -1), (14, -1), (16, 1)):
        hk.append({"kind": "hk_zeros", "k": k, "sign": sign, "prec": rng.choice((136, 144, 152))})
        for sg in (1, -1):
            hk.append({"kind": "hk_roots", "k": k, "sign": sg,
                       "prec": rng.choice((136, 144, 152))})
    rng.shuffle(hk)
    rng.shuffle(profiles)
    # each profile request precedes the two requests that read that profile
    out = []
    for i, group in enumerate(profiles):
        out.extend(group)
        out.extend(hk[6 * i:6 * i + 6])
    return out


def cli(seed: int) -> list[dict]:
    """One fresh ``partizeta`` process per request; each report is parsed.

    Why: every CLI user pays interpreter start and empty caches on each
    call; ``pzeta --routes all`` at integer s spends most of its time
    regrowing the exact Bernoulli table. This is the workload of table
    growth.
    """
    rng = random.Random(f"cli:{seed}")
    reqs = []

    def add(argv, check, **kw):
        reqs.append({"kind": "cli", "argv": argv, "check": check, **kw})

    # Slot counts and fixed costs put the tail (the eleventh heaviest of 31)
    # in the middle of the middle band and the median inside the cheap band,
    # whose cost is mostly interpreter start. The seed draws the arguments
    # inside each slot, never a slot's cost band.
    # heavy: the canonical cold routes-all request, the modular pipeline, logseries grids
    add(["pzeta", "--spec", rng.choice(("2N", "0+2N")), "--s", "2", "--routes", "all"],
        "pzeta", spec=spec(classes=[(0, 2)]))
    add(["modular", "delta", "--report", "--roots-csv", "{tmp}/roots.csv"], "modular")
    for m in (3, 5):
        pts = [jitter(rng, 1.9), jitter(rng, 2.6)]
        add(["pzeta", "--spec", f"{m}N", "--s", ",".join(decimal_text(q) for q in pts),
             "--routes", "logseries"], "pzeta", spec=spec(classes=[(0, m)]))
    # middle band: routes-all at integer s (ranks 5-8), then five products at
    # random s in (3.4, 4.5], which cost alike (ranks 9-13, the tail)
    for m, s in ((3, 2), (4, 3), (5, 2), (3, 4)):
        add(["pzeta", "--spec", f"{m}N", "--s", str(s), "--routes", "all"], "pzeta",
            spec=spec(classes=[(0, m)]))
    products = (spec(classes=[(0, 4)]), spec(classes=[(rng.randint(1, 3), 4)]),
                spec(min_part=rng.randint(3, 5)), spec(distinct=True),
                spec(classes=[(0, 3)], finite=rng.sample(range(2, 40), 5)))
    for i, sp in enumerate(products):
        q = dyadic(rng, 3.4 + 0.25 * i, 3.5 + 0.25 * i)
        add(["pzeta", "--spec", sp["text"], "--s", decimal_text(q), "--routes", "product"],
            "pzeta", spec=sp)
    # cheap: exact and numeric fixed-length values and MZVs, brute MZV, padic, gamma
    for _ in range(2):
        a, m = rng.randint(1, 4), rng.randint(2, 6)
        add(["pzeta", "--spec", f"{a}+{m}N", "--s", str(rng.randint(2, 6)), "--routes", "gamma"],
            "pzeta", spec=spec(classes=[(a, m)]))
    for _ in range(4):
        add(["fixedlen", "--m", str(rng.choice((2, 4, 6))), "--k", str(rng.randint(2, 8)),
             "--exact"], "fixedlen")
        add(["mzv", "--equal-args", str(rng.choice((2, 4, 6))), str(rng.randint(2, 8)),
             "--exact"], "mzv")
        idx = [rng.randint(2, 5)] + [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        add(["mzv", "--index", ",".join(map(str, idx)), "--bound",
             str(rng.randint(300, 1000))], "mzv_index")
    for _ in range(2):
        add(["fixedlen", "--m", "2", "--k", str(rng.randint(2, 5))],
            "fixedlen")
        k, p, a = rng.choice(((1, 5, 0), (1, 5, 1), (2, 7, 0), (2, 7, 1), (3, 11, 0)))
        add(["padic", "--p", str(p), "--a", str(a), "--k", str(k), "--m1", "2"], "padic")
    rng.shuffle(reqs)
    return reqs


GENERATORS = {"scan": scan, "cli": cli, "exact": exact, "modular": modular}


def requests(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def integer_argument_share(reqs: list[dict]) -> float:
    """Share of requests whose zeta argument is an integer."""
    def integral(r):
        if r["kind"] in ("gamma", "mobius"):
            return True
        if r["kind"] in ("lem", "euler"):
            return r["s"] == ["1/1", None]
        if r["kind"] == "cli":
            argv = r["argv"]
            if argv[0] == "pzeta":
                return all(tok.isdigit() for tok in argv[argv.index("--s") + 1].split(","))
            return argv[0] in ("fixedlen", "mzv", "padic")
        return True  # exact and modular requests take integer arguments only
    return sum(map(integral, reqs)) / len(reqs)
