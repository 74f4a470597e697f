"""Independent references behind ``failed_frac``.

Nothing here imports partizeta. Values come from mpmath built-ins
(``mp.zeta`` and its Hurwitz form, ``mp.loggamma``, ``mp.gammainc``,
``mp.bernfrac``, ``mp.polyroots``) and from exact expectations (pole index,
Kummer congruences, the rational families of fixed-length values and MZVs,
H_k^-(d) against the Ehrhart count, functional-equation residual,
critical-line deviation). The benchmark computes them outside every timed
interval.

Tolerance: the paper's 1e-35 at 256 bits, with the exponent scaled by the
request's precision (1e-17.5 at 128 bits, 1e-70 at 512 bits); the residual
and deviation bounds 1e-25 and 1e-20 scale the same way.
"""

from __future__ import annotations

import json
import math
import pathlib
from fractions import Fraction

import mpmath as mp

LOG2_10 = math.log2(10)


def tol_exp(prec: int, at_256: float) -> float:
    return at_256 * prec / 256


def tol(prec: int, at_256: float = 35):
    return mp.mpf(10) ** (-tol_exp(prec, at_256))


def ref_bits(prec: int) -> int:
    """Working precision that resolves the tolerance with margin."""
    return int(tol_exp(prec, 35) * LOG2_10) + 48


def parse_real(text: str):
    if "/" in text:
        num, den = text.split("/")
        return mp.mpf(int(num)) / int(den)
    return mp.mpf(text)


def parse_number(pair):
    re = parse_real(pair[0])
    return re if pair[1] is None else mp.mpc(re, parse_real(pair[1]))


def close(value, ref, prec: int, at_256: float = 35) -> bool:
    return abs(value - ref) <= tol(prec, at_256) * max(1, abs(ref))


# ----------------------------------------------------------------------
# partition zeta values through Hurwitz zeta
def member(spec: dict, k: int) -> bool:
    if k < spec["min_part"]:
        return False
    if not spec["classes"] and not spec["finite"]:
        return True
    return k in spec["finite"] or any(k > a and (k - a) % m == 0 for a, m in spec["classes"])


def zeta_over_set(spec: dict, s, prec: int):
    """prod_{k in S} (1 - k^-s)^-1 (or (1 + k^-s) with distinct parts).

    Parts up to K0 are multiplied directly; beyond K0 the set is a union of
    residue classes mod M, whose power sums are M^-w zeta(w, q/M).
    """
    with mp.workprec(ref_bits(prec)):
        s = mp.mpmathify(s)
        sigma = mp.re(s)
        distinct = spec["distinct"]
        starts = [a for a, _ in spec["classes"]] + list(spec["finite"]) + [spec["min_part"]]
        K0 = max(40, *starts)
        ones = 1
        if member(spec, 1):
            if not distinct:
                raise ValueError("part 1 with unbounded multiplicity diverges")
            ones = 2
        log_total = mp.mpf(0)
        for k in range(2, K0 + 1):
            if member(spec, k):
                x = mp.power(k, -s)
                log_total += mp.log(1 + x) if distinct else -mp.log(1 - x)
        if spec["classes"] or not spec["finite"]:
            M = math.lcm(*(m for _, m in spec["classes"])) if spec["classes"] else 1
            firsts = []
            for r in range(M):
                q = K0 + 1 + (r - K0 - 1) % M
                if member(spec, q):
                    firsts.append(mp.mpf(q) / M)
            eps = tol(prec) * mp.mpf(2) ** -16
            j = 1
            while True:
                w = s * j
                power_sum = mp.power(M, -w) * mp.fsum(mp.zeta(w, q) for q in firsts)
                sign = (-1) ** (j + 1) if distinct else 1
                log_total += sign * power_sum / j
                if j * sigma > 2 and mp.power(K0, 1 - j * sigma) < eps:
                    break
                j += 1
        return ones * mp.exp(log_total)


def log_eval_multiples(m: int, s, prec: int):
    """sum_k zeta(sk)/(k m^{sk}), rearranged (Flajolet-Vardi style):
    sum_{n<N} -log(1 - (mn)^-s) + sum_k m^{-sk} zeta(sk, N)/k; the k-series
    then shrinks like (Nm)^{-sigma k}."""
    N = 16
    with mp.workprec(ref_bits(prec)):
        s = mp.mpmathify(s)
        sigma = mp.re(s)
        total = -mp.fsum(mp.log(1 - mp.power(m * n, -s)) for n in range(1, N))
        eps = tol(prec) * mp.mpf(2) ** -16
        k = 1
        while True:
            total += mp.power(m, -s * k) * mp.zeta(s * k, N) / k
            if k * sigma > 2 and mp.power(m * N, -k * sigma) * N < eps:
                break
            k += 1
        return total if mp.im(s) else mp.re(total)


def mobius(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def zeta_via_mobius(m: int, n: int, K: int, prec: int):
    """m^n sum_{k<=K} mu(k)/k sum_{r<nk} Re log Gamma(1 - e(r/nk)/m)."""
    with mp.workprec(ref_bits(prec)):
        total = mp.mpf(0)
        for k in range(1, K + 1):
            mu = mobius(k)
            if mu:
                inner = mp.fsum(mp.re(mp.loggamma(1 - mp.expjpi(mp.mpf(2 * r) / (n * k)) / m))
                                for r in range(n * k))
                total += mp.mpf(mu) / k * inner
        return total * mp.mpf(m) ** n


# ----------------------------------------------------------------------
# exact references
def zeta_even_over_pi(n: int) -> Fraction:
    """zeta(n)/pi^n for even n >= 2, from mpmath's Bernoulli numbers."""
    num, den = mp.bernfrac(n)
    return Fraction((-1) ** (n // 2 + 1) * 2 ** (n - 1) * num, math.factorial(n) * den)


def newton(power_sums: list, k: int, elementary: bool):
    """Complete (or elementary) symmetric value of degree k from power sums
    p_1..p_k by Newton's identities."""
    h = [power_sums[0] * 0 + 1]
    for n in range(1, k + 1):
        acc = 0
        for i in range(1, n + 1):
            sign = (-1) ** (i - 1) if elementary else 1
            acc += sign * power_sums[i - 1] * h[n - i]
        h.append(acc / n)
    return h[k]


def fixedlen_exact(m: int, k: int) -> Fraction:
    return newton([zeta_even_over_pi(m * i) for i in range(1, k + 1)], k, elementary=False)


def mzv_exact(n: int, k: int) -> Fraction:
    return newton([zeta_even_over_pi(n * i) for i in range(1, k + 1)], k, elementary=True)


def fixedlen_numeric(m: int, k: int, prec: int, elementary: bool):
    with mp.workprec(ref_bits(prec)):
        return newton([mp.zeta(m * i) for i in range(1, k + 1)], k, elementary)


def valuation(q: Fraction, p: int) -> float:
    if q == 0:
        return math.inf
    v, num, den = 0, abs(q.numerator), q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def kummer_holds(p: int, a: int, k1: int, k2: int) -> bool:
    def zeta_star(n):  # (1 - p^{n-1}) zeta(1-n) = -(1 - p^{n-1}) B_n / n
        num, den = mp.bernfrac(n)
        return -(1 - Fraction(p) ** (n - 1)) * Fraction(num, den * n)

    return valuation(zeta_star(k1) - zeta_star(k2), p) >= a + 1


def hk_value(k: int, sign: int, x: int) -> int:
    return math.comb(x + k - 2, k - 2) + sign * math.comb(x, k - 2)


def hk_coeffs(k: int, sign: int) -> list[Fraction]:
    """Coefficients c_0.. of H_k^{sign}(s) = C(s+k-2, k-2) + sign C(s, k-2)."""
    def binom_poly(shift):  # C(s + shift, k-2) = prod_i (s + shift - i) / (k-2)!
        co = [Fraction(1, math.factorial(k - 2))]
        for i in range(k - 2):
            nxt = [Fraction(0)] * (len(co) + 1)
            for j, c in enumerate(co):
                nxt[j] += (shift - i) * c
                nxt[j + 1] += c
            co = nxt
        return co

    A, B = binom_poly(k - 2), binom_poly(0)
    co = [a + sign * b for a, b in zip(A, B)]
    while co and co[-1] == 0:
        co.pop()
    return co


def roots_of(coeffs_low_first, prec: int):
    """All roots by mp.polyroots at the reference precision."""
    with mp.workprec(ref_bits(prec)):
        co = [mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else c
              for c in coeffs_low_first]
        return mp.polyroots(co[::-1], maxsteps=400, extraprec=2 * ref_bits(prec))


def match_roots(found, ref, prec: int) -> bool:
    found = list(found)
    if len(found) != len(ref):
        return False
    left = list(ref)
    with mp.workprec(ref_bits(prec)):
        for z in found:
            best = min(range(len(left)), key=lambda i: abs(left[i] - z))
            if not close(z, left[best], prec):
                return False
            left.pop(best)
    return True


# ----------------------------------------------------------------------
# the discriminant form
def tau_list(nmax: int) -> list[int]:
    """tau(1..nmax) from q prod (1 - q^n)^24."""
    series = [1] + [0] * (nmax - 1)
    for n in range(1, nmax):
        for _ in range(24):
            for i in range(nmax - 1, n - 1, -1):
                series[i] -= series[i - n]
    return series


def delta_lambdas(prec: int) -> list:
    """Lambda(Delta, 1..11) by the split incomplete-gamma series."""
    with mp.workprec(ref_bits(prec)):
        eps = tol(prec) * mp.mpf(2) ** -20
        nmax = 1
        while mp.exp(-2 * mp.pi * nmax) * (2 * mp.pi * nmax) ** 11 * nmax ** 7 > eps:
            nmax += 1
        tau = tau_list(nmax)
        out = []
        for s in range(1, 12):
            total = mp.mpf(0)
            for n in range(1, nmax + 1):
                x = 2 * mp.pi * n
                total += tau[n - 1] * (mp.gammainc(s, x) / x ** s
                                       + mp.gammainc(12 - s, x) / x ** (12 - s))
            out.append(total)
        return out


def period_coeffs(lam: list) -> list:
    """R(z) = sum_j C(10, j) Lambda(11 - j) z^j for weight 12."""
    return [math.comb(10, j) * lam[10 - j] for j in range(11)]


# ----------------------------------------------------------------------
class References:
    """Checks outputs against references; caches what several requests share."""

    def __init__(self):
        self._lam: dict[int, list] = {}

    def lambdas(self, prec: int) -> list:
        if prec not in self._lam:
            self._lam[prec] = delta_lambdas(prec)
        return self._lam[prec]

    def check(self, req: dict, out) -> str | None:
        """None if ``out`` (the worker's encoded result) is right, else why not."""
        kind = req["kind"]
        prec = req.get("prec", 256)
        with mp.workprec(ref_bits(prec)):
            if kind == "lem":
                pole = req.get("pole")
                if isinstance(out, dict):
                    if out.get("pole_at_k") != pole:
                        return f"PoleReport at k={out.get('pole_at_k')}, expected {pole}"
                    return None
                if pole is not None:
                    return f"value at the pole s=1/{pole}"
                ref = log_eval_multiples(req["m"], parse_number(req["s"]), prec)
                return self._near(out, ref, prec)
            if kind == "euler":
                ref = zeta_over_set(req["spec"], parse_number(req["s"]), prec)
                return self._near(out, ref, prec)
            if kind == "gamma":
                sp = {"classes": [[req["a"], req["m"]]], "finite": [], "min_part": 1,
                      "distinct": False}
                return self._near(out, zeta_over_set(sp, req["n"], prec), prec)
            if kind == "mobius":
                return self._near(out, zeta_via_mobius(req["m"], req["n"], req["K"], prec), prec)
            if kind == "kummer":
                want = kummer_holds(req["p"], req["a"], req["k1"], req["k2"])
                return None if out is True and want else f"kummer {out}, reference {want}"
            if kind == "interp":
                return None if out is True else f"interpolation congruence {out}"
            if kind == "fixedlen_exact":
                return self._exact(out, fixedlen_exact(req["m"], req["k"]))
            if kind == "mzv_exact":
                return self._exact(out, mzv_exact(req["n"], req["k"]))
            if kind == "hk_poly":
                co = [Fraction(c) for c in out]
                for x in range(req["k"] + 2):
                    if sum(c * x ** j for j, c in enumerate(co)) != hk_value(req["k"], req["sign"], x):
                        return f"H_k differs at {x}"
                return None
            if kind == "ehrhart":
                want = hk_value(req["k"], -1, req["d"])
                return None if out == want else f"Ehrhart count {out}, H_k^-(d) = {want}"
            if kind == "delta":
                for got, ref in zip(out, self.lambdas(prec)):
                    if not close(parse_real(got), ref, prec):
                        return f"Lambda {got} vs {mp.nstr(ref, 20)}"
                return None if len(out) == 11 else "Lambda count"
            if kind == "zpoly":
                return self._zpoly(out["fe"], out["dev"], len(out["roots"]), prec)
            if kind == "period_roots":
                ref = roots_of(period_coeffs(self.lambdas(prec)), prec)
                return self._roots(out, ref, prec, unit_circle=True)
            if kind in ("hk_zeros", "hk_roots"):
                co = hk_coeffs(req["k"], req["sign"])
                co = [c * (-1) ** j for j, c in enumerate(co)]  # H(-s)
                ref = roots_of(co, prec)
                if kind == "hk_roots":
                    return self._roots(out, ref, prec)
                want = sorted((mp.im(z) for z in ref), reverse=True)
                got = [parse_real(t) for t in out]
                if len(got) != len(want) or not all(close(g, w, prec) for g, w in zip(got, want)):
                    return "hk ordinates differ"
                return None
        raise ValueError(f"no reference for {kind!r}")

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _near(out, ref, prec):
        got = parse_number(out if isinstance(out, list) else [out, None])
        return None if close(got, ref, prec) else \
            f"{mp.nstr(got, 20)} vs reference {mp.nstr(ref, 20)}"

    @staticmethod
    def _exact(out, ref: Fraction):
        return None if Fraction(out) == ref else f"{out} vs reference {ref}"

    @staticmethod
    def _zpoly(fe, dev, nroots, prec):
        if parse_real(fe) >= tol(prec, 25):
            return f"functional-equation residual {fe}"
        if parse_real(dev) >= tol(prec, 20):
            return f"critical-line deviation {dev}"
        return None if nroots == 10 else f"{nroots} zeta-polynomial roots"

    @staticmethod
    def _roots(out, ref, prec, unit_circle=False):
        roots = [parse_number(z) for z in out]
        if unit_circle and not all(close(abs(z), 1, prec) for z in roots):
            return "root off the unit circle"
        return None if match_roots(roots, ref, prec) else "roots differ from mp.polyroots"

    # -- CLI reports ----------------------------------------------------
    def check_cli(self, req: dict, code: int, stdout: str, tmp: pathlib.Path) -> str | None:
        """None if the CLI run succeeded with the right report, else why not."""
        if code != 0:
            return f"exit code {code}"
        try:
            rep = json.loads(stdout)
        except json.JSONDecodeError:
            return "report is not JSON"
        argv = req["argv"]
        prec = rep["config"]["precision_bits"]
        with mp.workprec(ref_bits(prec)):
            check = req["check"]
            if check == "pzeta":
                grid = [parse_real(t) for t in argv[argv.index("--s") + 1].split(",")]
                refs = [(s, zeta_over_set(req["spec"], s, prec)) for s in grid]
                if len(rep["results"]) < len(grid):
                    return "missing results"
                for rec in rep["results"]:
                    if "pole_at_k" in rec:
                        return f"PoleReport at s={rec['s']}"
                    s = parse_real(rec["s"])
                    ref = min(refs, key=lambda t: abs(t[0] - s))[1]
                    got = mp.mpc(parse_real(rec["value_re"]), parse_real(rec["value_im"]))
                    if not close(got, ref, prec):
                        return f"route {rec['route']} at s={rec['s']}: {rec['value_re']}"
                return None
            if check in ("fixedlen", "mzv"):
                if check == "fixedlen":
                    m, k = int(argv[argv.index("--m") + 1]), int(argv[argv.index("--k") + 1])
                else:
                    i = argv.index("--equal-args")
                    m, k = int(argv[i + 1]), int(argv[i + 2])
                elementary = check == "mzv"
                if "--exact" in argv:
                    ref = mzv_exact(m, k) if elementary else fixedlen_exact(m, k)
                    return self._exact(rep["exact_rational"], ref)
                return self._near(rep["value"], fixedlen_numeric(m, k, prec, elementary), prec)
            if check == "mzv_index":
                return self._mzv_index(rep, argv)
            if check == "padic":
                a = int(argv[argv.index("--a") + 1])
                v = rep["valuation_observed"]
                ok = rep["pass"] is True and rep["required"] == a + 1 and \
                    (v == "inf" or v >= a + 1)
                return None if ok else f"congruence failed: valuation {v}"
            if check == "modular":
                bad = self._zpoly(rep["functional_eq_residual"], rep["critical_line_max_dev"],
                                  len(rep["zeta_poly_roots"]), prec)
                if bad:
                    return bad
                lam = self.lambdas(prec)
                for got, ref in zip(rep["profile"]["lambda"], lam):
                    if not close(parse_real(got), ref, prec):
                        return f"Lambda {got}"
                bad = self._roots(rep["period_poly_roots"], roots_of(period_coeffs(lam), prec),
                                  prec, unit_circle=True)
                if bad:
                    return bad
                for name in ("roots.csv", "roots.period.csv"):
                    path = tmp / name
                    if not path.exists() or len(path.read_text().splitlines()) != 11:
                        return f"{name} missing or incomplete"
                return None
        raise ValueError(f"no CLI check {req['check']!r}")

    @staticmethod
    def _mzv_index(rep, argv):
        """Brute-force nested sum recomputed at 80 bits; the CLI sums in
        binary64, so agreement is asked to 1e-12 relative."""
        idx = [int(x) for x in argv[argv.index("--index") + 1].split(",")]
        bound = int(argv[argv.index("--bound") + 1])
        with mp.workprec(80):
            G = [mp.mpf(0)] * (bound + 1)
            for n in range(1, bound + 1):
                G[n] = G[n - 1] + mp.mpf(n) ** -idx[-1]
            for e in reversed(idx[:-1]):
                new = [mp.mpf(0)] * (bound + 1)
                for n in range(1, bound + 1):
                    new[n] = new[n - 1] + mp.mpf(n) ** -e * G[n - 1]
                G = new
            got = mp.mpf(rep["value"])
            return None if abs(got - G[bound]) <= 1e-12 * abs(G[bound]) else \
                f"brute MZV {rep['value']} vs {mp.nstr(G[bound], 15)}"
