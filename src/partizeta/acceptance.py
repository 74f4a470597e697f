"""The acceptance suite: every quantitative exit criterion, with its
tolerance pinned, runnable from pytest or from the CLI selftest.

Each criterion returns a CriterionResult; run_all executes them in order and
never raises (failures are captured in the result).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import fixedlen, modular, padic, pzeta
from .numerics import (
    euler_bernoulli_genfunc_check,
    poly_negate_var,
    poly_roots,
    power_sum_tails,
    working,
    zeta_even_rational,
)
from .partitions import PartSet

PREC = 256

@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.cid}: {self.description} -- {self.detail}"


def _result(cid, description, passed, detail):
    return CriterionResult(cid=cid, description=description, passed=bool(passed), detail=detail)


# ----------------------------------------------------------------------
def criterion_01(prec=PREC):
    """Three-route agreement for even parts at s=2 (pi/2), pairwise < 1e-35."""
    spec = PartSet(classes=((0, 2),))
    with working(prec):
        v1, _ = pzeta.euler_product(spec, mp.mpf(2), prec=prec)
        v2 = pzeta.closed_form_gamma(0, 2, 2, prec=prec)
        v3 = mp.exp(pzeta.log_eval_multiples(2, mp.mpf(2), prec=prec))
        ref = mp.pi / 2
        devs = [abs(v1 - v2), abs(v1 - v3), abs(v2 - v3), abs(v1 - ref)]
        worst = max(devs)
        ok = worst < mp.mpf("1e-35")
    return _result("A1", "three routes at pi/2", ok, f"worst deviation {mp.nstr(worst, 3)}")


def criterion_02(prec=PREC):
    """Parts >= 2 at s=3 and distinct parts at s=2, closed forms to 1e-30."""
    with working(prec):
        v1, _ = pzeta.euler_product(PartSet(min_part=2), mp.mpf(3), prec=prec)
        r1 = 3 * mp.pi / mp.cosh(mp.pi * mp.sqrt(3) / 2)
        v2, _ = pzeta.euler_product(PartSet(distinct=True), mp.mpf(2), prec=prec)
        r2 = mp.sinh(mp.pi) / mp.pi
        d1, d2 = abs(v1 - r1), abs(v2 - r2)
        ok = d1 < mp.mpf("1e-30") and d2 < mp.mpf("1e-30")
    return _result("A2", "geq-2 and distinct closed forms", ok,
                   f"devs {mp.nstr(d1, 3)}, {mp.nstr(d2, 3)}")


def criterion_03(prec=PREC):
    """Gamma closed form against sine/sinh and the log-gamma expansion, m in 2..6, to 1e-30."""
    with working(prec):
        worst = mp.mpf(0)
        for m in range(2, 7):
            c2 = pzeta.closed_form_gamma(0, m, 2, prec=prec)
            c4 = pzeta.closed_form_gamma(0, m, 4, prec=prec)
            ref2 = mp.pi / (m * mp.sin(mp.pi / m))
            ref4 = mp.pi ** 2 / (m ** 2 * mp.sin(mp.pi / m) * mp.sinh(mp.pi / m))
            worst = max(worst, abs(c2 - ref2), abs(c4 - ref4),
                        *(abs(mp.exp(pzeta.log_eval_general(0, m, n, prec=prec)) - c)
                          for n, c in ((2, c2), (4, c4))))
        ok = worst < mp.mpf("1e-30")
    return _result("A3", "closed-form grid n=2,4; m=2..6", ok, f"worst {mp.nstr(worst, 3)}")


def criterion_04(prec=PREC):
    """Exact rationality family and determinant==series, exact equality."""
    ok = True
    details = []
    for k in range(1, 11):
        want = Fraction(2 ** (2 * k - 1) - 1, 2 ** (2 * k - 2)) * zeta_even_rational(2 * k)
        got = fixedlen.fixedlen_zeta_exact(2, k)
        if got != want:
            ok = False
            details.append(f"pzv k={k}")
    for m in (2, 4, 6, 8):
        for k in range(1, 9):
            if fixedlen.fixedlen_zeta_exact(m, k) != fixedlen.fixedlen_zeta_exact_series(m, k):
                ok = False
                details.append(f"det/series m={m} k={k}")
    return _result("A4", "exact rational family + det==series", ok,
                   "all exact" if ok else "; ".join(details))


def criterion_05(prec=PREC):
    """Equal-argument MZV closed form pi^{2k}/(2k+1)!, exact, k <= 10."""
    bad = [k for k in range(1, 11)
           if fixedlen.mzv_equal_args_exact(2, k) != Fraction(1, math.factorial(2 * k + 1))]
    return _result("A5", "mzv({2}^k) = pi^2k/(2k+1)! exact", not bad,
                   "all exact" if not bad else f"failed k={bad}")


def criterion_06(prec=PREC):
    """Composition decoupling: exact at (2,2), numeric at (2,3) and (3,2)."""
    exact_ok = (fixedlen.fixedlen_zeta_exact(2, 2)
                == fixedlen.mzv_equal_args_exact(2, 2) + zeta_even_rational(4))
    msgs = [f"exact (2,2): {exact_ok}"]
    ok = exact_ok
    for (m, k) in ((2, 3), (3, 2)):
        lhs, rhs, diff, tail = fixedlen.decoupling_check(m, k, bound=1000, prec=prec)
        good = abs(diff) < tail
        ok = ok and good
        msgs.append(f"({m},{k}): |diff|={mp.nstr(abs(diff), 3)} tail={mp.nstr(tail, 3)}")
    return _result("A6", "decoupling identity", ok, "; ".join(msgs))


def criterion_07(prec=PREC):
    """Shuffle at s=3, brute bound 1e4, within 1e-6."""
    lhs, rhs, diff, tail = fixedlen.shuffle_check(3, bound=10 ** 4, prec=prec)
    ok = abs(diff) < mp.mpf("1e-6")
    return _result("A7", "length-2 shuffle at s=3", ok, f"|diff|={mp.nstr(abs(diff), 3)}")


def criterion_08(prec=PREC):
    """Pole scan: poles exactly at {1, 1/2, 1/3, 1/4, 1/5} on the grid."""
    grid = [mp.mpf("0.2"), mp.mpf("0.21"), mp.mpf("0.25"), mp.mpf("0.29"),
            mp.mpf(1) / 3, mp.mpf("0.4"), mp.mpf("0.5"), mp.mpf("0.6"),
            mp.mpf("0.75"), mp.mpf("0.9"), mp.mpf(1), mp.mpf("1.25"),
            mp.mpf("1.5"), mp.mpf(2)]
    pole_points = {0, 2, 4, 6, 10}  # indices of 1/5, 1/4, 1/3, 1/2, 1
    ok = True
    seen = []
    for i, s in enumerate(grid):
        out = pzeta.log_eval_multiples(2, s, prec=prec)
        if isinstance(out, pzeta.PoleReport):
            seen.append((i, out.pole_at_k))
            if i not in pole_points:
                ok = False
        else:
            finite = mp.isfinite(out) and mp.isfinite(mp.exp(out))
            if i in pole_points or not finite:
                ok = False
    expect = [(0, 5), (2, 4), (4, 3), (6, 2), (10, 1)]
    ok = ok and seen == expect
    return _result("A8", "meromorphic-extension pole scan", ok, f"poles at {seen}")


def criterion_09(prec=PREC):
    """Moebius partial sums: zeta(2) to 1e-8 and zeta(3) to 1e-10 at K=20."""
    with working(prec):
        z2, z3 = (1 + h for h, _ in power_sum_tails(1, 3, 2, prec)[1:])  # zeta(2), zeta(3)
        d22 = abs(pzeta.zeta_via_mobius(2, 2, 20, prec=prec) - z2)
        d33 = abs(pzeta.zeta_via_mobius(3, 3, 20, prec=prec) - z3)
        ok = d22 < mp.mpf("1e-8") and d33 < mp.mpf("1e-10")
    return _result("A9", "Moebius formula K=20", ok,
                   f"zeta(2) err {mp.nstr(d22, 3)}, zeta(3) err {mp.nstr(d33, 3)}")


def criterion_10(prec=PREC):
    """p-adic: 200 seeded Kummer instances plus interpolation checks."""
    rng = random.Random(20260811)
    primes = [3, 5, 7, 11, 13, 17, 19, 23]
    count = 0
    fails = []
    while count < 200:
        p = rng.choice(primes)
        a = rng.choice([0, 0, 0, 1])
        step = p ** a * (p - 1)
        k1 = rng.randrange(2, 60, 2)
        if k1 % (p - 1) == 0:
            continue
        k2 = k1 + step * rng.randint(1, 3)
        if k2 > 600:
            continue
        if not padic.kummer_check(p, a, k1, k2):
            fails.append((p, a, k1, k2))
        count += 1
    interp_ok = True
    for (k, p) in ((1, 5), (2, 7), (3, 11)):
        for a in (0, 1):
            m2 = padic.suggest_m2(p, a, k, 2)
            if not padic.interpolation_check(p, a, k, 2, m2):
                interp_ok = False
    ok = not fails and interp_ok
    return _result("A10", "Kummer + interpolation congruences", ok,
                   f"200 kummer ok={not fails}, interpolation ok={interp_ok}")


def criterion_11(prec=PREC):
    """tau recursion equals the eta-product oracle through 100."""
    t1 = modular.tau_recursive(100)
    t2 = modular.tau_eta_oracle(100)
    ok = t1 == t2 and t1[1] == -24 and t1[2] == 252
    return _result("A11", "universal tau recursion vs eta product", ok,
                   f"tau(2)={t1[1]}, tau(3)={t1[2]}, lists equal: {t1 == t2}")


_PAPER_R_ROOTS = [(0.0, 1.0), (0.0, -1.0), (-0.465, 0.885), (-0.465, -0.885),
                  (-0.744, 0.668), (-0.744, -0.668), (-0.911, 0.411), (-0.911, -0.411),
                  (-0.990, 0.140), (-0.990, -0.140)]


def criterion_12(prec=PREC):
    """Period polynomial of the discriminant form: unit circle + root list +
    decomposition constants.

    Known red: the published 3-decimal root table carries one coordinate
    (0.411) that is inconsistent with the same source's displayed constants;
    the true ordinate is 0.412036, so the strict 1e-3 list match tops out at
    ~1.04e-3. The other sub-checks pass; see the root-table consistency test
    for the verification that pins the misprint.
    """
    prof = modular.build_delta_profile(prec)
    with working(prec):
        R = modular.period_polynomial(prof, prec)
        roots, _ = poly_roots(R, prec=prec)
        circle_dev = max(abs(abs(r) - 1) for r in roots)
        list_dev = mp.mpf(0)
        for (x, y) in _PAPER_R_ROOTS:
            best = min(max(abs(mp.re(r) - x), abs(mp.im(r) - y)) for r in roots)
            list_dev = max(list_dev, best)
        c_even = 70 * prof.lam[6]   # z^8 coefficient / its integer cofactor
        c_odd = 6 * prof.lam[5]     # z^9 coefficient / 4, i.e. 252 Lambda(6)/42
        d_even = abs(c_even - mp.mpf("0.114379"))
        d_odd = abs(c_odd - mp.mpf("0.00926927"))
        ok = (len(roots) == 10 and circle_dev < mp.mpf("1e-10")
              and list_dev < mp.mpf("1e-3")
              and d_even < mp.mpf("1e-5") and d_odd < mp.mpf("1e-5"))
    return _result("A12", "period polynomial of the discriminant form", ok,
                   f"circle dev {mp.nstr(circle_dev, 3)}, list dev {mp.nstr(list_dev, 3)} "
                   f"(published digit 0.411 vs true 0.412036: source-table misprint), "
                   f"constants devs {mp.nstr(d_even, 2)}/{mp.nstr(d_odd, 2)}")


_PAPER_Z_ORDINATES = [8.447, 5.002, 2.846, 1.352, 0.349]


def criterion_13(prec=PREC):
    """Zeta polynomial of the discriminant form: functional equation,
    critical line, ordinates."""
    prof = modular.build_delta_profile(prec)
    Z = modular.zeta_polynomial(prof, prec)
    fe = modular.functional_eq_check(Z, prof.sign, prec)
    roots, dev = modular.rh_check(Z, prec)
    with working(prec):
        ords = sorted((abs(mp.im(r)) for r in roots), reverse=True)
        top5 = ords[0::2]  # conjugate pairs collapse
        odev = max(abs(t - mp.mpf(str(o))) for t, o in zip(top5, _PAPER_Z_ORDINATES))
        ok = (fe < mp.mpf("1e-25") and dev < mp.mpf("1e-20") and odev < mp.mpf("1e-3"))
    return _result("A13", "zeta polynomial of the discriminant form", ok,
                   f"FE {mp.nstr(fe, 3)}, line dev {mp.nstr(dev, 3)}, ordinates dev {mp.nstr(odev, 3)}")


def _synthetic_weight4(prec):
    return modular.LProfile(weight=4, level=11, sign=-1, lam=[mp.mpf(-1), mp.mpf(0), mp.mpf(1)],
                            source="synthetic")


def criterion_14(prec=PREC):
    """Generating-function identity on the discriminant profile and a
    synthetic weight-4 profile, mismatch < 1e-20."""
    m1 = modular.generating_check(modular.build_delta_profile(prec), 12, prec)
    m2 = modular.generating_check(_synthetic_weight4(prec), 12, prec)
    ok = m1 < mp.mpf("1e-20") and m2 < mp.mpf("1e-20")
    return _result("A14", "generating function for Z(-n)", ok,
                   f"mismatch delta {mp.nstr(m1, 3)}, weight-4 {mp.nstr(m2, 3)}")


def criterion_15(prec=PREC):
    """Binomial-transform polynomials: exact H_6^-, its roots, solver-vs-roots
    ordinates, and the asymptotic height of the largest zero."""
    H6 = modular.rv_transform([Fraction(1)] * 4)
    exact_ok = H6 == [Fraction(1), Fraction(7, 3), Fraction(1), Fraction(2, 3)]
    with working(prec):
        roots, _ = poly_roots(poly_negate_var(H6), prec=prec)
        want = [mp.mpf(1) / 2, mp.mpc(mp.mpf(1) / 2, mp.sqrt(11) / 2),
                mp.mpc(mp.mpf(1) / 2, -mp.sqrt(11) / 2)]
        root_dev = modular.hausdorff_distance(roots, want, prec)
        match_ok = root_dev < mp.mpf("1e-30")
        solver_dev = mp.mpf(0)
        for k in (6, 8, 12):
            for sign in (-1, 1):
                ords = modular.hk_zero_solver(k, sign, prec=prec)
                Hk = modular.hk_polynomial(k, sign)
                rts, _ = poly_roots(poly_negate_var(Hk), prec=prec)
                got = sorted(mp.im(r) for r in rts)
                solver_dev = max(solver_dev,
                                 max(abs(a - b) for a, b in zip(sorted(ords), got)))
        solver_ok = solver_dev < mp.mpf("1e-20")
        slack_ok = True
        slack_worst = mp.mpf(0)
        for k in (20, 30, 40):
            for sign, ref in ((-1, (k - 3) * (k - 1) / (2 * mp.pi)),
                              (1, (k - 3) * (k - 1) / mp.pi)):
                ords = modular.hk_zero_solver(k, sign, prec=64, largest_only=True)
                gap = abs(max(abs(t) for t in ords) - ref)
                slack_worst = max(slack_worst, gap)
                if gap >= 1:
                    slack_ok = False
        ok = exact_ok and match_ok and solver_ok and slack_ok
    return _result("A15", "H-polynomial zeros and heights", ok,
                   f"exact {exact_ok}, sqrt11 dev {mp.nstr(root_dev, 3)}, "
                   f"solver dev {mp.nstr(solver_dev, 3)}, height gap {mp.nstr(slack_worst, 3)}")


def criterion_16(prec=PREC):
    """Ehrhart counts of the weight-6 tetrahedron equal H_6^-(m), m <= 8."""
    H6 = modular.hk_polynomial(6, -1)
    bad = []
    for m in range(0, 9):
        count = modular.ehrhart_simplex_count(6, m)
        want = sum(c * Fraction(m) ** i for i, c in enumerate(H6))
        if count != want:
            bad.append((m, count, want))
    return _result("A16", "Ehrhart oracle for the weight-6 simplex", not bad,
                   "counts match" if not bad else f"mismatches {bad}")


def criterion_17(prec=PREC):
    """Euler generating function of zeta(-n): exact through t^12."""
    ok = euler_bernoulli_genfunc_check(12)
    return _result("A17", "Euler generating function, exact coefficients", ok,
                   "exact match through t^12" if ok else "coefficient mismatch")


ALL_CRITERIA = [
    criterion_01, criterion_02, criterion_03, criterion_04, criterion_05,
    criterion_06, criterion_07, criterion_08, criterion_09, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14, criterion_15,
    criterion_16, criterion_17,
]


def run_all(prec: int = PREC, report=print) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        try:
            res = fn(prec)
        except Exception as exc:  # a crash is a failure, not an abort
            cid = f"A{int(fn.__name__.split('_')[1])}"
            res = _result(cid, fn.__doc__.strip().splitlines()[0], False, f"exception: {exc!r}")
        if report:
            report(res.line())
        results.append(res)
    return results
