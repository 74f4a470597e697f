"""Modular-form side: universal coefficient recursions, completed critical
values of the discriminant form, period polynomials, zeta polynomials with
their functional equation and critical-line root checks, the comparison
polynomials H_k built from binomial transforms, and the Ehrhart simplex
oracle.

Scope note: the universal recursion is implemented for forms with no zeros
in the fundamental domain (the divisor correction term vanishes), which the
discriminant form satisfies; level N > 1 profiles are ingested from JSON,
never computed here.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .numerics import (
    DEFAULT_PREC,
    GUARD_BITS,
    RootFindingError,
    binomial_poly,
    guarded,
    incomplete_gamma_upper,
    poly_compose_one_minus_s,
    poly_eval,
    poly_negate_var,
    poly_roots,
    poly_to_mpc,
    poly_trim,
    stirling1_table,
    working,
)


def sigma_power(n: int, power: int) -> int:
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


# ----------------------------------------------------------------------
# universal coefficient recursion
@dataclass(frozen=True)
class UniversalPolynomial:
    """F_n: the -2 x_1 sigma_1(n)/n term plus one monomial per partition of n
    with no part equal to n: coefficient (-1)^l (l-1)!/prod(mult_i!), variable
    x_{i+1} to the power mult_i."""

    n: int
    linear_coeff: Fraction                    # multiplies x_1
    monomials: tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]
    # each monomial: (coefficient, ((part i, multiplicity m_i), ...))

    def evaluate(self, x1, higher) -> Fraction:
        """higher[i] is the value bound to x_{i+1}, i = 1..n-1."""
        total = self.linear_coeff * x1
        for coeff, powers in self.monomials:
            term = coeff
            for i, m_i in powers:
                term *= higher[i] ** m_i
            total += term
        return total


def universal_F(n: int) -> UniversalPolynomial:
    """Structured universal polynomial F_n (feasible for n up to ~45)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    monos = []
    # partitions of n into parts < n, by multiplicity vectors
    def rec(remaining, part, mults):
        if remaining == 0:
            length = sum(m for _, m in mults)
            denom = math.prod(math.factorial(m) for _, m in mults)
            coeff = Fraction((-1) ** length * math.factorial(length - 1), denom)
            monos.append((coeff, tuple(mults)))
            return
        for p in range(min(part, remaining), 0, -1):
            if p >= n:
                continue
            top = remaining // p
            for m in range(top, 0, -1):
                mults.append((p, m))
                rec(remaining - p * m, p - 1, mults)
                mults.pop()

    rec(n, n - 1, [])
    return UniversalPolynomial(
        n=n,
        linear_coeff=Fraction(-2 * sigma_power(n, 1), n),
        monomials=tuple(monos),
    )


def tau_recursive(nmax: int) -> list[int]:
    """tau(1..nmax) from the universal recursion tau(n+1) = F_n(12, tau(2..n)).

    F_n's partition sum is evaluated through its generating identity
    -[q^n] log(sum_j tau(j+1) q^j), the same polynomial reorganized as a
    series coefficient (the structural form is infeasible to enumerate near
    n = 100; equality of the two evaluations is property-tested at small n).
    Every intermediate must be an integer or the variable convention broke.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    tau = [0, 1]
    t = [Fraction(1)]   # t[j] = tau(j+1)
    lg = [Fraction(0)]  # log-series coefficients
    for n in range(1, nmax):
        s = Fraction(0)
        for j in range(1, n):
            if t[n - j]:
                s += j * lg[j] * t[n - j]
        log_trunc = -s / n  # [q^n] log with t_n treated as 0
        value = Fraction(-2 * 12 * sigma_power(n, 1), n) - log_trunc
        if value.denominator != 1:
            raise ArithmeticError(
                f"tau({n + 1}) came out non-integer ({value}): variable-convention defect")
        tau.append(int(value))
        t.append(Fraction(value))
        lg.append(log_trunc + t[n])
    return tau[1:]


def tau_eta_oracle(nmax: int) -> list[int]:
    """tau(1..nmax) from q prod (1-q^n)^24, exact integer series arithmetic."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    N = nmax - 1  # need coefficients of the 24th power through q^{nmax-1}
    euler = [0] * (N + 1)
    euler[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > N and g2 > N:
            break
        sign = -1 if k % 2 else 1
        if g1 <= N:
            euler[g1] += sign
        if g2 <= N:
            euler[g2] += sign
        k += 1

    def mul(A, B):
        C = [0] * (N + 1)
        for i, a in enumerate(A):
            if a:
                for j in range(0, N + 1 - i):
                    if B[j]:
                        C[i + j] += a * B[j]
        return C

    power = [1] + [0] * N
    base, e = euler, 24
    while e:
        if e & 1:
            power = mul(power, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return [power[n - 1] for n in range(1, nmax + 1)]


def eisenstein_coeffs(k: int, T: int) -> list[Fraction]:
    """Normalized Eisenstein series coefficients 1, -(2k/B_k) sigma_{k-1}(n)."""
    if k < 2 or k % 2:
        raise ValueError("weight must be even >= 2")
    from .numerics import bernoulli

    factor = Fraction(-2 * k) / bernoulli(k)
    return [Fraction(1)] + [factor * sigma_power(n, k - 1) for n in range(1, T + 1)]


# ----------------------------------------------------------------------
# completed L-values of the discriminant form
_TAU_CACHE: list[int] = []


def _tau(n: int) -> int:
    global _TAU_CACHE
    if len(_TAU_CACHE) < n:  # grown by doubling: each rebuild starts from scratch
        _TAU_CACHE = tau_recursive(max(n, 2 * len(_TAU_CACHE), 64))
    return _TAU_CACHE[n - 1]


# work budget of lambda_delta, in units of ~1 us: its terms, at least
# floor((prec - 10) ln 2 / (2 pi)) of them, at 400 + wp^2/2000 each for an
# integer s (two incomplete gamma values in closed form) and 8000 + wp^2/12
# for any other s (two by series). Priced and timed, per value: s = 6 at
# 2048 bits 6.0 x 10^5, 0.66 s; s = 6 at 4096 bits 4.1 x 10^6, 4.6 s;
# s = 5.5 at 512 bits 2.0 x 10^6, 1.8 s, at 1024 bits 1.2 x 10^7, 9.9 s
# (2-core x86 VM, CPython 3.11, mpmath pure-Python backend)
LAMBDA_MAX_WORK = 2 ** 21


@guarded(extra=32)
def lambda_delta(s, prec: int = DEFAULT_PREC):
    """Completed critical value of the weight-12 level-1 form at s in [1, 11].

    Split-integral series Lambda(s) = sum_n tau(n) [Gamma(s,2 pi n)/(2 pi n)^s
    + Gamma(12-s,2 pi n)/(2 pi n)^{12-s}]; terms decay like e^{-2 pi n}, and
    truncation stops once the bound |tau(n)| <= n^6.5 puts the remaining sum
    under 2^(10-prec)/100. Target: within 2^(10-prec) of the exact value
    (the guard bits hold the rounding of the terms). A price above
    LAMBDA_MAX_WORK raises ArithmeticError (work budget) before any term.
    """
    s = mp.mpf(s)
    if not (1 <= s <= 11):
        raise ValueError("critical strip for weight 12 is 1 <= s <= 11")
    wp = mp.mp.prec
    # e^{-2 pi n} <= tail(n), so the series keeps at least this many terms
    terms = (prec - 10) * 1000 // 9065
    work = terms * (400 + wp * wp // 2000 if s == int(s) else 8000 + wp * wp // 12)
    if work > LAMBDA_MAX_WORK:
        raise ArithmeticError(f"Lambda({mp.nstr(s, 8)}) at {prec} bits needs {work} units of "
                              f"incomplete gamma values; its work budget is "
                              f"LAMBDA_MAX_WORK = {LAMBDA_MAX_WORK}")
    target = mp.ldexp(1, 10 - prec) / 100

    def tail(n):  # sum_{j>=n} j^6.5 * 2 * max(Gamma-factor), decreasing for n >= 3
        return (mp.mpf(n) ** mp.mpf(6.5) * 2 * mp.exp(-2 * mp.pi * n)
                * (2 * mp.pi * n) ** 10 / (1 - mp.exp(-2 * mp.pi)) * 4)

    n_stop = 2  # the series keeps the terms n < n_stop, about prec ln 2/(2 pi) of them
    while tail(n_stop) >= target:
        n_stop += 1
    total = mp.mpf(0)
    for n in range(1, n_stop):
        x = 2 * mp.pi * n
        total += (_tau(n) * (incomplete_gamma_upper(s, x, wp) / x ** s
                             + incomplete_gamma_upper(12 - s, x, wp) / x ** (12 - s)))
    return total


# ----------------------------------------------------------------------
@dataclass
class LProfile:
    """A newform's arithmetic data: weight, level, sign, completed values
    Lambda(f, 1..k-1)."""

    weight: int
    level: int
    sign: int
    lam: list
    source: str = "computed"

    def __post_init__(self):
        if self.weight < 4 or self.weight % 2:
            raise ValueError("weight must be even >= 4")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if len(self.lam) != self.weight - 1:
            raise ValueError(f"need weight - 1 Lambda values, got {len(self.lam)}")
        if not all(mp.isfinite(v) for v in self.lam):
            raise ValueError("Lambda values must be finite")
        if not any(self.lam):
            raise ValueError("Lambda values must not all be zero")

    def validate(self, tol=1e-20) -> None:
        """Functional equation, monotone chain, and the sign -1 central zero.

        Every difference is exact (mpmath's ``exact`` arithmetic) and every
        comparison with tol too, so the values are checked at their own
        precision, whatever the ambient context.
        """
        k = self.weight
        lam = self.lam
        for j in range(k - 1):
            dev = (mp.fsub if self.sign == 1 else mp.fadd)(lam[j], lam[k - 2 - j], exact=True)
            if not -tol <= dev <= tol:
                raise ValueError(f"functional equation violated at j={j}: |dev|={abs(dev)}")
        chain = lam[k // 2 - 1:]
        if any(mp.fsub(a, b, exact=True) > tol for a, b in zip(chain, chain[1:])) \
                or chain[0] < -tol:
            raise ValueError("monotone chain 0 <= Lambda(k/2) <= ... <= Lambda(k-1) violated")
        if self.sign == -1 and not -tol <= lam[k // 2 - 1] <= tol:
            raise ValueError("sign -1 requires Lambda(k/2) = 0")

    @guarded()
    def l_value(self, j: int, prec: int = DEFAULT_PREC):
        """Raw L(f, j) recovered from Lambda(f, j) = (sqrt N/2 pi)^j Gamma(j) L(f, j)."""
        factor = (mp.sqrt(self.level) / (2 * mp.pi)) ** j * mp.factorial(j - 1)
        return self.lam[j - 1] / factor

    def to_json(self, digits: int = 50) -> str:
        return json.dumps({
            "weight": self.weight,
            "level": self.level,
            "sign": self.sign,
            "lambda": [mp.nstr(v, digits) for v in self.lam],
            "source": self.source,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, prec: int = DEFAULT_PREC) -> "LProfile":
        """Parse ``to_json`` output. Weight, level and sign must be JSON
        integers and lambda a list of numbers or numeric strings; malformed
        text, a missing field or a field of another type raises ValueError."""
        try:
            data = json.loads(text)
            fields = {key: data[key] for key in ("weight", "level", "sign")}
            lam = data["lambda"]
        except KeyError as exc:
            raise ValueError(f"profile has no {exc.args[0]!r} field") from exc
        except (TypeError, RecursionError) as exc:
            raise ValueError(f"malformed profile: {exc}") from exc
        for key, value in fields.items():
            if type(value) is not int:  # bool is an int subclass; 4.7 is not 4
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if type(lam) is not list or any(type(v) not in (int, float, str) for v in lam):
            raise ValueError("lambda must be a list of numbers or numeric strings")
        with working(prec):
            lam = [mp.mpf(v) for v in lam]
        return cls(lam=lam, source=data.get("source", "file"), **fields)


def build_delta_profile(prec: int = DEFAULT_PREC) -> LProfile:
    """Assemble the discriminant-form profile Lambda(1..11) and validate it."""
    lam = [lambda_delta(j, prec=prec) for j in range(1, 12)]
    prof = LProfile(weight=12, level=1, sign=1, lam=lam, source="computed")
    prof.validate(tol=mp.ldexp(1, -(prec // 2)))
    return prof


# ----------------------------------------------------------------------
def period_polynomial(prof: LProfile, prec: int = DEFAULT_PREC):
    """R_f(z) = sum_j C(k-2, j) Lambda(f, k-1-j) z^j, coefficients c_0..c_{k-2}."""
    k = prof.weight
    with working(prec):
        return [mp.mpf(math.comb(k - 2, j)) * prof.lam[k - 2 - j] for j in range(k - 1)]


@guarded()
def moments(prof: LProfile, m: int, prec: int = DEFAULT_PREC):
    """M_f(m) = (1/(k-2)!) sum_j C(k-2, j) Lambda(f, j+1) j^m, with 0^0 = 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    k = prof.weight
    total = mp.mpf(0)
    for j in range(k - 1):
        jm = mp.mpf(1) if (j == 0 and m == 0) else mp.mpf(j) ** m
        total += math.comb(k - 2, j) * prof.lam[j] * jm
    return total / mp.factorial(k - 2)


@guarded()
def moments_from_l_values(prof: LProfile, m: int, prec: int = DEFAULT_PREC):
    """The other displayed form: sum_j (sqrt N/2 pi)^{j+1} L(f,j+1) j^m/(k-2-j)!."""
    k = prof.weight
    total = mp.mpf(0)
    for j in range(k - 1):
        jm = mp.mpf(1) if (j == 0 and m == 0) else mp.mpf(j) ** m
        L = prof.l_value(j + 1, mp.mp.prec)
        total += ((mp.sqrt(prof.level) / (2 * mp.pi)) ** (j + 1) * L
                  / mp.factorial(k - 2 - j) * jm)
    return total


@dataclass
class ZetaPolynomial:
    """Manin-style polynomial built from Stirling-weighted moments."""

    coeffs: list                  # c_0..c_{k-2} of Z(s)
    weight: int
    sign: int

    def __call__(self, s):
        return poly_eval(self.coeffs, s)


def zeta_polynomial(prof: LProfile, prec: int = DEFAULT_PREC) -> ZetaPolynomial:
    """Z_f(s) = sum_h (-s)^h sum_m C(m+h, h) s(k-2, m+h) M_f(m).

    Stirling numbers and binomials stay exact integers; the moments carry the
    precision.
    """
    return ZetaPolynomial(_zeta_poly_coeffs(prof, prec), weight=prof.weight, sign=prof.sign)


@guarded()
def _zeta_poly_coeffs(prof: LProfile, prec: int) -> list:
    k = prof.weight
    S = stirling1_table(k - 2)[k - 2]
    M = [moments(prof, m, mp.mp.prec) for m in range(k - 1)]
    coeffs = []
    for h in range(k - 1):
        c = mp.mpf(0)
        for m in range(0, k - 1 - h):
            c += math.comb(m + h, h) * S[m + h] * M[m]
        coeffs.append(c * (-1) ** h)
    return coeffs


@guarded()
def functional_eq_check(Z: ZetaPolynomial, sign: int, prec: int = DEFAULT_PREC):
    """Max coefficient residual of Z(s) - sign * Z(1-s), expanded exactly."""
    composed = poly_compose_one_minus_s(Z.coeffs)
    return max(abs(a - sign * b) for a, b in zip(Z.coeffs, composed))


@guarded()
def rh_check(Z: ZetaPolynomial, prec: int = DEFAULT_PREC):
    """(roots, max |Re(root) - 1/2|) over the nontrivial coefficients."""
    trimmed = poly_trim(Z.coeffs, rel_tol=mp.ldexp(1, -(prec // 2)))
    roots, _ = poly_roots(trimmed, prec=prec)
    return roots, max(abs(mp.re(r) - mp.mpf(1) / 2) for r in roots)


@guarded()
def generating_check(prof: LProfile, T: int, prec: int = DEFAULT_PREC):
    """Max |[z^n] R_f(z)/(1-z)^{k-1} - Z_f(-n)| for n <= T."""
    k = prof.weight
    R = period_polynomial(prof, mp.mp.prec)
    Z = zeta_polynomial(prof, mp.mp.prec)
    worst = mp.mpf(0)
    for n in range(T + 1):
        coeff = mp.fsum(R[j] * math.comb(n - j + k - 2, k - 2)
                        for j in range(min(n, k - 2) + 1))
        worst = max(worst, abs(coeff - Z(mp.mpf(-n))))
    return worst


# ----------------------------------------------------------------------
def rv_transform(U: list) -> list:
    """Binomial-transform polynomial H with H(n) = [z^n] U(z)/(1-z)^{e+1}.

    U(1) != 0 required (otherwise the degree is not pinned down); exact over
    Fractions, mixed otherwise: H(s) = sum_j u_j C(s - j + e, e).
    """
    U = list(U)
    while U and U[-1] == 0:
        U.pop()
    if not U:
        raise ValueError("zero polynomial")
    e = len(U) - 1
    exact = all(isinstance(u, (int, Fraction)) for u in U)
    if exact and sum(U) == 0:
        raise ValueError("U(1) = 0: factor out (1-z) first")
    H = [Fraction(0) if exact else U[0] * 0 for _ in range(e + 1)]
    for j, u in enumerate(U):
        if u == 0:
            continue
        for i, b in enumerate(binomial_poly(e - j, e)):
            if exact:
                H[i] += u * b
            else:
                H[i] += u * mp.mpf(b.numerator) / b.denominator
    return H


def hk_polynomial(k: int, sign: int) -> list[Fraction]:
    """H_k^{+-}(s) = C(s+k-2, k-2) +- C(s, k-2), exact coefficients.

    Equivalently the binomial transform of x^{k-2} + 1 (sign +) or of
    1 + x + ... + x^{k-3} (sign -, after the telescoping identity); the minus
    polynomial is the Ehrhart polynomial of the standard reflexive simplex.
    """
    if k < 4 or k % 2:
        raise ValueError("weight must be even >= 4")
    if sign not in (-1, 1):
        raise ValueError("sign must be +-1")
    A = binomial_poly(k - 2, k - 2)
    B = binomial_poly(0, k - 2)
    co = [a + sign * b for a, b in zip(A, B)]
    return poly_trim(co)


@guarded()
def hk_zero_solver(k: int, sign: int, prec: int = DEFAULT_PREC,
                   largest_only: bool = False) -> list:
    """Ordinates t of the zeros 1/2 + it of H_k^{sign}(-s), to prec bits.

    h_k(t) = sum_{j=0}^{k-3} arccot(2t/(2j+1)) decreases from (k-2) pi to 0;
    zeros sit where it crosses {pi, ..., (k-3) pi} (sign -) or
    {pi/2, ..., (k-5/2) pi} (sign +). Each crossing is one bracketed
    ``mp.findroot`` (Anderson-Bjoerck) at the working precision; a root it
    cannot verify raises RootFindingError. Returns k-3 resp. k-2 ordinates,
    descending (only the top one when largest_only).
    """
    if k < 6 or k % 2:
        raise ValueError("need even k >= 6")

    def h(t):
        return mp.fsum(mp.pi / 2 - mp.atan(2 * t / (2 * j + 1)) for j in range(k - 2))

    if sign == -1:
        targets = [mp.pi * i for i in range(1, k - 2)]
    else:
        targets = [mp.pi / 2 + mp.pi * i for i in range(0, k - 2)]
    if largest_only:
        targets = targets[:1]  # smallest target value = highest ordinate
    tmax = mp.mpf((k - 2) ** 2) / mp.pi + 8  # h(-tmax) ~ (k-2) pi > target > 0 ~ h(tmax)
    try:
        return [mp.findroot(lambda t: h(t) - tgt, (-tmax, tmax), solver="anderson")
                for tgt in targets]
    except ValueError as exc:
        raise RootFindingError(f"H_{k} zero solver: {exc}") from exc


def ehrhart_simplex_count(k: int, dilation: int) -> int:
    """Lattice points of the dilated simplex conv{e_1..e_{k-3}, -sum e_j}.

    Membership x = sum c_i v_i with c_i >= 0, sum c_i = dilation, solved
    exactly: c_last = r/(k-2) with r = dilation - sum x, and
    c_i = x_i + c_last, so x is a member iff r >= 0 and (k-2) x_i + r >= 0
    for every i, an integer test. Exhaustive box scan, so (2m+1)^{k-3} must
    stay small (<= ~10^7 enforced).
    """
    if k < 6 or k % 2:
        raise ValueError("need even k >= 6")
    if dilation < 0:
        raise ValueError("dilation must be >= 0")
    d = k - 3
    if (2 * dilation + 1) ** d > 10 ** 7:
        raise ValueError("box scan too large for the brute-force oracle")
    count = 0
    vertices = k - 2
    for x in itertools.product(range(-dilation, dilation + 1), repeat=d):
        r = dilation - sum(x)
        if r >= 0 and vertices * min(x) + r >= 0:
            count += 1
    return count


@guarded()
def weight4_inequality_check(prof: LProfile, prec: int = DEFAULT_PREC) -> dict:
    """(N/pi^2) L(f,3)^2 >= L(f,2)^2, and its equivalence with the two roots
    of the quadratic period polynomial lying on the unit circle."""
    if prof.weight != 4:
        raise ValueError("this check is specific to weight 4")
    L2 = prof.l_value(2, mp.mp.prec)
    L3 = prof.l_value(3, mp.mp.prec)
    lhs = prof.level / mp.pi ** 2 * L3 ** 2
    holds = bool(lhs >= L2 ** 2)
    trivial = bool(abs(L2) < mp.mpf(2) ** (-(prec // 2)))
    R = period_polynomial(prof, mp.mp.prec)
    roots, _ = poly_roots(R, prec=mp.mp.prec)
    on_circle = bool(max(abs(abs(r) - 1) for r in roots) < mp.mpf(2) ** (-(prec // 4)))
    if holds != on_circle:
        raise ArithmeticError("inequality and unit-circle verdicts disagree")
    return {"holds": holds, "trivial_zero_case": trivial, "roots_on_circle": on_circle,
            "lhs": lhs, "rhs": L2 ** 2}


def hausdorff_distance(A, B, prec: int = DEFAULT_PREC):
    with working(prec):
        d1 = max(min(abs(a - b) for b in B) for a in A)
        d2 = max(min(abs(a - b) for a in A) for b in B)
        return max(d1, d2)


def convergence_experiment(profiles: list[LProfile], prec: int = DEFAULT_PREC) -> list[dict]:
    """Root distances of Z_f to the comparison polynomial H_k^{sign}(-s).

    All profiles must share weight and sign. Each row reports the Hausdorff
    distance and asserts the ordinate bound (k-3)(k-7/2) for sign +1 resp.
    (k-4)(k-9/2) for sign -1.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    k = profiles[0].weight
    sign = profiles[0].sign
    if any(p.weight != k or p.sign != sign for p in profiles):
        raise ValueError("profiles must share weight and sign")
    H = hk_polynomial(k, sign)
    Hms = poly_negate_var(H)
    href, _ = poly_roots(poly_to_mpc(Hms, prec + GUARD_BITS), prec=prec)
    bound = (k - 3) * (k - mp.mpf(7) / 2) if sign == 1 else (k - 4) * (k - mp.mpf(9) / 2)
    rows = []
    for i, prof in enumerate(profiles):
        Z = zeta_polynomial(prof, prec)
        roots, dev = rh_check(Z, prec)
        max_ord = max(abs(mp.im(r)) for r in roots)
        if not max_ord < bound:
            raise ArithmeticError(
                f"ordinate bound violated: {max_ord} !< {bound} (profile {i})")
        rows.append({
            "profile": prof.source or f"profile-{i}",
            "distance": hausdorff_distance(roots, href, prec),
            "max_ordinate": max_ord,
            "ordinate_bound": bound,
            "critical_line_dev": dev,
        })
    return rows
