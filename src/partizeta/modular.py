"""Modular-form side: the tau recursion through the universal coefficient
polynomials (each evaluated as a log-series coefficient, on integers) and
its eta-product oracle, the completed critical values Lambda(1..11) of the
discriminant form at the integers (one pass over the split-integral series,
one incomplete-gamma ladder per term), period polynomials, zeta polynomials
as coefficient lists (exact integer weights against the Lambda values) with
their functional equation and critical-line root checks, the comparison
polynomials H_k built from integer falling-factorial rows with their zero
solver, and the exact lattice-point count of the dilated reflexive simplex
(one binomial per coordinate-sum slice) behind the Ehrhart identity for H_k^-.

Scope note: the universal recursion is implemented for forms with no zeros
in the fundamental domain (the divisor correction term vanishes), which the
discriminant form satisfies; level N > 1 profiles are ingested from JSON,
never computed here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath as mp

from .numerics import (
    DEFAULT_PREC,
    RootFindingError,
    check_work,
    falling_poly,
    guarded,
    poly_compose_one_minus_s,
    poly_eval,
    poly_roots,
    poly_trim,
    stirling1_row,
    working,
)


def sigma_power(n: int, power: int) -> int:
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


# ----------------------------------------------------------------------
# universal coefficient recursion
def tau_recursive(nmax: int) -> list[int]:
    """tau(1..nmax) from the universal recursion tau(n+1) = F_n(12, tau(2..n)).

    F_n's partition sum is evaluated through its generating identity
    -[q^n] log(sum_j tau(j+1) q^j), the same polynomial reorganized as a
    series coefficient (the structural form is infeasible to enumerate near
    n = 100; equality of the two evaluations is property-tested at small n).
    The recursion keeps L_j = j [q^j] log(sum_j tau(j+1) q^j), integers:
    tau(n+1) = (s - 24 sigma(n))/n with s = sum_{j<n} L_j tau(n-j+1), and
    L_n = n tau(n+1) - s. A remainder means the variable convention broke.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    t = [1]  # t[j] = tau(j+1)
    L = [0]
    for n in range(1, nmax):
        s = sum(L[j] * t[n - j] for j in range(1, n))
        value, rem = divmod(s - 24 * sigma_power(n, 1), n)
        if rem:
            raise ArithmeticError(f"tau({n + 1}) came out non-integer ({value} + {rem}/{n}): "
                                  "variable-convention defect")
        t.append(value)
        L.append(n * value - s)
    return t


def tau_eta_oracle(nmax: int) -> list[int]:
    """tau(1..nmax) from q prod (1-q^n)^24 = q (eta^3/q^(1/8))^8, exact
    integer series arithmetic: Jacobi's prod (1-q^n)^3 =
    sum_m (-1)^m (2m+1) q^(m(m+1)/2), squared three times."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    series = [0] * nmax  # coefficients of q^0..q^(nmax-1)
    m = 0
    while m * (m + 1) // 2 < nmax:
        series[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
        m += 1
    for _ in range(3):
        square = [0] * nmax
        for i, a in enumerate(series):
            if a:
                for j in range(nmax - i):
                    square[i + j] += a * series[j]
        series = square
    return series


def eisenstein_coeffs(k: int, T: int) -> list[Fraction]:
    """Normalized Eisenstein series coefficients 1, -(2k/B_k) sigma_{k-1}(n)."""
    if k < 2 or k % 2:
        raise ValueError("weight must be even >= 2")
    from .numerics import bernoulli

    factor = Fraction(-2 * k) / bernoulli(k)
    return [Fraction(1)] + [factor * sigma_power(n, k - 1) for n in range(1, T + 1)]


# ----------------------------------------------------------------------
# completed L-values of the discriminant form
def _gamma_ladder(x, ex, steps: int) -> list:
    """Gamma(a, x)/x^a for a = 1..steps + 1, with ex = e^-x: one incomplete
    gamma from mpmath at a = 1, then Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x
    (DLMF 8.8.2) divided by x^(a + 1). Each step adds two positive terms, so
    nothing cancels."""
    g = [mp.gammainc(1, x) / x]
    for a in range(1, steps + 1):
        g.append((a * g[-1] + ex) / x)
    return g


@guarded(extra=32)
def _lambda_values(prec: int) -> list:
    """Lambda(1..11) from one pass over the terms n: tau(n) from
    ``tau_eta_oracle``, e^{-2 pi n} a running product, and per n one
    ``_gamma_ladder`` a = 1..11, Lambda(j) reading its rungs j and 12 - j.
    Its price is checked against the work budget before any term."""
    # the pass keeps the terms n < n_stop, about prec ln 2/(2 pi) of them. With
    # |tau(j)| <= j^6.5 the rest is at most sum_{j>=n} 8 j^6.5 (2 pi j)^10
    # e^{-2 pi j}/(1 - e^{-2 pi}), decreasing for n >= 3: n_stop is the first
    # n >= 2 that puts it under 2^(10-prec)/100, in log2 with one bit to spare,
    # and e^{-2 pi n} alone keeps it above that below the first n tried
    rate = 2 * math.pi / math.log(2)
    target = 9 - prec - math.log2(100)
    n_stop = max(2, int(-target / rate))
    while (3 - math.log2(1 - math.exp(-2 * math.pi)) + 6.5 * math.log2(n_stop)
           + 10 * math.log2(2 * math.pi * n_stop) - rate * n_stop) >= target:
        n_stop += 1
    # per term, in units of ~1 us: the ladder's base 20 + wp^2/40000 (a closed
    # form), each of its ten steps and each value's sum 10 + wp^2/500000.
    # Priced and timed: the profile at 3241 bits 3.6 x 10^5, 0.34 s, and at
    # 8000 bits 4.1 x 10^6, 4.1 s (2-core x86 VM, CPython 3.11, mpmath
    # pure-Python backend)
    wp = mp.mp.prec
    check_work((n_stop - 1) * (20 + wp * wp // 40000 + 21 * (10 + wp * wp // 500000)),
               f"the discriminant-form profile at {prec} bits")
    tau = tau_eta_oracle(n_stop - 1)
    q = mp.exp(-2 * mp.pi)
    ex = mp.mpf(1)
    totals = [mp.mpf(0)] * 11
    for n in range(1, n_stop):
        x = 2 * mp.pi * n
        ex *= q
        g = _gamma_ladder(x, ex, 10)
        for j in range(1, 12):
            totals[j - 1] += tau[n - 1] * (g[j - 1] + g[11 - j])
    return totals


# ----------------------------------------------------------------------
class LProfile:
    """A newform's arithmetic data: weight, level, sign, completed values
    Lambda(f, 1..k-1)."""

    __slots__ = ("weight", "level", "sign", "lam", "source")

    def __init__(self, weight: int, level: int, sign: int, lam: list,
                 source: str = "computed"):
        if weight < 4 or weight % 2:
            raise ValueError("weight must be even >= 4")
        if sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        if level < 1:
            raise ValueError("level must be >= 1")
        if len(lam) != weight - 1:
            raise ValueError(f"need weight - 1 Lambda values, got {len(lam)}")
        if not all(mp.isfinite(v) for v in lam):
            raise ValueError("Lambda values must be finite")
        if not any(lam):
            raise ValueError("Lambda values must not all be zero")
        self.weight, self.level, self.sign, self.lam, self.source = weight, level, sign, lam, source

    def validate(self, tol=1e-20) -> None:
        """Functional equation, monotone chain, and the sign -1 central zero.

        Each difference is rounded down and up to the bits of tol (53 at
        least), between which tol cannot fall: every comparison with tol is
        exact whatever the ambient context, and no difference takes as many
        bits as its operands' exponents are apart.
        """
        k = self.weight
        lam = self.lam
        tol = mp.mpmathify(tol)  # exact for a float
        ntol = mp.fneg(tol, exact=True)
        bits = max(53, tol.bc)
        op = mp.fsub if self.sign == 1 else mp.fadd
        for j in range(k - 1):
            lo, hi = (op(lam[j], lam[k - 2 - j], prec=bits, rounding=r) for r in "fc")
            if not (ntol <= lo and hi <= tol):
                raise ValueError(f"functional equation violated at j={j}: "
                                 f"|dev|={max(abs(lo), abs(hi))}")
        chain = lam[k // 2 - 1:]
        if any(mp.fsub(a, b, prec=bits, rounding="c") > tol for a, b in zip(chain, chain[1:])) \
                or chain[0] < ntol:
            raise ValueError("monotone chain 0 <= Lambda(k/2) <= ... <= Lambda(k-1) violated")
        if self.sign == -1 and not ntol <= lam[k // 2 - 1] <= tol:
            raise ValueError("sign -1 requires Lambda(k/2) = 0")

    def as_dict(self, digits: int) -> dict:
        """The --profile fields, each Lambda value to digits decimals."""
        return {"weight": self.weight, "level": self.level, "sign": self.sign,
                "source": self.source, "lambda": [mp.nstr(v, digits) for v in self.lam]}

    @classmethod
    def from_json(cls, text: str, prec: int = DEFAULT_PREC) -> "LProfile":
        """Parse ``as_dict`` as JSON (the ``modular --report`` profile block).
        Weight, level and sign must be JSON integers and lambda a list of numbers
        or numeric strings; malformed text, a missing field or a field of another
        type raises ValueError."""
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
    """Assemble the discriminant-form profile Lambda(1..11) from one pass
    (one ladder a = 1..11 per term) and validate it."""
    prof = LProfile(weight=12, level=1, sign=1, lam=_lambda_values(prec), source="computed")
    prof.validate(tol=mp.ldexp(1, -(prec // 2)))
    return prof


# ----------------------------------------------------------------------
def period_polynomial(prof: LProfile, prec: int = DEFAULT_PREC):
    """R_f(z) = sum_j C(k-2, j) Lambda(f, k-1-j) z^j, coefficients c_0..c_{k-2}."""
    k = prof.weight
    with working(prec):
        return [mp.mpf(math.comb(k - 2, j)) * prof.lam[k - 2 - j] for j in range(k - 1)]


def _zeta_weights(k: int) -> list[list[int]]:
    """W_hj = C(k-2, j) P_h(j) for h, j = 0..k-2, with P_h(x) = sum_m
    C(m+h, h) s(k-2, m+h) x^m (Manin's Stirling form) by Horner: integers."""
    S = stirling1_row(k - 2)
    P = [[math.comb(m + h, h) * S[m + h] for m in range(k - 1 - h)] for h in range(k - 1)]
    return [[math.comb(k - 2, j) * poly_eval(row, j) for j in range(k - 1)] for row in P]


@guarded()
def zeta_polynomial(prof: LProfile, prec: int = DEFAULT_PREC) -> list:
    """c_0..c_{k-2} of Z_f(s) = sum_h (-s)^h sum_m C(m+h, h) s(k-2, m+h) M_f(m),
    M_f(m) = (1/(k-2)!) sum_j C(k-2, j) Lambda(f, j+1) j^m.

    Summed over j first: c_h = (-1)^h sum_j W_hj Lambda(f, j+1)/(k-2)! with
    the integer weights W_hj of ``_zeta_weights``. Only the Lambda values
    carry precision: one ``mp.fsum`` per coefficient, one division by (k-2)!.

    The functional equation, not a tolerance, fixes the degree. Sign +1:
    c_{k-2} = sum_j C(k-2, j) Lambda(f, j+1)/(k-2)! > 0 for a valid profile
    (chain >= 0, not all 0). Sign -1: Z(1 - s) = -Z(s) at even degree k - 2
    forces c_{k-2} = 0, set exactly; pairing j with k - 2 - j gives c_{k-3} =
    (-1)^(k-3) (k-2)/(k-2)! sum_{j > (k-2)/2} C(k-2, j) (2j-k+2) Lambda(f, j+1) != 0.
    """
    f = math.factorial(prof.weight - 2)
    Z = [(-1) ** h * mp.fsum(w * lam for w, lam in zip(row, prof.lam)) / f
         for h, row in enumerate(_zeta_weights(prof.weight))]
    if prof.sign == -1:
        Z[-1] = mp.mpf(0)
    return Z


@guarded()
def functional_eq_check(Z: list, sign: int, prec: int = DEFAULT_PREC):
    """Max coefficient residual of Z(s) - sign * Z(1-s), Z = c_0..c_n, expanded exactly."""
    composed = poly_compose_one_minus_s(Z)
    return max(abs(a - sign * b) for a, b in zip(Z, composed))


@guarded()
def rh_check(Z: list, prec: int = DEFAULT_PREC):
    """(roots, max |Re(root) - 1/2|) of Z = c_0..c_n at its own degree: no
    trim, ``poly_roots`` drops only exact zeros (``zeta_polynomial``'s)."""
    roots, _ = poly_roots(Z, prec=prec)
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
        worst = max(worst, abs(coeff - poly_eval(Z, mp.mpf(-n))))
    return worst


# ----------------------------------------------------------------------
def rv_transform(U: list) -> list:
    """Binomial-transform polynomial H with H(n) = [z^n] U(z)/(1-z)^{e+1}.

    U(1) != 0 required (otherwise the degree is not pinned down):
    H(s) = sum_j u_j C(s - j + e, e), summed over the integer rows
    e! C(s - j + e, e) and divided by e! once; exact (Fractions) over ints and
    Fractions, in the caller's context otherwise.
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
    H = [Fraction(0) if exact else U[0] * 0] * (e + 1)
    for j, u in enumerate(U):
        if u:
            H = [h + u * b for h, b in zip(H, falling_poly(e - j, e))]
    f = math.factorial(e)
    return [h / f for h in H]


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
    f = math.factorial(k - 2)
    return poly_trim([Fraction(a + sign * b, f)
                      for a, b in zip(falling_poly(k - 2, k - 2), falling_poly(0, k - 2))])


@guarded()
def hk_zero_solver(k: int, sign: int, prec: int = DEFAULT_PREC,
                   largest_only: bool = False) -> list:
    """Ordinates t of the zeros 1/2 + it of H_k^{sign}(-s), to prec bits:
    each within 2^(1-prec) max(1, |t|) of the exact ordinate.

    h_k(t) = sum_{j=0}^{k-3} arccot(2t/(2j+1)) decreases from (k-2) pi to 0;
    zeros sit where it crosses {pi, ..., (k-3) pi} (sign -) or
    {pi/2, ..., (k-5/2) pi} (sign +). Each crossing t0 is first bisected in
    Python floats, then bracketed by t0 -+ 2^-36 max(1, |t0|); the bracket is
    checked at the working precision (h - target changes sign across it) and
    widened x 2^10 until it holds, or replaced by (-tmax, tmax). One
    ``mp.findroot`` (Anderson-Bjoerck) runs from it at the working precision;
    a root it cannot verify raises RootFindingError. The polynomial is never
    used, so its roots stay an independent check. Returns k-3 resp. k-2
    ordinates, descending (only the top one when largest_only).
    """
    if k < 6 or k % 2:
        raise ValueError("need even k >= 6")
    if sign not in (-1, 1):
        raise ValueError("sign must be +-1")

    def h(t):
        return mp.fsum(mp.pi / 2 - mp.atan(2 * t / (2 * j + 1)) for j in range(k - 2))

    def h_float(t):
        return math.fsum(math.pi / 2 - math.atan(2 * t / (2 * j + 1)) for j in range(k - 2))

    tmax = mp.mpf((k - 2) ** 2) / mp.pi + 8  # h(-tmax) ~ (k-2) pi > target > 0 ~ h(tmax)

    def crossing(m):
        # in doubles first: bisect h_float - m pi/2 down to 2^-44 max(1, |t|)
        lo, hi = -float(tmax), float(tmax)
        while hi - lo > math.ldexp(max(1, abs(lo), abs(hi)), -44):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if h_float(mid) > m * math.pi / 2 else (lo, mid)
        t0 = mp.mpf((lo + hi) / 2)
        tgt = m * mp.pi / 2

        def f(t):
            return h(t) - tgt

        # h decreases, so t0 -+ d brackets the crossing iff f > 0 > f there,
        # checked at the working precision
        d = mp.ldexp(max(1, abs(t0)), -36)
        while d < tmax and not f(t0 - d) > 0 > f(t0 + d):
            d *= 1024
        return mp.findroot(f, (t0 - d, t0 + d) if d < tmax else (-tmax, tmax),
                           solver="anderson")

    # the targets m pi/2, m even (sign -) or odd (sign +), smallest first
    ms = range(2 if sign == -1 else 1, 2 * k - 4, 2)
    if largest_only:
        ms = ms[:1]  # smallest target value = highest ordinate
    try:
        return [crossing(m) for m in ms]
    except ValueError as exc:
        raise RootFindingError(f"H_{k} zero solver: {exc}") from exc


def ehrhart_simplex_count(k: int, dilation: int) -> int:
    """Lattice points of the dilated simplex conv{e_1..e_{k-3}, -sum e_j}.

    Membership x = sum c_i v_i with c_i >= 0, sum c_i = dilation, solved
    exactly: c_last = r/(k-2) with r = dilation - S, S = sum x, and
    c_i = x_i + c_last, so x is a member iff r >= 0 and every x_i >= -l,
    l = floor(r/(k-2)). The points with coordinate sum S are then the
    compositions of S + (k-3) l into k-3 parts >= 0, C(S + (k-3) l + k-4, k-4)
    of them (none when S + (k-3) l < 0), and S runs over
    [-(k-3) dilation, dilation]: (k-2) dilation + 1 exact binomials, a price
    checked against the work budget first.
    """
    if k < 6 or k % 2:
        raise ValueError("need even k >= 6")
    if dilation < 0:
        raise ValueError("dilation must be >= 0")
    d = k - 3
    # per term, in units of ~1 us: 1 + j (1 + j/128)/32 with j = min(dilation, k),
    # for the binomials' size. Priced and timed: (6, 8 x 10^5) 3.8 x 10^6, 1.0 s;
    # (16, 10^5) 2.2 x 10^6, 1.3 s; (150, 2500) 4.1 x 10^6, 4.2 s; (6, 9) 43, 30 us
    # (2-core x86 VM, CPython 3.11)
    j = min(dilation, k)
    check_work(((k - 2) * dilation + 1) * (32 + j + j * j // 128) // 32,
               f"the Ehrhart count at k = {k}, dilation {dilation}")
    count = 0
    for S in range(-d * dilation, dilation + 1):
        n = S + d * ((dilation - S) // (k - 2))
        if n >= 0:
            count += math.comb(n + d - 1, d - 1)
    return count


def hausdorff_distance(A, B, prec: int = DEFAULT_PREC):
    with working(prec):
        d1 = max(min(abs(a - b) for b in B) for a in A)
        d2 = max(min(abs(a - b) for a in A) for b in B)
        return max(d1, d2)
