"""Dense polynomial helpers shared by the zeta-polynomial machinery.

Polynomials are plain coefficient lists c_0..c_n (lowest degree first), over
Fraction (PolyQ convention) or mpf/mpc (PolyC convention). The binomial
polynomials C(s + shift, e) come as integer rows e! C(s + shift, e)
(``falling_poly``), so a caller sums its rows exactly and divides by e! once.
Evaluation is Horner; only ``poly_to_mpc`` sets a precision, the rest runs in
the caller's context.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from .hp import guarded


def poly_eval(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_trim(coeffs):
    """Drop exactly zero leading coefficients, keeping at least one; a rounded
    near-zero is the caller's to zero (``zeta_polynomial``, by its FE)."""
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_compose_one_minus_s(coeffs):
    """q with q(s) = p(1 - s), exact binomial expansion in the coefficient domain."""
    n = len(coeffs)
    out = [c * 0 for c in coeffs]
    for h, c in enumerate(coeffs):
        if c == 0:
            continue
        for i in range(h + 1):
            out[i] += c * math.comb(h, i) * (-1) ** i
    return out


def poly_negate_var(coeffs):
    """p(-s)."""
    return [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]


def falling_poly(shift: int, e: int) -> list[int]:
    """Integer coefficients of prod_{i<e} (s + shift - i) = e! C(s + shift, e),
    a polynomial in s of degree e."""
    co = [1]
    for i in range(e):
        co = [(shift - i) * a + b for a, b in zip(co + [0], [0] + co)]
    return co


@guarded()
def poly_to_mpc(coeffs, prec: int):
    """The coefficients as mpmath numbers rounded to prec bits."""
    return [mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction)
            else mp.mpmathify(c) for c in coeffs]
