"""Dense truncated power series over an exact-rational or mpmath domain.

Coefficient arithmetic is whatever the coefficient type supports (Fraction,
int, mpf, mpc); all operations are exact through the truncation order, with
the usual constant-term preconditions for exp/reciprocal.
"""

from __future__ import annotations

from fractions import Fraction


class TruncatedSeries:
    """Coefficients c_0..c_T of a formal power series, truncation order T."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        zero = coeffs[0] * 0 if coeffs else Fraction(0)
        coeffs = coeffs[: order + 1] + [zero] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def one(cls, order, domain=Fraction):
        return cls([domain(1)], order)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.order == other.order \
            and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        more = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{head}{more}], order={self.order})"

    def _check_same_order(self, other):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_same_order(other)
            T = self.order
            out = [self.coeffs[0] * 0] * (T + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(0, T - i + 1):
                    b = other.coeffs[j]
                    if b == 0:
                        continue
                    out[i + j] += a * b
            return TruncatedSeries(out, T)
        return TruncatedSeries([c * other for c in self.coeffs], self.order)

    __rmul__ = __mul__

    def reciprocal(self):
        """1/self; requires c_0 != 0."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("reciprocal needs nonzero constant term")
        T = self.order
        inv0 = 1 / c0 if not isinstance(c0, (int, Fraction)) else Fraction(1) / c0
        out = [inv0]
        for n in range(1, T + 1):
            s = c0 * 0
            for i in range(1, n + 1):
                if self.coeffs[i] != 0:
                    s += self.coeffs[i] * out[n - i]
            out.append(-inv0 * s)
        return TruncatedSeries(out, T)

    def exp(self):
        """exp(self); requires c_0 = 0. E_n = (1/n) sum_i i c_i E_{n-i}."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        T = self.order
        one = self.coeffs[0] * 0 + 1 if not isinstance(self.coeffs[0], (int, Fraction)) else Fraction(1)
        out = [one]
        for n in range(1, T + 1):
            s = self.coeffs[0] * 0
            for i in range(1, n + 1):
                if self.coeffs[i] != 0:
                    s += i * self.coeffs[i] * out[n - i]
            out.append(s / n)
        return TruncatedSeries(out, T)
