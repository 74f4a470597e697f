"""Integer partitions under part-set constraints, and brute-force oracles.

``Partition`` carries the three statistics used throughout: size (sum of
parts), length (number of parts), and norm (product of parts, exact integer).
``PartSet`` describes which positive integers may appear as parts; a compact
text grammar (``2N``, ``3+4N``, ``geq:2``, ``distinct``, ``finite:{2,3,5}``,
``ones:0``, unioned with ``|``) round-trips through ``parse_part_set`` /
``PartSet.spec_string``.

A congruence token ``a+mN`` denotes {a+m, a+2m, ...} -- the index set starts
at 1, so the residue itself is not a member. ``0+1N`` is therefore all of
{1, 2, 3, ...}, which admits unbounded repetition of the part 1 and is
rejected by the zeta-evaluation routines as divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .numerics import TruncatedSeries, guarded

UNBOUNDED = None


class DivergentPartSetError(ValueError):
    """Part set admits 1 with unbounded multiplicity: zeta sum diverges."""


class Partition:
    """Nonincreasing tuple of positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be nonincreasing")
        self.parts = parts

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def norm(self) -> int:
        return math.prod(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


@dataclass(frozen=True)
class PartSet:
    """Symbolic description of the allowed parts.

    classes: (residue a >= 0, modulus m >= 1) pairs, each denoting
        {a+m, a+2m, ...}; explicit_parts: extra finite members; min_part
        filters everything below it; distinct caps every multiplicity at 1;
        max_ones caps the multiplicity of the part 1 (None = unbounded).
    With no classes and no explicit parts the base set is all of N (then
    filtered by min_part), which is how ``geq:2`` and ``distinct`` arise.
    """

    classes: tuple[tuple[int, int], ...] = ()
    explicit_parts: frozenset[int] = field(default_factory=frozenset)
    min_part: int = 1
    distinct: bool = False
    max_ones: int | None = UNBOUNDED

    def __post_init__(self):
        for a, m in self.classes:
            if a < 0 or m < 1:
                raise ValueError(f"bad congruence class ({a}, {m})")
        if self.min_part < 1:
            raise ValueError("min_part must be >= 1")
        if any(p < 1 for p in self.explicit_parts):
            raise ValueError("explicit parts must be positive")
        if self.max_ones is not UNBOUNDED and self.max_ones < 0:
            raise ValueError("max_ones must be >= 0 or None")

    # -- membership ----------------------------------------------------
    def contains(self, k: int) -> bool:
        if k < self.min_part or k < 1:
            return False
        if not self.classes and not self.explicit_parts:
            return True
        if k in self.explicit_parts:
            return True
        return any(k > a and (k - a) % m == 0 for a, m in self.classes)

    __contains__ = contains

    def parts_upto(self, bound: int) -> list[int]:
        return [k for k in range(1, bound + 1) if self.contains(k)]

    def is_divergent_for_zeta(self) -> bool:
        """1 is a member with unbounded multiplicity."""
        return self.ones_multiplicity_cap() is UNBOUNDED

    def single_class(self) -> tuple[int, int] | None:
        """(a, m) when the set is exactly {a+m, a+2m, ...} with unbounded
        multiplicities, else None. (0, 1), all of N, is never returned: its
        zeta diverges."""
        if len(self.classes) != 1 or self.distinct:
            return None
        a, m = self.classes[0]
        if (a, m) == (0, 1) or self.min_part > a + m \
                or any(p <= a or (p - a) % m for p in self.explicit_parts):
            return None
        return a, m

    def ones_multiplicity_cap(self) -> int | None:
        """Highest multiplicity the part 1 may take (None = unbounded)."""
        if not self.contains(1):
            return 0
        caps = []
        if self.distinct:
            caps.append(1)
        if self.max_ones is not UNBOUNDED:
            caps.append(self.max_ones)
        return min(caps) if caps else UNBOUNDED

    def tail_classes(self, bound: int):
        """Disjoint congruence description of members > bound.

        Returns (modulus M, residues), M the lcm of class moduli; members
        above max(bound, class starts, explicit parts) are exactly the
        integers in those residues mod M. Overlapping classes collapse to a
        single residue here, which is what keeps unioned Euler products from
        double counting.
        """
        if not self.classes and not self.explicit_parts:
            return 1, {0}
        if not self.classes:
            return None, set()  # finite set: empty tail once bound is large
        M = math.lcm(*(m for _, m in self.classes))
        residues = set()
        for a, m in self.classes:
            for t in range(M // m):
                residues.add((a + m * (t + 1)) % M)
        return M, residues

    def tail_start(self) -> int:
        """Bound above which membership is purely congruence/base described."""
        s = self.min_part
        if self.explicit_parts:
            s = max(s, max(self.explicit_parts))
        for a, m in self.classes:
            s = max(s, a)
        return s

    # -- text grammar ---------------------------------------------------
    def spec_string(self) -> str:
        toks = []
        for a, m in self.classes:
            toks.append(f"{m}N" if a == 0 else f"{a}+{m}N")
        if self.explicit_parts:
            toks.append("finite:{" + ",".join(str(p) for p in sorted(self.explicit_parts)) + "}")
        if self.min_part > 1:
            toks.append(f"geq:{self.min_part}")
        if self.distinct:
            toks.append("distinct")
        if self.max_ones is not UNBOUNDED:
            toks.append(f"ones:{self.max_ones}")
        return "|".join(toks) if toks else "N"

    def __str__(self):
        return self.spec_string()


def parse_part_set(text: str) -> PartSet:
    """Parse the compact grammar; inverse of ``PartSet.spec_string``."""
    classes = []
    explicit = set()
    min_part = 1
    distinct = False
    max_ones = UNBOUNDED
    text = text.strip()
    if not text or text == "N":
        return PartSet()
    for tok in text.split("|"):
        tok = tok.strip()
        if not tok:
            continue
        if tok == "N":
            classes.append((0, 1))
        elif tok == "distinct":
            distinct = True
        elif tok.startswith("geq:"):
            min_part = max(min_part, int(tok[4:]))
        elif tok.startswith("ones:"):
            max_ones = int(tok[5:])
        elif tok.startswith("finite:"):
            body = tok[7:].strip()
            if not (body.startswith("{") and body.endswith("}")):
                raise ValueError(f"bad finite token {tok!r}")
            explicit.update(int(x) for x in body[1:-1].split(",") if x.strip())
        elif tok.endswith("N"):
            body = tok[:-1]
            if "+" in body:
                a_s, m_s = body.split("+", 1)
                classes.append((int(a_s), int(m_s)))
            else:
                classes.append((0, int(body)))
        else:
            raise ValueError(f"unrecognized part-set token {tok!r}")
    return PartSet(tuple(classes), frozenset(explicit), min_part, distinct, max_ones)


# -- enumeration --------------------------------------------------------
def enumerate_partitions(n: int, constraints: PartSet | None = None,
                         length_filter: int | None = None) -> list[Partition]:
    """All partitions of n with parts in the constraint set, reverse-lex order.

    Respects ``distinct`` and ``max_ones``; the optional length filter keeps
    only partitions of that exact length.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    cons = constraints or PartSet()
    allowed = [p for p in range(n, 0, -1) if cons.contains(p)]
    out: list[Partition] = []
    stack: list[int] = []

    def rec(remaining: int, max_part: int, start_idx: int):
        if remaining == 0:
            if length_filter is None or len(stack) == length_filter:
                out.append(Partition(tuple(stack)))
            return
        if length_filter is not None and len(stack) >= length_filter:
            return
        for idx in range(start_idx, len(allowed)):
            p = allowed[idx]
            if p > max_part or p > remaining:
                continue
            if p == 1 and cons.max_ones is not UNBOUNDED:
                if stack.count(1) >= cons.max_ones:
                    continue
            stack.append(p)
            rec(remaining - p, p, idx + (1 if cons.distinct else 0))
            stack.pop()

    rec(n, n if n else 0, 0)
    return out


def product_sum_expand(f, T: int) -> TruncatedSeries:
    """Coefficients of prod_n (1 - f(n) q^n)^{-1} through q^T, exact.

    f maps positive integers to Fractions (dict or callable). Computed both by
    expanding the product and by summing prod f(part) over enumerated
    partitions of each n; the routes must agree exactly or an
    ArithmeticError flags an internal defect.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    fget = f if callable(f) else (lambda n: f.get(n, Fraction(0)))
    prod = TruncatedSeries.one(T)
    for n in range(1, T + 1):
        val = Fraction(fget(n))
        if val == 0:
            continue
        coeffs = [Fraction(0)] * (T + 1)
        coeffs[0] = Fraction(1)
        coeffs[n] = -val
        prod = prod * TruncatedSeries(coeffs, T)
    via_product = prod.reciprocal()
    for n in range(0, T + 1):
        direct = sum((Fraction(math.prod((Fraction(fget(p)) for p in lam.parts), start=Fraction(1)))
                      for lam in enumerate_partitions(n)), Fraction(0))
        if direct != via_product[n]:
            raise ArithmeticError(
                f"product/enumeration mismatch at q^{n}: {via_product[n]} vs {direct}")
    return via_product


# -- brute-force zeta oracle ---------------------------------------------
@guarded()
def brute_zeta(constraints: PartSet, s, part_bound: int, length_bound: int,
               prec: int = 53):
    """sum n_lambda^{-s} over constrained partitions with parts <= part_bound
    and length <= length_bound.

    A certified lower bound of the true zeta value (every summand positive).
    Exact multiset dynamic programming over the allowed parts -- no partition
    is materialized, but the sum equals the brute-force enumeration exactly
    (up to floating rounding). Returns (value, note).
    """
    if constraints.is_divergent_for_zeta():
        raise DivergentPartSetError(f"part set {constraints.spec_string()} diverges")
    parts = constraints.parts_upto(part_bound)
    note = (f"parts<={part_bound} length<={length_bound} "
            f"spec={constraints.spec_string()} (lower bound; all summands positive)")
    L = length_bound

    def run(power, zero, one):
        # suffix DP: cur[l] = sum over multisets of parts seen so far with
        # exactly l parts of prod p^-s
        cur = [zero] * (L + 1)
        cur[0] = one
        for p in reversed(parts):
            v = power(p)
            if p == 1:
                cap = constraints.ones_multiplicity_cap()
                cap = L if cap is UNBOUNDED else cap
            elif constraints.distinct:
                cap = 1
            else:
                cap = L
            new = [zero] * (L + 1)
            for l in range(L + 1):
                acc = zero
                vp = one
                for c in range(0, min(cap, l) + 1):
                    acc = acc + vp * cur[l - c]
                    vp = vp * v
                new[l] = acc
            cur = new
        total = zero
        for x in cur:
            total = total + x
        return total

    if prec <= 53:
        sf = float(s)
        return run(lambda p: float(p) ** (-sf), 0.0, 1.0), note
    sm = mp.mpmathify(s)
    return run(lambda p: mp.mpf(p) ** (-sm), mp.mpf(0), mp.mpf(1)), note


def multiplicative_partition_count(n: int, constraints: PartSet) -> int:
    """Number of multisets of parts with product n (each ordering once; sets
    for distinct parts).

    The Dirichlet coefficient a_n of the part-set zeta function. Part sets
    containing 1 are rejected: 1 may repeat freely in a product.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if constraints.contains(1):
        raise DivergentPartSetError("part set contains 1: infinitely many factorizations")

    def rec(m: int, max_divisor: int) -> int:
        if m == 1:
            return 1
        small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
        divisors = set(small) | {m // d for d in small}
        return sum(rec(m // d, d - 1 if constraints.distinct else d) for d in divisors
                   if 2 <= d <= max_divisor and constraints.contains(d))

    return rec(n, n)
