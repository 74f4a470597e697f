"""Part sets: which positive integers may appear as parts of a partition.

``PartSet`` is their symbolic description; a compact text grammar (``2N``,
``3+4N``, ``geq:2``, ``distinct``, ``finite:{2,3,5}``, ``ones:0``, unioned
with ``|``) round-trips through ``parse_part_set`` / ``PartSet.spec_string``.

A congruence token ``a+mN`` denotes {a+m, a+2m, ...} -- the index set starts
at 1, so the residue itself is not a member. ``0+1N`` is therefore all of
{1, 2, 3, ...}, which admits unbounded repetition of the part 1 and is
rejected by the zeta-evaluation routines as divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

UNBOUNDED = None


class DivergentPartSetError(ValueError):
    """Part set admits 1 with unbounded multiplicity: zeta sum diverges."""


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
        """The members <= bound, ascending, enumerated directly: the base
        range from min_part, or the class progressions from
        max(min_part, a + m) and the explicit parts."""
        lo = self.min_part
        if not self.classes and not self.explicit_parts:
            return list(range(lo, bound + 1))
        parts = {k for k in self.explicit_parts if lo <= k <= bound}
        for a, m in self.classes:
            parts.update(range(a + m * max(1, -(-(lo - a) // m)), bound + 1, m))
        return sorted(parts)

    def parts_outside_tail(self, bound: int) -> list[int]:
        """The members that the residues of ``tail_classes`` above
        bound >= tail_start() leave out, ascending: every member <= bound,
        then the explicit parts above it that no class covers."""
        return self.parts_upto(bound) + sorted(
            k for k in self.explicit_parts
            if k > bound and not any((k - a) % m == 0 for a, m in self.classes))

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

    def tail_classes(self):
        """Disjoint congruence description of the members past tail_start().

        Returns (modulus M, residues), M the lcm of class moduli; the
        members above tail_start() are exactly the integers in those
        residues mod M and the explicit parts that no class covers
        (``parts_outside_tail``). Overlapping classes collapse to a single
        residue here, which is what keeps unioned Euler products from double
        counting.
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
        """Bound above which membership is the congruence or base
        description plus the explicit parts: min_part and every class
        residue a."""
        return max([self.min_part, *(a for a, _ in self.classes)])

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
            parts = [int(x) for x in body[1:-1].split(",") if x.strip()]
            if not parts:  # the empty set is no token: it would drop out of the union
                raise ValueError(f"empty finite token {tok!r}")
            explicit.update(parts)
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
