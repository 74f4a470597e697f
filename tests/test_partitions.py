"""Partition enumeration, part-set grammar, and the brute-force oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partizeta.partitions import (
    DivergentPartSetError,
    Partition,
    PartSet,
    brute_zeta,
    enumerate_partitions,
    multiplicative_partition_count,
    parse_part_set,
    product_sum_expand,
)


def test_partition_statistics():
    lam = Partition((4, 2, 2, 1))
    assert lam.size == 9
    assert lam.length == 4
    assert lam.norm == 16
    empty = Partition(())
    assert (empty.size, empty.length, empty.norm) == (0, 0, 1)


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((1, 2))  # increasing
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_enumerate_empty_case():
    assert enumerate_partitions(0) == [Partition(())]


def test_enumerate_n4_reverse_lex():
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_even_parts():
    got = [p.parts for p in enumerate_partitions(6, parse_part_set("2N"))]
    assert got == [(6,), (4, 2), (2, 2, 2)]
    # cross-check against the even-part generating function coefficient
    series = product_sum_expand(lambda n: Fraction(1 if n % 2 == 0 else 0), 6)
    assert series[6] == len(got)


def test_enumerate_length_filter_and_distinct():
    got = [p.parts for p in enumerate_partitions(9, PartSet(distinct=True), length_filter=2)]
    assert got == [(8, 1), (7, 2), (6, 3), (5, 4)]


def test_enumerate_max_ones():
    got = [p.parts for p in enumerate_partitions(4, PartSet(max_ones=1))]
    assert (1, 1, 1, 1) not in got
    assert (2, 1, 1) not in got
    assert (3, 1) in got


def test_product_sum_partition_numbers():
    series = product_sum_expand(lambda n: Fraction(1), 5)
    assert series.coeffs == [Fraction(c) for c in (1, 1, 2, 3, 5, 7)]


def test_product_sum_zero_function():
    series = product_sum_expand(lambda n: Fraction(0), 5)
    assert series.coeffs == [Fraction(1)] + [Fraction(0)] * 5


def test_product_sum_reciprocal_parts():
    series = product_sum_expand(lambda n: Fraction(1, n), 4)
    assert series[4] == Fraction(7, 3)


def test_product_sum_randomized_agreement_full_depth():
    # both computation paths agree exactly through order 30 (checked inside)
    rng = random.Random(91)
    f = {n: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for n in range(1, 31)}
    series = product_sum_expand(lambda n: f[n], 30)
    assert series[0] == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6),
                min_size=1, max_size=8))
def test_product_sum_hypothesis(values):
    f = {n: v for n, v in enumerate(values, start=1)}
    series = product_sum_expand(lambda n: f.get(n, Fraction(0)), len(values))
    assert series[0] == 1
    assert series[1] == f[1]


# ----------------------------------------------------------------------
def test_partset_grammar_round_trip():
    for text in ("2N", "3+4N", "geq:2", "distinct", "finite:{2,3,5}",
                 "2+6N|4+6N", "geq:2|ones:0"):
        ps = parse_part_set(text)
        assert parse_part_set(ps.spec_string()).spec_string() == ps.spec_string()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                          st.integers(min_value=1, max_value=8)),
                max_size=3),
       st.sets(st.integers(min_value=2, max_value=30), max_size=4),
       st.integers(min_value=1, max_value=5),
       st.booleans())
def test_partset_grammar_membership_round_trip(classes, explicit, min_part, distinct):
    if any(a == 0 and m == 1 for a, m in classes):
        classes = [(a, m) for a, m in classes if not (a == 0 and m == 1)]
    ps = PartSet(tuple(classes), frozenset(explicit), min_part, distinct)
    back = parse_part_set(ps.spec_string())
    assert [back.contains(k) for k in range(1, 61)] == \
        [ps.contains(k) for k in range(1, 61)]
    assert back.distinct == ps.distinct


def test_partset_membership_semantics():
    # a+mN starts at a+m: the residue itself is not a member
    ps = parse_part_set("3+4N")
    assert not ps.contains(3)
    assert ps.contains(7) and ps.contains(11)
    assert parse_part_set("2N").contains(2)
    assert parse_part_set("geq:2").contains(17)
    assert not parse_part_set("geq:2").contains(1)
    assert parse_part_set("finite:{2,3,5}").parts_upto(10) == [2, 3, 5]


def test_partset_divergence_gate():
    assert parse_part_set("0+1N").is_divergent_for_zeta()
    assert not parse_part_set("distinct").is_divergent_for_zeta()
    assert not parse_part_set("geq:2").is_divergent_for_zeta()
    assert not PartSet(max_ones=3).is_divergent_for_zeta()
    with pytest.raises(DivergentPartSetError):
        brute_zeta(parse_part_set("0+1N"), 2, 10, 5)


@pytest.mark.parametrize("text", ["2N", "3+4N|geq:10", "finite:{2,3,5,40}|5N|geq:3", "N|ones:1",
                                  "distinct", "geq:7", "finite:{1,9}", "7+3N|2+5N|finite:{8}"])
def test_partset_parts_enumerated_directly(text):
    # the class progressions, explicit parts and base range, each from
    # min_part, are the members that contains() picks one k at a time
    ps = parse_part_set(text)
    assert ps.parts_upto(120) == [k for k in range(1, 121) if ps.contains(k)]
    K = max(64, ps.tail_start() + 1)
    M, residues = ps.tail_classes()
    tail = [k for k in range(K + 1, 400) if M is not None and k % M in residues]
    outside = ps.parts_outside_tail(K)
    assert sorted(outside + tail) == [k for k in range(1, 400) if ps.contains(k)]


def test_partset_explicit_parts_past_the_cutoff_leave_the_tail_alone():
    # an explicit part no class covers is one more factor, and one a class
    # covers is already in the tail: the cutoff stays at 64
    ps = parse_part_set("2N|finite:{3,1000001,1000002}")
    assert ps.tail_start() == 1
    assert ps.parts_outside_tail(64) == [2, 3, *range(4, 65, 2), 1000001]


def test_partset_tail_classes_disjoint_union():
    ps = parse_part_set("2+6N|4+6N")
    M, residues = ps.tail_classes()
    assert M == 6
    assert residues == {2, 4}
    # overlapping classes collapse: 2N | 4N covers exactly the even residues
    M, residues = parse_part_set("2N|4N").tail_classes()
    assert M == 4
    assert residues == {0, 2}


# ----------------------------------------------------------------------
def test_brute_zeta_even_parts_lower_bound():
    ps = parse_part_set("2N")
    small, _ = brute_zeta(ps, 2, 40, 12)
    big, _ = brute_zeta(ps, 2, 4000, 12)
    ref = math.pi / 2
    assert small < big < ref
    # truncation at (40, 12) is ~1.9e-2 (single-part tail alone is 1.2e-2)
    assert ref - small < 0.03
    assert ref - big < 1e-3


def test_brute_zeta_distinct_parts():
    ps = PartSet(distinct=True)
    v1, _ = brute_zeta(ps, 2, 60, 10)
    v2, _ = brute_zeta(ps, 2, 600, 12)
    ref = float(mp.sinh(mp.pi) / mp.pi)
    assert v1 < v2 < ref
    assert ref - v1 < 0.1
    assert ref - v2 < 0.01


def test_brute_zeta_empty_partition_only():
    v, _ = brute_zeta(parse_part_set("geq:2"), 2, 1, 0)
    assert v == 1.0


def test_brute_zeta_monotone_in_bounds():
    ps = parse_part_set("geq:2")
    vals = [brute_zeta(ps, 2, b, 8)[0] for b in (10, 20, 40)]
    assert vals[0] <= vals[1] <= vals[2]
    vals = [brute_zeta(ps, 2, 40, length)[0] for length in (2, 4, 8)]
    assert vals[0] <= vals[1] <= vals[2]


def test_brute_zeta_adjoining_ones_factor():
    # allowing up to m ones multiplies the sum by m+1 (norms unchanged)
    base = PartSet(min_part=2)
    with_ones = PartSet(max_ones=2)  # all parts, 1 capped at multiplicity 2
    lhs, _ = brute_zeta(with_ones, 2, 30, 20)
    rhs, _ = brute_zeta(base, 2, 30, 20)
    assert abs(lhs - 3 * rhs) < 1e-6 * rhs


def test_distinct_with_ones_cap_zero():
    # "distinct|ones:0": 1 is a member but its multiplicity cap is 0
    ps = parse_part_set("distinct|ones:0")
    assert ps.ones_multiplicity_cap() == 0
    # deep length bound: the doubling identity only truncates at the last level
    v_no1, _ = brute_zeta(ps, 2, 40, 12)
    v_with1, _ = brute_zeta(parse_part_set("distinct"), 2, 40, 12)
    assert abs(v_with1 - 2 * v_no1) < 1e-14
    got = [p.parts for p in enumerate_partitions(5, ps)]
    assert got == [(5,), (3, 2)]


def test_brute_zeta_high_precision_path():
    v, note = brute_zeta(parse_part_set("2N"), 2, 100, 6, prec=128)
    assert isinstance(v, mp.mpf)
    assert "parts<=100" in note


# ----------------------------------------------------------------------
def test_multiplicative_partition_counts():
    geq2 = parse_part_set("geq:2")
    assert multiplicative_partition_count(1, geq2) == 1
    assert multiplicative_partition_count(12, geq2) == 4  # 12, 2*6, 3*4, 2*2*3
    for p in (2, 3, 5, 7, 11, 13):
        assert multiplicative_partition_count(p, geq2) == 1
    distinct = parse_part_set("geq:2|distinct")  # 2*2*3 repeats a part
    assert multiplicative_partition_count(12, distinct) == 3
    assert multiplicative_partition_count(24, distinct) == 5  # 24, 2*12, 3*8, 4*6, 2*3*4


def test_multiplicative_partition_rejects_one():
    with pytest.raises(DivergentPartSetError):
        multiplicative_partition_count(6, PartSet())


def test_multiplicative_partition_restricted_set():
    odd3 = PartSet(classes=((1, 2),), min_part=3)  # odd parts >= 3
    assert multiplicative_partition_count(9, odd3) == 2   # 9, 3*3
    assert multiplicative_partition_count(15, odd3) == 2  # 15, 3*5
    assert multiplicative_partition_count(8, odd3) == 0


def test_partial_sum_domination():
    # sum_{n<=X} a_n n^-s never exceeds the truncated Euler product
    geq2 = parse_part_set("geq:2")
    s = 2.0
    for X in (5, 12, 25, 60):
        dirichlet = sum(multiplicative_partition_count(n, geq2) * n ** -s
                        for n in range(1, X + 1))
        product = 1.0
        for k in range(2, X + 1):
            product /= 1 - k ** -s
        assert dirichlet <= product, X
