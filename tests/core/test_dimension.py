"""Tests for the dimension-theory helpers (Section 4.1)."""

from __future__ import annotations

import pytest

from repro.core.chains import width
from repro.core.dimension import (
    critical_pairs,
    crown_poset,
    dimension,
    dimension_at_most,
    dimension_lower_bound,
    dimension_upper_bound,
    family_reverses_all_critical_pairs,
    reverses_pair,
    standard_example,
)
from repro.core.linear_extensions import is_realizer, minimum_width_realizer
from repro.core.poset import Poset
from repro.exceptions import PosetError


class TestStandardExample:
    def test_size(self):
        poset = standard_example(3)
        assert len(poset) == 6

    def test_order(self):
        poset = standard_example(3)
        assert poset.less(("a", 0), ("b", 1))
        assert not poset.comparable(("a", 0), ("b", 0))

    def test_dimension_is_n(self):
        # The classical fact dim(S_n) = n, for the brute-forceable sizes.
        assert dimension(standard_example(2)) == 2
        assert dimension(standard_example(3)) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            standard_example(0)


class TestCrown:
    def test_structure(self):
        poset = crown_poset(3)
        assert poset.less(("a", 0), ("b", 0))
        assert poset.less(("a", 2), ("b", 0))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            crown_poset(1)

    def test_width(self):
        assert width(crown_poset(4)) == 4


class TestDimension:
    def test_chain_dimension_one(self):
        assert dimension(Poset.chain("abc")) == 1

    def test_singleton(self):
        assert dimension(Poset(["x"])) == 1

    def test_empty(self):
        assert dimension(Poset([])) == 1

    def test_antichain_dimension_two(self):
        assert dimension(Poset.antichain("abc")) == 2

    def test_vee_dimension_two(self):
        poset = Poset("abc", [("a", "b"), ("a", "c")])
        assert dimension(poset) == 2

    def test_too_large_rejected(self):
        with pytest.raises(PosetError):
            dimension(Poset.antichain(range(9)))

    def test_dimension_at_most(self):
        poset = standard_example(3)
        assert not dimension_at_most(poset, 2)
        assert dimension_at_most(poset, 3)

    def test_dimension_at_most_trivial(self):
        assert dimension_at_most(Poset(["x"]), 0)
        assert not dimension_at_most(Poset.antichain("ab"), 0)

    def test_bounds_bracket_exact(self):
        for poset in (
            Poset.chain("abcd"),
            Poset.antichain("abc"),
            standard_example(3),
        ):
            exact = dimension(poset)
            assert dimension_lower_bound(poset) <= exact
            assert exact <= dimension_upper_bound(poset)

    def test_upper_bound_is_width(self):
        poset = standard_example(3)
        assert dimension_upper_bound(poset) == width(poset)

    def test_constructive_realizer_within_upper_bound(self):
        poset = standard_example(3)
        realizer = minimum_width_realizer(poset)
        assert len(realizer) == dimension_upper_bound(poset)

    def test_upper_bound_on_a_disjoint_sum(self):
        # Two vees (a < b, a < c) side by side: width 4, but the sum
        # rule realizes the sum with max(2, 2) = 2 extensions.
        poset = Poset(
            "abcxyz", [("a", "b"), ("a", "c"), ("x", "y"), ("x", "z")]
        )
        realizer = minimum_width_realizer(poset)
        assert is_realizer(poset, realizer)
        assert len(realizer) == dimension_upper_bound(poset) == 2
        assert width(poset) > dimension_upper_bound(poset)
        assert dimension_upper_bound(poset) >= dimension(poset)


class TestCriticalPairs:
    def test_antichain_all_pairs_critical(self):
        poset = Poset.antichain("ab")
        pairs = set(critical_pairs(poset))
        assert pairs == {("a", "b"), ("b", "a")}

    def test_chain_no_critical_pairs(self):
        assert critical_pairs(Poset.chain("abc")) == []

    def test_standard_example_criticals(self):
        poset = standard_example(2)
        pairs = set(critical_pairs(poset))
        assert (("a", 0), ("b", 0)) in pairs
        assert (("a", 1), ("b", 1)) in pairs

    def test_reverses_pair(self):
        assert reverses_pair(["y", "x"], ("x", "y"))
        assert not reverses_pair(["x", "y"], ("x", "y"))

    def test_realizer_reverses_all_criticals(self):
        poset = standard_example(3)
        realizer = minimum_width_realizer(poset)
        assert family_reverses_all_critical_pairs(poset, realizer)

    def test_single_extension_misses_criticals(self):
        poset = Poset.antichain("ab")
        assert not family_reverses_all_critical_pairs(poset, [["a", "b"]])
