"""Unit tests for the finite poset implementation."""

from __future__ import annotations

import pytest

from repro.core.poset import Poset
from repro.exceptions import NotAPartialOrderError, PosetError


@pytest.fixture
def diamond():
    """bottom < left, right < top; left ‖ right."""
    return Poset(
        ["bottom", "left", "right", "top"],
        [
            ("bottom", "left"),
            ("bottom", "right"),
            ("left", "top"),
            ("right", "top"),
        ],
    )


class TestConstruction:
    def test_empty(self):
        poset = Poset([])
        assert len(poset) == 0
        assert poset.minimal_elements() == []

    def test_duplicate_elements_rejected(self):
        with pytest.raises(PosetError):
            Poset(["a", "a"])

    def test_unknown_element_in_relation(self):
        with pytest.raises(PosetError):
            Poset(["a"], [("a", "b")])

    def test_reflexive_pair_rejected(self):
        with pytest.raises(NotAPartialOrderError):
            Poset(["a"], [("a", "a")])

    def test_cycle_rejected(self):
        with pytest.raises(NotAPartialOrderError):
            Poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        # A cycle in a later diagonal block is found too.
        with pytest.raises(NotAPartialOrderError):
            Poset("abcde", [("a", "b"), ("c", "d"), ("d", "e"), ("e", "c")])

    def test_transitive_closure_computed(self):
        poset = Poset("abc", [("a", "b"), ("b", "c")])
        assert poset.less("a", "c")

    def test_chain_constructor(self):
        poset = Poset.chain("abc")
        assert poset.less("a", "c") and poset.less("b", "c")

    def test_antichain_constructor(self):
        poset = Poset.antichain("abc")
        assert not poset.comparable("a", "b")

    def test_from_cover_relation(self):
        poset = Poset.from_cover_relation("ab", [("a", "b")])
        assert poset.less("a", "b")


class TestQueries:
    def test_less_irreflexive(self, diamond):
        assert not diamond.less("left", "left")

    def test_less_equal(self, diamond):
        assert diamond.less_equal("left", "left")
        assert diamond.less_equal("bottom", "top")

    def test_concurrent(self, diamond):
        assert diamond.concurrent("left", "right")
        assert not diamond.concurrent("left", "left")
        assert not diamond.concurrent("bottom", "top")

    def test_unknown_element_query(self, diamond):
        with pytest.raises(PosetError):
            diamond.less("bottom", "missing")

    def test_contains(self, diamond):
        assert "left" in diamond
        assert "missing" not in diamond

    def test_iteration_order_is_insertion_order(self, diamond):
        assert list(diamond) == ["bottom", "left", "right", "top"]


class TestStructure:
    def test_strictly_below(self, diamond):
        assert diamond.strictly_below("top") == {"bottom", "left", "right"}

    def test_strictly_above(self, diamond):
        assert diamond.strictly_above("bottom") == {"left", "right", "top"}

    def test_down_set_includes_self(self, diamond):
        assert "left" in diamond.down_set("left")

    def test_up_set(self, diamond):
        assert diamond.up_set("left") == {"left", "top"}

    def test_minimal_maximal(self, diamond):
        assert diamond.minimal_elements() == ["bottom"]
        assert diamond.maximal_elements() == ["top"]

    def test_cover_pairs_exclude_transitive(self, diamond):
        covers = set(diamond.cover_pairs())
        assert ("bottom", "top") not in covers
        assert ("bottom", "left") in covers
        assert len(covers) == 4

    def test_relation_pairs(self, diamond):
        pairs = set(diamond.relation_pairs())
        assert ("bottom", "top") in pairs
        assert len(pairs) == 5

    def test_incomparable_pairs(self, diamond):
        assert diamond.incomparable_pairs() == [("left", "right")]

    def test_restricted_to(self, diamond):
        sub = diamond.restricted_to(["bottom", "top"])
        assert sub.less("bottom", "top")
        assert len(sub) == 2

    def test_restricted_to_preserves_transitivity(self):
        poset = Poset.chain("abcd")
        sub = poset.restricted_to(["a", "d"])
        assert sub.less("a", "d")

    def test_dual_reverses(self, diamond):
        dual = diamond.dual()
        assert dual.less("top", "bottom")
        assert dual.concurrent("left", "right")


class TestChains:
    def test_is_chain(self, diamond):
        assert diamond.is_chain(["bottom", "left", "top"])
        assert not diamond.is_chain(["left", "right"])

    def test_is_antichain(self, diamond):
        assert diamond.is_antichain(["left", "right"])
        assert not diamond.is_antichain(["bottom", "left"])
        assert not diamond.is_antichain(["left", "left"])

    def test_longest_chain(self, diamond):
        chain = diamond.longest_chain()
        assert len(chain) == 3
        assert chain[0] == "bottom" and chain[-1] == "top"

    def test_height(self, diamond):
        assert diamond.height() == 3

    def test_height_of_antichain(self):
        assert Poset.antichain("abc").height() == 1

    def test_linear_extension_is_valid(self, diamond):
        order = diamond.linear_extension()
        position = {e: i for i, e in enumerate(order)}
        for x, y in diamond.relation_pairs():
            assert position[x] < position[y]

    def test_empty_longest_chain(self):
        assert Poset([]).longest_chain() == []


class TestEquality:
    def test_same_order_as(self, diamond):
        clone = Poset(
            ["top", "right", "left", "bottom"],
            [
                ("bottom", "left"),
                ("bottom", "right"),
                ("left", "top"),
                ("right", "top"),
            ],
        )
        assert diamond.same_order_as(clone)

    def test_different_order_detected(self, diamond):
        other = Poset(["bottom", "left", "right", "top"])
        assert not diamond.same_order_as(other)

    def test_different_elements_detected(self, diamond):
        assert not diamond.same_order_as(Poset("ab"))

    def test_repr(self, diamond):
        assert "4 elements" in repr(diamond)
