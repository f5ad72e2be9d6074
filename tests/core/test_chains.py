"""Tests for Dilworth machinery: matching, width, chain partitions."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings

from repro.core import chains as chains_module
from repro.core.chains import (
    BipartiteMatcher,
    _comparability_matcher,
    antichain_partition,
    greedy_chain_partition,
    is_chain_partition,
    maximum_antichain,
    minimum_chain_partition,
    width,
)
from repro.core.dimension import standard_example
from repro.core.poset import Poset
from repro.exceptions import PosetError
from tests.strategies import posets_from_computations


class TestBipartiteMatcher:
    def test_perfect_matching(self):
        matcher = BipartiteMatcher(
            ["a", "b"], ["x", "y"], {"a": ["x", "y"], "b": ["x"]}
        )
        assert matcher.matching_size() == 2

    def test_no_edges(self):
        matcher = BipartiteMatcher(["a"], ["x"], {"a": []})
        assert matcher.matching_size() == 0

    def test_augmenting_path_needed(self):
        # Greedy a->x would block b; an augmenting path fixes it.
        matcher = BipartiteMatcher(
            ["a", "b"], ["x", "y"], {"a": ["x", "y"], "b": ["x"]}
        )
        matching = matcher.solve()
        assert matching == {"a": "y", "b": "x"}

    def test_koenig_cover_size_equals_matching(self):
        adjacency = {
            "a": ["x", "y"],
            "b": ["y"],
            "c": ["y", "z"],
        }
        matcher = BipartiteMatcher(["a", "b", "c"], ["x", "y", "z"], adjacency)
        size = matcher.matching_size()
        left_cover, right_cover = matcher.minimum_vertex_cover()
        assert len(left_cover) + len(right_cover) == size
        # Every edge is covered.
        for u, targets in adjacency.items():
            for v in targets:
                assert u in left_cover or v in right_cover

    def test_solve_idempotent(self):
        matcher = BipartiteMatcher(["a"], ["x"], {"a": ["x"]})
        assert matcher.solve() == matcher.solve()

    def test_deep_augmenting_path_stays_iterative(self):
        """A staircase graph forcing one augmenting path of length ~2k.

        Left vertices are listed in *reverse* order so the first phase
        greedily matches ``u_i -> r_(i-1)``, leaving ``u_0`` free; the
        second phase must then augment along the full staircase
        ``u_0 -> r_0 -> u_1 -> r_1 -> ... -> r_(k-1)``.  With the old
        recursive DFS this needed recursion depth ``k`` (here 3x the
        interpreter default); the iterative rewrite must neither crash
        nor touch the recursion limit.
        """
        k = 3_000
        left = [f"u{i}" for i in reversed(range(k))]
        right = [f"r{i}" for i in range(k)]
        adjacency = {
            f"u{i}": [f"r{j}" for j in (i - 1, i) if j >= 0]
            for i in range(k)
        }
        limit_before = sys.getrecursionlimit()
        matcher = BipartiteMatcher(left, right, adjacency)
        matching = matcher.solve()
        assert sys.getrecursionlimit() == limit_before
        assert matcher.matching_size() == k
        assert matching == {f"u{i}": f"r{i}" for i in range(k)}


class TestSeededMatcher:
    """Hopcroft–Karp augmenting from the matching a chain family implies."""

    # a < c, b < c, b < d: width 2.
    ROWS = [0b0100, 0b1100, 0, 0]

    def _list_mode(self):
        return BipartiteMatcher.from_adjacency_lists(
            "abcd", "abcd", [[2], [2, 3], [], []]
        )

    def test_non_minimum_seed_is_augmented(self):
        # Seed a < c alone leaves b and d unmatched: 3 chains.
        for matcher in (
            self._list_mode(),
            BipartiteMatcher.from_bitmask_rows("abcd", "abcd", self.ROWS),
        ):
            matcher.seed_chains([[0, 2], [1], [3]])
            assert matcher.matching_size() == 2
            assert matcher.solve() == {"a": "c", "b": "d"}

    def test_diagonal_blocks_seed_in_block_local_indices(self):
        # Two copies of ROWS, the second shifted into positions 4..7.
        rows = self.ROWS + [row << 4 for row in self.ROWS]
        matcher = BipartiteMatcher.from_diagonal_blocks(
            range(8), rows, [[4, 6], [0, 2]]
        )
        assert matcher.solve() == {0: 2, 1: 3, 4: 6, 5: 7}

    def test_minimum_seed_is_kept_without_augmenting(self, monkeypatch):
        calls = []
        original = BipartiteMatcher._dfs_augment

        def counting(self, root, layers):
            calls.append(root)
            return original(self, root, layers)

        monkeypatch.setattr(BipartiteMatcher, "_dfs_augment", counting)
        matcher = self._list_mode()
        matcher.seed_chains([[0, 2], [1, 3]])
        assert matcher.solve() == {"a": "c", "b": "d"}
        assert calls == []

    @pytest.mark.parametrize(
        "chains",
        [[[0, 1]], [[2, 0]], [[0, 2], [1, 2]]],
        ids=["incomparable", "downward", "shared-successor"],
    )
    def test_seed_must_be_a_matching_of_edges(self, chains):
        for matcher in (
            self._list_mode(),
            BipartiteMatcher.from_bitmask_rows("abcd", "abcd", self.ROWS),
        ):
            with pytest.raises(ValueError):
                matcher.seed_chains(chains)


class TestMatcherCache:
    def test_same_poset_reuses_matcher(self):
        poset = standard_example(3)
        assert _comparability_matcher(poset) is _comparability_matcher(poset)

    def test_matching_solved_once_across_queries(self, monkeypatch):
        poset = standard_example(3)
        calls = []
        original = BipartiteMatcher._run_phases

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(BipartiteMatcher, "_run_phases", counting)
        expected_width = width(poset)
        assert len(minimum_chain_partition(poset)) == expected_width
        assert len(maximum_antichain(poset)) == expected_width
        assert len(calls) == 1

    def test_distinct_posets_get_distinct_matchers(self):
        first = Poset.chain("abc")
        second = Poset.chain("abc")
        assert _comparability_matcher(first) is not _comparability_matcher(
            second
        )

    def test_cache_does_not_pin_posets(self):
        poset = Poset.chain("abc")
        width(poset)
        assert poset in chains_module._MATCHER_CACHE
        before = len(chains_module._MATCHER_CACHE)
        del poset
        assert len(chains_module._MATCHER_CACHE) < before


class TestWidth:
    def test_chain_width_one(self):
        assert width(Poset.chain("abcde")) == 1

    def test_antichain_width_n(self):
        assert width(Poset.antichain("abcde")) == 5

    def test_empty_poset(self):
        assert width(Poset([])) == 0

    def test_diamond(self):
        poset = Poset(
            "blrt",
            [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")],
        )
        assert width(poset) == 2

    def test_standard_example(self):
        # S_3 has width 3 (either side is an antichain of size 3).
        assert width(standard_example(3)) == 3

    def test_two_parallel_chains(self):
        poset = Poset("abcd", [("a", "b"), ("c", "d")])
        assert width(poset) == 2


class TestMinimumChainPartition:
    def test_partition_is_valid(self):
        poset = Poset(
            "blrt",
            [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")],
        )
        chains = minimum_chain_partition(poset)
        assert is_chain_partition(poset, chains)

    def test_partition_size_equals_width(self):
        poset = standard_example(3)
        chains = minimum_chain_partition(poset)
        assert len(chains) == width(poset)

    def test_single_chain(self):
        chains = minimum_chain_partition(Poset.chain("abc"))
        assert chains == [["a", "b", "c"]]

    def test_antichain_gives_singletons(self):
        chains = minimum_chain_partition(Poset.antichain("abc"))
        assert sorted(len(c) for c in chains) == [1, 1, 1]

    @settings(max_examples=40, deadline=None)
    @given(posets_from_computations(max_messages=25))
    def test_property_partition_matches_width(self, poset):
        chains = minimum_chain_partition(poset)
        assert is_chain_partition(poset, chains)
        if len(poset) > 0:
            assert len(chains) == width(poset)


class TestMaximumAntichain:
    def test_size_matches_width(self):
        poset = standard_example(4)
        antichain = maximum_antichain(poset)
        assert len(antichain) == width(poset)
        assert poset.is_antichain(antichain)

    def test_empty(self):
        assert maximum_antichain(Poset([])) == []

    def test_chain_gives_singleton(self):
        assert len(maximum_antichain(Poset.chain("abc"))) == 1

    @settings(max_examples=40, deadline=None)
    @given(posets_from_computations(max_messages=25))
    def test_property_antichain_is_width_witness(self, poset):
        if len(poset) == 0:
            return
        antichain = maximum_antichain(poset)
        assert poset.is_antichain(antichain)
        assert len(antichain) == width(poset)

    def test_failed_extraction_raises_even_when_optimized(self, monkeypatch):
        """The Kőnig sanity check must survive ``python -O``.

        It used to be an ``assert`` statement, which ``-O`` strips; a
        corrupted extraction would then return silently.  Simulate the
        corruption by making the antichain validation fail.
        """
        monkeypatch.setattr(
            Poset, "is_antichain", lambda self, elements: False
        )
        with pytest.raises(PosetError, match="non-antichain"):
            maximum_antichain(Poset.chain("abc"))


class TestOtherPartitions:
    def test_greedy_chain_partition_is_partition(self):
        poset = standard_example(3)
        chains = greedy_chain_partition(poset)
        assert is_chain_partition(poset, chains)

    def test_greedy_at_least_width(self):
        poset = standard_example(3)
        assert len(greedy_chain_partition(poset)) >= width(poset)

    def test_antichain_partition_levels(self):
        poset = Poset.chain("abc")
        levels = antichain_partition(poset)
        assert levels == [["a"], ["b"], ["c"]]

    def test_antichain_partition_is_partition(self):
        poset = standard_example(3)
        levels = antichain_partition(poset)
        seen = [e for level in levels for e in level]
        assert sorted(map(str, seen)) == sorted(map(str, poset.elements))
        for level in levels:
            assert poset.is_antichain(level)

    def test_antichain_partition_count_equals_height(self):
        poset = Poset("abcd", [("a", "b"), ("b", "c")])
        assert len(antichain_partition(poset)) == poset.height()

    def test_is_chain_partition_rejects_non_chain(self):
        poset = Poset.antichain("ab")
        assert not is_chain_partition(poset, [["a", "b"]])

    def test_is_chain_partition_rejects_duplicates(self):
        poset = Poset.chain("ab")
        assert not is_chain_partition(poset, [["a", "b"], ["a"]])

    def test_is_chain_partition_rejects_missing(self):
        poset = Poset.chain("ab")
        assert not is_chain_partition(poset, [["a"]])
