"""Tests for linear extensions and the chain-forcing realizer."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.chains import greedy_chain_partition, minimum_chain_partition
from repro.core.linear_extensions import (
    all_linear_extensions,
    chain_forced_extension,
    check_linear_extension,
    count_linear_extensions,
    intersection_of_extensions,
    is_linear_extension,
    is_realizer,
    minimum_width_realizer,
    ranks_in_extension,
    realizer_from_chain_partition,
)
from repro.core.poset import Poset
from repro.core.poset_reference import ReferencePoset
from repro.exceptions import NotALinearExtensionError, PosetError
from repro.graphs.generators import complete_topology
from repro.order.message_order import covering_pairs, message_poset
from repro.sim.workload import adversarial_antichain_computation
from tests.strategies import (
    clustered_computations,
    comparability_components,
    computations,
    merged_cluster_computations,
    posets_from_computations,
)


@pytest.fixture
def vee():
    """a < b, a < c with b ‖ c."""
    return Poset("abc", [("a", "b"), ("a", "c")])


class TestIsLinearExtension:
    def test_valid(self, vee):
        assert is_linear_extension(vee, ["a", "b", "c"])
        assert is_linear_extension(vee, ["a", "c", "b"])

    def test_order_violation(self, vee):
        assert not is_linear_extension(vee, ["b", "a", "c"])

    def test_wrong_elements(self, vee):
        assert not is_linear_extension(vee, ["a", "b"])
        assert not is_linear_extension(vee, ["a", "b", "c", "d"])

    def test_check_raises(self, vee):
        with pytest.raises(NotALinearExtensionError):
            check_linear_extension(vee, ["c", "b", "a"])

    def test_check_passes(self, vee):
        check_linear_extension(vee, ["a", "b", "c"])


class TestAllLinearExtensions:
    def test_vee_has_two(self, vee):
        extensions = list(all_linear_extensions(vee))
        assert len(extensions) == 2
        assert ["a", "b", "c"] in extensions
        assert ["a", "c", "b"] in extensions

    def test_chain_has_one(self):
        assert count_linear_extensions(Poset.chain("abcd")) == 1

    def test_antichain_has_factorial(self):
        assert count_linear_extensions(Poset.antichain("abcd")) == 24

    def test_limit_respected(self):
        assert count_linear_extensions(Poset.antichain("abcde"), limit=7) == 7

    def test_all_are_extensions(self, vee):
        for extension in all_linear_extensions(vee):
            assert is_linear_extension(vee, extension)


class TestChainForcedExtension:
    def test_forces_chain_above_incomparables(self, vee):
        extension = chain_forced_extension(vee, ["b"])
        assert extension.index("b") > extension.index("c")

    def test_still_a_linear_extension(self, vee):
        extension = chain_forced_extension(vee, ["a", "b"])
        assert is_linear_extension(vee, extension)

    def test_rejects_non_chain(self, vee):
        with pytest.raises(PosetError):
            chain_forced_extension(vee, ["b", "c"])

    def test_rejects_unknown_element(self, vee):
        with pytest.raises(PosetError):
            chain_forced_extension(vee, ["z"])

    def test_chain_order_agnostic(self, vee):
        up = chain_forced_extension(vee, ["a", "b"])
        down = chain_forced_extension(vee, ["b", "a"])
        assert up == down

    @settings(max_examples=30, deadline=None)
    @given(posets_from_computations(max_messages=20))
    def test_property_forcing(self, poset):
        if len(poset) == 0:
            return
        chains = minimum_chain_partition(poset)
        for chain in chains:
            extension = chain_forced_extension(poset, chain)
            assert is_linear_extension(poset, extension)
            position = {e: i for i, e in enumerate(extension)}
            for c in chain:
                for x in poset.elements:
                    if x != c and poset.concurrent(x, c):
                        assert position[x] < position[c]


class TestRealizer:
    def test_realizer_from_partition(self, vee):
        chains = minimum_chain_partition(vee)
        realizer = realizer_from_chain_partition(vee, chains)
        assert is_realizer(vee, realizer)

    def test_minimum_width_realizer_size(self, vee):
        realizer = minimum_width_realizer(vee)
        assert len(realizer) == 2  # width of the vee

    def test_empty_poset(self):
        assert minimum_width_realizer(Poset([])) == [[]]

    def test_chain_poset_single_extension(self):
        poset = Poset.chain("abc")
        realizer = minimum_width_realizer(poset)
        assert len(realizer) == 1
        assert is_realizer(poset, realizer)

    def test_empty_chain_family_rejected(self, vee):
        with pytest.raises(PosetError):
            realizer_from_chain_partition(vee, [])

    def test_family_missing_an_element_rejected(self):
        # One extension would order b before c, which the antichain
        # leaves incomparable: not a realizer.
        with pytest.raises(PosetError, match="'b'"):
            realizer_from_chain_partition(Poset.antichain("abc"), [["a"]])

    def test_overlapping_chains_accepted(self, vee):
        realizer = realizer_from_chain_partition(
            vee, [["a", "b"], ["a", "c"]]
        )
        assert is_realizer(vee, realizer)

    @settings(max_examples=40, deadline=None)
    @given(posets_from_computations(max_messages=25))
    def test_property_realizer_valid(self, poset):
        if len(poset) == 0:
            return
        realizer = minimum_width_realizer(poset)
        assert is_realizer(poset, realizer)


def _augmented_fifo_sort(poset, chain):
    """Reference: FIFO Kahn sort of ``P ∪ {(x, c) : c ∈ C, x ‖ c}``.

    The forced edges are materialised, and successors are visited in
    ascending insertion index.
    """
    elements = list(poset.elements)
    forced = set(chain)
    successors = [
        [
            j
            for j, y in enumerate(elements)
            if poset.less(x, y) or (y in forced and poset.concurrent(x, y))
        ]
        for x in elements
    ]
    indegree = [0] * len(elements)
    for row in successors:
        for j in row:
            indegree[j] += 1
    ready = deque(i for i, degree in enumerate(indegree) if degree == 0)
    order = []
    while ready:
        i = ready.popleft()
        order.append(elements[i])
        for j in successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    assert len(order) == len(elements)
    return order


def _assert_sum_of_forced_sorts(poset, chains):
    """The realizer joins per-component forced extensions by the sum
    rule: extension ``k`` lists the component blocks forward (reversed
    when ``k == 1``), and each block is the reference sort for that
    component's ``k``-th chain (its last one once it runs out),
    computed on the whole poset and restricted to the component."""
    realizer = realizer_from_chain_partition(poset, chains)
    components = comparability_components(poset)
    groups = [
        [chain for chain in chains if chain[0] in component]
        for component in components
    ]
    assert sum(map(len, groups)) == len(chains)
    if len(components) == 1:
        assert len(realizer) == len(chains)
    else:
        assert len(realizer) == max(2, max(map(len, groups)))
    for k, extension in enumerate(realizer):
        layout = components[::-1] if k == 1 else components
        assert extension == [
            e for component in layout for e in extension if e in component
        ]
        for component, group in zip(components, groups):
            chain = group[min(k, len(group) - 1)]
            assert [e for e in extension if e in component] == [
                e
                for e in _augmented_fifo_sort(poset, chain)
                if e in component
            ]


class TestForcedExtensionOracle:
    """Every extension of the realizer, restricted to a connected
    component, equals the reference sort over the materialised
    augmented relation restricted the same way, and the components sit
    in the sum rule's layout; on both poset kernels."""

    @pytest.mark.parametrize(
        "partition", [minimum_chain_partition, greedy_chain_partition]
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.one_of(
            computations(max_messages=30),
            clustered_computations(
                max_clusters=3, max_messages_per_cluster=10
            ),
            merged_cluster_computations(
                max_clusters=3, max_messages_per_cluster=10
            ),
        )
    )
    def test_matches_augmented_sort(self, partition, computation):
        pairs = covering_pairs(computation)
        for poset in (
            Poset(computation.messages, pairs),
            ReferencePoset(computation.messages, pairs),
        ):
            if len(poset) == 0:
                continue
            _assert_sum_of_forced_sorts(poset, partition(poset))

    @pytest.mark.parametrize(
        "partition", [minimum_chain_partition, greedy_chain_partition]
    )
    def test_interleaved_components(self, partition):
        # Four disjoint channels fired in rounds: four one-chain
        # components, interleaved in insertion order.
        computation = adversarial_antichain_computation(
            complete_topology(8), 3
        )
        poset = message_poset(computation)
        assert len(comparability_components(poset)) == 4
        _assert_sum_of_forced_sorts(poset, partition(poset))


class TestIntersection:
    def test_rebuilds_poset(self, vee):
        realizer = minimum_width_realizer(vee)
        rebuilt = intersection_of_extensions(list(vee.elements), realizer)
        assert rebuilt.same_order_as(vee)

    def test_single_extension_gives_chain(self):
        rebuilt = intersection_of_extensions("ab", [["a", "b"]])
        assert rebuilt.less("a", "b")

    def test_rejects_bad_extension(self):
        with pytest.raises(NotALinearExtensionError):
            intersection_of_extensions("ab", [["a"]])

    def test_no_extensions_rejected(self):
        with pytest.raises(PosetError):
            intersection_of_extensions("ab", [])

    def test_is_realizer_rejects_non_extension(self, vee):
        assert not is_realizer(vee, [["b", "a", "c"], ["a", "c", "b"]])

    def test_is_realizer_rejects_too_coarse(self, vee):
        # A single extension of the vee orders b and c — too strong.
        assert not is_realizer(vee, [["a", "b", "c"]])


class TestRanks:
    def test_ranks(self):
        assert ranks_in_extension(["x", "y", "z"]) == {
            "x": 0,
            "y": 1,
            "z": 2,
        }

    def test_empty(self):
        assert ranks_in_extension([]) == {}
