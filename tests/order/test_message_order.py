"""Tests for the ground-truth message order (Section 2)."""

from __future__ import annotations

import random

import pytest

from repro.core.chains import (
    is_chain_partition,
    minimum_chain_partition,
    width,
)
from repro.core.poset import Poset
from repro.graphs.generators import complete_topology, path_topology
from repro.graphs.vertex_cover import greedy_vertex_cover
from repro.order.message_order import (
    MessagePoset,
    covering_pairs,
    concurrent_messages,
    direct_precedence_pairs,
    directly_precedes,
    longest_chain_size_between,
    message_poset,
    minimal_messages,
    synchronous_chains_between,
    synchronously_precedes,
)
from repro.sim.computation import SyncComputation
from repro.sim.paper_figures import figure1_computation
from repro.sim.workload import random_computation


@pytest.fixture
def fig1():
    return figure1_computation()


class TestDirectPrecedence:
    def test_shared_process(self, fig1):
        m1, m3 = fig1.message("m1"), fig1.message("m3")
        assert directly_precedes(fig1, m1, m3)

    def test_no_shared_process(self, fig1):
        m1, m2 = fig1.message("m1"), fig1.message("m2")
        assert not directly_precedes(fig1, m1, m2)

    def test_not_backwards(self, fig1):
        m1, m3 = fig1.message("m1"), fig1.message("m3")
        assert not directly_precedes(fig1, m3, m1)

    def test_pairs_listing(self, fig1):
        pairs = direct_precedence_pairs(fig1)
        names = {(a.name, b.name) for a, b in pairs}
        assert ("m1", "m3") in names
        assert ("m1", "m2") not in names

    def test_covering_pairs_generate_same_closure(self, fig1):
        from repro.core.poset import Poset

        full = Poset(fig1.messages, direct_precedence_pairs(fig1))
        covers = Poset(fig1.messages, covering_pairs(fig1))
        assert full.same_order_as(covers)


class TestPoset:
    def test_transitivity(self, fig1):
        poset = message_poset(fig1)
        assert synchronously_precedes(
            poset, fig1.message("m1"), fig1.message("m5")
        )

    def test_concurrency(self, fig1):
        poset = message_poset(fig1)
        assert poset.concurrent(fig1.message("m1"), fig1.message("m2"))

    def test_concurrent_messages_listing(self, fig1):
        poset = message_poset(fig1)
        pairs = concurrent_messages(poset)
        names = {(a.name, b.name) for a, b in pairs}
        assert ("m1", "m2") in names

    def test_minimal_messages(self, fig1):
        poset = message_poset(fig1)
        assert {m.name for m in minimal_messages(poset)} == {"m1", "m2"}

    def test_empty_computation(self):
        computation = SyncComputation.from_pairs(path_topology(2), [])
        assert len(message_poset(computation)) == 0

    def test_execution_order_is_linear_extension(self):
        computation = random_computation(
            complete_topology(6), 30, random.Random(12)
        )
        poset = message_poset(computation)
        for m1, m2 in poset.relation_pairs():
            assert m1.index < m2.index


class TestProcessChains:
    def test_chains_partition_the_messages_by_cover_process(self, fig1):
        poset = message_poset(fig1)
        assert isinstance(poset, MessagePoset)
        chains = poset.process_chains()
        elements = poset.elements
        assert is_chain_partition(
            poset, [[elements[i] for i in chain] for chain in chains]
        )
        rank = {
            process: k
            for k, process in enumerate(greedy_vertex_cover(fig1.topology))
        }
        for chain in chains:
            owners = {
                min(m.participants(), key=lambda p: rank.get(p, len(rank)))
                for m in (elements[i] for i in chain)
            }
            assert len(owners) == 1

    def test_seed_above_width_comes_back_minimum(self):
        computation = random_computation(
            complete_topology(6), 30, random.Random(0)
        )
        poset = message_poset(computation)
        assert len(poset.process_chains()) == 5
        chains = minimum_chain_partition(poset)
        assert len(chains) == 2 == width(poset)
        assert is_chain_partition(poset, chains)

    def test_derived_posets_carry_no_process_chains(self, fig1):
        poset = message_poset(fig1)
        first_two = poset.elements[:2]
        assert type(poset.restricted_to(first_two)) is Poset
        assert type(poset.dual()) is Poset

    def test_empty_computation_has_no_chains(self):
        computation = SyncComputation.from_pairs(path_topology(2), [])
        assert message_poset(computation).process_chains() == []


class TestChains:
    def test_chain_of_size_four(self, fig1):
        size = longest_chain_size_between(
            fig1, fig1.message("m1"), fig1.message("m5")
        )
        assert size == 4

    def test_enumerate_chains(self, fig1):
        chains = synchronous_chains_between(
            fig1, fig1.message("m1"), fig1.message("m5")
        )
        sizes = {len(chain) for chain in chains}
        assert 4 in sizes
        for chain in chains:
            assert chain[0].name == "m1" and chain[-1].name == "m5"

    def test_no_chain(self, fig1):
        assert (
            longest_chain_size_between(
                fig1, fig1.message("m2"), fig1.message("m1")
            )
            == 0
        )

    def test_trivial_chain(self, fig1):
        m1 = fig1.message("m1")
        assert longest_chain_size_between(fig1, m1, m1) == 1

    def test_chain_limit(self):
        computation = random_computation(
            complete_topology(5), 20, random.Random(3)
        )
        chains = synchronous_chains_between(
            computation,
            computation.messages[0],
            computation.messages[-1],
            max_chains=5,
        )
        assert len(chains) <= 5
