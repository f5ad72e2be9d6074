"""Tests for the offline algorithm (Figure 9) and Theorem 8."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.clocks.offline import (
    OfflineRealizerClock,
    offline_vector_size,
    theorem8_bound,
)
from repro.core.chains import width
from repro.core.linear_extensions import is_realizer
from repro.graphs.generators import (
    client_server_topology,
    complete_topology,
    path_topology,
    star_topology,
)
from repro.obs.audit import audit_session
from repro.obs.instrument import enabled_session, piggyback_size_bytes
from repro.order.checker import check_encoding
from repro.order.message_order import message_poset
from repro.sim.computation import SyncComputation
from repro.sim.paper_figures import figure6_computation
from repro.sim.trace_io import assignment_to_dict
from repro.sim.workload import (
    adversarial_antichain_computation,
    multi_cluster_computation,
    random_computation,
    sequential_chain_computation,
)


class TestEquationOne:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_complete(self, seed):
        topology = complete_topology(7)
        computation = random_computation(topology, 40, random.Random(seed))
        clock = OfflineRealizerClock()
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes

    def test_every_family(self, any_topology, rng):
        computation = random_computation(any_topology, 25, rng)
        clock = OfflineRealizerClock()
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes

    def test_empty_computation(self):
        computation = SyncComputation.from_pairs(path_topology(2), [])
        clock = OfflineRealizerClock()
        assignment = clock.timestamp_computation(computation)
        assert len(assignment) == 0
        assert clock.timestamp_size == 0


class TestTheorem8:
    @pytest.mark.parametrize("seed", range(6))
    def test_width_at_most_half_n(self, seed):
        topology = complete_topology(8)
        computation = random_computation(topology, 40, random.Random(seed))
        assert offline_vector_size(computation) <= theorem8_bound(computation)

    def test_adversarial_workload_hits_bound(self):
        topology = complete_topology(8)
        computation = adversarial_antichain_computation(topology, 4)
        assert width(message_poset(computation)) == 4  # floor(8/2)
        # Four disjoint channels give four one-chain components, which
        # the sum rule realizes with two extensions.
        assert offline_vector_size(computation) == 2

    def test_chain_workload_width_one(self):
        topology = complete_topology(6)
        computation = sequential_chain_computation(
            topology, 20, random.Random(1)
        )
        assert offline_vector_size(computation) == 1

    def test_bound_uses_active_processes(self):
        # 10-process system, only 4 processes talk: bound is 2, not 5.
        topology = complete_topology(10)
        computation = SyncComputation.from_pairs(
            topology, [("P1", "P2"), ("P3", "P4")]
        )
        assert theorem8_bound(computation) == 2


class TestRealizerInternals:
    def test_realizer_is_valid(self):
        topology = complete_topology(6)
        computation = random_computation(topology, 25, random.Random(9))
        clock = OfflineRealizerClock()
        clock.timestamp_computation(computation)
        poset = message_poset(computation)
        assert is_realizer(poset, clock.realizer)

    def test_realizer_size_is_width(self):
        topology = complete_topology(6)
        computation = random_computation(topology, 25, random.Random(10))
        clock = OfflineRealizerClock()
        clock.timestamp_computation(computation)
        assert clock.timestamp_size == width(message_poset(computation))

    def test_chain_partition_accessible(self):
        topology = path_topology(4)
        computation = random_computation(topology, 10, random.Random(3))
        clock = OfflineRealizerClock()
        clock.timestamp_computation(computation)
        total = sum(len(chain) for chain in clock.chain_partition)
        assert total == len(computation)

    def test_metadata_unavailable_before_run(self):
        clock = OfflineRealizerClock()
        with pytest.raises(RuntimeError):
            _ = clock.timestamp_size
        with pytest.raises(RuntimeError):
            _ = clock.realizer
        with pytest.raises(RuntimeError):
            _ = clock.chain_partition


class TestVectorProperties:
    def test_ranks_strictly_increase_on_comparable(self):
        topology = complete_topology(5)
        computation = random_computation(topology, 20, random.Random(5))
        clock = OfflineRealizerClock()
        assignment = clock.timestamp_computation(computation)
        poset = message_poset(computation)
        for m1, m2 in poset.relation_pairs():
            v1, v2 = assignment.of(m1), assignment.of(m2)
            assert all(a < b for a, b in zip(v1, v2))

    def test_all_timestamps_distinct(self):
        topology = complete_topology(5)
        computation = random_computation(topology, 20, random.Random(6))
        clock = OfflineRealizerClock()
        assignment = clock.timestamp_computation(computation)
        vectors = [assignment.of(m) for m in computation.messages]
        assert len(set(vectors)) == len(vectors)

    def test_figure6_needs_two_components(self):
        # The paper notes 2-dimensional vectors suffice for Figure 6.
        computation, _ = figure6_computation()
        assert offline_vector_size(computation) == 2

    def test_star_topology_offline_width_one(self):
        topology = star_topology(5)
        computation = random_computation(topology, 15, random.Random(2))
        assert offline_vector_size(computation) == 1


def _sha256_json(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


class TestGreedyStrategyObservability:
    def test_width_not_chain_count_reaches_gauge_and_audit(self):
        """Greedy peeling takes 4 chains where the width is 3; the gauge
        and the Theorem 8 audit (bound 6 // 2 = 3) must see the width."""
        computation = random_computation(
            complete_topology(6), 40, random.Random(1)
        )
        clock = OfflineRealizerClock(chain_strategy="greedy")
        with enabled_session() as bundle, audit_session(
            sample_rate=0.0
        ) as auditor:
            clock.timestamp_computation(computation)
        assert len(clock.chain_partition) == 4
        assert bundle.offline_width.value == 3
        assert auditor.bounds_checked == 1
        assert auditor.violations == []


class TestPinnedOutputs:
    """SHA-256 digests of Figure 9 output on block-diagonal posets.

    Closure and matching work one diagonal block at a time, so these
    inputs pin that the block-local results are byte-identical to the
    global ones: the timestamp file (``assignment_to_dict`` with sorted
    keys) and the minimum chain partition (message names per chain, in
    order).  The matching starts from the message poset's process
    chains (one per process of the greedy vertex cover, each message on
    its first cover endpoint), which are already minimum on all three
    inputs, so the pinned partition is that seed.  The federated cases
    have 8 and 16 blocks, and their timestamps carry 8 sum-rule
    components (widths 64 and 128); the client-server case is one
    block, stamped with one extension per chain.
    """

    CASES = {
        "federated-8x500": (
            lambda: multi_cluster_computation(8, 500, random.Random(11)),
            "e59a65617ae7c5cadcaf34d501ad2a8702deec5b3d6568885c1b3648ac30b9df",
            "b3cd1ce8ee6f40ec0a9a4abe29ca50782425ab3ac7c6681ddaa6789d63b9e1ac",
        ),
        "federated-16x125": (
            lambda: multi_cluster_computation(16, 125, random.Random(7)),
            "c807e5ecdce30f35fc8f763e69d967af0f39acba66b750d4624c4cf10f8044f8",
            "71309e70789c1d4d353a92d771cd9c8f7bdc2f55ad13ca26fcb5ae182807ba62",
        ),
        "client-server-3x27": (
            lambda: random_computation(
                client_server_topology(3, 27), 2000, random.Random(11)
            ),
            "6d564e9617b54bec4d57b83991012aac8b7941be849b79c81fa44ad066bc221b",
            "6dd74c81a4c84fd6892669da5b80d06f33b5ecf7979b0b7783e05cfdfc178d68",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digests(self, name):
        build, timestamps_digest, chains_digest = self.CASES[name]
        clock = OfflineRealizerClock()
        assignment = clock.timestamp_computation(build())
        assert _sha256_json(assignment_to_dict(assignment)) == (
            timestamps_digest
        )
        chains = [
            [message.name for message in chain]
            for chain in clock.chain_partition
        ]
        assert _sha256_json(chains) == chains_digest


class TestDisjointSum:
    """Figure 9 on a message poset with several connected components:
    the sum rule stamps ``max(2, max_i width(P_i))`` components."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: multi_cluster_computation(4, 120, random.Random(11)),
            lambda: multi_cluster_computation(
                5, 100, random.Random(3), server_count=2, client_count=3
            ),
            lambda: adversarial_antichain_computation(
                complete_topology(40), 25
            ),
        ],
        ids=["federated-4x120", "cells-5x100", "adversarial-K40x25"],
    )
    def test_exhaustive_theorem4(self, build):
        computation = build()
        assert len(computation) <= 500
        clock = OfflineRealizerClock()
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes
        assert clock.timestamp_size < len(clock.chain_partition)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_federated_vector_size(self, seed):
        computation = multi_cluster_computation(8, 500, random.Random(seed))
        clock = OfflineRealizerClock()
        assignment = clock.timestamp_computation(computation)
        assert len(clock.chain_partition) == 64
        assert clock.timestamp_size == 8
        assert offline_vector_size(computation) == 8
        piggyback = sum(
            piggyback_size_bytes(vector) for _, vector in assignment.items()
        )
        assert piggyback / len(computation) == pytest.approx(15.744)

    def test_adversarial_vector_size(self):
        computation = adversarial_antichain_computation(
            complete_topology(40), 25
        )
        assert width(message_poset(computation)) == 20  # floor(40/2)
        assert offline_vector_size(computation) == 2
