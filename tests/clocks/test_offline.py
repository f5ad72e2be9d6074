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
        assert offline_vector_size(computation) == 4  # floor(8/2)

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


class TestPinnedOutputs:
    """SHA-256 digests of Figure 9 output on block-diagonal posets.

    Closure and matching work one diagonal block at a time, so these
    inputs pin that the block-local results are byte-identical to the
    global ones: the timestamp file (``assignment_to_dict`` with sorted
    keys) and the minimum chain partition (message names per chain, in
    order).  The federated cases have 8 and 16 blocks; the
    client-server case is one block.
    """

    CASES = {
        "federated-8x500": (
            lambda: multi_cluster_computation(8, 500, random.Random(11)),
            "8f5fa10bed97253ec3c2f44bdac9ff8febc99876efb084fd53076e2ae7ec26e3",
            "895427a612723e575844206dc412f01c27e75dfcb9ab5a3a26d28c4ff779d982",
        ),
        "federated-16x125": (
            lambda: multi_cluster_computation(16, 125, random.Random(7)),
            "bb7f4baf1074f4e812231a5d30afb8d36e3eded9d356ead8f132d412e013b6d7",
            "f380912ab4822dc0f76db57391480bced4fb60df76d8f9324645ba9557ca18cf",
        ),
        "client-server-3x27": (
            lambda: random_computation(
                client_server_topology(3, 27), 2000, random.Random(11)
            ),
            "e22a841465eac3833ef9ca08fbfa2b108ce0eaacae6857da07ce72fa9144b16c",
            "a352f19ced48d041253d2bce6b26d47f9c99d293c86126c3d53fa42b5a534253",
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
