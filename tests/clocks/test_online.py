"""Tests for the online algorithm (Figure 5) — the paper's Theorem 4."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.clocks.base import TimestampAssignment
from repro.clocks.offline import OfflineRealizerClock
from repro.clocks.online import OnlineEdgeClock, OnlineProcessClock
from repro.core.fastpath import stamp_batch_wire
from repro.core.vector import VectorTimestamp
from repro.exceptions import ClockError
from repro.graphs.decomposition import decompose
from repro.graphs.generators import (
    client_server_topology,
    complete_topology,
    path_topology,
    star_topology,
    triangle_topology,
)
from repro.order.checker import check_encoding
from repro.order.message_order import message_poset
from repro.sim.computation import SyncComputation
from repro.sim.paper_figures import figure6_computation
from repro.sim.trace_io import assignment_to_dict
from repro.sim.workload import multi_cluster_computation, random_computation


class TestProcessClock:
    def test_initial_vector_zero(self):
        decomposition = decompose(path_topology(3))
        clock = OnlineProcessClock("P1", decomposition)
        assert clock.vector.is_zero()

    def test_handshake_agreement(self):
        decomposition = decompose(path_topology(2))
        p1 = OnlineProcessClock("P1", decomposition)
        p2 = OnlineProcessClock("P2", decomposition)
        piggyback = p1.prepare_send()
        ack, receiver_view = p2.on_receive("P1", piggyback)
        sender_view = p1.on_acknowledgement("P2", ack)
        assert sender_view == receiver_view

    def test_ack_carries_pre_merge_vector(self):
        decomposition = decompose(path_topology(2))
        p2 = OnlineProcessClock("P2", decomposition)
        ack, _ = p2.on_receive("P1", VectorTimestamp([5]))
        assert ack == VectorTimestamp([0])  # the vector before the merge

    def test_component_incremented(self):
        decomposition = decompose(path_topology(2))
        p2 = OnlineProcessClock("P2", decomposition)
        _, timestamp = p2.on_receive("P1", VectorTimestamp([0]))
        assert timestamp == VectorTimestamp([1])


class TestStarAndTriangleAreIntegers:
    """Lemma 1 corollary: star/triangle topologies need one component."""

    def test_star_single_component(self):
        topology = star_topology(7)
        clock = OnlineEdgeClock.for_topology(topology)
        assert clock.timestamp_size == 1

    def test_triangle_single_component(self):
        topology = triangle_topology()
        clock = OnlineEdgeClock.for_topology(topology)
        assert clock.timestamp_size == 1

    def test_star_timestamps_totally_ordered(self):
        topology = star_topology(5)
        clock = OnlineEdgeClock.for_topology(topology)
        computation = random_computation(topology, 25, random.Random(4))
        stamps = clock.timestamp_computation(computation)
        values = [stamps.of(m) for m in computation.messages]
        assert values == sorted(values, key=lambda v: v[0])
        assert len(set(values)) == len(values)


class TestEquationOne:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_complete(self, seed):
        topology = complete_topology(6)
        clock = OnlineEdgeClock(decompose(topology))
        computation = random_computation(topology, 35, random.Random(seed))
        assignment = clock.timestamp_computation(computation)
        report = check_encoding(clock, assignment)
        assert report.characterizes

    def test_works_on_every_family(self, any_topology, rng):
        clock = OnlineEdgeClock(decompose(any_topology))
        computation = random_computation(any_topology, 30, rng)
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes

    def test_empty_computation(self):
        topology = path_topology(3)
        clock = OnlineEdgeClock(decompose(topology))
        computation = SyncComputation.from_pairs(topology, [])
        assignment = clock.timestamp_computation(computation)
        assert len(assignment) == 0

    def test_increment_makes_vector_nonzero(self):
        topology = path_topology(2)
        clock = OnlineEdgeClock(decompose(topology))
        computation = SyncComputation.from_pairs(topology, [("P1", "P2")])
        assignment = clock.timestamp_computation(computation)
        message = computation.messages[0]
        assert assignment.of(message)[clock.group_of_message(message)] == 1


class TestFigure6:
    def test_figure6_highlighted_timestamp(self):
        computation, decomposition = figure6_computation()
        clock = OnlineEdgeClock(decomposition)
        stamps = clock.timestamp_computation(computation)
        assert stamps.of_name("m3") == VectorTimestamp([1, 1, 1])

    def test_figure6_encodes_order(self):
        computation, decomposition = figure6_computation()
        clock = OnlineEdgeClock(decomposition)
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes


class TestLemma3:
    """Concurrent messages always sit in different edge groups."""

    @pytest.mark.parametrize("seed", range(5))
    def test_concurrent_messages_in_distinct_groups(self, seed):
        topology = complete_topology(6)
        decomposition = decompose(topology)
        clock = OnlineEdgeClock(decomposition)
        computation = random_computation(topology, 30, random.Random(seed))
        poset = message_poset(computation)
        for m1, m2 in poset.incomparable_pairs():
            assert clock.group_of_message(m1) != clock.group_of_message(m2)


class TestTopologyMismatch:
    def test_rejects_foreign_topology(self):
        clock = OnlineEdgeClock(decompose(path_topology(3)))
        other = SyncComputation.from_pairs(
            complete_topology(3), [("P1", "P3")]
        )
        with pytest.raises(ClockError):
            clock.timestamp_computation(other)

    def test_accepts_structurally_equal_topology(self):
        clock = OnlineEdgeClock(decompose(path_topology(3)))
        computation = SyncComputation.from_pairs(
            path_topology(3), [("P1", "P2")]
        )
        assignment = clock.timestamp_computation(computation)
        assert len(assignment) == 1


class TestOverheadClaims:
    def test_client_server_constant_components(self):
        from repro.graphs.generators import client_server_topology

        for clients in (5, 10, 20):
            topology = client_server_topology(3, clients)
            clock = OnlineEdgeClock(decompose(topology))
            assert clock.timestamp_size == 3

    def test_complete_graph_n_minus_two(self):
        for n in (4, 5, 7):
            clock = OnlineEdgeClock(decompose(complete_topology(n)))
            assert clock.timestamp_size == n - 2


class TestWorkersKeyword:
    """Stamping is serial: both clocks accept ``workers=1`` only."""

    @pytest.mark.parametrize("workers", [0, 2, 4, -1])
    def test_other_values_rejected(self, workers):
        decomposition = decompose(path_topology(3))
        with pytest.raises(ValueError, match="only workers=1"):
            OnlineEdgeClock(decomposition, workers=workers)
        with pytest.raises(ValueError, match="only workers=1"):
            OfflineRealizerClock(workers=workers)

    def test_one_is_accepted(self):
        computation = random_computation(
            path_topology(4), 20, random.Random(3)
        )
        for clock in (
            OnlineEdgeClock(decompose(computation.topology), workers=1),
            OfflineRealizerClock(workers=1),
        ):
            report = check_encoding(
                clock, clock.timestamp_computation(computation)
            )
            assert report.characterizes


def _sha256_json(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


class TestPinnedOutputs:
    """SHA-256 digests of Figure 5 output on the batch and wire paths.

    Both batch kernels must keep producing these exact timestamp files
    (``assignment_to_dict`` with sorted keys), and the delta codec the
    same payload size.  The client-server case has d = 3; the federated
    case has d = 24 and components wide enough for two-byte varints.
    """

    CASES = {
        "client-server-3x27": (
            lambda: random_computation(
                client_server_topology(3, 27), 2000, random.Random(11)
            ),
            "8051987b0aae016f26ac4c05356becabc971f6646d88bb0492224e15f9db9295",
            24_160,
        ),
        "federated-3x500": (
            lambda: multi_cluster_computation(3, 500, random.Random(11)),
            "f507b6351eeade77e4cb88de007bed0bc7617b945d6fd1ad8604e03908fb6956",
            39_826,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_digest(self, name):
        build, digest, _ = self.CASES[name]
        computation = build()
        clock = OnlineEdgeClock(decompose(computation.topology))
        assignment = clock.timestamp_computation(computation)
        assert _sha256_json(assignment_to_dict(assignment)) == digest

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_delta_wire_digest(self, name):
        build, digest, payload_bytes = self.CASES[name]
        computation = build()
        timestamps, stats = stamp_batch_wire(
            computation,
            decompose(computation.topology),
            wire_format="delta",
            verify=True,
        )
        assignment = TimestampAssignment(computation, timestamps)
        assert _sha256_json(assignment_to_dict(assignment)) == digest
        assert stats.payload_bytes == payload_bytes
