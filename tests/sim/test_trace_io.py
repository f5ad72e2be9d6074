"""Tests for JSON trace serialization."""

from __future__ import annotations

import json
import random

import pytest

from repro.clocks.online import OnlineEdgeClock
from repro.exceptions import SimulationError
from repro.graphs.decomposition import decompose
from repro.graphs.generators import complete_topology, path_topology
from repro.sim.trace_io import (
    assignment_from_dict,
    assignment_to_dict,
    computation_from_dict,
    computation_to_dict,
    dumps_assignment,
    dumps_computation,
    loads_assignment,
    loads_computation,
    topology_from_dict,
    topology_to_dict,
)
from repro.sim.workload import random_computation


class TestTopologyRoundTrip:
    def test_round_trip(self):
        topology = complete_topology(4)
        restored = topology_from_dict(topology_to_dict(topology))
        assert set(restored.vertices) == set(topology.vertices)
        assert set(restored.edges) == set(topology.edges)


class TestComputationRoundTrip:
    def test_round_trip(self):
        computation = random_computation(
            complete_topology(5), 20, random.Random(8)
        )
        restored = loads_computation(dumps_computation(computation))
        assert len(restored) == len(computation)
        assert [
            (m.name, m.sender, m.receiver) for m in restored.messages
        ] == [(m.name, m.sender, m.receiver) for m in computation.messages]

    def test_json_is_valid(self):
        computation = random_computation(
            path_topology(3), 5, random.Random(1)
        )
        parsed = json.loads(dumps_computation(computation, indent=2))
        assert parsed["version"] == 1

    def test_version_check(self):
        computation = random_computation(
            path_topology(3), 3, random.Random(1)
        )
        data = computation_to_dict(computation)
        data["version"] = 99
        with pytest.raises(SimulationError):
            computation_from_dict(data)


class TestAssignmentRoundTrip:
    def test_round_trip_preserves_vectors(self):
        topology = complete_topology(5)
        computation = random_computation(topology, 15, random.Random(3))
        clock = OnlineEdgeClock(decompose(topology))
        assignment = clock.timestamp_computation(computation)
        restored = loads_assignment(
            computation, dumps_assignment(assignment)
        )
        for message in computation.messages:
            assert restored.of(message) == assignment.of(message)

    def test_version_check(self):
        topology = path_topology(2)
        computation = random_computation(topology, 2, random.Random(0))
        clock = OnlineEdgeClock(decompose(topology))
        data = assignment_to_dict(clock.timestamp_computation(computation))
        data["version"] = 0
        with pytest.raises(SimulationError):
            assignment_from_dict(computation, data)

    def test_mixed_lengths_rejected(self):
        computation = random_computation(
            complete_topology(4), 5, random.Random(2)
        )
        clock = OnlineEdgeClock(decompose(computation.topology))
        data = assignment_to_dict(clock.timestamp_computation(computation))
        data["timestamps"]["m3"].append(0)
        with pytest.raises(SimulationError, match="'m1' has .*'m3' has"):
            assignment_from_dict(computation, data)

    def test_infinity_components_survive(self):
        from repro.clocks.base import TimestampAssignment
        from repro.core.vector import VectorTimestamp

        topology = path_topology(2)
        computation = random_computation(topology, 1, random.Random(0))
        assignment = TimestampAssignment(
            computation,
            {computation.messages[0]: VectorTimestamp.infinities(2)},
        )
        restored = loads_assignment(
            computation, dumps_assignment(assignment)
        )
        assert restored.of(computation.messages[0]) == (
            VectorTimestamp.infinities(2)
        )
