"""Unit tests for the batch stamping fast path."""

from __future__ import annotations

import random

import pytest

from repro.core.fastpath import stamp_batch, stamp_batch_wire
from repro.graphs.decomposition import decompose
from repro.graphs.generators import star_topology, triangle_topology
from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry
from repro.sim.computation import SyncComputation
from repro.sim.workload import random_computation


class TestStampBatch:
    def test_empty_computation_sets_component_gauge(self):
        topology = triangle_topology()
        decomposition = decompose(topology)
        computation = SyncComputation.from_pairs(topology, [])
        with instrument.enabled_session(MetricsRegistry()) as bundle:
            result = stamp_batch(computation, decomposition)
            assert result == {}
            assert (
                bundle.vector_component_count.value == decomposition.size
            )
            assert bundle.vector_joins.value == 0
            assert bundle.messages_timestamped.value == 0

    def test_counts_follow_paper_accounting(self):
        topology = star_topology(4)
        decomposition = decompose(topology)
        computation = random_computation(topology, 25, random.Random(3))
        d = decomposition.size
        with instrument.enabled_session(MetricsRegistry()) as bundle:
            stamp_batch(computation, decomposition)
            assert bundle.messages_timestamped.value == 25
            assert bundle.acks_processed.value == 25
            assert bundle.vector_joins.value == 50
            # Varint accounting: every component is at least one byte
            # and at most the fixed-width cap.
            total = bundle.piggyback_bytes_total.value
            assert 25 * 2 * d <= total <= 25 * 2 * d * 8
            assert bundle.piggyback_bytes.count == 50

    def test_timestamps_strictly_increase_along_a_channel(self):
        topology = star_topology(2)
        decomposition = decompose(topology)
        computation = random_computation(topology, 30, random.Random(9))
        stamps = stamp_batch(computation, decomposition)
        previous = None
        for message in computation.messages:
            current = stamps[message]
            if previous is not None:
                assert sum(current) > sum(previous)
            previous = current

    @pytest.mark.parametrize("group", [-1, 1])
    def test_out_of_range_group_rejected(self, monkeypatch, group):
        """A decomposition naming a group outside ``[0, d)`` is refused
        on both batch paths, not read as a negative list index."""
        topology = star_topology(3)
        decomposition = decompose(topology)
        assert decomposition.size == 1
        computation = random_computation(topology, 5, random.Random(1))
        monkeypatch.setattr(
            decomposition, "group_index_of", lambda sender, receiver: group
        )
        with pytest.raises(IndexError, match="out of range"):
            stamp_batch(computation, decomposition)
        with pytest.raises(IndexError, match="out of range"):
            stamp_batch_wire(computation, decomposition)


class TestCodecSeam:
    """``stamp_batch_wire`` reaches its codec through the seam that the
    repo benchmark's traced run wraps: it resolves
    ``repro.clocks.delta.make_codec`` when called, then calls the
    codec's ``encode``/``decode`` instance attributes once per frame."""

    @pytest.mark.parametrize("wire_format", ["full", "delta"])
    def test_verify_makes_two_encodes_and_two_decodes_per_message(
        self, monkeypatch, wire_format
    ):
        from repro.clocks import delta

        calls = {"encode": 0, "decode": 0}
        original = delta.make_codec

        def counting_codec(*args, **kwargs):
            codec = original(*args, **kwargs)
            for name in calls:
                # An instance-level override, as bench's tracer installs.
                method = getattr(codec, name)
                setattr(codec, name, _counted(calls, name, method))
            return codec

        monkeypatch.setattr(delta, "make_codec", counting_codec)
        topology = star_topology(4)
        decomposition = decompose(topology)
        computation = random_computation(topology, 40, random.Random(3))
        timestamps, stats = stamp_batch_wire(
            computation, decomposition, wire_format=wire_format, verify=True
        )
        assert calls == {"encode": 80, "decode": 80}
        assert stats.frames == 80
        assert timestamps == stamp_batch(computation, decomposition)


def _counted(calls, name, method):
    def counted(*args):
        calls[name] += 1
        return method(*args)

    return counted
