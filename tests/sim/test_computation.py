"""Tests for the synchronous-computation model."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidComputationError
from repro.graphs.generators import complete_topology, path_topology
from repro.sim.computation import (
    EventedComputation,
    InternalEvent,
    SyncComputation,
    SyncMessage,
)


@pytest.fixture
def comp():
    return SyncComputation.from_pairs(
        path_topology(3), [("P1", "P2"), ("P2", "P3"), ("P3", "P2")]
    )


class TestSyncMessage:
    def test_participants(self):
        message = SyncMessage(0, "P1", "P2", "m1")
        assert message.participants() == ("P1", "P2")

    def test_involves(self):
        message = SyncMessage(0, "P1", "P2", "m1")
        assert message.involves("P1") and message.involves("P2")
        assert not message.involves("P3")

    def test_hashable(self):
        a = SyncMessage(0, "P1", "P2", "m1")
        b = SyncMessage(0, "P1", "P2", "m1")
        assert a == b and hash(a) == hash(b)

    def test_repr(self):
        assert "m1" in repr(SyncMessage(0, "P1", "P2", "m1"))


class TestValidation:
    def test_from_pairs_names(self, comp):
        assert [m.name for m in comp.messages] == ["m1", "m2", "m3"]

    def test_self_message_rejected(self):
        with pytest.raises(InvalidComputationError, match="m1 sends to itself"):
            SyncComputation.from_pairs(path_topology(2), [("P1", "P1")])

    def test_self_message_outside_system_reports_self_send(self):
        # The self-send rule is checked before system membership.
        with pytest.raises(InvalidComputationError, match="m2 sends to itself"):
            SyncComputation.from_pairs(
                path_topology(2), [("P1", "P2"), ("P9", "P9")]
            )

    def test_unknown_process_rejected(self):
        with pytest.raises(
            InvalidComputationError,
            match=r"process 'P9' of message m1 is not in the system",
        ):
            SyncComputation.from_pairs(path_topology(2), [("P1", "P9")])

    def test_non_channel_rejected(self):
        with pytest.raises(
            InvalidComputationError,
            match=(
                r"message m1 uses channel \('P1', 'P3'\) which is not in "
                "the communication topology"
            ),
        ):
            SyncComputation.from_pairs(path_topology(3), [("P1", "P3")])

    def test_bad_index_rejected(self):
        topology = path_topology(2)
        with pytest.raises(
            InvalidComputationError, match="message m1 has index 5, expected 0"
        ):
            SyncComputation(
                topology, [SyncMessage(5, "P1", "P2", "m1")]
            )

    def test_duplicate_name_rejected(self):
        topology = path_topology(2)
        with pytest.raises(
            InvalidComputationError, match="duplicate message name m1"
        ):
            SyncComputation(
                topology,
                [
                    SyncMessage(0, "P1", "P2", "m1"),
                    SyncMessage(1, "P2", "P1", "m1"),
                ],
            )


class TestQueries:
    def test_projection(self, comp):
        assert [m.name for m in comp.process_messages("P2")] == [
            "m1",
            "m2",
            "m3",
        ]
        assert [m.name for m in comp.process_messages("P1")] == ["m1"]

    def test_projection_unknown_process(self, comp):
        with pytest.raises(InvalidComputationError):
            comp.process_messages("P9")

    def test_message_lookup(self, comp):
        assert comp.message("m2").sender == "P2"

    def test_message_lookup_missing(self, comp):
        with pytest.raises(InvalidComputationError):
            comp.message("m9")

    def test_active_processes(self):
        computation = SyncComputation.from_pairs(
            complete_topology(5), [("P1", "P2")]
        )
        assert computation.active_processes() == ["P1", "P2"]

    def test_channels_used(self, comp):
        channels = comp.channels_used()
        assert len(channels) == 2  # (P1,P2) and (P2,P3) once each

    def test_len_iter(self, comp):
        assert len(comp) == 3
        assert [m.name for m in comp] == ["m1", "m2", "m3"]

    def test_repr(self, comp):
        assert "3 messages" in repr(comp)


class TestEventedComputation:
    def test_uniform_insertion(self, comp):
        evented = EventedComputation.with_events_per_slot(comp, 1)
        # P1 has 1 message -> 2 slots; P2 has 3 -> 4; P3 has 2 -> 3.
        assert len(evented.internal_events()) == 2 + 4 + 3

    def test_slot_out_of_range(self, comp):
        with pytest.raises(InvalidComputationError):
            EventedComputation(
                comp, [InternalEvent("P1", 5, 1, "e1")]
            )

    def test_counter_must_be_dense(self, comp):
        with pytest.raises(InvalidComputationError):
            EventedComputation(
                comp, [InternalEvent("P1", 0, 2, "e1")]
            )

    def test_duplicate_name_rejected(self, comp):
        with pytest.raises(InvalidComputationError):
            EventedComputation(
                comp,
                [
                    InternalEvent("P1", 0, 1, "e1"),
                    InternalEvent("P1", 0, 2, "e1"),
                ],
            )

    def test_timeline_interleaves(self, comp):
        evented = EventedComputation(
            comp,
            [
                InternalEvent("P2", 0, 1, "before"),
                InternalEvent("P2", 1, 1, "between"),
            ],
        )
        timeline = list(evented.process_timeline("P2"))
        kinds = [kind for kind, _ in timeline]
        assert kinds == [
            "internal",
            "message",
            "internal",
            "message",
            "message",
        ]

    def test_surrounding_messages(self, comp):
        evented = EventedComputation(
            comp, [InternalEvent("P2", 1, 1, "mid")]
        )
        event = evented.event("mid")
        previous, nxt = evented.surrounding_messages(event)
        assert previous.name == "m1"
        assert nxt.name == "m2"

    def test_surrounding_messages_at_ends(self, comp):
        evented = EventedComputation(
            comp,
            [
                InternalEvent("P1", 0, 1, "first"),
                InternalEvent("P1", 1, 1, "last"),
            ],
        )
        previous, nxt = evented.surrounding_messages(evented.event("first"))
        assert previous is None and nxt.name == "m1"
        previous, nxt = evented.surrounding_messages(evented.event("last"))
        assert previous.name == "m1" and nxt is None

    def test_event_lookup_missing(self, comp):
        evented = EventedComputation(comp, [])
        with pytest.raises(InvalidComputationError):
            evented.event("nope")

    def test_repr(self, comp):
        evented = EventedComputation.with_events_per_slot(comp, 1)
        assert "internal events" in repr(evented)
