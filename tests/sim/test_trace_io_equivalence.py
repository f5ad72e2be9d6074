"""The trace reader builds all messages in one ``map`` and the assignment
writer copies INFINITY-free vectors whole; both must match the
record-by-record code they replaced, byte for byte and error for error."""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks.base import TimestampAssignment
from repro.core.vector import INFINITY, VectorTimestamp
from repro.exceptions import InvalidComputationError
from repro.graphs.generators import path_topology
from repro.sim.computation import SyncComputation, SyncMessage
from repro.sim.trace_io import (
    FORMAT_VERSION,
    assignment_to_dict,
    computation_from_dict,
    topology_to_dict,
)

RELAXED = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reference_assignment_to_dict(assignment):
    """The writer's comprehension before INFINITY-free vectors were
    copied whole."""
    return {
        "version": FORMAT_VERSION,
        "timestamps": {
            message.name: ["inf" if c == INFINITY else c for c in vector]
            for message, vector in assignment.items()
        },
    }


def _reference_messages(records):
    return [
        SyncMessage(
            index=position,
            sender=record["sender"],
            receiver=record["receiver"],
            name=record["name"],
        )
        for position, record in enumerate(records)
    ]


components = st.one_of(
    st.integers(min_value=0, max_value=2**40),
    st.just(INFINITY),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
)


@st.composite
def assignments(draw):
    names = draw(st.lists(st.text(), unique=True, max_size=12))
    width = draw(st.integers(min_value=0, max_value=5))
    vectors = draw(
        st.lists(
            st.lists(components, min_size=width, max_size=width),
            min_size=len(names),
            max_size=len(names),
        )
    )
    computation = SyncComputation(
        path_topology(2),
        [SyncMessage(i, "P1", "P2", name) for i, name in enumerate(names)],
    )
    return TimestampAssignment(
        computation,
        {
            message: VectorTimestamp(vector)
            for message, vector in zip(computation.messages, vectors)
        },
    )


class TestAssignmentWriter:
    @RELAXED
    @given(assignments())
    def test_bytes_match_the_comprehension(self, assignment):
        expected = _reference_assignment_to_dict(assignment)
        got = assignment_to_dict(assignment)
        assert json.dumps(got, indent=2) == json.dumps(expected, indent=2)
        assert json.dumps(got) == json.dumps(expected)

    def test_escapes_empty_vectors_and_infinity(self):
        computation = SyncComputation(
            path_topology(2),
            [
                SyncMessage(0, "P1", "P2", 'quote"back\\slash\nnewline'),
                SyncMessage(1, "P1", "P2", "é "),
                SyncMessage(2, "P1", "P2", "plain"),
            ],
        )
        first, second, third = computation.messages
        assignment = TimestampAssignment(
            computation,
            {
                first: VectorTimestamp([]),
                second: VectorTimestamp([1, INFINITY, 0]),
                third: VectorTimestamp([2, 5, 1]),
            },
        )
        got = assignment_to_dict(assignment)
        assert got["timestamps"] == {
            'quote"back\\slash\nnewline': [],
            "é ": [1, "inf", 0],
            "plain": [2, 5, 1],
        }
        assert json.dumps(got, indent=2) == json.dumps(
            _reference_assignment_to_dict(assignment), indent=2
        )


records = st.fixed_dictionaries(
    {
        "name": st.text(max_size=4),
        "sender": st.sampled_from(["P1", "P2", "P3"]),
        "receiver": st.sampled_from(["P1", "P2", "P3"]),
    }
)


@st.composite
def damaged_records(draw):
    """Trace records, some with a key dropped or replaced by a non-dict."""
    drawn = draw(st.lists(records, max_size=8))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not drawn:
            break
        position = draw(st.integers(0, len(drawn) - 1))
        damage = draw(st.sampled_from(["sender", "receiver", "name", "list"]))
        record = drawn[position]
        if not isinstance(record, dict):
            continue
        if damage == "list":
            drawn[position] = list(record.values())
        else:
            drawn[position] = {k: v for k, v in record.items() if k != damage}
    return drawn


def _outcome(build):
    try:
        return ("ok", build())
    except (KeyError, TypeError, InvalidComputationError) as exc:
        return (type(exc), exc.args)


class TestOnePassReader:
    @RELAXED
    @given(damaged_records())
    def test_messages_and_errors_match_the_record_loop(self, drawn):
        data = {
            "version": FORMAT_VERSION,
            "topology": topology_to_dict(path_topology(3)),
            "messages": drawn,
        }
        expected = _outcome(
            lambda: SyncComputation(
                path_topology(3), _reference_messages(drawn)
            ).messages
        )
        got = _outcome(lambda: computation_from_dict(data).messages)
        assert got == expected
        if got[0] == "ok":
            assert all(type(m) is SyncMessage for m in got[1])

    def test_built_messages_are_sync_messages(self):
        data = {
            "version": FORMAT_VERSION,
            "topology": topology_to_dict(path_topology(3)),
            "messages": [
                {"name": "a", "sender": "P1", "receiver": "P2"},
                {"sender": "P3", "receiver": "P2", "name": "b"},
            ],
        }
        computation = computation_from_dict(data)
        assert computation.messages == (
            SyncMessage(0, "P1", "P2", "a"),
            SyncMessage(1, "P3", "P2", "b"),
        )
        assert repr(computation.message("b")) == "b['P3'->'P2'@1]"

    def test_reads_records_from_a_one_shot_iterator(self):
        records = [
            {"name": "a", "sender": "P1", "receiver": "P2"},
            {"name": "b", "sender": "P2", "receiver": "P3"},
            {"name": "c", "sender": "P3", "receiver": "P2"},
        ]
        data = {
            "version": FORMAT_VERSION,
            "topology": topology_to_dict(path_topology(3)),
            "messages": (record for record in records),
        }
        assert computation_from_dict(data).messages == tuple(
            _reference_messages(records)
        )
