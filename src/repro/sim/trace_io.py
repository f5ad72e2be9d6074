"""JSON round-tripping of topologies, computations and timestamps.

Monitoring systems persist traces; this module provides a stable,
versioned JSON format so computations captured by the runtime (or
generated by the workload module) can be stored, shipped and re-analysed
offline — the workflow the offline algorithm (Figure 9) assumes.
"""

from __future__ import annotations

import json
from itertools import count, repeat
from operator import add, itemgetter
from typing import Any, Dict, List, Mapping

from repro.clocks.base import TimestampAssignment
from repro.core.vector import INFINITY, VectorTimestamp
from repro.exceptions import SimulationError
from repro.graphs.graph import UndirectedGraph
from repro.sim.computation import SyncComputation, SyncMessage

FORMAT_VERSION = 1

_FIELDS = itemgetter("sender", "receiver", "name")


def topology_to_dict(topology: UndirectedGraph) -> Dict[str, Any]:
    return {
        "vertices": [str(v) for v in topology.vertices],
        "edges": [[str(e.u), str(e.v)] for e in topology.edges],
    }


def topology_from_dict(data: Mapping[str, Any]) -> UndirectedGraph:
    return UndirectedGraph(
        data["vertices"], [tuple(pair) for pair in data["edges"]]
    )


def computation_to_dict(computation: SyncComputation) -> Dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "topology": topology_to_dict(computation.topology),
        "messages": [
            {
                "name": message.name,
                "sender": str(message.sender),
                "receiver": str(message.receiver),
            }
            for message in computation.messages
        ],
    }


def computation_from_dict(data: Mapping[str, Any]) -> SyncComputation:
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SimulationError(
            f"unsupported trace format version {version!r}"
        )
    topology = topology_from_dict(data["topology"])
    # One pass over the records, so any iterable will do.  ``_FIELDS``
    # reads sender, receiver, name in that order, so a malformed record
    # raises the KeyError or TypeError it always did; each message is
    # ``(index,) + fields`` built by ``tuple.__new__``, as
    # ``SyncMessage._make`` does, without a Python frame per message.
    fields = map(add, zip(count()), map(_FIELDS, data["messages"]))
    messages = map(tuple.__new__, repeat(SyncMessage), fields)
    return SyncComputation(topology, messages)


def dumps_computation(computation: SyncComputation, **json_kwargs) -> str:
    return json.dumps(computation_to_dict(computation), **json_kwargs)


def loads_computation(text: str) -> SyncComputation:
    return computation_from_dict(json.loads(text))


def _vector_to_list(vector: VectorTimestamp) -> List[Any]:
    components = vector.components
    # One C-level scan: only a vector with an INFINITY component needs
    # rewriting.
    if INFINITY not in components:
        return list(components)
    return ["inf" if c == INFINITY else c for c in components]


def _vector_from_list(values: List[Any]) -> VectorTimestamp:
    return VectorTimestamp(
        INFINITY if value == "inf" else value for value in values
    )


def assignment_to_dict(assignment: TimestampAssignment) -> Dict[str, Any]:
    """Serialize a vector-timestamp assignment keyed by message name."""
    return {
        "version": FORMAT_VERSION,
        "timestamps": {
            message.name: _vector_to_list(vector)
            for message, vector in assignment.items()
        },
    }


def assignment_from_dict(
    computation: SyncComputation, data: Mapping[str, Any]
) -> TimestampAssignment:
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SimulationError(
            f"unsupported assignment format version {version!r}"
        )
    mapping = {
        computation.message(name): _vector_from_list(values)
        for name, values in data["timestamps"].items()
    }
    first = next(iter(mapping), None)
    for message, vector in mapping.items():
        if len(vector) != len(mapping[first]):
            raise SimulationError(
                f"timestamps differ in length: {first.name!r} has "
                f"{len(mapping[first])} components, {message.name!r} "
                f"has {len(vector)}"
            )
    return TimestampAssignment(computation, mapping)


def dumps_assignment(assignment: TimestampAssignment, **json_kwargs) -> str:
    return json.dumps(assignment_to_dict(assignment), **json_kwargs)


def loads_assignment(
    computation: SyncComputation, text: str
) -> TimestampAssignment:
    return assignment_from_dict(computation, json.loads(text))


# ----------------------------------------------------------------------
# Asynchronous traces (for the RSC pipeline)
# ----------------------------------------------------------------------
def async_computation_to_dict(computation) -> Dict[str, Any]:
    """Serialize an :class:`repro.sim.asynchronous.AsyncComputation`."""
    return {
        "version": FORMAT_VERSION,
        "topology": topology_to_dict(computation.topology),
        "messages": [
            {
                "id": message.ident,
                "name": message.name,
                "sender": str(message.sender),
                "receiver": str(message.receiver),
            }
            for message in computation.messages
        ],
        "events": {
            str(process): [
                [kind, ident]
                for kind, ident in computation.events_of(process)
            ]
            for process in computation.topology.vertices
        },
    }


def async_computation_from_dict(data: Mapping[str, Any]):
    """Deserialize an asynchronous computation."""
    from repro.sim.asynchronous import AsyncComputation, AsyncMessage

    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SimulationError(
            f"unsupported async trace format version {version!r}"
        )
    topology = topology_from_dict(data["topology"])
    messages = [
        AsyncMessage(
            ident=record["id"],
            sender=record["sender"],
            receiver=record["receiver"],
            name=record["name"],
        )
        for record in data["messages"]
    ]
    events = {
        process: [(kind, ident) for kind, ident in listed]
        for process, listed in data["events"].items()
    }
    return AsyncComputation(topology, messages, events)


def dumps_async_computation(computation, **json_kwargs) -> str:
    return json.dumps(async_computation_to_dict(computation), **json_kwargs)


def loads_async_computation(text: str):
    return async_computation_from_dict(json.loads(text))
