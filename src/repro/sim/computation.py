"""Synchronous computations (the model of Section 2).

A *synchronous computation* is one in which every message's send and
receive can be drawn as a single vertical arrow: the computation is
fully described by the **sequence in which its messages occur** plus the
communication topology.  This module provides:

* :class:`SyncMessage` — one synchronous message (sender, receiver,
  execution index, display name such as ``m1``);
* :class:`SyncComputation` — a validated message sequence over a
  topology, with per-process projections;
* :class:`InternalEvent` and :class:`EventedComputation` — the extension
  of Section 5 where processes also perform internal events between
  their external (message) events.

The ground-truth order relations over these structures live in
:mod:`repro.order`; clock algorithms in :mod:`repro.clocks` consume the
structures defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidComputationError
from repro.graphs.graph import UndirectedGraph

Process = Hashable


@dataclass(frozen=True)
class SyncMessage:
    """One synchronous message.

    ``index`` is the message's position in the global execution order
    (0-based).  Because synchronous computations admit vertical message
    arrows, this single index fully determines both the send and the
    receive position.  ``name`` is a human-readable label (``m1``,
    ``m2``, ... by default) used in reports and tests.
    """

    index: int
    sender: Process
    receiver: Process
    name: str

    def participants(self) -> Tuple[Process, Process]:
        return (self.sender, self.receiver)

    def involves(self, process: Process) -> bool:
        return process == self.sender or process == self.receiver

    def channel(self) -> Tuple[Process, Process]:
        """The undirected channel the message travelled on."""
        return (self.sender, self.receiver)

    def __repr__(self) -> str:
        return f"{self.name}[{self.sender!r}->{self.receiver!r}@{self.index}]"


class SyncComputation:
    """A validated synchronous computation over a topology.

    The constructor checks the model of Section 2: every message joins
    two *distinct* processes of the system that are neighbours in the
    communication topology.

    >>> from repro.graphs.generators import path_topology
    >>> topology = path_topology(3)
    >>> comp = SyncComputation.from_pairs(
    ...     topology, [("P1", "P2"), ("P2", "P3")])
    >>> [m.name for m in comp.messages]
    ['m1', 'm2']
    >>> [m.name for m in comp.process_messages("P2")]
    ['m1', 'm2']
    """

    def __init__(self, topology: UndirectedGraph, messages: Sequence[SyncMessage]):
        self._topology = topology
        self._messages: Tuple[SyncMessage, ...] = tuple(messages)
        self._by_name: Dict[str, SyncMessage] = {}
        self._per_process: Dict[Process, List[SyncMessage]] = {
            p: [] for p in topology.vertices
        }
        self._validate()

    def _validate(self) -> None:
        # An adjacent pair is two distinct processes of the system, so a
        # valid message costs one adjacency probe; only a failing one
        # runs the itemised checks in ``_reject``.
        has_edge = self._topology.has_edge
        by_name = self._by_name
        per_process = self._per_process
        for position, message in enumerate(self._messages):
            if (
                message.index != position
                or not has_edge(message.sender, message.receiver)
                or message.name in by_name
            ):
                self._reject(position, message)
            by_name[message.name] = message
            per_process[message.sender].append(message)
            per_process[message.receiver].append(message)

    def _reject(self, position: int, message: SyncMessage) -> None:
        """Raise the first Section 2 rule that ``message`` breaks."""
        if message.index != position:
            raise InvalidComputationError(
                f"message {message.name} has index {message.index}, "
                f"expected {position}"
            )
        if message.sender == message.receiver:
            raise InvalidComputationError(
                f"message {message.name} sends to itself"
            )
        for process in message.participants():
            if process not in self._topology:
                raise InvalidComputationError(
                    f"process {process!r} of message {message.name} "
                    "is not in the system"
                )
        if not self._topology.has_edge(message.sender, message.receiver):
            raise InvalidComputationError(
                f"message {message.name} uses channel "
                f"({message.sender!r}, {message.receiver!r}) which is "
                "not in the communication topology"
            )
        raise InvalidComputationError(f"duplicate message name {message.name}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        topology: UndirectedGraph,
        pairs: Iterable[Tuple[Process, Process]],
        name_prefix: str = "m",
    ) -> "SyncComputation":
        """Build from ``(sender, receiver)`` pairs in execution order.

        Messages are named ``m1, m2, ...`` to match the paper's figures.
        """
        messages = [
            SyncMessage(i, sender, receiver, f"{name_prefix}{i + 1}")
            for i, (sender, receiver) in enumerate(pairs)
        ]
        return cls(topology, messages)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def topology(self) -> UndirectedGraph:
        return self._topology

    @property
    def messages(self) -> Tuple[SyncMessage, ...]:
        return self._messages

    @property
    def processes(self) -> Tuple[Process, ...]:
        return self._topology.vertices

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[SyncMessage]:
        return iter(self._messages)

    def message(self, name: str) -> SyncMessage:
        """Look a message up by display name (e.g. ``"m3"``)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidComputationError(
                f"no message named {name!r} in this computation"
            ) from None

    def process_messages(self, process: Process) -> Tuple[SyncMessage, ...]:
        """Messages involving ``process``, in occurrence order.

        This is the projection that makes ``▷`` easy to read off: two
        messages are related by ``▷`` exactly when they are consecutive
        or non-consecutive entries of some process's projection.
        """
        if process not in self._per_process:
            raise InvalidComputationError(
                f"process {process!r} is not in the system"
            )
        return tuple(self._per_process[process])

    def active_processes(self) -> List[Process]:
        """Processes that participate in at least one message."""
        return [p for p in self.processes if self._per_process[p]]

    def channels_used(self) -> List[Tuple[Process, Process]]:
        """Distinct channels that carry at least one message."""
        seen = []
        seen_set = set()
        for message in self._messages:
            key = frozenset(message.channel())
            if key not in seen_set:
                seen_set.add(key)
                seen.append(message.channel())
        return seen

    def __repr__(self) -> str:
        return (
            f"SyncComputation({len(self._messages)} messages over "
            f"{self._topology.vertex_count()} processes)"
        )


@dataclass(frozen=True)
class InternalEvent:
    """An internal (non-communication) event of Section 5.

    ``slot`` is the number of external events that precede it on its
    process (so events in slot ``k`` happen between the process's
    ``k``-th and ``k+1``-th messages), and ``counter`` is the 1-based
    position within the slot — exactly the ``c(e)`` counter the paper
    maintains (reset on every external event, incremented per internal
    event).
    """

    process: Process
    slot: int
    counter: int
    name: str

    def __repr__(self) -> str:
        return f"{self.name}[{self.process!r} slot={self.slot}]"


class EventedComputation:
    """A synchronous computation enriched with internal events.

    Internal events are attached per process and per *slot*: slot ``k``
    sits after the process's ``k``-th message and before its
    ``(k+1)``-th.  The full event sequence of a process interleaves its
    messages with its internal events.
    """

    def __init__(
        self,
        computation: SyncComputation,
        internal_events: Sequence[InternalEvent] = (),
    ):
        self._computation = computation
        self._internal: Dict[Process, Dict[int, List[InternalEvent]]] = {}
        self._by_name: Dict[str, InternalEvent] = {}
        for event in internal_events:
            self._attach(event)

    def _attach(self, event: InternalEvent) -> None:
        message_count = len(
            self._computation.process_messages(event.process)
        )
        if not 0 <= event.slot <= message_count:
            raise InvalidComputationError(
                f"event {event.name} slot {event.slot} out of range for "
                f"process {event.process!r} with {message_count} messages"
            )
        if event.name in self._by_name:
            raise InvalidComputationError(
                f"duplicate internal event name {event.name}"
            )
        slots = self._internal.setdefault(event.process, {})
        bucket = slots.setdefault(event.slot, [])
        expected_counter = len(bucket) + 1
        if event.counter != expected_counter:
            raise InvalidComputationError(
                f"event {event.name} has counter {event.counter}; "
                f"expected {expected_counter} (counters are dense, "
                "1-based per slot)"
            )
        bucket.append(event)
        self._by_name[event.name] = event

    # ------------------------------------------------------------------
    @classmethod
    def with_events_per_slot(
        cls, computation: SyncComputation, events_per_slot: int
    ) -> "EventedComputation":
        """Uniformly insert ``events_per_slot`` internal events into
        every slot of every active process (handy for tests)."""
        events: List[InternalEvent] = []
        serial = 0
        for process in computation.processes:
            slots = len(computation.process_messages(process)) + 1
            for slot in range(slots):
                for counter in range(1, events_per_slot + 1):
                    serial += 1
                    events.append(
                        InternalEvent(process, slot, counter, f"e{serial}")
                    )
        return cls(computation, events)

    # ------------------------------------------------------------------
    @property
    def computation(self) -> SyncComputation:
        return self._computation

    def internal_events(self) -> List[InternalEvent]:
        """All internal events, grouped by process then slot order."""
        events: List[InternalEvent] = []
        for process in self._computation.processes:
            slots = self._internal.get(process, {})
            for slot in sorted(slots):
                events.extend(slots[slot])
        return events

    def event(self, name: str) -> InternalEvent:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidComputationError(
                f"no internal event named {name!r}"
            ) from None

    def events_in_slot(
        self, process: Process, slot: int
    ) -> Tuple[InternalEvent, ...]:
        return tuple(self._internal.get(process, {}).get(slot, ()))

    def process_timeline(self, process: Process):
        """The full event sequence of ``process``.

        Yields ``("internal", event)`` and ``("message", message)``
        entries in occurrence order.
        """
        messages = self._computation.process_messages(process)
        for slot in range(len(messages) + 1):
            for event in self.events_in_slot(process, slot):
                yield ("internal", event)
            if slot < len(messages):
                yield ("message", messages[slot])

    def surrounding_messages(
        self, event: InternalEvent
    ) -> Tuple[Optional[SyncMessage], Optional[SyncMessage]]:
        """``(previous message, next message)`` on the event's process.

        Either side is ``None`` at the ends of the timeline; these are
        the positions where the paper substitutes the zero vector and
        the all-infinity vector.
        """
        messages = self._computation.process_messages(event.process)
        previous = messages[event.slot - 1] if event.slot > 0 else None
        nxt = messages[event.slot] if event.slot < len(messages) else None
        return previous, nxt

    def __repr__(self) -> str:
        return (
            f"EventedComputation({len(self._computation)} messages, "
            f"{len(self._by_name)} internal events)"
        )
