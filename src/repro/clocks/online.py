"""The paper's online algorithm (Figure 5).

Each process keeps a vector ``v_i`` with **one component per edge
group** of an agreed edge decomposition of the communication topology —
not one per process.  The handshake for a message from ``P_i`` to
``P_j`` follows Figure 5 line by line:

====  ==============================================================
(01)  on sending ``m``: piggyback ``v_i`` on the message
(04)  on receiving ``(m, v)``: reply with an acknowledgement carrying
      the receiver's *pre-merge* vector
(05)  receiver: ``v_j := max(v_j, v)`` component-wise
(06)  receiver: ``v_j[g]++`` where channel ``(i, j) ∈ E_g``
(07)  the receiver's new vector is ``m``'s timestamp
(09)  sender, on the acknowledgement: ``v_i := max(v_i, ack)``
(10)  sender: ``v_i[g]++``
(11)  the sender's new vector is (the same) timestamp of ``m``
====  ==============================================================

Both sides compute ``max(v_i, v_j)`` then increment the same component,
so they agree on the timestamp without further communication — the
algorithm is online and piggybacks only on program messages and acks.

:class:`OnlineProcessClock` is the per-process state machine (this is
what the threaded runtime embeds); :class:`OnlineEdgeClock` drives a
whole :class:`SyncComputation` through the handshake and implements the
:class:`MessageTimestamper` interface.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.clocks.base import MessageTimestamper, TimestampAssignment
from repro.core.fastpath import stamp_batch
from repro.core.vector import VectorTimestamp
from repro.exceptions import ClockError
from repro.graphs.decomposition import EdgeDecomposition, decompose
from repro.obs import audit as _audit
from repro.obs import instrument as _obs
from repro.sim.computation import Process, SyncComputation, SyncMessage


class OnlineProcessClock:
    """The per-process state of the Figure 5 algorithm.

    The three public methods mirror the three message-handling blocks of
    the algorithm; a real system calls them from its communication
    layer.  The class is deliberately free of any global knowledge
    beyond the (static, pre-agreed) edge decomposition.
    """

    def __init__(self, process: Process, decomposition: EdgeDecomposition):
        self.process = process
        self._decomposition = decomposition
        self._vector = VectorTimestamp.zeros(decomposition.size)
        m = _obs.metrics
        if m is not None:
            m.vector_component_count.set(decomposition.size)

    @property
    def vector(self) -> VectorTimestamp:
        """The current local vector ``v_i``."""
        return self._vector

    def prepare_send(self) -> VectorTimestamp:
        """Line (02): the vector to piggyback on an outgoing message."""
        return self._vector

    def on_receive(
        self, sender: Process, piggybacked: VectorTimestamp
    ) -> Tuple[VectorTimestamp, VectorTimestamp]:
        """Lines (04)-(07); returns ``(ack_vector, message_timestamp)``.

        The acknowledgement carries the receiver's vector *as it was
        before merging* — exactly the program order of Figure 5, where
        line (04) sends the ack before line (05) merges.
        """
        ack_vector = self._vector
        group = self._decomposition.group_index_of(sender, self.process)
        self._vector = self._vector.join(piggybacked).incremented(group)
        m = _obs.metrics
        if m is not None:
            payload = _obs.piggyback_size_bytes(piggybacked)
            m.messages_timestamped.inc()
            m.piggyback_bytes.observe(payload)
            m.piggyback_bytes_total.inc(payload)
        return ack_vector, self._vector

    def on_acknowledgement(
        self, receiver: Process, ack_vector: VectorTimestamp
    ) -> VectorTimestamp:
        """Lines (09)-(11); returns the message timestamp (sender view)."""
        group = self._decomposition.group_index_of(self.process, receiver)
        self._vector = self._vector.join(ack_vector).incremented(group)
        m = _obs.metrics
        if m is not None:
            payload = _obs.piggyback_size_bytes(ack_vector)
            m.acks_processed.inc()
            m.piggyback_bytes.observe(payload)
            m.piggyback_bytes_total.inc(payload)
        return self._vector


class OnlineEdgeClock(MessageTimestamper[VectorTimestamp]):
    """Drives a computation through the Figure 5 handshake.

    The decomposition may be supplied (e.g. a hand-crafted one mirroring
    a paper figure); by default the topology is decomposed with
    :func:`repro.graphs.decomposition.decompose`.
    """

    characterizes_order = True

    def __init__(
        self,
        topology_decomposition: EdgeDecomposition,
        workers: int = 1,
    ):
        # Stamping is serial; the keyword stays only so callers that
        # pass ``workers=1`` keep working.
        if workers != 1:
            raise ValueError(
                f"workers={workers!r} is not supported; stamping is "
                "serial (only workers=1 is accepted)"
            )
        self._decomposition = topology_decomposition
        m = _obs.metrics
        if m is not None:
            m.vector_component_count.set(topology_decomposition.size)

    @classmethod
    def for_topology(cls, topology) -> "OnlineEdgeClock":
        """Build a clock using the library's default decomposition."""
        return cls(decompose(topology))

    @property
    def decomposition(self) -> EdgeDecomposition:
        return self._decomposition

    @property
    def timestamp_size(self) -> int:
        """``d`` — one component per edge group."""
        return self._decomposition.size

    def group_of_message(self, message: SyncMessage) -> int:
        """``e(m)`` — the edge-group index of the message's channel."""
        return self._decomposition.group_index_of(
            message.sender, message.receiver
        )

    def timestamp_computation(
        self, computation: SyncComputation
    ) -> TimestampAssignment:
        """Timestamp every message via the batch fast path.

        Delegates to :func:`repro.core.fastpath.stamp_batch`, which
        computes the same ``max`` + increment per message as the
        handshake without the per-hop tuple and dict churn.  The result
        — timestamps *and* ``_obs`` counter values — is identical to
        :meth:`timestamp_computation_handshake`.
        """
        if computation.topology is not self._decomposition.graph:
            _check_same_topology(
                computation.topology, self._decomposition.graph
            )
        with _obs.span(
            "online.timestamp_computation",
            messages=len(computation.messages),
            vector_size=self._decomposition.size,
        ):
            timestamps = stamp_batch(computation, self._decomposition)
        aud = _audit.auditor
        if aud is not None:
            # Read-only cross-check; the audit never mutates the
            # assignment, so output is identical with it on or off.
            aud.audit_batch(
                computation, timestamps, self._decomposition
            )
        return TimestampAssignment(computation, timestamps)

    def timestamp_computation_handshake(
        self, computation: SyncComputation
    ) -> TimestampAssignment:
        """Run the full per-object handshake for every message.

        This is the reference implementation of Figure 5 — one
        :class:`OnlineProcessClock` per process, three handshake calls
        per message.  The sender-side and receiver-side timestamps are
        asserted equal (they provably are); the common value becomes
        ``v(m)``.  :meth:`timestamp_computation` produces identical
        output faster; this path remains for equivalence tests and the
        slow-vs-fast benchmark.
        """
        if computation.topology is not self._decomposition.graph:
            _check_same_topology(
                computation.topology, self._decomposition.graph
            )
        clocks: Dict[Process, OnlineProcessClock] = {
            process: OnlineProcessClock(process, self._decomposition)
            for process in computation.processes
        }
        timestamps: Dict[SyncMessage, VectorTimestamp] = {}
        with _obs.span(
            "online.timestamp_computation",
            messages=len(computation.messages),
            vector_size=self._decomposition.size,
        ):
            self._run_handshakes(computation, clocks, timestamps)
        return TimestampAssignment(computation, timestamps)

    def _run_handshakes(
        self,
        computation: SyncComputation,
        clocks: Dict[Process, OnlineProcessClock],
        timestamps: Dict[SyncMessage, VectorTimestamp],
    ) -> None:
        for message in computation.messages:
            sender_clock = clocks[message.sender]
            receiver_clock = clocks[message.receiver]
            piggybacked = sender_clock.prepare_send()
            ack_vector, receiver_view = receiver_clock.on_receive(
                message.sender, piggybacked
            )
            sender_view = sender_clock.on_acknowledgement(
                message.receiver, ack_vector
            )
            if sender_view != receiver_view:  # pragma: no cover
                raise ClockError(
                    f"sender and receiver disagree on v({message.name}): "
                    f"{sender_view!r} vs {receiver_view!r}"
                )
            timestamps[message] = sender_view

    def precedes(
        self, ts1: VectorTimestamp, ts2: VectorTimestamp
    ) -> bool:
        """Equation (1): ``m1 ↦ m2 ⟺ v(m1) < v(m2)``."""
        return ts1 < ts2


def _check_same_topology(actual, expected) -> None:
    """Allow structurally equal topologies, reject genuinely different ones."""
    same_vertices = set(actual.vertices) == set(expected.vertices)
    same_edges = set(actual.edges) == set(expected.edges)
    if not (same_vertices and same_edges):
        raise ClockError(
            "computation topology differs from the decomposed topology"
        )
