"""A real blocking-send (rendezvous) runtime with embedded online clocks.

The deterministic driver in :class:`~repro.clocks.online.OnlineEdgeClock`
proves the algorithm correct; this module demonstrates it is genuinely
*online*: processes are OS threads, sends block until the receiver takes
the message and the acknowledgement returns (CSP semantics), and the
only clock information exchanged is what Figure 5 piggybacks on the
program message and its ack.

Programs are small scripts of actions (:func:`send`, :func:`receive`,
:func:`compute`).  The transport records the commit order of rendezvous
under a global lock, so after the run the harness can rebuild the
equivalent :class:`SyncComputation` and verify the collected timestamps
against the ground truth — see ``tests/integration/test_runtime.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clocks.online import OnlineProcessClock
from repro.core.vector import VectorTimestamp
from repro.obs import audit as _audit
from repro.obs import flightrec as _flightrec
from repro.obs import instrument as _obs
from repro.exceptions import RuntimeDeadlockError, SimulationError
from repro.graphs.decomposition import EdgeDecomposition
from repro.sim.computation import (
    EventedComputation,
    InternalEvent,
    Process,
    SyncComputation,
)


# ----------------------------------------------------------------------
# Script actions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SendAction:
    to: Process
    payload: Any = None


@dataclass(frozen=True)
class ReceiveAction:
    #: Accept only from this sender when set; any sender otherwise.
    source: Optional[Process] = None


@dataclass(frozen=True)
class ComputeAction:
    #: An opaque label for the internal step (useful in traces).
    label: str = "compute"


@dataclass(frozen=True)
class CrashAction:
    """Fault injection: the process stops executing its script here."""

    reason: str = "crash"


def send(to: Process, payload: Any = None) -> SendAction:
    """Script action: synchronous send to ``to``."""
    return SendAction(to, payload)


def receive(source: Optional[Process] = None) -> ReceiveAction:
    """Script action: accept one message (optionally from ``source``)."""
    return ReceiveAction(source)


def compute(label: str = "compute") -> ComputeAction:
    """Script action: a local internal event."""
    return ComputeAction(label)


def crash(reason: str = "crash") -> CrashAction:
    """Script action: fault injection — abandon the rest of the script.

    Peers that were counting on the crashed process's later sends or
    receives will time out with :class:`RuntimeDeadlockError`; run with
    ``raise_on_error=False`` to collect the partial execution and feed
    it to :func:`repro.apps.recovery.find_orphans`.
    """
    return CrashAction(reason)


Action = object  # SendAction | ReceiveAction | ComputeAction


def check_script_peers(
    decomposition: EdgeDecomposition,
    scripts: Dict[Process, Sequence[Action]],
) -> None:
    """Reject a script whose send or receive names a non-neighbour.

    Every ``send`` target and every non-``None`` ``receive`` source
    must be a process adjacent to the script's owner: a rendezvous
    happens only along a topology edge.  Both runners call this before
    any thread or process starts, so a bad peer fails at once with a
    :class:`SimulationError` naming the owner, the action index and
    the peer, instead of as a timeout or a transport error mid-run.
    """
    graph = decomposition.graph
    for owner, actions in scripts.items():
        neighbours = set(graph.neighbors(owner)) if owner in graph else ()
        for index, action in enumerate(actions):
            if isinstance(action, SendAction):
                peer = action.to
            elif isinstance(action, ReceiveAction):
                peer = action.source
                if peer is None:
                    continue
            else:
                continue
            if peer not in neighbours:
                raise SimulationError(
                    f"script of {owner!r}, action {index}: peer "
                    f"{peer!r} is not a process adjacent to {owner!r}"
                )


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
@dataclass
class _Offer:
    """A sender's pending rendezvous offer."""

    sender: Process
    payload: Any
    piggybacked: VectorTimestamp
    completed: threading.Event = field(default_factory=threading.Event)
    ack_vector: Optional[VectorTimestamp] = None
    timestamp: Optional[VectorTimestamp] = None
    #: Encoded piggyback frames when a non-full wire format is active —
    #: the receiver decodes ``piggy_blob`` and the sender decodes
    #: ``ack_blob``, so the codec is genuinely on the message path.
    piggy_blob: Optional[bytes] = None
    ack_blob: Optional[bytes] = None


@dataclass(frozen=True)
class DeliveredMessage:
    """One committed rendezvous, in global commit order."""

    order: int
    sender: Process
    receiver: Process
    payload: Any
    timestamp: VectorTimestamp


class SynchronousTransport:
    """Blocking-send message passing with Figure 5 piggybacking.

    One instance is shared by all process threads.  ``send`` parks an
    offer in the receiver's inbox and blocks on its completion event;
    ``receive`` takes a matching offer, advances the receiver's clock,
    answers the acknowledgement, and commits the message to the global
    log under the transport lock (establishing the execution order used
    for post-hoc verification).
    """

    def __init__(
        self,
        decomposition: EdgeDecomposition,
        timeout: float = 10.0,
        wire_format: str = "full",
    ):
        self._decomposition = decomposition
        self._timeout = timeout
        self._wire_format = wire_format
        if wire_format == "full":
            # The historical path: vectors travel as objects, no codec
            # on the hot path.
            self._codec = None
        else:
            # Imported lazily: repro.clocks.delta pulls in
            # repro.sim.wire, whose package __init__ imports this
            # module — a top-level import here would be circular.
            from repro.clocks.delta import make_codec

            self._codec = make_codec(wire_format, decomposition.size)
        self._lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)
        self._inboxes: Dict[Process, List[_Offer]] = {
            p: [] for p in decomposition.graph.vertices
        }
        self._clocks: Dict[Process, OnlineProcessClock] = {
            p: OnlineProcessClock(p, decomposition)
            for p in decomposition.graph.vertices
        }
        self._log: List[DeliveredMessage] = []
        # Per-process external-event counts and internal-event records,
        # for the Section 5 extension (timestamping compute actions).
        self._message_counts: Dict[Process, int] = {
            p: 0 for p in decomposition.graph.vertices
        }
        self._internal: Dict[Process, List[InternalEvent]] = {
            p: [] for p in decomposition.graph.vertices
        }
        self._internal_total = 0
        #: Exceptions collected by the runner when ``raise_on_error`` is
        #: off (timeouts of a crashed process's peers, script errors).
        self.errors: List[BaseException] = []
        #: Poison reason; set once the runner abandons stuck threads so
        #: any further use of the transport fails fast instead of
        #: rendezvousing with zombies.
        self._poisoned: Optional[str] = None

    # ------------------------------------------------------------------
    def poison(self, reason: str) -> None:
        """Mark the transport unusable; further operations raise.

        The runner calls this when a worker thread failed to finish:
        the abandoned daemon thread may still be parked inside a
        rendezvous, and letting new sends/receives match against its
        leftovers would corrupt clocks.  Blocked receivers are woken so
        they fail fast; a sender parked on its completion event keeps
        sleeping until its own timeout (it cannot be woken without
        forging an acknowledgement).
        """
        with self._lock:
            self._poisoned = reason
            self._arrival.notify_all()

    @property
    def poisoned(self) -> Optional[str]:
        """The poison reason, or ``None`` while the transport is usable."""
        return self._poisoned

    def _check_poisoned(self) -> None:
        if self._poisoned is not None:
            raise SimulationError(self._poisoned)

    def send(
        self, sender: Process, to: Process, payload: Any = None
    ) -> VectorTimestamp:
        """Blocking synchronous send; returns the message timestamp."""
        self._check_poisoned()
        clock = self._clocks[sender]
        m = _obs.metrics
        fr = _flightrec.recorder
        with _obs.span(
            "rendezvous.send", sender=str(sender), receiver=str(to)
        ) as sp:
            with self._lock:
                offer = _Offer(sender, payload, clock.prepare_send())
                if self._codec is not None:
                    offer.piggy_blob = self._codec.encode(
                        (sender, to), offer.piggybacked
                    )
                self._inboxes[to].append(offer)
                self._arrival.notify_all()
            if fr is not None:
                fr.record(_flightrec.SEND_OFFER, sender, peer=to)
                fr.record(
                    _flightrec.BLOCK_START, sender, peer=to, op="send"
                )
            timed = m is not None or fr is not None
            wait_started = time.perf_counter() if timed else 0.0
            completed = offer.completed.wait(self._timeout)
            if not completed:
                # Reclaim the stale offer before giving up.  Without
                # this a later receive could match the parked offer,
                # commit a ghost message, and complete into the void
                # while this clock never runs on_acknowledgement —
                # silently diverging the two sides' vectors.  The
                # receiver pops offers and sets ``completed`` inside
                # one critical section, so under the lock the offer is
                # either still parked (remove it) or was matched in
                # the race window (treat the send as completed).
                with self._lock:
                    if offer.completed.is_set():
                        completed = True
                    else:
                        self._inboxes[to].remove(offer)
                        if self._codec is not None:
                            # The reclaimed offer's frame advanced the
                            # encoder snapshot but the decoder never saw
                            # it; the next frame on this channel must be
                            # self-describing or the sides desynchronise.
                            self._codec.force_resync((sender, to))
            if timed:
                waited = time.perf_counter() - wait_started
                if m is not None:
                    m.rendezvous_wait_seconds.observe(waited)
                    if completed:
                        m.rendezvous_block_seconds.observe(waited)
                        m.rendezvous_block_quantiles.observe(waited)
                    sp.set_attribute("blocking_seconds", waited)
                if fr is not None:
                    fr.record(
                        _flightrec.BLOCK_END,
                        sender,
                        peer=to,
                        op="send",
                        status="matched" if completed else "timeout",
                        seconds=waited,
                    )
            if not completed:
                raise RuntimeDeadlockError(
                    f"send from {sender!r} to {to!r} timed out; "
                    "no matching receive"
                )
            assert offer.ack_vector is not None
            if self._codec is not None:
                assert offer.ack_blob is not None
                # Decode the real frame — divergence from the vector
                # the receiver committed against would trip the
                # timestamp cross-check below.
                ack_vector = self._codec.decode(
                    (to, sender), offer.ack_blob
                )
            else:
                ack_vector = offer.ack_vector
            if m is not None:
                stamp_started = time.perf_counter()
                timestamp = clock.on_acknowledgement(to, ack_vector)
                m.stamp_latency_quantiles.observe(
                    time.perf_counter() - stamp_started
                )
                m.piggyback_quantiles.observe(
                    _obs.piggyback_size_bytes(ack_vector)
                )
            else:
                timestamp = clock.on_acknowledgement(to, ack_vector)
            if timestamp != offer.timestamp:  # pragma: no cover
                raise SimulationError(
                    "sender and receiver disagree on a message timestamp"
                )
            return timestamp

    def receive(
        self, receiver: Process, source: Optional[Process] = None
    ) -> Tuple[Process, Any, VectorTimestamp]:
        """Blocking receive; returns ``(sender, payload, timestamp)``."""
        self._check_poisoned()
        clock = self._clocks[receiver]
        m = _obs.metrics
        fr = _flightrec.recorder
        with _obs.span(
            "rendezvous.receive",
            receiver=str(receiver),
            source=None if source is None else str(source),
        ) as sp:
            if fr is not None:
                fr.record(
                    _flightrec.BLOCK_START,
                    receiver,
                    peer=source,
                    op="receive",
                )
            timed = m is not None or fr is not None
            wait_started = time.perf_counter() if timed else 0.0
            with self._lock:
                try:
                    offer = self._take_offer(receiver, source)
                except RuntimeDeadlockError:
                    if timed:
                        waited = time.perf_counter() - wait_started
                        if m is not None:
                            m.rendezvous_wait_seconds.observe(waited)
                        if fr is not None:
                            fr.record(
                                _flightrec.BLOCK_END,
                                receiver,
                                peer=source,
                                op="receive",
                                status="timeout",
                                seconds=waited,
                            )
                    raise
                if timed:
                    waited = time.perf_counter() - wait_started
                    if m is not None:
                        m.rendezvous_wait_seconds.observe(waited)
                        m.rendezvous_block_seconds.observe(waited)
                        m.rendezvous_block_quantiles.observe(waited)
                        sp.set_attribute("blocking_seconds", waited)
                        sp.set_attribute("sender", str(offer.sender))
                    if fr is not None:
                        fr.record(
                            _flightrec.BLOCK_END,
                            receiver,
                            peer=offer.sender,
                            op="receive",
                            status="matched",
                            seconds=waited,
                        )
                if self._codec is not None:
                    assert offer.piggy_blob is not None
                    piggybacked = self._codec.decode(
                        (offer.sender, receiver), offer.piggy_blob
                    )
                else:
                    piggybacked = offer.piggybacked
                if m is not None:
                    stamp_started = time.perf_counter()
                    ack_vector, timestamp = clock.on_receive(
                        offer.sender, piggybacked
                    )
                    m.stamp_latency_quantiles.observe(
                        time.perf_counter() - stamp_started
                    )
                    m.piggyback_quantiles.observe(
                        _obs.piggyback_size_bytes(piggybacked)
                    )
                else:
                    ack_vector, timestamp = clock.on_receive(
                        offer.sender, piggybacked
                    )
                offer.ack_vector = ack_vector
                if self._codec is not None:
                    offer.ack_blob = self._codec.encode(
                        (receiver, offer.sender), ack_vector
                    )
                offer.timestamp = timestamp
                self._log.append(
                    DeliveredMessage(
                        order=len(self._log),
                        sender=offer.sender,
                        receiver=receiver,
                        payload=offer.payload,
                        timestamp=timestamp,
                    )
                )
                commit_order = len(self._log) - 1
                if m is not None:
                    m.rendezvous_total.inc()
                    sp.set_attribute("commit_order", commit_order)
                if fr is not None:
                    fr.record(
                        _flightrec.RENDEZVOUS,
                        receiver,
                        peer=offer.sender,
                        commit_order=commit_order,
                        payload=repr(offer.payload),
                    )
                aud = _audit.auditor
                if aud is not None:
                    # Commit order is established under the transport
                    # lock, so the auditor sees messages in exactly the
                    # order the log records them.
                    aud.on_runtime_message(
                        offer.sender, receiver, timestamp
                    )
                self._message_counts[offer.sender] += 1
                self._message_counts[receiver] += 1
                offer.completed.set()
                return offer.sender, offer.payload, timestamp

    def record_internal(self, process: Process, label: str) -> InternalEvent:
        """Record an internal event of ``process`` (a compute action).

        The event lands in the slot after the process's current external
        events; the per-slot counter is exactly the paper's ``c(e)``.
        """
        self._check_poisoned()
        with self._lock:
            # The process's last event gives the slot counter and a
            # running total the serial, so nothing is rescanned.
            slot = self._message_counts[process]
            events = self._internal[process]
            counter = 1
            if events and events[-1].slot == slot:
                counter = events[-1].counter + 1
            self._internal_total += 1
            event = InternalEvent(
                process, slot, counter, f"{label}#{self._internal_total}"
            )
            events.append(event)
            fr = _flightrec.recorder
            if fr is not None:
                fr.record(
                    _flightrec.INTERNAL,
                    process,
                    label=event.name,
                    slot=slot,
                )
            return event

    def _take_offer(
        self, receiver: Process, source: Optional[Process]
    ) -> _Offer:
        # A monotonic deadline, not a per-wait budget: every wakeup of
        # ``_arrival`` (including offers destined for other receivers
        # or from filtered-out senders) loops back here, and passing
        # the full timeout again would let steady unrelated traffic
        # push a receiver's timeout out indefinitely.
        deadline = time.monotonic() + self._timeout

        def matching() -> Optional[int]:
            for position, offer in enumerate(self._inboxes[receiver]):
                if source is None or offer.sender == source:
                    return position
            return None

        position = matching()
        while position is None:
            if self._poisoned is not None:
                raise SimulationError(self._poisoned)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeDeadlockError(
                    f"receive on {receiver!r} (from {source!r}) timed out"
                )
            self._arrival.wait(timeout=remaining)
            position = matching()
        return self._inboxes[receiver].pop(position)

    # ------------------------------------------------------------------
    @property
    def wire_format(self) -> str:
        """The negotiated piggyback wire format of this transport."""
        return self._wire_format

    def wire_summary(self) -> Optional[Dict[str, int]]:
        """Codec frame/byte counters, or ``None`` in ``full`` mode."""
        if self._codec is None:
            return None
        with self._lock:
            return self._codec.stats_dict()

    @property
    def log(self) -> List[DeliveredMessage]:
        """Committed messages in global commit order."""
        with self._lock:
            return list(self._log)

    def as_computation(self) -> SyncComputation:
        """Rebuild the equivalent :class:`SyncComputation` from the log.

        The commit order is consistent with every per-process order, so
        the rebuilt computation has the same message poset the threads
        actually produced.
        """
        pairs = [(entry.sender, entry.receiver) for entry in self.log]
        return SyncComputation.from_pairs(self._decomposition.graph, pairs)

    def collected_timestamps(self) -> List[VectorTimestamp]:
        """Timestamps in commit order (aligned with ``as_computation``)."""
        return [entry.timestamp for entry in self.log]

    def as_evented_computation(self) -> EventedComputation:
        """The run including its compute actions as internal events.

        Feed the result to
        :func:`repro.clocks.events.timestamp_internal_events` together
        with the message assignment to obtain Section 5 triples for
        every compute action.
        """
        computation = self.as_computation()
        with self._lock:
            events = [
                event
                for process in self._decomposition.graph.vertices
                for event in self._internal[process]
            ]
        return EventedComputation(computation, events)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class ScriptRunner:
    """Runs one script per process on its own thread.

    >>> from repro.graphs.generators import path_topology
    >>> from repro.graphs.decomposition import decompose
    >>> decomposition = decompose(path_topology(2))
    >>> runner = ScriptRunner(decomposition, {
    ...     "P1": [send("P2", "hello")],
    ...     "P2": [receive("P1")],
    ... })
    >>> transport = runner.run()
    >>> [entry.payload for entry in transport.log]
    ['hello']
    """

    def __init__(
        self,
        decomposition: EdgeDecomposition,
        scripts: Dict[Process, Sequence[Action]],
        timeout: float = 10.0,
        join_timeout: Optional[float] = None,
        wire_format: str = "full",
    ):
        unknown = [
            p for p in scripts if p not in decomposition.graph.vertices
        ]
        if unknown:
            raise SimulationError(
                f"scripts reference unknown processes: {unknown}"
            )
        check_script_peers(decomposition, scripts)
        self._decomposition = decomposition
        self._scripts = {p: list(actions) for p, actions in scripts.items()}
        self._timeout = timeout
        self._wire_format = wire_format
        #: How long to wait for each worker thread after its script ran
        #: (a thread can outlive every rendezvous timeout only if it is
        #: wedged in non-transport code).  Defaults to ``2 * timeout``.
        self._join_timeout = (
            timeout * 2 if join_timeout is None else join_timeout
        )

    def run(self, raise_on_error: bool = True) -> SynchronousTransport:
        """Execute all scripts; returns the transport with its log.

        With ``raise_on_error=False`` the partial execution survives
        per-thread failures (timeouts caused by an injected crash, for
        example); the collected exceptions are available on the returned
        transport's :attr:`SynchronousTransport.errors`.
        """
        transport = SynchronousTransport(
            self._decomposition,
            timeout=self._timeout,
            wire_format=self._wire_format,
        )
        errors: List[BaseException] = []
        errors_lock = threading.Lock()

        def worker(process: Process, actions: List[Action]) -> None:
            fr = _flightrec.recorder
            if fr is not None:
                fr.record(
                    _flightrec.SCRIPT_START,
                    process,
                    actions=len(actions),
                )
            try:
                for action in actions:
                    if isinstance(action, SendAction):
                        transport.send(process, action.to, action.payload)
                    elif isinstance(action, ReceiveAction):
                        transport.receive(process, action.source)
                    elif isinstance(action, ComputeAction):
                        transport.record_internal(process, action.label)
                    elif isinstance(action, CrashAction):
                        if fr is not None:
                            fr.record(
                                _flightrec.CRASH,
                                process,
                                reason=action.reason,
                            )
                        return  # fault injection: abandon the script
                    else:
                        raise SimulationError(
                            f"unknown action {action!r} on {process!r}"
                        )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                if fr is not None:
                    fr.record(
                        _flightrec.SCRIPT_ERROR,
                        process,
                        error=repr(exc),
                    )
                with errors_lock:
                    errors.append(exc)
            else:
                if fr is not None:
                    fr.record(_flightrec.SCRIPT_END, process)

        threads = [
            threading.Thread(
                target=worker, args=(process, actions), daemon=True
            )
            for process, actions in self._scripts.items()
        ]
        thread_process = {
            thread: process
            for thread, process in zip(threads, self._scripts)
        }
        for thread in threads:
            thread.start()
        stuck: List[Process] = []
        for thread in threads:
            thread.join(self._join_timeout)
            if thread.is_alive():
                fr = _flightrec.recorder
                if fr is not None:
                    fr.record(
                        _flightrec.DEADLOCK,
                        thread_process[thread],
                        note="thread still alive after join timeout",
                    )
                stuck.append(thread_process[thread])
        if stuck:
            # The abandoned daemon threads may still be parked inside a
            # rendezvous; poison the transport so nothing matches their
            # leftovers, and surface the condition as a collected error
            # (previously a raise_on_error=False run returned normally
            # with only a flight-record note).
            stuck_error = RuntimeDeadlockError(
                f"process thread(s) {sorted(map(str, stuck))} failed to "
                "finish; check the scripts for unmatched sends/receives"
            )
            transport.poison(
                "transport poisoned: " + str(stuck_error)
            )
            with errors_lock:
                errors.append(stuck_error)
            transport.errors = list(errors)
            if raise_on_error:
                raise stuck_error
            return transport
        transport.errors = list(errors)
        if errors and raise_on_error:
            raise errors[0]
        return transport
