"""Multiprocess rendezvous runtime: one OS process per node, sockets.

This is the distributed sibling of :mod:`repro.sim.runtime`.  Where the
threaded runtime shares one address space and a lock, here every node
runs the paper's Figure 5 state machine (:class:`OnlineProcessClock`)
in its **own interpreter process**, and the only clock information that
crosses a process boundary is the LEB128-encoded vector piggybacked on
the program message and its acknowledgement — real bytes on a real
socket, so ``piggyback`` accounting measures the wire, not a model.

Topology of the runtime (not of the computation): a single-threaded
**coordinator** in the parent process listens on a Unix (or TCP)
socket; every node connects once and speaks the length-framed protocol
of :mod:`repro.sim.wire`.  The coordinator is the rendezvous
switchboard *and* the sequencer:

* a sender's ``OFFER`` (carrying its piggybacked ``v_i``) parks in the
  receiver's inbox, exactly like ``SynchronousTransport._inboxes``;
* a receiver's ``RECV`` matches the oldest compatible offer; the
  coordinator forwards the piggyback in a ``DELIVER``;
* the receiver merges, increments, replies ``ACK_UP`` with its
  pre-merge vector (the Figure 5 acknowledgement) and the computed
  timestamp; the coordinator **commits the message to the global log at
  ``ACK_UP`` processing time** — the event loop is single-threaded, so
  the committed order is established exactly as the threaded
  transport's ``_log`` is under its lock;
* the coordinator forwards ``ACK_DOWN`` to the sender, whose clock
  merges and increments; sender and receiver provably agree on the
  timestamp, and the node cross-checks it against the receiver's view.

Because matching, timeout expiry, and stale-offer reclamation all
happen inside one event loop, the races fixed in the threaded
transport (timeout-clock resets, stale offers matched after a sender
aborted) are structurally impossible here: a timed-out offer is
removed from its inbox in the same loop step that notifies the sender.

The coordinator reuses the observability stack of the threaded
runtime: flight-recorder events (``send_offer``/``block_start``/
``block_end``/``rendezvous``/...) for post-hoc audit with
``repro obs timeline``/``critpath``, obs metrics when instrumentation
is enabled, plus an always-on local quantile sketch so the load
driver can report latency percentiles without enabling the hooks.

Limits (documented, not hidden): process names and payloads must be
JSON-serializable (strings are the normal case), and scripts are the
same action lists :class:`~repro.sim.runtime.ScriptRunner` takes.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import socket
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clocks.online import OnlineProcessClock
from repro.core.vector import VectorTimestamp
from repro.exceptions import RuntimeDeadlockError, SimulationError
from repro.graphs.decomposition import EdgeDecomposition, decompose
from repro.graphs.generators import client_server_topology
from repro.obs import flightrec as _flightrec
from repro.obs import instrument as _obs
from repro.obs import audit as _audit
from repro.obs.live import (
    LiveAggregator,
    MetricsEndpoint,
    NodeTelemetry,
    TelemetryConfig,
)
from repro.obs.metrics import QuantileSketch
from repro.sim.computation import (
    EventedComputation,
    InternalEvent,
    Process,
    SyncComputation,
)
from repro.sim.runtime import (
    Action,
    ComputeAction,
    CrashAction,
    DeliveredMessage,
    ReceiveAction,
    SendAction,
)
from repro.clocks.delta import make_codec
from repro.sim.wire import (
    MSG_ACK_DOWN,
    MSG_ACK_UP,
    MSG_CRASHED,
    MSG_DELIVER,
    MSG_DONE,
    MSG_FAIL,
    MSG_HELLO,
    MSG_INTERNAL,
    MSG_OFFER,
    MSG_RECV,
    MSG_SHUTDOWN,
    MSG_TELEMETRY,
    MSG_TIMEOUT,
    WIRE_FORMAT_FULL,
    FrameBuffer,
    FrameSocket,
    WireError,
    parse_wire_format,
    send_message,
)

__all__ = [
    "DistributedScriptRunner",
    "DistributedTransport",
    "RuntimeStats",
    "TelemetryConfig",
    "build_load_scripts",
    "run_load",
]


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------
def _make_listener(transport: str) -> Tuple[socket.socket, str, Any]:
    """Create the coordinator's listening socket.

    Returns ``(socket, family, address)`` where ``family`` is ``unix``
    or ``tcp`` and ``address`` is what node processes connect to.
    """
    if transport == "auto":
        transport = "unix" if hasattr(socket, "AF_UNIX") else "tcp"
    if transport == "unix":
        directory = tempfile.mkdtemp(prefix="repro-dist-")
        path = os.path.join(directory, "coord.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
    elif transport == "tcp":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        path = listener.getsockname()
    else:
        raise SimulationError(
            f"unknown transport {transport!r}; choose unix, tcp, or auto"
        )
    listener.listen(min(512, getattr(socket, "SOMAXCONN", 128)))
    listener.setblocking(False)
    family = "unix" if listener.family == getattr(
        socket, "AF_UNIX", object()
    ) else "tcp"
    return listener, family, path


def _connect(family: str, address: Any, deadline: float) -> socket.socket:
    """Node side: connect to the coordinator, retrying until deadline."""
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            if family == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(address)
            else:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.connect(tuple(address))
            return sock
        except OSError as exc:  # backlog overflow under heavy fan-in
            last_error = exc
            time.sleep(0.02)
    raise WireError(f"cannot reach the coordinator: {last_error}")


# ----------------------------------------------------------------------
# Node process
# ----------------------------------------------------------------------
def _node_worker(
    name: Process,
    decomposition: EdgeDecomposition,
    actions: List[Action],
    family: str,
    address: Any,
    timeout: float,
    pace_seconds: float,
    wire_format: str = "full",
    telemetry: Optional[Tuple[float, int]] = None,
) -> None:
    """Entry point of one node process (spawn- and fork-safe).

    Runs the script sequentially; every rendezvous is one blocking
    request/response exchange with the coordinator, with the node's
    :class:`OnlineProcessClock` doing exactly the Figure 5 clock work
    on the piggybacked bytes.  All piggybacks pass through the
    negotiated wire-format codec; ``full`` reproduces the historical
    LEB128 bytes exactly.

    ``telemetry`` is ``(interval_seconds, every_commits)`` when the
    run has the live telemetry plane on: cumulative metric snapshots
    and flight-event deltas go out as fire-and-forget
    ``MSG_TELEMETRY`` frames, only ever *between* protocol actions —
    never while a coordinator reply is pending — so they interleave
    safely with the strict request/response rendezvous protocol.
    """
    codec = make_codec(wire_format, decomposition.size)
    clock = OnlineProcessClock(name, decomposition)
    tele: Optional[NodeTelemetry] = None
    if telemetry is not None:
        tele = NodeTelemetry(name, telemetry[0], telemetry[1])
    sock = _connect(family, address, time.monotonic() + timeout)
    fs = FrameSocket(sock)
    # Backstop only: the coordinator enforces the real rendezvous
    # deadlines and answers MSG_TIMEOUT well before this trips.
    fs.settimeout(timeout * 2 + 5.0)
    try:
        fs.send_message(
            MSG_HELLO,
            {
                "node": name,
                "actions": len(actions),
                "wire_format": wire_format,
            },
        )
        for action in actions:
            if tele is not None and tele.due():
                fs.send_message(MSG_TELEMETRY, tele.frame())
            if isinstance(action, SendAction):
                if pace_seconds > 0.0:
                    time.sleep(pace_seconds)
                t_block = (
                    time.monotonic() if tele is not None else 0.0
                )
                piggy = codec.encode(
                    (name, action.to), clock.prepare_send()
                )
                fs.send_message(
                    MSG_OFFER,
                    {"to": action.to, "payload": action.payload},
                    piggy,
                )
                reply = fs.recv_message()
                if reply is None:
                    raise WireError("coordinator vanished during a send")
                kind, header, vec = reply
                if kind == MSG_TIMEOUT:
                    raise RuntimeDeadlockError(
                        header.get("reason", "send timed out")
                    )
                if kind == MSG_SHUTDOWN:
                    raise SimulationError(
                        header.get("reason", "run was shut down")
                    )
                if kind != MSG_ACK_DOWN:
                    raise WireError(
                        f"unexpected frame kind {kind} during a send"
                    )
                ack = codec.decode((action.to, name), vec)
                timestamp = clock.on_acknowledgement(action.to, ack)
                receiver_view = header.get("timestamp")
                if receiver_view is not None and list(
                    timestamp
                ) != list(receiver_view):
                    raise SimulationError(
                        "sender and receiver disagree on a message "
                        f"timestamp: {list(timestamp)} vs "
                        f"{list(receiver_view)}"
                    )
                if tele is not None:
                    t_end = time.monotonic()
                    tele.on_commit(
                        "send", action.to, t_end - t_block, t_end
                    )
            elif isinstance(action, ReceiveAction):
                t_block = (
                    time.monotonic() if tele is not None else 0.0
                )
                fs.send_message(MSG_RECV, {"source": action.source})
                reply = fs.recv_message()
                if reply is None:
                    raise WireError(
                        "coordinator vanished during a receive"
                    )
                kind, header, vec = reply
                if kind == MSG_TIMEOUT:
                    raise RuntimeDeadlockError(
                        header.get("reason", "receive timed out")
                    )
                if kind == MSG_SHUTDOWN:
                    raise SimulationError(
                        header.get("reason", "run was shut down")
                    )
                if kind != MSG_DELIVER:
                    raise WireError(
                        f"unexpected frame kind {kind} during a receive"
                    )
                piggybacked = codec.decode((header["sender"], name), vec)
                ack_vector, timestamp = clock.on_receive(
                    header["sender"], piggybacked
                )
                fs.send_message(
                    MSG_ACK_UP,
                    {"timestamp": list(timestamp)},
                    codec.encode((name, header["sender"]), ack_vector),
                )
                if tele is not None:
                    t_end = time.monotonic()
                    tele.on_commit(
                        "receive",
                        header["sender"],
                        t_end - t_block,
                        t_end,
                    )
            elif isinstance(action, ComputeAction):
                fs.send_message(MSG_INTERNAL, {"label": action.label})
                if tele is not None:
                    tele.on_internal(action.label)
            elif isinstance(action, CrashAction):
                fs.send_message(MSG_CRASHED, {"reason": action.reason})
                return  # fault injection: abandon the script
            else:
                raise SimulationError(
                    f"unknown action {action!r} on {name!r}"
                )
        if tele is not None:
            # Final cumulative push: makes the merged view complete
            # even if every periodic frame was lost or never due.
            fs.send_message(MSG_TELEMETRY, tele.frame(final=True))
        done_header: Dict[str, Any] = {}
        if codec.kind != WIRE_FORMAT_FULL:
            # Per-node codec counters ride home in the control header;
            # the coordinator aggregates them into RuntimeStats.
            done_header["wire"] = codec.stats_dict()
        fs.send_message(MSG_DONE, done_header)
    except RuntimeDeadlockError as exc:
        _best_effort_fail(fs, str(exc), "deadlock")
    except BaseException as exc:  # noqa: BLE001 - surfaced to the coord
        _best_effort_fail(fs, repr(exc), "error")
    finally:
        fs.close()


def _best_effort_fail(fs: FrameSocket, error: str, kind: str) -> None:
    try:
        fs.send_message(MSG_FAIL, {"error": error, "error_type": kind})
    except OSError:  # pragma: no cover - coordinator already gone
        pass


# ----------------------------------------------------------------------
# Coordinator bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _PendingOffer:
    """A parked OFFER waiting in a receiver's inbox."""

    sender: Process
    to: Process
    payload: Any
    piggy: bytes
    deadline: float
    t_start: float


@dataclass
class _PendingReceive:
    """A parked RECV waiting for a compatible offer."""

    receiver: Process
    source: Optional[Process]
    deadline: float
    t_start: float


@dataclass
class _Match:
    """A DELIVERed pair awaiting the receiver's ACK_UP."""

    offer: _PendingOffer
    recv: _PendingReceive
    deadline: float


@dataclass
class RuntimeStats:
    """Coordinator-side measurements of one distributed run.

    ``piggyback_bytes`` counts the *algorithmic* cost — one vector on
    the program message plus one on its acknowledgement, byte-compatible
    with the threaded runtime's ``piggyback_size_bytes`` accounting.
    ``piggyback_wire_bytes`` counts every socket leg those vectors
    actually travelled (twice the algorithmic cost under the
    star-through-coordinator transport).  ``frame_bytes`` counts every
    byte the coordinator's sockets moved in either direction: length
    prefix, kind, JSON header and piggyback, of every frame.
    ``traffic_seconds`` spans the first offer to the last commit, which
    is the window ``msg/s`` describes; ``wall_seconds`` includes
    process spawn and teardown.
    """

    nodes: int = 0
    messages: int = 0
    internal_events: int = 0
    timeouts: int = 0
    frames: int = 0
    piggyback_bytes: int = 0
    piggyback_wire_bytes: int = 0
    frame_bytes: int = 0
    #: The negotiated piggyback format of the run ("full" / "delta");
    #: ``piggyback_bytes`` measures whatever format was actually on the
    #: wire.
    wire_format: str = "full"
    #: Full-vector resync frames reported by the nodes' delta codecs
    #: (0 for full runs).
    delta_resync_total: int = 0
    #: ``MSG_TELEMETRY`` frames ingested by the live aggregator
    #: (0 when the telemetry plane is off).
    telemetry_frames: int = 0
    wall_seconds: float = 0.0
    traffic_seconds: float = 0.0
    block_sketch: QuantileSketch = field(
        default_factory=lambda: QuantileSketch(
            "rendezvous_block_seconds",
            help="per-side blocking seconds of committed rendezvous",
        )
    )

    @property
    def messages_per_sec(self) -> float:
        window = self.traffic_seconds
        return self.messages / window if window > 0 else 0.0

    @property
    def piggyback_bytes_per_sec(self) -> float:
        window = self.traffic_seconds
        return self.piggyback_bytes / window if window > 0 else 0.0

    @property
    def piggyback_bytes_per_message(self) -> float:
        """Wire piggyback bytes per committed message (both legs)."""
        if self.messages <= 0:
            return 0.0
        return self.piggyback_bytes / self.messages

    @property
    def frame_bytes_per_message(self) -> float:
        """Total frame bytes per committed message (both directions)."""
        if self.messages <= 0:
            return 0.0
        return self.frame_bytes / self.messages

    def block_quantiles_ms(self) -> Dict[str, float]:
        return {
            f"p{int(q * 100)}": self.block_sketch.quantile(q) * 1e3
            for q in (0.5, 0.95, 0.99)
        }

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "nodes": self.nodes,
            "messages": self.messages,
            "internal_events": self.internal_events,
            "timeouts": self.timeouts,
            "frames": self.frames,
            "piggyback_bytes": self.piggyback_bytes,
            "piggyback_wire_bytes": self.piggyback_wire_bytes,
            "piggyback_bytes_per_message": self.piggyback_bytes_per_message,
            "frame_bytes": self.frame_bytes,
            "frame_bytes_per_message": self.frame_bytes_per_message,
            "wire_format": self.wire_format,
            "delta_resync_total": self.delta_resync_total,
            "telemetry_frames": self.telemetry_frames,
            "wall_seconds": self.wall_seconds,
            "traffic_seconds": self.traffic_seconds,
            "messages_per_sec": self.messages_per_sec,
            "piggyback_bytes_per_sec": self.piggyback_bytes_per_sec,
        }
        for key, value in self.block_quantiles_ms().items():
            payload[f"block_{key}_ms"] = value
        return payload


class DistributedTransport:
    """The committed outcome of a distributed run.

    API-compatible with the post-run surface of
    :class:`~repro.sim.runtime.SynchronousTransport` (``log``,
    ``errors``, ``as_computation``, ``collected_timestamps``,
    ``as_evented_computation``), so every existing verifier — the
    Equation (1) checker, the live audit, recovery analysis — consumes
    either runtime's output unchanged.
    """

    def __init__(self, decomposition: EdgeDecomposition):
        self._decomposition = decomposition
        self._log: List[DeliveredMessage] = []
        self._internal: Dict[Process, List[InternalEvent]] = {
            p: [] for p in decomposition.graph.vertices
        }
        self.errors: List[BaseException] = []
        self.stats = RuntimeStats()
        #: Poison reason when the run was abandoned (stuck nodes), else
        #: ``None`` — mirrors ``SynchronousTransport.poisoned``.
        self.poisoned: Optional[str] = None
        #: The run's :class:`~repro.obs.live.LiveAggregator` when the
        #: telemetry plane was on (health events, merged registry),
        #: else ``None``.
        self.live: Optional[LiveAggregator] = None

    @property
    def decomposition(self) -> EdgeDecomposition:
        return self._decomposition

    @property
    def log(self) -> List[DeliveredMessage]:
        """Committed messages in global commit order."""
        return list(self._log)

    def as_computation(self) -> SyncComputation:
        """Rebuild the equivalent :class:`SyncComputation` from the log."""
        pairs = [(entry.sender, entry.receiver) for entry in self._log]
        return SyncComputation.from_pairs(self._decomposition.graph, pairs)

    def collected_timestamps(self) -> List[VectorTimestamp]:
        """Timestamps in commit order (aligned with ``as_computation``)."""
        return [entry.timestamp for entry in self._log]

    def as_evented_computation(self) -> EventedComputation:
        """The run including its compute actions as internal events."""
        computation = self.as_computation()
        events = [
            event
            for process in self._decomposition.graph.vertices
            for event in self._internal[process]
        ]
        return EventedComputation(computation, events)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class _Coordinator:
    """Single-threaded rendezvous switchboard and commit sequencer."""

    def __init__(
        self,
        decomposition: EdgeDecomposition,
        expected: Sequence[Process],
        timeout: float,
        idle_timeout: float,
        wire_format: str = "full",
        live: Optional[LiveAggregator] = None,
    ):
        self._decomposition = decomposition
        self._expected = set(expected)
        self._timeout = timeout
        self._idle_timeout = idle_timeout
        self._wire_format = wire_format
        self._live = live
        # Health-check cadence: a fraction of the push interval,
        # clamped so a tiny interval cannot spin the serve loop.
        if live is not None:
            self._live_tick = min(
                max(live.config.interval_seconds / 2.0, 0.05), 0.5
            )
        else:
            self._live_tick = 0.0
        self._live_next_tick = 0.0
        # Per-frame heartbeats batch into this plain dict (one store
        # per frame on the data path) and flush to the aggregator at
        # tick cadence — stall deadlines are seconds, so sub-tick
        # heartbeat resolution buys nothing.
        self._live_seen: Dict[Process, float] = {}
        self._selector = selectors.DefaultSelector()
        self._conn_of: Dict[Process, socket.socket] = {}
        self._buffers: Dict[socket.socket, FrameBuffer] = {}
        self._names: Dict[socket.socket, Optional[Process]] = {}
        self._inboxes: Dict[Process, List[_PendingOffer]] = {
            p: [] for p in decomposition.graph.vertices
        }
        self._waiting_recv: Dict[Process, _PendingReceive] = {}
        self._awaiting_ack: Dict[Process, _Match] = {}
        self._message_counts: Dict[Process, int] = {
            p: 0 for p in decomposition.graph.vertices
        }
        self._finished: set = set()
        self._first_offer_t: Optional[float] = None
        self._last_commit_t: Optional[float] = None
        self.result = DistributedTransport(decomposition)
        self.result.stats.wire_format = wire_format

    # -- helpers -------------------------------------------------------
    def _record(
        self, kind: str, process: Process, peer: Any = None,
        **detail: Any,
    ) -> None:
        """Record a runtime event to the ambient flight recorder.

        The live aggregator's partial flight record is deliberately
        NOT fed from here: per-event forwarding would tax every
        rendezvous on the coordinator's single-threaded critical
        path.  Instead :meth:`_live_tick_maybe` syncs the currently
        *open* waits into the live ring at tick cadence — exactly the
        events ``wait_for_summary`` needs for deadlock suspicion —
        and the expiry sweeps push timed-out waits eagerly.
        """
        fr = _flightrec.recorder
        if fr is not None:
            fr.record(kind, process, peer=peer, **detail)

    def _send(
        self,
        node: Process,
        kind: int,
        header: Dict[str, Any],
        vec: bytes = b"",
    ) -> None:
        conn = self._conn_of.get(node)
        if conn is None:
            return
        try:
            self.result.stats.frame_bytes += send_message(
                conn, kind, header, vec
            )
        except OSError:
            self._drop_connection(conn, error=True)

    def _drop_connection(
        self, conn: socket.socket, error: bool
    ) -> None:
        name = self._names.pop(conn, None)
        self._buffers.pop(conn, None)
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):
            pass
        try:
            conn.close()
        except OSError:
            pass
        if name is None:
            return
        self._conn_of.pop(name, None)
        if name not in self._finished:
            self._finished.add(name)
            if self._live is not None:
                self._live.on_node_finished(name)
            if error:
                self._record(
                    _flightrec.SCRIPT_ERROR,
                    name,
                    error="node process disconnected early",
                )
                self.result.errors.append(
                    SimulationError(
                        f"node {name!r} disconnected before finishing"
                    )
                )
            self._abandon_pending(name)

    def _abandon_pending(self, name: Process) -> None:
        """Forget every pending operation of a departed node."""
        self._waiting_recv.pop(name, None)
        for inbox in self._inboxes.values():
            inbox[:] = [o for o in inbox if o.sender != name]
        match = self._awaiting_ack.pop(name, None)
        if match is not None:
            self._send(
                match.offer.sender,
                MSG_TIMEOUT,
                {
                    "reason": (
                        f"receiver {name!r} vanished before "
                        "acknowledging"
                    )
                },
            )

    # -- protocol handlers ---------------------------------------------
    def _on_hello(
        self, conn: socket.socket, header: Dict[str, Any]
    ) -> None:
        name = header.get("node")
        if name not in self._expected:
            raise WireError(f"unexpected node {name!r} connected")
        peer_format = header.get("wire_format", WIRE_FORMAT_FULL)
        if peer_format != self._wire_format:
            # Negotiation: every connection must speak the run's
            # format — a full-vector peer on a delta run would feed
            # absolute components into stateful decoders.
            raise WireError(
                f"node {name!r} negotiated wire format "
                f"{peer_format!r}, run expects {self._wire_format!r}"
            )
        self._names[conn] = name
        self._conn_of[name] = conn
        self._record(
            _flightrec.SCRIPT_START,
            name,
            actions=header.get("actions", 0),
        )

    def _on_offer(
        self,
        sender: Process,
        header: Dict[str, Any],
        piggy: bytes,
        now: float,
    ) -> None:
        to = header.get("to")
        if to not in self._inboxes:
            raise WireError(
                f"offer from {sender!r} to unknown process {to!r}"
            )
        if self._first_offer_t is None:
            self._first_offer_t = now
        offer = _PendingOffer(
            sender=sender,
            to=to,
            payload=header.get("payload"),
            piggy=piggy,
            deadline=now + self._timeout,
            t_start=now,
        )
        self._inboxes[to].append(offer)
        self.result.stats.piggyback_bytes += len(piggy)
        self.result.stats.piggyback_wire_bytes += len(piggy)
        self._record(_flightrec.SEND_OFFER, sender, peer=to)
        self._record(
            _flightrec.BLOCK_START, sender, peer=to, op="send"
        )
        self._try_match(to, now)

    def _on_recv(
        self, receiver: Process, header: Dict[str, Any], now: float
    ) -> None:
        if receiver in self._waiting_recv or receiver in self._awaiting_ack:
            raise WireError(
                f"{receiver!r} issued overlapping receives"
            )
        recv = _PendingReceive(
            receiver=receiver,
            source=header.get("source"),
            deadline=now + self._timeout,
            t_start=now,
        )
        self._waiting_recv[receiver] = recv
        self._record(
            _flightrec.BLOCK_START,
            receiver,
            peer=recv.source,
            op="receive",
        )
        self._try_match(receiver, now)

    def _try_match(self, receiver: Process, now: float) -> None:
        recv = self._waiting_recv.get(receiver)
        if recv is None:
            return
        inbox = self._inboxes[receiver]
        for position, offer in enumerate(inbox):
            if recv.source is None or offer.sender == recv.source:
                inbox.pop(position)
                del self._waiting_recv[receiver]
                self._awaiting_ack[receiver] = _Match(
                    offer=offer,
                    recv=recv,
                    deadline=now + self._timeout,
                )
                self.result.stats.piggyback_wire_bytes += len(
                    offer.piggy
                )
                self._send(
                    receiver,
                    MSG_DELIVER,
                    {"sender": offer.sender, "payload": offer.payload},
                    offer.piggy,
                )
                return

    def _on_ack_up(
        self,
        receiver: Process,
        header: Dict[str, Any],
        ack: bytes,
        now: float,
    ) -> None:
        match = self._awaiting_ack.pop(receiver, None)
        if match is None:
            raise WireError(
                f"unsolicited acknowledgement from {receiver!r}"
            )
        offer = match.offer
        timestamp = VectorTimestamp(header["timestamp"])
        # Commit: the event loop is single-threaded, so appending here
        # serializes the global commit order exactly as the threaded
        # transport's lock does.
        stats = self.result.stats
        log = self.result._log
        commit_order = len(log)
        log.append(
            DeliveredMessage(
                order=commit_order,
                sender=offer.sender,
                receiver=receiver,
                payload=offer.payload,
                timestamp=timestamp,
            )
        )
        self._message_counts[offer.sender] += 1
        self._message_counts[receiver] += 1
        self._last_commit_t = now
        stats.messages += 1
        stats.piggyback_bytes += len(ack)
        stats.piggyback_wire_bytes += len(ack) * 2
        receiver_blocked = now - match.recv.t_start
        sender_blocked = now - offer.t_start
        stats.block_sketch.observe(receiver_blocked)
        stats.block_sketch.observe(sender_blocked)
        m = _obs.metrics
        if m is not None:
            m.rendezvous_total.inc()
            for waited in (receiver_blocked, sender_blocked):
                m.rendezvous_wait_seconds.observe(waited)
                m.rendezvous_block_seconds.observe(waited)
                m.rendezvous_block_quantiles.observe(waited)
            m.piggyback_quantiles.observe(len(offer.piggy))
            m.piggyback_quantiles.observe(len(ack))
        self._record(
            _flightrec.BLOCK_END,
            receiver,
            peer=offer.sender,
            op="receive",
            status="matched",
            seconds=receiver_blocked,
        )
        self._record(
            _flightrec.RENDEZVOUS,
            receiver,
            peer=offer.sender,
            commit_order=commit_order,
            payload=repr(offer.payload),
        )
        aud = _audit.auditor
        if aud is not None:
            aud.on_runtime_message(offer.sender, receiver, timestamp)
        self._send(
            offer.sender,
            MSG_ACK_DOWN,
            {"timestamp": header["timestamp"]},
            ack,
        )
        self._record(
            _flightrec.BLOCK_END,
            offer.sender,
            peer=receiver,
            op="send",
            status="matched",
            seconds=sender_blocked,
        )

    def _on_internal(
        self, process: Process, header: Dict[str, Any]
    ) -> None:
        slot = self._message_counts[process]
        internal = self.result._internal
        counter = 1 + sum(
            1 for e in internal[process] if e.slot == slot
        )
        serial = sum(len(events) for events in internal.values())
        event = InternalEvent(
            process,
            slot,
            counter,
            f"{header.get('label', 'compute')}#{serial + 1}",
        )
        internal[process].append(event)
        self.result.stats.internal_events += 1
        self._record(
            _flightrec.INTERNAL,
            process,
            label=event.name,
            slot=slot,
        )

    def _on_finish(
        self, conn: socket.socket, name: Process, kind: int,
        header: Dict[str, Any],
    ) -> None:
        if kind == MSG_DONE:
            wire = header.get("wire")
            if isinstance(wire, dict):
                self.result.stats.delta_resync_total += int(
                    wire.get("resyncs", 0)
                )
            self._record(_flightrec.SCRIPT_END, name)
        elif kind == MSG_CRASHED:
            self._record(
                _flightrec.CRASH,
                name,
                reason=header.get("reason", "crash"),
            )
        else:  # MSG_FAIL
            error = header.get("error", "node script failed")
            self._record(_flightrec.SCRIPT_ERROR, name, error=error)
            if header.get("error_type") == "deadlock":
                self.result.errors.append(RuntimeDeadlockError(error))
            else:
                self.result.errors.append(SimulationError(error))
        self._finished.add(name)
        if self._live is not None:
            self._live.on_node_finished(name)
        self._abandon_pending(name)

    # -- timeouts ------------------------------------------------------
    def _next_deadline(self) -> Optional[float]:
        deadlines = [
            offer.deadline
            for inbox in self._inboxes.values()
            for offer in inbox
        ]
        deadlines.extend(
            recv.deadline for recv in self._waiting_recv.values()
        )
        deadlines.extend(
            match.deadline for match in self._awaiting_ack.values()
        )
        return min(deadlines) if deadlines else None

    def _expire(self, now: float) -> None:
        stats = self.result.stats
        for receiver, inbox in self._inboxes.items():
            expired = [o for o in inbox if o.deadline <= now]
            if not expired:
                continue
            # Stale-offer reclamation: the offer leaves the inbox in
            # the same step that notifies the sender, so no later
            # receive can match it and commit a ghost message.
            inbox[:] = [o for o in inbox if o.deadline > now]
            for offer in expired:
                stats.timeouts += 1
                waited = now - offer.t_start
                self._record(
                    _flightrec.BLOCK_END,
                    offer.sender,
                    peer=receiver,
                    op="send",
                    status="timeout",
                    seconds=waited,
                )
                if self._live is not None:
                    self._live.on_wait_timeout(
                        offer.sender, "send", receiver, waited
                    )
                m = _obs.metrics
                if m is not None:
                    m.rendezvous_wait_seconds.observe(waited)
                self._send(
                    offer.sender,
                    MSG_TIMEOUT,
                    {
                        "reason": (
                            f"send from {offer.sender!r} to "
                            f"{receiver!r} timed out; no matching "
                            "receive"
                        )
                    },
                )
        for receiver in list(self._waiting_recv):
            recv = self._waiting_recv[receiver]
            if recv.deadline > now:
                continue
            del self._waiting_recv[receiver]
            stats.timeouts += 1
            waited = now - recv.t_start
            self._record(
                _flightrec.BLOCK_END,
                receiver,
                peer=recv.source,
                op="receive",
                status="timeout",
                seconds=waited,
            )
            if self._live is not None:
                self._live.on_wait_timeout(
                    receiver, "receive", recv.source, waited
                )
            m = _obs.metrics
            if m is not None:
                m.rendezvous_wait_seconds.observe(waited)
            self._send(
                receiver,
                MSG_TIMEOUT,
                {
                    "reason": (
                        f"receive on {receiver!r} "
                        f"(from {recv.source!r}) timed out"
                    )
                },
            )
        for receiver in list(self._awaiting_ack):
            match = self._awaiting_ack[receiver]
            if match.deadline > now:
                continue
            del self._awaiting_ack[receiver]
            stats.timeouts += 1
            self.result.errors.append(
                RuntimeDeadlockError(
                    f"receiver {receiver!r} never acknowledged a "
                    f"delivery from {match.offer.sender!r}"
                )
            )
            self._send(
                match.offer.sender,
                MSG_TIMEOUT,
                {
                    "reason": (
                        f"receiver {receiver!r} never acknowledged"
                    )
                },
            )

    def _blocked_nodes(self) -> frozenset:
        """Nodes currently parked in a rendezvous at the coordinator."""
        blocked = set()
        for inbox in self._inboxes.values():
            for offer in inbox:
                blocked.add(offer.sender)
        blocked.update(self._waiting_recv)
        for receiver, match in self._awaiting_ack.items():
            blocked.add(receiver)
            blocked.add(match.offer.sender)
        return frozenset(blocked)

    def _open_waits(self) -> Dict[Process, Tuple[str, Any, float]]:
        """``process -> (op, peer, since)`` for every unmatched wait.

        Matched-but-unacked pairs (``_awaiting_ack``) are excluded:
        they are mid-commit, not waiting on a peer, so they belong to
        the stall detector, not the wait-for graph.
        """
        waits: Dict[Process, Tuple[str, Any, float]] = {}
        for to, inbox in self._inboxes.items():
            for offer in inbox:
                waits[offer.sender] = ("send", to, offer.t_start)
        for receiver, recv in self._waiting_recv.items():
            waits[receiver] = ("receive", recv.source, recv.t_start)
        return waits

    def _flush_live_seen(self) -> None:
        """Drain batched per-frame heartbeats into the aggregator."""
        live = self._live
        seen = self._live_seen
        if live is None or not seen:
            return
        for node, t in seen.items():
            live.on_frame(node, t)
        seen.clear()

    def _live_tick_maybe(self, now: float) -> None:
        live = self._live
        if live is None or now < self._live_next_tick:
            return
        self._live_next_tick = now + self._live_tick
        self._flush_live_seen()
        live.sync_open_waits(self._open_waits(), now)
        live.check_health(now, blocked=self._blocked_nodes())
        on_tick = live.config.on_tick
        if on_tick is not None:
            on_tick(live, now)

    # -- main loop -----------------------------------------------------
    def serve(self, listener: socket.socket) -> DistributedTransport:
        started = time.monotonic()
        last_activity = started
        self._selector.register(listener, selectors.EVENT_READ, "accept")
        try:
            while len(self._finished) < len(self._expected):
                now = time.monotonic()
                deadline = self._next_deadline()
                wait = 0.5
                if deadline is not None:
                    wait = min(wait, max(0.0, deadline - now))
                if self._live is not None:
                    wait = min(
                        wait, max(0.0, self._live_next_tick - now)
                    )
                events = self._selector.select(wait)
                now = time.monotonic()
                if events:
                    last_activity = now
                for key, _ in events:
                    if key.data == "accept":
                        self._accept(listener)
                    else:
                        self._read(key.fileobj, now)
                self._expire(now)
                self._live_tick_maybe(now)
                if (
                    not events
                    and self._next_deadline() is None
                    and now - last_activity > self._idle_timeout
                ):
                    # No traffic, no pending rendezvous, and unfinished
                    # nodes: they are wedged outside the transport.
                    self._poison(
                        "distributed run stalled: node(s) "
                        f"{sorted(map(str, self._expected - self._finished))} "
                        "stopped making progress"
                    )
                    break
        finally:
            self._selector.unregister(listener)
            self._selector.close()
        ended = time.monotonic()
        if self._live is not None:
            # One last sweep so events raised by the final frames are
            # not lost between the last tick and shutdown.
            self._flush_live_seen()
            self._live.sync_open_waits(self._open_waits(), ended)
            self._live.check_health(ended, blocked=self._blocked_nodes())
            self.result.stats.telemetry_frames = (
                self._live.frames_total
            )
            self.result.live = self._live
        stats = self.result.stats
        stats.nodes = len(self._expected)
        stats.wall_seconds = ended - started
        if (
            self._first_offer_t is not None
            and self._last_commit_t is not None
        ):
            stats.traffic_seconds = (
                self._last_commit_t - self._first_offer_t
            )
        return self.result

    def _poison(self, reason: str) -> None:
        self.result.poisoned = reason
        error = RuntimeDeadlockError(reason)
        self.result.errors.append(error)
        for name in sorted(
            self._expected - self._finished, key=str
        ):
            self._record(
                _flightrec.DEADLOCK,
                name,
                note="node abandoned by the coordinator",
            )
            self._send(name, MSG_SHUTDOWN, {"reason": reason})

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            conn.setblocking(True)
            self._buffers[conn] = FrameBuffer()
            self._names[conn] = None
            self._selector.register(conn, selectors.EVENT_READ, "node")

    def _read(self, conn: socket.socket, now: float) -> None:
        try:
            chunk = conn.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_connection(conn, error=True)
            return
        if not chunk:
            self._drop_connection(
                conn, error=self._names.get(conn) is not None
            )
            return
        self.result.stats.frame_bytes += len(chunk)
        buffer = self._buffers[conn]
        buffer.feed(chunk)
        while True:
            message = buffer.pop_message()
            if message is None:
                return
            kind, header, vec = message
            self.result.stats.frames += 1
            name = self._names.get(conn)
            if kind == MSG_HELLO:
                self._on_hello(conn, header)
                name = self._names.get(conn)
                if self._live is not None and name is not None:
                    self._live_seen[name] = now
                continue
            if name is None:
                raise WireError(
                    f"frame kind {kind} before HELLO"
                )
            if self._live is not None:
                self._live_seen[name] = now
            if kind == MSG_TELEMETRY:
                # Fire-and-forget: never answered, allowed at any
                # point after HELLO, ignored if the plane is off.
                if self._live is not None:
                    self._live.on_telemetry(name, header, now)
                continue
            if kind == MSG_OFFER:
                self._on_offer(name, header, vec, now)
            elif kind == MSG_RECV:
                self._on_recv(name, header, now)
            elif kind == MSG_ACK_UP:
                self._on_ack_up(name, header, vec, now)
            elif kind == MSG_INTERNAL:
                self._on_internal(name, header)
            elif kind in (MSG_DONE, MSG_FAIL, MSG_CRASHED):
                self._on_finish(conn, name, kind, header)
            else:
                raise WireError(
                    f"unexpected frame kind {kind} from {name!r}"
                )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def _mp_context():
    """Prefer fork (cheap at 100+ nodes); fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class DistributedScriptRunner:
    """Runs one script per node, each node an OS process.

    The drop-in distributed sibling of
    :class:`~repro.sim.runtime.ScriptRunner`:

    >>> from repro.graphs.generators import path_topology
    >>> from repro.graphs.decomposition import decompose
    >>> from repro.sim.runtime import receive, send
    >>> decomposition = decompose(path_topology(2))
    >>> runner = DistributedScriptRunner(decomposition, {
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
        transport: str = "auto",
        pace: Optional[Dict[Process, float]] = None,
        idle_timeout: Optional[float] = None,
        wire_format: str = "full",
        telemetry: Optional[TelemetryConfig] = None,
    ):
        parse_wire_format(wire_format)  # fail fast on a bad spec
        unknown = [
            p for p in scripts if p not in decomposition.graph.vertices
        ]
        if unknown:
            raise SimulationError(
                f"scripts reference unknown processes: {unknown}"
            )
        for process in scripts:
            if not isinstance(process, (str, int)):
                raise SimulationError(
                    "distributed process names must be JSON-safe "
                    f"strings or ints, got {process!r}"
                )
        self._decomposition = decomposition
        self._scripts = {
            p: list(actions) for p, actions in scripts.items()
        }
        self._timeout = timeout
        self._transport = transport
        self._pace = dict(pace or {})
        self._idle_timeout = (
            timeout * 2 if idle_timeout is None else idle_timeout
        )
        self._wire_format = wire_format
        self._telemetry = telemetry

    def run(self, raise_on_error: bool = True) -> DistributedTransport:
        """Spawn the node processes, run the coordinator, collect.

        Mirrors :meth:`ScriptRunner.run`: with ``raise_on_error=False``
        the partial execution survives per-node failures and the
        collected exceptions land on the returned transport's
        ``errors``.
        """
        live: Optional[LiveAggregator] = None
        endpoint: Optional[MetricsEndpoint] = None
        node_telemetry: Optional[Tuple[float, int]] = None
        if self._telemetry is not None:
            live = LiveAggregator(
                list(self._scripts), self._telemetry
            )
            node_telemetry = (
                self._telemetry.interval_seconds,
                self._telemetry.every_commits,
            )
            if self._telemetry.metrics_port is not None:
                endpoint = MetricsEndpoint(
                    live, port=self._telemetry.metrics_port
                ).start()
                live.endpoint = endpoint
        listener, family, address = _make_listener(self._transport)
        ctx = _mp_context()
        processes: Dict[Process, multiprocessing.process.BaseProcess] = {}
        try:
            try:
                for name, actions in self._scripts.items():
                    proc = ctx.Process(
                        target=_node_worker,
                        args=(
                            name,
                            self._decomposition,
                            actions,
                            family,
                            address,
                            self._timeout,
                            self._pace.get(name, 0.0),
                            self._wire_format,
                            node_telemetry,
                        ),
                        daemon=True,
                    )
                    proc.start()
                    processes[name] = proc
                coordinator = _Coordinator(
                    self._decomposition,
                    list(self._scripts),
                    self._timeout,
                    self._idle_timeout,
                    wire_format=self._wire_format,
                    live=live,
                )
                result = coordinator.serve(listener)
            finally:
                try:
                    listener.close()
                finally:
                    if family == "unix":
                        _cleanup_unix_address(address)
            for name, proc in processes.items():
                proc.join(timeout=self._timeout)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                    if result.poisoned is None:
                        result.poisoned = (
                            f"node process {name!r} had to be "
                            "terminated"
                        )
                        result.errors.append(
                            RuntimeDeadlockError(result.poisoned)
                        )
        finally:
            if endpoint is not None:
                endpoint.close()
            if live is not None:
                live.close()
        if result.errors and raise_on_error:
            raise result.errors[0]
        return result


def _cleanup_unix_address(path: str) -> None:
    try:
        os.unlink(path)
        os.rmdir(os.path.dirname(path))
    except OSError:  # pragma: no cover - cleanup is best-effort
        pass


# ----------------------------------------------------------------------
# Load driver
# ----------------------------------------------------------------------
def build_load_scripts(
    server_count: int,
    client_count: int,
    messages_per_client: int,
    payload: Any = "x",
) -> Tuple[EdgeDecomposition, Dict[Process, List[Action]]]:
    """Client–server load scripts over a star-per-server topology.

    Client ``Ci`` is attached round-robin to one server and sends it
    ``messages_per_client`` messages; each server wildcard-receives
    everything its clients will send.  The schedule is deadlock-free by
    construction (all sends point at hubs that only receive), so it
    scales to hundreds of node processes.
    """
    if server_count < 1 or client_count < 1:
        raise SimulationError(
            "need at least one server and one client"
        )
    if messages_per_client < 1:
        raise SimulationError("messages_per_client must be >= 1")
    topology = client_server_topology(
        server_count, client_count, full_mesh=False
    )
    decomposition = decompose(topology)
    scripts: Dict[Process, List[Action]] = {}
    receive_counts = {
        f"S{i}": 0 for i in range(1, server_count + 1)
    }
    for position in range(1, client_count + 1):
        client = f"C{position}"
        server = f"S{(position - 1) % server_count + 1}"
        scripts[client] = [
            SendAction(server, payload)
            for _ in range(messages_per_client)
        ]
        receive_counts[server] += messages_per_client
    for server, count in receive_counts.items():
        scripts[server] = [ReceiveAction(None) for _ in range(count)]
    return decomposition, scripts


def run_load(
    server_count: int = 2,
    client_count: int = 10,
    messages_per_client: int = 5,
    rate: float = 0.0,
    timeout: float = 30.0,
    transport: str = "auto",
    payload: Any = "x",
    wire_format: str = "full",
    telemetry: Optional[TelemetryConfig] = None,
    slow_clients: int = 0,
    slow_pace: float = 0.0,
    raise_on_error: bool = True,
) -> DistributedTransport:
    """Drive sustained rendezvous traffic through node processes.

    ``rate`` is the target aggregate msg/s; ``0`` means unpaced (as
    fast as the rendezvous pipeline goes).  Pacing is applied on the
    client side (each client sleeps ``client_count / rate`` before each
    send), so the aggregate offered load approximates ``rate``
    regardless of the client count.

    ``telemetry`` turns on the live telemetry plane
    (:class:`~repro.obs.live.TelemetryConfig`).  ``slow_clients`` /
    ``slow_pace`` inject stragglers: the first ``slow_clients``
    clients sleep ``slow_pace`` seconds before every send (on top of
    any ``rate`` pacing), giving health detection something real to
    find in smoke tests.
    """
    decomposition, scripts = build_load_scripts(
        server_count, client_count, messages_per_client, payload
    )
    pace: Dict[Process, float] = {}
    if rate > 0:
        per_client = client_count / rate
        pace = {
            f"C{i}": per_client for i in range(1, client_count + 1)
        }
    if slow_clients > 0 and slow_pace > 0.0:
        for i in range(1, min(slow_clients, client_count) + 1):
            name = f"C{i}"
            pace[name] = max(pace.get(name, 0.0), slow_pace)
    runner = DistributedScriptRunner(
        decomposition,
        scripts,
        timeout=timeout,
        transport=transport,
        pace=pace,
        wire_format=wire_format,
        telemetry=telemetry,
    )
    return runner.run(raise_on_error=raise_on_error)
