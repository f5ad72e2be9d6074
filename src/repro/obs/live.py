"""Live telemetry plane for the multiprocess socket runtime.

Everything else in :mod:`repro.obs` is post-mortem: node processes in
:mod:`repro.sim.distributed` keep private registries that only surface
at ``MSG_DONE``, and a straggling node in a 120-process ``run_load``
is invisible until the deadline sweeper poisons the run.  This module
is the streaming counterpart:

* :class:`NodeTelemetry` — the node-process side: a private
  :class:`~repro.obs.metrics.MetricsRegistry` of commit counters and
  blocking-time distributions, plus a bounded queue of flight-event
  deltas, periodically flushed as ``MSG_TELEMETRY`` frames (every N
  commits or T seconds, whichever comes first).  Frames are
  fire-and-forget and only ever sent *between* protocol actions, so
  they interleave safely with the strict request/response rendezvous
  protocol.
* :class:`LiveAggregator` — the coordinator side: keeps a rolling
  window of per-node snapshots, folds the latest snapshot of every
  node into one merged registry (``MetricsRegistry.merge_snapshot``),
  and derives health signals: **stragglers** via per-node commit-rate
  and block-time-p95 outlier detection, **stalls** via missed
  heartbeat deadlines, and **deadlock suspicion** by running
  :func:`~repro.obs.flightrec.wait_for_summary` over the live partial
  flight record.  Signals are raised as structured
  :class:`HealthEvent` objects and counted on the obs registry
  (``live_straggler_detected_total`` etc.) when instrumentation is
  enabled.
* Sinks — :func:`render_top` (the ``repro obs top`` dashboard), a
  streaming JSONL writer (``--live-out``), and
  :class:`MetricsEndpoint`, an opt-in stdlib ``http.server`` scrape
  endpoint serving the merged Prometheus text during the run.

Nothing here starts threads or opens sockets at import time; the HTTP
endpoint only spins up when explicitly started.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from statistics import median
from typing import (
    IO,
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.obs import instrument as _instrument
from repro.obs.export import render_prometheus
from repro.obs import flightrec as _flightrec
from repro.obs.flightrec import (
    FlightRecorder,
    WaitForSummary,
    wait_for_summary,
)
from repro.obs.metrics import MetricsRegistry

# Metric names of the per-node telemetry registry.  They live beside
# the global catalog (``repro.obs.instrument``) but are always on for
# a telemetry-enabled run, independent of ``instrument.enable()``.
NODE_COMMITS = "node_commits_total"
NODE_SENDS = "node_sends_total"
NODE_RECEIVES = "node_receives_total"
NODE_INTERNAL = "node_internal_total"
NODE_BLOCK_SECONDS = "node_block_seconds"
NODE_BLOCK_QUANTILES = "node_block_quantile_seconds"

#: Health-event kinds.
STRAGGLER = "straggler"
STALL = "stall"
DEADLOCK_SUSPECT = "deadlock_suspect"

#: Cap on flight-event deltas queued between two telemetry pushes.
NODE_EVENT_QUEUE = 512


def _count(attr: str, amount: int = 1) -> None:
    """Bump a global obs counter when instrumentation is enabled."""
    m = _instrument.metrics
    if m is not None:
        getattr(m, attr).inc(amount)


@dataclass
class TelemetryConfig:
    """Knobs for the telemetry plane (all times in seconds).

    ``interval_seconds`` / ``every_commits`` control the node-side push
    cadence (a frame goes out when either trips; ``0`` disables that
    trigger).  The shipping default is time-driven only: commit-count
    cadence scales frame traffic with throughput, which on a fast run
    floods the coordinator — opt into it for tests that need frames
    quickly.  The rest configure coordinator-side detection and the
    sinks.  The plane as a whole is off unless a config is passed to
    the runner — the default-constructed config is the *enabled*
    default, not the global default.
    """

    interval_seconds: float = 1.0
    every_commits: int = 0
    window: int = 64
    heartbeat_timeout: float = 0.0  # 0 -> derived from the interval
    straggler_ratio: float = 0.4
    straggler_min_nodes: int = 3
    block_p95_factor: float = 4.0
    block_p95_floor: float = 0.005
    ring_capacity: int = 2048
    live_out: Optional[Union[str, IO[str]]] = None
    metrics_port: Optional[int] = None  # 0 = ephemeral port
    on_tick: Optional[Callable[..., None]] = None

    def effective_heartbeat_timeout(self) -> float:
        """The stall deadline: explicit, or 3 push intervals (>= 2s)."""
        if self.heartbeat_timeout > 0:
            return self.heartbeat_timeout
        base = self.interval_seconds if self.interval_seconds > 0 else 1.0
        return max(3.0 * base, 2.0)


@dataclass
class HealthEvent:
    """One structured health signal raised by the live aggregator."""

    kind: str  # STRAGGLER | STALL | DEADLOCK_SUSPECT
    node: Any
    t: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "node": self.node,
            "t": self.t,
            "detail": dict(self.detail),
        }


# ----------------------------------------------------------------------
# Node side
# ----------------------------------------------------------------------
class NodeTelemetry:
    """Per-node telemetry state living inside the node process.

    Single-threaded by construction (the node worker is a plain script
    loop), so no locking beyond what the registry already does.  The
    worker calls :meth:`on_commit` / :meth:`on_internal` as actions
    complete, asks :meth:`due` between actions, and ships
    :meth:`frame` headers as ``MSG_TELEMETRY`` — never while a
    protocol reply is pending.
    """

    def __init__(
        self,
        node: Any,
        interval_seconds: float = 1.0,
        every_commits: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.node = node
        self.interval_seconds = interval_seconds
        self.every_commits = every_commits
        self._clock = clock
        self.registry = MetricsRegistry()
        self._commits = self.registry.counter(
            NODE_COMMITS, "Rendezvous operations committed by this node"
        )
        self._sends = self.registry.counter(
            NODE_SENDS, "Send halves committed by this node"
        )
        self._receives = self.registry.counter(
            NODE_RECEIVES, "Receive halves committed by this node"
        )
        self._internal = self.registry.counter(
            NODE_INTERNAL, "Internal (compute) actions on this node"
        )
        self._block_hist = self.registry.histogram(
            NODE_BLOCK_SECONDS,
            help="Per-action blocking time on this node (seconds)",
        )
        self._block_sketch = self.registry.summary(
            NODE_BLOCK_QUANTILES,
            help="Streaming p50/p95/p99 of this node's blocking time",
        )
        # Hot-path state: the node worker calls ``on_commit`` on every
        # rendezvous, so the per-commit cost must be a few plain-object
        # operations — registry locks, bucket walks and sketch updates
        # are all deferred to :meth:`frame` (``_fold``).
        self._pending: Deque[Tuple[Any, ...]] = deque()
        self._pending_blocks: List[float] = []
        self._n_commits = 0
        self._n_sends = 0
        self._n_receives = 0
        self._n_internal = 0
        self._events_dropped = 0
        self._seq = 0
        self._pushed_commits = 0
        self._last_push = clock()

    @property
    def commits(self) -> int:
        return self._n_commits

    def on_commit(
        self,
        op: str,
        peer: Any,
        seconds: float,
        now: Optional[float] = None,
    ) -> None:
        """A send/receive half committed after blocking ``seconds``.

        Pass ``now`` when the caller already holds a fresh clock
        reading (the worker times the block end anyway) — it saves a
        clock call on the per-commit path.
        """
        self._n_commits += 1
        if op == "send":
            self._n_sends += 1
        else:
            self._n_receives += 1
        self._pending_blocks.append(seconds)
        if len(self._pending) >= NODE_EVENT_QUEUE:
            self._pending.popleft()
            self._events_dropped += 1
        if now is None:
            now = self._clock()
        self._pending.append(("commit", peer, op, seconds, now))

    def on_internal(self, label: Optional[str] = None) -> None:
        self._n_internal += 1
        if len(self._pending) >= NODE_EVENT_QUEUE:
            self._pending.popleft()
            self._events_dropped += 1
        self._pending.append(("internal", None, label, None, self._clock()))

    def due(self, now: Optional[float] = None) -> bool:
        """Is a push due (N commits or T seconds since the last one)?"""
        now = self._clock() if now is None else now
        if (
            self.every_commits > 0
            and self._n_commits - self._pushed_commits
            >= self.every_commits
        ):
            return True
        return (
            self.interval_seconds > 0
            and now - self._last_push >= self.interval_seconds
        )

    def _fold(self) -> None:
        """Fold the hot-path accumulators into the registry.

        Counters are folded exactly, and every blocking sample goes
        into both the histogram and the quantile sketch.
        """
        delta = self._n_commits - int(self._commits.value)
        if delta:
            self._commits.inc(delta)
        delta = self._n_sends - int(self._sends.value)
        if delta:
            self._sends.inc(delta)
        delta = self._n_receives - int(self._receives.value)
        if delta:
            self._receives.inc(delta)
        delta = self._n_internal - int(self._internal.value)
        if delta:
            self._internal.inc(delta)
        if not self._pending_blocks:
            return
        self._block_hist.observe_batch(self._pending_blocks)
        for seconds in self._pending_blocks:
            self._block_sketch.observe(seconds)
        self._pending_blocks.clear()

    def frame(
        self, final: bool = False, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """Build the next ``MSG_TELEMETRY`` header (drains the queue).

        Metric snapshots are *cumulative* (the full registry every
        time), so a lost or reordered frame never corrupts the merged
        view — the aggregator only keeps the latest per node.  Flight
        events are deltas and ride along at most once.
        """
        now = self._clock() if now is None else now
        self._fold()
        events = [
            {
                "kind": kind,
                "process": self.node,
                "peer": peer,
                "op" if kind == "commit" else "label": op_or_label,
                "seconds": seconds,
                "t": t,
            }
            for kind, peer, op_or_label, seconds, t in self._pending
        ]
        self._pending.clear()
        self._seq += 1
        self._pushed_commits = self._n_commits
        self._last_push = now
        return {
            "node": self.node,
            "seq": self._seq,
            "commits": self._n_commits,
            "final": final,
            "t_wall": time.time(),
            "metrics": self.registry.snapshot(),
            "events": events,
            "events_dropped": self._events_dropped,
        }


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _NodeState:
    __slots__ = (
        "samples",
        "last_seen",
        "finished",
        "latest",
        "commits",
        "frames",
        "events_dropped",
        "straggler",
        "stalled",
    )

    def __init__(self, window: int):
        # (receive_time, cumulative_commits, block_p95 | None)
        self.samples: Deque[Tuple[float, int, Optional[float]]] = deque(
            maxlen=window
        )
        self.last_seen: Optional[float] = None
        self.finished = False
        self.latest: Dict[str, Dict[str, Any]] = {}
        self.commits = 0
        self.frames = 0
        self.events_dropped = 0
        self.straggler = False
        self.stalled = False


class LiveAggregator:
    """Rolling cross-process aggregation and health detection.

    Fed by the coordinator: :meth:`on_frame` for every frame (the
    heartbeat signal), :meth:`on_telemetry` for ``MSG_TELEMETRY``
    headers, :meth:`on_runtime_event` for the coordinator's own
    rendezvous lifecycle events (the live partial flight record), and
    :meth:`check_health` on the serve-loop tick.  Thread-safe: the
    HTTP scrape endpoint reads the merged view from its own threads.
    """

    def __init__(
        self,
        nodes: Iterable[Any] = (),
        config: Optional[TelemetryConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or TelemetryConfig()
        self._clock = clock
        self._lock = threading.RLock()
        self._nodes: Dict[Any, _NodeState] = {
            name: _NodeState(self.config.window) for name in nodes
        }
        self.ring = FlightRecorder(capacity=self.config.ring_capacity)
        self._events: List[HealthEvent] = []
        self._frames = 0
        self._started = clock()
        self._cycle_key: Optional[FrozenSet[Any]] = None
        #: Waits currently mirrored into the live ring, keyed by
        #: process (see :meth:`sync_open_waits`).
        self._mirrored_waits: Dict[Any, Tuple[str, Any]] = {}
        #: The started scrape endpoint, attached by the runner when
        #: ``config.metrics_port`` is set — the only way callers can
        #: learn an ephemeral (port 0) binding.
        self.endpoint: Optional["MetricsEndpoint"] = None
        self._live_file: Optional[IO[str]] = None
        self._owns_live_file = False
        target = self.config.live_out
        if isinstance(target, str):
            self._live_file = open(target, "w", encoding="utf-8")
            self._owns_live_file = True
        elif target is not None:
            self._live_file = target

    # -- feeding -------------------------------------------------------
    def _emit(self, obj: Dict[str, Any]) -> None:
        handle = self._live_file
        if handle is None:
            return
        handle.write(json.dumps(obj, sort_keys=True, default=str) + "\n")
        handle.flush()

    def on_frame(self, node: Any, now: Optional[float] = None) -> None:
        """A frame arrived from ``node`` — refresh its heartbeat.

        The transport batches these per tick (not per frame), so a
        heartbeat may be up to one tick stale — far inside the
        multi-second stall deadline.
        """
        now = self._clock() if now is None else now
        state = self._nodes.get(node)
        if state is None:
            with self._lock:
                state = self._nodes.setdefault(
                    node, _NodeState(self.config.window)
                )
        state.last_seen = now
        if state.stalled:
            state.stalled = False  # re-arm after recovery

    def on_telemetry(
        self, node: Any, header: Dict[str, Any], now: Optional[float] = None
    ) -> None:
        """Ingest one ``MSG_TELEMETRY`` header pushed by ``node``."""
        now = self._clock() if now is None else now
        metrics = header.get("metrics") or {}
        commits = int(header.get("commits", 0))
        p95 = _block_p95(metrics)
        with self._lock:
            state = self._nodes.setdefault(
                node, _NodeState(self.config.window)
            )
            state.last_seen = now
            state.latest = metrics
            state.commits = commits
            state.frames += 1
            state.events_dropped = int(header.get("events_dropped", 0))
            state.samples.append((now, commits, p95))
            if header.get("final"):
                state.finished = True
            self._frames += 1
        _count("live_telemetry_frames")
        self._emit(
            {
                "type": "telemetry",
                "node": node,
                "seq": header.get("seq"),
                "commits": commits,
                "final": bool(header.get("final")),
                "t": now,
                "t_wall": header.get("t_wall"),
                "metrics": metrics,
                "events": header.get("events") or [],
                "events_dropped": int(header.get("events_dropped", 0)),
            }
        )

    def on_runtime_event(
        self, kind: str, process: Any, peer: Any = None, **detail: Any
    ) -> None:
        """Record a coordinator-observed event into the live ring.

        The ring is deliberately coordinator-fed only: mixing
        node-pushed deltas into the same per-process seq streams would
        corrupt :func:`wait_for_summary`'s gap detection.
        """
        self.ring.record(kind, process, peer=peer, **detail)

    def sync_open_waits(
        self,
        waits: Dict[Any, Tuple[str, Any, float]],
        now: Optional[float] = None,
    ) -> None:
        """Mirror the coordinator's open waits into the live ring.

        ``waits`` maps each parked process to ``(op, peer, since)``.
        Called at tick cadence (not per event — that would tax every
        rendezvous), it records a ``block_start`` for each wait not
        mirrored yet and a matched ``block_end`` for each mirrored
        wait that has since resolved.  The ring therefore holds
        exactly the waits that persisted across a tick — the only
        ones a deadlock cycle can be made of — and
        :func:`wait_for_summary` reads it unchanged.  Resolution is
        detected by the process being parked differently (or not at
        all); a wait that times out instead goes through
        :meth:`on_wait_timeout` eagerly.
        """
        del now  # ring events are stamped on record
        with self._lock:
            mirrored = self._mirrored_waits
            for node, previous in list(mirrored.items()):
                op, peer, _ = waits.get(node, (None, None, 0.0))
                if previous == (op, peer):
                    continue
                prev_op, prev_peer = previous
                del mirrored[node]
                self.ring.record(
                    _flightrec.BLOCK_END,
                    node,
                    peer=prev_peer,
                    op=prev_op,
                    status="matched",
                )
            for node, (op, peer, since) in waits.items():
                if node in mirrored:
                    continue
                mirrored[node] = (op, peer)
                self.ring.record(
                    _flightrec.BLOCK_START,
                    node,
                    peer=peer,
                    op=op,
                    since=since,
                )

    def on_wait_timeout(
        self, node: Any, op: str, peer: Any, seconds: float
    ) -> None:
        """A parked wait died at the coordinator's deadline sweep."""
        with self._lock:
            self._mirrored_waits.pop(node, None)
            self.ring.record(
                _flightrec.BLOCK_END,
                node,
                peer=peer,
                op=op,
                status="timeout",
                seconds=seconds,
            )

    def on_node_finished(
        self, node: Any, now: Optional[float] = None
    ) -> None:
        now = self._clock() if now is None else now
        with self._lock:
            state = self._nodes.setdefault(
                node, _NodeState(self.config.window)
            )
            state.finished = True
            state.last_seen = now

    # -- detection -----------------------------------------------------
    def check_health(
        self,
        now: Optional[float] = None,
        blocked: FrozenSet[Any] = frozenset(),
    ) -> List[HealthEvent]:
        """Run all detectors; returns (and records) fresh events.

        ``blocked`` names nodes currently parked in a rendezvous at
        the coordinator: they are silent *because they are blocked*,
        which is the deadlock detector's domain, not the stall
        detector's.
        """
        now = self._clock() if now is None else now
        fresh: List[HealthEvent] = []
        fresh.extend(self._check_stalls(now, blocked))
        fresh.extend(self._check_stragglers(now))
        fresh.extend(self._check_deadlock(now))
        for event in fresh:
            self._emit({"type": "health", **event.to_dict()})
        return fresh

    def _check_stalls(
        self, now: float, blocked: FrozenSet[Any]
    ) -> List[HealthEvent]:
        deadline = self.config.effective_heartbeat_timeout()
        events: List[HealthEvent] = []
        with self._lock:
            for node, state in self._nodes.items():
                if state.finished or state.stalled or node in blocked:
                    continue
                if state.last_seen is None:
                    continue  # never connected; the runner handles it
                silent = now - state.last_seen
                if silent <= deadline:
                    continue
                state.stalled = True
                event = HealthEvent(
                    STALL,
                    node,
                    now,
                    {
                        "silent_seconds": silent,
                        "deadline_seconds": deadline,
                    },
                )
                self._events.append(event)
                events.append(event)
        for _ in events:
            _count("live_heartbeats_missed")
        return events

    def _check_stragglers(self, now: float) -> List[HealthEvent]:
        cfg = self.config
        events: List[HealthEvent] = []
        with self._lock:
            # Finished nodes stay in the fleet medians — their achieved
            # rate is evidence of fleet speed, and dropping them would
            # blind the detector exactly when the fast nodes finish
            # first (the classic straggler shape).  Only unfinished
            # nodes are straggler *candidates* below.
            rates: Dict[Any, float] = {}
            p95s: Dict[Any, float] = {}
            for node, state in self._nodes.items():
                if len(state.samples) < 2:
                    continue
                t0, c0, _ = state.samples[0]
                t1, c1, p95 = state.samples[-1]
                if t1 - t0 > 0:
                    rates[node] = (c1 - c0) / (t1 - t0)
                if p95 is not None:
                    p95s[node] = p95
            fleet_rate = (
                median(rates.values())
                if len(rates) >= cfg.straggler_min_nodes
                else 0.0
            )
            fleet_p95 = (
                median(p95s.values())
                if len(p95s) >= cfg.straggler_min_nodes
                else 0.0
            )
            for node, state in self._nodes.items():
                if state.finished:
                    continue
                slow_rate = (
                    fleet_rate > 0.0
                    and node in rates
                    and rates[node] < cfg.straggler_ratio * fleet_rate
                )
                slow_p95 = (
                    node in p95s
                    and p95s[node]
                    > cfg.block_p95_factor
                    * max(fleet_p95, cfg.block_p95_floor)
                )
                if not slow_rate and not slow_p95:
                    if node in rates:  # healthy again -> re-arm
                        state.straggler = False
                    continue
                if state.straggler:
                    continue  # episode already reported
                state.straggler = True
                event = HealthEvent(
                    STRAGGLER,
                    node,
                    now,
                    {
                        "reason": "commit_rate" if slow_rate else (
                            "block_p95"
                        ),
                        "rate": rates.get(node),
                        "fleet_median_rate": fleet_rate,
                        "block_p95": p95s.get(node),
                        "fleet_median_p95": fleet_p95,
                    },
                )
                self._events.append(event)
                events.append(event)
        for _ in events:
            _count("live_straggler_detected")
        return events

    def _check_deadlock(self, now: float) -> List[HealthEvent]:
        summary = wait_for_summary(self.ring)
        # Live suspicion reasons over *open* waits only.  A
        # ``status="timeout"`` entry names a wait the coordinator
        # already resolved (the node got MSG_TIMEOUT and is moving
        # again) — post-mortem analysis wants that edge, a live
        # detector re-reporting it forever does not.
        summary = WaitForSummary(
            [e for e in summary.blocked if e.status == "open"]
        )
        cycle = summary.deadlock_cycle()
        with self._lock:
            if not cycle:
                self._cycle_key = None
                return []
            key = frozenset(cycle)
            if key == self._cycle_key:
                return []  # same suspected cycle, already reported
            self._cycle_key = key
            event = HealthEvent(
                DEADLOCK_SUSPECT,
                cycle[0],
                now,
                {"cycle": list(cycle)},
            )
            self._events.append(event)
        _count("live_deadlock_suspected")
        return [event]

    # -- views ---------------------------------------------------------
    @property
    def frames_total(self) -> int:
        with self._lock:
            return self._frames

    @property
    def events(self) -> List[HealthEvent]:
        with self._lock:
            return list(self._events)

    def event_counts(self) -> Dict[str, int]:
        counts = {STRAGGLER: 0, STALL: 0, DEADLOCK_SUSPECT: 0}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def merged_registry(self) -> MetricsRegistry:
        """Fold the latest snapshot of every node into one registry.

        Snapshots are cumulative, so the fold is idempotent per node
        and the merged counter totals equal the per-node sums exactly.
        """
        with self._lock:
            snapshots = [
                (str(node), dict(state.latest))
                for node, state in self._nodes.items()
                if state.latest
            ]
        merged = MetricsRegistry()
        for _, snapshot in sorted(snapshots, key=lambda item: item[0]):
            merged.merge_snapshot(snapshot)
        return merged

    def render_prometheus(self) -> str:
        """The merged registry in Prometheus text format."""
        return render_prometheus(self.merged_registry())

    def node_rows(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Per-node dashboard rows, sorted by node name."""
        now = self._clock() if now is None else now
        rows: List[Dict[str, Any]] = []
        with self._lock:
            for node, state in self._nodes.items():
                rate = None
                if len(state.samples) >= 2:
                    t0, c0, _ = state.samples[0]
                    t1, c1, _ = state.samples[-1]
                    if t1 - t0 > 0:
                        rate = (c1 - c0) / (t1 - t0)
                quantiles = _block_quantiles(state.latest)
                rows.append(
                    {
                        "node": node,
                        "commits": state.commits,
                        "rate": rate,
                        "p50": quantiles.get(0.5),
                        "p95": quantiles.get(0.95),
                        "age": (
                            now - state.last_seen
                            if state.last_seen is not None
                            else None
                        ),
                        "frames": state.frames,
                        "finished": state.finished,
                        "straggler": state.straggler,
                        "stalled": state.stalled,
                    }
                )
        rows.sort(key=lambda row: str(row["node"]))
        return rows

    def elapsed(self, now: Optional[float] = None) -> float:
        now = self._clock() if now is None else now
        return now - self._started

    def close(self) -> None:
        """Write the trailing summary line and release the sink."""
        counts = self.event_counts()
        with self._lock:
            commits = sum(s.commits for s in self._nodes.values())
            reporting = sum(
                1 for s in self._nodes.values() if s.frames > 0
            )
        self._emit(
            {
                "type": "summary",
                "frames": self.frames_total,
                "nodes_reporting": reporting,
                "commits": commits,
                "events": counts,
            }
        )
        if self._owns_live_file and self._live_file is not None:
            self._live_file.close()
        self._live_file = None


def _block_quantiles(
    snapshot: Dict[str, Dict[str, Any]]
) -> Dict[float, float]:
    data = snapshot.get(NODE_BLOCK_QUANTILES) or {}
    quantiles = data.get("quantiles") or {}
    out: Dict[float, float] = {}
    for key, value in quantiles.items():
        try:
            out[float(key)] = float(value)
        except (TypeError, ValueError):
            continue
    return out


def _block_p95(snapshot: Dict[str, Dict[str, Any]]) -> Optional[float]:
    return _block_quantiles(snapshot).get(0.95)


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
def _fmt(value: Optional[float], scale: float = 1.0, digits: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value * scale:.{digits}f}"


def render_top(
    aggregator: LiveAggregator, now: Optional[float] = None
) -> str:
    """One frame of the in-terminal dashboard (``repro obs top``)."""
    rows = aggregator.node_rows(now)
    counts = aggregator.event_counts()
    commits = sum(row["commits"] for row in rows)
    finished = sum(1 for row in rows if row["finished"])
    reporting = sum(1 for row in rows if row["frames"] > 0)
    elapsed = aggregator.elapsed(now)
    rate = commits / elapsed if elapsed > 0 else 0.0
    lines = [
        (
            f"live telemetry  elapsed {elapsed:6.1f}s  "
            f"nodes {reporting}/{len(rows)} reporting, "
            f"{finished} finished"
        ),
        (
            f"frames {aggregator.frames_total}  commits {commits} "
            f"({rate:.1f}/s)  health: "
            f"{counts.get(STRAGGLER, 0)} straggler, "
            f"{counts.get(STALL, 0)} stall, "
            f"{counts.get(DEADLOCK_SUSPECT, 0)} deadlock"
        ),
        (
            f"{'node':<10} {'commits':>8} {'rate/s':>8} "
            f"{'p50ms':>8} {'p95ms':>8} {'age_s':>6}  state"
        ),
    ]
    for row in rows:
        if row["finished"]:
            state = "done"
        elif row["stalled"]:
            state = "STALLED"
        elif row["straggler"]:
            state = "STRAGGLER"
        elif row["frames"] == 0:
            state = "waiting"
        else:
            state = "ok"
        lines.append(
            f"{str(row['node']):<10} {row['commits']:>8} "
            f"{_fmt(row['rate']):>8} "
            f"{_fmt(row['p50'], 1000.0, 2):>8} "
            f"{_fmt(row['p95'], 1000.0, 2):>8} "
            f"{_fmt(row['age']):>6}  {state}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTTP scrape endpoint
# ----------------------------------------------------------------------
class MetricsEndpoint:
    """Opt-in ``/metrics`` endpoint over stdlib ``http.server``.

    Serves the aggregator's *merged* Prometheus text while the run is
    live, from a daemon thread, bound to localhost by default.  Port
    ``0`` picks an ephemeral port (read :attr:`port` after
    :meth:`start`).
    """

    def __init__(
        self,
        aggregator: LiveAggregator,
        port: int = 0,
        host: str = "127.0.0.1",
    ):
        self._aggregator = aggregator
        self._host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self.port: Optional[int] = None

    def start(self) -> "MetricsEndpoint":
        aggregator = self._aggregator

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "only /metrics is served")
                    return
                body = aggregator.render_prometheus().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the coordinator's stderr

        self._server = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-endpoint",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}/metrics"

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
