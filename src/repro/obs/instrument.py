"""Zero-overhead-when-disabled instrumentation hooks.

Instrumented modules (``core/vector.py``, ``clocks/online.py``,
``sim/runtime.py``, ...) never talk to a registry directly; they read
two module-level attributes *at call time*:

* :data:`metrics` — an :class:`ObsMetrics` bundle of pre-resolved
  counters/gauges/histograms, or ``None`` when disabled;
* :data:`tracer` — the active :class:`~repro.obs.tracing.Tracer`, or
  ``None`` when disabled.

The disabled fast path is therefore one attribute load and a ``None``
test — no allocation, no lock, no call — which is what lets the hooks
live inside ``VectorTimestamp.__le__`` without taxing every comparison
in the library (the overhead guard test in ``tests/obs`` pins this
down with ``tracemalloc``).  :func:`span` returns the shared
:data:`~repro.obs.tracing.NULL_SPAN` singleton when disabled, so
``with instrument.span(...):`` is equally free.

Enable/disable is process-global (matching the process-global nature
of the measured costs) and re-entrant; :func:`enabled_session` scopes
it for tests and the CLI.  Modules must read the attributes through
the module object (``instrument.metrics``), never ``from``-import the
values — a bound copy would go stale on enable/disable.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from contextlib import contextmanager
from functools import partial
from typing import Iterator, Optional, Sequence

from repro.obs.metrics import (
    BYTE_BUCKETS,
    DURATION_BUCKETS,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_SPAN, Tracer

#: Worst-case bytes one vector component occupies on the wire (a
#: fixed-width 64-bit integer).  The actual piggyback accounting in
#: :func:`piggyback_size_bytes` uses the varint encoding; this constant
#: remains the conservative cap used by capacity planning
#: (``apps/monitor.py``) and the fast path's bulk worst-case counter.
COMPONENT_BYTES = 8


class ObsMetrics:
    """The standard metric catalog, pre-resolved against one registry.

    Every instrumented call site reaches its metric through an
    attribute here, so enabling observability pays the name lookup
    once, not per event.  See ``docs/observability.md`` for the
    metric-by-metric paper cross-references.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.messages_timestamped = registry.counter(
            "messages_timestamped_total",
            "Messages assigned a vector timestamp (receiver side)",
        )
        self.acks_processed = registry.counter(
            "acks_processed_total",
            "Figure 5 acknowledgements merged on the sender side",
        )
        self.vector_comparisons = registry.counter(
            "vector_comparisons_total",
            "Component-wise vector order tests (Equation 2)",
        )
        self.vector_joins = registry.counter(
            "vector_joins_total",
            "Component-wise joins (lines 5/9 of Figure 5)",
        )
        self.piggyback_bytes_total = registry.counter(
            "piggyback_bytes_total",
            "Total clock payload piggybacked on messages and acks",
        )
        self.piggyback_bytes = registry.histogram(
            "piggyback_bytes",
            buckets=BYTE_BUCKETS,
            help="Clock payload bytes piggybacked per message",
        )
        self.rendezvous_total = registry.counter(
            "rendezvous_total",
            "Committed synchronous rendezvous (runtime)",
        )
        self.rendezvous_wait_seconds = registry.histogram(
            "rendezvous_wait_seconds",
            buckets=DURATION_BUCKETS,
            help="Blocking time inside a rendezvous (send ack wait / "
            "receive offer wait)",
        )
        self.rendezvous_block_seconds = registry.histogram(
            "rendezvous_block_seconds",
            buckets=DURATION_BUCKETS,
            help="Per-match blocking time of the two sides of a "
            "committed rendezvous (receiver wait-for-offer and sender "
            "wait-for-ack), recorded when the match commits",
        )
        self.audit_pairs_checked = registry.counter(
            "audit_pairs_checked_total",
            "Message pairs cross-checked against ground-truth "
            "sync-precedes by the live Theorem 4 audit",
        )
        self.audit_violations = registry.counter(
            "audit_violations_total",
            "Audit cross-checks that contradicted Theorem 4 or a "
            "Theorem 5/8 size bound (should stay zero)",
        )
        self.vector_component_count = registry.gauge(
            "vector_component_count",
            "Components per online timestamp (= edge-decomposition size)",
        )
        self.piggyback_delta_bytes = registry.counter(
            "piggyback_delta_bytes_total",
            "Piggyback bytes actually emitted by the delta wire codec "
            "(delta pairs and full-resync frames)",
        )
        self.delta_resync_total = registry.counter(
            "delta_resync_total",
            "Full-vector resync frames emitted by the delta piggyback "
            "codec (periodic, forced, or size-fallback)",
        )
        self.decomposition_size = registry.gauge(
            "decomposition_size",
            "Edge groups produced by the active decomposition",
        )
        self.decomposition_bound_n_minus_2 = registry.gauge(
            "decomposition_bound_n_minus_2",
            "The N-2 half of the Theorem 5 bound",
        )
        self.decomposition_bound_cover = registry.gauge(
            "decomposition_bound_cover",
            "Vertex-cover half of the Theorem 5 bound (beta(G) when the "
            "exact cover was computed, else a greedy upper bound)",
        )
        self.theorem5_bound = registry.gauge(
            "theorem5_bound",
            "min(beta(G), N-2): Theorem 5's cap on the decomposition size",
        )
        self.offline_width = registry.gauge(
            "offline_width",
            "Width(M, sync-precedes) of Figure 9's message poset, under "
            "either chain strategy",
        )
        self.offline_vector_size = registry.gauge(
            "offline_vector_size",
            "Components per offline vector: extensions in Figure 9's "
            "sum-rule realizer (at most the chain count)",
        )
        self.theorem8_bound = registry.gauge(
            "theorem8_bound",
            "floor(N_active / 2): Theorem 8's cap on the offline width",
        )
        self.lattice_ideals_enumerated = registry.counter(
            "lattice_ideals_enumerated_total",
            "Ideals (consistent global states) produced by the "
            "chain-indexed lattice kernel",
        )
        self.lattice_enumeration_seconds = registry.histogram(
            "lattice_enumeration_seconds",
            buckets=DURATION_BUCKETS,
            help="Wall-clock seconds per lattice-kernel traversal "
            "(ideals/sec = lattice_ideals_enumerated_total / sum)",
        )
        self.monitor_ingested = registry.counter(
            "monitor_ingested_total",
            "Records ingested by the causal monitor",
        )
        self.monitor_queries = registry.counter(
            "monitor_queries_total",
            "Precedence/concurrency queries answered by the monitor",
        )
        self.flight_events_dropped = registry.counter(
            "flight_events_dropped_total",
            "Flight-recorder events evicted by the bounded ring "
            "(non-zero means post-mortems see a truncated suffix)",
        )
        self.live_telemetry_frames = registry.counter(
            "live_telemetry_frames_total",
            "TELEMETRY frames ingested by the coordinator-side "
            "live aggregator (repro.obs.live)",
        )
        self.live_straggler_detected = registry.counter(
            "live_straggler_detected_total",
            "Straggler episodes raised by the live aggregator "
            "(per-node commit rate or block-time p95 outliers)",
        )
        self.live_heartbeats_missed = registry.counter(
            "live_heartbeats_missed_total",
            "Stall episodes raised by the live aggregator (node "
            "silent past its heartbeat deadline while not parked "
            "in a rendezvous)",
        )
        self.live_deadlock_suspected = registry.counter(
            "live_deadlock_suspected_total",
            "Deadlock-suspicion episodes raised by running the "
            "wait-for analysis over the live partial flight record",
        )
        self.rendezvous_block_quantiles = registry.summary(
            "rendezvous_block_quantile_seconds",
            help="Streaming p50/p95/p99 of per-side rendezvous "
            "blocking time (log-bucket sketch over the same "
            "observations as rendezvous_block_seconds)",
        )
        self.piggyback_quantiles = registry.summary(
            "piggyback_quantile_bytes",
            help="Streaming p50/p95/p99 of per-message piggyback "
            "payload bytes (transport-side log-bucket sketch)",
        )
        self.stamp_latency_quantiles = registry.summary(
            "stamp_latency_seconds",
            help="Streaming p50/p95/p99 of per-rendezvous stamping "
            "latency (clock on_receive + on_acknowledgement work)",
        )


#: Active metric bundle, or ``None`` when observability is disabled.
#: Read at call time via ``instrument.metrics`` — never from-import.
metrics: Optional[ObsMetrics] = None

#: Active tracer, or ``None`` when observability is disabled.
tracer: Optional[Tracer] = None

_state_lock = threading.Lock()


def is_enabled() -> bool:
    """True when instrumentation hooks are live."""
    return metrics is not None


def enable(
    registry: Optional[MetricsRegistry] = None,
    trace_capacity: int = 4096,
    active_tracer: Optional[Tracer] = None,
) -> ObsMetrics:
    """Turn the hooks on; idempotent when already enabled.

    Returns the active :class:`ObsMetrics` bundle.  Supplying a
    ``registry`` (or ``active_tracer``) replaces the current one, so a
    fresh ``MetricsRegistry()`` gives a measurement a clean slate.
    """
    global metrics, tracer
    with _state_lock:
        if registry is None and metrics is not None:
            if active_tracer is not None:
                tracer = active_tracer
            return metrics
        if registry is None:
            registry = MetricsRegistry()
        bundle = ObsMetrics(registry)
        if active_tracer is None:
            active_tracer = Tracer(capacity=trace_capacity)
        tracer = active_tracer
        metrics = bundle
        return bundle


def disable() -> None:
    """Turn the hooks off; instrumented paths revert to no-ops."""
    global metrics, tracer
    with _state_lock:
        metrics = None
        tracer = None


def get_registry() -> MetricsRegistry:
    """The active registry; enables observability if it was off."""
    bundle = metrics
    if bundle is None:
        bundle = enable()
    return bundle.registry


def get_tracer() -> Tracer:
    """The active tracer; enables observability if it was off."""
    if tracer is None:
        enable()
    assert tracer is not None
    return tracer


def span(name: str, **attributes):
    """A span when enabled, the shared no-op otherwise.

    Usage at instrumented sites::

        with instrument.span("rendezvous.send", sender=s) as sp:
            ...
            sp.set_attribute("blocking_seconds", waited)

    The ``sp`` object is inert when disabled, so call sites need no
    branching; hot loops that cannot afford the keyword-dict should
    pre-check ``instrument.tracer is not None`` instead.
    """
    active = tracer
    if active is None:
        return NULL_SPAN
    return active.span(name, **attributes)


@contextmanager
def enabled_session(
    registry: Optional[MetricsRegistry] = None,
    trace_capacity: int = 4096,
) -> Iterator[ObsMetrics]:
    """Scoped enable/restore — the CLI and tests wrap runs in this."""
    global metrics, tracer
    previous = (metrics, tracer)
    disable()
    if registry is None:
        registry = MetricsRegistry()
    bundle = enable(registry, trace_capacity=trace_capacity)
    try:
        yield bundle
    finally:
        with _state_lock:
            metrics, tracer = previous


class Instrumented:
    """Mixin giving classes uniform access to the live hooks.

    Subclasses call ``self._obs_metrics()`` (``None`` when disabled)
    and ``self._obs_span(name, **attrs)`` (no-op when disabled) instead
    of importing this module at every site.
    """

    @staticmethod
    def _obs_metrics() -> Optional[ObsMetrics]:
        return metrics

    @staticmethod
    def _obs_span(name: str, **attributes):
        active = tracer
        if active is None:
            return NULL_SPAN
        return active.span(name, **attributes)


def varint_size(value: int) -> int:
    """Bytes of one component under unsigned LEB128 (7 bits/byte)."""
    if value < 0x80:  # the overwhelmingly common case: one byte
        return 1
    size = 1
    value >>= 7
    while value:
        size += 1
        value >>= 7
    return size


#: Lower bounds of the 2- to 10-byte LEB128 bands: ``2**7``, ``2**14``,
#: ... ``2**63``.  A value below ``2**70`` takes one byte plus the
#: number of edges at or below it.
_VARINT_BAND_EDGES = tuple(1 << (7 * k) for k in range(1, 10))
_extra_varint_bytes = partial(bisect_right, _VARINT_BAND_EDGES)


def row_size_bytes(row: Sequence[int]) -> int:
    """:func:`piggyback_size_bytes` of a row of non-negative ints below
    ``2**70``, computed at C speed with no per-component Python call.

    The batch stamping kernel sizes one row per message with this; its
    components are counters no larger than the message count.
    """
    return len(row) + sum(map(_extra_varint_bytes, row))


def piggyback_size_bytes(vector) -> int:
    """Wire size of one piggybacked vector under varint encoding.

    Each component is an unsigned LEB128 varint (1 byte below 128,
    growing by 7-bit groups), which is the encoding the performance
    docs assume; small early-run counters cost 1 byte, not 8.  Empty or
    ``None`` vectors piggyback nothing and cost 0 bytes.  Components
    that are not non-negative ints (foreign timestamp types) fall back
    to the :data:`COMPONENT_BYTES` fixed-width cap.
    """
    if vector is None:
        return 0
    total = 0
    for component in vector:
        if isinstance(component, int) and component >= 0:
            total += varint_size(component)
        else:
            total += COMPONENT_BYTES
    return total
