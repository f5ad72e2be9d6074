"""Experiment obs — what the observability layer costs.

Measures online timestamping throughput (messages/sec) three ways:

* instrumentation **off** (the shipping default — hooks are a single
  ``None`` test);
* instrumentation **on** with metrics only;
* instrumentation **on** with metrics *and* per-computation spans.

The off/on pair is written to ``BENCH_obs.json`` so the perf
trajectory of the hook path is tracked across runs.  The claim to
verify: disabling observability costs (close to) nothing — the
acceptance bar for the obs PR is < 2% regression vs. the
uninstrumented seed.  The 400-message pair finishes in about a
millisecond, too short to repeat; the ``stamping_20k`` region times the
same path on 20k messages, and its on/off ratio is hard-gated in
``benchmarks/baselines/bench_baseline.json``.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import emit, record_perf
from repro.clocks.online import OnlineEdgeClock
from repro.graphs.decomposition import decompose
from repro.graphs.generators import client_server_topology
from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry
from repro.sim.workload import random_computation

TOPOLOGY = client_server_topology(3, 27)  # N = 30, d = 3
MESSAGES = 400
REPEATS = 5
STAMPING_MESSAGES = 20_000
STAMPING_REPEATS = 7


def _manual_best(fn) -> float:
    """Best-of-``REPEATS`` fallback when pytest-benchmark is disabled."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("mode", ["off", "on"], ids=["obs-off", "obs-on"])
def test_obs_overhead_snapshot(benchmark, report_header, mode):
    computation = random_computation(TOPOLOGY, MESSAGES, random.Random(11))
    instrument.disable()
    clock = OnlineEdgeClock(decompose(TOPOLOGY))
    if mode == "on":
        instrument.enable(MetricsRegistry())
    try:
        benchmark(clock.timestamp_computation, computation)
        stats = getattr(benchmark, "stats", None)
        if stats is not None and getattr(stats, "stats", None) is not None:
            seconds = stats.stats.min
        else:  # --benchmark-disable: time it by hand
            seconds = _manual_best(
                lambda: clock.timestamp_computation(computation)
            )
    finally:
        instrument.disable()

    rate = MESSAGES / seconds
    record_perf(
        f"online_stamping_{mode}",
        {
            "workload": "client-server:3x27",
            "messages": MESSAGES,
            "seconds": seconds,
            "messages_per_sec": rate,
        },
    )
    report_header(
        f"Observability {mode}: online stamping of {MESSAGES} messages"
    )
    emit(f"instrumentation {mode}: {rate:,.0f} msg/s")


def test_stamping_obs_overhead_20k(report_header):
    """What counting piggyback bytes costs Figure 5 batch stamping.

    Off and on runs are interleaved (off, on, off, on, ...) so host
    drift hits both modes equally, and each mode keeps its minimum of
    ``STAMPING_REPEATS``.  The on runs use a fresh registry inside an
    ``enabled_session``, as ``repro stamp`` under obs does.
    """
    computation = random_computation(
        TOPOLOGY, STAMPING_MESSAGES, random.Random(11)
    )
    clock = OnlineEdgeClock(decompose(TOPOLOGY))
    instrument.disable()

    def one_run() -> float:
        started = time.perf_counter()
        clock.timestamp_computation(computation)
        return time.perf_counter() - started

    off_s = float("inf")
    on_s = float("inf")
    for _ in range(STAMPING_REPEATS):
        off_s = min(off_s, one_run())
        with instrument.enabled_session(MetricsRegistry()):
            on_s = min(on_s, one_run())
    ratio = on_s / off_s
    record_perf(
        "stamping_20k",
        {
            "workload": "client-server:3x27",
            "messages": STAMPING_MESSAGES,
            "off_seconds": off_s,
            "on_seconds": on_s,
            "overhead_ratio": ratio,
        },
    )
    report_header(
        f"Observability cost of online stamping, {STAMPING_MESSAGES:,} "
        "messages"
    )
    emit(
        f"hooks off: {STAMPING_MESSAGES / off_s:,.0f} msg/s; "
        f"on: {STAMPING_MESSAGES / on_s:,.0f} msg/s ({ratio:.3f}x)"
    )


def test_obs_enabled_collects_while_benchmarking(report_header):
    """Enabled-path sanity: the measured run actually recorded data."""
    registry = MetricsRegistry()
    computation = random_computation(TOPOLOGY, 50, random.Random(3))
    with instrument.enabled_session(registry):
        clock = OnlineEdgeClock(decompose(TOPOLOGY))
        clock.timestamp_computation(computation)
        spans = instrument.get_tracer().finished()
    snapshot = registry.snapshot()
    assert snapshot["messages_timestamped_total"]["value"] == 50
    assert snapshot["vector_component_count"]["value"] == 3
    assert any(s.name == "online.timestamp_computation" for s in spans)
    report_header("Observability enabled-path sanity")
    emit(
        "metrics recorded: "
        f"{snapshot['messages_timestamped_total']['value']} messages, "
        f"{len(spans)} span(s)"
    )


def _synthetic_flight_record(messages: int, processes: int = 6):
    """A flight record shaped exactly like the transport's, without
    paying for threads: six events per rendezvous."""
    from repro.obs import flightrec

    recorder = flightrec.FlightRecorder(capacity=messages * 6 + 8)
    names = [f"P{i + 1}" for i in range(processes)]
    for k in range(messages):
        sender = names[k % processes]
        receiver = names[(k + 1) % processes]
        recorder.record(flightrec.SEND_OFFER, sender, peer=receiver)
        recorder.record(
            flightrec.BLOCK_START, sender, peer=receiver, op="send"
        )
        recorder.record(
            flightrec.BLOCK_START, receiver, peer=sender, op="receive"
        )
        recorder.record(
            flightrec.BLOCK_END,
            receiver,
            peer=sender,
            op="receive",
            status="matched",
            seconds=0.0001,
        )
        recorder.record(
            flightrec.RENDEZVOUS,
            receiver,
            peer=sender,
            commit_order=k,
            payload=None,
        )
        recorder.record(
            flightrec.BLOCK_END,
            sender,
            peer=receiver,
            op="send",
            status="matched",
            seconds=0.0001,
        )
    return recorder.events()


def test_timeline_export_throughput(report_header):
    """Trace-export throughput: flight events serialized per second
    into the Perfetto trace-event JSON."""
    from repro.obs.timeline import build_timeline, timeline_json

    events = _synthetic_flight_record(2000)
    seconds = _manual_best(lambda: timeline_json(events))
    rate = len(events) / seconds
    document = build_timeline(events)
    record_perf(
        "timeline_export",
        {
            "flight_events": len(events),
            "trace_events": len(document["traceEvents"]),
            "seconds": seconds,
            "events_per_sec": rate,
        },
    )
    report_header(
        f"Timeline export: {len(events)} flight events -> "
        f"{len(document['traceEvents'])} trace events"
    )
    emit(f"export throughput: {rate:,.0f} flight events/s")


def test_live_telemetry_overhead(report_header):
    """What the telemetry plane costs the multiprocess runtime.

    Off/on load runs are *interleaved* (off, on, off, on, ...) so
    machine drift during the measurement hits both modes equally, and
    the ratio is taken over the per-mode minima — the least
    noise-contaminated estimator of the structural cost on a shared
    box.  The ``telemetry_overhead_ratio`` row is hard-gated at 5%
    over a 1.0 baseline — streaming health monitoring must stay
    effectively free for the data path.
    """
    from repro.obs.live import TelemetryConfig
    from repro.sim.distributed import run_load

    servers, clients, messages = 1, 4, 100
    repeats = 10

    def one_traffic_seconds(telemetry) -> float:
        transport = run_load(
            server_count=servers,
            client_count=clients,
            messages_per_client=messages,
            timeout=60.0,
            telemetry=telemetry,
        )
        stats = transport.stats
        assert stats.timeouts == 0
        assert stats.messages == clients * messages
        return stats.traffic_seconds

    off_s = float("inf")
    on_s = float("inf")
    for _ in range(repeats):
        off_s = min(off_s, one_traffic_seconds(None))
        on_s = min(on_s, one_traffic_seconds(TelemetryConfig()))
    ratio = on_s / off_s
    total = clients * messages
    record_perf(
        "live_telemetry",
        {
            "workload": f"load:{servers}x{clients}x{messages}",
            "messages": total,
            "off_seconds": off_s,
            "on_seconds": on_s,
            "off_messages_per_sec": total / off_s,
            "on_messages_per_sec": total / on_s,
            "telemetry_overhead_ratio": ratio,
        },
    )
    report_header(
        f"Live telemetry plane over {total} messages "
        f"({servers} server(s), {clients} clients)"
    )
    emit(
        f"telemetry off: {total / off_s:,.0f} msg/s; "
        f"on: {total / on_s:,.0f} msg/s ({ratio:.3f}x)"
    )


def test_quantile_sketch_overhead(report_header):
    """Log-bucket sketch cost per observation vs ``Histogram.observe``
    — the sketch buys p50/p95/p99 within 1% for a small constant
    factor."""
    from repro.obs.metrics import DURATION_BUCKETS, Histogram, QuantileSketch

    rng = random.Random(29)
    samples = [rng.random() for _ in range(20_000)]

    def run_histogram():
        histogram = Histogram("h", buckets=DURATION_BUCKETS)
        for value in samples:
            histogram.observe(value)

    def run_sketch():
        sketch = QuantileSketch("s")
        for value in samples:
            sketch.observe(value)

    histogram_s = _manual_best(run_histogram)
    sketch_s = _manual_best(run_sketch)
    ratio = sketch_s / histogram_s
    record_perf(
        "quantile_sketch",
        {
            "observations": len(samples),
            "histogram_ns_per_observe": histogram_s / len(samples) * 1e9,
            "sketch_ns_per_observe": sketch_s / len(samples) * 1e9,
            "sketch_vs_histogram_ratio": ratio,
        },
    )
    report_header(
        f"Quantile sketch overhead over {len(samples)} observations"
    )
    emit(
        f"histogram: {histogram_s / len(samples) * 1e9:,.0f} ns/observe; "
        f"sketch: {sketch_s / len(samples) * 1e9:,.0f} ns/observe "
        f"({ratio:.2f}x)"
    )
