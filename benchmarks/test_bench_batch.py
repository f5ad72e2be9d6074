"""Experiment batch — slow vs. fast online stamping throughput.

Measures the 1k-message scalability workload two ways:

* **handshake path** — the reference Figure 5 implementation: one
  ``OnlineProcessClock`` per process, three handshake calls and two
  fresh immutable vectors per message;
* **batch path** — ``repro.core.fastpath.stamp_batch``: one plain
  ``list[int]`` row per process updated in place, each directed
  channel resolved once to slots and an edge group, one immutable
  vector per message.

The pair is written to ``BENCH_batch.json`` (see
``docs/performance.md`` for the methodology).  The acceptance bar for
this PR: the batch path is at least 2x the handshake path's
messages/sec while producing byte-identical timestamps and identical
``_obs`` counter values.  With ``BENCH_BATCH_SMOKE=1`` (the CI smoke
step) everything runs one round at reduced size and the committed
snapshot is left untouched; ``BENCH_BATCH_OUT`` redirects the snapshot
to another path (the CI artifact directory).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from benchmarks.conftest import emit, record_batch_perf
from repro.clocks.online import OnlineEdgeClock
from repro.graphs.decomposition import decompose
from repro.graphs.generators import client_server_topology
from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry
from repro.sim.workload import random_computation

SMOKE = os.environ.get("BENCH_BATCH_SMOKE") == "1"

TOPOLOGY = client_server_topology(3, 27)  # N = 30, d = 3
MESSAGES = 300 if SMOKE else 1_000
REPEATS = 1 if SMOKE else 5
REQUIRED_SPEEDUP = 2.0


def _workload():
    return random_computation(TOPOLOGY, MESSAGES, random.Random(11))


def _manual_best(fn) -> float:
    """Best-of-``REPEATS`` wall-clock timing (instrumentation off)."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_batch_equals_handshake_exactly(report_header):
    """Byte-identical timestamps and identical counters on both paths."""
    computation = _workload()
    clock = OnlineEdgeClock(decompose(TOPOLOGY))

    with instrument.enabled_session(MetricsRegistry()) as bundle:
        slow = clock.timestamp_computation_handshake(computation)
        slow_counters = bundle.registry.snapshot()
    with instrument.enabled_session(MetricsRegistry()) as bundle:
        fast = clock.timestamp_computation(computation)
        fast_counters = bundle.registry.snapshot()

    for message in computation.messages:
        assert fast.of(message).components == slow.of(message).components
    assert fast_counters == slow_counters

    report_header("Batch fast path: equivalence on the 1k workload")
    emit(
        f"{MESSAGES} messages: timestamps and all "
        f"{len(fast_counters)} metric snapshots identical"
    )


def test_batch_speedup_snapshot(report_header):
    """The headline number: batch vs. handshake messages/sec."""
    computation = _workload()
    clock = OnlineEdgeClock(decompose(TOPOLOGY))
    instrument.disable()

    slow_seconds = _manual_best(
        lambda: clock.timestamp_computation_handshake(computation)
    )
    fast_seconds = _manual_best(
        lambda: clock.timestamp_computation(computation)
    )
    speedup = slow_seconds / fast_seconds

    record_batch_perf(
        "handshake_path",
        {
            "workload": "client-server:3x27",
            "messages": MESSAGES,
            "seconds": slow_seconds,
            "messages_per_sec": MESSAGES / slow_seconds,
        },
    )
    record_batch_perf(
        "batch_path",
        {
            "workload": "client-server:3x27",
            "messages": MESSAGES,
            "seconds": fast_seconds,
            "messages_per_sec": MESSAGES / fast_seconds,
        },
    )
    report_header(
        f"Batch fast path: stamping throughput, {MESSAGES} messages"
    )
    emit(f"handshake path: {MESSAGES / slow_seconds:,.0f} msg/s")
    emit(f"batch path:     {MESSAGES / fast_seconds:,.0f} msg/s")
    emit(f"speedup:        {speedup:.2f}x (required >= {REQUIRED_SPEEDUP}x)")
    assert speedup >= REQUIRED_SPEEDUP


@pytest.mark.parametrize(
    "path", ["handshake", "batch"], ids=["handshake-path", "batch-path"]
)
def test_batch_stamping_benchmark(benchmark, path):
    """pytest-benchmark timings for both paths (``make bench``)."""
    computation = _workload()
    clock = OnlineEdgeClock(decompose(TOPOLOGY))
    instrument.disable()
    target = (
        clock.timestamp_computation_handshake
        if path == "handshake"
        else clock.timestamp_computation
    )
    assignment = benchmark(target, computation)
    assert len(assignment) == MESSAGES
