"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one of the paper's figures (or a
theorem's quantitative claim) and reports the reproduced rows with
``emit``.  Reports are buffered per test and flushed to the real stdout
in fixture teardown with capture suspended, so the reproduction tables
appear in plain ``pytest benchmarks/ --benchmark-only`` output — no
``-s`` needed.
"""

from __future__ import annotations

import datetime
import json
import pathlib
from typing import Dict, List

import pytest

_REPORT_BUFFER: List[str] = []

#: Perf snapshot entries accumulated by the bench tests (see
#: ``record_perf``), flushed to ``BENCH_obs.json`` at session end.
_PERF_SNAPSHOT: Dict[str, object] = {}

#: Batch fast-path snapshot entries (see ``record_batch_perf``),
#: flushed to ``BENCH_batch.json`` at session end.
_BATCH_SNAPSHOT: Dict[str, object] = {}

#: Offline-pipeline snapshot entries (see ``record_offline_perf``),
#: flushed to ``BENCH_offline.json`` at session end.
_OFFLINE_SNAPSHOT: Dict[str, object] = {}

#: Lattice-kernel snapshot entries (see ``record_lattice_perf``),
#: flushed to ``BENCH_lattice.json`` at session end.
_LATTICE_SNAPSHOT: Dict[str, object] = {}

#: Distributed-runtime snapshot entries (see ``record_runtime_perf``),
#: flushed to ``BENCH_runtime.json`` at session end.
_RUNTIME_SNAPSHOT: Dict[str, object] = {}

#: Wire-format shootout entries (see ``record_wire_perf``), flushed to
#: ``BENCH_wire.json`` at session end.
_WIRE_SNAPSHOT: Dict[str, object] = {}

PERF_SNAPSHOT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"
)

BATCH_SNAPSHOT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_batch.json"
)

OFFLINE_SNAPSHOT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_offline.json"
)

LATTICE_SNAPSHOT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_lattice.json"
)

RUNTIME_SNAPSHOT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
)

WIRE_SNAPSHOT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_wire.json"
)


def record_perf(key: str, value) -> None:
    """Add one entry to the ``BENCH_obs.json`` perf snapshot.

    The snapshot tracks the cost of the observability layer run to run
    (messages/sec with instrumentation off vs. on), so perf regressions
    in the hook path show up as a trajectory, not an anecdote.
    """
    _PERF_SNAPSHOT[key] = value


def record_batch_perf(key: str, value) -> None:
    """Add one entry to the ``BENCH_batch.json`` perf snapshot.

    Tracks slow (per-object handshake) vs. fast (``stamp_batch``)
    online stamping throughput across runs.
    """
    _BATCH_SNAPSHOT[key] = value


def record_offline_perf(key: str, value) -> None:
    """Add one entry to the ``BENCH_offline.json`` perf snapshot.

    Tracks the offline (Figure 9) pipeline on the reference dict-of-sets
    poset kernel vs. the bitset kernel: construction, width, and full
    stamping times plus the old-vs-new speedups.
    """
    _OFFLINE_SNAPSHOT[key] = value


def record_lattice_perf(key: str, value) -> None:
    """Add one entry to the ``BENCH_lattice.json`` perf snapshot.

    Tracks ideal-lattice enumeration on the layered-BFS reference vs.
    the chain-indexed bitset kernel: ideals/sec for both, counting vs.
    materializing, and the old-vs-new speedups.
    """
    _LATTICE_SNAPSHOT[key] = value


def record_runtime_perf(key: str, value) -> None:
    """Add one entry to the ``BENCH_runtime.json`` perf snapshot.

    Tracks the multiprocess socket runtime: sustained msg/s through the
    rendezvous pipeline, block-latency percentiles (quantile sketch), and
    piggyback bytes/s measured on the wire.
    """
    _RUNTIME_SNAPSHOT[key] = value


def record_wire_perf(key: str, value) -> None:
    """Add one entry to the ``BENCH_wire.json`` perf snapshot.

    Tracks the piggyback wire-format shootout (full varint vectors vs.
    the differential codec): bytes per message on the wire,
    stamp+encode throughput, and comparison throughput.
    """
    _WIRE_SNAPSHOT[key] = value


def _utc_now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@pytest.fixture(scope="session", autouse=True)
def _write_perf_snapshot():
    """Flush recorded perf entries to ``BENCH_obs.json`` on teardown."""
    _PERF_SNAPSHOT.clear()
    yield
    if not _PERF_SNAPSHOT:
        return
    payload = dict(_PERF_SNAPSHOT)
    off = payload.get("online_stamping_off")
    on = payload.get("online_stamping_on")
    if isinstance(off, dict) and isinstance(on, dict):
        payload["obs_overhead_ratio"] = on["seconds"] / off["seconds"]
    payload["generated_utc"] = _utc_now_iso()
    PERF_SNAPSHOT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="session", autouse=True)
def _write_batch_snapshot():
    """Flush recorded batch entries to ``BENCH_batch.json`` on teardown.

    Smoke runs (``BENCH_BATCH_SMOKE=1``, the CI smoke step) leave the
    committed snapshot untouched; ``BENCH_BATCH_OUT`` redirects the
    (smoke or full) snapshot elsewhere, e.g. a CI artifact directory.
    """
    import os

    _BATCH_SNAPSHOT.clear()
    yield
    if not _BATCH_SNAPSHOT:
        return
    payload = dict(_BATCH_SNAPSHOT)
    slow = payload.get("handshake_path")
    fast = payload.get("batch_path")
    if isinstance(slow, dict) and isinstance(fast, dict):
        payload["batch_speedup"] = slow["seconds"] / fast["seconds"]
    payload["generated_utc"] = _utc_now_iso()
    override = os.environ.get("BENCH_BATCH_OUT")
    if override:
        path = pathlib.Path(override)
        path.parent.mkdir(parents=True, exist_ok=True)
    elif os.environ.get("BENCH_BATCH_SMOKE") == "1":
        return
    else:
        path = BATCH_SNAPSHOT_PATH
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="session", autouse=True)
def _write_offline_snapshot():
    """Flush recorded offline-pipeline entries to ``BENCH_offline.json``.

    Smoke runs (``BENCH_OFFLINE_SMOKE=1``, the CI smoke step) record
    nothing and therefore never rewrite the committed snapshot.
    """
    _OFFLINE_SNAPSHOT.clear()
    yield
    if not _OFFLINE_SNAPSHOT:
        return
    payload = dict(_OFFLINE_SNAPSHOT)
    for size_key in list(payload):
        entry = payload[size_key]
        if not isinstance(entry, dict):
            continue
        reference = entry.get("reference_seconds")
        bitset = entry.get("bitset_seconds")
        if isinstance(reference, float) and isinstance(bitset, float):
            entry["speedup"] = reference / bitset
    payload["generated_utc"] = _utc_now_iso()
    OFFLINE_SNAPSHOT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="session", autouse=True)
def _write_lattice_snapshot():
    """Flush recorded lattice entries to ``BENCH_lattice.json``.

    Smoke runs (``BENCH_LATTICE_SMOKE=1``, the CI smoke step) record
    nothing and therefore never rewrite the committed snapshot.
    """
    _LATTICE_SNAPSHOT.clear()
    yield
    if not _LATTICE_SNAPSHOT:
        return
    payload = dict(_LATTICE_SNAPSHOT)
    for size_key in list(payload):
        entry = payload[size_key]
        if not isinstance(entry, dict):
            continue
        reference = entry.get("reference_seconds")
        kernel = entry.get("kernel_seconds")
        if isinstance(reference, float) and isinstance(kernel, float):
            entry["speedup"] = reference / kernel
    payload["generated_utc"] = _utc_now_iso()
    LATTICE_SNAPSHOT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="session", autouse=True)
def _write_runtime_snapshot():
    """Flush recorded runtime entries to ``BENCH_runtime.json``.

    Smoke runs (``BENCH_RUNTIME_SMOKE=1``, the CI smoke step) leave the
    committed snapshot untouched; set ``BENCH_RUNTIME_OUT`` to write
    the (smoke or full) snapshot somewhere else — the CI job points it
    at the artifact directory it uploads.
    """
    import os

    _RUNTIME_SNAPSHOT.clear()
    yield
    if not _RUNTIME_SNAPSHOT:
        return
    payload = dict(_RUNTIME_SNAPSHOT)
    payload["generated_utc"] = _utc_now_iso()
    override = os.environ.get("BENCH_RUNTIME_OUT")
    if override:
        path = pathlib.Path(override)
        path.parent.mkdir(parents=True, exist_ok=True)
    elif os.environ.get("BENCH_RUNTIME_SMOKE") == "1":
        return
    else:
        path = RUNTIME_SNAPSHOT_PATH
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="session", autouse=True)
def _write_wire_snapshot():
    """Flush recorded wire entries to ``BENCH_wire.json``.

    Smoke runs (``BENCH_WIRE_SMOKE=1``, the CI smoke step) leave the
    committed snapshot untouched; ``BENCH_WIRE_OUT`` redirects the
    (smoke or full) snapshot elsewhere — the CI job points it at the
    artifact directory it uploads.
    """
    import os

    _WIRE_SNAPSHOT.clear()
    yield
    if not _WIRE_SNAPSHOT:
        return
    payload = dict(_WIRE_SNAPSHOT)
    payload["generated_utc"] = _utc_now_iso()
    override = os.environ.get("BENCH_WIRE_OUT")
    if override:
        path = pathlib.Path(override)
        path.parent.mkdir(parents=True, exist_ok=True)
    elif os.environ.get("BENCH_WIRE_SMOKE") == "1":
        return
    else:
        path = WIRE_SNAPSHOT_PATH
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def emit(text: str) -> None:
    """Queue one reproduction row for printing after the test."""
    _REPORT_BUFFER.append(text)


@pytest.fixture(autouse=True)
def _flush_reports(capsys):
    """Print each test's buffered report outside pytest's capture."""
    _REPORT_BUFFER.clear()
    yield
    if _REPORT_BUFFER:
        with capsys.disabled():
            print()
            for line in _REPORT_BUFFER:
                print(line)
    _REPORT_BUFFER.clear()


@pytest.fixture
def report_header(request):
    """Queue a banner naming the experiment."""

    def _header(title: str) -> None:
        emit("")
        emit("=" * 72)
        emit(title)
        emit("=" * 72)

    return _header
