"""Experiment batch — the piggyback wire-format shootout.

Streams a 10^6-message federated workload (independent client/server
clusters, ``multi_cluster_computation`` — ~100 edge groups after
decomposition but each channel only ever sees its own cluster's slice
of them) through ``stamp_batch_wire`` in each of the two wire
formats and reports, per format:

* **bytes/message** on the wire — offer leg + acknowledgement leg,
  exactly the bytes a socket runtime would carry;
* **stamp+encode throughput** — fused Figure 5 merge plus the codec's
  encode on both legs;
* **compare throughput** — timestamp dominance checks/sec on the
  produced vectors (the consumer side of the trade).

The formats:

``full``
    Every frame is the whole vector as LEB128 varints — the historical
    wire encoding, byte-identical to ``repro.sim.wire.encode_vector``.

``delta``
    Per-channel differential frames (changed components only) with
    periodic full-vector resyncs — the Singhal–Kshemkalyani idea
    generalized from process indices to edge-group components.

A correctness pin runs before any timing: the delta path must produce
**byte-identical** timestamps to the plain ``stamp_batch`` fused
update with every frame decode-verified.  A separate run drives the
real 120-node socket runtime (``run_load``) in full and delta formats
and asserts the >= 2x bytes-on-the-wire reduction the delta codec
exists for.

Results land in ``BENCH_wire.json`` (``make bench-wire``); with
``BENCH_WIRE_SMOKE=1`` (the CI smoke step) everything runs at tiny
sizes and the committed snapshot is left untouched unless
``BENCH_WIRE_OUT`` points somewhere else.
"""

from __future__ import annotations

import os
import random
import time

from benchmarks.conftest import emit, record_wire_perf
from repro.core.fastpath import stamp_batch, stamp_batch_wire
from repro.core.vector import dominates
from repro.graphs.decomposition import decompose
from repro.graphs.generators import ring_topology
from repro.sim.distributed import run_load
from repro.sim.workload import multi_cluster_computation, random_computation

SMOKE = os.environ.get("BENCH_WIRE_SMOKE") == "1"

#: The shootout topology: independent client/server clusters
#: (``multi_cluster_computation``).  The decomposition is wide —
#: one group per server hub across every cluster — but any one channel
#: only ever moves its own cluster's components, so a full vector
#: hauls ~``CLUSTERS * SERVERS`` varints per frame while the
#: differential codec sends the handful that changed.  This is the
#: federated regime the delta format exists for; the ring-gossip
#: steady state (every component advancing between every pair of
#: sends) is its worst case and stays with the ``full`` format.
CLUSTERS = 2 if SMOKE else 12
SERVERS = 4 if SMOKE else 8
CLIENTS = 6 if SMOKE else 22

#: Total messages streamed through each format.
MESSAGE_TARGET = 20_000 if SMOKE else 1_000_000

FORMATS = ("full", "delta")

#: Dominance checks timed for the compare-throughput column.
COMPARE_OPS = 50_000 if SMOKE else 500_000

#: Shape of the socket-runtime reduction run (servers, clients,
#: messages per client) — the 120-node acceptance workload.
LOAD_SHAPE = (2, 10, 3) if SMOKE else (4, 116, 3)

LOAD_TIMEOUT = 30.0 if SMOKE else 90.0


def _cluster_topology():
    """The shootout topology without materializing any messages."""
    return multi_cluster_computation(
        CLUSTERS,
        1,
        random.Random(0),
        server_count=SERVERS,
        client_count=CLIENTS,
    ).topology


def _cluster_pairs(topology, message_target, seed):
    """Stream uniformly random ``(sender, receiver)`` cluster sends.

    Same distribution as ``multi_cluster_computation`` — a random
    client/server channel inside a random cluster, random direction —
    but as a lazy generator, so 10^6 messages never materialize at
    once.
    """
    by_cluster = {}
    for edge in topology.edges:
        u, v = edge.endpoints
        by_cluster.setdefault(u.split("_", 1)[0], []).append((u, v))
    cells = list(by_cluster.values())
    rng = random.Random(seed)
    for _ in range(message_target):
        channels = cells[rng.randrange(len(cells))]
        u, v = channels[rng.randrange(len(channels))]
        if rng.random() < 0.5:
            u, v = v, u
        yield (u, v)


def test_delta_path_is_byte_identical_to_batch():
    """Correctness pin before any timing.

    The delta codec's committed timestamps must equal the plain fused
    update's, and ``verify=True`` decode-checks every frame (offer and
    ack) against the encoder-side vector — including across resync
    boundaries (a tiny resync interval forces several).
    """
    topology = ring_topology(12)
    decomposition = decompose(topology)
    computation = random_computation(topology, 400, random.Random(7))
    expected = stamp_batch(computation, decomposition)
    actual, stats = stamp_batch_wire(
        computation,
        decomposition,
        wire_format="delta",
        resync_interval=5,
        verify=True,
    )
    assert actual == expected
    assert stats.messages == 400
    assert stats.resyncs > 0  # interval 5 must have forced resyncs


def test_wire_format_shootout(report_header):
    """The 10^6-message shootout: bytes/message and throughput."""
    topology = _cluster_topology()
    decomposition = decompose(topology)
    report_header(
        f"Wire-format shootout: {MESSAGE_TARGET:,} messages over "
        f"{CLUSTERS} client/server clusters "
        f"({topology.vertex_count()} processes)"
    )
    emit(
        f"  {decomposition.size} edge groups -> full vector is "
        f">= {decomposition.size} varint bytes per frame"
    )

    bytes_by_format = {}
    for wire_format in FORMATS:
        start = time.perf_counter()
        _, stats = stamp_batch_wire(
            _cluster_pairs(topology, MESSAGE_TARGET, seed=23),
            decomposition,
            wire_format=wire_format,
            collect_timestamps=False,
        )
        elapsed = time.perf_counter() - start
        assert stats.messages == MESSAGE_TARGET
        stamp_encode_per_sec = stats.messages / elapsed

        # Compare throughput: dominance checks over timestamps this
        # format actually commits (a short prefix of the same stream).
        prefix, _ = stamp_batch_wire(
            _cluster_pairs(
                topology, min(4096, MESSAGE_TARGET), seed=23
            ),
            decomposition,
            wire_format=wire_format,
        )
        pair_count = len(prefix) - 1
        checks = 0
        compare_start = time.perf_counter()
        while checks < COMPARE_OPS:
            index = checks % pair_count
            dominates(prefix[index + 1], prefix[index])
            checks += 1
        compare_elapsed = time.perf_counter() - compare_start
        compare_per_sec = checks / compare_elapsed

        record_wire_perf(
            wire_format,
            {
                "wire_format": wire_format,
                "messages": stats.messages,
                "payload_bytes": stats.payload_bytes,
                "bytes_per_message": stats.bytes_per_message,
                "resyncs": stats.resyncs,
                "stamp_encode_per_sec": stamp_encode_per_sec,
                "compare_per_sec": compare_per_sec,
            },
        )
        bytes_by_format[wire_format] = stats.bytes_per_message
        emit(
            f"  {wire_format:<12} {stats.bytes_per_message:8.3f} B/msg"
            f"  {stamp_encode_per_sec:12,.0f} stamp+encode/s"
            f"  {compare_per_sec:12,.0f} compare/s"
            f"  resyncs={stats.resyncs}"
        )
    # The full-size federated shape must show the delta win the codec
    # exists for; the tiny smoke shape only has to stay in the race.
    if not SMOKE:
        assert bytes_by_format["delta"] < bytes_by_format["full"] / 2


def test_distributed_load_delta_reduction(report_header):
    """The acceptance run: >= 2x fewer piggyback bytes on the wire.

    Drives the real multiprocess socket runtime (one OS process per
    node) through the same client-server load in full and delta
    formats; the coordinator measures the actual piggyback bytes it
    relays, so the ratio is wire truth, not an estimate.  The same runs
    also report total frame bytes, control headers included, so the
    delta win is restated on everything the sockets carried.
    """
    servers, clients, messages = LOAD_SHAPE
    report_header(
        f"Socket-runtime reduction: {servers + clients} node "
        f"processes, {servers}x{clients} load"
    )
    bytes_by_format = {}
    frame_bytes_by_format = {}
    for wire_format in ("full", "delta"):
        transport = run_load(
            server_count=servers,
            client_count=clients,
            messages_per_client=messages,
            timeout=LOAD_TIMEOUT,
            wire_format=wire_format,
        )
        stats = transport.stats
        assert stats.timeouts == 0
        bytes_by_format[wire_format] = stats.piggyback_bytes
        frame_bytes_by_format[wire_format] = stats.frame_bytes
        record_wire_perf(
            f"load_{wire_format}",
            {
                "nodes": stats.nodes,
                "messages": stats.messages,
                "piggyback_bytes": stats.piggyback_bytes,
                "piggyback_bytes_per_message": (
                    stats.piggyback_bytes_per_message
                ),
                "frame_bytes": stats.frame_bytes,
                "frame_bytes_per_message": stats.frame_bytes_per_message,
                "delta_resync_total": stats.delta_resync_total,
            },
        )
        emit(
            f"  {wire_format:<6} {stats.piggyback_bytes:8,} piggyback "
            f"bytes ({stats.piggyback_bytes_per_message:.3f} B/msg, "
            f"{stats.nodes} nodes), {stats.frame_bytes:,} frame bytes "
            f"({stats.frame_bytes_per_message:.1f} B/msg)"
        )
    reduction = bytes_by_format["full"] / bytes_by_format["delta"]
    # The same runs on total frame bytes: every byte of every frame,
    # control headers included, in both directions.
    frame_reduction = (
        frame_bytes_by_format["full"] / frame_bytes_by_format["delta"]
    )
    record_wire_perf(
        "load_reduction",
        {
            "wire_reduction_speedup": reduction,
            "frame_reduction_speedup": frame_reduction,
        },
    )
    emit(
        f"  delta reduction: {reduction:.2f}x fewer piggyback bytes, "
        f"{frame_reduction:.3f}x fewer frame bytes"
    )
    # The full-size workload must clear the 2x acceptance bar; the CI
    # smoke shape is too small to amortize and only has to win at all.
    assert reduction >= (1.1 if SMOKE else 2.0)
