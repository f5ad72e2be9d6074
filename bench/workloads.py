"""Workloads, metric catalogue and the user paths the benchmark times.

Every workload is one path a user of ``repro`` runs:

* the stamp workloads make the same public calls, in the same order, as
  ``python -m repro stamp TRACE --output OUT`` (``cli.cmd_stamp``);
* ``rendezvous-1x1`` calls ``run_load`` the way
  ``python -m repro run-distributed --load`` (``cli.cmd_run_distributed``)
  does.

The runner (:mod:`bench.run`) builds each input from the seed, untimed;
one *repeat* is one call of :func:`run_repeat` in a fresh interpreter
(:mod:`bench.child`).  Coarse phase spans are always recorded, because
they are how ``e2e_s``, ``setup_s`` and the stamping time are measured;
a traced repeat adds the fine spans the layer metrics need.
"""

from __future__ import annotations

import json
import random
import resource
import string
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from bench.spans import SpanRecorder


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``online`` / ``offline`` stamp paths, or ``runtime``.
    path: str
    #: Input size of a measured run and of ``--smoke``.
    size: Dict[str, int]
    smoke: Dict[str, int]
    wire_format: str = "full"
    obs: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "stamp-cs",
            "Figure 5 stamping with narrow vectors (d=3): trace I/O and "
            "the per-message loop do the work; control for codecs, obs, "
            "sockets and decomposition",
            "online",
            {"servers": 3, "clients": 27, "messages": 80_000},
            {"servers": 3, "clients": 27, "messages": 2_000},
        ),
        Workload(
            "stamp-cs-obs",
            "the stamp-cs path inside an obs session, so the fast path "
            "takes its metrics branch; paired with stamp-cs it isolates "
            "the obs cost",
            "online",
            {"servers": 3, "clients": 27, "messages": 80_000},
            {"servers": 3, "clients": 27, "messages": 2_000},
            obs=True,
        ),
        Workload(
            "stamp-federated-delta",
            "wide vectors (d=24) through the differential codec with "
            "frame verification; Figure 7 decomposition is most of its "
            "set-up",
            "online",
            {"clusters": 3, "per_cluster": 3_000},
            {"clusters": 2, "per_cluster": 500},
            wire_format="delta",
        ),
        Workload(
            "offline-federated",
            "the Figure 9 pipeline (closure, Dilworth partition, "
            "realizer) on a block-diagonal poset of width 64; no online "
            "workload touches it",
            "offline",
            {"clusters": 8, "per_cluster": 500},
            {"clusters": 2, "per_cluster": 150},
        ),
        Workload(
            "rendezvous-1x1",
            "closed-loop socket runtime, one client and one server: "
            "coordinator, framing, syscalls and the Figure 5 handshake; "
            "the stamp workloads bypass it",
            "runtime",
            {"messages": 6_000},
            {"messages": 300},
        ),
    )
}

#: End-to-end metrics: ``name -> (unit, better, bound)``.
E2E_METRICS: Dict[str, tuple] = {
    "e2e_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "msgs_per_s": ("msg/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "timestamp_bytes_per_msg": ("B/msg", "lower", 0.02),
}

#: Per-layer metrics: ``name -> (unit, better)``.  Layers are named
#: after the ``repro`` module whose public calls the spans wrap.  A
#: layer a workload's path never calls reads 0 there: those workloads
#: are its controls (see bench/README.md).
LAYER_METRICS: Dict[str, tuple] = {
    "trace_io.parse_s": ("s", "lower"),
    "trace_io.write_s": ("s", "lower"),
    "decomposition.decompose_s": ("s", "lower"),
    "decomposition.size": ("count", "lower"),
    "fastpath.stamp_us_per_msg": ("us/msg", "lower"),
    "fastpath.stamp_wire_us_per_msg": ("us/msg", "lower"),
    "obs.overhead_ratio": ("ratio", "lower"),
    "delta.encode_us_per_frame": ("us/frame", "lower"),
    "delta.decode_us_per_frame": ("us/frame", "lower"),
    "delta.resyncs_per_kmsg": ("1/kmsg", "lower"),
    "message_order.poset_s": ("s", "lower"),
    "chains.partition_s": ("s", "lower"),
    "chains.width": ("count", "lower"),
    "linear_extensions.realizer_s": ("s", "lower"),
    "linear_extensions.ranks_s": ("s", "lower"),
    "distributed.coord_cpu_us_per_msg": ("us/msg", "lower"),
    "distributed.node_cpu_us_per_msg": ("us/msg", "lower"),
    "distributed.coord_busy_ratio": ("ratio", "lower"),
    "distributed.ctx_switches_per_msg": ("1/msg", "lower"),
    "distributed.frames_per_msg": ("1/msg", "lower"),
    "distributed.unattributed_cpu_us_per_msg": ("us/msg", "lower"),
    "distributed.rendezvous_p50_ms": ("ms", "lower"),
    "distributed.rendezvous_p99_ms": ("ms", "lower"),
    "online.clock_us_per_msg": ("us/msg", "lower"),
    "wire.frame_us_per_msg": ("us/msg", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.layer_coverage": ("fraction", "higher"),
}

#: Spans whose self time counts as a layer, per stamp path.
_STAMP_LAYER_SPANS = (
    "trace_io.parse",
    "trace_io.write",
    "decomposition.decompose",
    "fastpath.stamp",
    "fastpath.stamp_wire",
    "delta.encode",
    "delta.decode",
    "message_order.poset",
    "chains.partition",
    "linear_extensions.realizer",
    "linear_extensions.ranks",
)


# ----------------------------------------------------------------------
# Inputs (built by the runner, untimed)
# ----------------------------------------------------------------------
def build_input(workload: Workload, size: Dict[str, int], seed: int,
                trace_path: str) -> Dict[str, Any]:
    """Make the workload's input from ``seed``.

    Stamp workloads get a trace file at ``trace_path`` (the file
    ``repro stamp`` reads); the runtime workload gets its load
    parameters.  The same seed always gives the same input.
    """
    rng = random.Random(seed)
    if workload.path == "runtime":
        payload = "".join(rng.choice(string.ascii_lowercase) for _ in range(8))
        return {"messages": size["messages"], "payload": payload}

    from repro.sim.trace_io import computation_to_dict
    from repro.sim.workload import (
        multi_cluster_computation,
        random_computation,
    )

    if "clusters" in size:
        computation = multi_cluster_computation(
            size["clusters"], size["per_cluster"], rng
        )
    else:
        from repro.graphs.generators import client_server_topology

        computation = random_computation(
            client_server_topology(size["servers"], size["clients"]),
            size["messages"],
            rng,
        )
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(computation_to_dict(computation), handle)
    return {"trace": trace_path, "messages": len(computation)}


# ----------------------------------------------------------------------
# One repeat (runs in a fresh interpreter)
# ----------------------------------------------------------------------
def run_repeat(workload: Workload, inputs: Dict[str, Any], output: str,
               rec: SpanRecorder, traced: bool) -> Dict[str, Any]:
    """Run the workload's user path once and return its measurements."""
    if workload.path == "runtime":
        result = _runtime_repeat(inputs, output, rec, traced)
    elif workload.obs:
        from repro.obs.instrument import enabled_session

        with enabled_session() as bundle:
            result = _stamp_repeat(workload, inputs, output, rec, traced)
        result["clock_bytes"] = bundle.piggyback_bytes_total.value
    else:
        result = _stamp_repeat(workload, inputs, output, rec, traced)
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def _peak_rss_mb() -> float:
    """Peak resident set of this interpreter, in MB.

    Not ``ru_maxrss``: Linux carries it across ``exec``, so it would
    report the runner's resident set whenever that is the larger one.
    ``VmHWM`` belongs to the current image alone.
    """
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _stamp_repeat(workload, inputs, output, rec, traced):
    from repro.clocks.base import TimestampAssignment
    from repro.clocks.offline import OfflineRealizerClock
    from repro.clocks.online import OnlineEdgeClock
    from repro.core.fastpath import stamp_batch_wire
    from repro.graphs.decomposition import decompose
    from repro.sim.trace_io import assignment_to_dict, computation_from_dict
    from repro.sim.wire import parse_wire_format

    result: Dict[str, Any] = {}
    decomposition = None
    with rec.span("e2e"):
        with rec.span("trace_io.parse"):
            with open(inputs["trace"], "r", encoding="utf-8") as handle:
                computation = computation_from_dict(json.load(handle))
        if workload.path == "offline":
            with rec.span("offline.stamp"):
                if traced:
                    assignment = _offline_stages(computation, rec, result)
                else:
                    assignment = OfflineRealizerClock(
                        workers=1
                    ).timestamp_computation(computation)
        elif workload.wire_format == "full":
            with rec.span("decomposition.decompose"):
                decomposition = decompose(computation.topology)
            with rec.span("fastpath.stamp"):
                clock = OnlineEdgeClock(decomposition, workers=1)
                assignment = clock.timestamp_computation(computation)
        else:
            parse_wire_format(workload.wire_format)
            with rec.span("decomposition.decompose"):
                decomposition = decompose(computation.topology)
            with rec.span("fastpath.stamp_wire"), _traced_codecs(
                rec if traced else None
            ):
                timestamps, wire_stats = stamp_batch_wire(
                    computation,
                    decomposition,
                    wire_format=workload.wire_format,
                    verify=True,
                )
                assignment = TimestampAssignment(computation, timestamps)
            result["clock_bytes"] = wire_stats.payload_bytes
            result["resyncs"] = wire_stats.resyncs
        with rec.span("trace_io.write"):
            with open(output, "w", encoding="utf-8") as handle:
                json.dump(assignment_to_dict(assignment), handle, indent=2)

    messages = len(computation)
    stamp_s = (
        rec.seconds("offline.stamp")
        + rec.seconds("fastpath.stamp")
        + rec.seconds("fastpath.stamp_wire")
    )
    result.update(
        messages=messages,
        e2e_s=rec.seconds("e2e"),
        setup_s=rec.seconds("trace_io.parse")
        + rec.seconds("decomposition.decompose"),
        stamp_s=stamp_s,
        msgs_per_s=messages / stamp_s,
    )
    if decomposition is not None:
        result["decomposition_size"] = decomposition.size
    if traced:
        result["layers"] = _stamp_layers(rec, result, messages)
    return result


def _offline_stages(computation, rec, result):
    """``OfflineRealizerClock.timestamp_computation`` one stage at a time.

    The same calls, in the same order, as the serial path of
    ``repro.clocks.offline`` (``workers=1``, matching strategy).
    """
    from repro.clocks.base import TimestampAssignment
    from repro.core.chains import minimum_chain_partition
    from repro.core.linear_extensions import (
        ranks_in_extension,
        realizer_from_chain_partition,
    )
    from repro.core.vector import VectorTimestamp
    from repro.order.message_order import message_poset

    with rec.span("message_order.poset"):
        poset = message_poset(computation)
    with rec.span("chains.partition"):
        chains = minimum_chain_partition(poset)
    with rec.span("linear_extensions.realizer"):
        realizer = realizer_from_chain_partition(poset, chains)
    with rec.span("linear_extensions.ranks"):
        rank_maps = [ranks_in_extension(ext) for ext in realizer]
        timestamps = {
            message: VectorTimestamp(ranks[message] for ranks in rank_maps)
            for message in poset.elements
        }
    result["chains_width"] = len(realizer)
    return TimestampAssignment(computation, timestamps)


@contextmanager
def _traced_codecs(rec: Optional[SpanRecorder]) -> Iterator[None]:
    """Record every codec ``encode``/``decode`` call as a span.

    ``stamp_batch_wire`` looks ``make_codec`` up in ``repro.clocks.delta``
    when it is called, so wrapping the module attribute reaches the
    codec it builds without touching the library.
    """
    if rec is None:
        yield
        return
    from repro.clocks import delta

    original = delta.make_codec

    def make_traced_codec(*args, **kwargs):
        codec = original(*args, **kwargs)
        codec.encode = rec.wrap("delta.encode", codec.encode)
        codec.decode = rec.wrap("delta.decode", codec.decode)
        return codec

    delta.make_codec = make_traced_codec
    try:
        yield
    finally:
        delta.make_codec = original


def _stamp_layers(rec, result, messages):
    own = rec.self_seconds()
    us = 1e6 / messages
    layers = _zero_layers()
    layers.update(
        {
            "trace_io.parse_s": own.get("trace_io.parse", 0.0),
            "trace_io.write_s": own.get("trace_io.write", 0.0),
            "decomposition.decompose_s": own.get(
                "decomposition.decompose", 0.0
            ),
            "decomposition.size": result.get("decomposition_size", 0),
            "fastpath.stamp_us_per_msg": own.get("fastpath.stamp", 0.0) * us,
            "fastpath.stamp_wire_us_per_msg": own.get(
                "fastpath.stamp_wire", 0.0
            )
            * us,
            "message_order.poset_s": own.get("message_order.poset", 0.0),
            "chains.partition_s": own.get("chains.partition", 0.0),
            "chains.width": result.get("chains_width", 0),
            "linear_extensions.realizer_s": own.get(
                "linear_extensions.realizer", 0.0
            ),
            "linear_extensions.ranks_s": own.get(
                "linear_extensions.ranks", 0.0
            ),
            "bench.layer_coverage": sum(
                own.get(name, 0.0) for name in _STAMP_LAYER_SPANS
            )
            / rec.seconds("e2e"),
        }
    )
    for op in ("encode", "decode"):
        calls = rec.count(f"delta.{op}")
        if calls:
            layers[f"delta.{op}_us_per_frame"] = (
                rec.seconds(f"delta.{op}") * 1e6 / calls
            )
    if "resyncs" in result:
        layers["delta.resyncs_per_kmsg"] = result["resyncs"] * 1e3 / messages
    return layers


def _zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name in LAYER_METRICS}


# ----------------------------------------------------------------------
# The socket runtime
# ----------------------------------------------------------------------
def _runtime_repeat(inputs, output, rec, traced):
    from repro.sim import distributed
    from repro.sim.distributed import run_load

    count = inputs["messages"]
    original_decompose = distributed.decompose
    if traced:
        # build_load_scripts resolves ``decompose`` in its module.
        distributed.decompose = rec.wrap(
            "decomposition.decompose", original_decompose
        )
    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        with rec.span("e2e"):
            transport = run_load(
                server_count=1,
                client_count=1,
                messages_per_client=count,
                rate=0.0,
                timeout=30.0,
                transport="unix",
                payload=inputs["payload"],
                wire_format="full",
                telemetry=None,
                slow_clients=0,
                slow_pace=0.0,
                raise_on_error=False,
            )
    finally:
        distributed.decompose = original_decompose
    after_self = resource.getrusage(resource.RUSAGE_SELF)
    after_children = resource.getrusage(resource.RUSAGE_CHILDREN)

    stats = transport.stats
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "log": [
                    [entry.sender, entry.receiver, list(entry.timestamp)]
                    for entry in transport.log
                ],
                "errors": [repr(error) for error in transport.errors],
            },
            handle,
        )
    e2e = rec.seconds("e2e")
    quantiles = stats.block_quantiles_ms()
    result: Dict[str, Any] = {
        "messages": stats.messages,
        "e2e_s": e2e,
        "setup_s": e2e - stats.traffic_seconds,
        "msgs_per_s": stats.messages_per_sec,
        "clock_bytes": stats.piggyback_bytes,
        "rendezvous_p50_ms": quantiles["p50"],
        "rendezvous_p99_ms": quantiles["p99"],
    }
    if traced:
        result["layers"] = _runtime_layers(
            rec,
            inputs,
            transport,
            e2e,
            _cpu(after_self) - _cpu(usage_self),
            _cpu(after_children) - _cpu(usage_children),
            _switches(after_self, after_children)
            - _switches(usage_self, usage_children),
        )
    return result


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _switches(*usages) -> int:
    return sum(u.ru_nvcsw + u.ru_nivcsw for u in usages)


def _runtime_layers(rec, inputs, transport, e2e, coord_cpu, node_cpu,
                    switches):
    """Layer split of a rendezvous: rusage deltas plus a replay.

    Spans cannot enter the node processes, so the clock, codec and
    framing costs come from :func:`_replay_rendezvous`, which makes one
    rendezvous's layer calls in-process for every committed message.
    Whatever CPU the replay does not explain (syscalls, the selector
    loop, the coordinator's bookkeeping) is reported as unattributed.
    """
    messages = transport.stats.messages
    per_msg = 1e6 / messages
    replay = _replay_rendezvous(
        messages, inputs["payload"], transport.decomposition, rec
    )
    replay_cpu = sum(replay.values())
    layers = _zero_layers()
    layers.update(
        {
            "decomposition.decompose_s": rec.seconds(
                "decomposition.decompose"
            ),
            "decomposition.size": transport.decomposition.size,
            # Two frames per message: the offer and the acknowledgement.
            "delta.encode_us_per_frame": replay["delta.encode"]
            * per_msg
            / 2,
            "delta.decode_us_per_frame": replay["delta.decode"]
            * per_msg
            / 2,
            "distributed.coord_cpu_us_per_msg": coord_cpu * per_msg,
            "distributed.node_cpu_us_per_msg": node_cpu * per_msg,
            "distributed.coord_busy_ratio": coord_cpu / e2e,
            "distributed.ctx_switches_per_msg": switches / messages,
            "distributed.frames_per_msg": transport.stats.frames / messages,
            "distributed.unattributed_cpu_us_per_msg": (
                coord_cpu + node_cpu - replay_cpu
            )
            * per_msg,
            "online.clock_us_per_msg": replay["online.clock"] * per_msg,
            "wire.frame_us_per_msg": replay["wire.frame"] * per_msg,
            "bench.layer_coverage": replay_cpu / (coord_cpu + node_cpu),
        }
    )
    return layers


def _replay_rendezvous(messages, payload, decomposition, rec):
    """One client-to-server rendezvous's layer calls, ``messages`` times.

    Mirrors the node worker and coordinator of ``repro.sim.distributed``:
    the client's ``OnlineProcessClock`` send and acknowledgement, the
    server's receive, the ``full`` codec on both legs, and
    ``pack_message``/``unpack_message`` for the five frames (OFFER, RECV,
    DELIVER, ACK_UP, ACK_DOWN).  Each layer's calls run as one timed
    batch, fed with what the layer before produced, so no per-call
    recorder cost lands in the numbers.  Returns seconds per layer.
    """
    from repro.clocks.delta import make_codec
    from repro.clocks.online import OnlineProcessClock
    from repro.sim import wire

    client = OnlineProcessClock("C1", decomposition)
    server = OnlineProcessClock("S1", decomposition)
    client_codec = make_codec("full", decomposition.size)
    server_codec = make_codec("full", decomposition.size)
    forward, backward = ("C1", "S1"), ("S1", "C1")
    with rec.span("online.clock"):
        legs = []
        for _ in range(messages):
            offer = client.prepare_send()
            ack, timestamp = server.on_receive("C1", offer)
            client.on_acknowledgement("S1", ack)
            legs.append((offer, ack, timestamp))
    with rec.span("delta.encode"):
        blobs = [
            (
                client_codec.encode(forward, offer),
                server_codec.encode(backward, ack),
            )
            for offer, ack, _ in legs
        ]
    with rec.span("delta.decode"):
        for offer_blob, ack_blob in blobs:
            server_codec.decode(forward, offer_blob)
            client_codec.decode(backward, ack_blob)
    pack, unpack = wire.pack_message, wire.unpack_message
    with rec.span("wire.frame"):
        for (offer_blob, ack_blob), (_, _, timestamp) in zip(blobs, legs):
            offer = pack(
                wire.MSG_OFFER, {"to": "S1", "payload": payload}, offer_blob
            )
            recv = pack(wire.MSG_RECV, {"source": None})
            _, header, piggy = unpack(offer)
            unpack(recv)
            deliver = pack(
                wire.MSG_DELIVER,
                {"sender": "C1", "payload": header["payload"]},
                piggy,
            )
            unpack(deliver)
            ack_up = pack(
                wire.MSG_ACK_UP, {"timestamp": list(timestamp)}, ack_blob
            )
            _, header, piggy = unpack(ack_up)
            ack_down = pack(
                wire.MSG_ACK_DOWN, {"timestamp": header["timestamp"]}, piggy
            )
            unpack(ack_down)
    return {
        name: rec.seconds(name)
        for name in ("online.clock", "delta.encode", "delta.decode",
                     "wire.frame")
    }
