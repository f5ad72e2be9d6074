"""Batch stamping fast path for the Figure 5 online algorithm.

:class:`~repro.clocks.online.OnlineProcessClock` is faithful to the
paper's per-process handshake, but driving a whole computation through
it allocates two fresh tuple-backed :class:`VectorTimestamp` objects per
message (one ``join``, one ``incremented``).  For batch stamping — the
:meth:`OnlineEdgeClock.timestamp_computation` case, where the entire
computation is in hand — none of that churn is necessary:

* each process gets one plain ``list[int]`` row of ``d`` components,
  updated in place;
* each directed channel is resolved once to a sender slot, a receiver
  slot and its range-checked edge-group index, so the hot loop makes
  no lookups and no method calls;
* both handshake sides provably converge to
  ``max(v_sender, v_receiver)`` with the channel's component bumped, so
  one fused join+increment produces the timestamp and the sender row
  is synchronized with a slice copy;
* exactly one immutable :class:`VectorTimestamp` is materialized per
  message — the timestamp itself.

The observability contract is preserved: :func:`stamp_batch` reports
*identical* ``_obs`` counter values to the per-object handshake path —
two joins, one message, one ack, and two piggybacked vectors per
message, each sized exactly as the handshake sizes its offer and ack.
The metrics-off loop stays free of any accounting work.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple

from repro.core.vector import VectorTimestamp
from repro.obs import instrument as _obs

if TYPE_CHECKING:  # imported lazily to keep repro.core free of cycles
    from repro.graphs.decomposition import EdgeDecomposition
    from repro.sim.computation import Process, SyncComputation, SyncMessage


def _channel_plan(
    pairs: Iterable[Tuple[Process, Process]],
    decomposition: EdgeDecomposition,
) -> Iterator[Tuple[int, int, int]]:
    """``(sender slot, receiver slot, e(m))`` for each ``(sender,
    receiver)`` pair, where slots index ``decomposition.graph.vertices``.

    Each directed channel is looked up and range-checked once; every
    later message on it reuses the same tuple.
    """
    size = decomposition.size
    group_index_of = decomposition.group_index_of
    slot_of = {
        vertex: slot
        for slot, vertex in enumerate(decomposition.graph.vertices)
    }
    channels: Dict[Tuple[Process, Process], Tuple[int, int, int]] = {}
    for sender, receiver in pairs:
        channel = (sender, receiver)
        entry = channels.get(channel)
        if entry is None:
            group = group_index_of(sender, receiver)
            if not 0 <= group < size:
                raise IndexError(
                    f"edge group {group} of channel {sender}->{receiver} "
                    f"is out of range for {size} component(s)"
                )
            entry = channels[channel] = (
                slot_of[sender],
                slot_of[receiver],
                group,
            )
        yield entry


def stamp_batch(
    computation: SyncComputation, decomposition: EdgeDecomposition
) -> Dict[SyncMessage, VectorTimestamp]:
    """Timestamp every message of ``computation`` with the Figure 5
    algorithm in one pass, returning the message -> timestamp map.

    Produces timestamps identical to running the per-process handshake
    (:class:`~repro.clocks.online.OnlineProcessClock`) message by
    message: after a handshake both sides hold
    ``max(v_sender, v_receiver)`` with component ``e(m)`` incremented,
    so the fused update below is exact, not an approximation.
    """
    size = decomposition.size
    messages = computation.messages
    plan = list(
        _channel_plan(
            ((message.sender, message.receiver) for message in messages),
            decomposition,
        )
    )
    rows = [[0] * size for _ in decomposition.graph.vertices]

    stamps: List[VectorTimestamp] = []
    append = stamps.append
    m = _obs.metrics
    if m is None:
        for s, r, g in plan:
            send = rows[s]
            recv = rows[r]
            recv[:] = map(max, recv, send)
            recv[g] += 1
            send[:] = recv
            append(VectorTimestamp(recv))
    else:
        # Metrics branch.  The handshake sizes each participant's vector
        # before the message: the sender's offer and the receiver's ack.
        # A row changes only when its process takes part in a message,
        # and then it equals v(m), so each message's row is sized once,
        # after the update, and the size is cached for both
        # participants; an untouched all-zero row costs d bytes.
        # Components are counters no larger than the message count, so
        # row_size_bytes equals piggyback_size_bytes on every row.  The
        # histogram is fed once per distinct size, which is
        # snapshot-identical to the handshake's one observe per leg.
        row_size = _obs.row_size_bytes
        sizes = [size] * len(rows)
        payloads: List[int] = []
        record = payloads.append
        for s, r, g in plan:
            send = rows[s]
            recv = rows[r]
            record(sizes[s])
            record(sizes[r])
            recv[:] = map(max, recv, send)
            recv[g] += 1
            send[:] = recv
            append(VectorTimestamp(recv))
            sizes[s] = sizes[r] = row_size(recv)
        count = len(plan)
        m.vector_component_count.set(size)
        if count:
            m.vector_joins.inc(2 * count)
            m.messages_timestamped.inc(count)
            m.acks_processed.inc(count)
            m.piggyback_bytes_total.inc(sum(payloads))
            for payload, times in Counter(payloads).items():
                m.piggyback_bytes.observe_many(payload, times)
    return dict(zip(messages, stamps))


class WireBatchStats:
    """What one :func:`stamp_batch_wire` run put on the (virtual) wire."""

    __slots__ = (
        "wire_format",
        "messages",
        "frames",
        "payload_bytes",
        "resyncs",
    )

    def __init__(
        self,
        wire_format: str,
        messages: int,
        frames: int,
        payload_bytes: int,
        resyncs: int,
    ):
        self.wire_format = wire_format
        self.messages = messages
        self.frames = frames
        self.payload_bytes = payload_bytes
        self.resyncs = resyncs

    @property
    def bytes_per_message(self) -> float:
        """Piggyback payload bytes per message, **both** handshake legs
        (offer + acknowledgement) — the same accounting the distributed
        coordinator's ``piggyback_bytes`` uses."""
        return self.payload_bytes / self.messages if self.messages else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "wire_format": self.wire_format,
            "messages": self.messages,
            "frames": self.frames,
            "payload_bytes": self.payload_bytes,
            "resyncs": self.resyncs,
            "bytes_per_message": self.bytes_per_message,
        }

    def __repr__(self) -> str:
        return (
            f"WireBatchStats({self.wire_format}, "
            f"messages={self.messages}, "
            f"bytes_per_message={self.bytes_per_message:.2f})"
        )


def stamp_batch_wire(
    computation,
    decomposition: EdgeDecomposition,
    wire_format: str = "delta",
    resync_interval: "int | None" = None,
    collect_timestamps: bool = True,
    verify: bool = False,
):
    """Batch-stamp while running the piggyback wire codec per channel.

    The merge itself is the :func:`stamp_batch` fused update; on top of
    it every handshake leg (offer and acknowledgement) is *encoded*
    through one shared :class:`~repro.clocks.delta.PiggybackCodec`
    whose per-channel snapshots persist **across the whole batch** —
    exactly the state a long-lived connection would carry.

    ``computation`` is a :class:`SyncComputation` (returns a message ->
    timestamp dict) or a plain iterable of ``(sender, receiver)`` pairs
    over ``decomposition.graph`` (returns a list) — the pair form lets
    the 10^6-message wire benchmark stream without materializing a
    message object per send.  ``collect_timestamps=False`` builds no
    per-message timestamp at all and returns ``None`` timestamps.

    ``verify=True`` additionally *decodes* every frame and checks the
    reconstruction against the encoder-side vector — the
    property-test hook proving delta frames are exact.

    Returns ``(timestamps, WireBatchStats)``.
    """
    from repro.clocks.delta import make_codec

    if resync_interval is None:
        from repro.clocks.delta import DEFAULT_RESYNC_INTERVAL

        resync_interval = DEFAULT_RESYNC_INTERVAL
    size = decomposition.size
    codec = make_codec(wire_format, size, resync_interval=resync_interval)

    message_keyed = hasattr(computation, "messages")
    if message_keyed:
        pairs = (
            (message.sender, message.receiver)
            for message in computation.messages
        )
    else:
        pairs = computation
    vertices = decomposition.graph.vertices
    rows = [[0] * size for _ in vertices]
    stamps: "List[VectorTimestamp] | None" = (
        [] if collect_timestamps else None
    )

    count = 0
    for s, r, group in _channel_plan(pairs, decomposition):
        send = rows[s]
        recv = rows[r]
        offer_key = (s, r)
        ack_key = (r, s)
        offer_blob = codec.encode(offer_key, send)
        ack_blob = codec.encode(ack_key, recv)
        if verify:
            decoded_offer = codec.decode(offer_key, offer_blob)
            if decoded_offer.components != tuple(send):
                raise ValueError(
                    f"offer frame on {vertices[s]}->{vertices[r]} "
                    f"decoded to {list(decoded_offer)}, expected {send}"
                )
            decoded_ack = codec.decode(ack_key, ack_blob)
            if decoded_ack.components != tuple(recv):
                raise ValueError(
                    f"ack frame on {vertices[r]}->{vertices[s]} "
                    f"decoded to {list(decoded_ack)}, expected {recv}"
                )
        recv[:] = map(max, recv, send)
        recv[group] += 1
        send[:] = recv
        count += 1
        if stamps is not None:
            stamps.append(VectorTimestamp(recv))

    stats = WireBatchStats(
        wire_format=wire_format,
        messages=count,
        frames=codec.frames,
        payload_bytes=codec.payload_bytes,
        resyncs=codec.resyncs,
    )
    if stamps is not None and message_keyed:
        return dict(zip(computation.messages, stamps)), stats
    return stamps, stats
