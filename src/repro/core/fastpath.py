"""Batch stamping fast path for the Figure 5 online algorithm.

:class:`~repro.clocks.online.OnlineProcessClock` is faithful to the
paper's per-process handshake, but driving a whole computation through
it allocates two fresh tuple-backed :class:`VectorTimestamp` objects per
message (one ``join``, one ``incremented``).  For batch stamping — the
:meth:`OnlineEdgeClock.timestamp_computation` case, where the entire
computation is in hand — none of that churn is necessary:

* each process gets one mutable list-backed workspace
  (:class:`MutableVector`) updated in place with ``join_into``/``inc``;
* the channel -> edge-group lookups are flattened into per-message
  index tables before the hot loop;
* both handshake sides provably converge to
  ``max(v_sender, v_receiver)`` with the channel's component bumped, so
  one fused join+increment produces the timestamp and the sender
  workspace is synchronized with a plain copy;
* exactly one immutable :class:`VectorTimestamp` is materialized per
  message — the timestamp itself.

The observability contract is preserved: :func:`stamp_batch` reports
*identical* ``_obs`` counter values to the per-object handshake path —
two joins, one message, one ack, and two piggybacked vectors per
message, with the varint payload of each pre-join workspace measured
exactly where the handshake measures its piggybacked/ack vectors.  The
metrics-off loop stays free of any accounting work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List

from repro.core.vector import Number, VectorTimestamp
from repro.obs import instrument as _obs

if TYPE_CHECKING:  # imported lazily to keep repro.core free of cycles
    from repro.graphs.decomposition import EdgeDecomposition
    from repro.sim.computation import Process, SyncComputation, SyncMessage


class MutableVector:
    """A mutable, list-backed vector workspace.

    This is the in-place counterpart of :class:`VectorTimestamp` used by
    the batch stamping loop: ``join_into`` and ``inc`` mutate the
    receiver, and :meth:`freeze` snapshots the current value as an
    immutable :class:`VectorTimestamp`.  Components keep their exact
    numeric types (the workspace never converts ``int`` to ``float``),
    so frozen timestamps are byte-identical to the slow path's.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[Number]):
        self._components: List[Number] = list(components)

    @classmethod
    def zeros(cls, size: int) -> "MutableVector":
        """The all-zero workspace (Figure 5's "initially 0")."""
        if size < 0:
            raise ValueError(f"vector size must be non-negative, got {size}")
        return cls([0] * size)

    # ------------------------------------------------------------------
    # Sequence protocol (read side)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[Number]:
        return iter(self._components)

    def __getitem__(self, index):
        return self._components[index]

    # ------------------------------------------------------------------
    # In-place updates
    # ------------------------------------------------------------------
    def join_into(self, other: "MutableVector") -> None:
        """``self := max(self, other)`` component-wise, in place."""
        mine = self._components
        theirs = other._components
        if len(mine) != len(theirs):
            raise ValueError(
                "cannot join vectors of different sizes: "
                f"{len(mine)} vs {len(theirs)}"
            )
        mine[:] = map(max, mine, theirs)

    def inc(self, index: int, amount: Number = 1) -> None:
        """``self[index] += amount`` in place (the ``v[g]++`` of Figure 5)."""
        components = self._components
        if not 0 <= index < len(components):
            raise IndexError(
                f"component index {index} out of range for size "
                f"{len(components)}"
            )
        components[index] += amount

    def copy_from(self, other: "MutableVector") -> None:
        """Overwrite this workspace with ``other``'s components."""
        if len(self._components) != len(other._components):
            raise ValueError(
                "cannot copy vectors of different sizes: "
                f"{len(self._components)} vs {len(other._components)}"
            )
        self._components[:] = other._components

    def freeze(self) -> VectorTimestamp:
        """An immutable snapshot of the current value."""
        return VectorTimestamp(self._components)

    def __repr__(self) -> str:
        inner = ",".join(str(c) for c in self._components)
        return f"MutableVector([{inner}])"


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
    count = len(messages)

    workspaces: Dict[Process, MutableVector] = {
        process: MutableVector.zeros(size)
        for process in computation.processes
    }

    # Pre-resolve every per-message lookup into flat, index-aligned
    # tables, so the hot loop below does no per-message lookups.
    group_index_of = decomposition.group_index_of
    sender_ws = [workspaces[message.sender] for message in messages]
    receiver_ws = [workspaces[message.receiver] for message in messages]
    groups = [group_index_of(m.sender, m.receiver) for m in messages]

    timestamps: Dict[SyncMessage, VectorTimestamp] = {}
    m = _obs.metrics
    if m is None:
        for position, message in enumerate(messages):
            send = sender_ws[position]
            recv = receiver_ws[position]
            recv.join_into(send)
            recv.inc(groups[position])
            send.copy_from(recv)
            timestamps[message] = recv.freeze()
    else:
        # Metrics branch: measure the varint payload of each pre-join
        # workspace exactly where the handshake measures its
        # piggybacked vector (receiver side sees the sender's pre-send
        # vector; sender side sees the receiver's pre-merge ack), then
        # bulk-apply the per-run counters.  Per-message histogram
        # observations are batched by distinct payload size, which is
        # order-insensitive and therefore snapshot-identical to the
        # handshake's one-at-a-time observes.
        payload_of = _obs.piggyback_size_bytes
        payload_counts: Dict[int, int] = {}
        total_payload = 0
        for position, message in enumerate(messages):
            send = sender_ws[position]
            recv = receiver_ws[position]
            sent = payload_of(send)
            acked = payload_of(recv)
            total_payload += sent + acked
            payload_counts[sent] = payload_counts.get(sent, 0) + 1
            payload_counts[acked] = payload_counts.get(acked, 0) + 1
            recv.join_into(send)
            recv.inc(groups[position])
            send.copy_from(recv)
            timestamps[message] = recv.freeze()
        m.vector_component_count.set(size)
        if count:
            m.vector_joins.inc(2 * count)
            m.messages_timestamped.inc(count)
            m.acks_processed.inc(count)
            m.piggyback_bytes_total.inc(total_payload)
            for payload, times in payload_counts.items():
                m.piggyback_bytes.observe_many(payload, times)
    return timestamps


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
    exactly the state a long-lived connection would carry.  In
    ``bounded:K`` mode both workspaces are saturated to their K hottest
    components before each merge, matching
    ``OnlineProcessClock(bound_k=K)`` timestamp-for-timestamp.

    ``computation`` is a :class:`SyncComputation` (returns a message ->
    timestamp dict) or a plain iterable of ``(sender, receiver)`` pairs
    over ``decomposition.graph`` (returns a list) — the pair form lets
    the 10^6-message wire benchmark stream without materializing a
    message object per send.  ``collect_timestamps=False`` skips the
    per-message freeze entirely and returns ``None`` timestamps.

    ``verify=True`` additionally *decodes* every frame and checks the
    reconstruction against the encoder-side vector — the
    property-test hook proving delta frames are exact.

    Returns ``(timestamps, WireBatchStats)``.
    """
    from repro.clocks.delta import bound_components, make_codec

    if resync_interval is None:
        from repro.clocks.delta import DEFAULT_RESYNC_INTERVAL

        resync_interval = DEFAULT_RESYNC_INTERVAL
    size = decomposition.size
    codec = make_codec(wire_format, size, resync_interval=resync_interval)
    bound_k = codec.bound_k

    message_keyed = hasattr(computation, "messages")
    sends = computation.messages if message_keyed else computation

    workspaces: Dict[Process, MutableVector] = {}
    timestamps_map: "Dict[SyncMessage, VectorTimestamp] | None" = None
    timestamps_list: "List[VectorTimestamp] | None" = None
    if collect_timestamps:
        if message_keyed:
            timestamps_map = {}
        else:
            timestamps_list = []

    count = 0
    for item in sends:
        if message_keyed:
            sender, receiver = item.sender, item.receiver
        else:
            sender, receiver = item
        channel = (sender, receiver)
        group = decomposition.group_index_of(sender, receiver)
        send = workspaces.get(sender)
        if send is None:
            send = workspaces[sender] = MutableVector.zeros(size)
        recv = workspaces.get(receiver)
        if recv is None:
            recv = workspaces[receiver] = MutableVector.zeros(size)
        if bound_k is not None:
            send._components[:] = bound_components(
                send._components, bound_k
            )
            recv._components[:] = bound_components(
                recv._components, bound_k
            )
        offer_blob = codec.encode(channel, send)
        ack_blob = codec.encode((receiver, sender), recv)
        if verify:
            decoded_offer = list(codec.decode(channel, offer_blob))
            if decoded_offer != send._components:
                raise ValueError(
                    f"offer frame on {channel} decoded to "
                    f"{decoded_offer}, expected {send._components}"
                )
            decoded_ack = list(
                codec.decode((receiver, sender), ack_blob)
            )
            if decoded_ack != recv._components:
                raise ValueError(
                    f"ack frame on {(receiver, sender)} decoded to "
                    f"{decoded_ack}, expected {recv._components}"
                )
        recv.join_into(send)
        recv.inc(group)
        send.copy_from(recv)
        count += 1
        if timestamps_map is not None:
            timestamps_map[item] = recv.freeze()
        elif timestamps_list is not None:
            timestamps_list.append(recv.freeze())

    stats = WireBatchStats(
        wire_format=wire_format,
        messages=count,
        frames=codec.frames,
        payload_bytes=codec.payload_bytes,
        resyncs=codec.resyncs,
    )
    if timestamps_map is not None:
        return timestamps_map, stats
    return timestamps_list, stats
