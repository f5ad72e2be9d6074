"""Differential piggyback codecs for the online edge clock.

The Figure 5 algorithm pays ``O(k)`` vector components on every message
even though consecutive sends on a channel rarely change more than a
few of them.  This module generalizes the Singhal–Kshemkalyani
differential idea (:mod:`repro.clocks.singhal_kshemkalyani`, which is
indexed by *process*) to the paper's **edge-group components**: each
directed channel keeps a last-sent snapshot on the encoder side and a
last-received snapshot on the decoder side, and a frame carries only
the ``(component_index, value)`` pairs that changed since the previous
frame on that channel.

Two piggyback wire formats (negotiated per connection in the control
header, see :func:`repro.sim.wire.parse_wire_format`):

``full``
    The existing LEB128 vector — one varint per component, exactly the
    bytes :func:`repro.sim.wire.encode_vector` has always produced.

``delta``
    Stateful differential frames.  The blob is a varint stream whose
    first varint is a *tag*: ``0`` introduces a **full resync frame**
    (all ``size`` components, absolute); ``tag >= 1`` is the first
    changed index plus one, followed by the value *increment*, then
    further ``(index+1, increment)`` pairs to the end of the blob.  An
    **empty blob** means "nothing changed" — the common first frame,
    since both endpoints initialise the channel snapshot to the
    all-zero vector.  Per-process vectors are monotone under Figure 5
    (join + increment only), so increments are always >= 1 and the
    reconstruction is *exact*: committed timestamps are byte-identical
    to the full-vector path (property-tested).  Resyncs are emitted
    periodically (``resync_interval``), on :meth:`force_resync` (a
    reclaimed/timed-out offer whose frame never reached the decoder),
    and whenever the delta would be at least ``size + 1`` bytes long,
    the length of the shortest resync frame (a one-byte tag and one
    byte per component).  A frame whose tags and increments all fit in
    one byte (the common case: ``size <= 127``, increments below 128)
    is built by slice assignment and read back as its even and odd
    bytes; any other frame goes one varint at a time, to the same
    bytes.  The decoder validates a whole frame before it applies any
    of it, so a rejected frame leaves the channel snapshot unchanged.

Observability follows the house discipline (read ``instrument.metrics``
through the module object at call time, ``None``-test fast path):
the delta codec feeds ``piggyback_delta_bytes_total`` and
``delta_resync_total`` when instrumentation is on and costs nothing
when it is off.

Concurrency contract: a codec instance may be shared by many threads
as long as each *channel key* is driven by the rendezvous protocol
(one in-flight frame per directed channel) — per-key state is only
ever touched by the channel's two endpoints in rendezvous order, and
the dict operations themselves are atomic under CPython.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import sub
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.vector import VectorTimestamp
from repro.obs import instrument as _obs
from repro.sim.wire import (
    PB_TAG_FULL,
    WIRE_FORMAT_DELTA,
    WIRE_FORMAT_FULL,
    WireError,
    decode_varint,
    decode_varints,
    encode_varints,
    parse_wire_format,
)

__all__ = [
    "DEFAULT_RESYNC_INTERVAL",
    "DeltaChannelCodec",
    "FullVectorCodec",
    "PiggybackCodec",
    "make_codec",
]

#: Delta frames between two full resync frames on one channel.  Small
#: enough that a silently diverged snapshot (which the timestamp
#: cross-checks would surface anyway) self-heals quickly; large enough
#: that steady-state traffic pays the full vector almost never.
DEFAULT_RESYNC_INTERVAL = 64

ChannelKey = Hashable


class PiggybackCodec:
    """Base class: per-channel encode/decode of piggybacked vectors.

    ``encode`` consumes any int sequence (a :class:`VectorTimestamp`
    or one of the fast path's ``list[int]`` rows); ``decode`` returns
    an immutable :class:`VectorTimestamp`.  Subclasses keep whatever
    per-channel state their format needs and count their own frames.
    """

    kind: str = WIRE_FORMAT_FULL

    def __init__(self, size: int):
        if size < 0:
            raise WireError(f"vector size must be >= 0, got {size}")
        self._size = size
        self.frames = 0
        self.resyncs = 0
        self.payload_bytes = 0

    @property
    def size(self) -> int:
        return self._size

    def encode(self, key: ChannelKey, vector) -> bytes:
        raise NotImplementedError

    def decode(self, key: ChannelKey, blob: bytes) -> VectorTimestamp:
        raise NotImplementedError

    def force_resync(self, key: ChannelKey) -> None:
        """Request that the next frame on ``key`` be self-describing.

        No-op for stateless formats; the delta codec uses it after a
        timed-out offer whose frame the decoder never saw.
        """

    def reset_channel(self, key: ChannelKey) -> None:
        """Forget both snapshots of ``key`` (a reconnect).

        Both endpoints of a re-established channel start from the
        all-zero snapshot again, exactly like a fresh connection, so a
        reconnect needs no out-of-band handshake.
        """

    def stats_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "frames": self.frames,
            "resyncs": self.resyncs,
            "payload_bytes": self.payload_bytes,
        }

    def _account(self, blob: bytes, resync: bool) -> None:
        self.frames += 1
        self.payload_bytes += len(blob)
        if resync:
            self.resyncs += 1
        if self.kind != WIRE_FORMAT_FULL:
            m = _obs.metrics
            if m is not None:
                m.piggyback_delta_bytes.inc(len(blob))
                if resync:
                    m.delta_resync_total.inc()


class FullVectorCodec(PiggybackCodec):
    """The baseline format: one LEB128 varint per component.

    Byte-for-byte the historical wire encoding — a ``full`` connection
    is indistinguishable from one predating this module.
    """

    kind = WIRE_FORMAT_FULL

    def encode(self, key: ChannelKey, vector) -> bytes:
        blob = encode_varints(vector)
        self._account(blob, resync=False)
        return blob

    def decode(self, key: ChannelKey, blob: bytes) -> VectorTimestamp:
        components, offset = decode_varints(blob, self._size)
        if offset != len(blob):
            raise WireError(
                f"full piggyback frame has {len(blob) - offset} "
                "trailing byte(s)"
            )
        return VectorTimestamp(components)


class DeltaChannelCodec(PiggybackCodec):
    """Stateful differential frames with periodic full resyncs."""

    kind = WIRE_FORMAT_DELTA

    def __init__(
        self,
        size: int,
        resync_interval: int = DEFAULT_RESYNC_INTERVAL,
    ):
        super().__init__(size)
        if resync_interval < 0:
            raise WireError(
                "resync_interval must be >= 0 (0 disables periodic "
                f"resyncs), got {resync_interval}"
            )
        self._resync_interval = resync_interval
        self._tags = range(1, size + 1)
        self._sent: Dict[ChannelKey, List[int]] = {}
        self._since_full: Dict[ChannelKey, int] = {}
        self._received: Dict[ChannelKey, List[int]] = {}
        self._force: set = set()
        self.delta_frames = 0

    @property
    def resync_interval(self) -> int:
        return self._resync_interval

    def force_resync(self, key: ChannelKey) -> None:
        self._force.add(key)

    def reset_channel(self, key: ChannelKey) -> None:
        self._sent.pop(key, None)
        self._since_full.pop(key, None)
        self._received.pop(key, None)
        self._force.discard(key)

    def stats_dict(self) -> Dict[str, object]:
        stats = super().stats_dict()
        stats["delta_frames"] = self.delta_frames
        return stats

    # ------------------------------------------------------------------
    def _delta_blob(
        self, components: List[int], last: List[int]
    ) -> Optional[bytes]:
        """The delta frame from ``last`` to ``components``, or ``None``
        when a resync frame must replace it."""
        steps = list(map(sub, components, last))
        increments = list(filter(None, steps))
        if not increments:
            return b""
        # Non-monotone input (never the Figure 5 clock) cannot be
        # expressed by increments.  And a delta takes at least two
        # bytes per changed component: one no shorter than the
        # shortest resync frame (size + 1 bytes) is not worth the
        # statefulness.  Either way, resync instead.
        if min(increments) < 0 or 2 * len(increments) > self._size:
            return None
        tags = list(compress(self._tags, steps))
        if tags[-1] < 0x80 and max(increments) < 0x80:
            frame = bytearray(2 * len(tags))
            frame[0::2] = tags
            frame[1::2] = increments
            return bytes(frame)
        blob = encode_varints(
            list(chain.from_iterable(zip(tags, increments)))
        )
        return blob if len(blob) <= self._size else None

    def encode(self, key: ChannelKey, vector) -> bytes:
        components = list(vector)
        if len(components) != self._size:
            raise WireError(
                f"cannot encode a {len(components)}-component vector "
                f"on a size-{self._size} channel"
            )
        last = self._sent.get(key)
        if last is None:
            last = self._sent[key] = [0] * self._size
            self._since_full[key] = 0
        blob: Optional[bytes] = None
        if key not in self._force and not (
            self._resync_interval
            and self._since_full[key] >= self._resync_interval
        ):
            blob = self._delta_blob(components, last)
        resync = blob is None
        if resync:
            blob = encode_varints([PB_TAG_FULL, *components])
            self._force.discard(key)
            self._since_full[key] = 0
        else:
            self._since_full[key] += 1
            self.delta_frames += 1
        last[:] = components
        self._account(blob, resync=resync)
        return blob

    def decode(self, key: ChannelKey, blob: bytes) -> VectorTimestamp:
        last = self._received.get(key)
        if last is None:
            last = self._received[key] = [0] * self._size
        if not blob:
            return VectorTimestamp(last)
        # A frame of one-byte, nonzero varints in pairs is a delta frame
        # whose tags and increments are its even and odd bytes.
        if not len(blob) & 1 and 0 not in blob and blob.isascii():
            tags = blob[0::2]
            if max(tags) <= self._size:
                for tag, increment in zip(tags, blob[1::2]):
                    last[tag - 1] += increment
                return VectorTimestamp(last)
        self._apply_frame(last, blob)
        return VectorTimestamp(last)

    def _apply_frame(self, last: List[int], blob: bytes) -> None:
        """Decode any frame into ``last``, one varint at a time.

        Every pair is validated before the first is applied, so a
        rejected frame leaves the channel snapshot untouched.
        """
        tag, offset = decode_varint(blob, 0)
        if tag == PB_TAG_FULL:
            components, offset = decode_varints(blob, self._size, offset)
            if offset != len(blob):
                raise WireError(
                    "resync frame has trailing bytes after "
                    f"{self._size} components"
                )
            last[:] = components
            return
        pairs = []
        while True:
            index = tag - 1
            if not 0 <= index < self._size:
                raise WireError(
                    f"delta frame names component {index} of a "
                    f"size-{self._size} vector"
                )
            increment, offset = decode_varint(blob, offset)
            if increment == 0:
                raise WireError("delta frame carries a zero increment")
            pairs.append((index, increment))
            if offset == len(blob):
                break
            tag, offset = decode_varint(blob, offset)
        for index, increment in pairs:
            last[index] += increment


def make_codec(
    wire_format: str,
    size: int,
    resync_interval: int = DEFAULT_RESYNC_INTERVAL,
) -> PiggybackCodec:
    """Build the codec for a ``full`` or ``delta`` spec."""
    if parse_wire_format(wire_format) == WIRE_FORMAT_FULL:
        return FullVectorCodec(size)
    return DeltaChannelCodec(size, resync_interval=resync_interval)


# ----------------------------------------------------------------------
# Channel-key helpers
# ----------------------------------------------------------------------
def channel_key(src, dst) -> Tuple:
    """The directed-channel key both endpoints agree on.

    Every frame from ``src`` to ``dst`` — program-message offers *and*
    Figure 5 acknowledgements — shares one snapshot stream: the
    rendezvous protocol keeps at most one frame per directed channel in
    flight, so encoder order and decoder order provably coincide.
    """
    return (src, dst)
