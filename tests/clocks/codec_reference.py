"""Per-varint reference codecs for the piggyback wire formats.

These are the loops :mod:`repro.clocks.delta` and :mod:`repro.sim.wire`
ran before frames were built and parsed with byte operations: one
:func:`~repro.sim.wire.encode_varint` or
:func:`~repro.sim.wire.decode_varint` call per component or pair.  The
equivalence tests drive them next to the shipped codecs and require
byte-identical frames, equal decoded vectors and equal counters.

They are a specification, not a second implementation to maintain:
the reference delta decoder applies each pair before it reads the next,
so unlike the shipped decoder it is not atomic on a rejected frame.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.vector import VectorTimestamp
from repro.sim.wire import (
    PB_TAG_FULL,
    WireError,
    decode_varint,
    encode_varint,
)


def reference_encode_vector(vector) -> bytes:
    return b"".join(encode_varint(component) for component in vector)


def reference_decode_vector(
    data: bytes, size: int, offset: int = 0
) -> Tuple[VectorTimestamp, int]:
    components = []
    for _ in range(size):
        value, offset = decode_varint(data, offset)
        components.append(value)
    return VectorTimestamp(components), offset


class _ReferenceCodec:
    def __init__(self, size: int):
        self._size = size
        self.frames = 0
        self.resyncs = 0
        self.payload_bytes = 0

    def _account(self, blob: bytes, resync: bool) -> None:
        self.frames += 1
        self.payload_bytes += len(blob)
        if resync:
            self.resyncs += 1


class ReferenceFullCodec(_ReferenceCodec):
    def encode(self, key, vector) -> bytes:
        blob = reference_encode_vector(vector)
        self._account(blob, resync=False)
        return blob

    def decode(self, key, blob: bytes) -> VectorTimestamp:
        vector, offset = reference_decode_vector(blob, self._size)
        if offset != len(blob):
            raise WireError(
                f"full piggyback frame has {len(blob) - offset} "
                "trailing byte(s)"
            )
        return vector


class ReferenceDeltaCodec(_ReferenceCodec):
    def __init__(self, size: int, resync_interval: int):
        super().__init__(size)
        self._resync_interval = resync_interval
        self._sent: Dict[object, List[int]] = {}
        self._since_full: Dict[object, int] = {}
        self._received: Dict[object, List[int]] = {}
        self._force: set = set()
        self.delta_frames = 0

    def force_resync(self, key) -> None:
        self._force.add(key)

    def reset_channel(self, key) -> None:
        self._sent.pop(key, None)
        self._since_full.pop(key, None)
        self._received.pop(key, None)
        self._force.discard(key)

    def encode(self, key, vector) -> bytes:
        components = [int(value) for value in vector]
        if len(components) != self._size:
            raise WireError(
                f"cannot encode a {len(components)}-component vector "
                f"on a size-{self._size} channel"
            )
        last = self._sent.get(key)
        if last is None:
            last = [0] * self._size
            self._sent[key] = last
            self._since_full[key] = 0
        want_full = key in self._force or (
            self._resync_interval > 0
            and self._since_full[key] >= self._resync_interval
        )
        blob: Optional[bytes] = None
        if not want_full:
            parts: List[bytes] = []
            for index, (new, old) in enumerate(zip(components, last)):
                if new == old:
                    continue
                if new < old:
                    want_full = True
                    break
                parts.append(encode_varint(index + 1))
                parts.append(encode_varint(new - old))
            if not want_full:
                candidate = b"".join(parts)
                if len(candidate) >= self._size + 1:
                    want_full = True
                else:
                    blob = candidate
        if want_full:
            blob = encode_varint(PB_TAG_FULL) + reference_encode_vector(
                components
            )
            self._force.discard(key)
            self._since_full[key] = 0
        else:
            self._since_full[key] += 1
            self.delta_frames += 1
        last[:] = components
        assert blob is not None
        self._account(blob, resync=want_full)
        return blob

    def decode(self, key, blob: bytes) -> VectorTimestamp:
        last = self._received.get(key)
        if last is None:
            last = [0] * self._size
            self._received[key] = last
        if not blob:
            return VectorTimestamp(last)
        tag, offset = decode_varint(blob, 0)
        if tag == PB_TAG_FULL:
            components = []
            for _ in range(self._size):
                value, offset = decode_varint(blob, offset)
                components.append(value)
            if offset != len(blob):
                raise WireError(
                    "resync frame has trailing bytes after "
                    f"{self._size} components"
                )
            last[:] = components
            return VectorTimestamp(last)
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
            last[index] += increment
            if offset == len(blob):
                return VectorTimestamp(last)
            tag, offset = decode_varint(blob, offset)
