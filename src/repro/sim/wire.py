"""Wire format of the distributed rendezvous runtime.

Everything that travels between a node process and the coordinator is
one *frame*: a 4-byte big-endian length followed by that many payload
bytes.  A payload is::

    u8  kind        (one of the ``MSG_*`` constants)
    u32 header_len  (big-endian)
    header_len bytes of UTF-8 JSON  (control-plane metadata)
    the rest: the piggybacked vector, one unsigned LEB128 varint per
              component (the *data plane* — exactly the bytes the
              paper's Figure 5 algorithm puts on the wire)

The split is deliberate: the JSON header carries harness metadata
(payload, peer names, the receiver-computed timestamp used for the
sender-side cross-check) that a real deployment would fold into its own
message envelope, while the trailing vector bytes are the *actual
piggyback cost* of the clock algorithm.  ``piggyback_size_bytes``
accounting in the coordinator counts ``len(vector_bytes)`` of real
frames, so the reported bytes/s is measured on the wire, not modelled.

The LEB128 codec here is the binary twin of
:func:`repro.obs.instrument.piggyback_size_bytes`: for every vector,
``len(encode_vector(v)) == piggyback_size_bytes(v)`` (pinned by
``tests/sim/test_distributed.py``), which keeps the byte accounting of
the threaded and socket runtimes directly comparable.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.vector import VectorTimestamp
from repro.exceptions import SimulationError

# ----------------------------------------------------------------------
# Message kinds
# ----------------------------------------------------------------------
MSG_HELLO = 1  #: node -> coord: {"node": name}
MSG_OFFER = 2  #: node -> coord: {"to": name, "payload": ...} + v_i bytes
MSG_RECV = 3  #: node -> coord: {"source": name | None}
MSG_DELIVER = 4  #: coord -> node: {"sender": name, "payload": ...} + v bytes
MSG_ACK_UP = 5  #: node -> coord: {"timestamp": [...]} + pre-merge ack bytes
MSG_ACK_DOWN = 6  #: coord -> node: {"timestamp": [...]} + ack bytes
MSG_INTERNAL = 7  #: node -> coord: {"label": str}
MSG_DONE = 8  #: node -> coord: script finished cleanly
MSG_FAIL = 9  #: node -> coord: {"error": repr} script died
MSG_TIMEOUT = 10  #: coord -> node: {"op": "send"|"receive"} wait expired
MSG_CRASHED = 11  #: node -> coord: {"reason": str} fault injection
MSG_SHUTDOWN = 12  #: coord -> node: run is over / poisoned, stop now
MSG_TELEMETRY = 13  #: node -> coord: fire-and-forget metric/flight push

#: Upper bound on a single frame; anything bigger is a protocol error,
#: not a message (prevents a corrupt length prefix from allocating GiBs).
MAX_FRAME_BYTES = 1 << 24

_LEN = struct.Struct(">I")
_HEAD = struct.Struct(">BI")


class WireError(SimulationError):
    """A malformed frame, a closed peer, or a protocol violation."""


# ----------------------------------------------------------------------
# Piggyback wire formats
# ----------------------------------------------------------------------
#: The historical encoding: one LEB128 varint per vector component.
WIRE_FORMAT_FULL = "full"
#: Stateful differential frames (see :mod:`repro.clocks.delta`).
WIRE_FORMAT_DELTA = "delta"

#: First varint of a delta-format blob: 0 introduces a full-vector
#: resync frame; any value >= 1 is the first changed index plus one.
PB_TAG_FULL = 0


def parse_wire_format(spec: str) -> str:
    """Validate a ``full`` / ``delta`` spec and return it.

    The same string travels in the ``MSG_HELLO`` control header, where
    the coordinator rejects any node whose negotiated format differs
    from the run's — mixing stateful delta channels with full-vector
    peers would silently desynchronise the snapshots.
    """
    if not isinstance(spec, str):
        raise WireError(f"wire format must be a string, got {spec!r}")
    if spec in (WIRE_FORMAT_FULL, WIRE_FORMAT_DELTA):
        return spec
    raise WireError(f"unknown wire format {spec!r} (expected full or delta)")


# ----------------------------------------------------------------------
# LEB128 vector codec
# ----------------------------------------------------------------------
def encode_varint(value: int) -> bytes:
    """One unsigned LEB128 varint (7 bits per byte, little groups first)."""
    if value < 0:
        raise WireError(f"cannot varint-encode negative value {value}")
    out = bytearray()
    while True:
        group = value & 0x7F
        value >>= 7
        if value:
            out.append(group | 0x80)
        else:
            out.append(group)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one varint; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WireError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise WireError("varint exceeds 64 bits")


def encode_varints(values: Sequence[int]) -> bytes:
    """The varints of ``values``, concatenated.

    A value below ``0x80`` is its own one-byte varint, so a run of them
    is built by one ``bytes`` call; any other run falls back to
    :func:`encode_varint` per value.
    """
    if not values or (max(values) < 0x80 and min(values) >= 0):
        return bytes(values)
    return b"".join(map(encode_varint, values))


def decode_varints(
    data: bytes, count: int, offset: int = 0
) -> Tuple[List[int], int]:
    """Decode ``count`` varints; returns ``(values, next_offset)``.

    When the next ``count`` bytes are all below ``0x80``, each is one
    whole varint and the run is read as one slice; otherwise the
    values are decoded one :func:`decode_varint` at a time.
    """
    end = offset + count
    run = data[offset:end]
    if len(run) == count and max(run, default=0) < 0x80:
        return list(run), end
    values = []
    for _ in range(count):
        value, offset = decode_varint(data, offset)
        values.append(value)
    return values, offset


def encode_vector(vector: VectorTimestamp) -> bytes:
    """The piggyback bytes of one vector: LEB128 per component."""
    return encode_varints(vector)


def decode_vector(
    data: bytes, size: int, offset: int = 0
) -> Tuple[VectorTimestamp, int]:
    """Decode ``size`` components; returns ``(vector, next_offset)``."""
    components, offset = decode_varints(data, size, offset)
    return VectorTimestamp(components), offset


# ----------------------------------------------------------------------
# Frame packing
# ----------------------------------------------------------------------
def pack_message(
    kind: int, header: Dict[str, Any], vector_bytes: bytes = b""
) -> bytes:
    """Assemble one frame payload (kind + JSON header + vector bytes)."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _HEAD.pack(kind, len(head)) + head + vector_bytes


def unpack_message(payload: bytes) -> Tuple[int, Dict[str, Any], bytes]:
    """Split a frame payload back into ``(kind, header, vector_bytes)``."""
    if len(payload) < _HEAD.size:
        raise WireError(f"short frame payload ({len(payload)} bytes)")
    kind, head_len = _HEAD.unpack_from(payload)
    body_start = _HEAD.size + head_len
    if body_start > len(payload):
        raise WireError("frame header overruns the payload")
    try:
        header = json.loads(payload[_HEAD.size:body_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"bad frame header: {exc}") from exc
    return kind, header, payload[body_start:]


# ----------------------------------------------------------------------
# Incremental framing (for the coordinator's selector loop)
# ----------------------------------------------------------------------
class FrameBuffer:
    """Reassembles frames from a non-blocking byte stream.

    The coordinator reads whatever the kernel has and feeds it here;
    :meth:`pop_frame` yields complete payloads as they form.  One
    instance per connection.
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._data.extend(chunk)

    def pop_frame(self) -> Optional[bytes]:
        """The next complete frame payload, or ``None`` if partial."""
        if len(self._data) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(self._data)
        if length > MAX_FRAME_BYTES:
            raise WireError(
                f"incoming frame claims {length} bytes "
                f"(cap {MAX_FRAME_BYTES}); stream is corrupt"
            )
        end = _LEN.size + length
        if len(self._data) < end:
            return None
        payload = bytes(self._data[_LEN.size:end])
        del self._data[:end]
        return payload

    def pop_message(self) -> Optional[Tuple[int, Dict[str, Any], bytes]]:
        payload = self.pop_frame()
        if payload is None:
            return None
        return unpack_message(payload)


def _sendall(sock, data: bytes) -> None:
    """``sendall`` that survives ``EINTR`` with partial progress.

    PEP 475 makes most syscalls retry on ``EINTR`` automatically, but a
    signal handler that raises still aborts ``sock.sendall`` with an
    unknown number of bytes already written — resending from the start
    would corrupt the frame stream.  A manual ``send`` loop knows
    exactly how far it got, so an ``InterruptedError`` simply retries
    the remainder.
    """
    view = memoryview(data)
    while view:
        try:
            sent = sock.send(view)
        except InterruptedError:
            continue
        if sent <= 0:
            raise WireError("socket refused to accept frame bytes")
        view = view[sent:]


def _recv_retry(sock, count: int) -> bytes:
    """One ``recv`` call, retried across ``EINTR`` interruptions."""
    while True:
        try:
            return sock.recv(count)
        except InterruptedError:
            continue


def send_message(
    sock: socket.socket,
    kind: int,
    header: Dict[str, Any],
    vector_bytes: bytes = b"",
) -> int:
    """Frame and send one message on a raw socket.

    Returns the bytes written, the 4-byte length prefix included.
    """
    payload = pack_message(kind, header, vector_bytes)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    frame = _LEN.pack(len(payload)) + payload
    _sendall(sock, frame)
    return len(frame)


# ----------------------------------------------------------------------
# Framed socket
# ----------------------------------------------------------------------
class FrameSocket:
    """Blocking length-framed messaging over one stream socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._recv_buffer = bytearray()

    @property
    def socket(self) -> socket.socket:
        return self._sock

    def settimeout(self, timeout: Optional[float]) -> None:
        self._sock.settimeout(timeout)

    def send_frame(self, payload: bytes) -> None:
        if len(payload) > MAX_FRAME_BYTES:
            raise WireError(
                f"frame of {len(payload)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte cap"
            )
        _sendall(self._sock, _LEN.pack(len(payload)) + payload)

    def send_message(
        self, kind: int, header: Dict[str, Any], vector_bytes: bytes = b""
    ) -> int:
        """Frame and send one message; returns the payload size."""
        payload = pack_message(kind, header, vector_bytes)
        self.send_frame(payload)
        return len(payload)

    def _recv_exact(self, count: int) -> bytes:
        while len(self._recv_buffer) < count:
            chunk = _recv_retry(self._sock, 65536)
            if not chunk:
                raise WireError("peer closed the connection mid-frame")
            self._recv_buffer.extend(chunk)
        data = bytes(self._recv_buffer[:count])
        del self._recv_buffer[:count]
        return data

    def recv_frame(self) -> Optional[bytes]:
        """One frame payload, or ``None`` on a clean EOF between frames."""
        if not self._recv_buffer:
            try:
                chunk = _recv_retry(self._sock, 65536)
            except (ConnectionResetError, BrokenPipeError):
                return None
            if not chunk:
                return None
            self._recv_buffer.extend(chunk)
        (length,) = _LEN.unpack(self._recv_exact(_LEN.size))
        if length > MAX_FRAME_BYTES:
            raise WireError(
                f"incoming frame claims {length} bytes "
                f"(cap {MAX_FRAME_BYTES}); stream is corrupt"
            )
        return self._recv_exact(length)

    def recv_message(self) -> Optional[Tuple[int, Dict[str, Any], bytes]]:
        """One unpacked message, or ``None`` on a clean EOF."""
        payload = self.recv_frame()
        if payload is None:
            return None
        return unpack_message(payload)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
