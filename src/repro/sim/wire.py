"""Wire format of the distributed rendezvous runtime.

Everything that travels between a node process and the coordinator is
one *frame*: a 4-byte big-endian length followed by that many payload
bytes, whose first byte is the kind (one of the ``MSG_*`` constants).

One program message is five frames: OFFER, RECV and ACK_UP in, DELIVER
and ACK_DOWN out.  Each of those five kinds has one fixed binary layout
(``u32`` fields are big-endian)::

    OFFER     u8 kind | u32 receiver slot | u32 n | n bytes JSON payload | piggyback
    DELIVER   u8 kind | u32 sender slot   | u32 n | n bytes JSON payload | piggyback
    RECV      u8 kind | u32 source slot (ANY_SOURCE: any sender)
    ACK_UP    u8 kind | u32 n | n bytes timestamp | ack piggyback
    ACK_DOWN  the ACK_UP payload with only its kind byte changed

A *slot* is a process's index in ``decomposition.graph.vertices``,
which every node already holds.  The timestamp is the receiver's
message timestamp as :func:`encode_varints` bytes; LEB128 of a
non-negative int is canonical, so the sender checks agreement with one
bytes comparison.  The coordinator forwards DELIVER's payload bytes and
ACK_DOWN's whole body without re-encoding either.

The control kinds (HELLO, INTERNAL, DONE, FAIL, TIMEOUT, CRASHED,
SHUTDOWN, TELEMETRY) carry free-form dicts a few times per node, so
they keep a JSON header (:func:`pack_message`)::

    u8  kind
    u32 header_len  (big-endian)
    header_len bytes of UTF-8 JSON  (control-plane metadata)
    the rest: trailing bytes, passed through as is

The piggyback is the *data plane*: one unsigned LEB128 varint per
vector component (or a delta frame, see :mod:`repro.clocks.delta`),
exactly the bytes the paper's Figure 5 algorithm puts on the wire.
Everything else is harness metadata that a real deployment would fold
into its own message envelope.  ``piggyback_size_bytes`` accounting in
the coordinator counts the piggyback bytes of real frames, so the
reported bytes/s is measured on the wire, not modelled.

The LEB128 codec here is the binary twin of
:func:`repro.obs.instrument.piggyback_size_bytes`: for every vector,
``len(encode_vector(v)) == piggyback_size_bytes(v)`` (pinned by
``tests/sim/test_distributed.py``), which keeps the byte accounting of
the threaded and socket runtimes directly comparable.

Frames are parsed with :mod:`struct` and :mod:`json` only: the TCP
transport listens where any local user can connect, so nothing here
unpickles or unmarshals peer bytes.
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
MSG_OFFER = 2  #: node -> coord: receiver slot, payload, v_i bytes
MSG_RECV = 3  #: node -> coord: source slot or ANY_SOURCE
MSG_DELIVER = 4  #: coord -> node: sender slot, payload, v bytes
MSG_ACK_UP = 5  #: node -> coord: timestamp, pre-merge ack bytes
MSG_ACK_DOWN = 6  #: coord -> node: ACK_UP's body, forwarded
MSG_INTERNAL = 7  #: node -> coord: {"label": str}
MSG_DONE = 8  #: node -> coord: script finished cleanly
MSG_FAIL = 9  #: node -> coord: {"error": repr} script died
MSG_TIMEOUT = 10  #: coord -> node: {"reason": str} wait expired
MSG_CRASHED = 11  #: node -> coord: {"reason": str} fault injection
MSG_SHUTDOWN = 12  #: coord -> node: run is over / poisoned, stop now
MSG_TELEMETRY = 13  #: node -> coord: fire-and-forget metric/flight push

#: Upper bound on a single frame; anything bigger is a protocol error,
#: not a message (prevents a corrupt length prefix from allocating GiBs).
MAX_FRAME_BYTES = 1 << 24

#: RECV's source slot when any sender will do.
ANY_SOURCE = 0xFFFFFFFF

_LEN = struct.Struct(">I")
#: kind + u32: a control frame's header length, RECV's source slot,
#: and the ACKs' timestamp length.
_HEAD = struct.Struct(">BI")
#: kind + peer slot + payload length: OFFER and DELIVER.
_PEER = struct.Struct(">BII")
_ACK_DOWN_KIND = bytes((MSG_ACK_DOWN,))

#: One shared encoder: ``json.dumps`` with ``separators`` builds a new
#: ``JSONEncoder`` on every call.
_JSON = json.JSONEncoder(separators=(",", ":"))
_JSON_DECODER = json.JSONDecoder()


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
# Control frames: JSON header
# ----------------------------------------------------------------------
def pack_message(
    kind: int, header: Dict[str, Any], vector_bytes: bytes = b""
) -> bytes:
    """Assemble one frame payload (kind + JSON header + vector bytes).

    The runtime sends only control kinds this way; the five rendezvous
    kinds use the layouts below.  Any kind is accepted, so tools that
    model a JSON-framed rendezvous can still build one.
    """
    head = _JSON.encode(header).encode("utf-8")
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
# Rendezvous frames: fixed layouts
# ----------------------------------------------------------------------
def encode_payload(payload: Any) -> bytes:
    """A program message's payload as the JSON bytes OFFER carries."""
    return _JSON.encode(payload).encode("utf-8")


def decode_payload(data: bytes) -> Any:
    """The payload of an OFFER's or DELIVER's JSON bytes.

    :func:`encode_payload` writes no whitespace, so the bytes must be
    exactly one JSON value: ``raw_decode`` skips ``json.loads``'s two
    whitespace scans.
    """
    try:
        text = data.decode("utf-8")
        payload, end = _JSON_DECODER.raw_decode(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"bad message payload: {exc}") from exc
    if end != len(text):
        raise WireError("trailing bytes after a message payload")
    return payload


def _process_at(processes: Sequence[Any], slot: int) -> Any:
    if slot >= len(processes):
        raise WireError(
            f"process slot {slot} out of range "
            f"({len(processes)} processes)"
        )
    return processes[slot]


def pack_peer(kind: int, slot: int, payload: bytes, piggy: bytes) -> bytes:
    """An OFFER (receiver slot) or DELIVER (sender slot) payload."""
    return _PEER.pack(kind, slot, len(payload)) + payload + piggy


def unpack_peer(
    frame: bytes, processes: Sequence[Any]
) -> Tuple[Any, bytes, bytes]:
    """``(peer, payload bytes, piggyback)`` of an OFFER or DELIVER.

    ``processes`` is ``decomposition.graph.vertices``; a slot past its
    end, or a payload length past the frame's end, is a ``WireError``.
    """
    if len(frame) < _PEER.size:
        raise WireError(f"short peer frame ({len(frame)} bytes)")
    _, slot, length = _PEER.unpack_from(frame)
    end = _PEER.size + length
    if end > len(frame):
        raise WireError("message payload overruns the frame")
    return _process_at(processes, slot), frame[_PEER.size:end], frame[end:]


def pack_recv(slot: int) -> bytes:
    """A RECV payload; ``slot`` is :data:`ANY_SOURCE` for any sender."""
    return _HEAD.pack(MSG_RECV, slot)


def unpack_recv(frame: bytes, processes: Sequence[Any]) -> Optional[Any]:
    """The source a RECV waits for, or ``None`` for any sender."""
    if len(frame) != _HEAD.size:
        raise WireError(
            f"RECV frame of {len(frame)} bytes, expected {_HEAD.size}"
        )
    _, slot = _HEAD.unpack(frame)
    if slot == ANY_SOURCE:
        return None
    return _process_at(processes, slot)


def pack_ack(kind: int, stamp: bytes, piggy: bytes) -> bytes:
    """An ACK_UP or ACK_DOWN payload: timestamp bytes, then piggyback."""
    return _HEAD.pack(kind, len(stamp)) + stamp + piggy


def unpack_ack(frame: bytes) -> Tuple[bytes, bytes]:
    """``(timestamp bytes, ack piggyback)`` of an ACK_UP or ACK_DOWN."""
    if len(frame) < _HEAD.size:
        raise WireError(f"short ack frame ({len(frame)} bytes)")
    _, length = _HEAD.unpack_from(frame)
    end = _HEAD.size + length
    if end > len(frame):
        raise WireError("ack timestamp overruns the frame")
    return frame[_HEAD.size:end], frame[end:]


def forward_ack(ack_up: bytes) -> bytes:
    """ACK_DOWN: the ACK_UP payload with only its kind byte changed."""
    return _ACK_DOWN_KIND + ack_up[1:]


def decode_stamp(stamp: bytes, size: int) -> List[int]:
    """The ``size`` components of an ACK's timestamp bytes.

    Short or trailing bytes raise ``WireError``: the bytes must be
    exactly one vector.
    """
    values, end = decode_varints(stamp, size)
    if end != len(stamp):
        raise WireError(
            f"{len(stamp) - end} trailing bytes after an ack timestamp"
        )
    return values


# ----------------------------------------------------------------------
# Incremental framing (for the coordinator's selector loop)
# ----------------------------------------------------------------------
class FrameBuffer:
    """Reassembles frames from a non-blocking byte stream.

    The coordinator reads whatever the kernel has and feeds it here;
    :meth:`pop_frame` yields complete payloads as they form.  One
    instance per connection.  Whole frames are sliced straight out of
    the chunk they arrived in; only a frame split across chunks is
    copied into a growing buffer.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self) -> None:
        self._data: Any = b""
        self._pos = 0

    def feed(self, chunk: bytes) -> None:
        if self._pos == len(self._data):
            # Everything fed so far was consumed: parse the chunk as is.
            self._data = chunk
        else:
            if self._pos or not isinstance(self._data, bytearray):
                self._data = bytearray(self._data[self._pos:])
            self._data += chunk
        self._pos = 0

    def pop_frame(self) -> Optional[bytes]:
        """The next complete frame payload, or ``None`` if partial."""
        data, start = self._data, self._pos
        if len(data) - start < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(data, start)
        if length > MAX_FRAME_BYTES:
            raise WireError(
                f"incoming frame claims {length} bytes "
                f"(cap {MAX_FRAME_BYTES}); stream is corrupt"
            )
        start += _LEN.size
        end = start + length
        if len(data) < end:
            return None
        self._pos = end
        frame = data[start:end]
        return frame if isinstance(frame, bytes) else bytes(frame)


def _sendall(sock, data: bytes) -> None:
    """``sendall`` that survives ``EINTR`` with partial progress.

    PEP 475 makes most syscalls retry on ``EINTR`` automatically, but a
    signal handler that raises still aborts ``sock.sendall`` with an
    unknown number of bytes already written — resending from the start
    would corrupt the frame stream.  A manual ``send`` loop knows
    exactly how far it got, so an ``InterruptedError`` simply retries
    the remainder.  The first ``send`` takes the bytes as they are: a
    frame usually goes out whole, with no view to build.
    """
    try:
        sent = sock.send(data)
    except InterruptedError:
        sent = 0
    else:
        if sent == len(data):
            return
        if sent <= 0:
            raise WireError("socket refused to accept frame bytes")
    view = memoryview(data)[sent:]
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


def send_frame(sock: socket.socket, payload: bytes) -> int:
    """Length-prefix and send one frame payload on a raw socket.

    Returns the bytes written, the 4-byte length prefix included.
    """
    size = len(payload)
    if size > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {size} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    _sendall(sock, _LEN.pack(size) + payload)
    return _LEN.size + size


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
        send_frame(self._sock, payload)

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
        """One frame payload, or ``None`` on a clean EOF between frames.

        When one ``recv`` returns exactly one frame, which is the usual
        case for a request/response protocol, its payload is sliced
        straight from the chunk.
        """
        if not self._recv_buffer:
            try:
                chunk = _recv_retry(self._sock, 65536)
            except (ConnectionResetError, BrokenPipeError):
                return None
            if not chunk:
                return None
            if (
                len(chunk) >= _LEN.size
                and _LEN.unpack_from(chunk)[0] == len(chunk) - _LEN.size
            ):
                return chunk[_LEN.size:]
            self._recv_buffer.extend(chunk)
        (length,) = _LEN.unpack(self._recv_exact(_LEN.size))
        if length > MAX_FRAME_BYTES:
            raise WireError(
                f"incoming frame claims {length} bytes "
                f"(cap {MAX_FRAME_BYTES}); stream is corrupt"
            )
        return self._recv_exact(length)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
