"""The fixed binary layouts of the five rendezvous frames.

OFFER, RECV, DELIVER, ACK_UP and ACK_DOWN each have one ``struct``
layout in :mod:`repro.sim.wire`: process slots, a length-prefixed JSON
payload, and the receiver's timestamp as LEB128.  These tests pin the
round trips, the ``WireError`` on every malformed frame (also under
``python -O``, so no check may be an ``assert``), the frame reassembly
the coordinator relies on, and the sender's always-on timestamp
agreement check against a fake coordinator.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import tempfile
import textwrap
import threading

import pytest

from repro.graphs.decomposition import decompose
from repro.graphs.generators import path_topology
from repro.sim.distributed import _node_worker
from repro.sim.runtime import send
from repro.sim.wire import (
    ANY_SOURCE,
    MSG_ACK_DOWN,
    MSG_ACK_UP,
    MSG_DELIVER,
    MSG_FAIL,
    MSG_HELLO,
    MSG_OFFER,
    MSG_RECV,
    FrameBuffer,
    FrameSocket,
    WireError,
    decode_payload,
    decode_stamp,
    encode_payload,
    encode_varints,
    encode_vector,
    forward_ack,
    pack_ack,
    pack_peer,
    pack_recv,
    unpack_ack,
    unpack_message,
    unpack_peer,
    unpack_recv,
)

PROCESSES = ("P1", 2, "Zoë")

PAYLOADS = [
    pytest.param("x", id="str"),
    pytest.param(None, id="null"),
    pytest.param({"k": [1, 2.5, "v"]}, id="dict"),
    pytest.param("héllo wörld ✓", id="non-ascii"),
    pytest.param("x" * 70_000, id="over-64KiB"),
]


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class TestPeerFrames:
    @pytest.mark.parametrize(
        "kind", [MSG_OFFER, MSG_DELIVER], ids=["offer", "deliver"]
    )
    @pytest.mark.parametrize("slot", range(len(PROCESSES)))
    def test_round_trip_with_str_and_int_names(self, kind, slot):
        piggy = encode_vector([0, 128, 300])
        frame = pack_peer(kind, slot, encode_payload("m"), piggy)
        assert frame[0] == kind
        peer, payload, rest = unpack_peer(frame, PROCESSES)
        assert peer == PROCESSES[slot]
        assert decode_payload(payload) == "m"
        assert rest == piggy

    @pytest.mark.parametrize("value", PAYLOADS)
    def test_payload_round_trip(self, value):
        frame = pack_peer(MSG_OFFER, 1, encode_payload(value), b"\x07")
        _, payload, piggy = unpack_peer(frame, PROCESSES)
        assert decode_payload(payload) == value
        assert piggy == b"\x07"

    def test_layout(self):
        """kind, u32 slot, u32 payload length, payload, piggyback."""
        frame = pack_peer(MSG_OFFER, 2, b'"ab"', b"\x01\x02")
        assert frame == (
            bytes([MSG_OFFER]) + (2).to_bytes(4, "big")
            + (4).to_bytes(4, "big") + b'"ab"' + b"\x01\x02"
        )

    def test_truncated_frame(self):
        frame = pack_peer(MSG_OFFER, 1, encode_payload("payload"), b"")
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                unpack_peer(frame[:cut], PROCESSES)

    def test_out_of_range_slot(self):
        for slot in (len(PROCESSES), ANY_SOURCE):
            frame = pack_peer(MSG_DELIVER, slot, b'"m"', b"\x00")
            with pytest.raises(WireError, match="out of range"):
                unpack_peer(frame, PROCESSES)

    @pytest.mark.parametrize(
        "data",
        [b"", b'"m', b"\xff", b'"m" ', b' "m"', b'"m""n"'],
        ids=["empty", "unterminated", "not-utf8", "trailing-space",
             "leading-space", "two-values"],
    )
    def test_bad_payload_bytes(self, data):
        with pytest.raises(WireError):
            decode_payload(data)


class TestRecvFrames:
    def test_named_and_any_source(self):
        for slot, process in enumerate(PROCESSES):
            assert unpack_recv(pack_recv(slot), PROCESSES) == process
        assert unpack_recv(pack_recv(ANY_SOURCE), PROCESSES) is None

    def test_layout(self):
        assert pack_recv(1) == bytes([MSG_RECV, 0, 0, 0, 1])
        assert pack_recv(ANY_SOURCE) == bytes([MSG_RECV]) + b"\xff" * 4

    def test_wrong_length_and_slot(self):
        frame = pack_recv(1)
        for bad in (frame[:-1], frame + b"\x00"):
            with pytest.raises(WireError):
                unpack_recv(bad, PROCESSES)
        with pytest.raises(WireError, match="out of range"):
            unpack_recv(pack_recv(len(PROCESSES)), PROCESSES)


class TestAckFrames:
    TIMESTAMP = [0, 1, 127, 128, 300, 2**40]

    def test_round_trip_with_wide_components(self):
        stamp = encode_varints(self.TIMESTAMP)
        ack = encode_vector([5, 200, 0, 0, 0, 0])
        frame = pack_ack(MSG_ACK_UP, stamp, ack)
        got_stamp, got_ack = unpack_ack(frame)
        assert (got_stamp, got_ack) == (stamp, ack)
        assert decode_stamp(got_stamp, len(self.TIMESTAMP)) == (
            self.TIMESTAMP
        )

    def test_ack_down_is_ack_up_with_its_kind_changed(self):
        up = pack_ack(
            MSG_ACK_UP, encode_varints(self.TIMESTAMP), b"\x01\x02"
        )
        down = forward_ack(up)
        assert down[0] == MSG_ACK_DOWN
        assert down[1:] == up[1:]
        assert unpack_ack(down) == unpack_ack(up)

    def test_truncated_frame(self):
        frame = pack_ack(MSG_ACK_UP, encode_varints(self.TIMESTAMP), b"")
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                stamp, _ = unpack_ack(frame[:cut])
                decode_stamp(stamp, len(self.TIMESTAMP))

    def test_trailing_and_short_timestamp_bytes(self):
        stamp = encode_varints(self.TIMESTAMP)
        size = len(self.TIMESTAMP)
        with pytest.raises(WireError, match="trailing"):
            decode_stamp(stamp + b"\x00", size)
        with pytest.raises(WireError, match="trailing"):
            decode_stamp(stamp, size - 1)
        with pytest.raises(WireError):
            decode_stamp(stamp[:-1], size)


def test_checks_hold_under_python_optimize():
    """Every frame check raises ``WireError`` with asserts stripped."""
    script = textwrap.dedent(
        """
        from repro.sim.wire import (
            MSG_ACK_UP, MSG_OFFER, WireError, decode_stamp,
            encode_varints, pack_ack, pack_peer, pack_recv, unpack_ack,
            unpack_peer, unpack_recv,
        )
        names = ("a", "b")
        cases = [
            lambda: unpack_peer(pack_peer(MSG_OFFER, 0, b'"m"', b"")[:6],
                                names),
            lambda: unpack_peer(pack_peer(MSG_OFFER, 2, b'"m"', b""),
                                names),
            lambda: unpack_recv(pack_recv(2), names),
            lambda: unpack_ack(pack_ack(MSG_ACK_UP, b"\\x01", b"")[:5]),
            lambda: decode_stamp(encode_varints([1, 300]) + b"\\x00", 2),
        ]
        for case in cases:
            try:
                case()
            except WireError:
                continue
            raise SystemExit("no WireError")
        print("ok")
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


class TestFrameBuffer:
    FRAMES = [
        pack_peer(MSG_OFFER, 0, encode_payload("a"), b"\x01"),
        pack_recv(ANY_SOURCE),
        pack_ack(MSG_ACK_UP, encode_varints([300]), b"\x02"),
    ]

    @staticmethod
    def _drain(buffer):
        frames = []
        while True:
            frame = buffer.pop_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def test_several_frames_in_one_chunk(self):
        buffer = FrameBuffer()
        buffer.feed(b"".join(map(_framed, self.FRAMES)))
        assert self._drain(buffer) == self.FRAMES

    def test_frame_split_across_chunks(self):
        stream = b"".join(map(_framed, self.FRAMES))
        buffer = FrameBuffer()
        got = []
        for cut in (3, 11, 20, len(stream)):
            buffer.feed(stream[:cut])
            stream = stream[cut:]
            got.extend(self._drain(buffer))
        assert got == self.FRAMES

    def test_one_byte_feeds(self):
        big = pack_peer(MSG_DELIVER, 1, encode_payload("y" * 70_000), b"")
        frames = self.FRAMES + [big]
        stream = b"".join(map(_framed, frames))
        buffer = FrameBuffer()
        got = []
        for start in range(0, 64):
            buffer.feed(stream[start:start + 1])
            got.extend(self._drain(buffer))
        buffer.feed(stream[64:])
        got.extend(self._drain(buffer))
        assert got == frames
        assert all(type(frame) is bytes for frame in got)


def test_sender_rejects_an_ack_down_timestamp_it_disagrees_with():
    """The sender's agreement check is always on.

    A fake coordinator answers the sender's OFFER with an ACK_DOWN
    whose timestamp is not the one the sender computes; the node must
    report the disagreement in a FAIL frame naming both vectors.
    """
    decomposition = decompose(path_topology(2))
    directory = tempfile.mkdtemp(prefix="repro-wire-test-")
    path = os.path.join(directory, "coord.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    listener.settimeout(10.0)
    node = threading.Thread(
        target=_node_worker,
        args=("P1", decomposition, [send("P2", "m")], "unix", path,
              5.0, 0.0),
        daemon=True,
    )
    node.start()
    try:
        conn, _ = listener.accept()
        conn.settimeout(10.0)
        fs = FrameSocket(conn)
        kind, header, _ = unpack_message(fs.recv_frame())
        assert (kind, header["node"]) == (MSG_HELLO, "P1")
        offer = fs.recv_frame()
        peer, payload, piggy = unpack_peer(
            offer, decomposition.graph.vertices
        )
        assert (offer[0], peer, decode_payload(payload)) == (
            MSG_OFFER, "P2", "m"
        )
        # The sender merges the zero ack and stamps [1]; claim [5].
        fs.send_frame(
            forward_ack(
                pack_ack(MSG_ACK_UP, encode_varints([5]), piggy)
            )
        )
        kind, header, _ = unpack_message(fs.recv_frame())
        assert kind == MSG_FAIL
        assert "disagree" in header["error"]
        assert "[1] vs [5]" in header["error"]
        fs.close()
    finally:
        node.join(10.0)
        listener.close()
        os.unlink(path)
        os.rmdir(directory)
    assert not node.is_alive()
