"""Tests for the multiprocess socket runtime.

These exercise real OS processes and real sockets; the suite keeps the
node counts small so it stays fast, while the property suite and the
benchmark cover the equivalence and scale angles.
"""

from __future__ import annotations

import pytest

from repro.clocks.online import OnlineEdgeClock
from repro.exceptions import RuntimeDeadlockError, SimulationError
from repro.graphs.decomposition import decompose
from repro.graphs.generators import (
    complete_topology,
    path_topology,
    ring_topology,
)
from repro.obs import flightrec
from repro.obs import instrument
from repro.obs.instrument import piggyback_size_bytes
from repro.order.checker import check_encoding
from repro.core.vector import VectorTimestamp
from repro.sim.runtime import (
    ScriptRunner,
    compute,
    crash,
    receive,
    send,
)
from repro.sim.distributed import (
    DistributedScriptRunner,
    build_load_scripts,
    run_load,
)
from repro.sim.wire import (
    MSG_ACK_DOWN,
    MSG_ACK_UP,
    MSG_DELIVER,
    MSG_DONE,
    MSG_HELLO,
    MSG_OFFER,
    MSG_RECV,
    FrameBuffer,
    WireError,
    decode_varint,
    decode_vector,
    encode_varint,
    encode_vector,
    pack_message,
    unpack_message,
)


class TestWireCodec:
    def test_varint_roundtrip(self):
        for value in [0, 1, 127, 128, 300, 2**14, 2**21 - 1, 2**63 - 1]:
            encoded = encode_varint(value)
            decoded, offset = decode_varint(encoded)
            assert decoded == value
            assert offset == len(encoded)

    def test_varint_rejects_negative(self):
        with pytest.raises(WireError):
            encode_varint(-1)

    def test_vector_rejects_negative(self):
        for components in ([-1], [0, -1], [300, -1]):
            with pytest.raises(WireError):
                encode_vector(components)

    def test_vector_roundtrip(self):
        vector = VectorTimestamp([0, 1, 127, 128, 70000])
        data = encode_vector(vector)
        decoded, offset = decode_vector(data, len(vector))
        assert list(decoded) == list(vector)
        assert offset == len(data)

    def test_encoded_size_matches_piggyback_accounting(self):
        """The wire bytes ARE the modelled piggyback bytes.

        ``piggyback_size_bytes`` is the analytical varint size the obs
        layer reports for the threaded runtime; the socket runtime must
        put exactly that many bytes on the wire or the two runtimes'
        bytes/s numbers stop being comparable.
        """
        for components in (
            [0],
            [1, 2, 3],
            [127, 128, 129],
            [0, 2**20, 5, 2**33],
        ):
            vector = VectorTimestamp(components)
            assert len(encode_vector(vector)) == piggyback_size_bytes(
                vector
            )

    def test_message_roundtrip(self):
        payload = pack_message(7, {"label": "x"}, b"\x01\x02")
        kind, header, vec = unpack_message(payload)
        assert (kind, header, vec) == (7, {"label": "x"}, b"\x01\x02")

    def test_frame_buffer_reassembles_partial_chunks(self):
        import struct

        payload = pack_message(2, {"to": "P2"}, b"\x05")
        frame = struct.pack(">I", len(payload)) + payload
        buffer = FrameBuffer()
        # Feed one byte at a time: no message until the frame completes.
        for byte in frame[:-1]:
            buffer.feed(bytes([byte]))
            assert buffer.pop_message() is None
        buffer.feed(frame[-1:])
        kind, header, vec = buffer.pop_message()
        assert (kind, header["to"], vec) == (2, "P2", b"\x05")

    def test_frame_buffer_rejects_corrupt_length(self):
        buffer = FrameBuffer()
        buffer.feed(b"\xff\xff\xff\xff")
        with pytest.raises(WireError):
            buffer.pop_frame()


class TestDistributedBasics:
    def test_single_message(self):
        decomposition = decompose(path_topology(2))
        transport = DistributedScriptRunner(
            decomposition,
            {"P1": [send("P2", "hello")], "P2": [receive("P1")]},
            timeout=10.0,
        ).run()
        assert [(e.sender, e.receiver, e.payload) for e in transport.log] == [
            ("P1", "P2", "hello")
        ]
        assert transport.stats.messages == 1
        # One vector on the offer leg plus one on the ack leg; both are
        # the single-component zero vector here (1 LEB128 byte each).
        assert transport.stats.piggyback_bytes == 2

    def test_frame_bytes_count_every_byte_both_ways(self):
        """Length prefix, kind, header and piggyback of every frame."""
        decomposition = decompose(path_topology(2))
        transport = DistributedScriptRunner(
            decomposition,
            {"P1": [send("P2", "hello")], "P2": [receive("P1")]},
            timeout=10.0,
        ).run()
        hello = {"actions": 1, "wire_format": "full"}
        zero = encode_vector([0])
        frames = [
            # node -> coordinator
            (MSG_HELLO, {"node": "P1", **hello}, b""),
            (MSG_HELLO, {"node": "P2", **hello}, b""),
            (MSG_OFFER, {"to": "P2", "payload": "hello"}, zero),
            (MSG_RECV, {"source": "P1"}, b""),
            (MSG_ACK_UP, {"timestamp": [1]}, zero),
            (MSG_DONE, {}, b""),
            (MSG_DONE, {}, b""),
            # coordinator -> node
            (MSG_DELIVER, {"sender": "P1", "payload": "hello"}, zero),
            (MSG_ACK_DOWN, {"timestamp": [1]}, zero),
        ]
        expected = sum(
            4 + len(pack_message(kind, header, piggy))
            for kind, header, piggy in frames
        )
        assert transport.stats.frame_bytes == expected
        assert transport.stats.frame_bytes_per_message == expected
        assert transport.stats.to_dict()["frame_bytes"] == expected

    def test_request_reply_matches_threaded_runtime(self):
        decomposition = decompose(path_topology(2))
        scripts = {
            "P1": [send("P2", "req"), receive("P2")],
            "P2": [receive("P1"), send("P1", "resp")],
        }
        distributed = DistributedScriptRunner(
            decomposition, scripts, timeout=10.0
        ).run()
        threaded = ScriptRunner(decomposition, scripts, timeout=10.0).run()
        assert [
            (e.sender, e.receiver, e.payload, list(e.timestamp))
            for e in distributed.log
        ] == [
            (e.sender, e.receiver, e.payload, list(e.timestamp))
            for e in threaded.log
        ]

    def test_tcp_transport(self):
        decomposition = decompose(path_topology(2))
        transport = DistributedScriptRunner(
            decomposition,
            {"P1": [send("P2", "over-tcp")], "P2": [receive()]},
            timeout=10.0,
            transport="tcp",
        ).run()
        assert transport.log[0].payload == "over-tcp"

    def test_timestamps_satisfy_equation_one(self):
        """The committed order's timestamps verify against ground truth."""
        decomposition = decompose(ring_topology(4))
        scripts = {p: [] for p in decomposition.graph.vertices}
        for round_index in range(2):
            for edge in decomposition.graph.edges:
                u, v = edge.endpoints
                if round_index % 2:
                    u, v = v, u
                scripts[u].append(send(v, f"round-{round_index}"))
                scripts[v].append(receive(u))
        transport = DistributedScriptRunner(
            decomposition, scripts, timeout=15.0
        ).run()
        computation = transport.as_computation()
        collected = transport.collected_timestamps()
        clock = OnlineEdgeClock(decomposition)
        replayed = clock.timestamp_computation(computation)
        for message, live in zip(computation.messages, collected):
            assert replayed.of(message) == live
        report = check_encoding(clock, replayed)
        assert report.characterizes

    def test_internal_events_slot_and_counter(self):
        decomposition = decompose(path_topology(2))
        scripts = {
            "P1": [
                compute("early"),
                send("P2", "m"),
                compute("late"),
            ],
            "P2": [receive("P1")],
        }
        transport = DistributedScriptRunner(
            decomposition, scripts, timeout=10.0
        ).run()
        evented = transport.as_evented_computation()
        assert evented is not None
        events = transport._internal["P1"]
        assert [(e.slot, e.counter) for e in events] == [(0, 1), (1, 1)]
        assert transport.stats.internal_events == 2

    def test_wildcard_receive(self):
        decomposition = decompose(complete_topology(3))
        scripts = {
            "P1": [send("P3", "a")],
            "P2": [send("P3", "b")],
            "P3": [receive(), receive()],
        }
        transport = DistributedScriptRunner(
            decomposition, scripts, timeout=10.0
        ).run()
        assert sorted(e.payload for e in transport.log) == ["a", "b"]


class TestDistributedTimeouts:
    def test_unmatched_send_times_out(self):
        decomposition = decompose(path_topology(2))
        runner = DistributedScriptRunner(
            decomposition,
            {"P1": [send("P2", "void")], "P2": []},
            timeout=0.5,
        )
        with pytest.raises(RuntimeDeadlockError):
            runner.run()

    def test_unmatched_receive_times_out(self):
        decomposition = decompose(path_topology(2))
        transport = DistributedScriptRunner(
            decomposition,
            {"P1": [], "P2": [receive("P1")]},
            timeout=0.5,
        ).run(raise_on_error=False)
        assert transport.log == []
        assert transport.stats.timeouts == 1
        assert any(
            isinstance(error, RuntimeDeadlockError)
            for error in transport.errors
        )

    def test_crash_action_abandons_script(self):
        decomposition = decompose(path_topology(2))
        transport = DistributedScriptRunner(
            decomposition,
            {"P1": [crash("boom")], "P2": []},
            timeout=5.0,
        ).run()
        assert transport.log == []
        assert transport.errors == []

    def test_peer_of_crashed_node_times_out(self):
        decomposition = decompose(path_topology(2))
        transport = DistributedScriptRunner(
            decomposition,
            {"P1": [crash("boom")], "P2": [receive("P1")]},
            timeout=0.5,
        ).run(raise_on_error=False)
        assert transport.log == []
        assert any(
            isinstance(error, RuntimeDeadlockError)
            for error in transport.errors
        )


class TestDistributedObservability:
    def test_flight_record_reconstructs_the_computation(self):
        decomposition = decompose(path_topology(3))
        scripts = {
            "P1": [send("P2", "a")],
            "P2": [receive("P1"), send("P3", "b")],
            "P3": [receive("P2")],
        }
        with flightrec.recording_session(capacity=1024) as rec:
            transport = DistributedScriptRunner(
                decomposition, scripts, timeout=10.0
            ).run()
        kinds = {event.kind for event in rec.events()}
        assert flightrec.SEND_OFFER in kinds
        assert flightrec.RENDEZVOUS in kinds
        assert flightrec.BLOCK_END in kinds
        reconstructed = flightrec.reconstruct_computation(
            rec, decomposition.graph
        )
        assert [
            (m.sender, m.receiver) for m in reconstructed.messages
        ] == [(e.sender, e.receiver) for e in transport.log]

    def test_timeout_flight_status_matches_errors(self):
        decomposition = decompose(path_topology(2))
        with flightrec.recording_session(capacity=1024) as rec:
            transport = DistributedScriptRunner(
                decomposition,
                {"P1": [send("P2", "void")], "P2": []},
                timeout=0.5,
            ).run(raise_on_error=False)
        timeout_ends = [
            event
            for event in rec.events()
            if event.kind == flightrec.BLOCK_END
            and event.detail.get("status") == "timeout"
        ]
        deadlocks = [
            error
            for error in transport.errors
            if isinstance(error, RuntimeDeadlockError)
        ]
        assert len(timeout_ends) == len(deadlocks) == 1
        assert timeout_ends[0].detail["seconds"] >= 0.4

    def test_obs_metrics_observe_distributed_rendezvous(self):
        decomposition = decompose(path_topology(2))
        with instrument.enabled_session() as obs:
            DistributedScriptRunner(
                decomposition,
                {"P1": [send("P2", "m")], "P2": [receive()]},
                timeout=10.0,
            ).run()
        snapshot = obs.registry.snapshot()
        assert snapshot["rendezvous_total"]["value"] == 1
        assert obs.rendezvous_block_seconds.count == 2


class TestLoadDriver:
    def test_load_scripts_shape(self):
        decomposition, scripts = build_load_scripts(2, 5, 3)
        assert len(scripts) == 7
        # Round-robin: C1,C3,C5 -> S1; C2,C4 -> S2.
        assert len(scripts["S1"]) == 9
        assert len(scripts["S2"]) == 6
        assert all(a.to == "S1" for a in scripts["C1"])
        assert all(a.to == "S2" for a in scripts["C2"])

    def test_load_run_commits_everything(self):
        transport = run_load(
            server_count=2,
            client_count=6,
            messages_per_client=2,
            timeout=20.0,
        )
        stats = transport.stats
        assert stats.messages == 12
        assert len(transport.log) == 12
        assert stats.nodes == 8
        assert stats.messages_per_sec > 0
        assert stats.piggyback_bytes > 0
        assert stats.piggyback_wire_bytes == 2 * stats.piggyback_bytes
        quantiles = stats.block_quantiles_ms()
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert all(value >= 0 for value in quantiles.values())

    def test_paced_load_respects_rate(self):
        """Pacing slows the run down to roughly the target rate."""
        transport = run_load(
            server_count=1,
            client_count=2,
            messages_per_client=3,
            rate=30.0,
            timeout=20.0,
        )
        stats = transport.stats
        assert stats.messages == 6
        # 6 messages at 30 msg/s is 0.2s of pacing; unpaced this
        # finishes in a few ms, so the wall clock shows the pacing.
        assert stats.wall_seconds > 0.1

    def test_load_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            build_load_scripts(0, 5, 3)
        with pytest.raises(SimulationError):
            build_load_scripts(1, 1, 0)


class TestRunnerValidation:
    def test_unknown_process_rejected(self):
        decomposition = decompose(path_topology(2))
        with pytest.raises(SimulationError):
            DistributedScriptRunner(
                decomposition, {"P9": [send("P1", "x")]}
            )
