"""Wire-format integration across both runtimes.

The same script must commit byte-identical timestamps whether the
piggyback vectors travel as full varint frames or as differential
frames — on the threaded ``SynchronousTransport`` and on the
multiprocess socket runtime — and a peer that negotiated a different
format must be rejected at HELLO time.
"""

from __future__ import annotations

import pytest

from repro.graphs.decomposition import decompose
from repro.graphs.generators import client_server_topology, ring_topology
from repro.sim.distributed import DistributedScriptRunner, run_load
from repro.sim.runtime import ScriptRunner, receive, send
from repro.sim.wire import WireError


def _token_scripts(walk):
    scripts = {}
    for step, (holder, nxt) in enumerate(zip(walk, walk[1:])):
        scripts.setdefault(holder, []).append(send(nxt, f"t{step}"))
        scripts.setdefault(nxt, []).append(receive(holder))
    return scripts


def _committed(transport):
    return [
        (entry.order, entry.sender, entry.receiver,
         tuple(entry.timestamp))
        for entry in transport.log
    ]


RING = decompose(ring_topology(4))
WALK = ["P1", "P2", "P3", "P4", "P1", "P2", "P3"]


class TestThreadedTransportFormats:
    def test_delta_is_byte_identical_to_full(self):
        scripts = _token_scripts(WALK)
        full = ScriptRunner(RING, scripts, timeout=15.0).run()
        delta = ScriptRunner(
            RING, scripts, timeout=15.0, wire_format="delta"
        ).run()
        assert _committed(delta) == _committed(full)

    def test_wire_summary_reports_codec_counters(self):
        scripts = _token_scripts(WALK)
        transport = ScriptRunner(
            RING, scripts, timeout=15.0, wire_format="delta"
        ).run()
        summary = transport.wire_summary()
        assert summary["kind"] == "delta"
        assert summary["frames"] > 0

    def test_full_mode_has_no_codec(self):
        scripts = _token_scripts(WALK)
        transport = ScriptRunner(RING, scripts, timeout=15.0).run()
        assert transport.wire_summary() is None
        assert transport.wire_format == "full"

    def test_unknown_format_rejected(self):
        with pytest.raises(WireError):
            ScriptRunner(
                RING, _token_scripts(WALK), wire_format="zstd"
            ).run()


class TestDistributedFormats:
    def test_delta_is_byte_identical_to_full(self):
        scripts = _token_scripts(WALK)
        full = DistributedScriptRunner(RING, scripts, timeout=30.0).run()
        delta = DistributedScriptRunner(
            RING, scripts, timeout=30.0, wire_format="delta"
        ).run()
        assert _committed(delta) == _committed(full)
        assert delta.stats.wire_format == "delta"
        # Differential frames must not cost more than full vectors.
        assert (
            delta.stats.piggyback_bytes <= full.stats.piggyback_bytes
        )

    def test_stats_expose_wire_fields(self):
        decomposition = decompose(client_server_topology(2, 3))
        transport = run_load(
            server_count=2,
            client_count=3,
            messages_per_client=2,
            timeout=30.0,
            wire_format="delta",
        )
        stats = transport.stats.to_dict()
        assert stats["wire_format"] == "delta"
        assert "piggyback_bytes_per_message" in stats
        assert "delta_resync_total" in stats
        del decomposition

    def test_invalid_format_fails_fast(self):
        with pytest.raises(WireError):
            DistributedScriptRunner(
                RING, _token_scripts(WALK), wire_format="bounded:0"
            )

    def test_hello_negotiation_rejects_mismatched_peer(self):
        from repro.sim.distributed import _Coordinator

        coordinator = _Coordinator(
            RING,
            expected=["P1", "P2", "P3", "P4"],
            timeout=5.0,
            idle_timeout=5.0,
            wire_format="delta",
        )
        with pytest.raises(WireError, match="negotiated wire format"):
            coordinator._on_hello(
                object(), {"node": "P1", "wire_format": "full"}
            )

    def test_hello_negotiation_accepts_matching_peer(self):
        from repro.sim.distributed import _Coordinator

        coordinator = _Coordinator(
            RING,
            expected=["P1", "P2", "P3", "P4"],
            timeout=5.0,
            idle_timeout=5.0,
            wire_format="delta",
        )
        marker = object()
        coordinator._on_hello(
            marker, {"node": "P1", "wire_format": "delta"}
        )
        assert coordinator._names[marker] == "P1"
