"""Hook lifecycle plus end-to-end instrumentation of the stack."""

from __future__ import annotations

from repro.apps.monitor import CausalMonitor
from repro.clocks.offline import OfflineRealizerClock
from repro.clocks.online import OnlineEdgeClock
from repro.core.vector import VectorTimestamp
from repro.graphs.decomposition import decompose
from repro.graphs.generators import (
    complete_topology,
    ring_topology,
    tree_topology,
)
from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN
from repro.sim.runtime import ScriptRunner, receive, send
from repro.sim.workload import (
    adversarial_antichain_computation,
    random_computation,
)


class TestLifecycle:
    def test_disabled_by_default(self):
        assert not instrument.is_enabled()
        assert instrument.metrics is None
        assert instrument.tracer is None

    def test_enable_disable(self):
        bundle = instrument.enable(MetricsRegistry())
        assert instrument.is_enabled()
        assert instrument.metrics is bundle
        instrument.disable()
        assert not instrument.is_enabled()

    def test_enable_is_idempotent(self):
        first = instrument.enable()
        second = instrument.enable()
        assert first is second

    def test_fresh_registry_replaces(self):
        instrument.enable()
        replacement = MetricsRegistry()
        bundle = instrument.enable(replacement)
        assert bundle.registry is replacement

    def test_get_registry_and_tracer_auto_enable(self):
        registry = instrument.get_registry()
        assert instrument.is_enabled()
        assert instrument.get_registry() is registry
        assert instrument.get_tracer() is instrument.tracer

    def test_enabled_session_restores_previous_state(self):
        assert not instrument.is_enabled()
        with instrument.enabled_session() as bundle:
            assert instrument.metrics is bundle
        assert not instrument.is_enabled()

    def test_span_routes_to_tracer_only_when_enabled(self):
        assert instrument.span("x") is NULL_SPAN
        with instrument.enabled_session():
            with instrument.span("real", k=2):
                pass
            (span,) = instrument.get_tracer().finished()
            assert span.name == "real"
            assert span.attributes == {"k": 2}

    def test_instrumented_mixin(self):
        class Thing(instrument.Instrumented):
            pass

        thing = Thing()
        assert thing._obs_metrics() is None
        assert thing._obs_span("x") is NULL_SPAN
        with instrument.enabled_session() as bundle:
            assert thing._obs_metrics() is bundle
            with thing._obs_span("op"):
                pass
            assert instrument.get_tracer().finished()[0].name == "op"


class TestPiggybackSizing:
    """Satellite: varint accounting for piggybacked vectors."""

    def test_varint_size_breakpoints(self):
        assert instrument.varint_size(0) == 1
        assert instrument.varint_size(127) == 1
        assert instrument.varint_size(128) == 2
        assert instrument.varint_size(2**14 - 1) == 2
        assert instrument.varint_size(2**14) == 3
        assert instrument.varint_size(2**63) == 10

    def test_empty_vector_costs_zero(self):
        assert instrument.piggyback_size_bytes(()) == 0
        assert instrument.piggyback_size_bytes([]) == 0
        assert instrument.piggyback_size_bytes(None) == 0
        assert (
            instrument.piggyback_size_bytes(VectorTimestamp([])) == 0
        )

    def test_one_component_vector(self):
        assert instrument.piggyback_size_bytes([0]) == 1
        assert instrument.piggyback_size_bytes([127]) == 1
        assert instrument.piggyback_size_bytes([128]) == 2
        assert (
            instrument.piggyback_size_bytes(VectorTimestamp([5])) == 1
        )

    def test_eight_component_vector(self):
        small = VectorTimestamp([1, 2, 3, 4, 5, 6, 7, 8])
        assert instrument.piggyback_size_bytes(small) == 8
        mixed = [0, 127, 128, 300, 2**14, 2**21, 2**28, 2**35]
        #       1  1    2    2    3      4      5      6
        assert instrument.piggyback_size_bytes(mixed) == 24

    def test_sixty_four_component_vector(self):
        zeros = VectorTimestamp([0] * 64)
        assert instrument.piggyback_size_bytes(zeros) == 64
        spiked = [0] * 63 + [2**56]
        assert instrument.piggyback_size_bytes(spiked) == 63 + 9

    def test_foreign_components_fall_back_to_fixed_width(self):
        assert (
            instrument.piggyback_size_bytes([1.5, 2])
            == instrument.COMPONENT_BYTES + 1
        )


class TestOnlineClockIntegration:
    def test_counts_and_sizes(self, rng):
        topology = tree_topology(2, 3)
        with instrument.enabled_session() as obs:
            decomposition = decompose(topology)
            clock = OnlineEdgeClock(decomposition)
            computation = random_computation(topology, 25, rng)
            assignment = clock.timestamp_computation(computation)
            first, last = (
                computation.messages[0],
                computation.messages[-1],
            )
            clock.precedes(assignment.of(first), assignment.of(last))
            snap = obs.registry.snapshot()

        assert snap["messages_timestamped_total"]["value"] == 25
        assert snap["acks_processed_total"]["value"] == 25
        assert (
            snap["vector_component_count"]["value"] == decomposition.size
        )
        assert snap["decomposition_size"]["value"] == decomposition.size
        # Theorem 5: the achieved size respects min(cover, N-2).
        assert (
            snap["decomposition_size"]["value"]
            <= snap["theorem5_bound"]["value"]
        )
        # Every message piggybacks two vectors (message + ack) under
        # varint accounting: at least 1 byte per component, at most the
        # fixed-width cap.
        components = 25 * 2 * decomposition.size
        total = snap["piggyback_bytes_total"]["value"]
        assert components <= total
        assert total <= components * instrument.COMPONENT_BYTES
        assert snap["piggyback_bytes"]["count"] == 50
        assert snap["vector_comparisons_total"]["value"] > 0
        assert snap["vector_joins_total"]["value"] == 50

    def test_figure7_phase_spans_are_emitted(self):
        with instrument.enabled_session():
            decompose(ring_topology(5))
            names = {
                span.name
                for span in instrument.get_tracer().finished()
            }
        assert "decompose" in names
        assert "figure7.decompose" in names
        assert "figure7.step3_split" in names  # a cycle forces step 3


class TestOfflineClockIntegration:
    def test_width_gauges(self, rng):
        topology = ring_topology(6)
        with instrument.enabled_session() as obs:
            clock = OfflineRealizerClock()
            computation = random_computation(topology, 20, rng)
            clock.timestamp_computation(computation)
            snap = obs.registry.snapshot()
            names = {
                span.name
                for span in instrument.get_tracer().finished()
            }

        assert snap["offline_width"]["value"] == clock.timestamp_size
        assert snap["offline_vector_size"]["value"] == clock.timestamp_size
        # Theorem 8: width <= floor(N_active / 2).
        assert (
            snap["offline_width"]["value"]
            <= snap["theorem8_bound"]["value"]
        )
        assert {
            "offline.message_poset",
            "offline.chain_partition",
            "offline.realizer",
            "offline.rank_vectors",
        } <= names


    def test_width_and_vector_size_gauges_on_a_disjoint_sum(self):
        # Four disjoint channels: four one-chain components, width 4,
        # realized by the sum rule with two extensions.
        computation = adversarial_antichain_computation(
            complete_topology(8), 3
        )
        with instrument.enabled_session() as obs:
            clock = OfflineRealizerClock()
            clock.timestamp_computation(computation)
            snap = obs.registry.snapshot()

        assert snap["offline_width"]["value"] == 4
        assert snap["offline_vector_size"]["value"] == 2
        assert clock.timestamp_size == 2
        assert snap["theorem8_bound"]["value"] == 4


class TestRuntimeIntegration:
    def _run_ring(self, rounds: int = 2):
        decomposition = decompose(ring_topology(4))
        scripts = {
            "P1": [send("P2"), receive("P4")] * rounds,
            "P2": [receive("P1"), send("P3")] * rounds,
            "P3": [receive("P2"), send("P4")] * rounds,
            "P4": [receive("P3"), send("P1")] * rounds,
        }
        return ScriptRunner(decomposition, scripts, timeout=20.0).run()

    def test_span_per_rendezvous_and_registry_under_threads(self):
        """The registry and tracer survive the runtime's real threads:
        every committed rendezvous produced its send and receive spans
        and exactly matching counters."""
        with instrument.enabled_session() as obs:
            transport = self._run_ring(rounds=3)
            spans = instrument.get_tracer().finished()
            snap = obs.registry.snapshot()

        committed = len(transport.log)
        assert committed == 12
        receives = [s for s in spans if s.name == "rendezvous.receive"]
        sends = [s for s in spans if s.name == "rendezvous.send"]
        assert len(receives) == committed
        assert len(sends) == committed
        assert snap["rendezvous_total"]["value"] == committed
        assert snap["messages_timestamped_total"]["value"] == committed
        assert snap["rendezvous_wait_seconds"]["count"] == 2 * committed
        # Blocking time was measured on both sides of every rendezvous.
        for span in receives + sends:
            assert "blocking_seconds" in span.attributes
        # Spans came from the worker threads, not the main thread.
        assert {s.thread for s in receives} != {"MainThread"}

    def test_commit_order_attributes_are_unique(self):
        with instrument.enabled_session():
            self._run_ring(rounds=2)
            orders = [
                span.attributes["commit_order"]
                for span in instrument.get_tracer().finished()
                if span.name == "rendezvous.receive"
            ]
        assert sorted(orders) == list(range(8))


class TestMonitorIntegration:
    def test_monitor_counters_and_overhead(self):
        with instrument.enabled_session() as obs:
            monitor = CausalMonitor(2)
            monitor.ingest("m1", "P1", "P2", VectorTimestamp([1, 0]))
            monitor.ingest("m2", "P2", "P3", VectorTimestamp([1, 1]))
            monitor.precedes("m1", "m2")
            monitor.concurrent("m1", "m2")
            snap = obs.registry.snapshot()

        assert snap["monitor_ingested_total"]["value"] == 2
        assert snap["monitor_queries_total"]["value"] == 2
        overhead = monitor.overhead()
        assert overhead.vector_size == 2
        assert overhead.message_count == 2
        assert overhead.piggyback_bytes_per_message == 16
        assert overhead.piggyback_bytes_total == 32
        assert "2 message(s)" in overhead.describe()
