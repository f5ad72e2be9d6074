"""QuantileSketch: accuracy, bounded state, registry/export wiring."""

from __future__ import annotations

import math
import random

import pytest

from repro.graphs.decomposition import decompose
from repro.graphs.generators import ring_topology
from repro.obs import instrument
from repro.obs.export import (
    metrics_to_json,
    render_prometheus,
)
from repro.obs.metrics import (
    GAMMA,
    MetricError,
    MetricsRegistry,
    QuantileSketch,
)
from repro.sim.runtime import ScriptRunner, receive, send


def _exact_quantile(sorted_values, q):
    return sorted_values[int(q * (len(sorted_values) - 1))]


class TestAccuracy:
    @pytest.mark.parametrize(
        "generator",
        [
            lambda rng: rng.random(),
            lambda rng: rng.expovariate(1.0),
            lambda rng: rng.gauss(100.0, 15.0),
            lambda rng: rng.lognormvariate(0.0, 1.0),
        ],
        ids=["uniform", "exponential", "gaussian", "lognormal"],
    )
    def test_within_5_percent_on_1e5_observations(self, generator):
        """Acceptance: p50/p95/p99 within 5% of the exact percentiles
        on 10^5 streamed observations."""
        rng = random.Random(20020814)
        sketch = QuantileSketch("t")
        values = []
        for _ in range(100_000):
            value = generator(rng)
            values.append(value)
            sketch.observe(value)
        values.sort()
        for q in (0.5, 0.95, 0.99):
            exact = _exact_quantile(values, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) <= 0.05 * abs(exact)

    def test_bucket_count_bounded_by_value_range(self):
        """Sparse buckets: state grows with the stream's spread, not its
        length — 10^5 values over seven decades fit in at most
        ``ceil(log(1e7) / log(GAMMA)) + 1`` buckets."""
        sketch = QuantileSketch("t")
        rng = random.Random(7)
        for _ in range(100_000):
            sketch.observe(10.0 ** rng.uniform(-6.0, 1.0))
        bound = math.ceil(math.log(1e7) / math.log(GAMMA)) + 1
        assert len(sketch.snapshot()["buckets"]) <= bound


class TestValidationAndRegistry:
    def test_targets_must_be_valid(self):
        with pytest.raises(MetricError):
            QuantileSketch("t").quantile(1.5)
        for value in (-1.0, math.nan, math.inf):
            with pytest.raises(MetricError):
                QuantileSketch("t").observe(value)

    def test_registry_summary_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.summary("s", help="x")
        second = registry.summary("s")
        assert first is second
        with pytest.raises(MetricError):
            registry.counter("s")

    def test_snapshot_shape(self):
        sketch = QuantileSketch("t")
        sketch.observe(1.0)
        snap = sketch.snapshot()
        assert snap["type"] == "summary"
        assert snap["count"] == 1
        assert snap["sum"] == 1.0
        assert set(snap["quantiles"]) == {"0.5", "0.95", "0.99"}


class TestExportSurfaces:
    def _registry_with_data(self):
        registry = MetricsRegistry()
        sketch = registry.summary("latency_seconds")
        for i in range(1, 101):
            sketch.observe(i / 100.0)
        return registry

    def test_prometheus_summary_rendering(self):
        text = render_prometheus(self._registry_with_data())
        assert "# TYPE latency_seconds summary" in text
        assert 'latency_seconds{quantile="0.5"}' in text
        assert 'latency_seconds{quantile="0.99"}' in text
        assert "latency_seconds_sum" in text
        assert "latency_seconds_count 100" in text

    def test_json_snapshot_rendering(self):
        text = metrics_to_json(self._registry_with_data())
        assert '"type": "summary"' in text
        assert '"0.95"' in text


class TestRuntimeWiring:
    def test_transport_feeds_the_sketches(self):
        decomposition = decompose(ring_topology(4))
        scripts = {
            "P1": [send("P2"), receive("P4")],
            "P2": [receive("P1"), send("P3")],
            "P3": [receive("P2"), send("P4")],
            "P4": [receive("P3"), send("P1")],
        }
        with instrument.enabled_session(MetricsRegistry()) as obs:
            ScriptRunner(decomposition, scripts).run()
            snapshot = obs.registry.snapshot()
        # Two sides per rendezvous, four rendezvous.
        block = snapshot["rendezvous_block_quantile_seconds"]
        assert block["count"] == 8
        stamp = snapshot["stamp_latency_seconds"]
        assert stamp["count"] == 8
        assert stamp["quantiles"]["0.99"] > 0.0
        piggyback = snapshot["piggyback_quantile_bytes"]
        assert piggyback["count"] == 8
        assert piggyback["quantiles"]["0.5"] >= 1.0
