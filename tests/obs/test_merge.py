"""Cross-process metric merging: ``merge`` / ``merge_snapshot``.

The merge contract backing the live telemetry plane: counters and
histograms and quantile sketches fold *exactly*, gauges take the
maximum, and registries create metrics on first sight while rejecting
kind mismatches.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    QuantileSketch,
)


class TestCounterMerge:
    def test_merge_is_exact(self):
        a, b = Counter("c"), Counter("c")
        a.inc(7)
        b.inc(35)
        a.merge(b)
        assert a.value == 42

    def test_merge_snapshot_round_trip(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        b.inc(9)
        a.merge_snapshot(b.snapshot())
        assert a.value == 12

    def test_rejects_other_kinds(self):
        with pytest.raises(MetricError):
            Counter("c").merge(Gauge("c"))


class TestGaugeMerge:
    def test_merge_takes_maximum(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(5)
        b.set(3)
        a.merge(b)
        assert a.value == 5
        b.set(11)
        a.merge_snapshot(b.snapshot())
        assert a.value == 11

    def test_rejects_other_kinds(self):
        with pytest.raises(MetricError):
            Gauge("g").merge(Counter("g"))


class TestHistogramMerge:
    def test_merge_is_exact(self):
        bounds = (0.1, 1.0, 10.0)
        a = Histogram("h", buckets=bounds)
        b = Histogram("h", buckets=bounds)
        samples_a = [0.05, 0.5, 5.0, 50.0]
        samples_b = [0.09, 0.9, 0.95, 9.0]
        for value in samples_a:
            a.observe(value)
        for value in samples_b:
            b.observe(value)
        serial = Histogram("h", buckets=bounds)
        for value in samples_a + samples_b:
            serial.observe(value)
        a.merge(b)
        assert a.bucket_counts() == serial.bucket_counts()
        assert a.count == serial.count
        assert a.sum == pytest.approx(serial.sum)

    def test_merge_snapshot_survives_json(self):
        bounds = (0.5, 2.0)
        a = Histogram("h", buckets=bounds)
        b = Histogram("h", buckets=bounds)
        for value in (0.1, 1.0, 3.0):
            b.observe(value)
        data = json.loads(json.dumps(b.snapshot()))
        a.merge_snapshot(data)
        assert a.count == 3
        assert a.bucket_counts() == b.bucket_counts()

    def test_rejects_mismatched_bounds(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(MetricError):
            a.merge(b)
        with pytest.raises(MetricError):
            a.merge_snapshot(b.snapshot())

    def test_rejects_decreasing_cumulative_counts(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        snapshot = {
            "type": "histogram",
            "count": 2,
            "sum": 1.0,
            "buckets": [[1.0, 2], [2.0, 1], ["+Inf", 2]],
        }
        with pytest.raises(MetricError):
            a.merge_snapshot(snapshot)


class TestSketchMerge:
    def test_count_sum_min_max_merge_exactly(self):
        a, b = QuantileSketch("s"), QuantileSketch("s")
        rng = random.Random(5)
        xs = [rng.random() for _ in range(200)]
        ys = [rng.random() * 10 for _ in range(300)]
        for x in xs:
            a.observe(x)
        for y in ys:
            b.observe(y)
        a.merge(b)
        assert a.count == 500
        assert a.sum == pytest.approx(sum(xs) + sum(ys))
        assert a.min == pytest.approx(min(xs + ys))
        assert a.max == pytest.approx(max(xs + ys))

    def test_small_donor_merges_exactly(self):
        a, b = QuantileSketch("s"), QuantileSketch("s")
        for value in (1.0, 2.0, 3.0):
            b.observe(value)
        a.merge(b)
        serial = QuantileSketch("s")
        for value in (1.0, 2.0, 3.0):
            serial.observe(value)
        assert a.quantiles() == serial.quantiles()

    def test_merged_quantiles_track_serial_observation(self):
        rng = random.Random(17)
        xs = [rng.random() for _ in range(1000)]
        ys = [rng.random() for _ in range(1000)]
        a, b = QuantileSketch("s"), QuantileSketch("s")
        for x in xs:
            a.observe(x)
        for y in ys:
            b.observe(y)
        a.merge(b)
        merged = a.quantiles()
        pooled = sorted(xs + ys)
        for target, estimate in merged.items():
            exact = pooled[int(target * (len(pooled) - 1))]
            assert abs(estimate - exact) < 0.1, (target, estimate, exact)

    def test_rejects_inconsistent_snapshot_unchanged(self):
        a, b = QuantileSketch("s"), QuantileSketch("s")
        a.observe(1.0)
        for value in (0.0, 2.0, 3.0):
            b.observe(value)
        before = a.snapshot()
        short = dict(b.snapshot(), count=4)
        negative = dict(b.snapshot(), zeros=-1, count=1)
        for bad in (short, negative):
            with pytest.raises(MetricError):
                a.merge_snapshot(bad)
        assert a.snapshot() == before


class TestRegistryMerge:
    def _populated(self, commits: int, seed: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("commits").inc(commits)
        registry.gauge("backlog").set(seed)
        hist = registry.histogram("block", buckets=(0.01, 0.1))
        sketch = registry.summary("quants")
        rng = random.Random(seed)
        for _ in range(50):
            value = rng.random()
            hist.observe(value)
            sketch.observe(value)
        return registry

    def test_merge_creates_on_first_sight(self):
        merged = MetricsRegistry()
        merged.merge(self._populated(3, 1))
        merged.merge(self._populated(4, 2))
        snapshot = merged.snapshot()
        assert snapshot["commits"]["value"] == 7
        assert snapshot["block"]["count"] == 100

    def test_merge_snapshot_disjoint_registries(self):
        left = MetricsRegistry()
        left.counter("only_left").inc(2)
        right = MetricsRegistry()
        right.counter("only_right").inc(5)
        merged = MetricsRegistry()
        merged.merge_snapshot(left.snapshot())
        merged.merge_snapshot(right.snapshot())
        snapshot = merged.snapshot()
        assert snapshot["only_left"]["value"] == 2
        assert snapshot["only_right"]["value"] == 5

    def test_merge_snapshot_overlapping_counters_sum_exactly(self):
        parts = [self._populated(n, n) for n in (10, 20, 30)]
        merged = MetricsRegistry()
        for part in parts:
            # Through JSON, as the telemetry wire path does.
            merged.merge_snapshot(json.loads(json.dumps(part.snapshot())))
        assert merged.snapshot()["commits"]["value"] == 60
        assert merged.snapshot()["block"]["count"] == 150

    def test_merge_is_idempotent_per_cumulative_snapshot(self):
        # The live plane folds the *latest* cumulative snapshot per
        # node exactly once; merging the same snapshot twice double
        # counts — this pins the semantics the aggregator relies on.
        part = self._populated(5, 3)
        merged = MetricsRegistry()
        merged.merge_snapshot(part.snapshot())
        once = merged.snapshot()["commits"]["value"]
        merged.merge_snapshot(part.snapshot())
        assert merged.snapshot()["commits"]["value"] == 2 * once

    def test_kind_mismatch_raises(self):
        merged = MetricsRegistry()
        merged.counter("m")
        other = MetricsRegistry()
        other.gauge("m").set(1)
        with pytest.raises(MetricError):
            merged.merge(other)

    def test_unknown_type_in_snapshot_raises(self):
        merged = MetricsRegistry()
        with pytest.raises(MetricError):
            merged.merge_snapshot({"m": {"type": "mystery", "value": 1}})
