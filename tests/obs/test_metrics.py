"""Metrics primitives: semantics, bucket edges, and thread safety."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(MetricError):
            Counter("c").inc(-1)

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(2)
        assert counter.snapshot() == {"type": "counter", "value": 2}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogramBucketEdges:
    def test_observation_on_edge_lands_in_that_bucket(self):
        # Upper edges are inclusive, matching Prometheus "le".
        hist = Histogram("h", buckets=[1, 2, 4])
        hist.observe(1)  # exactly on the first edge
        hist.observe(2)  # exactly on the second
        hist.observe(3)  # strictly between 2 and 4
        hist.observe(100)  # overflow -> +Inf
        cumulative = dict(hist.bucket_counts())
        assert cumulative[1.0] == 1
        assert cumulative[2.0] == 2
        assert cumulative[4.0] == 3
        assert cumulative[math.inf] == 4
        assert hist.count == 4
        assert hist.sum == 106

    def test_below_first_edge(self):
        hist = Histogram("h", buckets=[10, 20])
        hist.observe(0)
        assert dict(hist.bucket_counts())[10.0] == 1

    def test_mean(self):
        hist = Histogram("h", buckets=[10])
        assert hist.mean() == 0.0
        hist.observe(2)
        hist.observe(4)
        assert hist.mean() == 3.0

    def test_explicit_inf_bucket_is_collapsed(self):
        hist = Histogram("h", buckets=[1, math.inf])
        assert hist.bounds == (1.0,)

    def test_rejects_bad_buckets(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=[])
        with pytest.raises(MetricError):
            Histogram("h", buckets=[2, 1])
        with pytest.raises(MetricError):
            Histogram("h", buckets=[1, 1])
        with pytest.raises(MetricError):
            Histogram("h", buckets=[math.inf])


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_clash_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_iteration_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta")
        registry.gauge("alpha")
        assert [m.name for m in registry] == ["alpha", "zeta"]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.histogram("sizes", buckets=[8]).observe(4)
        snap = registry.snapshot()
        assert snap["hits"] == {"type": "counter", "value": 3}
        assert snap["sizes"]["count"] == 1
        assert snap["sizes"]["buckets"][-1][0] == "+Inf"

    def test_thread_safety_under_contention(self):
        """Many threads hammering the same names must not lose updates
        or create duplicate metric objects (the rendezvous runtime has
        one thread per process doing exactly this)."""
        registry = MetricsRegistry()
        increments = 2000
        workers = 8

        def worker():
            counter = registry.counter("shared_total")
            hist = registry.histogram("shared_sizes", buckets=[1, 2, 3])
            for i in range(increments):
                counter.inc()
                hist.observe(i % 4)

        threads = [
            threading.Thread(target=worker) for _ in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert registry.counter("shared_total").value == (
            workers * increments
        )
        hist = registry.histogram("shared_sizes", buckets=[1, 2, 3])
        assert hist.count == workers * increments
        assert len(registry) == 2
