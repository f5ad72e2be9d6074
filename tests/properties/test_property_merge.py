"""Property-based verification of the cross-process merge contract.

The live telemetry plane's correctness claim: however the observation
stream is partitioned across node registries, merging the parts gives
*exactly* the serial counters, histograms and quantile sketches, and
every quantile estimate is within relative error ``ALPHA``.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    ALPHA,
    DURATION_BUCKETS,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
)

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Observation values cover the full bucket range plus both tails.
values = st.floats(
    min_value=0.0,
    max_value=100.0,
    allow_nan=False,
    allow_infinity=False,
)
partitions = st.lists(
    st.lists(values, max_size=60), min_size=1, max_size=6
)
# Sketch streams add wide spreads and integer byte sizes.
sketch_values = st.one_of(
    values,
    st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False,
        allow_infinity=False,
    ),
    st.integers(min_value=0, max_value=1 << 20),
)
sketch_partitions = st.lists(
    st.lists(sketch_values, max_size=60), min_size=1, max_size=6
)


def _merge_parts(parts, through_json):
    merged = MetricsRegistry()
    for part in parts:
        if through_json:
            merged.merge_snapshot(
                json.loads(json.dumps(part.snapshot()))
            )
        else:
            merged.merge(part)
    return merged


class TestExactness:
    @RELAXED
    @given(partitions, st.booleans())
    def test_counters_sum_exactly(self, parts, through_json):
        registries = []
        for chunk in parts:
            registry = MetricsRegistry()
            registry.counter("commits").inc(len(chunk))
            registries.append(registry)
        merged = _merge_parts(registries, through_json)
        total = merged.snapshot()["commits"]["value"]
        assert total == sum(len(chunk) for chunk in parts)

    @RELAXED
    @given(partitions, st.booleans())
    def test_histograms_merge_exactly(self, parts, through_json):
        serial = Histogram("h", buckets=DURATION_BUCKETS)
        registries = []
        for chunk in parts:
            registry = MetricsRegistry()
            hist = registry.histogram("h", buckets=DURATION_BUCKETS)
            for value in chunk:
                hist.observe(value)
                serial.observe(value)
            registries.append(registry)
        merged = _merge_parts(registries, through_json)
        hist = merged.snapshot().get("h")
        if hist is None:  # every part was empty
            assert serial.count == 0
            return
        assert hist["count"] == serial.count
        assert abs(hist["sum"] - serial.sum) <= 1e-6 * max(
            1.0, abs(serial.sum)
        )
        assert [
            count for _, count in hist["buckets"]
        ] == [count for _, count in serial.bucket_counts()]

    @RELAXED
    @given(partitions, st.booleans())
    def test_sketch_count_sum_min_max_exact(self, parts, through_json):
        flat = [v for chunk in parts for v in chunk]
        registries = []
        for chunk in parts:
            registry = MetricsRegistry()
            sketch = registry.summary("s")
            for value in chunk:
                sketch.observe(value)
            registries.append(registry)
        merged = _merge_parts(registries, through_json)
        data = merged.snapshot().get("s")
        if not flat:
            assert data is None or data["count"] == 0
            return
        assert data["count"] == len(flat)
        assert abs(data["sum"] - sum(flat)) <= 1e-6 * max(
            1.0, abs(sum(flat))
        )
        assert data["min"] == min(flat)
        assert data["max"] == max(flat)


class TestSketchExactness:
    @RELAXED
    @given(sketch_partitions, st.booleans())
    def test_merge_equals_serial_observation(self, parts, through_json):
        """Merging any partition reports what one sketch observing
        every value reports — every field but the float ``sum``, whose
        rounding depends on the addition order."""
        serial = QuantileSketch("s")
        registries = []
        for chunk in parts:
            registry = MetricsRegistry()
            sketch = registry.summary("s")
            for value in chunk:
                sketch.observe(value)
                serial.observe(value)
            registries.append(registry)
        merged = _merge_parts(registries, through_json).snapshot()["s"]
        expected = serial.snapshot()
        del merged["sum"], expected["sum"]
        assert merged == expected

    @RELAXED
    @given(
        st.lists(
            st.one_of(
                st.just(0.0),
                # Subnormals lose precision in GAMMA**k, so the
                # relative-error contract starts at 1e-9.
                st.floats(min_value=1e-9, max_value=1e6),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_estimates_within_relative_error(self, stream):
        sketch = QuantileSketch("s")
        for value in stream:
            sketch.observe(value)
        ordered = sorted(stream)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            exact = ordered[int(q * (len(ordered) - 1))]
            # The 1e-9 slack absorbs float rounding at bucket edges,
            # where the error is exactly ALPHA.
            assert abs(sketch.quantile(q) - exact) <= (
                ALPHA * exact * (1 + 1e-9)
            ), (q, exact)
