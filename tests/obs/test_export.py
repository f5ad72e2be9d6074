"""Export formats: JSONL round trip and Prometheus text rendering."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.export import (
    metrics_to_json,
    read_trace_jsonl,
    render_prometheus,
    spans_to_jsonl,
    write_metrics,
    write_trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def _sample_spans():
    tracer = Tracer()
    with tracer.span("outer", topology="ring:4"):
        with tracer.span("inner") as inner:
            inner.set_attribute("step", 1)
    try:
        with tracer.span("broken"):
            raise ValueError("nope")
    except ValueError:
        pass
    return tracer.finished()


class TestJsonlRoundTrip:
    def test_via_file(self, tmp_path):
        spans = _sample_spans()
        path = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(spans, str(path)) == 3
        restored = read_trace_jsonl(str(path))
        assert [s.to_dict() for s in restored] == [
            s.to_dict() for s in spans
        ]

    def test_via_file_object(self):
        spans = _sample_spans()
        buffer = io.StringIO()
        write_trace_jsonl(spans, buffer)
        buffer.seek(0)
        restored = read_trace_jsonl(buffer)
        assert [s.name for s in restored] == ["inner", "outer", "broken"]
        assert restored[-1].status == "error"

    def test_one_valid_json_object_per_line(self):
        text = spans_to_jsonl(_sample_spans())
        lines = text.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert {"name", "span_id", "start"} <= set(record)

    def test_blank_lines_are_skipped(self):
        text = spans_to_jsonl(_sample_spans()) + "\n\n"
        assert len(read_trace_jsonl(io.StringIO(text))) == 3


class TestPrometheusRendering:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "How many hits").inc(7)
        registry.gauge("depth").set(2.5)
        hist = registry.histogram("wait_seconds", buckets=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        return registry

    def test_counter_and_gauge_lines(self):
        text = render_prometheus(self._registry())
        assert "# HELP hits_total How many hits" in text
        assert "# TYPE hits_total counter" in text
        assert "\nhits_total 7" in text
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text

    def test_histogram_lines_are_cumulative(self):
        text = render_prometheus(self._registry())
        assert 'wait_seconds_bucket{le="0.1"} 1' in text
        assert 'wait_seconds_bucket{le="1"} 2' in text
        assert 'wait_seconds_bucket{le="+Inf"} 3' in text
        assert "wait_seconds_sum 5.55" in text
        assert "wait_seconds_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_write_metrics_formats(self, tmp_path):
        registry = self._registry()
        prom_path = tmp_path / "m.prom"
        json_path = tmp_path / "m.json"
        write_metrics(registry, str(prom_path), fmt="prometheus")
        write_metrics(registry, str(json_path), fmt="json")
        assert "hits_total 7" in prom_path.read_text()
        parsed = json.loads(json_path.read_text())
        assert parsed["hits_total"]["value"] == 7
        with pytest.raises(ValueError):
            write_metrics(registry, str(prom_path), fmt="xml")

    def test_json_is_strict_rfc8259(self):
        # No bare Infinity/NaN tokens: strict parsers such as jq
        # reject them.
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        registry = self._registry()
        registry.summary("lat_seconds").observe(0.5)
        parsed = json.loads(
            metrics_to_json(registry), parse_constant=reject
        )
        assert parsed["wait_seconds"]["buckets"][-1] == ["+Inf", 3]

    def test_json_snapshot_matches_registry(self):
        registry = self._registry()
        parsed = json.loads(metrics_to_json(registry))
        assert parsed == json.loads(
            json.dumps(registry.snapshot(), sort_keys=True)
        )


class TestPrometheusEscaping:
    """Exposition-format escaping: out-of-grammar input must never
    corrupt the scrape output (regression tests for the live
    ``/metrics`` endpoint, which serves node-supplied names)."""

    def test_help_escapes_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.counter("c", help="line one\nline \\two").inc()
        text = render_prometheus(registry)
        assert "# HELP c line one\\nline \\\\two" in text
        assert "\nline" not in text.replace("\\nline", "")

    def test_metric_name_is_sanitized_to_grammar(self):
        registry = MetricsRegistry()
        registry.counter('bad name{evil="1"}\ninjected 9').inc(3)
        text = render_prometheus(registry)
        for line in text.splitlines():
            assert line.startswith(("#", "bad_name_evil")), line
        assert "injected 9" not in text
        assert "bad_name_evil__1___injected_9 3" in text

    def test_leading_digit_is_prefixed(self):
        registry = MetricsRegistry()
        registry.gauge("2xx_total").set(1)
        assert "_2xx_total 1" in render_prometheus(registry)

    def test_every_line_matches_the_exposition_grammar(self):
        import re

        registry = MetricsRegistry()
        registry.counter("ok_total", help="fine").inc()
        registry.histogram("h sec", buckets=[0.1]).observe(0.05)
        sketch = registry.summary("q\nuant")
        sketch.observe(1.0)
        line_re = re.compile(
            r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* [^\n]*"
            r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^\n{}]*\})? [^ \n]+)$"
        )
        for line in render_prometheus(registry).splitlines():
            assert line_re.match(line), line
