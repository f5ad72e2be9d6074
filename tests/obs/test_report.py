"""Bench-trajectory report: normalization, rendering, the gate."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.obs import report

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _write_bench(tmp_path, name, payload):
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestClassification:
    def test_throughput_is_higher_better_and_gated(self):
        assert report.classify_metric("messages_per_sec") == (
            "higher",
            True,
        )
        assert report.classify_metric("batch_speedup") == (
            "higher",
            True,
        )

    def test_overhead_ratio_is_lower_better_and_gated(self):
        assert report.classify_metric("obs_overhead_ratio") == (
            "lower",
            True,
        )

    def test_seconds_are_informational(self):
        assert report.classify_metric("bitset_seconds") == (
            "lower",
            False,
        )

    def test_plain_counts_are_ungated(self):
        assert report.classify_metric("messages") == ("", False)


class TestLoading:
    def test_flattens_sections_and_scalars(self, tmp_path):
        _write_bench(
            tmp_path,
            "demo",
            {
                "generated_utc": "2026-01-01T00:00:00Z",
                "top_speedup": 3.0,
                "workload": {"messages_per_sec": 1000.0, "label": "x"},
            },
        )
        merged = report.load_bench_dir(tmp_path)
        keys = {metric.key for metric in merged.metrics}
        assert keys == {
            "demo/top_speedup",
            "demo/workload/messages_per_sec",
        }
        assert (
            merged.sources["demo"]["generated_utc"]
            == "2026-01-01T00:00:00Z"
        )

    def test_merges_all_committed_snapshots(self):
        """Acceptance: the report merges every committed
        BENCH_*.json file at the repo root."""
        merged = report.load_bench_dir(REPO_ROOT)
        assert set(merged.sources) == {
            "obs",
            "batch",
            "offline",
            "lattice",
            "runtime",
            "wire",
        }
        assert len(merged.gated_metrics()) >= 10
        gated_keys = {m.key for m in merged.gated_metrics()}
        assert "batch/batch_speedup" in gated_keys
        assert any("overhead_ratio" in key for key in gated_keys)

    def test_unreadable_snapshot_raises(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(report.BenchReportError):
            report.load_bench_dir(tmp_path)

    def test_roundtrip_through_dict(self, tmp_path):
        _write_bench(tmp_path, "x", {"a_per_sec": 5.0, "count": 2})
        merged = report.load_bench_dir(tmp_path)
        again = report.BenchReport.from_dict(merged.to_dict())
        assert again.metric_map().keys() == merged.metric_map().keys()
        for key, metric in merged.metric_map().items():
            twin = again.metric_map()[key]
            assert twin.value == metric.value
            assert twin.gated == metric.gated

    def test_baseline_must_be_normalized(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"messages_per_sec": 5}))
        with pytest.raises(report.BenchReportError, match="baseline"):
            report.load_baseline(raw)


class TestGate:
    def _reports(self, tmp_path, current_value, baseline_value):
        current_dir = tmp_path / "current"
        baseline_dir = tmp_path / "baseline"
        current_dir.mkdir()
        baseline_dir.mkdir()
        _write_bench(
            current_dir, "x", {"run": {"messages_per_sec": current_value}}
        )
        _write_bench(
            baseline_dir,
            "x",
            {"run": {"messages_per_sec": baseline_value}},
        )
        return (
            report.load_bench_dir(current_dir),
            report.load_bench_dir(baseline_dir),
        )

    def test_within_tolerance_passes(self, tmp_path):
        current, baseline = self._reports(tmp_path, 95.0, 100.0)
        gate = report.compare_reports(current, baseline, tolerance=0.1)
        assert gate.ok
        assert gate.regressions == []

    def test_regression_beyond_tolerance_fails(self, tmp_path):
        current, baseline = self._reports(tmp_path, 70.0, 100.0)
        gate = report.compare_reports(current, baseline, tolerance=0.2)
        assert not gate.ok
        (finding,) = gate.regressions
        assert finding.key == "x/run/messages_per_sec"
        assert finding.change == pytest.approx(-0.3)
        assert "REGRESSION" in gate.describe()

    def test_lower_is_better_direction(self, tmp_path):
        current_dir = tmp_path / "c"
        baseline_dir = tmp_path / "b"
        current_dir.mkdir()
        baseline_dir.mkdir()
        _write_bench(current_dir, "x", {"obs_overhead_ratio": 2.0})
        _write_bench(baseline_dir, "x", {"obs_overhead_ratio": 1.0})
        gate = report.compare_reports(
            report.load_bench_dir(current_dir),
            report.load_bench_dir(baseline_dir),
            tolerance=0.1,
        )
        assert not gate.ok  # the ratio doubled: cost regressed

    def test_improvement_is_reported_not_failed(self, tmp_path):
        current, baseline = self._reports(tmp_path, 200.0, 100.0)
        gate = report.compare_reports(current, baseline, tolerance=0.1)
        assert gate.ok
        assert len(gate.improvements) == 1

    def test_missing_metric_is_flagged_but_passes(self, tmp_path):
        current_dir = tmp_path / "c"
        current_dir.mkdir()
        _write_bench(current_dir, "y", {"other_per_sec": 5.0})
        current = report.load_bench_dir(current_dir)
        _, baseline = self._reports(tmp_path, 1.0, 100.0)
        gate = report.compare_reports(current, baseline)
        assert gate.ok
        assert gate.missing == ["x/run/messages_per_sec"]

    def test_negative_tolerance_rejected(self, tmp_path):
        current, baseline = self._reports(tmp_path, 1.0, 1.0)
        with pytest.raises(report.BenchReportError):
            report.compare_reports(current, baseline, tolerance=-1)


class TestRendering:
    def test_text_render_lists_every_metric(self, tmp_path):
        _write_bench(
            tmp_path, "x", {"run": {"messages_per_sec": 1234.0}}
        )
        merged = report.load_bench_dir(tmp_path)
        text = report.render_text(merged)
        assert "run/messages_per_sec" in text
        assert "1,234/s" in text
        assert "1 snapshot(s)" in text

    def test_markdown_render_includes_gate_verdict(self, tmp_path):
        _write_bench(tmp_path, "x", {"a_per_sec": 50.0})
        merged = report.load_bench_dir(tmp_path)
        gate = report.compare_reports(merged, merged)
        markdown = report.render_markdown(merged, gate)
        assert "| source | metric | value | gate |" in markdown
        assert "**PASS**" in markdown

    def test_json_render_is_a_loadable_baseline(self, tmp_path):
        _write_bench(tmp_path, "x", {"a_per_sec": 50.0})
        merged = report.load_bench_dir(tmp_path)
        rendered = report.render_json(merged)
        out = tmp_path / "baseline.json"
        out.write_text(rendered, encoding="utf-8")
        baseline = report.load_baseline(out)
        assert report.compare_reports(merged, baseline).ok


class TestHardGatePerPattern:
    """Per-pattern hard tolerances (the live-telemetry 5% bar rides on
    these)."""

    def test_string_entries_use_block_tolerance(self):
        gate = report.HardGate(["a/*"], tolerance=0.2)
        assert gate.tolerance_for("a/x") == 0.2
        assert gate.tolerance_for("b/x") is None

    def test_dict_entry_overrides_block_tolerance(self):
        gate = report.HardGate(
            [{"pattern": "obs/*overhead_ratio*", "tolerance": 0.05}, "*"],
            tolerance=0.2,
        )
        assert gate.tolerance_for(
            "obs/live_telemetry/telemetry_overhead_ratio"
        ) == 0.05
        assert gate.tolerance_for("runtime/x/messages_per_sec") == 0.2

    def test_first_matching_entry_wins(self):
        gate = report.HardGate(
            ["*", {"pattern": "special/*", "tolerance": 0.01}],
            tolerance=0.3,
        )
        # The broad glob is first, so the override never fires.
        assert gate.tolerance_for("special/metric") == 0.3

    def test_entry_without_pattern_key_rejected(self):
        with pytest.raises(report.BenchReportError):
            report.HardGate([{"tolerance": 0.1}])

    def test_negative_per_pattern_tolerance_rejected(self):
        with pytest.raises(report.BenchReportError):
            report.HardGate([{"pattern": "x", "tolerance": -0.1}])

    def test_round_trips_through_dict(self):
        gate = report.HardGate(
            ["plain/*", {"pattern": "strict/*", "tolerance": 0.02}],
            tolerance=0.15,
        )
        clone = report.HardGate.from_dict(gate.to_dict())
        assert clone.entries == gate.entries
        assert clone.tolerance == gate.tolerance

    def test_per_pattern_tolerance_decides_hard_failure(self, tmp_path):
        current_dir = tmp_path / "current"
        current_dir.mkdir()
        _write_bench(
            current_dir, "obs", {"live": {"telemetry_overhead_ratio": 1.08}}
        )
        baseline = report.BenchReport.from_dict(
            {
                "metrics": {
                    "obs/live/telemetry_overhead_ratio": {"value": 1.0}
                },
                "hard_gate": {
                    "patterns": [
                        {
                            "pattern": "obs/*overhead_ratio*",
                            "tolerance": 0.05,
                        }
                    ],
                    "tolerance": 0.5,
                },
            }
        )
        result = report.compare_reports(
            report.load_bench_dir(current_dir), baseline, tolerance=0.5
        )
        assert result.hard_failures
        assert not result.ok
        # Within 5% passes the same gate.
        _write_bench(
            current_dir, "obs", {"live": {"telemetry_overhead_ratio": 1.04}}
        )
        result = report.compare_reports(
            report.load_bench_dir(current_dir), baseline, tolerance=0.5
        )
        assert not result.hard_failures
        assert result.ok


class TestMalformedSnapshots:
    def test_unparseable_json_raises_bench_report_error(self, tmp_path):
        (tmp_path / "BENCH_broken.json").write_text("{not json", "utf-8")
        with pytest.raises(report.BenchReportError):
            report.load_bench_dir(tmp_path)

    def test_non_numeric_baseline_value_raises(self):
        data = {
            "metrics": {
                "x/run/messages_per_sec": {"value": "fast"},
            }
        }
        with pytest.raises(report.BenchReportError) as excinfo:
            report.BenchReport.from_dict(data)
        assert "no numeric 'value'" in str(excinfo.value)

    def test_cli_exits_with_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "BENCH_broken.json").write_text("{not json", "utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "report", "--dir", str(tmp_path)])
        message = str(excinfo.value)
        assert message.startswith("obs report:")
        assert "\n" not in message
