"""Wire-metric classification and the hard regression gate.

The piggyback byte rows are the contract of this repo's wire-format
work: the baseline can declare them *hard-gated*, which means a
regression past the hard tolerance fails the run even when the caller
asked for ``--warn-only``.  These tests pin the classification rules
for the new metric names, the ``hard_gate`` baseline block, and the
CLI exit codes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs import report


def _write_bench(tmp_path, name, payload):
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestWireClassification:
    def test_bytes_per_message_is_lower_better_and_gated(self):
        assert report.classify_metric(
            "piggyback_bytes_per_message"
        ) == ("lower", True)
        assert report.classify_metric("bytes_per_message") == (
            "lower",
            True,
        )

    def test_piggyback_byte_totals_are_gated(self):
        assert report.classify_metric("piggyback_bytes") == (
            "lower",
            True,
        )
        assert report.classify_metric("payload_bytes") == ("", False)

    def test_throughput_rule_still_wins_first(self):
        # A name carrying both suffixes is throughput, not bytes.
        assert report.classify_metric("piggyback_bytes_per_sec") == (
            "higher",
            True,
        )


class TestWireRendering:
    def test_bytes_per_message_formatting(self, tmp_path):
        _write_bench(
            tmp_path,
            "wire",
            {"delta": {"bytes_per_message": 3.3103}},
        )
        merged = report.load_bench_dir(tmp_path)
        rendered = report.render_text(merged)
        assert "3.310 B/msg" in rendered
        assert "lower better, gated" in rendered

    def test_wire_family_renders_all_columns(self, tmp_path):
        _write_bench(
            tmp_path,
            "wire",
            {
                "delta": {
                    "bytes_per_message": 3.5,
                    "stamp_encode_per_sec": 250_000.0,
                    "compare_per_sec": 700_000.0,
                },
            },
        )
        merged = report.load_bench_dir(tmp_path)
        for fmt in (report.render_text, report.render_markdown):
            rendered = fmt(merged)
            assert "3.500 B/msg" in rendered
            assert "250,000/s" in rendered
            assert "700,000/s" in rendered


class TestHardGate:
    def _baseline(self, tmp_path, value=4.0, tolerance=0.1):
        current = report.load_bench_dir(tmp_path)
        data = current.to_dict()
        data["metrics"]["wire/load_delta/piggyback_bytes_per_message"][
            "value"
        ] = value
        data["hard_gate"] = {
            "patterns": ["wire/*/piggyback*", "runtime/*/piggyback*"],
            "tolerance": tolerance,
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def _current(self, tmp_path, bytes_per_message):
        _write_bench(
            tmp_path,
            "wire",
            {
                "load_delta": {
                    "piggyback_bytes_per_message": bytes_per_message
                }
            },
        )

    def test_roundtrip_through_to_dict(self, tmp_path):
        self._current(tmp_path, 4.0)
        baseline = report.load_baseline(self._baseline(tmp_path))
        assert baseline.hard_gate is not None
        assert baseline.hard_gate.matches(
            "wire/load_delta/piggyback_bytes_per_message"
        )
        assert not baseline.hard_gate.matches("batch/fast_per_sec")
        assert "hard_gate" in baseline.to_dict()

    def test_regression_past_hard_tolerance_is_hard_failure(
        self, tmp_path
    ):
        self._current(tmp_path, 4.0)
        baseline_path = self._baseline(tmp_path, value=4.0)
        self._current(tmp_path, 6.0)  # +50% bytes: well past 10%
        gate = report.compare_reports(
            report.load_bench_dir(tmp_path),
            report.load_baseline(baseline_path),
        )
        assert not gate.hard_ok
        assert not gate.ok
        assert len(gate.hard_failures) == 1
        assert not gate.regressions  # hard rows don't double-report
        assert "HARD FAIL" in gate.describe()
        assert gate.to_dict()["hard_ok"] is False

    def test_drift_inside_hard_tolerance_passes(self, tmp_path):
        self._current(tmp_path, 4.0)
        baseline_path = self._baseline(tmp_path, value=4.0)
        self._current(tmp_path, 4.2)  # +5% < 10% hard tolerance
        gate = report.compare_reports(
            report.load_bench_dir(tmp_path),
            report.load_baseline(baseline_path),
        )
        assert gate.hard_ok
        assert gate.ok

    def test_improvement_is_never_a_hard_failure(self, tmp_path):
        self._current(tmp_path, 4.0)
        baseline_path = self._baseline(tmp_path, value=4.0)
        self._current(tmp_path, 2.0)
        gate = report.compare_reports(
            report.load_bench_dir(tmp_path),
            report.load_baseline(baseline_path),
        )
        assert gate.hard_ok
        assert len(gate.improvements) == 1

    def test_malformed_hard_gate_rejected(self):
        with pytest.raises(report.BenchReportError):
            report.HardGate.from_dict({"tolerance": 0.1})
        with pytest.raises(report.BenchReportError):
            report.HardGate.from_dict({"patterns": "not-a-list"})
        with pytest.raises(report.BenchReportError):
            report.HardGate(["x"], tolerance=-0.5)


class TestHardGateCli:
    def _setup(self, tmp_path, current_value):
        _write_bench(
            tmp_path,
            "wire",
            {
                "load_delta": {
                    "piggyback_bytes_per_message": 4.0
                }
            },
        )
        data = report.load_bench_dir(tmp_path).to_dict()
        data["hard_gate"] = {
            "patterns": ["wire/*/piggyback*"],
            "tolerance": 0.1,
        }
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(data), encoding="utf-8")
        _write_bench(
            tmp_path,
            "wire",
            {
                "load_delta": {
                    "piggyback_bytes_per_message": current_value
                }
            },
        )
        return baseline

    def test_warn_only_does_not_mask_hard_failures(
        self, tmp_path, capsys
    ):
        baseline = self._setup(tmp_path, current_value=9.0)
        code = main(
            [
                "obs",
                "report",
                "--dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--warn-only",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "HARD FAIL" in captured.out
        assert "hard-gated" in captured.err

    def test_warn_only_still_softens_ordinary_regressions(
        self, tmp_path, capsys
    ):
        baseline = self._setup(tmp_path, current_value=9.0)
        # Rewrite the baseline without the hard block: same regression
        # becomes ordinary and --warn-only downgrades it to exit 0.
        data = json.loads(baseline.read_text(encoding="utf-8"))
        del data["hard_gate"]
        baseline.write_text(json.dumps(data), encoding="utf-8")
        code = main(
            [
                "obs",
                "report",
                "--dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--warn-only",
            ]
        )
        assert code == 0
        assert "REGRESSION" in capsys.readouterr().out

    def test_hard_pass_exits_zero(self, tmp_path):
        baseline = self._setup(tmp_path, current_value=4.1)
        code = main(
            [
                "obs",
                "report",
                "--dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 0
