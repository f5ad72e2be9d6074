"""Unified bench-trajectory report over the ``BENCH_*.json`` snapshots.

Each perf PR leaves a snapshot at the repo root — ``BENCH_obs.json``
(hook overhead), ``BENCH_batch.json`` (fast-path stamping),
``BENCH_offline.json`` (Figure 9 kernel), ``BENCH_lattice.json``
(ideal enumeration) — but until now nothing aggregated them: the bench
*trajectory* was invisible.  This module merges every snapshot into one
normalized report, renders it (text / JSON / Markdown), and implements
a regression gate so CI can compare the current snapshots against a
committed baseline and flag drift.

Normalization is schema-light on purpose: a snapshot is a JSON object
whose top-level entries are either scalars or one-level sections of
scalars, and metric *names* carry the semantics —

* ``*_per_sec`` and ``*speedup*`` are throughput-like (higher is
  better) and participate in the regression gate;
* ``*overhead_ratio*`` is cost-like (lower is better) and gated;
* ``*_bytes_per_message`` and piggyback byte totals are wire-cost
  metrics (lower is better) and gated;
* ``*seconds*`` are informational (machine-dependent absolutes) and
  rendered but never gated.

So future benchmarks join the trajectory just by following the naming
convention — no registry edits needed.

A baseline may additionally carry a top-level ``hard_gate`` block::

    "hard_gate": {"patterns": ["runtime/*/piggyback*"], "tolerance": 0.1}

Metrics whose key matches one of the ``fnmatch`` patterns are *hard*
gated: a regression beyond the hard tolerance fails the run even when
the caller asked for ``--warn-only``.  This is how the wire-format
bytes-per-message rows are kept from silently regressing.

Pattern entries may also be objects carrying their own tolerance::

    "hard_gate": {
        "patterns": [
            "runtime/*/piggyback*",
            {"pattern": "obs/live_telemetry/*overhead_ratio*",
             "tolerance": 0.05},
        ],
        "tolerance": 0.1
    }

A plain string uses the block-level tolerance; an object overrides it
for keys it matches (first matching entry wins).  This lets one
baseline gate wire bytes at 10% and telemetry overhead at 5%.
"""

from __future__ import annotations

import fnmatch
import json
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ReproError

SCHEMA = "repro-bench-report/1"

#: Glob the loader uses to find snapshots at a repo root.
BENCH_GLOB = "BENCH_*.json"


class BenchReportError(ReproError):
    """Raised on unreadable snapshots or malformed baselines."""


def classify_metric(name: str) -> Tuple[str, bool]:
    """``(direction, gated)`` for a metric name.

    Direction is ``"higher"`` (better), ``"lower"`` (better), or
    ``""`` (no preference); ``gated`` says whether the regression gate
    compares it against the baseline.
    """
    if name.endswith("_per_sec"):
        return "higher", True
    if "speedup" in name:
        return "higher", True
    if "overhead_ratio" in name:
        return "lower", True
    if name.endswith("bytes_per_message"):
        return "lower", True
    if "piggyback" in name and "bytes" in name:
        return "lower", True
    if "seconds" in name:
        return "lower", False
    return "", False


class BenchMetric:
    """One normalized scalar from one snapshot."""

    __slots__ = ("key", "source", "section", "name", "value",
                 "direction", "gated")

    def __init__(
        self,
        source: str,
        section: str,
        name: str,
        value: float,
        direction: str,
        gated: bool,
    ):
        self.source = source
        self.section = section
        self.name = name
        self.value = value
        self.direction = direction
        self.gated = gated
        parts = [source] + ([section] if section else []) + [name]
        self.key = "/".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "direction": self.direction,
            "gated": self.gated,
        }

    def __repr__(self) -> str:
        return f"BenchMetric({self.key}={self.value})"


class HardGate:
    """Baseline-declared metrics that must never regress past tolerance.

    ``patterns`` are ``fnmatch`` globs over metric keys (e.g.
    ``runtime/*/piggyback*``).  A matching gated metric that regresses
    beyond its hard tolerance is a *hard* failure: the comparison
    fails even under ``--warn-only``.

    An entry is either a plain glob string (gated at the block-level
    ``tolerance``) or a ``{"pattern": ..., "tolerance": ...}`` object
    carrying its own tolerance.  The first matching entry wins, so
    order specific overrides before broad globs.
    """

    __slots__ = ("entries", "tolerance")

    def __init__(self, patterns: List[object], tolerance: float = 0.1):
        if tolerance < 0:
            raise BenchReportError(
                f"hard gate tolerance must be non-negative, got {tolerance}"
            )
        self.tolerance = float(tolerance)
        self.entries: List[Tuple[str, Optional[float]]] = []
        for item in patterns:
            if isinstance(item, dict):
                if "pattern" not in item:
                    raise BenchReportError(
                        "hard_gate pattern objects need a 'pattern' key"
                    )
                per = item.get("tolerance")
                if per is not None:
                    per = float(per)
                    if per < 0:
                        raise BenchReportError(
                            "hard gate tolerance must be non-negative, "
                            f"got {per} for {item['pattern']!r}"
                        )
                self.entries.append((str(item["pattern"]), per))
            else:
                self.entries.append((str(item), None))

    @property
    def patterns(self) -> List[str]:
        return [pattern for pattern, _ in self.entries]

    def matches(self, key: str) -> bool:
        return any(
            fnmatch.fnmatch(key, pattern) for pattern, _ in self.entries
        )

    def tolerance_for(self, key: str) -> Optional[float]:
        """The hard tolerance for ``key``, or ``None`` when unmatched.

        Per-entry tolerances override the block tolerance; the first
        matching entry decides.
        """
        for pattern, per in self.entries:
            if fnmatch.fnmatch(key, pattern):
                return self.tolerance if per is None else per
        return None

    def to_dict(self) -> Dict[str, object]:
        patterns: List[object] = [
            pattern
            if per is None
            else {"pattern": pattern, "tolerance": per}
            for pattern, per in self.entries
        ]
        return {"patterns": patterns, "tolerance": self.tolerance}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HardGate":
        if not isinstance(data, dict) or "patterns" not in data:
            raise BenchReportError(
                "hard_gate must be an object with a 'patterns' list"
            )
        patterns = data["patterns"]
        if not isinstance(patterns, list):
            raise BenchReportError("hard_gate 'patterns' must be a list")
        try:
            tolerance = float(data.get("tolerance", 0.1))
        except (TypeError, ValueError) as exc:
            raise BenchReportError(
                f"hard_gate 'tolerance' must be a number: {exc}"
            ) from exc
        return cls(patterns=patterns, tolerance=tolerance)


class BenchReport:
    """The merged, normalized view of every loaded snapshot."""

    def __init__(
        self,
        sources: Dict[str, Dict[str, object]],
        metrics: List[BenchMetric],
        hard_gate: Optional[HardGate] = None,
    ):
        self.sources = sources
        self.metrics = metrics
        self.hard_gate = hard_gate

    def metric_map(self) -> Dict[str, BenchMetric]:
        return {metric.key: metric for metric in self.metrics}

    def gated_metrics(self) -> List[BenchMetric]:
        return [metric for metric in self.metrics if metric.gated]

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": SCHEMA,
            "sources": self.sources,
            "metrics": {
                metric.key: metric.to_dict() for metric in self.metrics
            },
        }
        if self.hard_gate is not None:
            data["hard_gate"] = self.hard_gate.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchReport":
        if not isinstance(data, dict) or "metrics" not in data:
            raise BenchReportError(
                "baseline is not a normalized bench report "
                "(missing 'metrics'; generate one with "
                "'repro obs report --report-format json')"
            )
        if not isinstance(data["metrics"], dict):
            raise BenchReportError(
                "baseline 'metrics' must be an object keyed by metric"
            )
        metrics: List[BenchMetric] = []
        for key, record in data["metrics"].items():
            parts = key.split("/")
            source = parts[0]
            name = parts[-1]
            section = "/".join(parts[1:-1])
            direction, gated = classify_metric(name)
            try:
                value = float(record["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise BenchReportError(
                    f"baseline metric {key!r} has no numeric 'value': "
                    f"{exc}"
                ) from exc
            metrics.append(
                BenchMetric(
                    source=source,
                    section=section,
                    name=name,
                    value=value,
                    direction=record.get("direction", direction),
                    gated=bool(record.get("gated", gated)),
                )
            )
        sources = data.get("sources", {})
        hard_gate = None
        if "hard_gate" in data:
            hard_gate = HardGate.from_dict(data["hard_gate"])
        return cls(sources=dict(sources), metrics=metrics,
                   hard_gate=hard_gate)

    def __len__(self) -> int:
        return len(self.metrics)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _flatten(
    source: str, data: Dict[str, object]
) -> Tuple[Dict[str, object], List[BenchMetric]]:
    meta: Dict[str, object] = {}
    metrics: List[BenchMetric] = []

    def add(section: str, name: str, value) -> None:
        direction, gated = classify_metric(name)
        metrics.append(
            BenchMetric(
                source=source,
                section=section,
                name=name,
                value=float(value),
                direction=direction,
                gated=gated,
            )
        )

    for key, value in sorted(data.items()):
        if key == "generated_utc":
            meta["generated_utc"] = value
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            add("", key, value)
        elif isinstance(value, dict):
            for sub_key, sub_value in sorted(value.items()):
                if isinstance(sub_value, bool):
                    continue
                if isinstance(sub_value, (int, float)):
                    add(key, sub_key, sub_value)
                else:
                    meta.setdefault("annotations", {})[
                        f"{key}/{sub_key}"
                    ] = sub_value
        else:
            meta.setdefault("annotations", {})[key] = value
    return meta, metrics


def load_bench_file(path: Union[str, pathlib.Path]) -> BenchReport:
    """Normalize one ``BENCH_*.json`` snapshot."""
    path = pathlib.Path(path)
    source = path.stem
    if source.startswith("BENCH_"):
        source = source[len("BENCH_"):]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchReportError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BenchReportError(
            f"{path}: expected a JSON object at the top level"
        )
    meta, metrics = _flatten(source, data)
    meta["file"] = path.name
    return BenchReport(sources={source: meta}, metrics=metrics)


def load_bench_dir(
    root: Union[str, pathlib.Path] = ".",
    pattern: str = BENCH_GLOB,
) -> BenchReport:
    """Merge every ``BENCH_*.json`` under ``root`` into one report."""
    root = pathlib.Path(root)
    sources: Dict[str, Dict[str, object]] = {}
    metrics: List[BenchMetric] = []
    for path in sorted(root.glob(pattern)):
        partial = load_bench_file(path)
        sources.update(partial.sources)
        metrics.extend(partial.metrics)
    return BenchReport(sources=sources, metrics=metrics)


def load_baseline(path: Union[str, pathlib.Path]) -> BenchReport:
    """Load a committed baseline (a normalized report JSON)."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchReportError(
            f"cannot read baseline {path}: {exc}"
        ) from exc
    return BenchReport.from_dict(data)


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
class GateFinding:
    """One gated metric compared against the baseline."""

    __slots__ = ("key", "baseline", "current", "change", "direction")

    def __init__(
        self,
        key: str,
        baseline: float,
        current: float,
        change: float,
        direction: str,
    ):
        self.key = key
        self.baseline = baseline
        self.current = current
        self.change = change  # signed ratio: current/baseline - 1
        self.direction = direction

    def describe(self) -> str:
        return (
            f"{self.key}: {self.current:g} vs baseline "
            f"{self.baseline:g} ({self.change:+.1%}, "
            f"{self.direction} is better)"
        )

    def __repr__(self) -> str:
        return f"GateFinding({self.describe()})"


class GateResult:
    """Outcome of comparing a report against a baseline."""

    def __init__(
        self,
        tolerance: float,
        regressions: List[GateFinding],
        improvements: List[GateFinding],
        missing: List[str],
        hard_failures: Optional[List[GateFinding]] = None,
    ):
        self.tolerance = tolerance
        self.regressions = regressions
        self.improvements = improvements
        self.missing = missing
        self.hard_failures = hard_failures or []

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.hard_failures

    @property
    def hard_ok(self) -> bool:
        """True when no *hard-gated* metric regressed.

        Hard failures cannot be downgraded to warnings: callers honor
        ``--warn-only`` for ordinary regressions but must still fail
        when ``hard_ok`` is False.
        """
        return not self.hard_failures

    def describe(self) -> str:
        lines = [
            f"regression gate: tolerance {self.tolerance:.0%}, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{len(self.missing)} missing metric(s)"
        ]
        if self.hard_failures:
            lines[0] += f", {len(self.hard_failures)} HARD failure(s)"
        for finding in self.hard_failures:
            lines.append(f"  HARD FAIL  {finding.describe()}")
        for finding in self.regressions:
            lines.append(f"  REGRESSION {finding.describe()}")
        for finding in self.improvements:
            lines.append(f"  improved   {finding.describe()}")
        for key in self.missing:
            lines.append(f"  missing    {key} (in baseline only)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        def rows(findings: List[GateFinding]) -> List[Dict[str, object]]:
            return [
                {
                    "key": f.key,
                    "baseline": f.baseline,
                    "current": f.current,
                    "change": f.change,
                    "direction": f.direction,
                }
                for f in findings
            ]

        return {
            "tolerance": self.tolerance,
            "ok": self.ok,
            "hard_ok": self.hard_ok,
            "hard_failures": rows(self.hard_failures),
            "regressions": rows(self.regressions),
            "improvements": rows(self.improvements),
            "missing": list(self.missing),
        }


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    tolerance: float = 0.1,
) -> GateResult:
    """Gate ``current`` against ``baseline`` on the gated metrics.

    A gated metric regresses when it moves against its direction by
    more than ``tolerance`` (relative); it counts as an improvement
    when it moves the other way by more than ``tolerance``.  Metrics
    present only in the baseline are reported as missing (they fail no
    gate — a removed benchmark is a review question, not a perf bug).

    When the baseline declares a ``hard_gate`` block, metrics whose
    key matches one of its patterns use the hard tolerance and land in
    ``hard_failures`` instead of ``regressions`` — callers must fail
    on those even under warn-only reporting.
    """
    if tolerance < 0:
        raise BenchReportError(
            f"tolerance must be non-negative, got {tolerance}"
        )
    hard_gate = baseline.hard_gate
    current_map = current.metric_map()
    regressions: List[GateFinding] = []
    improvements: List[GateFinding] = []
    hard_failures: List[GateFinding] = []
    missing: List[str] = []
    for metric in baseline.metrics:
        if not metric.gated:
            continue
        counterpart = current_map.get(metric.key)
        if counterpart is None:
            missing.append(metric.key)
            continue
        if metric.value == 0:
            continue
        change = counterpart.value / metric.value - 1.0
        worse = -change if metric.direction == "higher" else change
        finding = GateFinding(
            key=metric.key,
            baseline=metric.value,
            current=counterpart.value,
            change=change,
            direction=metric.direction,
        )
        hard_tolerance = (
            hard_gate.tolerance_for(metric.key)
            if hard_gate is not None
            else None
        )
        if hard_tolerance is not None and worse > hard_tolerance:
            hard_failures.append(finding)
        elif worse > tolerance:
            regressions.append(finding)
        elif worse < -tolerance:
            improvements.append(finding)
    regressions.sort(key=lambda f: f.key)
    improvements.sort(key=lambda f: f.key)
    hard_failures.sort(key=lambda f: f.key)
    return GateResult(
        tolerance=tolerance,
        regressions=regressions,
        improvements=improvements,
        missing=sorted(missing),
        hard_failures=hard_failures,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_value(metric: BenchMetric) -> str:
    value = metric.value
    if metric.name.endswith("_per_sec"):
        return f"{value:,.0f}/s"
    if "seconds" in metric.name:
        return f"{value:.6f}s"
    if "speedup" in metric.name:
        return f"{value:.2f}x"
    if metric.name.endswith("bytes_per_message"):
        return f"{value:.3f} B/msg"
    if "rate" in metric.name and abs(value) <= 1.0:
        return f"{value:.4f}"
    if abs(value - round(value)) < 1e-9 and abs(value) < 1e15:
        return str(int(round(value)))
    return f"{value:.4f}"


def _rows(report: BenchReport) -> List[List[str]]:
    rows: List[List[str]] = []
    for metric in report.metrics:
        flags = []
        if metric.direction:
            flags.append(f"{metric.direction} better")
        if metric.gated:
            flags.append("gated")
        rows.append(
            [
                metric.source,
                (f"{metric.section}/" if metric.section else "")
                + metric.name,
                _format_value(metric),
                ", ".join(flags),
            ]
        )
    return rows


_HEADERS = ["source", "metric", "value", "gate"]


def render_text(
    report: BenchReport, gate: Optional[GateResult] = None
) -> str:
    """Plain-text table plus the gate verdict (when one ran)."""
    rows = _rows(report)
    widths = [
        max(len(_HEADERS[i]), *(len(row[i]) for row in rows))
        if rows
        else len(_HEADERS[i])
        for i in range(len(_HEADERS))
    ]

    def line(cells: List[str]) -> str:
        return "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    lines = [line(_HEADERS), line(["-" * w for w in widths])]
    lines.extend(line(row) for row in rows)
    lines.append("")
    lines.append(
        f"{len(report.metrics)} metric(s) from "
        f"{len(report.sources)} snapshot(s): "
        + ", ".join(sorted(report.sources))
    )
    if gate is not None:
        lines.append("")
        lines.append(gate.describe())
    return "\n".join(lines) + "\n"


def render_markdown(
    report: BenchReport, gate: Optional[GateResult] = None
) -> str:
    """GitHub-flavored Markdown rendering (for PR comments / docs)."""
    lines = [
        "| " + " | ".join(_HEADERS) + " |",
        "|" + "|".join("---" for _ in _HEADERS) + "|",
    ]
    lines.extend(
        "| " + " | ".join(row) + " |" for row in _rows(report)
    )
    if gate is not None:
        lines.append("")
        verdict = "**PASS**" if gate.ok else "**FAIL**"
        lines.append(
            f"Regression gate {verdict} at tolerance "
            f"{gate.tolerance:.0%}: {len(gate.regressions)} "
            f"regression(s), {len(gate.improvements)} improvement(s), "
            f"{len(gate.hard_failures)} hard failure(s)."
        )
        for finding in gate.hard_failures:
            lines.append(f"- HARD FAIL {finding.describe()}")
        for finding in gate.regressions:
            lines.append(f"- REGRESSION {finding.describe()}")
    return "\n".join(lines) + "\n"


def render_json(
    report: BenchReport, gate: Optional[GateResult] = None
) -> str:
    """The normalized report (the baseline format) as JSON."""
    data = report.to_dict()
    if gate is not None:
        data["gate"] = gate.to_dict()
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
