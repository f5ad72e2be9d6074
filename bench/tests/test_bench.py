"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench.compare import classify
from bench.oracle import (
    pick_windows,
    verify_runtime_output,
    verify_stamp_output,
)
from bench.spans import SpanRecorder
from bench.workloads import (
    E2E_METRICS,
    LAYER_METRICS,
    WORKLOADS,
    build_input,
    run_repeat,
)

ROOT = Path(__file__).resolve().parents[2]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    return env


def _smoke_output(name, tmp_path, traced=False):
    workload = WORKLOADS[name]
    inputs = build_input(
        workload, workload.smoke, 7, str(tmp_path / "trace.json")
    )
    output = tmp_path / f"{name}-{traced}.json"
    run_repeat(
        workload, inputs, str(output), SpanRecorder(name, 7), traced
    )
    return inputs, output


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize(
    "name, cli_flags",
    [
        ("stamp-cs", ["--clock", "online"]),
        ("offline-federated", ["--clock", "offline"]),
        (
            "stamp-federated-delta",
            ["--clock", "online", "--wire-format", "delta"],
        ),
    ],
)
def test_stamp_path_matches_repro_stamp(tmp_path, name, cli_flags, traced):
    inputs, output = _smoke_output(name, tmp_path, traced)
    expected = tmp_path / "cli.json"
    subprocess.run(
        [sys.executable, "-m", "repro", "stamp", inputs["trace"],
         *cli_flags, "--output", str(expected)],
        check=True,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.DEVNULL,
    )
    assert output.read_bytes() == expected.read_bytes()


def test_benchmark_json_matches_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in declared["end_to_end"]
    } == E2E_METRICS
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]
    } == LAYER_METRICS


def test_smoke_emits_every_declared_metric(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    headline = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(headline) == {"correct", "attempted", "failed", "metrics"}
    assert headline["correct"] and headline["failed"] == 0
    lines = {
        tuple(line.split()[:2]): line.split()[3]
        for line in proc.stdout.strip().splitlines()[:-1]
    }
    result = json.loads(out.read_text())
    assert set(result["host"]) == {
        "nproc", "sched_getaffinity", "cpu_model", "python"
    }
    for name in WORKLOADS:
        report = result["workloads"][name]
        for metric, (unit, _, _) in E2E_METRICS.items():
            assert report["e2e"][metric]["unit"] == unit
            assert report["e2e"][metric]["median"] > 0
            assert lines[(name, metric)] == unit
        for metric, (unit, _) in LAYER_METRICS.items():
            assert report["layers"][metric]["unit"] == unit
            assert lines[(name, metric)] == unit
            assert headline["metrics"][f"{name}/{metric}"]["unit"] == unit


def test_flipped_stamp_component_fails_the_oracle(tmp_path):
    inputs, output = _smoke_output("stamp-cs", tmp_path)
    assert verify_stamp_output(inputs["trace"], str(output), 7).failed == 0

    record = json.loads(output.read_text())
    start, _ = pick_windows(inputs["messages"], 7)[0]
    stamp = record["timestamps"][f"m{start + 1}"]
    stamp[stamp.index(max(stamp))] += 10**6
    output.write_text(json.dumps(record))
    verdict = verify_stamp_output(inputs["trace"], str(output), 7)
    assert verdict.failed / verdict.attempted > 0
    assert verdict.problems


def test_flipped_runtime_stamp_fails_the_oracle(tmp_path):
    inputs, output = _smoke_output("rendezvous-1x1", tmp_path)
    assert verify_runtime_output(inputs["messages"], str(output)).failed == 0

    record = json.loads(output.read_text())
    record["log"][5][2][0] += 1
    output.write_text(json.dumps(record))
    verdict = verify_runtime_output(inputs["messages"], str(output))
    assert verdict.failed == 1


def _summary(values):
    ordered = sorted(values)
    return {
        "median": ordered[len(ordered) // 2],
        "q1": ordered[len(ordered) // 4],
        "q3": ordered[(3 * len(ordered)) // 4],
        "values": values,
    }


@pytest.mark.parametrize(
    "metric, base, new, verdict",
    [
        ("e2e_s", [1.0, 1.0, 1.01], [1.0, 1.02, 1.01], "unchanged"),
        ("e2e_s", [1.0, 1.0, 1.01], [1.3, 1.31, 1.3], "worse"),
        ("e2e_s", [1.0, 1.0, 1.01], [0.5, 0.5, 0.51], "improved"),
        ("msgs_per_s", [100, 100, 101], [70, 70, 71], "worse"),
        ("e2e_s", [1.0, 1.5, 2.0], [1.0, 1.5, 2.0], "unresolved"),
        ("e2e_s", [1.0, 1.5, 2.0], [0.1, 0.2, 0.3], "improved"),
    ],
)
def test_compare_marks_each_pair(metric, base, new, verdict):
    assert classify(metric, _summary(base), _summary(new))[0] == verdict
