"""Benchmark runner: ``python -m bench.run``.

Runs from the root of a repro checkout (the directory holding ``src/``
and ``bench/``)::

    python -m bench.run [--workload NAME|all] [--seed 11] [--seconds 15]
                        [--repeats 3] [--trace [0|1]] [--smoke] [--out FILE]

For each workload, one workload at a time, the runner builds the input
from the seed (untimed), then runs repeats, each in a fresh interpreter,
until ``--seconds`` of repeats have run and at least ``--repeats`` are
done.  Every output is checked by :mod:`bench.oracle`.  With ``--trace``
it then runs traced repeats whose spans give the per-layer metrics, and
writes them to ``bench/out/trace-<workload>.jsonl``.

Output: one ``workload metric value unit`` line per metric, the same
data with a host block as JSON in ``--out``, and, as the last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or the per-layer ones with ``--trace``).  The
exit code is 1 if any output fails its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.workloads import (
    E2E_METRICS,
    LAYER_METRICS,
    WORKLOADS,
    build_input,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
#: A repeat that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 60.0
TRACED_REPEATS = 3


class BenchError(Exception):
    """A repeat crashed or hung: no measurement can be reported."""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m bench.run",
        description="Run the repro benchmark workloads.",
    )
    parser.add_argument(
        "--workload", default="all", choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds",
        type=float,
        default=15.0,
        help="repeat time to measure per workload (default 15)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="minimum untraced repeats per workload (default 3)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="also run traced repeats and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs, one repeat of each kind",
    )
    parser.add_argument("--out", help="JSON result file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.smoke:
        args.seconds = 0.0
        args.repeats = 1
    return args


# ----------------------------------------------------------------------
# Repeats
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, inputs: Dict[str, Any], output: str,
              seed: int, traced: bool = False,
              spans_out: Optional[str] = None) -> Dict[str, Any]:
    """One repeat in a fresh interpreter; returns its measurements.

    The repeat runs in its own process group, so a hung repeat is
    killed together with any node processes it started.
    """
    spec = json.dumps(
        {
            "workload": workload,
            "inputs": inputs,
            "output": output,
            "traced": traced,
            "seed": seed,
            "spans_out": spans_out,
            "cpu": max(os.sched_getaffinity(0)),
        }
    )
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.child", spec],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} repeat exited with {proc.returncode}:\n{stderr}"
        )
    result = json.loads(stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles, extremes and count of one metric's samples."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _verify(workload, inputs, output, seed):
    from bench.oracle import verify_runtime_output, verify_stamp_output

    if workload.path == "runtime":
        return verify_runtime_output(inputs["messages"], output)
    if workload.path == "offline":
        rule = "stored"
    elif workload.wire_format == "full":
        rule = "handshake"
    else:
        rule = None
    return verify_stamp_output(inputs["trace"], output, seed, rule)


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    size = workload.smoke if args.smoke else workload.size
    work = OUT / f"work-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = build_input(workload, size, args.seed, str(work / "trace.json"))
    expected = inputs["messages"]

    verdicts: Dict[str, Any] = {}
    problems: List[str] = []
    attempted = failed = 0

    def measured(kind: str, traced: bool = False,
                 spans_out: Optional[str] = None) -> Dict[str, Any]:
        nonlocal attempted, failed
        output = str(work / "output.json")
        result = run_child(
            kind, inputs, output, args.seed, traced, spans_out
        )
        digest = _digest(output)
        if digest not in verdicts:
            if verdicts:
                problems.append(f"{kind} output differs between repeats")
            verdicts[digest] = _verify(workload, inputs, output, args.seed)
        verdict = verdicts[digest]
        attempted += expected
        failed += verdict.failed
        if result["messages"] != expected:
            problems.append(
                f"{kind} reported {result['messages']} of {expected} "
                "messages"
            )
        child_bytes = result.get("clock_bytes")
        if (
            child_bytes is not None
            and verdict.clock_bytes is not None
            and child_bytes != verdict.clock_bytes
        ):
            problems.append(
                f"{kind} counted {child_bytes} clock bytes, the oracle "
                f"{verdict.clock_bytes}"
            )
        return result

    # With --trace, stamp-cs-obs alternates with plain stamp-cs repeats
    # on the same trace: the obs overhead ratio needs that base, and
    # interleaving keeps host drift out of the ratio.
    kinds = [name]
    if args.trace and workload.obs:
        kinds.append("stamp-cs")
    samples: Dict[str, List[Dict[str, Any]]] = {kind: [] for kind in kinds}
    spent = 0.0
    turn = 0
    while (
        spent < args.seconds
        or any(len(runs) < args.repeats for runs in samples.values())
    ):
        kind = kinds[turn % len(kinds)]
        turn += 1
        result = measured(kind)
        spent += result["wall_s"]
        samples[kind].append(result)
    runs = samples[name]

    report: Dict[str, Any] = {
        "why": workload.why,
        "size": size,
        "messages": expected,
        "e2e": _e2e_metrics(runs, verdicts, expected),
    }
    if args.trace:
        spans_out = str(OUT / f"trace-{name}.jsonl")
        traced = [
            measured(name, traced=True, spans_out=spans_out)
            for _ in range(1 if args.smoke else TRACED_REPEATS)
        ]
        report["layers"] = _layer_metrics(
            workload, runs, traced, samples.get("stamp-cs")
        )
        report["traced_repeats"] = traced
    report.update(
        correct=failed == 0 and not problems,
        attempted=attempted,
        failed=failed,
        problems=problems
        + [p for v in verdicts.values() for p in v.problems],
        repeats=samples,
    )
    shutil.rmtree(work, ignore_errors=True)
    return report


def _e2e_metrics(runs, verdicts, messages) -> Dict[str, Dict[str, Any]]:
    def metric(name, values):
        unit = E2E_METRICS[name][0]
        return {"unit": unit, **summarize(values)}

    if "clock_bytes" in runs[0]:
        clock_bytes = [r["clock_bytes"] / messages for r in runs]
    else:
        verdict = next(iter(verdicts.values()))
        clock_bytes = [verdict.clock_bytes / messages] * len(runs)
    return {
        "e2e_s": metric("e2e_s", [r["e2e_s"] for r in runs]),
        "setup_s": metric("setup_s", [r["setup_s"] for r in runs]),
        "msgs_per_s": metric("msgs_per_s", [r["msgs_per_s"] for r in runs]),
        "peak_rss_mb": metric(
            "peak_rss_mb", [r["peak_rss_mb"] for r in runs]
        ),
        "timestamp_bytes_per_msg": metric(
            "timestamp_bytes_per_msg", clock_bytes
        ),
    }


def _layer_metrics(workload, runs, traced, base_runs):
    """Per-layer metrics: medians over the traced repeats, plus ratios
    and latencies taken from the untraced repeats."""
    layers = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name in LAYER_METRICS
    }
    layers["bench.trace_overhead_ratio"] = statistics.median(
        t["e2e_s"] for t in traced
    ) / statistics.median(r["e2e_s"] for r in runs)
    # The ratio's base is plain stamp-cs stamping of the same trace; a
    # path that never turns the hooks on pays no obs cost (ratio 1).
    layers["obs.overhead_ratio"] = 1.0
    if base_runs:
        layers["obs.overhead_ratio"] = statistics.median(
            r["stamp_s"] for r in runs
        ) / statistics.median(r["stamp_s"] for r in base_runs)
    if workload.path == "runtime":
        for q in ("p50", "p99"):
            layers[f"distributed.rendezvous_{q}_ms"] = statistics.median(
                r[f"rendezvous_{q}_ms"] for r in runs
            )
    return {
        name: {"value": value, "unit": LAYER_METRICS[name][0]}
        for name, value in layers.items()
    }


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def host_info() -> Dict[str, Any]:
    model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"bench: {ROOT / 'src' / 'repro'} is missing; run from a "
            "repro checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        results = {name: run_workload(name, args) for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    out = args.out or str(
        OUT / f"result-{args.workload}-seed{args.seed}"
        f"{'-trace' if args.trace else ''}.json"
    )
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "host": host_info(),
                "seed": args.seed,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "trace": bool(args.trace),
                "workloads": results,
            },
            handle,
            indent=2,
        )
        handle.write("\n")

    headline: Dict[str, Dict[str, Any]] = {}
    for name, result in results.items():
        for problem in result["problems"]:
            print(f"bench: {name}: {problem}", file=sys.stderr)
        for metric, data in result["e2e"].items():
            print(f"{name} {metric} {data['median']!r} {data['unit']}")
        for metric, data in result.get("layers", {}).items():
            print(f"{name} {metric} {data['value']!r} {data['unit']}")
        chosen = (
            result["layers"]
            if args.trace
            else {
                metric: {"value": data["median"], "unit": data["unit"]}
                for metric, data in result["e2e"].items()
            }
        )
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, data in chosen.items():
            headline[prefix + metric] = data
    correct = all(result["correct"] for result in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": headline,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
