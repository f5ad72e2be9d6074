"""Compare two benchmark results: ``python -m bench.compare BASE NEW``.

``BASE`` and ``NEW`` are JSON files written by ``python -m bench.run
--out``.  Every end-to-end metric of every workload present in both is
marked against the metric's regression bound:

* ``unresolved`` when either side's interquartile spread, as a share of
  its median, is wider than the bound, unless every repeat of NEW reads
  better than every repeat of BASE (then ``improved``);
* ``worse`` / ``improved`` when the medians differ by more than the
  bound in the metric's bad / good direction;
* ``unchanged`` otherwise.

One row is printed per workload.  The exit code is 1 if any pair is
``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from bench.workloads import E2E_METRICS


def _spread(summary: Dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def classify(metric: str, base: Dict, new: Dict) -> Tuple[str, float]:
    """``(verdict, change)``; ``change`` > 0 means NEW is worse."""
    _, better, bound = E2E_METRICS[metric]
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    if max(_spread(base), _spread(new)) > bound:
        if better == "lower":
            clear = max(new["values"]) < min(base["values"])
        else:
            clear = min(new["values"]) > max(base["values"])
        return ("improved" if clear else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "improved", change
    return "unchanged", change


def compare(base: Dict, new: Dict) -> List[Tuple[str, Dict[str, Tuple]]]:
    rows = []
    for workload, base_result in base["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            continue
        rows.append(
            (
                workload,
                {
                    metric: classify(
                        metric,
                        base_result["e2e"][metric],
                        new_result["e2e"][metric],
                    )
                    for metric in E2E_METRICS
                },
            )
        )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench.compare",
        description="Mark each end-to-end metric of NEW against BASE.",
    )
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, "r", encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, "r", encoding="utf-8") as handle:
        new = json.load(handle)
    rows = compare(base, new)
    width = max((len(workload) for workload, _ in rows), default=8)
    print(
        "workload".ljust(width)
        + "  "
        + "  ".join(metric.ljust(24) for metric in E2E_METRICS)
    )
    bad = False
    for workload, marks in rows:
        cells = []
        for metric in E2E_METRICS:
            verdict, change = marks[metric]
            bad = bad or verdict in ("worse", "unresolved")
            cells.append(f"{verdict} ({change:+.1%})".ljust(24))
        print(workload.ljust(width) + "  " + "  ".join(cells))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
