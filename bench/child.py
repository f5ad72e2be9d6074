"""One repeat of one workload, in a fresh interpreter.

``bench.run`` runs ``python -m bench.child SPEC`` with ``SPEC`` a JSON
object: ``workload``, ``inputs``, ``output``, ``traced``, ``seed``,
``spans_out`` (where a traced repeat writes its spans, or ``null``) and
``cpu``.  The last line of standard output is the repeat's measurements
as JSON.

The repeat, and every process it starts, runs on the one CPU ``cpu``:
the runtime's closed loop then pays no cross-CPU wake-up latency, which
otherwise spreads its per-run throughput by about a quarter.
"""

from __future__ import annotations

import json
import os
import sys

from bench.spans import SpanRecorder
from bench.workloads import WORKLOADS, run_repeat


def main(argv) -> int:
    spec = json.loads(argv[0])
    os.sched_setaffinity(0, {spec["cpu"]})
    workload = WORKLOADS[spec["workload"]]
    rec = SpanRecorder(workload.name, spec["seed"])
    result = run_repeat(
        workload, spec["inputs"], spec["output"], rec, spec["traced"]
    )
    if spec["spans_out"]:
        rec.write_jsonl(spec["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
