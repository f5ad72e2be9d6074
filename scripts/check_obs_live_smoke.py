#!/usr/bin/env python
"""Smoke: the live telemetry plane detects an injected straggler.

Run by ``make obs-live`` and CI.  Drives a small paced load on the
multiprocess runtime with one slow client injected, the telemetry
plane on, and the JSONL stream written to ``--live-out`` (default
``live_telemetry.jsonl``).  Checked invariants:

1. the run completes with zero timeouts and every expected message;
2. at least one straggler or stall health event fires, and at least
   one of those events names the injected slow client;
3. the coordinator's merged counters exactly equal the per-node
   totals: merged ``node_commits_total`` == 2 x committed messages
   (every rendezvous commits on both endpoints);
4. the merge is exact for distributions too: the merged
   ``node_block_quantile_seconds`` count, the merged
   ``node_block_seconds`` count and 2 x committed messages are equal
   (every blocking sample reaches both the histogram and the sketch).
   The server commits once per message, 68 times at 4 x 17, so its
   node-side metrics grow past 64 samples, where a sampling or
   decimating sketch would drop some;
5. the ``--live-out`` stream holds telemetry frames, the health
   event(s), and one trailing summary line, all valid JSON.

Exit status 0 on success; prints the first violated invariant
otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.obs.live import (  # noqa: E402
    NODE_BLOCK_QUANTILES,
    NODE_BLOCK_SECONDS,
    NODE_COMMITS,
    TelemetryConfig,
)
from repro.sim.distributed import run_load  # noqa: E402

SLOW_CLIENT = "C1"
CLIENT_COUNT = 4
MESSAGES_PER_CLIENT = 17


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.9 stub
    print(f"obs-live: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--live-out",
        default="live_telemetry.jsonl",
        help="where to write the telemetry JSONL stream "
        "(default live_telemetry.jsonl)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-rendezvous timeout in seconds (default 60)",
    )
    args = parser.parse_args()

    # Rate pacing keeps the fast clients active for the whole run, so
    # the slow client accumulates enough commit-rate samples to be
    # flagged relative to the fleet median (unpaced clients finish
    # before detection can trip).
    config = TelemetryConfig(
        interval_seconds=0.2,
        every_commits=4,
        straggler_min_nodes=3,
        live_out=args.live_out,
    )
    transport = run_load(
        server_count=1,
        client_count=CLIENT_COUNT,
        messages_per_client=MESSAGES_PER_CLIENT,
        rate=50.0,
        timeout=args.timeout,
        telemetry=config,
        slow_clients=1,
        slow_pace=0.5,
    )
    stats = transport.stats
    live = transport.live
    if live is None:
        fail("telemetry plane did not come up (transport.live is None)")
    if stats.timeouts:
        fail(f"run hit {stats.timeouts} rendezvous timeout(s)")
    expected = CLIENT_COUNT * MESSAGES_PER_CLIENT
    if stats.messages != expected:
        fail(f"committed {stats.messages} messages, expected {expected}")

    events = live.events
    health = [e for e in events if e.kind in ("straggler", "stall")]
    if not health:
        fail("no straggler/stall event despite the injected slow client")
    slow_hits = [e for e in health if e.node == SLOW_CLIENT]
    if not slow_hits:
        kinds = sorted({f"{e.kind}:{e.node}" for e in health})
        fail(
            f"no health event names the slow client {SLOW_CLIENT} "
            f"(got {kinds})"
        )

    merged = live.merged_registry().snapshot()
    commits = merged.get(NODE_COMMITS, {}).get("value")
    if commits != 2 * stats.messages:
        fail(
            f"merged {NODE_COMMITS} = {commits}, expected "
            f"{2 * stats.messages} (2 x {stats.messages} messages)"
        )
    sketch_count = merged.get(NODE_BLOCK_QUANTILES, {}).get("count")
    hist_count = merged.get(NODE_BLOCK_SECONDS, {}).get("count")
    if not sketch_count == hist_count == 2 * stats.messages:
        fail(
            f"merged {NODE_BLOCK_QUANTILES} count = {sketch_count}, "
            f"{NODE_BLOCK_SECONDS} count = {hist_count}, expected both "
            f"{2 * stats.messages} (2 x {stats.messages} messages)"
        )

    path = pathlib.Path(args.live_out)
    lines = [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    kinds = [line.get("type") for line in lines]
    if kinds.count("telemetry") < 4:
        fail(f"only {kinds.count('telemetry')} telemetry line(s) in "
             f"{path}")
    if "health" not in kinds:
        fail(f"no health line in {path}")
    if kinds[-1] != "summary":
        fail(f"stream does not end with a summary line (got {kinds[-1]})")

    print(
        f"obs-live: OK ({stats.messages} messages, "
        f"{stats.telemetry_frames} frame(s), "
        f"{len(slow_hits)} health event(s) on {SLOW_CLIENT}, "
        f"merged commits {commits}, {len(lines)} stream line(s) "
        f"in {path})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
