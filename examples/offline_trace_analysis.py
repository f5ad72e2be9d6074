"""Offline analysis of a persisted trace (Figure 9 workflow).

Run with::

    python examples/offline_trace_analysis.py

A monitoring agent captured a computation online and stored it as JSON.
Later, an analyst reloads the trace and re-timestamps it with the
offline algorithm, which compresses the vectors down to at most the
poset's width — at most ⌊N/2⌋ (Theorem 8), often far less.  When no
process links two groups of messages, the vectors need only as many
components as the widest group (and at least 2).
"""

from __future__ import annotations

import random

from repro import OfflineRealizerClock, theorem8_bound
from repro.analysis.report import render_table
from repro.graphs.generators import complete_topology
from repro.sim.trace_io import dumps_computation, loads_computation
from repro.sim.workload import random_computation


def main() -> None:
    # --- capture side -------------------------------------------------
    topology = complete_topology(10)
    live = random_computation(topology, 80, random.Random(5))
    wire = dumps_computation(live, indent=2)
    print(f"captured trace: {len(live)} messages, {len(wire)} bytes of JSON")

    # --- analysis side ------------------------------------------------
    computation = loads_computation(wire)
    clock = OfflineRealizerClock()
    stamps = clock.timestamp_computation(computation)

    print(
        f"\noffline vectors: {clock.timestamp_size} components "
        f"(Theorem 8 budget: {theorem8_bound(computation)}, "
        f"FM would use {topology.vertex_count()})"
    )

    chains = clock.chain_partition
    print(f"minimum chain partition: {len(chains)} chains, sizes "
          f"{sorted((len(c) for c in chains), reverse=True)}")

    sample = computation.messages[:6]
    print()
    print(
        render_table(
            ["msg", "channel", "offline timestamp"],
            [
                [m.name, f"{m.sender}->{m.receiver}", repr(stamps.of(m))]
                for m in sample
            ],
        )
    )

    # Precedence answers come from plain vector comparisons.
    a, b = computation.messages[10], computation.messages[60]
    va, vb = stamps.of(a), stamps.of(b)
    verdict = (
        "precedes" if va < vb
        else "follows" if vb < va
        else "is concurrent with"
    )
    print(f"\n{a.name} {verdict} {b.name}")


if __name__ == "__main__":
    main()
