"""Experiment fig9 — the offline algorithm (Figure 9).

Times the complete offline pipeline (poset → width → chain partition →
realizer → ranks) and reports the achieved vector sizes against the
Theorem 8 budget.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import emit
from repro.analysis.report import render_table
from repro.clocks.offline import OfflineRealizerClock, theorem8_bound
from repro.graphs.generators import complete_topology
from repro.order.checker import check_encoding
from repro.sim.workload import (
    adversarial_antichain_computation,
    random_computation,
    sequential_chain_computation,
)

WORKLOADS = ["random", "chain", "antichain"]


def _build(workload: str):
    topology = complete_topology(10)
    if workload == "random":
        return random_computation(topology, 150, random.Random(3))
    if workload == "chain":
        return sequential_chain_computation(topology, 150, random.Random(3))
    return adversarial_antichain_computation(topology, 30)


@pytest.mark.parametrize("workload", WORKLOADS, ids=WORKLOADS)
def test_fig9_offline_pipeline(benchmark, report_header, workload):
    computation = _build(workload)
    clock = OfflineRealizerClock()
    assignment = benchmark(clock.timestamp_computation, computation)

    report_header(f"Figure 9: offline algorithm on '{workload}' workload")
    emit(
        render_table(
            ["workload", "messages", "width", "vector size", "floor(N/2)"],
            [
                [
                    workload,
                    len(computation),
                    len(clock.chain_partition),
                    clock.timestamp_size,
                    theorem8_bound(computation),
                ]
            ],
        )
    )
    assert clock.timestamp_size <= max(1, theorem8_bound(computation))
    report = check_encoding(clock, assignment)
    assert report.characterizes
