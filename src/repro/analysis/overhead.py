"""Overhead metrics: what each clock costs on a given system.

The paper's evaluation-style claims are about *vector size* as a
function of the topology: the online algorithm needs ``d`` components
(the edge-decomposition size), FM needs ``N``, and the offline
algorithm needs at most ``width(M, ↦) <= floor(N/2)``.  This module computes
those numbers for a topology (and optionally a workload) and packages
them for the benchmark tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.clocks.offline import theorem8_bound
from repro.core.chains import width
from repro.graphs.decomposition import (
    EdgeDecomposition,
    decompose,
    paper_decomposition_algorithm,
)
from repro.graphs.graph import UndirectedGraph
from repro.graphs.vertex_cover import (
    exact_vertex_cover,
    greedy_vertex_cover,
)
from repro.order.message_order import message_poset
from repro.sim.computation import SyncComputation


@dataclass(frozen=True)
class TopologyOverhead:
    """Vector sizes implied by one communication topology."""

    label: str
    process_count: int
    edge_count: int
    fm_size: int
    online_size: int
    figure7_size: int
    greedy_cover_size: int
    exact_cover_size: Optional[int]  # None when the exact solver was skipped

    @property
    def saving_factor(self) -> float:
        """How many times smaller the online vectors are than FM's."""
        if self.online_size == 0:
            return float("inf")
        return self.fm_size / self.online_size


def topology_overhead(
    label: str,
    topology: UndirectedGraph,
    compute_exact_cover: bool = False,
) -> TopologyOverhead:
    """Measure every static size metric for one topology."""
    decomposition = decompose(topology)
    figure7, _ = paper_decomposition_algorithm(topology)
    greedy_cover = greedy_vertex_cover(topology)
    exact_size: Optional[int] = None
    if compute_exact_cover:
        exact_size = len(exact_vertex_cover(topology))
    return TopologyOverhead(
        label=label,
        process_count=topology.vertex_count(),
        edge_count=topology.edge_count(),
        fm_size=topology.vertex_count(),
        online_size=decomposition.size,
        figure7_size=figure7.size,
        greedy_cover_size=len(greedy_cover),
        exact_cover_size=exact_size,
    )


@dataclass(frozen=True)
class WorkloadOverhead:
    """Per-computation metrics: what the offline algorithm achieves."""

    label: str
    message_count: int
    active_processes: int
    poset_width: int
    theorem8_limit: int
    online_size: int

    @property
    def width_slack(self) -> int:
        """How far below the ``floor(N/2)`` bound the width actually is."""
        return self.theorem8_limit - self.poset_width


def workload_overhead(
    label: str,
    computation: SyncComputation,
    decomposition: Optional[EdgeDecomposition] = None,
) -> WorkloadOverhead:
    """Measure the dynamic (per-computation) size metrics."""
    if decomposition is None:
        decomposition = decompose(computation.topology)
    return WorkloadOverhead(
        label=label,
        message_count=len(computation),
        active_processes=len(computation.active_processes()),
        poset_width=width(message_poset(computation)),
        theorem8_limit=theorem8_bound(computation),
        online_size=decomposition.size,
    )


def sweep_topologies(
    families: Dict[str, List[UndirectedGraph]],
    compute_exact_cover: bool = False,
) -> List[TopologyOverhead]:
    """Overheads for families of growing topologies (scalability sweep)."""
    rows: List[TopologyOverhead] = []
    for family, graphs in families.items():
        for graph in graphs:
            rows.append(
                topology_overhead(
                    f"{family}/N={graph.vertex_count()}",
                    graph,
                    compute_exact_cover=compute_exact_cover,
                )
            )
    return rows
