"""Vertex covers of communication topologies (Section 3.3).

Theorem 5 bounds the timestamp size by ``min(β(G), N-2)`` where ``β(G)``
is the optimal vertex-cover size, and the paper relates the star-only
decomposition to vertex cover.  Minimum vertex cover is NP-hard, so we
provide:

* :func:`matching_vertex_cover` — the classical maximal-matching
  2-approximation;
* :func:`greedy_vertex_cover` — highest-degree-first heuristic (no
  worst-case guarantee, often smaller in practice);
* :func:`exact_vertex_cover` — branch-and-bound exact solver for the
  moderate graph sizes used in tests and benchmarks;
* :func:`is_vertex_cover` — the validity predicate.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Set

from repro.graphs.graph import Edge, UndirectedGraph

Vertex = Hashable


def is_vertex_cover(graph: UndirectedGraph, cover: Iterable[Vertex]) -> bool:
    """True when every edge has at least one endpoint in ``cover``."""
    chosen = set(cover)
    return all(e.u in chosen or e.v in chosen for e in graph.edges)


def matching_vertex_cover(graph: UndirectedGraph) -> List[Vertex]:
    """Both endpoints of a maximal matching: a 2-approximation.

    Deterministic: edges are scanned in insertion order.
    """
    cover: List[Vertex] = []
    covered: Set[Vertex] = set()
    for edge in graph.edges:
        if edge.u not in covered and edge.v not in covered:
            covered.add(edge.u)
            covered.add(edge.v)
            cover.extend(edge.endpoints)
    return cover


def greedy_vertex_cover(graph: UndirectedGraph) -> List[Vertex]:
    """Repeatedly take a vertex covering the most uncovered edges.

    Ties go to the vertex that comes first in graph order.
    """
    # residual[v]: v's neighbours over edges no cover vertex touches yet.
    residual = {v: set(graph.neighbors(v)) for v in graph.vertices}
    remaining = graph.edge_count()
    cover: List[Vertex] = []
    while remaining:
        best_vertex = max(residual, key=lambda v: len(residual[v]))
        cover.append(best_vertex)
        remaining -= len(residual[best_vertex])
        for neighbour in residual[best_vertex]:
            residual[neighbour].discard(best_vertex)
        residual[best_vertex].clear()
    return cover


def exact_vertex_cover(
    graph: UndirectedGraph, upper_bound: Optional[int] = None
) -> List[Vertex]:
    """A minimum vertex cover by branch and bound.

    Branches on a highest-degree endpoint of an uncovered edge: either
    the vertex is in the cover, or all its neighbours are.  A greedy
    solution primes the upper bound; a maximal-matching size provides
    the lower bound for pruning.  Exponential worst case — intended for
    the tens-of-vertices graphs used in the evaluation.
    """
    greedy = greedy_vertex_cover(graph)
    best: List[Vertex] = list(greedy)
    if upper_bound is not None and upper_bound < len(best):
        best = best[:]  # keep greedy; bound only prunes search below

    edges = list(graph.edges)

    def matching_lower_bound(remaining: List[Edge]) -> int:
        used: Set[Vertex] = set()
        size = 0
        for edge in remaining:
            if edge.u not in used and edge.v not in used:
                used.add(edge.u)
                used.add(edge.v)
                size += 1
        return size

    def uncovered(chosen: Set[Vertex]) -> List[Edge]:
        return [
            e for e in edges if e.u not in chosen and e.v not in chosen
        ]

    def search(chosen: Set[Vertex]) -> None:
        nonlocal best
        remaining = uncovered(chosen)
        if not remaining:
            if len(chosen) < len(best):
                best = sorted(chosen, key=lambda v: _order_key(graph, v))
            return
        if len(chosen) + matching_lower_bound(remaining) >= len(best):
            return
        # Branch vertex: endpoint of an uncovered edge with max residual degree.
        counts = {}
        for edge in remaining:
            counts[edge.u] = counts.get(edge.u, 0) + 1
            counts[edge.v] = counts.get(edge.v, 0) + 1
        pivot_edge = max(
            remaining, key=lambda e: counts[e.u] + counts[e.v]
        )
        pivot = (
            pivot_edge.u
            if counts[pivot_edge.u] >= counts[pivot_edge.v]
            else pivot_edge.v
        )
        # Branch 1: pivot in the cover.
        search(chosen | {pivot})
        # Branch 2: pivot excluded, so all its neighbours must be chosen.
        neighbours = set(graph.neighbors(pivot))
        search(chosen | neighbours)

    search(set())
    assert is_vertex_cover(graph, best)
    return best


def minimum_vertex_cover_size(graph: UndirectedGraph) -> int:
    """``β(G)`` — size of an optimal vertex cover (exact solver)."""
    return len(exact_vertex_cover(graph))


def _order_key(graph: UndirectedGraph, vertex: Vertex) -> int:
    return graph.position(vertex)
