"""Edge decompositions into stars and triangles (Definition 2, Figure 7).

An *edge decomposition* of a topology ``G = (V, E)`` is a partition
``{E_1, .., E_d}`` of ``E`` such that every ``(V, E_i)`` is a star or a
triangle.  The online algorithm assigns one vector component per edge
group, so the decomposition size *is* the timestamp size.

This module provides:

* the :class:`StarGroup` / :class:`TriangleGroup` value types and the
  validated :class:`EdgeDecomposition` container;
* :func:`paper_decomposition_algorithm` — a faithful implementation of
  the Figure 7 approximation algorithm, including a step-by-step trace
  (used to regenerate the Figure 8 sample run).  Ratio bound 2
  (Theorem 6); optimal on acyclic graphs (Theorem 7);
* :func:`vertex_cover_decomposition` — the star-only decomposition from
  a vertex cover (Theorem 5);
* :func:`bounded_decomposition` — the generic ``<= N-2`` groups
  construction used when the vertex cover is large;
* :func:`complete_graph_decompositions` — the two decompositions of a
  complete graph shown in Figure 3;
* :func:`optimal_edge_decomposition` — an exact exponential search for
  small graphs (test/benchmark oracle), using the maximal-star branching
  argument from DESIGN.md;
* :func:`decompose` — the practical entry point: runs the cheap
  strategies and returns the smallest valid decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import DecompositionError, EdgeNotFoundError
from repro.graphs.graph import Edge, UndirectedGraph, as_edge
from repro.obs import instrument as _obs
from repro.graphs.vertex_cover import (
    greedy_vertex_cover,
    is_vertex_cover,
    matching_vertex_cover,
)

Vertex = Hashable


@dataclass(frozen=True)
class StarGroup:
    """An edge group all of whose edges share the ``root`` vertex."""

    root: Vertex
    edges: Tuple[Edge, ...]

    kind = "star"

    def __post_init__(self):
        if not self.edges:
            raise DecompositionError("a star group must contain an edge")
        for edge in self.edges:
            if not edge.incident_to(self.root):
                raise DecompositionError(
                    f"edge {edge!r} not incident to star root {self.root!r}"
                )
        if len(set(self.edges)) != len(self.edges):
            raise DecompositionError("duplicate edge inside a star group")

    def describe(self) -> str:
        return f"star rooted at {self.root!r} with {len(self.edges)} edge(s)"


@dataclass(frozen=True)
class TriangleGroup:
    """An edge group whose three edges form a triangle."""

    corners: Tuple[Vertex, Vertex, Vertex]
    edges: Tuple[Edge, Edge, Edge]

    kind = "triangle"

    def __post_init__(self):
        a, b, c = self.corners
        expected = {Edge(a, b), Edge(b, c), Edge(a, c)}
        if set(self.edges) != expected or len(set(self.edges)) != 3:
            raise DecompositionError(
                f"edges {self.edges!r} do not form triangle {self.corners!r}"
            )

    def describe(self) -> str:
        return f"triangle {self.corners!r}"


EdgeGroup = object  # union of StarGroup | TriangleGroup (duck-typed)


def triangle_group(a: Vertex, b: Vertex, c: Vertex) -> TriangleGroup:
    """Convenience constructor building the three edges from corners."""
    return TriangleGroup((a, b, c), (Edge(a, b), Edge(b, c), Edge(a, c)))


def star_group(root: Vertex, others: Iterable[Vertex]) -> StarGroup:
    """Convenience constructor for a star from its root and leaf list."""
    return StarGroup(root, tuple(Edge(root, other) for other in others))


class EdgeDecomposition:
    """A validated edge decomposition of a communication topology.

    Validation enforces Definition 2: the groups are non-empty stars or
    triangles, pairwise disjoint, and together cover every edge of the
    graph exactly once.  The decomposition exposes
    :meth:`group_index_of`, the ``e(m)`` lookup the clock algorithms
    piggyback on.
    """

    def __init__(self, graph: UndirectedGraph, groups: Sequence[EdgeGroup]):
        self._graph = graph
        self._groups: Tuple[EdgeGroup, ...] = tuple(groups)
        # Both orientations of every channel, so ``e(m)`` is one probe.
        self._group_of_pair: Dict[Tuple[Vertex, Vertex], int] = {}
        self._validate()

    def _validate(self) -> None:
        pairs = self._group_of_pair
        for index, group in enumerate(self._groups):
            if not isinstance(group, (StarGroup, TriangleGroup)):
                raise DecompositionError(
                    f"group {index} is not a star or triangle: {group!r}"
                )
            for edge in group.edges:
                u, v = edge.endpoints
                if not self._graph.has_edge(u, v):
                    raise DecompositionError(
                        f"group {index} uses edge {edge!r} absent from graph"
                    )
                if (u, v) in pairs:
                    raise DecompositionError(
                        f"edge {edge!r} appears in groups "
                        f"{pairs[(u, v)]} and {index}"
                    )
                pairs[(u, v)] = pairs[(v, u)] = index
        missing = [e for e in self._graph.edges if e.endpoints not in pairs]
        if missing:
            raise DecompositionError(
                f"{len(missing)} edge(s) not covered, e.g. {missing[0]!r}"
            )

    # ------------------------------------------------------------------
    @property
    def graph(self) -> UndirectedGraph:
        return self._graph

    @property
    def groups(self) -> Tuple[EdgeGroup, ...]:
        return self._groups

    @property
    def size(self) -> int:
        """``d`` — the number of edge groups, i.e. the vector size."""
        return len(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[EdgeGroup]:
        return iter(self._groups)

    def group_index_of(self, u: Vertex, v: Vertex) -> int:
        """The index ``g`` with ``(u, v) ∈ E_g`` (``e(m)`` in the paper)."""
        try:
            return self._group_of_pair[(u, v)]
        except KeyError:
            raise EdgeNotFoundError(
                f"edge {Edge(u, v)!r} is not in the decomposed topology"
            ) from None

    def star_count(self) -> int:
        return sum(1 for g in self._groups if isinstance(g, StarGroup))

    def triangle_count(self) -> int:
        return sum(1 for g in self._groups if isinstance(g, TriangleGroup))

    def describe(self) -> str:
        lines = [
            f"E{index + 1}: {group.describe()}"
            for index, group in enumerate(self._groups)
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"EdgeDecomposition({self.size} groups: "
            f"{self.star_count()} star(s), "
            f"{self.triangle_count()} triangle(s))"
        )


# ----------------------------------------------------------------------
# Figure 7: the approximation algorithm, with a trace for Figure 8
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceEntry:
    """One output action of the Figure 7 algorithm."""

    step: int  # 1, 2 or 3 — which step of the algorithm fired
    group: EdgeGroup
    note: str


@dataclass
class DecompositionTrace:
    """The ordered list of actions taken by the Figure 7 algorithm."""

    entries: List[TraceEntry] = field(default_factory=list)

    def record(self, step: int, group: EdgeGroup, note: str) -> None:
        self.entries.append(TraceEntry(step, group, note))

    def steps_fired(self) -> List[int]:
        return [entry.step for entry in self.entries]

    def describe(self) -> str:
        return "\n".join(
            f"[step {entry.step}] {entry.group.describe()} -- {entry.note}"
            for entry in self.entries
        )


def paper_decomposition_algorithm(
    graph: UndirectedGraph,
    step3_choice: str = "most-adjacent",
) -> Tuple[EdgeDecomposition, DecompositionTrace]:
    """The approximation algorithm of Figure 7, with its action trace.

    Guarantees (proved in the paper and re-verified by our tests):

    * the result is a valid edge decomposition;
    * its size is at most twice the optimal size (Theorem 6);
    * on acyclic graphs the result is optimal (Theorem 7).

    Deterministic tie-breaking: vertices and edges are examined in
    insertion order; step 3 roots the first star at the endpoint of the
    chosen edge with the larger residual degree.

    ``step3_choice`` selects the step-3 pivot edge: ``"most-adjacent"``
    is the paper's heuristic; ``"first"`` takes the first remaining edge
    instead.  The paper notes the ratio-2 proof does not depend on this
    choice — the ablation benchmark quantifies what the heuristic buys.
    """
    if step3_choice not in ("most-adjacent", "first"):
        raise ValueError(
            f"unknown step3_choice {step3_choice!r}; "
            "expected 'most-adjacent' or 'first'"
        )
    working = graph.copy()
    groups: List[EdgeGroup] = []
    trace = DecompositionTrace()
    triangle_free = False

    def emit_star(root: Vertex, edges: Sequence[Edge], step: int, note: str):
        group = StarGroup(root, tuple(edges))
        groups.append(group)
        trace.record(step, group, note)
        working.remove_edges(edges)

    with _obs.span(
        "figure7.decompose",
        vertices=graph.vertex_count(),
        edges=graph.edge_count(),
    ) as algo_span:
        while working.edge_count() > 0:
            # ---- First step: peel stars around degree-1 vertices. ----
            before = len(groups)
            with _obs.span("figure7.step1_pendant_stars") as sp:
                progressed = True
                while progressed:
                    progressed = False
                    for x in working.vertices:
                        if working.degree(x) != 1:
                            continue
                        (edge,) = working.incident_edges(x)
                        y = edge.other(x)
                        star_edges = working.incident_edges(y)
                        emit_star(
                            y,
                            star_edges,
                            step=1,
                            note=f"vertex {x!r} has degree 1",
                        )
                        progressed = True
                        break
                sp.set_attribute("groups_emitted", len(groups) - before)

            # ---- Second step: peel triangles with two deg-2 corners. -
            # The working graph only loses edges, so once it has no
            # triangle it never gains one: stop enumerating them.
            before = len(groups)
            with _obs.span("figure7.step2_triangles") as sp:
                progressed = not triangle_free
                while progressed:
                    progressed = False
                    triangles = working.triangles()
                    triangle_free = not triangles
                    for corners in triangles:
                        low_degree = [
                            v for v in corners if working.degree(v) == 2
                        ]
                        if len(low_degree) < 2:
                            continue
                        a, b, c = corners
                        group = triangle_group(a, b, c)
                        groups.append(group)
                        trace.record(
                            2,
                            group,
                            "two corners have degree 2",
                        )
                        working.remove_edges(group.edges)
                        progressed = True
                        break
                sp.set_attribute("groups_emitted", len(groups) - before)

            if working.edge_count() == 0:
                break

            # ---- Third step: split around the most-adjacent edge. ----
            before = len(groups)
            with _obs.span("figure7.step3_split") as sp:
                if step3_choice == "most-adjacent":
                    # Ranking by degree sum ranks by adjacent-edge count.
                    degree = working.degrees()
                    pivot = max(
                        working.edges,
                        key=lambda e: degree[e.u] + degree[e.v],
                    )
                else:
                    pivot = working.edges[0]
                x, y = pivot.endpoints
                if working.degree(x) > working.degree(y):
                    x, y = y, x  # root the first star at busier endpoint
                y_edges = working.incident_edges(y)
                emit_star(
                    y,
                    y_edges,
                    step=3,
                    note=f"edge {pivot!r} has the most adjacent edges",
                )
                x_edges = working.incident_edges(x)
                if x_edges:
                    emit_star(
                        x,
                        x_edges,
                        step=3,
                        note=f"companion star of edge {pivot!r}",
                    )
                sp.set_attribute("groups_emitted", len(groups) - before)
        algo_span.set_attribute("groups", len(groups))

    return EdgeDecomposition(graph, groups), trace


# ----------------------------------------------------------------------
# Theorem 5 constructions
# ----------------------------------------------------------------------
def vertex_cover_decomposition(
    graph: UndirectedGraph, cover: Optional[Sequence[Vertex]] = None
) -> EdgeDecomposition:
    """Stars rooted at the vertices of a vertex cover (Theorem 5).

    Every edge is assigned to the first cover vertex (in cover order)
    it touches; cover vertices that end up with no edges contribute no
    group, so the size is at most ``len(cover)``.
    """
    if cover is None:
        cover = greedy_vertex_cover(graph)
    if not is_vertex_cover(graph, cover):
        raise DecompositionError("the supplied vertex set is not a cover")

    assignment: Dict[Vertex, List[Edge]] = {v: [] for v in cover}
    for edge in graph.edges:
        for vertex in cover:
            if edge.incident_to(vertex):
                assignment[vertex].append(edge)
                break
    groups = [
        StarGroup(vertex, tuple(edges))
        for vertex, edges in assignment.items()
        if edges
    ]
    return EdgeDecomposition(graph, groups)


def bounded_decomposition(graph: UndirectedGraph) -> EdgeDecomposition:
    """A decomposition of size at most ``max(1, N-2)`` for any topology.

    Assign every edge to its earliest endpoint among the first ``N-3``
    vertices; the remaining edges run among the last three vertices and
    form a triangle or a star.  This realises the ``N-2`` half of the
    ``min(β(G), N-2)`` bound of Theorem 5.
    """
    vertices = list(graph.vertices)
    if graph.edge_count() == 0:
        raise DecompositionError("cannot decompose a graph with no edges")
    head = vertices[:-3] if len(vertices) > 3 else []
    head_set = {v: i for i, v in enumerate(head)}

    assignment: Dict[Vertex, List[Edge]] = {v: [] for v in head}
    leftovers: List[Edge] = []
    for edge in graph.edges:
        indices = [head_set[v] for v in edge.endpoints if v in head_set]
        if indices:
            assignment[head[min(indices)]].append(edge)
        else:
            leftovers.append(edge)

    groups: List[EdgeGroup] = [
        StarGroup(vertex, tuple(edges))
        for vertex, edges in assignment.items()
        if edges
    ]
    if leftovers:
        leftover_graph = graph.subgraph_of_edges(leftovers)
        corners = leftover_graph.is_triangle()
        if corners is not None:
            groups.append(triangle_group(*corners))
        else:
            root = leftover_graph.is_star()
            if root is None:  # pragma: no cover - impossible on 3 vertices
                raise DecompositionError(
                    "leftover edges on three vertices must form a star "
                    "or triangle"
                )
            # Pick a root actually incident to the edges when possible.
            groups.append(StarGroup(root, tuple(leftovers)))
    decomposition = EdgeDecomposition(graph, groups)
    assert decomposition.size <= max(1, graph.vertex_count() - 2)
    return decomposition


def complete_graph_decompositions(
    graph: UndirectedGraph,
) -> Tuple[EdgeDecomposition, EdgeDecomposition]:
    """The two decompositions of a complete graph shown in Figure 3.

    Returns ``(stars_and_triangle, stars_only)``: the first has ``N-3``
    stars plus one triangle (size ``N-2``), the second ``N-1`` stars.
    Requires a complete topology on at least three vertices.
    """
    vertices = list(graph.vertices)
    n = len(vertices)
    if n < 3:
        raise DecompositionError("need at least three processes")
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if not graph.has_edge(u, v):
                raise DecompositionError("topology is not complete")

    def star_prefix(count: int) -> List[EdgeGroup]:
        prefix: List[EdgeGroup] = []
        for i in range(count):
            root = vertices[i]
            edges = tuple(
                Edge(root, vertices[j]) for j in range(i + 1, n)
            )
            prefix.append(StarGroup(root, edges))
        return prefix

    with_triangle = star_prefix(n - 3) + [
        triangle_group(vertices[-3], vertices[-2], vertices[-1])
    ]
    stars_only = star_prefix(n - 1)
    return (
        EdgeDecomposition(graph, with_triangle),
        EdgeDecomposition(graph, stars_only),
    )


# ----------------------------------------------------------------------
# Exact optimum (small graphs)
# ----------------------------------------------------------------------
def optimal_edge_decomposition(
    graph: UndirectedGraph, edge_limit: int = 40
) -> EdgeDecomposition:
    """``α(G)`` witness: a smallest star/triangle edge decomposition.

    Branch-and-bound over the first uncovered edge ``(u, v)``: by the
    maximal-star exchange argument (DESIGN.md §6) it suffices to try
    (a) the maximal star at ``u``, (b) the maximal star at ``v``, and
    (c) every triangle through ``(u, v)``.  The lower bound is a greedy
    matching of the remaining edges — any two edges in one star or
    triangle are adjacent, so pairwise non-adjacent edges need distinct
    groups.  Exponential; refuses graphs above ``edge_limit`` edges.
    """
    edges = list(graph.edges)
    if len(edges) > edge_limit:
        raise DecompositionError(
            f"exact search limited to {edge_limit} edges; "
            f"got {len(edges)} (raise edge_limit explicitly to override)"
        )
    if not edges:
        raise DecompositionError("cannot decompose a graph with no edges")

    edge_index = {edge: i for i, edge in enumerate(edges)}
    incident: Dict[Vertex, List[Edge]] = {v: [] for v in graph.vertices}
    for edge in edges:
        incident[edge.u].append(edge)
        incident[edge.v].append(edge)

    best_groups: List[List[EdgeGroup]] = [
        list(paper_decomposition_algorithm(graph)[0].groups)
    ]

    def matching_bound(remaining: FrozenSet[Edge]) -> int:
        used: Set[Vertex] = set()
        count = 0
        for edge in edges:
            if edge in remaining and edge.u not in used and edge.v not in used:
                used.add(edge.u)
                used.add(edge.v)
                count += 1
        return count

    def search(remaining: FrozenSet[Edge], acc: List[EdgeGroup]) -> None:
        if not remaining:
            if len(acc) < len(best_groups[0]):
                best_groups[0] = list(acc)
            return
        if len(acc) + matching_bound(remaining) >= len(best_groups[0]):
            return
        pivot = min(remaining, key=edge_index.__getitem__)
        u, v = pivot.endpoints

        candidates: List[EdgeGroup] = []
        for root in (u, v):
            star_edges = tuple(
                e for e in incident[root] if e in remaining
            )
            candidates.append(StarGroup(root, star_edges))
        for w in graph.vertices:
            if w in (u, v):
                continue
            uw, vw = (
                (Edge(u, w), Edge(v, w))
                if graph.has_edge(u, w) and graph.has_edge(v, w)
                else (None, None)
            )
            if uw is not None and uw in remaining and vw in remaining:
                candidates.append(triangle_group(u, v, w))

        for group in candidates:
            acc.append(group)
            search(remaining - set(group.edges), acc)
            acc.pop()

    search(frozenset(edges), [])
    return EdgeDecomposition(graph, best_groups[0])


def optimal_size(graph: UndirectedGraph, edge_limit: int = 40) -> int:
    """``α(G)`` — the size of a smallest edge decomposition."""
    return optimal_edge_decomposition(graph, edge_limit=edge_limit).size


# ----------------------------------------------------------------------
# Practical entry point
# ----------------------------------------------------------------------
def decompose(
    graph: UndirectedGraph, use_exact_cover: bool = False
) -> EdgeDecomposition:
    """Return the smallest decomposition among the polynomial strategies.

    >>> from repro.graphs.generators import client_server_topology
    >>> decompose(client_server_topology(2, 10)).size
    2

    Runs the Figure 7 algorithm, the greedy- and matching-vertex-cover
    star decompositions, and (when the graph has more than three
    vertices) the generic ``N-2`` construction, then keeps the smallest.
    The result inherits the 2-approximation guarantee of Figure 7.

    With ``use_exact_cover=True`` the exact (branch-and-bound) vertex
    cover joins the candidate pool, guaranteeing ``size <= β(G)``
    exactly — worthwhile for small or once-per-deployment topologies.
    """
    if graph.edge_count() == 0:
        raise DecompositionError("cannot decompose a graph with no edges")
    with _obs.span(
        "decompose",
        vertices=graph.vertex_count(),
        edges=graph.edge_count(),
        use_exact_cover=use_exact_cover,
    ) as sp:
        greedy_cover = greedy_vertex_cover(graph)
        candidates: List[EdgeDecomposition] = [
            paper_decomposition_algorithm(graph)[0],
            vertex_cover_decomposition(graph, greedy_cover),
            vertex_cover_decomposition(graph, matching_vertex_cover(graph)),
        ]
        cover_bound = len(greedy_cover)
        if use_exact_cover:
            from repro.graphs.vertex_cover import exact_vertex_cover

            exact_cover = exact_vertex_cover(graph)
            cover_bound = len(exact_cover)
            candidates.append(
                vertex_cover_decomposition(graph, exact_cover)
            )
        if graph.vertex_count() > 3:
            candidates.append(bounded_decomposition(graph))
        best = min(candidates, key=lambda d: d.size)
        sp.set_attribute("size", best.size)
        m = _obs.metrics
        if m is not None:
            n_minus_2 = max(1, graph.vertex_count() - 2)
            m.decomposition_size.set(best.size)
            m.decomposition_bound_n_minus_2.set(n_minus_2)
            m.decomposition_bound_cover.set(cover_bound)
            m.theorem5_bound.set(min(cover_bound, n_minus_2))
        return best
