"""Undirected graphs modelling communication topologies (Section 3.1).

The communication topology of a synchronous system is an undirected
graph ``G = (V, E)`` whose vertices are processes and whose edges are
the pairs of processes that may communicate directly.  This module
implements that graph from scratch (adjacency sets, deterministic
iteration order) together with the structural predicates the paper's
algorithms rely on: star and triangle recognition, degrees, acyclicity,
connected components and triangle enumeration.

Edges are *unordered* pairs; :class:`Edge` normalises the endpoint order
so ``Edge('a', 'b') == Edge('b', 'a')`` and the pair can be used as a
dictionary key (e.g. mapping each channel to its edge group).

:class:`UndirectedGraph` answers every query from three indexes that
each mutation keeps up to date:

* ``_position`` maps each vertex to its insertion position; its key
  order *is* the vertex order.
* ``_edges`` holds the edges as an insertion-ordered dict (values
  unused); its key order *is* the edge order, and removal is O(1).
* ``_adjacency[u]`` maps each neighbour ``v`` of ``u`` to the stored
  :class:`Edge` ``(u, v)``, in edge insertion order.  So ``v in
  _adjacency[u]`` iff ``Edge(u, v) in _edges``, and the values of
  ``_adjacency[u]`` are the edges incident to ``u`` in edge order.

A removed and re-added edge moves to the end of both ``_edges`` and the
two ``_adjacency`` entries, so per-vertex order always agrees with the
global edge order.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError

Vertex = Hashable


class Edge:
    """An unordered pair of distinct vertices.

    >>> Edge("b", "a") == Edge("a", "b")
    True
    >>> Edge("a", "b").other("a")
    'b'
    """

    __slots__ = ("_u", "_v")

    def __init__(self, u: Vertex, v: Vertex):
        if u == v:
            raise GraphError(f"self-loop edge at {u!r} is not allowed")
        # Normalise by repr ordering so equal pairs hash identically even
        # for mixed types; repr of a hashable is stable within a run.
        if _vertex_sort_key(v) < _vertex_sort_key(u):
            u, v = v, u
        self._u = u
        self._v = v

    @property
    def u(self) -> Vertex:
        return self._u

    @property
    def v(self) -> Vertex:
        return self._v

    @property
    def endpoints(self) -> Tuple[Vertex, Vertex]:
        return (self._u, self._v)

    def other(self, vertex: Vertex) -> Vertex:
        """The endpoint that is not ``vertex``."""
        if vertex == self._u:
            return self._v
        if vertex == self._v:
            return self._u
        raise GraphError(f"{vertex!r} is not an endpoint of {self!r}")

    def incident_to(self, vertex: Vertex) -> bool:
        return vertex == self._u or vertex == self._v

    def shares_endpoint(self, other: "Edge") -> bool:
        """True when the two edges have a common endpoint (are adjacent)."""
        return (
            self._u == other._u
            or self._u == other._v
            or self._v == other._u
            or self._v == other._v
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Edge):
            return self._u == other._u and self._v == other._v
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._u, self._v))

    def __iter__(self) -> Iterator[Vertex]:
        return iter((self._u, self._v))

    def __repr__(self) -> str:
        return f"({self._u!r},{self._v!r})"


def _vertex_sort_key(vertex: Vertex) -> Tuple[str, str]:
    return (type(vertex).__name__, repr(vertex))


def as_edge(edge_like) -> Edge:
    """Coerce an :class:`Edge` or a 2-tuple into an :class:`Edge`."""
    if isinstance(edge_like, Edge):
        return edge_like
    u, v = edge_like
    return Edge(u, v)


class UndirectedGraph:
    """A finite simple undirected graph with deterministic iteration.

    Vertices and edges iterate in insertion order, so every algorithm in
    the library produces reproducible output for a fixed input.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable = (),
    ):
        self._position: Dict[Vertex, int] = {}
        self._edges: Dict[Edge, None] = {}
        self._adjacency: Dict[Vertex, Dict[Vertex, Edge]] = {}
        for vertex in vertices:
            self.add_vertex(vertex)
        for edge in edges:
            self.add_edge(*as_edge(edge).endpoints)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        if vertex not in self._position:
            self._position[vertex] = len(self._position)
            self._adjacency[vertex] = {}

    def add_edge(self, u: Vertex, v: Vertex) -> Edge:
        existing = self._adjacency.get(u, {}).get(v)
        if existing is not None:
            return existing
        edge = Edge(u, v)
        self.add_vertex(u)
        self.add_vertex(v)
        self._edges[edge] = None
        self._adjacency[u][v] = edge
        self._adjacency[v][u] = edge
        return edge

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        edge = self._adjacency.get(u, {}).pop(v, None)
        if edge is None:
            raise EdgeNotFoundError(f"edge {Edge(u, v)!r} not in graph")
        del self._adjacency[v][u]
        del self._edges[edge]

    def remove_edges(self, edges: Iterable) -> None:
        for edge_like in list(edges):
            edge = as_edge(edge_like)
            self.remove_edge(edge.u, edge.v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        return tuple(self._position)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(self._edges)

    def vertex_count(self) -> int:
        return len(self._position)

    def edge_count(self) -> int:
        return len(self._edges)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._position

    def position(self, vertex: Vertex) -> int:
        """Insertion position of ``vertex`` (its index in ``vertices``)."""
        self._require_vertex(vertex)
        return self._position[vertex]

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        neighbours = self._adjacency.get(u)
        return neighbours is not None and v in neighbours

    def neighbors(self, vertex: Vertex) -> List[Vertex]:
        """Neighbours of ``vertex`` in deterministic (insertion) order."""
        self._require_vertex(vertex)
        return sorted(self._adjacency[vertex], key=self._position.__getitem__)

    def degree(self, vertex: Vertex) -> int:
        self._require_vertex(vertex)
        return len(self._adjacency[vertex])

    def degrees(self) -> Dict[Vertex, int]:
        return {v: len(adjacent) for v, adjacent in self._adjacency.items()}

    def max_degree(self) -> int:
        return max(map(len, self._adjacency.values()), default=0)

    def incident_edges(self, vertex: Vertex) -> List[Edge]:
        """Edges incident to ``vertex`` in deterministic (edge) order."""
        self._require_vertex(vertex)
        return list(self._adjacency[vertex].values())

    def adjacent_edge_count(self, edge_like) -> int:
        """Number of edges sharing an endpoint with the given edge.

        Step three of the Figure 7 algorithm picks the edge maximising
        this quantity.
        """
        edge = as_edge(edge_like)
        if edge not in self._edges:
            raise EdgeNotFoundError(f"edge {edge!r} not in graph")
        return len(self._adjacency[edge.u]) + len(self._adjacency[edge.v]) - 2

    def _require_vertex(self, vertex: Vertex) -> None:
        if vertex not in self._position:
            raise VertexNotFoundError(f"vertex {vertex!r} not in graph")

    # ------------------------------------------------------------------
    # Structure predicates (Section 3.1)
    # ------------------------------------------------------------------
    def is_star(self) -> Optional[Vertex]:
        """When every edge shares one common vertex, return that root.

        Following the paper, a star is defined by its *edge set*: there
        must exist a vertex incident to every edge.  A graph with no
        edges is trivially a star (any vertex works; we return the first
        vertex, or ``None`` for the empty graph).  Returns ``None`` when
        the graph is not a star.
        """
        if not self._edges:
            return next(iter(self._position), None)
        first = next(iter(self._edges))
        for candidate in first.endpoints:
            if len(self._adjacency[candidate]) == len(self._edges):
                return candidate
        return None

    def is_triangle(self) -> Optional[Tuple[Vertex, Vertex, Vertex]]:
        """When the edge set is exactly a triangle, return its corners."""
        if len(self._edges) != 3:
            return None
        corners: Set[Vertex] = set()
        for edge in self._edges:
            corners.update(edge.endpoints)
        if len(corners) != 3:
            return None
        a, b, c = sorted(corners, key=self._position.__getitem__)
        if self.has_edge(a, b) and self.has_edge(b, c) and self.has_edge(a, c):
            return (a, b, c)
        return None

    def triangles(self) -> List[Tuple[Vertex, Vertex, Vertex]]:
        """All triangles, each listed once with vertices in graph order.

        Triangles come grouped by their first two corners' edge, in edge
        order; within a group the third corner runs in vertex order.
        """
        order = self._position
        found: List[Tuple[Vertex, Vertex, Vertex]] = []
        for edge in self._edges:
            u, v = edge.endpoints
            if order[u] > order[v]:
                u, v = v, u
            u_adjacent, v_adjacent = self._adjacency[u], self._adjacency[v]
            if len(u_adjacent) > len(v_adjacent):
                u_adjacent, v_adjacent = v_adjacent, u_adjacent
            last = order[v]
            common = [
                w for w in u_adjacent if w in v_adjacent and order[w] > last
            ]
            common.sort(key=order.__getitem__)
            found.extend((u, v, w) for w in common)
        return found

    def is_acyclic(self) -> bool:
        """True when the graph is a forest."""
        visited: Set[Vertex] = set()
        for root in self._position:
            if root in visited:
                continue
            stack: List[Tuple[Vertex, Optional[Vertex]]] = [(root, None)]
            visited.add(root)
            while stack:
                current, parent = stack.pop()
                for nxt in self._adjacency[current]:
                    if nxt == parent:
                        continue
                    if nxt in visited:
                        return False
                    visited.add(nxt)
                    stack.append((nxt, current))
        return True

    def connected_components(self) -> List[List[Vertex]]:
        """Vertex lists of the connected components, deterministic order."""
        seen: Set[Vertex] = set()
        components: List[List[Vertex]] = []
        for root in self._position:
            if root in seen:
                continue
            component = [root]
            seen.add(root)
            frontier = [root]
            while frontier:
                current = frontier.pop()
                for nxt in self.neighbors(current):
                    if nxt not in seen:
                        seen.add(nxt)
                        component.append(nxt)
                        frontier.append(nxt)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if not self._position:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------
    def copy(self) -> "UndirectedGraph":
        clone = UndirectedGraph()
        clone._position = dict(self._position)
        clone._edges = dict(self._edges)
        clone._adjacency = {
            v: dict(adjacent) for v, adjacent in self._adjacency.items()
        }
        return clone

    def subgraph_of_edges(self, edges: Iterable) -> "UndirectedGraph":
        """Graph with all original vertices but only the given edges.

        Matches the paper's convention that an edge group ``E_i`` forms
        the graph ``(V, E_i)``.
        """
        kept = [as_edge(e) for e in edges]
        for edge in kept:
            if edge not in self._edges:
                raise EdgeNotFoundError(f"edge {edge!r} not in graph")
        return UndirectedGraph(self._position, kept)

    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "UndirectedGraph":
        wanted = set(vertices)
        keep = [v for v in self._position if v in wanted]
        edges = [e for e in self._edges if e.u in wanted and e.v in wanted]
        return UndirectedGraph(keep, edges)

    def to_networkx(self):  # pragma: no cover - thin optional interop
        """Export to a ``networkx.Graph`` (test-only cross-check helper)."""
        import networkx

        graph = networkx.Graph()
        graph.add_nodes_from(self._position)
        graph.add_edges_from(e.endpoints for e in self._edges)
        return graph

    def __repr__(self) -> str:
        return (
            f"UndirectedGraph({self.vertex_count()} vertices, "
            f"{self.edge_count()} edges)"
        )
