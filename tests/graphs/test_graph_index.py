"""The graph's indexes agree with brute-force definitions.

Each query of :class:`UndirectedGraph` is recomputed here from a plain
insertion-ordered edge list, after a random sequence of edge additions
and removals (removed edges may come back, moving to the end of the
edge order).  Orders must match exactly, not just as sets: the Figure 7
decomposition takes the first match in vertex and triangle order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Edge, UndirectedGraph
from repro.graphs.vertex_cover import greedy_vertex_cover


@st.composite
def edited_graphs(draw):
    """``(graph, vertex_list, edge_list)`` after random edits."""
    count = draw(st.integers(min_value=1, max_value=9))
    # Integers in a shuffled order, so vertex order differs from the
    # repr order that normalises edge endpoints.
    vertices = draw(st.permutations(range(count)))
    pair = st.tuples(
        st.sampled_from(vertices), st.sampled_from(vertices)
    ).filter(lambda p: p[0] != p[1])
    ops = draw(
        st.lists(st.tuples(st.booleans(), pair), max_size=40)
        if count > 1
        else st.just([])
    )
    graph = UndirectedGraph(vertices)
    edge_list = []
    for remove, (u, v) in ops:
        edge = Edge(u, v)
        if remove and edge in edge_list:
            graph.remove_edge(u, v)
            edge_list.remove(edge)
        elif not remove and edge not in edge_list:
            graph.add_edge(u, v)
            edge_list.append(edge)
    return graph, list(vertices), edge_list


def reference_triangles(vertices, edge_list):
    position = {v: i for i, v in enumerate(vertices)}
    found = []
    for edge in edge_list:
        u, v = sorted(edge.endpoints, key=position.__getitem__)
        for w in vertices:
            if (
                position[w] > position[v]
                and Edge(u, w) in edge_list
                and Edge(v, w) in edge_list
            ):
                found.append((u, v, w))
    return found


def reference_greedy_cover(vertices, edge_list):
    """Highest residual degree first; ties to the earliest vertex."""
    remaining = list(edge_list)
    cover = []
    while remaining:
        counts = [
            sum(e.incident_to(v) for e in remaining) for v in vertices
        ]
        best = vertices[counts.index(max(counts))]
        cover.append(best)
        remaining = [e for e in remaining if not e.incident_to(best)]
    return cover


@settings(max_examples=200, deadline=None)
@given(edited_graphs())
def test_indexes_match_brute_force(case):
    graph, vertices, edge_list = case
    assert graph.vertices == tuple(vertices)
    assert graph.edges == tuple(edge_list)
    assert graph.edge_count() == len(edge_list)
    for u in vertices:
        incident = [e for e in edge_list if e.incident_to(u)]
        assert graph.incident_edges(u) == incident
        assert graph.degree(u) == len(incident)
        assert graph.neighbors(u) == [
            w for w in vertices if w != u and Edge(u, w) in edge_list
        ]
        for w in vertices:
            expected = u != w and Edge(u, w) in edge_list
            assert graph.has_edge(u, w) == expected
    assert graph.triangles() == reference_triangles(vertices, edge_list)


@settings(max_examples=200, deadline=None)
@given(edited_graphs())
def test_copy_keeps_every_order(case):
    graph, vertices, edge_list = case
    clone = graph.copy()
    assert clone.vertices == graph.vertices
    assert clone.edges == graph.edges
    for u in vertices:
        assert clone.incident_edges(u) == graph.incident_edges(u)
    if edge_list:
        clone.remove_edge(*edge_list[0].endpoints)
        assert graph.edges == tuple(edge_list)


@settings(max_examples=200, deadline=None)
@given(edited_graphs())
def test_greedy_cover_matches_quadratic_reference(case):
    graph, vertices, edge_list = case
    assert greedy_vertex_cover(graph) == reference_greedy_cover(
        vertices, edge_list
    )
