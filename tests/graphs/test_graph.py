"""Unit tests for the undirected graph structure."""

from __future__ import annotations

import pytest

from repro.exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graphs.graph import Edge, UndirectedGraph, as_edge


class TestEdge:
    def test_normalised_equality(self):
        assert Edge("b", "a") == Edge("a", "b")

    def test_hash_consistent(self):
        assert len({Edge("a", "b"), Edge("b", "a")}) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Edge("a", "a")

    def test_other(self):
        edge = Edge("a", "b")
        assert edge.other("a") == "b"
        assert edge.other("b") == "a"

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(GraphError):
            Edge("a", "b").other("c")

    def test_incident_to(self):
        edge = Edge("a", "b")
        assert edge.incident_to("a")
        assert not edge.incident_to("c")

    def test_shares_endpoint(self):
        assert Edge("a", "b").shares_endpoint(Edge("b", "c"))
        assert not Edge("a", "b").shares_endpoint(Edge("c", "d"))

    def test_iteration(self):
        assert sorted(Edge("b", "a")) == ["a", "b"]

    def test_as_edge_passthrough(self):
        edge = Edge("a", "b")
        assert as_edge(edge) is edge

    def test_as_edge_from_tuple(self):
        assert as_edge(("a", "b")) == Edge("a", "b")

    def test_equality_other_type(self):
        assert Edge("a", "b") != ("a", "b")


@pytest.fixture
def square():
    return UndirectedGraph(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )


class TestGraphBasics:
    def test_counts(self, square):
        assert square.vertex_count() == 4
        assert square.edge_count() == 4

    def test_vertices_insertion_order(self, square):
        assert square.vertices == ("a", "b", "c", "d")

    def test_add_edge_adds_vertices(self):
        graph = UndirectedGraph()
        graph.add_edge("x", "y")
        assert "x" in graph and "y" in graph

    def test_duplicate_edge_ignored(self):
        graph = UndirectedGraph()
        graph.add_edge("x", "y")
        graph.add_edge("y", "x")
        assert graph.edge_count() == 1

    def test_has_edge(self, square):
        assert square.has_edge("a", "b")
        assert square.has_edge("b", "a")
        assert not square.has_edge("a", "c")
        assert not square.has_edge("a", "a")

    def test_neighbors(self, square):
        assert set(square.neighbors("a")) == {"b", "d"}

    def test_neighbors_unknown_vertex(self, square):
        with pytest.raises(VertexNotFoundError):
            square.neighbors("z")

    def test_degree(self, square):
        assert square.degree("a") == 2

    def test_degrees(self, square):
        assert square.degrees() == {"a": 2, "b": 2, "c": 2, "d": 2}

    def test_max_degree(self, square):
        assert square.max_degree() == 2

    def test_max_degree_empty(self):
        assert UndirectedGraph().max_degree() == 0

    def test_incident_edges(self, square):
        edges = square.incident_edges("a")
        assert set(edges) == {Edge("a", "b"), Edge("a", "d")}

    def test_adjacent_edge_count(self, square):
        assert square.adjacent_edge_count(("a", "b")) == 2

    def test_adjacent_edge_count_missing_edge(self, square):
        with pytest.raises(EdgeNotFoundError):
            square.adjacent_edge_count(("a", "c"))

    def test_remove_edge(self, square):
        square.remove_edge("a", "b")
        assert not square.has_edge("a", "b")
        assert square.degree("a") == 1

    def test_remove_missing_edge(self, square):
        with pytest.raises(EdgeNotFoundError):
            square.remove_edge("a", "c")

    def test_remove_edges_bulk(self, square):
        square.remove_edges([("a", "b"), ("c", "d")])
        assert square.edge_count() == 2


class TestStructure:
    def test_is_star_positive(self):
        graph = UndirectedGraph("abc", [("a", "b"), ("a", "c")])
        assert graph.is_star() == "a"

    def test_is_star_single_edge(self):
        graph = UndirectedGraph("ab", [("a", "b")])
        assert graph.is_star() in {"a", "b"}

    def test_is_star_negative(self):
        graph = UndirectedGraph("abcd", [("a", "b"), ("c", "d")])
        assert graph.is_star() is None

    def test_is_star_no_edges(self):
        graph = UndirectedGraph("ab")
        assert graph.is_star() == "a"

    def test_is_star_empty_graph(self):
        assert UndirectedGraph().is_star() is None

    def test_triangle_is_not_star(self):
        graph = UndirectedGraph(
            "abc", [("a", "b"), ("b", "c"), ("a", "c")]
        )
        assert graph.is_star() is None

    def test_is_triangle_positive(self):
        graph = UndirectedGraph(
            "abc", [("a", "b"), ("b", "c"), ("a", "c")]
        )
        assert graph.is_triangle() == ("a", "b", "c")

    def test_is_triangle_wrong_count(self, square):
        assert square.is_triangle() is None

    def test_is_triangle_path_of_three_edges(self):
        graph = UndirectedGraph(
            "abcd", [("a", "b"), ("b", "c"), ("c", "d")]
        )
        assert graph.is_triangle() is None

    def test_triangles_enumeration(self):
        graph = UndirectedGraph(
            "abcd",
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "d")],
        )
        assert set(graph.triangles()) == {("a", "b", "c"), ("b", "c", "d")}

    def test_no_triangles_in_square(self, square):
        assert square.triangles() == []

    def test_is_acyclic_tree(self):
        graph = UndirectedGraph("abc", [("a", "b"), ("b", "c")])
        assert graph.is_acyclic()

    def test_is_acyclic_cycle(self, square):
        assert not square.is_acyclic()

    def test_is_acyclic_forest(self):
        graph = UndirectedGraph("abcd", [("a", "b"), ("c", "d")])
        assert graph.is_acyclic()

    def test_connected_components(self):
        graph = UndirectedGraph("abcde", [("a", "b"), ("c", "d")])
        components = graph.connected_components()
        assert sorted(sorted(c) for c in components) == [
            ["a", "b"],
            ["c", "d"],
            ["e"],
        ]

    def test_is_connected(self, square):
        assert square.is_connected()

    def test_empty_graph_connected(self):
        assert UndirectedGraph().is_connected()


class TestDerivations:
    def test_copy_independent(self, square):
        clone = square.copy()
        clone.remove_edge("a", "b")
        assert square.has_edge("a", "b")

    def test_subgraph_of_edges(self, square):
        sub = square.subgraph_of_edges([("a", "b")])
        assert sub.edge_count() == 1
        assert sub.vertex_count() == 4  # keeps all vertices, per the paper

    def test_subgraph_of_edges_rejects_foreign(self, square):
        with pytest.raises(EdgeNotFoundError):
            square.subgraph_of_edges([("a", "c")])

    def test_induced_subgraph(self, square):
        sub = square.induced_subgraph(["a", "b", "c"])
        assert sub.vertex_count() == 3
        assert sub.edge_count() == 2

    def test_induced_subgraph_from_generator(self):
        from repro.graphs.generators import client_server_topology

        graph = client_server_topology(2, 4)
        sub = graph.induced_subgraph(v for v in ["S1", "C1", "C2"])
        assert sub.vertices == ("S1", "C1", "C2")
        assert set(sub.edges) == {Edge("S1", "C1"), Edge("S1", "C2")}

    def test_position(self, square):
        assert [square.position(v) for v in "abcd"] == [0, 1, 2, 3]
        with pytest.raises(VertexNotFoundError):
            square.position("z")

    def test_repr(self, square):
        assert "4 vertices" in repr(square)
