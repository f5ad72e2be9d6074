"""Tests for edge decompositions and the Figure 7 algorithm."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DecompositionError, EdgeNotFoundError
from repro.graphs.decomposition import (
    EdgeDecomposition,
    StarGroup,
    TriangleGroup,
    bounded_decomposition,
    complete_graph_decompositions,
    decompose,
    optimal_edge_decomposition,
    optimal_size,
    paper_decomposition_algorithm,
    star_group,
    triangle_group,
    vertex_cover_decomposition,
)
from repro.graphs.generators import (
    client_server_topology,
    complete_topology,
    disjoint_triangles,
    paper_fig2b_graph,
    path_topology,
    random_gnp,
    random_tree,
    ring_topology,
    star_topology,
    tree_topology,
    triangle_topology,
)
from repro.graphs.graph import Edge, UndirectedGraph
from repro.graphs.vertex_cover import greedy_vertex_cover
from repro.sim.workload import multi_cluster_computation


class TestGroups:
    def test_star_group_valid(self):
        group = star_group("a", ["b", "c"])
        assert group.root == "a"
        assert len(group.edges) == 2

    def test_star_group_rejects_non_incident(self):
        with pytest.raises(DecompositionError):
            StarGroup("a", (Edge("b", "c"),))

    def test_star_group_rejects_empty(self):
        with pytest.raises(DecompositionError):
            StarGroup("a", ())

    def test_star_group_rejects_duplicates(self):
        with pytest.raises(DecompositionError):
            StarGroup("a", (Edge("a", "b"), Edge("b", "a")))

    def test_triangle_group_valid(self):
        group = triangle_group("x", "y", "z")
        assert set(group.corners) == {"x", "y", "z"}
        assert len(group.edges) == 3

    def test_triangle_group_rejects_wrong_edges(self):
        with pytest.raises(DecompositionError):
            TriangleGroup(
                ("x", "y", "z"),
                (Edge("x", "y"), Edge("y", "z"), Edge("x", "w")),
            )

    def test_describe(self):
        assert "star" in star_group("a", ["b"]).describe()
        assert "triangle" in triangle_group("a", "b", "c").describe()


class TestEdgeDecomposition:
    def test_valid_decomposition(self):
        graph = triangle_topology()
        decomposition = EdgeDecomposition(
            graph, [triangle_group("P1", "P2", "P3")]
        )
        assert decomposition.size == 1
        assert decomposition.triangle_count() == 1

    def test_group_index_of(self):
        graph = path_topology(3)
        decomposition = EdgeDecomposition(
            graph, [star_group("P2", ["P1", "P3"])]
        )
        assert decomposition.group_index_of("P1", "P2") == 0
        assert decomposition.group_index_of("P3", "P2") == 0

    def test_group_index_of_missing_edge(self):
        graph = path_topology(3)
        decomposition = EdgeDecomposition(
            graph, [star_group("P2", ["P1", "P3"])]
        )
        with pytest.raises(
            EdgeNotFoundError,
            match=r"edge \('P1','P3'\) is not in the decomposed topology",
        ):
            decomposition.group_index_of("P3", "P1")

    def test_missing_edge_rejected(self):
        graph = path_topology(3)
        with pytest.raises(DecompositionError):
            EdgeDecomposition(graph, [star_group("P2", ["P1"])])

    def test_overlapping_groups_rejected(self):
        graph = path_topology(3)
        with pytest.raises(DecompositionError):
            EdgeDecomposition(
                graph,
                [
                    star_group("P2", ["P1", "P3"]),
                    star_group("P1", ["P2"]),
                ],
            )

    def test_foreign_edge_rejected(self):
        graph = path_topology(3)
        with pytest.raises(DecompositionError):
            EdgeDecomposition(
                graph,
                [
                    star_group("P2", ["P1", "P3"]),
                    star_group("P4", ["P5"]),
                ],
            )

    def test_non_group_rejected(self):
        graph = path_topology(2)
        with pytest.raises(DecompositionError):
            EdgeDecomposition(graph, [("P1", "P2")])

    def test_describe_lists_groups(self):
        graph = path_topology(3)
        decomposition = EdgeDecomposition(
            graph, [star_group("P2", ["P1", "P3"])]
        )
        assert "E1" in decomposition.describe()

    def test_iteration_and_len(self):
        graph = path_topology(3)
        decomposition = EdgeDecomposition(
            graph, [star_group("P2", ["P1", "P3"])]
        )
        assert len(decomposition) == 1
        assert list(decomposition)[0].root == "P2"


class TestPaperAlgorithm:
    def test_star_topology_single_group(self):
        decomposition, _ = paper_decomposition_algorithm(star_topology(6))
        assert decomposition.size == 1

    def test_triangle_topology(self):
        decomposition, _ = paper_decomposition_algorithm(triangle_topology())
        # A lone triangle has no degree-1 vertex; step 2 takes it whole.
        assert decomposition.size == 1
        assert decomposition.triangle_count() == 1

    def test_path_topology(self):
        decomposition, _ = paper_decomposition_algorithm(path_topology(7))
        assert decomposition.size == optimal_size(path_topology(7))

    def test_covers_every_edge(self):
        graph = random_gnp(9, 0.4, random.Random(2))
        decomposition, _ = paper_decomposition_algorithm(graph)
        assert decomposition.size >= 1  # validation happened in constructor

    def test_trace_matches_groups(self):
        graph = paper_fig2b_graph()
        decomposition, trace = paper_decomposition_algorithm(graph)
        assert len(trace.entries) == decomposition.size
        assert [e.group for e in trace.entries] == list(decomposition.groups)

    def test_acyclic_optimal(self):
        for seed in range(6):
            tree = random_tree(10, random.Random(seed))
            decomposition, _ = paper_decomposition_algorithm(tree)
            assert decomposition.size == optimal_size(tree)

    def test_ratio_bound_two(self):
        for seed in range(6):
            graph = random_gnp(8, 0.45, random.Random(seed))
            if graph.edge_count() == 0:
                continue
            decomposition, _ = paper_decomposition_algorithm(graph)
            assert decomposition.size <= 2 * optimal_size(graph)

    def test_disjoint_triangles_found(self):
        decomposition, _ = paper_decomposition_algorithm(disjoint_triangles(3))
        assert decomposition.size == 3
        assert decomposition.triangle_count() == 3

    def test_empty_graph(self):
        decomposition, trace = paper_decomposition_algorithm(
            UndirectedGraph("ab")
        )
        assert decomposition.size == 0
        assert trace.entries == []


class TestVertexCoverDecomposition:
    def test_from_greedy_cover(self):
        graph = complete_topology(5)
        cover = greedy_vertex_cover(graph)
        decomposition = vertex_cover_decomposition(graph, cover)
        assert decomposition.size <= len(cover)
        assert decomposition.triangle_count() == 0

    def test_default_cover(self):
        decomposition = vertex_cover_decomposition(star_topology(5))
        assert decomposition.size == 1

    def test_rejects_non_cover(self):
        graph = path_topology(4)
        with pytest.raises(DecompositionError):
            vertex_cover_decomposition(graph, ["P1"])

    def test_skips_unused_cover_vertices(self):
        graph = path_topology(3)
        decomposition = vertex_cover_decomposition(
            graph, ["P2", "P1"]
        )
        assert decomposition.size == 1


class TestBoundedDecomposition:
    def test_within_bound(self):
        for n in (3, 4, 5, 7, 9):
            graph = complete_topology(n)
            decomposition = bounded_decomposition(graph)
            assert decomposition.size <= max(1, n - 2)

    def test_single_edge(self):
        decomposition = bounded_decomposition(path_topology(2))
        assert decomposition.size == 1

    def test_triangle_tail(self):
        decomposition = bounded_decomposition(complete_topology(5))
        assert decomposition.triangle_count() == 1

    def test_rejects_empty(self):
        with pytest.raises(DecompositionError):
            bounded_decomposition(UndirectedGraph("abc"))

    def test_random_graphs(self):
        for seed in range(5):
            graph = random_gnp(8, 0.5, random.Random(seed))
            if graph.edge_count() == 0:
                continue
            decomposition = bounded_decomposition(graph)
            assert decomposition.size <= max(1, 8 - 2)


class TestCompleteGraphDecompositions:
    def test_figure3_sizes(self):
        graph = complete_topology(5)
        with_triangle, stars_only = complete_graph_decompositions(graph)
        assert with_triangle.size == 3  # 2 stars + 1 triangle
        assert with_triangle.star_count() == 2
        assert with_triangle.triangle_count() == 1
        assert stars_only.size == 4  # N-1 stars
        assert stars_only.triangle_count() == 0

    def test_general_n(self):
        for n in (3, 4, 6, 8):
            graph = complete_topology(n)
            with_triangle, stars_only = complete_graph_decompositions(graph)
            assert with_triangle.size == max(1, n - 2)
            assert stars_only.size == n - 1

    def test_rejects_incomplete(self):
        with pytest.raises(DecompositionError):
            complete_graph_decompositions(path_topology(4))

    def test_rejects_tiny(self):
        with pytest.raises(DecompositionError):
            complete_graph_decompositions(complete_topology(2))


class TestOptimalSearch:
    def test_triangle_beats_stars(self):
        assert optimal_size(triangle_topology()) == 1

    def test_k5(self):
        # Figure 3's star+triangle decomposition (size 3) is optimal.
        assert optimal_size(complete_topology(5)) == 3

    def test_disjoint_triangles(self):
        assert optimal_size(disjoint_triangles(2)) == 2

    def test_fig2b_optimum_is_five(self):
        decomposition = optimal_edge_decomposition(paper_fig2b_graph())
        assert decomposition.size == 5

    def test_edge_limit_enforced(self):
        with pytest.raises(DecompositionError):
            optimal_edge_decomposition(complete_topology(12), edge_limit=10)

    def test_rejects_empty(self):
        with pytest.raises(DecompositionError):
            optimal_edge_decomposition(UndirectedGraph("ab"))

    def test_never_worse_than_paper_algorithm(self):
        for seed in range(8):
            graph = random_gnp(7, 0.5, random.Random(seed))
            if graph.edge_count() == 0:
                continue
            paper, _ = paper_decomposition_algorithm(graph)
            assert optimal_size(graph) <= paper.size


class TestDecompose:
    def test_picks_smallest(self):
        graph = complete_topology(6)
        decomposition = decompose(graph)
        paper, _ = paper_decomposition_algorithm(graph)
        assert decomposition.size <= paper.size

    def test_rejects_empty(self):
        with pytest.raises(DecompositionError):
            decompose(UndirectedGraph("abc"))

    def test_tree_decompose_optimal(self):
        graph = tree_topology(4, 3)
        assert decompose(graph).size == optimal_size(graph, edge_limit=60)

    def test_ring_decomposition(self):
        graph = ring_topology(6)
        decomposition = decompose(graph)
        assert decomposition.size <= 3

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_property_decompose_valid_and_bounded(self, seed):
        graph = random_gnp(7, 0.5, random.Random(seed))
        if graph.edge_count() == 0:
            return
        decomposition = decompose(graph)
        # Validation ran in the constructor; check the size bounds.
        assert 1 <= decomposition.size <= max(1, graph.vertex_count() - 2)
        assert decomposition.size <= 2 * optimal_size(graph)


def _group_key(group):
    anchor = group.root if group.kind == "star" else group.corners
    return (group.kind, repr(anchor), tuple(repr(e) for e in group.edges))


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _federated_topology(clusters: int, messages: int) -> UndirectedGraph:
    computation = multi_cluster_computation(
        clusters, messages, random.Random(11)
    )
    return computation.topology


class TestPinnedDecompositions:
    """SHA-256 digests of ``decompose()`` and the Figure 7 trace.

    Step 1 and step 2 of Figure 7 take the first match in vertex and
    triangle order, so any drift in the graph's iteration order changes
    the groups and therefore every timestamp.  The digests cover group
    kind, root or corners and edge reprs, in order, plus the step and
    note of each trace entry.
    """

    CASES = {
        "federated-3x3000": (
            lambda: _federated_topology(3, 3000),
            "0b4ac85b48711b21d6f37fc0f6068202375325a77ff8e1bfa847504451401316",
            "3cee1a450b28547852bd58677709bf8db502d25395f16dc4538c5e9148a5d3b0",
        ),
        "federated-8x500": (
            lambda: _federated_topology(8, 500),
            "54f40370d118c46e452c01b24115a5b0d5a2fbb0b3709eae032ddfee0c83bc17",
            "d80ebb0ce34574bee91250b22329c974a5661b431df8a368fa8eea81470879fe",
        ),
        "client-server-3x27": (
            lambda: client_server_topology(3, 27),
            "1897250b6356b00bdff9ab8a3007ca5195cd43af870cfaefdd7a0c7b61098c9a",
            "c7838c6145191cf9e241064f8895e6d040063b026aef711b93ff2f0548e7dbfe",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digests(self, name):
        build, groups_digest, trace_digest = self.CASES[name]
        graph = build()
        decomposition = decompose(graph)
        _, trace = paper_decomposition_algorithm(graph)
        assert _sha256([_group_key(g) for g in decomposition.groups]) == (
            groups_digest
        )
        assert _sha256(
            [(e.step, _group_key(e.group), e.note) for e in trace.entries]
        ) == trace_digest
