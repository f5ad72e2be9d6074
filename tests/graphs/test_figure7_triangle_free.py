"""Figure 7's step 2 stops searching for triangles once none is left.

The working graph only loses edges, so a graph with no triangle never
gains one; every ``triangles()`` call after the first empty result
would repeat it.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs.decomposition import paper_decomposition_algorithm
from repro.graphs.generators import (
    client_server_topology,
    complete_topology,
    random_gnp,
    ring_topology,
)
from repro.graphs.graph import UndirectedGraph
from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry
from repro.sim.workload import multi_cluster_computation


def _federated():
    return multi_cluster_computation(3, 30, random.Random(1)).topology


GRAPHS = {
    "federated": _federated,
    "complete-6": lambda: complete_topology(6),
    "ring-7": lambda: ring_topology(7),
    "client-server": lambda: client_server_topology(3, 9),
    "gnp": lambda: random_gnp(14, 0.4, random.Random(5)),
}


@pytest.fixture
def triangle_counts(monkeypatch):
    """The size of every ``triangles()`` result, in call order."""
    counts = []
    original = UndirectedGraph.triangles

    def counting(self):
        found = original(self)
        counts.append(len(found))
        return found

    monkeypatch.setattr(UndirectedGraph, "triangles", counting)
    return counts


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_no_call_after_the_first_empty_result(name, triangle_counts):
    graph = GRAPHS[name]()
    paper_decomposition_algorithm(graph)
    assert triangle_counts, "step 2 never ran"
    if 0 in triangle_counts:
        assert triangle_counts.index(0) == len(triangle_counts) - 1


def test_federated_topology_searches_once(triangle_counts):
    # Three client/server clusters have no triangle to begin with.
    paper_decomposition_algorithm(_federated())
    assert triangle_counts == [0]


def test_step2_span_still_opens_each_round():
    graph = _federated()
    with instrument.enabled_session(MetricsRegistry()):
        decomposition, trace = paper_decomposition_algorithm(graph)
        names = [span.name for span in instrument.get_tracer().finished()]
    rounds = names.count("figure7.step1_pendant_stars")
    assert rounds > 1
    assert names.count("figure7.step2_triangles") == rounds
    assert len(trace.entries) == decomposition.size
