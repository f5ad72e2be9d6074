"""Hypothesis strategies shared by the property-based tests, plus the
reference component split the offline realizer tests compare against.

The strategies generate *valid* inputs by construction: connected-ish
topologies with at least one edge, and computations whose messages all
travel along topology edges.
"""

from __future__ import annotations

import random
from collections import deque

from hypothesis import strategies as st

from repro.graphs.generators import (
    client_server_topology,
    complete_topology,
    path_topology,
    random_connected,
    random_gnp,
    random_tree,
    ring_topology,
    star_topology,
    tree_topology,
)
from repro.sim.computation import SyncComputation
from repro.sim.workload import multi_cluster_computation, random_computation


@st.composite
def topologies(draw, min_processes: int = 2, max_processes: int = 9):
    """A topology with at least one edge, drawn from several families."""
    n = draw(st.integers(min_value=min_processes, max_value=max_processes))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    family = draw(
        st.sampled_from(
            ["complete", "path", "star", "tree", "random", "ring", "gnp"]
        )
    )
    if family == "complete":
        return complete_topology(max(n, 2))
    if family == "path":
        return path_topology(max(n, 2))
    if family == "star":
        return star_topology(max(n - 1, 1))
    if family == "tree":
        return random_tree(max(n, 2), rng)
    if family == "ring":
        return ring_topology(max(n, 3))
    if family == "gnp":
        graph = random_gnp(max(n, 2), 0.5, rng)
        if graph.edge_count() == 0:
            return path_topology(max(n, 2))
        return graph
    return random_connected(max(n, 2), n // 2, rng)


@st.composite
def computations(
    draw,
    min_processes: int = 2,
    max_processes: int = 8,
    max_messages: int = 40,
):
    """A random synchronous computation over a random topology."""
    topology = draw(topologies(min_processes, max_processes))
    count = draw(st.integers(min_value=0, max_value=max_messages))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return random_computation(topology, count, random.Random(seed))


@st.composite
def nonempty_computations(draw, **kwargs):
    computation = draw(computations(**kwargs))
    if len(computation) == 0:
        topology = computation.topology
        edge = topology.edges[0]
        return SyncComputation.from_pairs(topology, [edge.endpoints])
    return computation


@st.composite
def clustered_computations(
    draw,
    max_clusters: int = 4,
    max_messages_per_cluster: int = 25,
):
    """A multi-cluster computation with causally independent blocks.

    Several disjoint client/server cells give a block-diagonal message
    poset at property-test sizes; the cell dimensions stay small so
    closures remain cheap.
    """
    clusters = draw(st.integers(min_value=1, max_value=max_clusters))
    per_cluster = draw(
        st.integers(min_value=1, max_value=max_messages_per_cluster)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return multi_cluster_computation(
        clusters,
        per_cluster,
        random.Random(seed),
        server_count=2,
        client_count=3,
    )


@st.composite
def merged_cluster_computations(draw, **kwargs):
    """A :func:`clustered_computations` input whose clusters' message
    sequences are randomly interleaved.

    Every cluster keeps its own message order, so the message poset is
    still a disjoint sum, but its components now interleave in insertion
    order and ``diagonal_blocks`` usually sees a single block.
    """
    computation = draw(clustered_computations(**kwargs))
    queues = {}
    for message in computation.messages:
        cluster = message.sender.split("_")[0]
        queues.setdefault(cluster, deque()).append(
            (message.sender, message.receiver)
        )
    tags = [cluster for cluster, queue in queues.items() for _ in queue]
    seed = draw(st.integers(min_value=0, max_value=2**31))
    random.Random(seed).shuffle(tags)
    return SyncComputation.from_pairs(
        computation.topology, [queues[cluster].popleft() for cluster in tags]
    )


def comparability_components(poset):
    """Reference: the connected components of ``poset``'s comparability
    graph, as element sets numbered by their first element in insertion
    order (the numbering the sum-rule realizer uses)."""
    components, seen = [], set()
    for start in poset.elements:
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for y in poset.elements:
                if y not in component and poset.comparable(x, y):
                    component.add(y)
                    frontier.append(y)
        seen |= component
        components.append(component)
    return components


@st.composite
def posets_from_computations(draw, **kwargs):
    from repro.order.message_order import message_poset

    return message_poset(draw(computations(**kwargs)))


@st.composite
def decomposed_computations(draw, **kwargs):
    """A ``(computation, decomposition)`` pair over a shared topology.

    Feeds the fast-path equivalence properties: the decomposition is the
    library default for the computation's topology, so both the batch
    and handshake stampers see identical ``e(m)`` lookups.
    """
    from repro.graphs.decomposition import decompose

    computation = draw(computations(**kwargs))
    return computation, decompose(computation.topology)
