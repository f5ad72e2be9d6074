"""Workload generators: synchronous computations over a topology.

Any sequence of (sender, receiver) pairs along topology edges is a valid
synchronous computation (vertical arrows always admit a drawing), so
generators only need to pick interesting sequences:

* :func:`random_computation` — uniform random channel and direction;
* :func:`client_server_computation` — clients issue synchronous RPCs to
  servers (the paper's motivating scalable case);
* :func:`tree_wave_computation` — root-to-leaves broadcast waves on a
  tree, the "tree-based computation" of Figure 4;
* :func:`ring_token_computation` — a token circling a ring;
* :func:`pipeline_computation` — items flowing down a path;
* :func:`adversarial_antichain_computation` — maximally concurrent
  batches over a perfect matching, stressing the ``floor(N/2)`` width
  bound of Theorem 8;
* :func:`sequential_chain_computation` — one long synchronous chain
  (width 1, the opposite extreme).

All randomised generators take an explicit :class:`random.Random` so
tests and benchmarks are reproducible.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import InvalidComputationError
from repro.graphs.graph import UndirectedGraph
from repro.sim.computation import Process, SyncComputation


def random_computation(
    topology: UndirectedGraph,
    message_count: int,
    rng: random.Random,
) -> SyncComputation:
    """Uniformly random messages over the topology's channels."""
    edges = topology.edges
    if not edges and message_count > 0:
        raise InvalidComputationError(
            "cannot generate messages on a topology with no channels"
        )
    pairs: List[Tuple[Process, Process]] = []
    for _ in range(message_count):
        edge = edges[rng.randrange(len(edges))]
        u, v = edge.endpoints
        if rng.random() < 0.5:
            u, v = v, u
        pairs.append((u, v))
    return SyncComputation.from_pairs(topology, pairs)


def client_server_computation(
    topology: UndirectedGraph,
    request_count: int,
    rng: random.Random,
    servers: Optional[Sequence[Process]] = None,
) -> SyncComputation:
    """Clients issue synchronous requests; servers reply synchronously.

    Each request is two messages (client→server, server→client),
    mirroring a synchronous RPC.  ``servers`` defaults to the vertices
    whose names start with ``"S"`` (the convention of
    :func:`repro.graphs.generators.client_server_topology`).
    """
    if servers is None:
        servers = [v for v in topology.vertices if str(v).startswith("S")]
    server_set = set(servers)
    clients = [v for v in topology.vertices if v not in server_set]
    if not servers or not clients:
        raise InvalidComputationError(
            "client/server roles could not be derived from the topology"
        )
    pairs: List[Tuple[Process, Process]] = []
    for _ in range(request_count):
        client = clients[rng.randrange(len(clients))]
        reachable = [s for s in servers if topology.has_edge(client, s)]
        if not reachable:
            continue
        server = reachable[rng.randrange(len(reachable))]
        pairs.append((client, server))
        pairs.append((server, client))
    return SyncComputation.from_pairs(topology, pairs)


def tree_wave_computation(
    topology: UndirectedGraph,
    root: Process,
    wave_count: int,
) -> SyncComputation:
    """Broadcast waves: the root pushes down the tree, wave after wave.

    Each wave sends one message along every tree edge, parent to child
    in breadth-first order.
    """
    order = _bfs_edges(topology, root)
    pairs: List[Tuple[Process, Process]] = []
    for _ in range(wave_count):
        pairs.extend(order)
    return SyncComputation.from_pairs(topology, pairs)


def _bfs_edges(
    topology: UndirectedGraph, root: Process
) -> List[Tuple[Process, Process]]:
    seen = {root}
    frontier = [root]
    order: List[Tuple[Process, Process]] = []
    while frontier:
        next_frontier: List[Process] = []
        for parent in frontier:
            for child in topology.neighbors(parent):
                if child not in seen:
                    seen.add(child)
                    order.append((parent, child))
                    next_frontier.append(child)
        frontier = next_frontier
    return order


def ring_token_computation(
    topology: UndirectedGraph, laps: int
) -> SyncComputation:
    """A token passed around a ring ``laps`` times (a single long chain)."""
    vertices = list(topology.vertices)
    pairs: List[Tuple[Process, Process]] = []
    for _ in range(laps):
        for i, current in enumerate(vertices):
            nxt = vertices[(i + 1) % len(vertices)]
            pairs.append((current, nxt))
    return SyncComputation.from_pairs(topology, pairs)


def pipeline_computation(
    topology: UndirectedGraph, item_count: int
) -> SyncComputation:
    """Items flowing one after another down a path topology.

    Item ``k`` moves one hop only after item ``k`` has fully left the
    previous stage, giving a rich mix of ordered and concurrent pairs.
    """
    vertices = list(topology.vertices)
    pairs: List[Tuple[Process, Process]] = []
    for _ in range(item_count):
        for left, right in zip(vertices, vertices[1:]):
            pairs.append((left, right))
    return SyncComputation.from_pairs(topology, pairs)


def adversarial_antichain_computation(
    topology: UndirectedGraph,
    batch_count: int,
) -> SyncComputation:
    """Batches of pairwise-concurrent messages over disjoint channels.

    Greedily picks a maximal set of vertex-disjoint channels and fires
    one message on each per batch: every batch is an antichain of size
    close to ``floor(N/2)``, making the computation's width hit the
    Theorem 8 bound.
    """
    matching: List[Tuple[Process, Process]] = []
    used: set = set()
    for edge in topology.edges:
        if edge.u not in used and edge.v not in used:
            used.add(edge.u)
            used.add(edge.v)
            matching.append(edge.endpoints)
    if not matching:
        raise InvalidComputationError("topology has no channels")
    pairs: List[Tuple[Process, Process]] = []
    for _ in range(batch_count):
        pairs.extend(matching)
    return SyncComputation.from_pairs(topology, pairs)


def master_worker_computation(
    topology: UndirectedGraph,
    master: Process,
    round_count: int,
) -> SyncComputation:
    """Scatter/gather rounds: the master hands a task to each neighbour,
    then collects each result (a star-shaped bulk-synchronous pattern)."""
    workers = topology.neighbors(master)
    if not workers:
        raise InvalidComputationError(
            f"master {master!r} has no neighbours to dispatch to"
        )
    pairs: List[Tuple[Process, Process]] = []
    for _ in range(round_count):
        for worker in workers:
            pairs.append((master, worker))
        for worker in workers:
            pairs.append((worker, master))
    return SyncComputation.from_pairs(topology, pairs)


def phased_computation(
    topology: UndirectedGraph,
    phase_count: int,
    rng: random.Random,
    messages_per_phase: int = 0,
) -> SyncComputation:
    """Barrier-style phases over a ring-augmented topology.

    Each phase fires random messages, then a full circulation along the
    process sequence acts as a barrier ordering the phases — giving a
    poset that is wide inside a phase and chained across phases.
    ``messages_per_phase`` defaults to the process count.
    """
    vertices = list(topology.vertices)
    if messages_per_phase <= 0:
        messages_per_phase = len(vertices)
    pairs: List[Tuple[Process, Process]] = []
    edges = topology.edges
    if not edges:
        raise InvalidComputationError("topology has no channels")
    for _ in range(phase_count):
        for _ in range(messages_per_phase):
            edge = edges[rng.randrange(len(edges))]
            u, v = edge.endpoints
            if rng.random() < 0.5:
                u, v = v, u
            pairs.append((u, v))
        # Barrier: walk a spanning path so every process synchronises.
        for left, right in _spanning_walk(topology):
            pairs.append((left, right))
    return SyncComputation.from_pairs(topology, pairs)


def _spanning_walk(
    topology: UndirectedGraph,
) -> List[Tuple[Process, Process]]:
    """A DFS edge walk visiting every non-isolated vertex."""
    walk: List[Tuple[Process, Process]] = []
    visited: set = set()
    for root in topology.vertices:
        if root in visited or topology.degree(root) == 0:
            continue
        visited.add(root)
        stack = [root]
        while stack:
            current = stack.pop()
            for nxt in topology.neighbors(current):
                if nxt not in visited:
                    visited.add(nxt)
                    walk.append((current, nxt))
                    stack.append(nxt)
    return walk


def sequential_chain_computation(
    topology: UndirectedGraph,
    message_count: int,
    rng: random.Random,
) -> SyncComputation:
    """A single synchronous chain: each message shares a process with
    the previous one, so the message poset is a total order."""
    edges = topology.edges
    if not edges:
        raise InvalidComputationError("topology has no channels")
    first = edges[rng.randrange(len(edges))]
    pairs: List[Tuple[Process, Process]] = [first.endpoints]
    current = first.v
    for _ in range(message_count - 1):
        neighbours = topology.neighbors(current)
        nxt = neighbours[rng.randrange(len(neighbours))]
        pairs.append((current, nxt))
        current = nxt
    return SyncComputation.from_pairs(topology, pairs)

def multi_cluster_computation(
    cluster_count: int,
    messages_per_cluster: int,
    rng: random.Random,
    server_count: int = 8,
    client_count: int = 22,
) -> SyncComputation:
    """Independent client/server clusters with no inter-cluster channel.

    Each cluster is a ``server_count`` x ``client_count`` full-mesh
    client/server cell (processes named ``K<c>_S<i>`` / ``K<c>_C<i>``)
    carrying ``messages_per_cluster`` uniformly random messages; the
    clusters' message sequences are concatenated in cluster order.  The
    result models a federated deployment — the paper's causality cannot
    cross clusters that share no process, so the message poset is block
    diagonal, with at least one block per cluster that carries messages.
    """
    if cluster_count <= 0:
        raise InvalidComputationError(
            f"cluster_count must be positive, got {cluster_count}"
        )
    graph = UndirectedGraph()
    pairs: List[Tuple[Process, Process]] = []
    for cluster in range(cluster_count):
        servers = [f"K{cluster}_S{i}" for i in range(server_count)]
        clients = [f"K{cluster}_C{i}" for i in range(client_count)]
        for process in servers + clients:
            graph.add_vertex(process)
        channels = [
            (client, server) for client in clients for server in servers
        ]
        for u, v in channels:
            graph.add_edge(u, v)
        for _ in range(messages_per_cluster):
            u, v = channels[rng.randrange(len(channels))]
            if rng.random() < 0.5:
                u, v = v, u
            pairs.append((u, v))
    return SyncComputation.from_pairs(graph, pairs)
