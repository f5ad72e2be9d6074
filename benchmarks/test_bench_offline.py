"""Experiment batch — offline (Figure 9) pipeline, old vs. new kernel.

Runs the complete offline realizer pipeline — message-poset closure,
Dilworth chain partition, chain-forced realizer, rank vectors — on two
poset kernels:

* **reference** — the seed dict-of-sets implementation, preserved in
  :mod:`repro.core.poset_reference`: per-element ``set`` closure and
  hash-probing pair machinery;
* **bitset** — :class:`repro.core.poset.Poset`'s bitmask rows:
  word-parallel closure, mask-fed Hopcroft–Karp, cover-row realizer
  sweeps.

Workloads are the 1k-message client–server scalability run and a
5k-message run of the same shape.  Before any timing is recorded the
two kernels are pinned to byte-identical timestamps, identical widths,
and identical ``_obs`` metric snapshots.

A second region times closure + chain partition on a block-diagonal
poset: ``multi_cluster_computation`` with 16 independent 8x22
client/server cells, 20k messages.  The library closes and matches each
diagonal block in block-local index space; the reference kept here
sweeps and matches all rows at once.  Rows and chains are asserted
identical first, and the block-local path must be at least
``REQUIRED_BLOCK_SPEEDUP``x faster.

A third region times realizer + rank vectors on the width-64
``offline-federated`` input (``multi_cluster_computation(8, 500,
Random(11))``): the library builds the sweep's chain-independent state
once per realizer, sweeps each chain over its own connected component,
joins the 8 components by the sum rule into 8 extensions, and ranks
through positional rows; the reference kept here is the per-chain
algorithm it replaced, which rebuilt the element index, the popcounts
and the cover-row walks for every chain and swept the whole poset,
then cuts each extension down to its component, joins them by the sum
rule and ranks through one dict per extension.  Extensions and
timestamps are asserted identical first, and the library must be at
least ``REQUIRED_REALIZER_SPEEDUP``x faster.

A fourth region times the Dilworth chain partition on the same
``offline-federated`` input: ``minimum_chain_partition`` on the message
poset, whose matching starts from the process chains of a vertex cover
(64 chains, already minimum), against the same call on a plain
``Poset`` of the same order, whose matching starts empty.  Both are
asserted to give 64 chains and the same realizer size first, and the
seeded partition must be at least ``REQUIRED_PARTITION_SPEEDUP``x
faster.  The block-local region above partitions a plain ``Poset`` too,
so its gate keeps comparing block-local with global matching from the
empty matching.

Results land in ``BENCH_offline.json`` (``make bench-offline``); with
``BENCH_OFFLINE_SMOKE=1`` (the CI smoke step) everything runs one round
at reduced sizes, the speedup is not gated, and the committed snapshot
is left untouched.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque

import pytest

from benchmarks.conftest import emit, record_offline_perf
from repro.clocks.base import TimestampAssignment
from repro.clocks.offline import OfflineRealizerClock
from repro.core.chains import (
    BipartiteMatcher,
    is_chain_partition,
    minimum_chain_partition,
)
from repro.core.linear_extensions import realizer_size
from repro.core.poset import Poset, _popcount, diagonal_blocks
from repro.core.poset_reference import ReferencePoset
from repro.core.vector import VectorTimestamp
from repro.graphs.generators import client_server_topology
from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry
from repro.order.message_order import covering_pairs, message_poset
from repro.sim.workload import multi_cluster_computation, random_computation

SMOKE = os.environ.get("BENCH_OFFLINE_SMOKE") == "1"

TOPOLOGY = client_server_topology(3, 27)  # N = 30, d = 3
SIZES = (500,) if SMOKE else (1_000, 5_000)
REPEATS = 1 if SMOKE else 3
REQUIRED_SPEEDUP = 3.0

#: Block-diagonal region: 16 clusters, each a full-mesh 8x22
#: client/server cell, so the poset has (at least) 16 diagonal blocks.
BLOCK_CLUSTERS = 16
BLOCK_MESSAGES = 2_000 if SMOKE else 20_000
REQUIRED_BLOCK_SPEEDUP = 2.5

#: Realizer region: the ``offline-federated`` input, 8 clusters of a
#: full-mesh 8x22 cell, width 64 (2 clusters, width 16, in smoke runs).
REALIZER_CLUSTERS = 2 if SMOKE else 8
REALIZER_PER_CLUSTER = 500
REQUIRED_REALIZER_SPEEDUP = 3.0

#: Partition region: the realizer region's input, partitioned from the
#: process-chain seed and from the empty matching.
REQUIRED_PARTITION_SPEEDUP = 3.0


def _workload(messages: int):
    return random_computation(TOPOLOGY, messages, random.Random(11))


def _reference_pipeline(computation):
    """The pre-PR pipeline: dict-of-sets closure + list-fed matcher."""
    clock = OfflineRealizerClock()
    poset = ReferencePoset(computation.messages, covering_pairs(computation))
    assignment = clock.timestamp_poset(computation, poset)
    return clock, assignment


def _bitset_pipeline(computation):
    """The shipped pipeline: bitmask closure + mask-fed matcher."""
    clock = OfflineRealizerClock()
    poset = Poset(computation.messages, covering_pairs(computation))
    assignment = clock.timestamp_poset(computation, poset)
    return clock, assignment


def _construction_seconds(kernel, computation) -> float:
    pairs = covering_pairs(computation)
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel(computation.messages, pairs)
        best = min(best, time.perf_counter() - started)
    return best


def _pipeline_seconds(pipeline, computation) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        pipeline(computation)
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("messages", SIZES)
def test_offline_kernels_agree_exactly(report_header, messages):
    """Byte-identical timestamps, width, and ``_obs`` counters."""
    computation = _workload(messages)

    with instrument.enabled_session(MetricsRegistry()) as bundle:
        ref_clock, ref_assignment = _reference_pipeline(computation)
        ref_counters = bundle.registry.snapshot()
    with instrument.enabled_session(MetricsRegistry()) as bundle:
        new_clock, new_assignment = _bitset_pipeline(computation)
        new_counters = bundle.registry.snapshot()

    for message in computation.messages:
        assert (
            new_assignment.of(message).components
            == ref_assignment.of(message).components
        )
    assert new_clock.timestamp_size == ref_clock.timestamp_size
    assert new_clock.realizer == ref_clock.realizer
    assert new_counters == ref_counters

    report_header(
        f"Offline kernels: equivalence on the {messages}-message workload"
    )
    emit(
        f"{messages} messages (width {new_clock.timestamp_size}): "
        f"timestamps, realizer, and all {len(new_counters)} metric "
        "snapshots identical"
    )


@pytest.mark.parametrize("messages", SIZES)
def test_offline_speedup_snapshot(report_header, messages):
    """The headline numbers: construction, width, and full stamping."""
    computation = _workload(messages)
    instrument.disable()

    construct_ref = _construction_seconds(ReferencePoset, computation)
    construct_new = _construction_seconds(Poset, computation)

    ref_seconds = _pipeline_seconds(_reference_pipeline, computation)
    new_seconds = _pipeline_seconds(_bitset_pipeline, computation)
    speedup = ref_seconds / new_seconds

    clock, _ = _bitset_pipeline(computation)
    poset_width = clock.timestamp_size

    if not SMOKE:
        record_offline_perf(
            f"offline_{messages}",
            {
                "workload": "client-server:3x27",
                "messages": messages,
                "width": poset_width,
                "construction_reference_seconds": construct_ref,
                "construction_bitset_seconds": construct_new,
                "reference_seconds": ref_seconds,
                "bitset_seconds": new_seconds,
                "reference_messages_per_sec": messages / ref_seconds,
                "bitset_messages_per_sec": messages / new_seconds,
            },
        )

    report_header(
        f"Offline pipeline: old vs. new kernel, {messages} messages"
    )
    emit(
        f"poset construction: {construct_ref:.3f}s -> "
        f"{construct_new:.3f}s ({construct_ref / construct_new:.1f}x)"
    )
    emit(
        f"full stamping (width {poset_width}): {ref_seconds:.3f}s -> "
        f"{new_seconds:.3f}s"
    )
    emit(f"speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP}x)")
    assert speedup >= REQUIRED_SPEEDUP


@pytest.mark.parametrize("kernel", ["reference", "bitset"])
def test_offline_stamping_benchmark(benchmark, kernel):
    """pytest-benchmark timings for both kernels (``make bench``)."""
    messages = SIZES[0]
    computation = _workload(messages)
    instrument.disable()
    pipeline = (
        _reference_pipeline if kernel == "reference" else _bitset_pipeline
    )
    _, assignment = benchmark(pipeline, computation)
    assert len(assignment) == messages


def _block_workload():
    return multi_cluster_computation(
        BLOCK_CLUSTERS, BLOCK_MESSAGES // BLOCK_CLUSTERS, random.Random(7)
    )


def _block_local_region(computation):
    """Closure + chain partition as the library runs them on a plain
    poset, whose matching starts empty as the global reference's does."""
    poset = Poset(computation.messages, covering_pairs(computation))
    chains = minimum_chain_partition(poset)
    return poset.above_bit_rows(), poset.below_bit_rows(), chains


def _global_region(computation):
    """Reference: closure + chain partition over all rows at once.

    One OR-sweep over every row in a topological order, then one
    Hopcroft–Karp run over all closed rows; no row is cut into blocks,
    so every mask operation works on poset-sized integers.
    """
    elements = computation.messages
    n = len(elements)
    index = {message: i for i, message in enumerate(elements)}
    direct = [0] * n
    direct_pred = [0] * n
    for smaller, larger in covering_pairs(computation):
        i, j = index[smaller], index[larger]
        direct[i] |= 1 << j
        direct_pred[j] |= 1 << i

    indegree = [bin(row).count("1") for row in direct_pred]
    order = [i for i in range(n) if indegree[i] == 0]
    for i in order:  # Kahn: ``order`` grows while it is walked
        for j in _bits(direct[i]):
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    above = [0] * n
    for i in reversed(order):
        acc = direct[i]
        for j in _bits(direct[i]):
            acc |= above[j]
        above[i] = acc
    below = [0] * n
    for i in order:
        acc = direct_pred[i]
        for j in _bits(direct_pred[i]):
            acc |= below[j]
        below[i] = acc

    match = BipartiteMatcher.from_bitmask_rows(
        elements, elements, above
    ).solve()
    has_predecessor = set(match.values())
    chains = []
    for message in elements:
        if message not in has_predecessor:
            chain = [message]
            while chain[-1] in match:
                chain.append(match[chain[-1]])
            chains.append(chain)
    return tuple(above), tuple(below), chains


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_block_local_region_matches_global(report_header):
    """Identical closed rows and chains before any timing."""
    computation = _block_workload()
    above, below, chains = _block_local_region(computation)
    assert (above, below, chains) == _global_region(computation)
    blocks = diagonal_blocks(above)
    assert len(blocks) >= BLOCK_CLUSTERS
    report_header(
        f"Block-local region: equivalence at {len(computation)} messages"
    )
    emit(
        f"{len(computation)} messages in {len(blocks)} diagonal blocks "
        f"(width {len(chains)}): rows and chains identical"
    )


def test_block_local_speedup_snapshot(report_header):
    """The gated number: global vs. block-local closure + partition."""
    computation = _block_workload()
    instrument.disable()
    global_seconds = block_seconds = float("inf")
    for _ in range(REPEATS):  # interleaved, so host drift hits both
        started = time.perf_counter()
        _global_region(computation)
        global_seconds = min(global_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        _block_local_region(computation)
        block_seconds = min(block_seconds, time.perf_counter() - started)
    speedup = global_seconds / block_seconds
    above, _, chains = _block_local_region(computation)
    blocks = len(diagonal_blocks(above))

    report_header(
        f"Closure + chain partition, {len(computation)} messages in "
        f"{blocks} blocks"
    )
    emit(f"global reference: {global_seconds:.3f}s")
    emit(f"block-local:      {block_seconds:.3f}s")
    emit(f"speedup: {speedup:.2f}x")
    if SMOKE:
        return
    record_offline_perf(
        f"blocks_{BLOCK_MESSAGES // 1000}k",
        {
            "workload": f"multi-cluster:{BLOCK_CLUSTERS}x8x22",
            "messages": len(computation),
            "blocks": blocks,
            "width": len(chains),
            "global_seconds": global_seconds,
            "block_local_seconds": block_seconds,
            "speedup": speedup,
        },
    )
    emit(f"(gated: required >= {REQUIRED_BLOCK_SPEEDUP}x)")
    assert speedup >= REQUIRED_BLOCK_SPEEDUP


def _federated_computation():
    return multi_cluster_computation(
        REALIZER_CLUSTERS, REALIZER_PER_CLUSTER, random.Random(11)
    )


def _realizer_workload():
    computation = _federated_computation()
    poset = message_poset(computation)
    minimum_chain_partition(poset)  # solve and cache the matching
    return computation, poset


def _shared_realizer(computation, poset):
    """Realizer + rank vectors as the library runs them."""
    clock = OfflineRealizerClock()
    return clock, clock.timestamp_poset(computation, poset)


def _per_chain_realizer(computation, poset):
    """Reference: one forced extension per chain, each built from
    scratch over the whole poset and then restricted to the chain's
    component; the components joined by the sum rule (forward, reversed,
    then forward again, a component short of chains repeating its last
    extension); then one ``{message: rank}`` dict per extension."""
    chains = minimum_chain_partition(poset)  # cached, as in the clock
    index = {element: i for i, element in enumerate(poset.elements)}
    components = _component_masks(poset)
    blocks = [[] for _ in components]
    for chain in chains:
        extension = _per_chain_extension(poset, chain)
        number = next(
            k
            for k, mask in enumerate(components)
            if mask >> index[chain[0]] & 1
        )
        mask = components[number]
        blocks[number].append(
            [e for e in extension if mask >> index[e] & 1]
        )
    if len(blocks) == 1:
        realizer = blocks[0]
    else:
        realizer = [
            [
                element
                for block in (blocks[::-1] if k == 1 else blocks)
                for element in block[min(k, len(block) - 1)]
            ]
            for k in range(max(2, max(map(len, blocks))))
        ]
    rank_maps = [
        {element: rank for rank, element in enumerate(extension)}
        for extension in realizer
    ]
    timestamps = {
        message: VectorTimestamp(ranks[message] for ranks in rank_maps)
        for message in poset.elements
    }
    return realizer, TimestampAssignment(computation, timestamps)


def _component_masks(poset):
    """The connected components as bit masks, numbered by their
    smallest index: each grows from its first element through the
    closed rows until no comparability leaves it."""
    above, below = poset.above_bit_rows(), poset.below_bit_rows()
    unseen = (1 << len(above)) - 1
    components = []
    while unseen:
        mask = frontier = unseen & -unseen
        while frontier:
            grown = 0
            for i in _bits(frontier):
                grown |= above[i] | below[i]
            frontier = grown & ~mask
            mask |= frontier
        unseen &= ~mask
        components.append(mask)
    return components


def _per_chain_extension(poset, chain):
    """The deferred-chain Kahn sweep with all of its set-up per chain:
    element index, closure-row popcounts and cover-row in-degrees."""
    items = list(chain)
    assert all(element in poset for element in items)
    assert poset.is_chain(items)
    elements = poset.elements
    n = len(elements)
    element_index = {e: i for i, e in enumerate(elements)}
    in_chain = [False] * n
    for element in items:
        in_chain[element_index[element]] = True
    threshold = [n - 1 - _popcount(row) for row in poset.above_bit_rows()]
    cover_rows = poset.cover_bit_rows()
    indegree = [0] * n
    for row in cover_rows:
        m = row
        while m:
            low = m & -m
            indegree[low.bit_length() - 1] += 1
            m ^= low

    stalled = -1
    ready = deque()
    for i in range(n):
        if indegree[i] == 0:
            if in_chain[i] and threshold[i] != 0:
                stalled = i
            else:
                ready.append(i)
    order = []
    while ready or stalled != -1:
        if stalled != -1 and len(order) == threshold[stalled]:
            current, stalled = stalled, -1
        else:
            current = ready.popleft()
        order.append(current)
        placed = len(order)
        m = cover_rows[current]
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            indegree[j] -= 1
            if indegree[j] == 0:
                if in_chain[j] and threshold[j] != placed:
                    stalled = j
                else:
                    ready.append(j)
    return [elements[i] for i in order]


def test_shared_realizer_matches_per_chain(report_header):
    """Identical extensions and timestamps before any timing."""
    computation, poset = _realizer_workload()
    clock, assignment = _shared_realizer(computation, poset)
    realizer, reference = _per_chain_realizer(computation, poset)
    assert clock.realizer == realizer
    assert dict(assignment.items()) == dict(reference.items())
    report_header(
        f"Shared realizer state: equivalence at {len(computation)} "
        "messages"
    )
    emit(
        f"{len(computation)} messages, width "
        f"{len(minimum_chain_partition(poset))}, {len(realizer)} "
        "extensions: extensions and timestamps identical"
    )


def test_shared_realizer_speedup_snapshot(report_header):
    """The gated number: per-chain vs. shared realizer + rank vectors."""
    computation, poset = _realizer_workload()
    instrument.disable()
    per_chain_seconds = shared_seconds = float("inf")
    for _ in range(REPEATS):  # interleaved, so host drift hits both
        started = time.perf_counter()
        _per_chain_realizer(computation, poset)
        per_chain_seconds = min(
            per_chain_seconds, time.perf_counter() - started
        )
        started = time.perf_counter()
        clock, _ = _shared_realizer(computation, poset)
        shared_seconds = min(shared_seconds, time.perf_counter() - started)
    speedup = per_chain_seconds / shared_seconds
    width = len(minimum_chain_partition(poset))
    vector_size = clock.timestamp_size

    report_header(
        f"Realizer + rank vectors, {len(computation)} messages, "
        f"width {width}, vector size {vector_size}"
    )
    emit(f"per-chain reference: {per_chain_seconds:.3f}s")
    emit(f"shared state:        {shared_seconds:.3f}s")
    emit(f"speedup: {speedup:.2f}x")
    if SMOKE:
        return
    record_offline_perf(
        f"realizer_w{width}",
        {
            "workload": (
                f"multi-cluster:{REALIZER_CLUSTERS}x"
                f"{REALIZER_PER_CLUSTER}"
            ),
            "messages": len(computation),
            "width": width,
            "vector_size": vector_size,
            "per_chain_seconds": per_chain_seconds,
            "shared_seconds": shared_seconds,
            "speedup": speedup,
        },
    )
    emit(f"(gated: required >= {REQUIRED_REALIZER_SPEEDUP}x)")
    assert speedup >= REQUIRED_REALIZER_SPEEDUP


def _partition_posets(computation):
    """A fresh message poset and a fresh plain poset of the same order,
    so neither matching is cached yet."""
    return (
        message_poset(computation),
        Poset(computation.messages, covering_pairs(computation)),
    )


def test_seeded_partition_matches_unseeded(report_header):
    """Both partitions are minimum and give the same realizer size."""
    computation = _federated_computation()
    seeded_poset, plain_poset = _partition_posets(computation)
    seeded = minimum_chain_partition(seeded_poset)
    plain = minimum_chain_partition(plain_poset)
    width = 8 * REALIZER_CLUSTERS  # one chain per server of each cell
    assert len(seeded) == len(plain) == width
    assert realizer_size(seeded_poset, seeded) == realizer_size(
        plain_poset, plain
    )
    assert is_chain_partition(seeded_poset, seeded)
    assert is_chain_partition(plain_poset, plain)
    report_header(
        f"Seeded partition: equivalence at {len(computation)} messages"
    )
    emit(
        f"{len(computation)} messages, {len(seeded_poset.process_chains())}"
        f" seed chains, width {width}: both partitions minimum, realizer "
        f"size {realizer_size(seeded_poset, seeded)}"
    )


def test_seeded_partition_speedup_snapshot(report_header):
    """The gated number: empty-start vs. seeded chain partition."""
    computation = _federated_computation()
    instrument.disable()
    plain_seconds = seeded_seconds = float("inf")
    for _ in range(REPEATS):  # interleaved, so host drift hits both
        seeded_poset, plain_poset = _partition_posets(computation)
        started = time.perf_counter()
        minimum_chain_partition(plain_poset)
        plain_seconds = min(plain_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        chains = minimum_chain_partition(seeded_poset)
        seeded_seconds = min(seeded_seconds, time.perf_counter() - started)
    speedup = plain_seconds / seeded_seconds
    width = len(chains)

    report_header(
        f"Chain partition, {len(computation)} messages, width {width}"
    )
    emit(f"empty start:       {plain_seconds:.4f}s")
    emit(f"process-chain seed: {seeded_seconds:.4f}s")
    emit(f"speedup: {speedup:.2f}x")
    if SMOKE:
        return
    record_offline_perf(
        f"partition_w{width}",
        {
            "workload": (
                f"multi-cluster:{REALIZER_CLUSTERS}x"
                f"{REALIZER_PER_CLUSTER}"
            ),
            "messages": len(computation),
            "width": width,
            "seed_chains": len(seeded_poset.process_chains()),
            "unseeded_seconds": plain_seconds,
            "seeded_seconds": seeded_seconds,
            "speedup": speedup,
        },
    )
    emit(f"(gated: required >= {REQUIRED_PARTITION_SPEEDUP}x)")
    assert speedup >= REQUIRED_PARTITION_SPEEDUP
