"""Sharded stamping and closure engine (ROADMAP item 4).

Every hot path in the library is single-threaded; this module partitions
a :class:`~repro.sim.computation.SyncComputation` into **causally
independent work units** and executes them through one of two backends,
merging the results into output that is byte-identical to the serial
paths — same timestamps, same closed bitmask rows, same chain partition,
same ``_obs`` counter totals.

Two shard planners
==================

*Process-disjoint segments* (online batch stamping).  Messages only
become causally related through shared processes, so the connected
components of the "shares a process" relation — computed with a
union-find over the message list — are provably independent: no
handshake in one component ever reads a workspace written by another.
Each segment is stamped exactly like :func:`repro.core.fastpath.stamp_batch`
(full-width workspaces, fused join+increment), and the per-segment
timestamp lists are merged back in global message order.

*Contiguous row blocks* (offline closure + matcher feed).  With messages
in insertion order, position ``p`` is a *cut point* when no cover edge
``(i, j)`` has ``i < p <= j``; the blocks between consecutive cut points
are forward-closed under the order, so each block's transitive closure
equals the restriction of the global closure.  Workers close blocks in
**block-local index space** — a row of a 20k-message poset shrinks from
a ~20k-bit integer to a block-sized one, which is where the single-core
speedup comes from — and the parent shifts the local rows back to global
bit positions.  The same local rows feed a per-block
:meth:`~repro.core.chains.BipartiteMatcher.from_bitmask_rows` run whose
merged matching provably equals the global Hopcroft–Karp matching
(BFS layers and augmenting paths never cross a block boundary on a
block-diagonal adjacency).

Execution backends
==================

``"process"`` — a fork-preferring :class:`concurrent.futures.ProcessPoolExecutor`
(the :mod:`repro.sim.distributed` context policy, reimplemented locally
so ``repro.core`` keeps no ``repro.sim`` dependency).  Workers run
:func:`gc.freeze` + :func:`gc.disable` in their initializer: a forked
child inherits the parent's heap copy-on-write, and letting the cyclic
GC walk that inherited heap faults in every page — on the containers we
bench in, that costs more than the closure itself.  Shard payloads and
closed rows travel as packed little-endian bytes.

``"inline"`` — the same plan, sharded loop, and merge executed in the
parent process.  Chosen automatically when the CPU affinity mask
(:func:`available_workers`) offers a single core, where a process pool
can only add IPC cost on top of time-sliced compute; the block-local
closure and matching wins survive because they are algorithmic, not
concurrency, effects.

Serial fallbacks
================

The engine refuses to shard — and the callers run the untouched serial
code — when ``workers`` resolves to ``1``, when the plan finds a single
shard (one process component online, no cut points offline), or when
the computation is empty.  A worker-process crash raises
:class:`~repro.exceptions.ParallelExecutionError` (library errors such
as :class:`~repro.exceptions.PosetError` propagate unchanged); the
merge never runs on partial results.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.chains import BipartiteMatcher
from repro.core.fastpath import MutableVector, stamp_batch
from repro.core.poset import Poset, close_transitive_rows
from repro.core.vector import VectorTimestamp
from repro.exceptions import ParallelExecutionError, ReproError
from repro.obs import instrument as _obs

if TYPE_CHECKING:  # imported lazily to keep repro.core cycle-free
    from repro.graphs.decomposition import EdgeDecomposition
    from repro.sim.computation import SyncComputation, SyncMessage


# ----------------------------------------------------------------------
# Worker-count resolution (satellite: respect container CPU limits)
# ----------------------------------------------------------------------
def available_workers() -> int:
    """Usable CPU count, honoring the process affinity mask.

    ``len(os.sched_getaffinity(0))`` sees cgroup/container cpusets that
    ``os.cpu_count()`` ignores; platforms without ``sched_getaffinity``
    fall back to ``os.cpu_count() or 1``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platform
            pass
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` request: ``None``/``1`` serial, ``0`` auto."""
    if workers is None:
        return 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return available_workers()
    return workers


def _mp_context():
    """Fork-preferring multiprocessing context (POSIX), default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platform
        return multiprocessing.get_context()


def _worker_initializer() -> None:  # pragma: no cover - runs in children
    """Keep forked workers off the parent's copy-on-write heap.

    Freezing moves every inherited object into the permanent generation
    and disabling collection stops the cyclic GC from walking (and
    therefore paging in) the parent's heap; shard workers allocate only
    acyclic rows and arrays, so they need no collector.
    """
    gc.freeze()
    gc.disable()


def _choose_backend(backend: Optional[str], workers: int) -> str:
    """``"process"`` when real cores are available, else ``"inline"``."""
    if backend is not None:
        if backend not in ("inline", "process"):
            raise ValueError(
                f"unknown backend {backend!r}; expected 'inline' or "
                "'process'"
            )
        return backend
    if workers > 1 and available_workers() > 1:
        return "process"
    return "inline"


def _run_jobs(job, payloads: List[tuple], backend: str, workers: int):
    """Execute ``job`` over ``payloads``, inline or on a fork pool.

    Results come back in payload order.  Worker failures surface as
    :class:`ParallelExecutionError` unless they are library errors; a
    broken pool (a worker died without raising) is always wrapped.
    """
    if backend == "inline":
        return [job(payload) for payload in payloads]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool_size = min(workers, len(payloads))
    try:
        with ProcessPoolExecutor(
            max_workers=pool_size,
            mp_context=_mp_context(),
            initializer=_worker_initializer,
        ) as pool:
            return list(pool.map(job, payloads))
    except ReproError:
        raise
    except BrokenProcessPool as exc:
        raise ParallelExecutionError(
            f"a shard worker process died ({exc}); no partial results "
            "were merged"
        ) from exc
    except Exception as exc:
        raise ParallelExecutionError(
            f"shard worker failed: {exc!r}; no partial results were "
            "merged"
        ) from exc


# ----------------------------------------------------------------------
# Online planner: process-disjoint segments
# ----------------------------------------------------------------------
def plan_process_segments(
    computation: "SyncComputation",
) -> List[List[int]]:
    """Partition message positions into process-disjoint segments.

    Union-find over the processes touched by each message; two messages
    land in the same segment exactly when a chain of shared processes
    connects them — which is also the only way the paper's causality
    (*synchronously precedes*) can relate them, so segments never share
    a causal dependency.  Each segment lists global message positions in
    ascending order; segments are ordered by first appearance.
    """
    parent: Dict[object, object] = {}

    def find(x):
        root = x
        while parent[root] is not root:
            root = parent[root]
        while parent[x] is not root:
            parent[x], x = root, parent[x]
        return root

    for message in computation.messages:
        s, r = message.sender, message.receiver
        if s not in parent:
            parent[s] = s
        if r not in parent:
            parent[r] = r
        rs, rr = find(s), find(r)
        if rs is not rr:
            parent[rr] = rs

    segments: Dict[object, List[int]] = {}
    for position, message in enumerate(computation.messages):
        segments.setdefault(find(message.sender), []).append(position)
    return list(segments.values())


def _stamp_segment_job(payload: tuple):
    """Stamp one process-disjoint segment (runs inline or in a worker).

    ``payload`` is ``(size, slot_count, senders, receivers, groups,
    measure)`` with per-message sender/receiver workspace slots and edge
    groups.  Mirrors the :func:`~repro.core.fastpath.stamp_batch` loop
    exactly — full-width workspaces, payloads measured on the pre-join
    vectors — and returns ``(component_tuples, payload_counts,
    total_payload)`` so the parent can bulk-apply the metrics once,
    like the serial path does.
    """
    size, slot_count, senders, receivers, groups, measure = payload
    workspaces = [MutableVector.zeros(size) for _ in range(slot_count)]
    components: List[Tuple[int, ...]] = []
    payload_counts: Dict[int, int] = {}
    total_payload = 0
    payload_of = _obs.piggyback_size_bytes
    for s, r, g in zip(senders, receivers, groups):
        send = workspaces[s]
        recv = workspaces[r]
        if measure:
            sent = payload_of(send)
            acked = payload_of(recv)
            total_payload += sent + acked
            payload_counts[sent] = payload_counts.get(sent, 0) + 1
            payload_counts[acked] = payload_counts.get(acked, 0) + 1
        recv.join_into(send)
        recv.inc(g)
        send.copy_from(recv)
        components.append(tuple(recv))
    return components, payload_counts, total_payload


def stamp_batch_parallel(
    computation: "SyncComputation",
    decomposition: "EdgeDecomposition",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict["SyncMessage", VectorTimestamp]:
    """Sharded :func:`~repro.core.fastpath.stamp_batch`, byte-identical.

    Falls back to the serial fast path when ``workers`` resolves to 1 or
    the computation has a single process-disjoint segment.
    """
    resolved = resolve_workers(workers)
    messages = computation.messages
    if resolved <= 1 or not messages:
        return stamp_batch(computation, decomposition)
    segments = plan_process_segments(computation)
    if len(segments) <= 1:
        return stamp_batch(computation, decomposition)

    chosen = _choose_backend(backend, resolved)
    size = decomposition.size
    m = _obs.metrics
    measure = m is not None

    payloads = []
    for positions in segments:
        slots: Dict[object, int] = {}
        senders: List[int] = []
        receivers: List[int] = []
        groups: List[int] = []
        for position in positions:
            message = messages[position]
            senders.append(slots.setdefault(message.sender, len(slots)))
            receivers.append(
                slots.setdefault(message.receiver, len(slots))
            )
            groups.append(
                decomposition.group_index_of(message.sender, message.receiver)
            )
        payloads.append(
            (size, len(slots), senders, receivers, groups, measure)
        )

    results = _run_jobs(_stamp_segment_job, payloads, chosen, resolved)

    merge_started = time.perf_counter()
    by_position: List[Optional[VectorTimestamp]] = [None] * len(messages)
    payload_counts: Dict[int, int] = {}
    total_payload = 0
    for positions, (components, counts, segment_total) in zip(
        segments, results
    ):
        for position, component in zip(positions, components):
            by_position[position] = VectorTimestamp(component)
        total_payload += segment_total
        for value, count in counts.items():
            payload_counts[value] = payload_counts.get(value, 0) + count
    timestamps: Dict["SyncMessage", VectorTimestamp] = {
        message: by_position[position]
        for position, message in enumerate(messages)
    }
    merge_seconds = time.perf_counter() - merge_started

    if m is not None:
        # Identical bulk application to stamp_batch's metrics branch,
        # plus the engine's own shard accounting.
        count = len(messages)
        m.vector_component_count.set(size)
        if count:
            m.vector_joins.inc(2 * count)
            m.messages_timestamped.inc(count)
            m.acks_processed.inc(count)
            m.piggyback_bytes_total.inc(total_payload)
            for value, times in payload_counts.items():
                m.piggyback_bytes.observe_many(value, times)
        m.parallel_shards_total.inc(len(segments))
        m.parallel_merge_seconds.observe(merge_seconds)
    return timestamps


# ----------------------------------------------------------------------
# Offline planner: contiguous row blocks
# ----------------------------------------------------------------------
class OfflinePlan:
    """Sharding plan for one offline (Figure 9) pipeline run."""

    __slots__ = ("elements", "blocks", "local_direct", "triangular")

    def __init__(self, elements, blocks, local_direct, triangular):
        self.elements = elements
        #: ``(lo, hi)`` position ranges, consecutive and covering.
        self.blocks: List[Tuple[int, int]] = blocks
        #: Per-block direct-successor rows in block-local bit positions.
        self.local_direct: List[List[int]] = local_direct
        #: True when every cover pair points forward (``i < j``), which
        #: makes insertion order a topological order inside each block.
        self.triangular = triangular


def plan_row_blocks(
    elements: Sequence,
    pairs: Sequence[Tuple[object, object]],
) -> Optional[OfflinePlan]:
    """Cut ``elements`` into causally independent contiguous blocks.

    ``pairs`` is the cover relation.  Position ``p`` starts a new block
    exactly when no pair ``(i, j)`` spans ``i < p <= j``; blocks are
    then forward-closed, so closing each block locally reproduces the
    restriction of the global closure.  Returns ``None`` when the plan
    would not help (fewer than two blocks) — the caller falls back to
    the serial path.
    """
    n = len(elements)
    if n == 0:
        return None
    index = {element: i for i, element in enumerate(elements)}
    reach = [0] * n
    triangular = True
    for smaller, larger in pairs:
        i = index[smaller]
        j = index[larger]
        if j <= i:
            triangular = False
            i, j = j, i  # a backward pair still ties the span [j, i]
        if j > reach[i]:
            reach[i] = j
    cuts = [0]
    frontier = 0
    for i in range(n):
        if reach[i] > frontier:
            frontier = reach[i]
        if i + 1 < n and i + 1 > frontier:
            cuts.append(i + 1)
    cuts.append(n)
    if len(cuts) < 3:
        return None
    blocks = list(zip(cuts, cuts[1:]))

    block_of = [0] * n
    for b, (lo, hi) in enumerate(blocks):
        for i in range(lo, hi):
            block_of[i] = b
    local_direct: List[List[int]] = [
        [0] * (hi - lo) for lo, hi in blocks
    ]
    for smaller, larger in pairs:
        i = index[smaller]
        j = index[larger]
        lo = blocks[block_of[i]][0]
        local_direct[block_of[i]][i - lo] |= 1 << (j - lo)
    return OfflinePlan(elements, blocks, local_direct, triangular)


def _close_block_rows(
    local_direct: List[int], triangular: bool
) -> Tuple[List[int], List[int]]:
    """Close one block in local index space.

    The triangular fast path skips Kahn's sort: when every cover points
    forward, positions already are a topological order, so the reverse
    sweep for ``above`` and the forward sweep for ``below`` run straight
    over ``range``.  Non-triangular blocks take the generic (cycle-
    detecting) :func:`~repro.core.poset.close_transitive_rows`.
    """
    if not triangular:
        return close_transitive_rows(local_direct)
    k = len(local_direct)
    above = [0] * k
    for i in range(k - 1, -1, -1):
        row = local_direct[i]
        if row:
            acc = row
            m = row
            while m:
                low = m & -m
                acc |= above[low.bit_length() - 1]
                m ^= low
            above[i] = acc
    direct_pred = [0] * k
    for i in range(k):
        bit = 1 << i
        m = local_direct[i]
        while m:
            low = m & -m
            direct_pred[low.bit_length() - 1] |= bit
            m ^= low
    below = [0] * k
    for i in range(k):
        row = direct_pred[i]
        if row:
            acc = row
            m = row
            while m:
                low = m & -m
                acc |= below[low.bit_length() - 1]
                m ^= low
            below[i] = acc
    return above, below


def _pack_rows(rows: List[int], stride: int) -> bytes:
    return b"".join(row.to_bytes(stride, "little") for row in rows)


def _unpack_rows(blob: bytes, stride: int, count: int) -> List[int]:
    return [
        int.from_bytes(blob[i * stride : (i + 1) * stride], "little")
        for i in range(count)
    ]


def _offline_block_job(payload: tuple):
    """Close (and optionally match) one row block.

    Inline payloads carry the local direct rows as ints; process
    payloads carry them packed (``bytes``) and return packed rows, so a
    20k-row closure ships megabytes of flat buffers instead of pickled
    big-int lists.
    """
    local_direct, k, stride, triangular, want_match = payload
    if stride:
        local_direct = _unpack_rows(local_direct, stride, k)
    above, below = _close_block_rows(local_direct, triangular)
    match: Optional[List[int]] = None
    if want_match:
        span = list(range(k))
        matcher = BipartiteMatcher.from_bitmask_rows(span, span, above)
        match = matcher.left_match_indices()
    if stride:
        out_stride = (k + 7) // 8
        return (
            _pack_rows(above, out_stride),
            _pack_rows(below, out_stride),
            out_stride,
            match,
        )
    return above, below, 0, match


def parallel_poset_and_chains(
    computation: "SyncComputation",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    want_chains: bool = True,
) -> Optional[tuple]:
    """Sharded message-poset closure (+ Dilworth chain partition).

    Returns ``(poset, chains, shard_count)`` with output byte-identical
    to ``message_poset(computation)`` followed by
    :func:`~repro.core.chains.minimum_chain_partition`, or ``None`` when
    the plan cannot shard (the caller runs the serial path).  ``chains``
    is ``None`` when ``want_chains`` is false.
    """
    from repro.order.message_order import covering_pairs

    resolved = resolve_workers(workers)
    if resolved <= 1:
        return None
    elements = computation.messages
    plan = plan_row_blocks(elements, covering_pairs(computation))
    if plan is None:
        return None

    chosen = _choose_backend(backend, resolved)
    payloads = []
    for (lo, hi), local in zip(plan.blocks, plan.local_direct):
        k = hi - lo
        if chosen == "process":
            stride = (k + 7) // 8
            payloads.append(
                (
                    _pack_rows(local, stride),
                    k,
                    stride,
                    plan.triangular,
                    want_chains,
                )
            )
        else:
            payloads.append((local, k, 0, plan.triangular, want_chains))

    results = _run_jobs(_offline_block_job, payloads, chosen, resolved)

    merge_started = time.perf_counter()
    n = len(elements)
    above_global = [0] * n
    below_global = [0] * n
    match: Dict[int, int] = {}
    for (lo, hi), (above, below, stride, block_match) in zip(
        plan.blocks, results
    ):
        k = hi - lo
        if stride:
            above = _unpack_rows(above, stride, k)
            below = _unpack_rows(below, stride, k)
        for i in range(k):
            above_global[lo + i] = above[i] << lo
            below_global[lo + i] = below[i] << lo
        if block_match is not None:
            for i, j in enumerate(block_match):
                if j != -1:
                    match[lo + i] = lo + j
    poset = Poset._from_closed_bits(
        list(elements), above_global, below_global
    )
    chains: Optional[List[List[object]]] = None
    if want_chains:
        # Same successor-pointer walk as minimum_chain_partition, on
        # positions instead of values: start every chain at an element
        # no matched edge points to, in insertion order.
        has_predecessor = set(match.values())
        chains = []
        for position in range(n):
            if position in has_predecessor:
                continue
            chain = [elements[position]]
            current = position
            while current in match:
                current = match[current]
                chain.append(elements[current])
            chains.append(chain)
    merge_seconds = time.perf_counter() - merge_started

    m = _obs.metrics
    if m is not None:
        m.parallel_shards_total.inc(len(plan.blocks))
        m.parallel_merge_seconds.observe(merge_seconds)
    return poset, chains, len(plan.blocks)
