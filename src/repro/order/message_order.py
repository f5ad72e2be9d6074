"""The ground-truth message order ``(M, ↦)`` of Section 2.

``m1 ▷ m2`` holds exactly when the two messages share a participant
process and ``m1`` occurs before ``m2`` on it (the four event-order
cases of the paper collapse to this because synchronous messages draw as
vertical arrows).  ``↦`` ("synchronously precedes") is the transitive
closure of ``▷``.

This module computes the poset directly from the execution order — it
is the oracle every clock algorithm is verified against, so it is kept
deliberately simple: per-process projections give ``▷``, and
:class:`repro.core.poset.Poset` computes the closure.  The poset also
remembers its computation, so it can hand the chain machinery the chains
that the processes of a vertex cover already form
(:meth:`MessagePoset.process_chains`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.core.poset import Poset
from repro.graphs.vertex_cover import greedy_vertex_cover
from repro.sim.computation import SyncComputation, SyncMessage


def _process_projections(
    computation: SyncComputation,
) -> Iterator[Sequence[SyncMessage]]:
    """Each process's message projection, in process order.

    The single source of the per-process timelines both pair
    enumerations below are derived from.
    """
    for process in computation.processes:
        yield computation.process_messages(process)


def direct_precedence_pairs(
    computation: SyncComputation,
) -> List[Tuple[SyncMessage, SyncMessage]]:
    """All ``(m1, m2)`` with ``m1 ▷ m2`` — shared process, m1 earlier."""
    pairs: List[Tuple[SyncMessage, SyncMessage]] = []
    seen: Set[Tuple[int, int]] = set()
    for projection in _process_projections(computation):
        for i, earlier in enumerate(projection):
            for later in projection[i + 1 :]:
                key = (earlier.index, later.index)
                if key not in seen:
                    seen.add(key)
                    pairs.append((earlier, later))
    return pairs


def covering_pairs(
    computation: SyncComputation,
) -> List[Tuple[SyncMessage, SyncMessage]]:
    """Consecutive pairs per process projection — generate the same
    closure as :func:`direct_precedence_pairs` but in O(messages)."""
    pairs: List[Tuple[SyncMessage, SyncMessage]] = []
    for projection in _process_projections(computation):
        pairs.extend(zip(projection, projection[1:]))
    return pairs


class MessagePoset(Poset):
    """``(M, ↦)`` together with the computation it was built from.

    Section 2 orders any two messages that share a process, so each
    process's messages form a chain, and the processes of a vertex cover
    of the topology split ``M`` into chains for free.
    :func:`repro.core.chains.minimum_chain_partition` starts its
    matching from those chains.  :meth:`restricted_to` and :meth:`dual`
    return plain :class:`Poset` objects, which carry no process chains.
    """

    __slots__ = ("_computation",)

    def __init__(self, computation: SyncComputation):
        super().__init__(computation.messages, covering_pairs(computation))
        self._computation = computation

    def process_chains(self) -> List[List[int]]:
        """Chains of insertion indices, one per busy cover process.

        Each message goes to whichever of its two processes comes first
        in :func:`~repro.graphs.vertex_cover.greedy_vertex_cover` order;
        every channel has an endpoint in the cover, so every message is
        placed.  A process's messages are ordered by ``▷``, and message
        ``i`` sits at insertion index ``i``, so each list is a chain,
        bottom to top.
        """
        cover = greedy_vertex_cover(self._computation.topology)
        rank = {process: k for k, process in enumerate(cover)}
        absent = len(cover)
        chains: List[List[int]] = [[] for _ in cover]
        for i, message in enumerate(self._computation.messages):
            chains[
                min(
                    rank.get(message.sender, absent),
                    rank.get(message.receiver, absent),
                )
            ].append(i)
        return [chain for chain in chains if chain]


def message_poset(computation: SyncComputation) -> MessagePoset:
    """The poset ``(M, ↦)``: transitive closure of ``▷``.

    Elements are the :class:`SyncMessage` objects themselves (they are
    frozen dataclasses, hence hashable).

    >>> from repro.graphs.generators import path_topology
    >>> comp = SyncComputation.from_pairs(
    ...     path_topology(3), [("P1", "P2"), ("P2", "P3")])
    >>> poset = message_poset(comp)
    >>> poset.less(comp.message("m1"), comp.message("m2"))
    True
    """
    return MessagePoset(computation)


def directly_precedes(
    computation: SyncComputation, m1: SyncMessage, m2: SyncMessage
) -> bool:
    """``m1 ▷ m2`` — one shared participant and m1 occurs first."""
    if m1.index >= m2.index:
        return False
    shared = set(m1.participants()) & set(m2.participants())
    return bool(shared)


def synchronously_precedes(
    poset: Poset, m1: SyncMessage, m2: SyncMessage
) -> bool:
    """``m1 ↦ m2`` relative to a precomputed message poset."""
    return poset.less(m1, m2)


def concurrent_messages(
    poset: Poset,
) -> List[Tuple[SyncMessage, SyncMessage]]:
    """All unordered concurrent pairs ``m1 ‖ m2``.

    Delegates to the poset's bitset-backed ``incomparable_pairs`` — one
    mask extraction per message row rather than an O(n²) hash-probing
    sweep, so monitors can afford it on large completed computations.
    """
    return poset.incomparable_pairs()


def synchronous_chains_between(
    computation: SyncComputation,
    start: SyncMessage,
    end: SyncMessage,
    max_chains: int = 1000,
) -> List[List[SyncMessage]]:
    """Chains ``start ▷ .. ▷ end`` (each step a direct precedence).

    A chain of size ``k`` is a sequence of ``k`` messages, matching the
    paper's "synchronous chain of size k from m1 to mk".  Enumeration is
    bounded by ``max_chains`` to stay safe on dense computations.
    """
    successors: Dict[int, List[SyncMessage]] = {}
    messages = computation.messages
    for m in messages:
        successors[m.index] = [
            other
            for other in messages[m.index + 1 :]
            if directly_precedes(computation, m, other)
        ]

    chains: List[List[SyncMessage]] = []

    def extend(prefix: List[SyncMessage]) -> None:
        if len(chains) >= max_chains:
            return
        current = prefix[-1]
        if current == end:
            chains.append(list(prefix))
            return
        for nxt in successors[current.index]:
            if nxt.index <= end.index:
                prefix.append(nxt)
                extend(prefix)
                prefix.pop()

    extend([start])
    return chains


def longest_chain_size_between(
    computation: SyncComputation, start: SyncMessage, end: SyncMessage
) -> int:
    """Size of the longest synchronous chain from ``start`` to ``end``
    (0 when no chain exists)."""
    if start == end:
        return 1
    messages = computation.messages
    best: Dict[int, int] = {start.index: 1}
    for m in messages[start.index + 1 :]:
        if m.index > end.index:
            break
        candidates = [
            best[earlier.index]
            for earlier in messages[: m.index]
            if earlier.index in best
            and directly_precedes(computation, earlier, m)
        ]
        if candidates:
            best[m.index] = 1 + max(candidates)
    return best.get(end.index, 0)


def minimal_messages(poset: Poset) -> List[SyncMessage]:
    """Messages with no predecessor — the base case of Theorem 4."""
    return poset.minimal_elements()
