"""The paper's offline algorithm (Figure 9, Section 4).

Given the *completed* computation, the offline algorithm:

1. builds the message poset ``(M, ↦)`` and takes its width ``w``
   (Theorem 8 proves ``w <= floor(N/2)``, because each message occupies
   two processes and ``floor(N/2)+1`` messages must share one);
2. constructs a chain realizer ``{L_1, .., L_k}`` with
   ``∩ L_i = (M, ↦)`` (we use the constructive chain-forcing lemma over
   a minimum chain partition — see :mod:`repro.core.linear_extensions`).
   ``k = w`` when the poset is connected; when no process links two
   groups of messages the poset is a disjoint sum ``P_1 + .. + P_m``
   and the sum rule needs only ``k = max(2, max_i width(P_i))``;
3. stamps each message ``m`` with ``V_m[i] =`` the number of messages
   before ``m`` in ``L_i``.

The resulting vectors characterize ``↦`` with ``k <= w`` components,
and for comparable messages *every* component moves, so the precedence
test is the same strict vector order as everywhere else.

Every phase above runs on the bitset poset kernel
(:mod:`repro.core.poset`): the closure is a word-parallel OR-sweep, the
Dilworth matching consumes the closed bitmask rows directly, and the
realizer's forced extensions sweep the cached cover rows, each over its
own connected component.  The matching starts from the chains the
processes of a vertex cover already form (each process's messages are
totally ordered, the fact behind Theorem 8), so where those chains are
already minimum, Hopcroft–Karp only certifies them.  The sweep's
chain-independent state (successor lists, in-degrees, stall
thresholds) is built once per realizer, and
:func:`~repro.core.linear_extensions.realizer_orders` hands back each
extension as insertion indices, so step 3 fills one int row of ranks
per extension and transposes the rows into vectors without hashing a
message per extension.  The phase costs are measured by the
``offline.*`` spans and snapshotted by ``benchmarks/test_bench_offline.py``
into ``BENCH_offline.json``.  Callers that need the width, partition, and
timestamps of the *same* computation should build the poset once and use
:meth:`OfflineRealizerClock.timestamp_poset` (see the usage cookbook) so
the per-poset matcher and cover caches are shared across the calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.clocks.base import MessageTimestamper, TimestampAssignment
from repro.core.chains import (
    greedy_chain_partition,
    minimum_chain_partition,
    width,
)
from repro.core.linear_extensions import realizer_orders, realizer_size
from repro.core.poset import Poset
from repro.core.vector import VectorTimestamp
from repro.obs import audit as _audit
from repro.obs import instrument as _obs
from repro.order.message_order import message_poset
from repro.sim.computation import SyncComputation, SyncMessage


class OfflineRealizerClock(MessageTimestamper[VectorTimestamp]):
    """Figure 9: vectors from a chain realizer, one component per
    extension of the sum-rule realizer (at most the width).

    The clock is stateless until :meth:`timestamp_computation` runs;
    afterwards :attr:`timestamp_size`, :attr:`realizer` and
    :attr:`chain_partition` describe the last computation processed.
    """

    characterizes_order = True

    def __init__(self, chain_strategy: str = "matching", workers: int = 1):
        if chain_strategy not in ("matching", "greedy"):
            raise ValueError(
                f"unknown chain_strategy {chain_strategy!r}; "
                "expected 'matching' or 'greedy'"
            )
        # Stamping is serial; the keyword stays only so callers that
        # pass ``workers=1`` keep working.
        if workers != 1:
            raise ValueError(
                f"workers={workers!r} is not supported; stamping is "
                "serial (only workers=1 is accepted)"
            )
        #: "matching" uses the Dilworth-optimal partition (one chain per
        #: unit of width); "greedy" peels longest chains — the DESIGN.md
        #: §6 ablation, possibly producing more (= larger vectors).
        self._chain_strategy = chain_strategy
        self._last_size: Optional[int] = None
        #: The last realizer, as insertion-index orders over
        #: ``_last_elements`` (see :func:`realizer_orders`).
        self._last_elements: Tuple[SyncMessage, ...] = ()
        self._last_orders: Optional[List[List[int]]] = None
        self._last_chains: Optional[List[List[SyncMessage]]] = None

    @property
    def timestamp_size(self) -> int:
        if self._last_size is None:
            raise RuntimeError(
                "timestamp_size is known only after timestamp_computation"
            )
        return self._last_size

    @property
    def realizer(self) -> List[List[SyncMessage]]:
        if self._last_orders is None:
            raise RuntimeError(
                "realizer is known only after timestamp_computation"
            )
        elements = self._last_elements
        return [[elements[i] for i in order] for order in self._last_orders]

    @property
    def chain_partition(self) -> List[List[SyncMessage]]:
        if self._last_chains is None:
            raise RuntimeError(
                "chain partition is known only after timestamp_computation"
            )
        return [list(chain) for chain in self._last_chains]

    def timestamp_computation(
        self, computation: SyncComputation
    ) -> TimestampAssignment:
        with _obs.span(
            "offline.message_poset", messages=len(computation)
        ):
            poset = message_poset(computation)
        return self.timestamp_poset(computation, poset)

    def timestamp_poset(
        self, computation: SyncComputation, poset: Poset
    ) -> TimestampAssignment:
        """Timestamp against a caller-supplied message poset.

        Exposed so benchmarks can reuse one ground-truth poset for both
        the oracle check and the offline stamping.
        """
        if len(poset) == 0:
            self._last_size = 0
            self._last_orders = []
            self._last_chains = []
            return TimestampAssignment(computation, {})
        with _obs.span(
            "offline.chain_partition",
            strategy=self._chain_strategy,
            messages=len(poset),
        ):
            if self._chain_strategy == "matching":
                chains = minimum_chain_partition(poset)
            else:
                chains = greedy_chain_partition(poset)
        with _obs.span("offline.realizer", chains=len(chains)):
            orders = realizer_orders(poset, chains)
        elements = poset.elements
        self._last_chains = chains
        self._last_elements = elements
        self._last_orders = orders
        self._last_size = len(orders)

        with _obs.span("offline.rank_vectors", size=len(orders)):
            # Row k holds every element's rank in extension k, by
            # insertion index; transposing the rows gives the vectors,
            # so no message is hashed once per extension.
            n = len(elements)
            rows = []
            for order in orders:
                row = [0] * n
                for rank, i in enumerate(order):
                    row[i] = rank
                rows.append(row)
            timestamps: Dict[SyncMessage, VectorTimestamp] = dict(
                zip(elements, map(VectorTimestamp, zip(*rows)))
            )
        m = _obs.metrics
        aud = _audit.auditor
        if m is not None or aud is not None:
            # Greedy peeling may return more chains than the width.
            poset_width = (
                len(chains)
                if self._chain_strategy == "matching"
                else width(poset)
            )
        if m is not None:
            m.offline_width.set(poset_width)
            m.offline_vector_size.set(len(orders))
            m.theorem8_bound.set(
                len(computation.active_processes()) // 2
            )
            m.messages_timestamped.inc(len(poset))
        if aud is not None:
            # Read-only cross-check against the same poset we stamped
            # from; never mutates the assignment.
            aud.audit_offline(computation, poset, timestamps, poset_width)
        return TimestampAssignment(computation, timestamps)

    def precedes(self, ts1: VectorTimestamp, ts2: VectorTimestamp) -> bool:
        return ts1 < ts2


def offline_vector_size(computation: SyncComputation) -> int:
    """The number of components Figure 9 uses: ``width(M, ↦)`` when the
    message poset is connected, else the sum-rule size
    ``max(2, max_i width(P_i))`` over its components."""
    poset = message_poset(computation)
    if len(poset) == 0:
        return 0
    return realizer_size(poset, minimum_chain_partition(poset))


def theorem8_bound(computation: SyncComputation) -> int:
    """``floor(N/2)`` over the *active* processes of the computation.

    Theorem 8's counting argument involves only processes that carry
    messages, so the bound is stated on the active population.
    """
    return len(computation.active_processes()) // 2
