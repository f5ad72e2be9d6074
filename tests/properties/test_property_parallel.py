"""Block-local closure and matching equal their global references.

:func:`repro.core.poset.close_transitive_rows` and the comparability
matcher behind :func:`~repro.core.chains.minimum_chain_partition`,
:func:`~repro.core.chains.width` and
:func:`~repro.core.chains.maximum_antichain` cut the order into the
diagonal blocks of :func:`~repro.core.poset.diagonal_blocks` and work
on each block in its own index space.  The properties below check the
results against references that never cut: the dict-of-sets
:class:`~repro.core.poset_reference.ReferencePoset` (its closure, and
the adjacency-list Hopcroft–Karp run over all of it) and a quadratic
span scan kept in this file.  They run on clustered computations (one
block per cluster or more) and on random posets whose insertion order
is not topological, with one block and with several.  The offline
clock's check gives the reference kernel the message poset's process
chains, so both matchers start from the same seed.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks.offline import OfflineRealizerClock
from repro.core.chains import (
    maximum_antichain,
    minimum_chain_partition,
    width,
)
from repro.core.poset import Poset, diagonal_blocks
from repro.core.poset_reference import ReferencePoset
from repro.order.message_order import MessagePoset, covering_pairs
from tests.strategies import clustered_computations, computations

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def backward_posets(draw, max_blocks: int = 4, max_block_size: int = 8):
    """``(elements, pairs)``: a random order, inserted out of order.

    Each block is a random DAG over a hidden random ranking of its
    positions, so many pairs point backwards in insertion order; the
    blocks are concatenated and share no pair.
    """
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_block_size),
            min_size=1,
            max_size=max_blocks,
        )
    )
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    pairs = []
    lo = 0
    for size in sizes:
        ranked = list(range(lo, lo + size))
        rng.shuffle(ranked)
        for a in range(size):
            for b in range(a + 1, size):
                if rng.random() < density:
                    pairs.append((ranked[a], ranked[b]))
        lo += size
    return list(range(lo)), pairs


class _ReferenceMessagePoset(ReferencePoset):
    """The reference kernel over a computation's messages, offering the
    same process chains as :func:`message_poset`, so both kernels start
    their matching from the same seed."""

    __slots__ = ("_computation",)

    def __init__(self, computation):
        super().__init__(computation.messages, covering_pairs(computation))
        self._computation = computation

    process_chains = MessagePoset.process_chains


def _rows(reference: ReferencePoset):
    """The reference closure as above/below bitmask rows."""
    index = {element: i for i, element in enumerate(reference.elements)}
    above = [
        sum(1 << index[y] for y in reference.strictly_above(x))
        for x in reference.elements
    ]
    below = [
        sum(1 << index[y] for y in reference.strictly_below(x))
        for x in reference.elements
    ]
    return tuple(above), tuple(below)


def _reference_blocks(n, index_pairs):
    """Split ``0..n-1`` at every position no pair spans."""
    spanned = [False] * (n + 1)
    for a, b in index_pairs:
        for p in range(min(a, b) + 1, max(a, b) + 1):
            spanned[p] = True
    bounds = [0] + [p for p in range(1, n) if not spanned[p]] + [n]
    return list(zip(bounds, bounds[1:])) if n else []


def _check_against_reference(elements, pairs):
    poset = Poset(elements, pairs)
    reference = ReferencePoset(elements, pairs)
    assert (poset.above_bit_rows(), poset.below_bit_rows()) == _rows(
        reference
    )
    chains = minimum_chain_partition(poset)
    assert chains == minimum_chain_partition(reference)
    assert width(poset) == len(chains)
    antichain = maximum_antichain(poset)
    assert len(antichain) == len(chains)
    assert reference.is_antichain(antichain)


def _check_blocks(elements, pairs):
    index = {element: i for i, element in enumerate(elements)}
    index_pairs = [(index[a], index[b]) for a, b in pairs]
    n = len(elements)
    direct = [0] * n
    for a, b in index_pairs:
        direct[a] |= 1 << b
    poset = Poset(elements, pairs)
    blocks = diagonal_blocks(direct)
    assert blocks == _reference_blocks(n, index_pairs)
    assert diagonal_blocks(poset.above_bit_rows()) == blocks
    if n:
        assert blocks[0][0] == 0
        assert blocks[-1][1] == n
    assert all(
        previous[1] == current[0]
        for previous, current in zip(blocks, blocks[1:])
    )
    block_of = {}
    for number, (lo, hi) in enumerate(blocks):
        for position in range(lo, hi):
            block_of[position] = number
    for x, y in poset.relation_pairs():
        assert block_of[index[x]] == block_of[index[y]]
    return blocks


class TestOfflineParity:
    @RELAXED
    @given(clustered_computations())
    def test_closure_rows_chains_and_width_identical(self, computation):
        _check_against_reference(
            computation.messages, covering_pairs(computation)
        )

    @RELAXED
    @given(backward_posets())
    def test_backward_posets_match_the_reference(self, case):
        elements, pairs = case
        _check_against_reference(elements, pairs)

    @RELAXED
    @given(clustered_computations())
    def test_offline_clock_timestamps_identical(self, computation):
        clock = OfflineRealizerClock()
        assignment = clock.timestamp_computation(computation)
        reference_clock = OfflineRealizerClock()
        reference = reference_clock.timestamp_poset(
            computation, _ReferenceMessagePoset(computation)
        )
        assert clock.chain_partition == reference_clock.chain_partition
        for message in computation.messages:
            assert (
                assignment.of(message).components
                == reference.of(message).components
            )

    @RELAXED
    @given(computations(max_messages=30))
    def test_arbitrary_computations_round_trip(self, computation):
        _check_against_reference(
            computation.messages, covering_pairs(computation)
        )

    @RELAXED
    @given(clustered_computations())
    def test_row_blocks_cover_and_respect_causality(self, computation):
        blocks = _check_blocks(
            computation.messages, covering_pairs(computation)
        )
        # Clusters share no process, so each one adds at least a block.
        clusters = {
            message.sender.split("_")[0] for message in computation.messages
        }
        assert len(blocks) >= len(clusters)

    @RELAXED
    @given(backward_posets())
    def test_backward_posets_cut_where_nothing_spans(self, case):
        elements, pairs = case
        _check_blocks(elements, pairs)
