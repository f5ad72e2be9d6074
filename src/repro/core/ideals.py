"""Order ideals (down-sets): the lattice of consistent global states.

Mattern's classical observation: the consistent global states of a
computation are exactly the order ideals of its event poset, and they
form a distributive lattice under union/intersection.  For a
synchronous computation the events are the messages, so the ideals of
``(M, ↦)`` are the consistent *message* cuts — the structure behind
checkpointing and predicate detection.

Enumeration and counting are delegated to the chain-indexed bitset
kernel (:mod:`repro.core.lattice_kernel`): by Theorem 8 the message
poset splits into at most ``floor(N/2)`` chains, every ideal is a
tuple of per-chain prefix lengths, and the kernel walks that encoding
with O(width) mask operations per ideal.  The pre-kernel layered BFS
is preserved as :func:`ideals_reference` — the executable
specification the property tests and benchmarks compare against.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Iterator, List, Set

from repro.core import lattice_kernel
from repro.core.lattice_kernel import popcount
from repro.core.poset import Poset, iter_bits
from repro.exceptions import PosetError

Element = Hashable


def is_down_set(poset: Poset, subset: Iterable[Element]) -> bool:
    """True when the subset contains everything below each member."""
    mask = lattice_kernel.mask_of(poset, subset)
    return lattice_kernel.is_ideal_mask(poset, mask)


def down_closure(poset: Poset, subset: Iterable[Element]) -> FrozenSet[Element]:
    """The smallest ideal containing ``subset``."""
    below = poset.below_bit_rows()
    mask = lattice_kernel.mask_of(poset, subset)
    closed = mask
    m = mask
    while m:
        low = m & -m
        closed |= below[low.bit_length() - 1]
        m ^= low
    return lattice_kernel.members_of_mask(poset, closed)


def all_ideals(
    poset: Poset, limit: int = 100_000
) -> Iterator[FrozenSet[Element]]:
    """Yield every ideal, smallest first (by cardinality layer).

    A thin wrapper over the chain-indexed kernel
    (:func:`repro.core.lattice_kernel.iterate_ideal_masks`): the
    kernel's chain-prefix order is the canonical enumeration order,
    and this wrapper re-layers it by cardinality (a stable sort on
    popcount) to keep the historical smallest-first contract.  Raises
    :class:`PosetError` when more than ``limit`` ideals exist — the
    whole lattice is enumerated on the first ``next()``, so the limit
    fires up front rather than mid-iteration.
    """
    masks = list(lattice_kernel.iterate_ideal_masks(poset, limit=limit))
    masks.sort(key=popcount)
    elements = poset.elements
    for mask in masks:
        yield frozenset(elements[b] for b in iter_bits(mask))


def ideals_reference(
    poset: Poset, limit: int = 100_000
) -> Iterator[FrozenSet[Element]]:
    """The pre-kernel layered BFS, kept as the executable specification.

    An ideal of size ``k + 1`` is an ideal of size ``k`` plus one
    element minimal in the complement; each layer is generated from
    the previous with per-element frozenset closures and de-duplicated
    by hashing — exponential with a large constant, which is exactly
    what ``BENCH_lattice.json`` measures the kernel against.

    Within a layer the iteration order is unspecified (the historical
    ``sorted(map(repr, ...))`` tiebreak was a determinism hack, not a
    contract); the *canonical* order of the library is the kernel's
    chain-prefix order as re-layered by :func:`all_ideals`.  Compare
    the two as sets, the way the property suite does.
    """
    current: Set[FrozenSet[Element]] = {frozenset()}
    produced = 0
    while current:
        next_layer: Set[FrozenSet[Element]] = set()
        for ideal in current:
            produced += 1
            if produced > limit:
                raise PosetError(
                    f"poset has more than {limit} ideals; raise the limit"
                )
            yield ideal
            for element in poset.elements:
                if element in ideal:
                    continue
                if poset.strictly_below(element) <= ideal:
                    next_layer.add(ideal | {element})
        current = next_layer


def ideal_count(poset: Poset, limit: int = 100_000) -> int:
    """The number of ideals (consistent global states).

    Counts through :func:`repro.core.lattice_kernel.count_ideals`
    without materializing a single frozenset.
    """
    return lattice_kernel.count_ideals(poset, limit=limit)


def ideal_join(a: FrozenSet[Element], b: FrozenSet[Element]) -> FrozenSet[Element]:
    """Lattice join of two ideals (their union is again an ideal)."""
    return a | b


def ideal_meet(a: FrozenSet[Element], b: FrozenSet[Element]) -> FrozenSet[Element]:
    """Lattice meet of two ideals (their intersection)."""
    return a & b


def maximal_elements_of_ideal(
    poset: Poset, ideal: FrozenSet[Element]
) -> List[Element]:
    """The antichain of maximal elements — the ideal's *frontier*.

    Ideals are in bijection with antichains (an ideal is the down
    closure of its frontier), which is how consistent cuts are usually
    reported to users.
    """
    above = poset.above_bit_rows()
    mask = lattice_kernel.mask_of(poset, ideal, strict=False)
    elements = poset.elements
    return [
        elements[b] for b in iter_bits(mask) if not above[b] & mask
    ]
