"""Dimension theory of finite posets (Section 4.1 of the paper).

The *dimension* of a poset is the least ``t`` for which some family of
``t`` linear extensions realizes the order.  Computing it is NP-hard in
general (Yannakakis 1982, the paper's reference [24]); this module
provides:

* an exact brute-force computation for small posets (used as a test
  oracle against the constructive chain realizer);
* the classical *standard examples* ``S_n`` with dimension ``n``, used to
  validate the brute force;
* upper/lower bound helpers (``dim <= width`` via the constructive
  realizer, tightened to ``max(2, max_i width(P_i))`` on a disjoint sum
  by the sum rule; a trivial lower bound from any incomparable pair).
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.chains import minimum_chain_partition
from repro.core.linear_extensions import (
    all_linear_extensions,
    is_realizer,
    minimum_width_realizer,
    realizer_size,
)
from repro.core.poset import Poset
from repro.exceptions import PosetError

Element = Hashable

#: Refuse brute force beyond this many elements (extension count explodes).
BRUTE_FORCE_ELEMENT_LIMIT = 8

#: Refuse brute force beyond this many linear extensions.
BRUTE_FORCE_EXTENSION_LIMIT = 5_000


def dimension_upper_bound(poset: Poset) -> int:
    """The size of the realizer the offline algorithm builds: ``width(P)``
    for a connected poset (the Dilworth bound), ``max(2, max_i
    width(P_i))`` for a disjoint sum of components ``P_i``."""
    return realizer_size(poset, minimum_chain_partition(poset))


def dimension_lower_bound(poset: Poset) -> int:
    """A cheap lower bound: 2 when any incomparable pair exists, else 1."""
    if len(poset) <= 1:
        return 1
    for x, y in poset.incomparable_pairs():
        del x, y
        return 2
    return 1


def dimension_at_most(
    poset: Poset,
    t: int,
    extensions: Optional[Sequence[Sequence[Element]]] = None,
) -> bool:
    """Exact check ``dim(P) <= t`` by exhausting ``t``-subsets of
    linear extensions.  Exponential; intended for small posets only.
    """
    if t < 1:
        return len(poset) <= 1
    if extensions is None:
        extensions = _enumerate_extensions(poset)
    if t >= len(extensions):
        return is_realizer(poset, extensions)
    for family in combinations(extensions, t):
        if is_realizer(poset, family):
            return True
    return False


def dimension(poset: Poset) -> int:
    """Exact dimension by brute force (small posets only).

    Raises :class:`PosetError` when the poset is too large for the
    exhaustive search; use :func:`dimension_upper_bound` instead.
    """
    if len(poset) <= 1:
        return 1
    if len(poset) > BRUTE_FORCE_ELEMENT_LIMIT:
        raise PosetError(
            f"brute-force dimension limited to "
            f"{BRUTE_FORCE_ELEMENT_LIMIT} elements; got {len(poset)}"
        )
    extensions = _enumerate_extensions(poset)
    upper = dimension_upper_bound(poset)
    for t in range(1, upper + 1):
        if dimension_at_most(poset, t, extensions):
            return t
    # The constructive realizer guarantees we never fall through, but be
    # explicit rather than trusting an invariant silently.
    realizer = minimum_width_realizer(poset)
    assert is_realizer(poset, realizer)
    return len(realizer)  # pragma: no cover


def _enumerate_extensions(poset: Poset) -> List[List[Element]]:
    extensions: List[List[Element]] = []
    for extension in all_linear_extensions(poset):
        extensions.append(extension)
        if len(extensions) > BRUTE_FORCE_EXTENSION_LIMIT:
            raise PosetError(
                "too many linear extensions for brute-force dimension"
            )
    return extensions


def standard_example(n: int) -> Poset:
    """The standard example ``S_n``: dimension exactly ``n`` (for n >= 2).

    Elements ``('a', i)`` and ``('b', i)`` for ``0 <= i < n`` with
    ``('a', i) < ('b', j)`` iff ``i != j``.
    """
    if n < 1:
        raise ValueError("standard_example requires n >= 1")
    lows: List[Tuple[str, int]] = [("a", i) for i in range(n)]
    highs: List[Tuple[str, int]] = [("b", i) for i in range(n)]
    pairs = [
        (("a", i), ("b", j))
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    return Poset(lows + highs, pairs)


def crown_poset(n: int) -> Poset:
    """The crown ``S_n^0`` variant where ``a_i < b_j`` iff ``j`` is
    ``i`` or ``i+1 (mod n)`` — a classic width-``n`` family used in the
    dimension stress tests."""
    if n < 2:
        raise ValueError("crown_poset requires n >= 2")
    lows = [("a", i) for i in range(n)]
    highs = [("b", i) for i in range(n)]
    pairs = []
    for i in range(n):
        pairs.append((("a", i), ("b", i)))
        pairs.append((("a", i), ("b", (i + 1) % n)))
    return Poset(lows + highs, pairs)


def critical_pairs(poset: Poset) -> List[Tuple[Element, Element]]:
    """Ordered incomparable pairs ``(x, y)`` with ``down(x) ⊆ down(y)``
    and ``up(y) ⊆ up(x)`` — the pairs every realizer must reverse.

    Any family of linear extensions reversing every critical pair is a
    realizer, a standard fact used by the dimension tests.
    """
    result: List[Tuple[Element, Element]] = []
    for x in poset.elements:
        for y in poset.elements:
            if x == y or poset.comparable(x, y):
                continue
            if poset.strictly_below(x) <= poset.strictly_below(y) and (
                poset.strictly_above(y) <= poset.strictly_above(x)
            ):
                result.append((x, y))
    return result


def reverses_pair(
    extension: Sequence[Element], pair: Tuple[Element, Element]
) -> bool:
    """True when ``extension`` places ``pair[1]`` before ``pair[0]``."""
    x, y = pair
    position = {e: i for i, e in enumerate(extension)}
    return position[y] < position[x]


def family_reverses_all_critical_pairs(
    poset: Poset, extensions: Iterable[Sequence[Element]]
) -> bool:
    """Check the critical-pair characterisation of realizers."""
    pairs = critical_pairs(poset)
    families = list(extensions)
    return all(
        any(reverses_pair(extension, pair) for extension in families)
        for pair in pairs
    )
