"""Finite partially ordered sets on a word-parallel bitset kernel.

The paper's central object is the poset ``(M, ↦)`` formed by the messages
of a synchronous computation under the *synchronously precedes* relation.
This module provides a small, self-contained poset implementation with
exactly the operations the algorithms need:

* construction from a cover relation or from an arbitrary (acyclic)
  relation, with transitive closure computed internally;
* comparability and concurrency tests;
* minimal/maximal elements, down-sets and up-sets;
* transitive reduction (the covering relation), used for drawing and for
  efficient chain searches;
* enumeration of all ordered/incomparable pairs, used by the encoding
  checker and by the dimension machinery.

Internally the strict order is stored as two arrays of arbitrary-
precision integer bitmasks indexed by insertion position: bit ``j`` of
``_above_bits[i]`` is set exactly when ``elements[i] < elements[j]``,
and ``_below_bits`` is the transpose.  Transitive closure is a
word-parallel OR-sweep over a topological order, run on each diagonal
block of the relation in block-local index space
(:func:`diagonal_blocks`), the covering relation is a per-row mask
subtraction, and pair enumerations are bit extractions — the
representation that makes the offline (Figure 9) pipeline fast at
scale.  ``tests/properties`` pins this kernel as
observationally identical to the reference dict-of-sets implementation
kept in :mod:`repro.core.poset_reference`.

Elements may be any hashable values.  Iteration order over elements is
the insertion order, which keeps every algorithm in the library
deterministic for a fixed input.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

from repro.exceptions import NotAPartialOrderError, PosetError

Element = Hashable

try:  # Python >= 3.10
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - 3.9 fallback
    def _popcount(value: int) -> int:
        return bin(value).count("1")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """An irreflexive, transitive order on a finite set of elements.

    The constructor takes the *strict* order as an iterable of
    ``(smaller, larger)`` pairs; the transitive closure is computed, and
    a cycle (which would make some element smaller than itself) raises
    :class:`NotAPartialOrderError`.

    >>> p = Poset("abc", [("a", "b"), ("b", "c")])
    >>> p.less("a", "c")
    True
    >>> p.concurrent("a", "a")
    False
    """

    __slots__ = (
        "_elements",
        "_index",
        "_above_bits",
        "_below_bits",
        "_succ_index",
        "_cover_bits",
        "_cover_pair_cache",
        "__weakref__",
    )

    def __init__(
        self,
        elements: Iterable[Element],
        relation: Iterable[Tuple[Element, Element]] = (),
    ):
        self._succ_index: "Tuple[Tuple[int, ...], ...] | None" = None
        self._cover_bits: "List[int] | None" = None
        self._cover_pair_cache: "List[Tuple[Element, Element]] | None" = None
        self._elements: List[Element] = []
        self._index: Dict[Element, int] = {}
        for element in elements:
            if element in self._index:
                raise PosetError(f"duplicate element {element!r}")
            self._index[element] = len(self._elements)
            self._elements.append(element)

        index = self._index
        direct = [0] * len(self._elements)
        for smaller, larger in relation:
            i = index.get(smaller, -1)
            if i < 0:
                raise PosetError(f"unknown element {smaller!r} in relation")
            j = index.get(larger, -1)
            if j < 0:
                raise PosetError(f"unknown element {larger!r} in relation")
            if i == j:
                raise NotAPartialOrderError(
                    f"relation is not irreflexive: {smaller!r} < {smaller!r}"
                )
            direct[i] |= 1 << j

        self._close_transitively(direct)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _close_transitively(self, direct: List[int]) -> None:
        """Fill the bitmask rows with the transitive closure of ``direct``."""
        self._above_bits, self._below_bits = close_transitive_rows(direct)

    @classmethod
    def _from_closed_bits(
        cls,
        elements: List[Element],
        above_bits: List[int],
        below_bits: List[int],
    ) -> "Poset":
        """Trusted constructor over already-transitively-closed rows.

        Used by :meth:`restricted_to` and :meth:`dual`, whose inputs are
        closed by construction — re-validating and re-closing them
        through ``__init__`` would redo the whole closure from pairs.
        The public constructor's :class:`NotAPartialOrderError`
        behaviour is unchanged; this path is internal only.
        """
        poset = cls.__new__(cls)
        poset._elements = elements
        poset._index = {e: i for i, e in enumerate(elements)}
        poset._above_bits = above_bits
        poset._below_bits = below_bits
        poset._succ_index = None
        poset._cover_bits = None
        poset._cover_pair_cache = None
        return poset

    @classmethod
    def from_cover_relation(
        cls,
        elements: Iterable[Element],
        covers: Iterable[Tuple[Element, Element]],
    ) -> "Poset":
        """Build a poset from its covering (Hasse diagram) relation."""
        return cls(elements, covers)

    @classmethod
    def chain(cls, elements: Sequence[Element]) -> "Poset":
        """A totally ordered poset in the order of ``elements``."""
        pairs = [
            (elements[i], elements[i + 1]) for i in range(len(elements) - 1)
        ]
        return cls(elements, pairs)

    @classmethod
    def antichain(cls, elements: Iterable[Element]) -> "Poset":
        """A poset in which every pair of elements is incomparable."""
        return cls(elements, ())

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __contains__(self, element: Element) -> bool:
        return element in self._index

    @property
    def elements(self) -> Tuple[Element, ...]:
        """The elements in insertion order."""
        return tuple(self._elements)

    def _require(self, element: Element) -> int:
        position = self._index.get(element, -1)
        if position < 0:
            raise PosetError(f"element {element!r} not in poset")
        return position

    def less(self, x: Element, y: Element) -> bool:
        """True when ``x`` is strictly below ``y``."""
        i = self._require(x)
        j = self._require(y)
        return (self._above_bits[i] >> j) & 1 == 1

    def less_equal(self, x: Element, y: Element) -> bool:
        """True when ``x == y`` or ``x`` is strictly below ``y``."""
        return x == y or self.less(x, y)

    def comparable(self, x: Element, y: Element) -> bool:
        """True when ``x < y`` or ``y < x`` (distinct comparable pair)."""
        i = self._require(x)
        j = self._require(y)
        above = self._above_bits
        return (above[i] >> j) & 1 == 1 or (above[j] >> i) & 1 == 1

    def concurrent(self, x: Element, y: Element) -> bool:
        """True when ``x`` and ``y`` are distinct and incomparable.

        This is the ``m1 ‖ m2`` relation of Section 2.
        """
        self._require(x)
        self._require(y)
        return x != y and not self.comparable(x, y)

    # ------------------------------------------------------------------
    # Bitmask kernel access
    # ------------------------------------------------------------------
    def above_bit_rows(self) -> Tuple[int, ...]:
        """The strict order as bitmask rows by insertion position.

        Bit ``j`` of row ``i`` is set exactly when
        ``elements[i] < elements[j]``.  The chain machinery
        (:mod:`repro.core.chains`, :mod:`repro.core.linear_extensions`)
        and the encoding checker consume these rows directly instead of
        re-deriving per-pair adjacency through :meth:`less`.
        """
        return tuple(self._above_bits)

    def below_bit_rows(self) -> Tuple[int, ...]:
        """Transpose of :meth:`above_bit_rows` (strict predecessors)."""
        return tuple(self._below_bits)

    def cover_bit_rows(self) -> Tuple[int, ...]:
        """The covering relation as bitmask rows (cached, see
        :meth:`cover_pairs`).

        A topological sort driven off these rows visits elements in the
        same order as one driven off the full closure — the last-placed
        predecessor of any element is always one of its covers — which
        is what lets the realizer construction sweep O(covers) edges per
        extension instead of O(ordered pairs).
        """
        return tuple(self._cover_rows())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _members(self, mask: int) -> FrozenSet[Element]:
        elements = self._elements
        return frozenset(elements[b] for b in iter_bits(mask))

    def strictly_below(self, element: Element) -> FrozenSet[Element]:
        """All elements strictly less than ``element``."""
        return self._members(self._below_bits[self._require(element)])

    def strictly_above(self, element: Element) -> FrozenSet[Element]:
        """All elements strictly greater than ``element``."""
        return self._members(self._above_bits[self._require(element)])

    def successor_index(self) -> Tuple[Tuple[int, ...], ...]:
        """The strict order as insertion-index adjacency, cached.

        ``successor_index()[i]`` lists (sorted ascending) the insertion
        indices of every element strictly above ``elements[i]``.  Kept
        for callers that want explicit adjacency lists; the bitmask rows
        (:meth:`above_bit_rows`) carry the same information without
        materializing the tuples.
        """
        cached = self._succ_index
        if cached is None:
            cached = tuple(
                tuple(iter_bits(row)) for row in self._above_bits
            )
            self._succ_index = cached
        return cached

    def down_set(self, element: Element) -> FrozenSet[Element]:
        """The principal ideal: ``element`` and all elements below it."""
        position = self._require(element)
        return self._members(self._below_bits[position] | (1 << position))

    def up_set(self, element: Element) -> FrozenSet[Element]:
        """The principal filter: ``element`` and all elements above it."""
        position = self._require(element)
        return self._members(self._above_bits[position] | (1 << position))

    def minimal_elements(self) -> List[Element]:
        """Elements with nothing below them.

        The paper calls such messages *minimal messages* in the induction
        of Theorem 4.
        """
        below = self._below_bits
        return [
            e for i, e in enumerate(self._elements) if not below[i]
        ]

    def maximal_elements(self) -> List[Element]:
        """Elements with nothing above them."""
        above = self._above_bits
        return [
            e for i, e in enumerate(self._elements) if not above[i]
        ]

    def _cover_rows(self) -> List[int]:
        """Bitmask rows of the covering relation, cached.

        Row ``i`` keeps exactly the successors of ``elements[i]`` that
        are not reachable through another successor: subtract the union
        of the successors' own up-rows.  Processing the row low-bit
        first lets already-reached successors be skipped, so each row
        costs roughly one word-parallel OR per cover when the insertion
        order respects the order (as message posets do).
        """
        cached = self._cover_bits
        if cached is None:
            above = self._above_bits
            cached = []
            for row in above:
                reach = 0
                m = row
                while m:
                    low = m & -m
                    reach |= above[low.bit_length() - 1]
                    m = (m ^ low) & ~reach
                cached.append(row & ~reach)
            self._cover_bits = cached
        return cached

    def cover_pairs(self) -> List[Tuple[Element, Element]]:
        """The transitive reduction as ``(lower, upper)`` pairs, cached.

        ``y`` covers ``x`` when ``x < y`` and no ``z`` has ``x < z < y``.
        Posets are immutable, so the reduction is computed once and
        shared by drawing, checking, and the decomposition demos.
        """
        cached = self._cover_pair_cache
        if cached is None:
            elements = self._elements
            cached = [
                (elements[i], elements[j])
                for i, row in enumerate(self._cover_rows())
                for j in iter_bits(row)
            ]
            self._cover_pair_cache = cached
        return list(cached)

    def relation_pairs(self) -> List[Tuple[Element, Element]]:
        """Every ordered pair ``(x, y)`` with ``x < y``."""
        elements = self._elements
        return [
            (elements[i], elements[j])
            for i, row in enumerate(self._above_bits)
            for j in iter_bits(row)
        ]

    def incomparable_pairs(self) -> List[Tuple[Element, Element]]:
        """Every unordered incomparable pair, listed once (x before y)."""
        elements = self._elements
        above = self._above_bits
        below = self._below_bits
        full = (1 << len(elements)) - 1
        pairs: List[Tuple[Element, Element]] = []
        for i, x in enumerate(elements):
            mask = (full & ~(above[i] | below[i])) >> (i + 1) << (i + 1)
            for j in iter_bits(mask):
                pairs.append((x, elements[j]))
        return pairs

    def restricted_to(self, subset: Iterable[Element]) -> "Poset":
        """The induced sub-poset on ``subset``.

        The closure of an induced sub-order is the restriction of the
        closure, so the already-closed rows are compressed onto the kept
        positions directly — no re-validation, no re-closure.
        """
        keep = list(dict.fromkeys(subset))
        old_ids = [self._require(element) for element in keep]
        keep_mask = 0
        for oi in old_ids:
            keep_mask |= 1 << oi
        new_position = {oi: ni for ni, oi in enumerate(old_ids)}

        def compress(row: int) -> int:
            out = 0
            m = row & keep_mask
            while m:
                low = m & -m
                out |= 1 << new_position[low.bit_length() - 1]
                m ^= low
            return out

        above = self._above_bits
        below = self._below_bits
        return Poset._from_closed_bits(
            keep,
            [compress(above[oi]) for oi in old_ids],
            [compress(below[oi]) for oi in old_ids],
        )

    def dual(self) -> "Poset":
        """The order-reversed poset."""
        return Poset._from_closed_bits(
            list(self._elements),
            list(self._below_bits),
            list(self._above_bits),
        )

    # ------------------------------------------------------------------
    # Chains within the poset
    # ------------------------------------------------------------------
    def is_chain(self, elements: Sequence[Element]) -> bool:
        """True when the given elements are pairwise comparable.

        Runs in ``O(k log k)`` comparisons rather than ``O(k^2)``: along
        a chain the strict down-sets are nested, so sorting by down-set
        size and checking consecutive pairs suffices (two distinct
        elements with equal-sized down-sets cannot be comparable, and
        the consecutive ``less`` test rejects them).
        """
        items = list(dict.fromkeys(elements))
        ids = [self._require(element) for element in items]
        if len(ids) <= 1:
            return True
        above = self._above_bits
        below = self._below_bits
        ids.sort(key=lambda i: _popcount(below[i]))
        return all(
            (above[ids[k]] >> ids[k + 1]) & 1 for k in range(len(ids) - 1)
        )

    def is_antichain(self, elements: Sequence[Element]) -> bool:
        """True when the given elements are pairwise incomparable."""
        items = list(elements)
        if len(items) < 2:
            return True
        above = self._above_bits
        below = self._below_bits
        seen = 0
        for element in items:
            i = self._require(element)
            bit = 1 << i
            if seen & bit:  # duplicate element
                return False
            if (above[i] | below[i]) & seen:
                return False
            seen |= bit
        return True

    def longest_chain(self) -> List[Element]:
        """A longest chain, bottom to top (the poset's height witness)."""
        index = self._index
        below = self._below_bits
        best_to: List[List[Element]] = [[] for _ in self._elements]
        best: List[Element] = []
        for element in self.linear_extension():
            i = index[element]
            best_prefix: List[Element] = []
            m = below[i]
            while m:
                low = m & -m
                candidate = best_to[low.bit_length() - 1]
                if len(candidate) > len(best_prefix):
                    best_prefix = candidate
                m ^= low
            chain = best_prefix + [element]
            best_to[i] = chain
            if len(chain) > len(best):
                best = chain
        return best

    def height(self) -> int:
        """Size of the longest chain (number of elements in it)."""
        return len(self.longest_chain())

    def linear_extension(self) -> List[Element]:
        """A deterministic linear extension (topological order)."""
        order = _topological_order_positions(self._cover_rows())
        if order is None:  # pragma: no cover - construction is acyclic
            raise PosetError("closed relation unexpectedly cyclic")
        elements = self._elements
        return [elements[i] for i in order]

    # ------------------------------------------------------------------
    # Equality / presentation
    # ------------------------------------------------------------------
    def same_order_as(self, other: "Poset") -> bool:
        """True when both posets have equal element sets and equal orders."""
        if self is other:
            return True
        if self._index == other._index:
            return self._above_bits == other._above_bits
        if set(self._elements) != set(other._elements):
            return False
        return all(
            self.strictly_above(e) == other.strictly_above(e)
            for e in self._elements
        )

    def __repr__(self) -> str:
        ordered = sum(_popcount(row) for row in self._above_bits)
        return (
            f"Poset({len(self._elements)} elements, "
            f"{ordered} ordered pairs)"
        )


def diagonal_blocks(rows: Sequence[int]) -> List[Tuple[int, int]]:
    """Cut positions ``0..n-1`` wherever no relation spans the cut.

    Bit ``j`` of ``rows[i]`` relates positions ``i`` and ``j``; the
    relation *spans* every position ``p`` with
    ``min(i, j) < p <= max(i, j)``.  Returns the consecutive, covering
    ``(lo, hi)`` ranges between the cuts, so every relation lies inside
    one block and the rows are block diagonal.  Direct and closed rows
    of the same order give the same blocks: a closed pair spans only
    positions that some chain of direct pairs spans.

    ``▷`` relates only messages with a common process, so the message
    poset of clusters that share no process has at least one block per
    cluster; a poset with no cut is one block.
    """
    # reach[s]: the farthest end of any relation starting at s.
    reach = list(range(len(rows)))
    for i, row in enumerate(rows):
        if row:
            start = (row & -row).bit_length() - 1
            end = row.bit_length() - 1
            if start > i:
                start = i
            if end < i:
                end = i
            if end > reach[start]:
                reach[start] = end
    blocks: List[Tuple[int, int]] = []
    lo = 0
    frontier = 0
    for i, end in enumerate(reach):
        if end > frontier:
            frontier = end
        if frontier == i:
            blocks.append((lo, i + 1))
            lo = i + 1
    return blocks


def close_transitive_rows(
    direct: Sequence[int],
) -> Tuple[List[int], List[int]]:
    """Transitive closure of ``direct`` as ``(above, below)`` bitmask rows.

    Closes each :func:`diagonal_blocks` block on its own, in block-local
    index space: the block's rows are shifted down to start at bit 0,
    closed, and shifted back.  The closure of a block-diagonal relation
    is the union of the blocks' closures, so the rows equal a sweep
    over all rows at once, while every OR works on block-sized integers
    instead of poset-sized ones.
    """
    n = len(direct)
    above = [0] * n
    below = [0] * n
    for lo, hi in diagonal_blocks(direct):
        block_above, block_below = _close_block(block_rows(direct, lo, hi))
        if lo:
            block_above = [row << lo for row in block_above]
            block_below = [row << lo for row in block_below]
        above[lo:hi] = block_above
        below[lo:hi] = block_below
    return above, below


def block_rows(rows: Sequence[int], lo: int, hi: int) -> List[int]:
    """Rows ``lo..hi-1`` of one diagonal block, shifted to start at bit 0.

    The first block already starts there; shifting by 0 would copy
    every row, so its rows come back unshifted.
    """
    if lo:
        return [row >> lo for row in rows[lo:hi]]
    return list(rows[:hi])


def _close_block(direct: List[int]) -> Tuple[List[int], List[int]]:
    """Closure of one block's rows, indexed from 0.

    Processes positions in reverse topological order so each row is the
    word-parallel OR of its direct successors' rows; the below rows come
    from a forward sweep over the (cheap to transpose) direct relation.
    A cycle is detected by the topological sort running short and raises
    :class:`NotAPartialOrderError`.
    """
    order = _topological_order_positions(direct)
    if order is None:
        raise NotAPartialOrderError("relation contains a cycle")

    n = len(direct)
    above = [0] * n
    for i in reversed(order):
        row = direct[i]
        acc = row
        m = row
        while m:
            low = m & -m
            acc |= above[low.bit_length() - 1]
            m ^= low
        above[i] = acc

    direct_pred = [0] * n
    for i in range(n):
        bit = 1 << i
        m = direct[i]
        while m:
            low = m & -m
            direct_pred[low.bit_length() - 1] |= bit
            m ^= low

    below = [0] * n
    for i in order:
        row = direct_pred[i]
        acc = row
        m = row
        while m:
            low = m & -m
            acc |= below[low.bit_length() - 1]
            m ^= low
        below[i] = acc

    return above, below


def _topological_order_positions(
    succ_masks: Sequence[int],
) -> "List[int] | None":
    """Kahn's algorithm over bitmask adjacency; ``None`` on a cycle.

    Ties are broken by insertion position (the FIFO ready queue starts
    in position order and successors are appended lowest bit first),
    which makes every downstream algorithm deterministic.
    """
    n = len(succ_masks)
    indegree = [0] * n
    for mask in succ_masks:
        m = mask
        while m:
            low = m & -m
            indegree[low.bit_length() - 1] += 1
            m ^= low

    ready = [i for i in range(n) if indegree[i] == 0]
    order: List[int] = []
    position = 0
    while position < len(ready):
        current = ready[position]
        position += 1
        order.append(current)
        m = succ_masks[current]
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    if len(order) != n:
        return None
    return order
