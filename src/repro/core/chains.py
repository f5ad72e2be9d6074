"""Chains, antichains, width, and minimum chain partitions.

Theorem 8 of the paper bounds the *width* of the message poset of a
synchronous computation by ``floor(N/2)`` and then invokes Dilworth's
theorem (``dim(P) <= width(P)``) to obtain the offline algorithm.  The
constructive ingredient is a **minimum chain partition**, which this
module computes with the classical reduction to maximum bipartite
matching (Fulkerson):

    minimum number of chains covering P  =  |P| - maximum matching

in the bipartite graph with a left and a right copy of every element and
an edge ``x_left — y_right`` whenever ``x < y``.  The matching is found
with our own Hopcroft–Karp implementation — no external graph library is
involved — run on each diagonal block of the order in block-local index
space (:meth:`BipartiteMatcher.from_diagonal_blocks`), which finds the
same matching with block-sized bitmasks.

Any chain partition implies a matching (each element matched to the
next element of its chain), and Hopcroft–Karp may augment from it
instead of from the empty matching: by Berge's theorem it still stops
at a maximum matching, so the result is still a minimum partition.  A
message poset offers such chains for free, one per process of a vertex
cover (:meth:`repro.order.message_order.MessagePoset.process_chains`);
where they are already minimum, the first search finds no augmenting
path and the matcher stops.

The module also extracts a *maximum antichain* (the width witness) from a
minimum vertex cover via Kőnig's theorem, and offers a greedy
longest-chain-peeling partition used by the ablation benchmarks.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.poset import Poset, block_rows, diagonal_blocks
from repro.exceptions import PosetError

Element = Hashable

#: Sentinel index for an unmatched vertex.
_FREE = -1
#: BFS layer value meaning "not layered this phase".
_UNLAYERED = -1
#: Layer value assigned to vertices proven dead ends this phase; chosen so
#: ``_RETIRED + 1`` can never equal a live layer (layers are ``>= 0``) nor
#: :data:`_UNLAYERED`, so retired vertices are never re-entered.
_RETIRED = -3


class BipartiteMatcher:
    """Hopcroft–Karp maximum matching on an explicit bipartite graph.

    ``adjacency`` maps each left vertex to the iterable of right vertices
    it may be matched with.  Left and right vertex sets may overlap as
    Python values; they are treated as disjoint sides.  Vertices within
    each side must be distinct values.

    The augmenting-path search is an explicit-stack iterative DFS, so
    arbitrarily long alternating paths (near-chain posets produce paths
    as long as the vertex count) never touch the interpreter's recursion
    limit.  Internally vertices are insertion indices; values are only
    hashed once at construction and translated back at the API boundary.

    Adjacency comes in two interchangeable representations: explicit
    per-left index lists, or one integer bitmask per left vertex
    (:meth:`from_bitmask_rows`, fed straight from
    ``Poset.above_bit_rows``).  The bitmask mode replaces per-edge
    neighbour scans with word-parallel mask intersections while making
    exactly the same augmenting choices — both modes visit candidate
    right vertices in ascending index order — so the matching, and
    everything derived from it, is identical either way.  Either mode
    may start from the matching a chain family implies
    (:meth:`seed_chains`) instead of from the empty one.
    """

    def __init__(
        self,
        left: Sequence[Element],
        right: Sequence[Element],
        adjacency: Dict[Element, Sequence[Element]],
    ):
        left_values = list(left)
        right_values = list(right)
        right_index = {v: j for j, v in enumerate(right_values)}
        adj = [
            [right_index[v] for v in adjacency.get(u, ())]
            for u in left_values
        ]
        self._init_from_indices(left_values, right_values, adj)

    @classmethod
    def from_adjacency_lists(
        cls,
        left: Sequence[Element],
        right: Sequence[Element],
        adjacency: Sequence[Sequence[int]],
    ) -> "BipartiteMatcher":
        """Build from pre-resolved right-vertex *indices* per left vertex.

        Skips the per-edge hashing of the value-based constructor; the
        comparability matcher feeds the poset's cached successor index
        straight in.
        """
        matcher = cls.__new__(cls)
        matcher._init_from_indices(
            list(left), list(right), [list(row) for row in adjacency]
        )
        return matcher

    @classmethod
    def from_bitmask_rows(
        cls,
        left: Sequence[Element],
        right: Sequence[Element],
        rows: Sequence[int],
    ) -> "BipartiteMatcher":
        """Build from one right-vertex bitmask per left vertex.

        Bit ``j`` of ``rows[i]`` marks an edge ``left[i] — right[j]``.
        The comparability matcher feeds the poset's closed bitmask rows
        straight in, so no per-edge adjacency is ever materialized.
        """
        matcher = cls.__new__(cls)
        matcher._left = list(left)
        matcher._right = list(right)
        matcher._adj = None
        matcher._adj_masks = list(rows)
        matcher._free_right_mask = (1 << len(matcher._right)) - 1
        matcher._match_left = [_FREE] * len(matcher._left)
        matcher._match_right = [_FREE] * len(matcher._right)
        matcher._matching_size = 0
        matcher._solved = False
        return matcher

    @classmethod
    def from_diagonal_blocks(
        cls,
        values: Sequence[Element],
        rows: Sequence[int],
        chains: Iterable[Sequence[int]] = (),
    ) -> "BipartiteMatcher":
        """A solved square matcher over ``rows``, one block at a time.

        ``values`` label both sides and bit ``j`` of ``rows[i]`` marks
        an edge ``values[i] — values[j]``.  Hopcroft–Karp runs on each
        :func:`~repro.core.poset.diagonal_blocks` block in block-local
        index space, and the block matchings are merged by offset.  No
        edge leaves its block, so no BFS layer or augmenting path does
        either, and each block's phases make the same choices as that
        block's share of one run over all rows: the merged matching is
        the one :meth:`from_bitmask_rows` finds, while every mask
        operation works on block-sized integers.

        ``chains`` seeds the matching as :meth:`seed_chains` does.
        Neighbours in a chain share an edge, hence a block, so each
        block starts from its own share of the seed, shifted to
        block-local indices.
        """
        matcher = cls.from_bitmask_rows(values, values, rows)
        match_left = matcher._match_left
        match_right = matcher._match_right
        successor = _chain_successors(len(rows), chains)
        for lo, hi in diagonal_blocks(rows):
            span = range(hi - lo)
            block = cls.from_bitmask_rows(
                span, span, block_rows(rows, lo, hi)
            )
            block._seed(successor[lo:hi], lo)
            block._ensure_solved()
            for i, j in enumerate(block._match_left):
                if j != _FREE:
                    match_left[lo + i] = lo + j
                    match_right[lo + j] = lo + i
            matcher._matching_size += block._matching_size
        matcher._solved = True
        return matcher

    def _init_from_indices(
        self,
        left_values: List[Element],
        right_values: List[Element],
        adj: List[List[int]],
    ) -> None:
        self._left = left_values
        self._right = right_values
        self._adj = adj
        self._adj_masks: "List[int] | None" = None
        self._free_right_mask = 0
        self._match_left: List[int] = [_FREE] * len(left_values)
        self._match_right: List[int] = [_FREE] * len(right_values)
        self._matching_size = 0
        self._solved = False

    def seed_chains(self, chains: Iterable[Sequence[int]]) -> None:
        """Start from the matching that ``chains`` imply.

        For a square matcher whose sides are the same elements: each
        chain lists indices, and each index is matched to the next index
        of its chain.  Those pairs must be edges between vertices still
        free, or :class:`ValueError` is raised.  Hopcroft–Karp then
        augments from this matching instead of from the empty one, and
        by Berge's theorem still ends at a maximum matching.
        """
        self._seed(_chain_successors(len(self._left), chains))

    def _seed(self, successor: Sequence[int], offset: int = 0) -> None:
        """Match left ``i`` to right ``successor[i] - offset`` wherever
        ``successor[i]`` is not :data:`_FREE`."""
        masks = self._adj_masks
        match_left = self._match_left
        match_right = self._match_right
        for i, j in enumerate(successor):
            if j == _FREE:
                continue
            j -= offset
            edge = (
                j in self._adj[i] if masks is None else (masks[i] >> j) & 1
            )
            if not edge or match_left[i] != _FREE or match_right[j] != _FREE:
                raise ValueError(
                    f"seed pair ({i}, {j}) is not an edge between free "
                    "vertices"
                )
            match_left[i] = j
            match_right[j] = i
            self._free_right_mask &= ~(1 << j)
            self._matching_size += 1

    # ------------------------------------------------------------------
    def solve(self) -> Dict[Element, Element]:
        """Run the algorithm; returns the left-to-right matching map."""
        self._ensure_solved()
        return {
            self._left[u]: self._right[v]
            for u, v in enumerate(self._match_left)
            if v != _FREE
        }

    def _ensure_solved(self) -> None:
        if not self._solved:
            self._run_phases()
            self._solved = True

    def _run_phases(self) -> None:
        masked = self._adj_masks is not None
        while True:
            if masked:
                layers = self._bfs_layers_masks()
            else:
                layers = self._bfs_layers()
            if layers is None:
                break
            if masked:
                eligible = self._rights_by_partner_layer(layers)
            augmented = 0
            for u in range(len(self._left)):
                if self._match_left[u] == _FREE:
                    if masked:
                        hit = self._dfs_augment_masks(u, layers, eligible)
                    else:
                        hit = self._dfs_augment(u, layers)
                    if hit:
                        augmented += 1
            if augmented == 0:
                break

    def matching_size(self) -> int:
        self._ensure_solved()
        return self._matching_size

    # ------------------------------------------------------------------
    def _bfs_layers(self) -> Optional[List[int]]:
        """Layer left vertices by shortest alternating path from a free one.

        Returns ``None`` when no augmenting path exists.
        """
        match_left = self._match_left
        match_right = self._match_right
        layers = [_UNLAYERED] * len(self._left)
        queue: deque = deque()
        for u in range(len(self._left)):
            if match_left[u] == _FREE:
                layers[u] = 0
                queue.append(u)
        found_free_right = False
        while queue:
            u = queue.popleft()
            next_layer = layers[u] + 1
            for v in self._adj[u]:
                w = match_right[v]
                if w == _FREE:
                    found_free_right = True
                elif layers[w] == _UNLAYERED:
                    layers[w] = next_layer
                    queue.append(w)
        return layers if found_free_right else None

    def _dfs_augment(self, root: int, layers: List[int]) -> bool:
        """Search for one augmenting path from free left vertex ``root``.

        Explicit-stack DFS: each frame is ``[u, edge_iterator, chosen_v]``.
        On reaching a free right vertex the whole stack is flipped into
        the matching; dead ends are retired from this phase's layering so
        sibling searches skip them (the layered-graph pruning Hopcroft–
        Karp relies on for its complexity bound).
        """
        adj = self._adj
        match_left = self._match_left
        match_right = self._match_right
        stack: List[List] = [[root, iter(adj[root]), _FREE]]
        while stack:
            frame = stack[-1]
            u = frame[0]
            next_layer = layers[u] + 1
            descended = False
            for v in frame[1]:
                w = match_right[v]
                if w == _FREE:
                    # Free right vertex: flip every edge on the stack.
                    frame[2] = v
                    for fu, _edges, fv in stack:
                        match_left[fu] = fv
                        match_right[fv] = fu
                    self._matching_size += 1
                    return True
                if layers[w] == next_layer:
                    frame[2] = v
                    stack.append([w, iter(adj[w]), _FREE])
                    descended = True
                    break
            if not descended:
                layers[u] = _RETIRED
                stack.pop()
        return False

    # ------------------------------------------------------------------
    # Bitmask-mode phases.  Same traversal order as the list mode — the
    # lowest set bit of a mask intersection is exactly "the first
    # eligible right vertex in ascending order" — so both modes compute
    # the same matching; only the per-step cost differs (word-parallel
    # AND/OR instead of per-edge scans).
    # ------------------------------------------------------------------
    def _bfs_layers_masks(self) -> Optional[List[int]]:
        match_left = self._match_left
        match_right = self._match_right
        masks = self._adj_masks
        layers = [_UNLAYERED] * len(self._left)
        queue: deque = deque()
        for u in range(len(self._left)):
            if match_left[u] == _FREE:
                layers[u] = 0
                queue.append(u)
        found_free_right = False
        free_right = self._free_right_mask
        # Rights whose matched left has not been layered yet: initially
        # every matched right (free lefts sit at layer 0 already).
        unlayered_partner = ((1 << len(self._right)) - 1) & ~free_right
        while queue:
            u = queue.popleft()
            row = masks[u]
            if row & free_right:
                found_free_right = True
            m = row & unlayered_partner
            if m:
                unlayered_partner &= ~m
                next_layer = layers[u] + 1
                while m:
                    low = m & -m
                    w = match_right[low.bit_length() - 1]
                    layers[w] = next_layer
                    queue.append(w)
                    m ^= low
        return layers if found_free_right else None

    def _rights_by_partner_layer(self, layers: List[int]) -> Dict[int, int]:
        """Mask of right vertices keyed by their matched left's layer."""
        eligible: Dict[int, int] = {}
        match_left = self._match_left
        for u, v in enumerate(match_left):
            if v != _FREE:
                layer = layers[u]
                eligible[layer] = eligible.get(layer, 0) | (1 << v)
        return eligible

    def _dfs_augment_masks(
        self, root: int, layers: List[int], eligible: Dict[int, int]
    ) -> bool:
        """Mask-mode augmenting search from free left vertex ``root``.

        A frame's candidate rights are ``adj[u] & (free ∪ rights whose
        partner sits on the next layer)``; within one root's search that
        mask only shrinks (dead ends retire their right), so taking the
        lowest set bit at each resume reproduces the list-mode scan.
        Augmenting flips re-home each flipped right into its new
        partner's layer mask so later roots in the phase see the
        updated matching.
        """
        masks = self._adj_masks
        match_left = self._match_left
        match_right = self._match_right
        free_right = self._free_right_mask
        stack: List[List[int]] = [[root, _FREE]]
        while stack:
            u = stack[-1][0]
            next_layer = layers[u] + 1
            cand = masks[u] & (free_right | eligible.get(next_layer, 0))
            if cand:
                low = cand & -cand
                v = low.bit_length() - 1
                stack[-1][1] = v
                if low & free_right:
                    # Free right vertex: flip every edge on the stack.
                    for position, (fu, fv) in enumerate(stack):
                        bit = 1 << fv
                        if position + 1 < len(stack):
                            old_partner = stack[position + 1][0]
                            eligible[layers[old_partner]] &= ~bit
                        else:
                            self._free_right_mask &= ~bit
                        fu_layer = layers[fu]
                        eligible[fu_layer] = (
                            eligible.get(fu_layer, 0) | bit
                        )
                        match_left[fu] = fv
                        match_right[fv] = fu
                    self._matching_size += 1
                    return True
                stack.append([match_right[v], _FREE])
            else:
                old_layer = layers[u]
                layers[u] = _RETIRED
                matched_v = match_left[u]
                if matched_v != _FREE:
                    eligible[old_layer] &= ~(1 << matched_v)
                stack.pop()
        return False

    # ------------------------------------------------------------------
    def minimum_vertex_cover(self) -> Tuple[Set[Element], Set[Element]]:
        """Kőnig's construction: ``(left_cover, right_cover)``.

        Left vertices *not* reachable by an alternating path from a free
        left vertex, plus right vertices that *are* reachable, form a
        minimum vertex cover of the bipartite graph.
        """
        self._ensure_solved()
        match_left = self._match_left
        match_right = self._match_right
        masks = self._adj_masks
        visited_left = [False] * len(self._left)
        visited_right = [False] * len(self._right)
        queue: deque = deque()
        for u in range(len(self._left)):
            if match_left[u] == _FREE:
                visited_left[u] = True
                queue.append(u)
        if masks is not None:
            visited_right_mask = 0
            while queue:
                u = queue.popleft()
                newly = masks[u] & ~visited_right_mask
                visited_right_mask |= newly
                while newly:
                    low = newly & -newly
                    v = low.bit_length() - 1
                    newly ^= low
                    visited_right[v] = True
                    w = match_right[v]
                    if w != _FREE and not visited_left[w]:
                        visited_left[w] = True
                        queue.append(w)
        else:
            while queue:
                u = queue.popleft()
                for v in self._adj[u]:
                    if visited_right[v]:
                        continue
                    visited_right[v] = True
                    w = match_right[v]
                    if w != _FREE and not visited_left[w]:
                        visited_left[w] = True
                        queue.append(w)
        left_cover = {
            self._left[u]
            for u in range(len(self._left))
            if not visited_left[u]
        }
        right_cover = {
            self._right[v]
            for v in range(len(self._right))
            if visited_right[v]
        }
        return left_cover, right_cover


def _chain_successors(
    n: int, chains: Iterable[Sequence[int]]
) -> List[int]:
    """``successor[i]``: the index after ``i`` in its chain, else
    :data:`_FREE`."""
    successor = [_FREE] * n
    for chain in chains:
        for lower, upper in zip(chain, chain[1:]):
            successor[lower] = upper
    return successor


# ----------------------------------------------------------------------
# Dilworth machinery on posets
# ----------------------------------------------------------------------
#: Solved comparability matchers, keyed weakly by poset so repeated
#: ``width`` / ``minimum_chain_partition`` / ``maximum_antichain`` calls
#: on the same poset reuse one matching instead of re-running the
#: Hopcroft–Karp phases.  Weak keys keep the cache from pinning posets.
_MATCHER_CACHE: "weakref.WeakKeyDictionary[Poset, BipartiteMatcher]" = (
    weakref.WeakKeyDictionary()
)


def _comparability_matcher(poset: Poset) -> BipartiteMatcher:
    matcher = _MATCHER_CACHE.get(poset)
    if matcher is None:
        elements = poset.elements
        # A poset that knows chains covering it for free (a message
        # poset's process chains) seeds the matching with them; any
        # other poset starts from the empty matching.
        process_chains = getattr(poset, "process_chains", None)
        chains = process_chains() if process_chains is not None else ()
        # The poset's closed bitmask rows are exactly the bipartite
        # adjacency (x_left -> y_right iff x < y); posets without the
        # bitset kernel (the reference implementation) fall back to the
        # cached successor index, which yields the same matching.
        rows = getattr(poset, "above_bit_rows", None)
        if rows is not None:
            matcher = BipartiteMatcher.from_diagonal_blocks(
                elements, rows(), chains
            )
        else:
            matcher = BipartiteMatcher.from_adjacency_lists(
                elements, elements, poset.successor_index()
            )
            matcher.seed_chains(chains)
        _MATCHER_CACHE[poset] = matcher
    return matcher


def minimum_chain_partition(poset: Poset) -> List[List[Element]]:
    """Partition the poset into the fewest chains (Dilworth/Fulkerson).

    Each returned chain is sorted bottom-to-top.  The number of chains
    equals :func:`width`.
    """
    matcher = _comparability_matcher(poset)
    matcher._ensure_solved()
    # Successor pointers along matched edges form the chains; a chain
    # starts at every element no matched edge enters.
    successor = matcher._match_left
    has_predecessor = matcher._match_right
    elements = poset.elements
    chains: List[List[Element]] = []
    for i, element in enumerate(elements):
        if has_predecessor[i] != _FREE:
            continue
        chain = [element]
        j = successor[i]
        while j != _FREE:
            chain.append(elements[j])
            j = successor[j]
        chains.append(chain)
    return chains


def width(poset: Poset) -> int:
    """The size of the largest antichain (equivalently, of the minimum
    chain partition, by Dilworth's theorem).

    >>> width(Poset.antichain("abc"))
    3
    >>> width(Poset.chain("abc"))
    1
    """
    if len(poset) == 0:
        return 0
    matcher = _comparability_matcher(poset)
    return len(poset) - matcher.matching_size()


def maximum_antichain(poset: Poset) -> List[Element]:
    """A concrete antichain of size :func:`width` (Kőnig extraction)."""
    if len(poset) == 0:
        return []
    matcher = _comparability_matcher(poset)
    left_cover, right_cover = matcher.minimum_vertex_cover()
    antichain = [
        e
        for e in poset.elements
        if e not in left_cover and e not in right_cover
    ]
    if not poset.is_antichain(antichain):
        raise PosetError(
            "Kőnig extraction produced a non-antichain of size "
            f"{len(antichain)}; the matching or cover is inconsistent"
        )
    return antichain


def greedy_chain_partition(poset: Poset) -> List[List[Element]]:
    """Partition into chains by repeatedly peeling a longest chain.

    Not guaranteed minimum; used by ablation benchmarks to quantify how
    much the matching-based partition buys the offline algorithm.
    """
    remaining = poset
    chains: List[List[Element]] = []
    while len(remaining) > 0:
        chain = remaining.longest_chain()
        chains.append(chain)
        chain_set = set(chain)
        rest = [e for e in remaining.elements if e not in chain_set]
        remaining = remaining.restricted_to(rest)
    return chains


def antichain_partition(poset: Poset) -> List[List[Element]]:
    """Mirsky's dual: partition into antichains by element height."""
    levels: Dict[Element, int] = {}
    for element in poset.linear_extension():
        below = poset.strictly_below(element)
        levels[element] = (
            1 + max((levels[b] for b in below), default=0) if below else 1
        )
    buckets: Dict[int, List[Element]] = {}
    for element in poset.elements:
        buckets.setdefault(levels[element], []).append(element)
    return [buckets[level] for level in sorted(buckets)]


def is_chain_partition(
    poset: Poset, chains: Iterable[Sequence[Element]]
) -> bool:
    """Validate that ``chains`` partitions the poset into chains."""
    seen: Set[Element] = set()
    for chain in chains:
        items = list(chain)
        for i in range(len(items) - 1):
            if not poset.less(items[i], items[i + 1]):
                return False
        for item in items:
            if item in seen:
                return False
            seen.add(item)
    return seen == set(poset.elements)
