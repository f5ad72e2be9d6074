"""Linear extensions and chain realizers.

The offline algorithm (Figure 9 of the paper) timestamps messages with
their ranks in a family of linear extensions whose intersection is the
message order — a *realizer*.  The paper obtains a realizer of size
``width(P)`` from Dilworth's theorem; this module provides the
constructive version:

**Chain-forcing lemma.**  For a chain ``C`` of poset ``P``, the relation
``P ∪ {(x, c) : c ∈ C, x ‖ c}`` is acyclic.  *Proof sketch:* any cycle
would alternate order-paths of ``P`` with forced edges into ``C``, and
the index along ``C`` strictly increases at every forced edge (if
``c_i ≤ x`` and the next forced edge is ``x → c_j`` then ``x ‖ c_j``
forbids ``c_j ≤ x``, hence ``j > i``), so the cycle cannot close.  A
topological sort of the augmented relation is therefore a linear
extension of ``P`` in which every element of ``C`` sits **above**
everything incomparable to it.

Given a chain partition ``C_1 .. C_w``, the family of such forced
extensions is a realizer: an incomparable pair ``{x, y}`` with
``x ∈ C_i`` and ``y ∈ C_j`` is reversed between ``L_i`` (where ``x`` is
above ``y``) and ``L_j`` (where ``y`` is above ``x``).

**Sum rule.**  When ``P`` is a disjoint sum ``P_1 + .. + P_m`` of its
connected components, every chain lies in one component, and
``max(2, max_i k_i)`` extensions suffice, where ``k_i`` is the number
of chains in ``P_i`` (Trotter 1992: ``dim(P_1 + .. + P_m) =
max(2, max_i dim P_i)``).  Each component gets its own forced
extensions; extension 0 lists the component blocks in order,
extension 1 in reverse order and every later extension in order, and a
component with fewer chains repeats its last extension.  A pair inside
one component is reversed by that component's own extensions, and a
pair across two components by extensions 0 and 1.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Sequence, Set, Tuple

from repro.core.chains import minimum_chain_partition
from repro.core.poset import Poset, _popcount, iter_bits
from repro.exceptions import NotALinearExtensionError, PosetError

Element = Hashable


def is_linear_extension(poset: Poset, sequence: Sequence[Element]) -> bool:
    """True when ``sequence`` lists every element once, respecting the order."""
    items = list(sequence)
    if len(items) != len(poset) or set(items) != set(poset.elements):
        return False
    position = {element: i for i, element in enumerate(items)}
    return all(
        position[x] < position[y] for (x, y) in poset.relation_pairs()
    )


def check_linear_extension(poset: Poset, sequence: Sequence[Element]) -> None:
    """Raise :class:`NotALinearExtensionError` when the check fails."""
    if not is_linear_extension(poset, sequence):
        raise NotALinearExtensionError(
            f"sequence of length {len(list(sequence))} is not a linear "
            f"extension of {poset!r}"
        )


def all_linear_extensions(poset: Poset) -> Iterator[List[Element]]:
    """Yield every linear extension (exponential; small posets only).

    Used by the brute-force dimension computation in
    :mod:`repro.core.dimension` and by tests as an oracle.
    """
    elements = list(poset.elements)
    below: Dict[Element, Set[Element]] = {
        e: set(poset.strictly_below(e)) for e in elements
    }

    def _extend(prefix: List[Element], remaining: Set[Element]):
        if not remaining:
            yield list(prefix)
            return
        placed = set(prefix)
        for element in elements:
            if element in remaining and below[element] <= placed:
                prefix.append(element)
                remaining.remove(element)
                yield from _extend(prefix, remaining)
                remaining.add(element)
                prefix.pop()

    yield from _extend([], set(elements))


def count_linear_extensions(poset: Poset, limit: int = 10_000_000) -> int:
    """Count linear extensions (stops early at ``limit``)."""
    count = 0
    for _ in all_linear_extensions(poset):
        count += 1
        if count >= limit:
            return count
    return count


class _ForcedSweep:
    """The chain-independent state of the deferred-chain Kahn sweep.

    Built once per poset and shared by every chain of a realizer: the
    element index, the stall thresholds ``n - 1 - |above(i)|``, the base
    in-degrees and plain-int successor lists.  Each chain then pays only
    for a copy of the in-degree list and one FIFO sweep (:meth:`order`).

    A bitset :class:`~repro.core.poset.Poset` supplies its successors
    from the cached cover rows, any other poset from its
    ``successor_index()`` (the closure).  The two give the same FIFO
    order: an element becomes ready when its last-placed predecessor is
    placed, that predecessor is always one of its covers, and the
    elements made ready by one placement are appended in ascending
    insertion index either way.  The cover rows just have fewer edges.
    """

    __slots__ = ("poset", "index", "threshold", "indegree", "successors")

    def __init__(self, poset: Poset):
        elements = poset.elements
        n = len(elements)
        rows_accessor = getattr(poset, "above_bit_rows", None)
        if rows_accessor is not None:
            threshold = [n - 1 - _popcount(row) for row in rows_accessor()]
            successors: Sequence[Sequence[int]] = [
                list(iter_bits(row)) for row in poset.cover_bit_rows()
            ]
        else:
            successors = poset.successor_index()
            threshold = [n - 1 - len(row) for row in successors]
        indegree = [0] * n
        for row in successors:
            for j in row:
                indegree[j] += 1
        self.poset = poset
        self.index = {e: i for i, e in enumerate(elements)}
        self.threshold = threshold
        self.indegree = indegree
        self.successors = successors

    def chain_ids(self, chain: Sequence[Element]) -> List[int]:
        """Insertion indices of ``chain``, which must be a chain of the
        poset (in any order)."""
        items = list(chain)
        index = self.index
        ids = []
        for element in items:
            i = index.get(element, -1)
            if i < 0:
                raise PosetError(f"chain element {element!r} not in poset")
            ids.append(i)
        if not self.poset.is_chain(items):
            raise PosetError("a chain-forced extension requires a chain")
        return ids

    def components(self) -> Tuple[List[int], List[List[int]]]:
        """Each element's component label, and each connected
        component's elements in ascending insertion index.

        Union-find over the successor rows.  A union keeps the smaller
        root, so every root is its component's smallest index, and the
        components are numbered by their smallest index.
        """
        parent = list(range(len(self.successors)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, row in enumerate(self.successors):
            for j in row:
                a, b = find(i), find(j)
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
        label = [0] * len(parent)
        members: List[List[int]] = []
        for i in range(len(parent)):
            root = find(i)
            if root == i:
                label[i] = len(members)
                members.append([i])
            else:
                label[i] = label[root]
                members[label[i]].append(i)
        return label, members

    def sources(self, members: Sequence[int]) -> List[int]:
        """The minimal elements among ``members``, in the same order."""
        indegree = self.indegree
        return [i for i in members if indegree[i] == 0]

    def order(
        self, chain_ids: Sequence[int], sources: Sequence[int], outside: int
    ) -> List[int]:
        """The chain-forced extension for one chain, as insertion indices.

        The sweep covers the connected component (or union of
        components) whose minimal elements are ``sources``, given in
        ascending insertion index; ``outside`` counts the poset's
        elements beyond it.  Its order is the whole-poset forced
        extension restricted to the component: nothing outside ever
        makes an element inside ready, so the component's elements keep
        their FIFO order, and a chain element, forced above everything
        incomparable to it, is still released when the component's
        queue runs dry.

        Deferred-chain Kahn's algorithm.  Materializing the forced edges
        ``x -> c`` (x incomparable to chain element c) is O(n * |C|);
        instead observe that in the augmented graph a chain element c
        has indegree ``|below(c)| + |incomp(c)| = n - 1 - |above(c)|``,
        so c becomes ready exactly when ``len(order) == n - 1 -
        |above(c)|`` — and at that moment nothing else can be ready
        (anything unplaced is above c and hence still blocked by c).
        Inside a component, whose elements number ``n - outside``, the
        threshold drops by ``outside``, since ``above(c)`` lies inside.
        Since the chain is totally ordered, at most one chain element is
        ever waiting on that condition, so a single ``stalled`` slot
        suffices and the emitted order is identical to a FIFO
        topological sort of the full augmented relation.

        Conversely, while c waits with an incomparable element still
        unplaced, a minimal such element has all its predecessors placed
        and sits in the FIFO queue; so the queue runs dry exactly when
        c's threshold is reached.  The sweep therefore keeps the queue
        inside ``order`` (``head`` counts the placed elements), parks
        each chain element once its covers are placed, and releases it
        when the queue runs dry, checking the threshold there.
        """
        threshold = self.threshold
        successors = self.successors
        indegree = self.indegree.copy()
        in_chain = bytearray(len(indegree))
        for i in chain_ids:
            in_chain[i] = 1

        order: List[int] = []
        stalled = -1
        for i in sources:
            if in_chain[i]:
                stalled = i
            else:
                order.append(i)
        head = 0
        while True:
            if head == len(order):
                if stalled == -1:
                    return order
                if threshold[stalled] - outside != head:  # pragma: no cover
                    # Excluded by the chain-forcing lemma.
                    raise PosetError(
                        "chain-forced relation unexpectedly cyclic"
                    )
                order.append(stalled)
                stalled = -1
            current = order[head]
            head += 1
            for j in successors[current]:
                degree = indegree[j] - 1
                indegree[j] = degree
                if degree == 0:
                    if in_chain[j]:
                        stalled = j
                    else:
                        order.append(j)


def chain_forced_extension(
    poset: Poset, chain: Sequence[Element]
) -> List[Element]:
    """A linear extension placing every element of ``chain`` above all
    elements incomparable to it (the chain-forcing lemma above).

    ``chain`` must be a chain of ``poset``; it may be given in any order.
    """
    sweep = _ForcedSweep(poset)
    elements = poset.elements
    order = sweep.order(
        sweep.chain_ids(chain), sweep.sources(range(len(elements))), 0
    )
    return [elements[i] for i in order]


def _grouped_family(
    poset: Poset, chains: Sequence[Sequence[Element]]
) -> Tuple[_ForcedSweep, List[List[int]], List[List[List[int]]]]:
    """The sweep, the connected components, and the chains' insertion
    indices grouped by component (a chain is comparable throughout, so
    it lies in one component; an empty chain joins component 0).

    Raises :class:`PosetError` unless every element lies on a chain.
    """
    if not chains:
        raise PosetError("empty chain family for a non-empty poset")
    sweep = _ForcedSweep(poset)
    family = [sweep.chain_ids(chain) for chain in chains]
    covered = bytearray(len(poset))
    for ids in family:
        for i in ids:
            covered[i] = 1
    missing = covered.find(0)
    if missing != -1:
        raise PosetError(
            f"element {poset.elements[missing]!r} lies on no chain of "
            "the family"
        )
    label, members = sweep.components()
    groups: List[List[List[int]]] = [[] for _ in members]
    for ids in family:
        groups[label[ids[0]] if ids else 0].append(ids)
    return sweep, members, groups


def _sum_rule_size(sizes: Sequence[int]) -> int:
    """Extensions in the sum of component realizers of ``sizes``."""
    return sizes[0] if len(sizes) == 1 else max(2, *sizes)


def realizer_size(
    poset: Poset, chains: Sequence[Sequence[Element]]
) -> int:
    """``len(realizer_orders(poset, chains))``, without the sweeps: the
    chain count when ``poset`` is connected, else ``max(2, max_i k_i)``
    over its components' chain counts ``k_i``."""
    if len(poset) == 0:
        return 1
    _, _, groups = _grouped_family(poset, chains)
    return _sum_rule_size([len(group) for group in groups])


def realizer_orders(
    poset: Poset, chains: Sequence[Sequence[Element]]
) -> List[List[int]]:
    """The sum-rule realizer of a chain family, as insertion-index
    orders: entry ``k`` of order ``i`` is the position in
    ``poset.elements`` of the ``k``-th element of extension ``i``.

    Each component's chains get forced extensions over that component
    alone, and the components are joined by the sum rule (module
    docstring), giving :func:`realizer_size` extensions.  A connected
    poset gets one forced extension per chain, in the family's order.

    Every element must lie on some chain, or an incomparable pair might
    never be reversed; the chains may overlap.  The sweep's
    chain-independent state is built once and shared by all chains.
    """
    if len(poset) == 0:
        return [[]]
    sweep, members, groups = _grouped_family(poset, chains)
    n = len(poset)
    blocks = []
    for component, group in zip(members, groups):
        sources = sweep.sources(component)
        outside = n - len(component)
        blocks.append(
            [sweep.order(ids, sources, outside) for ids in group]
        )
    orders = []
    for k in range(_sum_rule_size([len(block) for block in blocks])):
        order: List[int] = []
        for block in reversed(blocks) if k == 1 else blocks:
            order.extend(block[min(k, len(block) - 1)])
        orders.append(order)
    return orders


def realizer_from_chain_partition(
    poset: Poset, chains: Sequence[Sequence[Element]]
) -> List[List[Element]]:
    """The sum-rule realizer of :func:`realizer_orders`, as element
    lists: one forced extension per chain when ``poset`` is connected,
    ``max(2, max_i k_i)`` joined extensions over components with
    ``k_i`` chains each otherwise.

    When the partition has a single chain the poset is totally ordered
    and the single extension *is* the order, so the family is still a
    realizer.
    """
    elements = poset.elements
    return [
        [elements[i] for i in order]
        for order in realizer_orders(poset, chains)
    ]


def minimum_width_realizer(poset: Poset) -> List[List[Element]]:
    """Realizer over a minimum chain partition: at most ``width(P)``
    extensions; exactly ``width(P)`` when ``P`` is connected.

    This is the constructive engine behind the offline algorithm.  On a
    connected poset it matches the ``dim(P) <= width(P)`` bound the
    paper invokes from Dilworth's theorem; on a disjoint sum the sum
    rule needs only ``max(2, max_i width(P_i))`` extensions.
    """
    if len(poset) == 0:
        return [[]]
    chains = minimum_chain_partition(poset)
    return realizer_from_chain_partition(poset, chains)


def intersection_of_extensions(
    elements: Sequence[Element], extensions: Sequence[Sequence[Element]]
) -> Poset:
    """The poset whose order is the intersection of the given total orders."""
    if not extensions:
        raise PosetError("need at least one linear extension")
    positions = []
    for extension in extensions:
        if set(extension) != set(elements) or len(extension) != len(
            list(elements)
        ):
            raise NotALinearExtensionError(
                "extension does not list exactly the given elements"
            )
        positions.append({e: i for i, e in enumerate(extension)})

    pairs: List[Tuple[Element, Element]] = []
    items = list(elements)
    for x in items:
        for y in items:
            if x is y or x == y:
                continue
            if all(pos[x] < pos[y] for pos in positions):
                pairs.append((x, y))
    return Poset(items, pairs)


def is_realizer(
    poset: Poset, extensions: Sequence[Sequence[Element]]
) -> bool:
    """True when the extensions are all linear extensions of ``poset``
    and their intersection equals the order of ``poset``."""
    for extension in extensions:
        if not is_linear_extension(poset, extension):
            return False
    rebuilt = intersection_of_extensions(list(poset.elements), extensions)
    return rebuilt.same_order_as(poset)


def ranks_in_extension(extension: Sequence[Element]) -> Dict[Element, int]:
    """Map each element to the number of elements before it (its rank).

    Step (3) of the offline algorithm: "``V_m[i]`` is the number of
    elements less than ``m`` in ``L_i``".
    """
    return {element: i for i, element in enumerate(extension)}
