"""Order-theoretic core: vectors, posets, chains, realizers, dimension.

These are the mathematical foundations the paper builds on (Sections 2
and 4.1): the vector order of Equation (2), the message poset
``(M, ↦)``, Dilworth width, and chain realizers for the offline
algorithm.
"""

from repro.core.chains import (
    BipartiteMatcher,
    antichain_partition,
    greedy_chain_partition,
    is_chain_partition,
    maximum_antichain,
    minimum_chain_partition,
    width,
)
from repro.core.dimension import (
    crown_poset,
    critical_pairs,
    dimension,
    dimension_at_most,
    dimension_lower_bound,
    dimension_upper_bound,
    standard_example,
)
from repro.core.fastpath import stamp_batch
from repro.core.ideals import (
    all_ideals,
    down_closure,
    ideal_count,
    ideal_join,
    ideal_meet,
    is_down_set,
    maximal_elements_of_ideal,
)
from repro.core.linear_extensions import (
    all_linear_extensions,
    chain_forced_extension,
    check_linear_extension,
    count_linear_extensions,
    intersection_of_extensions,
    is_linear_extension,
    is_realizer,
    minimum_width_realizer,
    ranks_in_extension,
    realizer_from_chain_partition,
)
from repro.core.poset import Poset
from repro.core.vector import (
    INFINITY,
    VectorTimestamp,
    dominates,
    join_all,
    strictly_dominates,
)

__all__ = [
    "BipartiteMatcher",
    "INFINITY",
    "Poset",
    "VectorTimestamp",
    "all_ideals",
    "all_linear_extensions",
    "antichain_partition",
    "down_closure",
    "ideal_count",
    "ideal_join",
    "ideal_meet",
    "is_down_set",
    "maximal_elements_of_ideal",
    "chain_forced_extension",
    "check_linear_extension",
    "count_linear_extensions",
    "critical_pairs",
    "crown_poset",
    "dimension",
    "dimension_at_most",
    "dimension_lower_bound",
    "dimension_upper_bound",
    "dominates",
    "greedy_chain_partition",
    "intersection_of_extensions",
    "is_chain_partition",
    "is_linear_extension",
    "is_realizer",
    "join_all",
    "maximum_antichain",
    "minimum_chain_partition",
    "minimum_width_realizer",
    "ranks_in_extension",
    "realizer_from_chain_partition",
    "stamp_batch",
    "standard_example",
    "strictly_dominates",
    "width",
]
