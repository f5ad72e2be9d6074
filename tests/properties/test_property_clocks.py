"""Property-based verification of Equation (1) across random systems.

These are the strongest correctness tests in the suite: hypothesis
generates arbitrary topologies and computations, and every clock's
timestamps are exhaustively compared against the ground-truth poset.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks.fm import FMMessageClock
from repro.clocks.lamport import LamportMessageClock
from repro.clocks.offline import OfflineRealizerClock, theorem8_bound
from repro.clocks.online import OnlineEdgeClock
from repro.core.chains import (
    is_chain_partition,
    minimum_chain_partition,
    width,
)
from repro.core.linear_extensions import realizer_size
from repro.core.poset import Poset
from repro.graphs.decomposition import (
    bounded_decomposition,
    decompose,
    paper_decomposition_algorithm,
)
from repro.order.checker import check_encoding
from repro.order.message_order import message_poset
from tests.strategies import (
    clustered_computations,
    comparability_components,
    computations,
    merged_cluster_computations,
    nonempty_computations,
)

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _sum_rule_size(poset):
    """``width(P)`` for a connected poset, else ``max(2, max_i
    width(P_i))`` over its connected components ``P_i``."""
    widths = [
        width(poset.restricted_to(component))
        for component in comparability_components(poset)
    ]
    return widths[0] if len(widths) == 1 else max(2, *widths)


class TestOnlineClockProperties:
    @RELAXED
    @given(computations(max_messages=30))
    def test_equation_one_default_decomposition(self, computation):
        clock = OnlineEdgeClock(decompose(computation.topology))
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes

    @RELAXED
    @given(computations(max_messages=25))
    def test_equation_one_paper_algorithm_decomposition(self, computation):
        decomposition, _ = paper_decomposition_algorithm(
            computation.topology
        )
        clock = OnlineEdgeClock(decomposition)
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes

    @RELAXED
    @given(computations(min_processes=4, max_messages=25))
    def test_equation_one_bounded_decomposition(self, computation):
        decomposition = bounded_decomposition(computation.topology)
        clock = OnlineEdgeClock(decomposition)
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes

    @RELAXED
    @given(nonempty_computations(max_messages=30))
    def test_lemma3_concurrent_messages_in_distinct_groups(
        self, computation
    ):
        decomposition = decompose(computation.topology)
        clock = OnlineEdgeClock(decomposition)
        poset = message_poset(computation)
        for m1, m2 in poset.incomparable_pairs():
            assert clock.group_of_message(m1) != clock.group_of_message(m2)

    @RELAXED
    @given(nonempty_computations(max_messages=30))
    def test_timestamps_monotone_along_execution_per_group(
        self, computation
    ):
        """Within one edge group, timestamps are strictly increasing in
        the group component — the increments of lines (6)/(10)."""
        decomposition = decompose(computation.topology)
        clock = OnlineEdgeClock(decomposition)
        assignment = clock.timestamp_computation(computation)
        last_seen = {}
        for message in computation.messages:
            group = clock.group_of_message(message)
            value = assignment.of(message)[group]
            if group in last_seen:
                assert value > last_seen[group]
            last_seen[group] = value


class TestOfflineClockProperties:
    @RELAXED
    @given(computations(max_messages=30))
    def test_equation_one(self, computation):
        clock = OfflineRealizerClock()
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes

    @RELAXED
    @given(
        st.one_of(
            clustered_computations(), merged_cluster_computations()
        )
    )
    def test_equation_one_on_disjoint_sums(self, computation):
        clock = OfflineRealizerClock()
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes

    @RELAXED
    @given(nonempty_computations(max_messages=30))
    def test_vector_size_is_width_and_within_bound(self, computation):
        clock = OfflineRealizerClock()
        clock.timestamp_computation(computation)
        poset = message_poset(computation)
        assert clock.timestamp_size == _sum_rule_size(poset)
        assert clock.timestamp_size <= width(poset)
        assert width(poset) <= max(1, theorem8_bound(computation))


class TestProcessChainSeed:
    """The matching starts from the message poset's process chains and
    still ends at a minimum chain partition (Berge)."""

    @RELAXED
    @given(
        st.one_of(
            clustered_computations(),
            merged_cluster_computations(),
            computations(max_messages=30),
        )
    )
    def test_seeded_partition_is_minimum(self, computation):
        poset = message_poset(computation)
        chains = minimum_chain_partition(poset)
        generic = Poset(poset.elements, poset.relation_pairs())
        assert is_chain_partition(poset, chains)
        assert len(chains) == width(generic)
        assert realizer_size(poset, chains) == realizer_size(
            generic, minimum_chain_partition(generic)
        )
        if len(computation) <= 60:
            clock = OfflineRealizerClock()
            report = check_encoding(
                clock, clock.timestamp_computation(computation)
            )
            assert report.characterizes


class TestBaselineProperties:
    @RELAXED
    @given(computations(max_messages=30))
    def test_fm_characterizes(self, computation):
        clock = FMMessageClock(computation.processes)
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.characterizes

    @RELAXED
    @given(computations(max_messages=30))
    def test_lamport_consistent(self, computation):
        clock = LamportMessageClock(computation.processes)
        report = check_encoding(
            clock, clock.timestamp_computation(computation)
        )
        assert report.consistent

    @RELAXED
    @given(nonempty_computations(max_messages=25))
    def test_online_never_larger_than_fm(self, computation):
        online = OnlineEdgeClock(decompose(computation.topology))
        fm = FMMessageClock(computation.processes)
        if computation.topology.vertex_count() >= 3:
            assert online.timestamp_size <= fm.timestamp_size
