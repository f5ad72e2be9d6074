"""Property-based equivalence of the batch fast path and matcher cache.

Two families of properties pin the PR-level invariants down on random
inputs:

* :func:`repro.core.fastpath.stamp_batch` must agree with the reference
  per-process handshake **message for message** — same component values,
  same component types, and same ``_obs`` counter totals, including on
  long runs whose components need two- and three-byte varints;
* the weak matcher cache must be invisible: ``width``,
  ``minimum_chain_partition`` and ``maximum_antichain`` return the same
  answers on repeated calls and match a message poset freshly built
  from the same computation.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks.online import OnlineEdgeClock
from repro.core.chains import (
    is_chain_partition,
    maximum_antichain,
    minimum_chain_partition,
    width,
)
from repro.core.fastpath import stamp_batch
from repro.core.poset import Poset
from repro.graphs.decomposition import decompose
from repro.graphs.generators import client_server_topology, path_topology
from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry
from repro.order.message_order import message_poset
from repro.sim.workload import random_computation
from tests.strategies import (
    computations,
    decomposed_computations,
    posets_from_computations,
)

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestStampBatchEquivalence:
    @RELAXED
    @given(decomposed_computations(max_messages=30))
    def test_matches_handshake_message_for_message(self, case):
        computation, decomposition = case
        clock = OnlineEdgeClock(decomposition)
        reference = clock.timestamp_computation_handshake(computation)
        batch = stamp_batch(computation, decomposition)
        assert set(batch) == set(computation.messages)
        for message in computation.messages:
            expected = reference.of(message)
            actual = batch[message]
            assert actual == expected
            assert actual.components == expected.components
            assert [type(c) for c in actual.components] == [
                type(c) for c in expected.components
            ]

    @RELAXED
    @given(decomposed_computations(max_messages=25))
    def test_obs_counters_identical_on_both_paths(self, case):
        computation, decomposition = case
        clock = OnlineEdgeClock(decomposition)
        with instrument.enabled_session(MetricsRegistry()) as bundle:
            clock.timestamp_computation_handshake(computation)
            slow_snapshot = bundle.registry.snapshot()
        with instrument.enabled_session(MetricsRegistry()) as bundle:
            clock.timestamp_computation(computation)
            fast_snapshot = bundle.registry.snapshot()
        assert fast_snapshot == slow_snapshot

    @pytest.mark.parametrize(
        "topology, messages",
        [
            (path_topology(2), 20_000),  # d = 1, reaches 20,000
            (client_server_topology(3, 27), 30_000),  # d = 3
        ],
        ids=["path-2x20k", "client-server-3x27x30k"],
    )
    def test_obs_counters_identical_with_wide_varints(
        self, topology, messages
    ):
        """Long runs push components past 127 and 16383, so a cached
        payload size that went stale, or was taken after the join,
        would change ``piggyback_bytes``."""
        computation = random_computation(
            topology, messages, random.Random(5)
        )
        clock = OnlineEdgeClock(decompose(topology))
        with instrument.enabled_session(MetricsRegistry()) as bundle:
            clock.timestamp_computation_handshake(computation)
            slow_snapshot = bundle.registry.snapshot()
        with instrument.enabled_session(MetricsRegistry()) as bundle:
            clock.timestamp_computation(computation)
            fast_snapshot = bundle.registry.snapshot()
        assert fast_snapshot == slow_snapshot


class TestRowSizeBytes:
    @pytest.mark.parametrize(
        "value", [0, 127, 128, 16383, 16384, 2**21 - 1, 2**21]
    )
    def test_band_edges(self, value):
        assert instrument.row_size_bytes([value]) == (
            instrument.piggyback_size_bytes([value])
        )

    @RELAXED
    @given(st.lists(st.integers(min_value=0, max_value=2**70 - 1)))
    def test_matches_piggyback_size_bytes(self, row):
        assert instrument.row_size_bytes(row) == (
            instrument.piggyback_size_bytes(row)
        )


class TestMatcherCacheEquivalence:
    @RELAXED
    @given(posets_from_computations(max_messages=25))
    def test_repeated_calls_stable(self, poset):
        first = (
            width(poset),
            minimum_chain_partition(poset),
            maximum_antichain(poset),
        )
        second = (
            width(poset),
            minimum_chain_partition(poset),
            maximum_antichain(poset),
        )
        assert first == second
        assert is_chain_partition(poset, first[1])
        assert len(first[1]) == first[0]
        assert len(first[2]) == first[0]

    @RELAXED
    @given(computations(max_messages=25))
    def test_cached_poset_matches_fresh_poset(self, computation):
        poset = message_poset(computation)
        cached_width = width(poset)  # populates the cache
        cached_partition = minimum_chain_partition(poset)
        # Built the same way, so it starts from the same process chains.
        fresh = message_poset(computation)
        assert width(fresh) == cached_width
        assert minimum_chain_partition(fresh) == cached_partition
        # A generic poset of the same order starts from no chains.
        generic = Poset(poset.elements, poset.relation_pairs())
        assert width(generic) == cached_width
