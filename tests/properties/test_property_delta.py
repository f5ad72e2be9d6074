"""Property-based guarantees for the differential piggyback codec.

The tentpole invariant: whatever frames the delta codec puts on the
wire — sparse deltas, periodic resyncs, post-reconnect full frames —
the *committed timestamps* must be byte-identical to the full-vector
path.  Hypothesis drives arbitrary clustered computations and random
resync intervals through ``stamp_batch_wire`` with every frame
decode-verified, plus adversarial encoder/decoder walks with
reconnects on the raw channel codec.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks.delta import DeltaChannelCodec, channel_key
from repro.core.fastpath import stamp_batch, stamp_batch_wire
from repro.graphs.decomposition import decompose
from tests.strategies import clustered_computations, computations

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDeltaPathEqualsFullPath:
    @RELAXED
    @given(
        clustered_computations(),
        st.integers(min_value=1, max_value=9),
    )
    def test_clustered_walks_roundtrip(self, computation, resync_interval):
        """Delta == full on clustered walks, every frame verified.

        Tiny resync intervals force full-frame boundaries to land in
        the middle of the walk, so the property covers the delta ->
        resync -> delta transitions, not just the happy path.
        """
        decomposition = decompose(computation.topology)
        expected = stamp_batch(computation, decomposition)
        actual, stats = stamp_batch_wire(
            computation,
            decomposition,
            wire_format="delta",
            resync_interval=resync_interval,
            verify=True,
        )
        assert actual == expected
        assert stats.messages == len(computation)

    @RELAXED
    @given(computations(max_messages=25))
    def test_arbitrary_topologies_roundtrip(self, computation):
        decomposition = decompose(computation.topology)
        expected = stamp_batch(computation, decomposition)
        actual, _ = stamp_batch_wire(
            computation,
            decomposition,
            wire_format="delta",
            verify=True,
        )
        assert actual == expected


class TestChannelCodecWalks:
    @RELAXED
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_monotone_walk_with_reconnects(
        self, size, resync_interval, seed
    ):
        """Encoder and decoder stay in lockstep across reconnects.

        A reconnect (``reset_channel`` on both ends, as the runtimes
        do when a rendezvous times out or a peer drops) must only cost
        bytes, never correctness.
        """
        rng = random.Random(seed)
        encoder = DeltaChannelCodec(size, resync_interval=resync_interval)
        decoder = DeltaChannelCodec(size, resync_interval=resync_interval)
        key = channel_key("P1", "P2")
        vector = [0] * size
        for _ in range(60):
            action = rng.random()
            if action < 0.1:
                encoder.reset_channel(key)
                decoder.reset_channel(key)
            elif action < 0.2:
                encoder.force_resync(key)
            else:
                vector[rng.randrange(size)] += rng.randrange(1, 5)
            blob = encoder.encode(key, vector)
            assert list(decoder.decode(key, blob)) == vector

    @RELAXED
    @given(st.integers(min_value=0, max_value=2**31))
    def test_interleaved_channels_stay_independent(self, seed):
        rng = random.Random(seed)
        codec = DeltaChannelCodec(4, resync_interval=3)
        keys = [channel_key("a", "b"), channel_key("b", "a"),
                channel_key("a", "c")]
        vectors = {key: [0, 0, 0, 0] for key in keys}
        for _ in range(80):
            key = keys[rng.randrange(len(keys))]
            vectors[key][rng.randrange(4)] += rng.randrange(1, 3)
            blob = codec.encode(key, vectors[key])
            assert list(codec.decode(key, blob)) == vectors[key]
