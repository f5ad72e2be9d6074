"""Unit tests for the differential piggyback codec layer.

The delta codec is a *wire* optimization: whatever frames travel, the
decoder must reconstruct exactly the vector the encoder held.  These
tests pin the frame grammar (tag folding, resync triggers, fallback)
and the obs counters the delta codec feeds.
"""

from __future__ import annotations

import random

import pytest

from repro.clocks.delta import (
    DEFAULT_RESYNC_INTERVAL,
    DeltaChannelCodec,
    FullVectorCodec,
    channel_key,
    make_codec,
)
from repro.obs import instrument
from repro.sim.wire import (
    WireError,
    encode_vector,
    parse_wire_format,
)


class TestParseWireFormat:
    def test_plain_formats(self):
        assert parse_wire_format("full") == "full"
        assert parse_wire_format("delta") == "delta"

    @pytest.mark.parametrize(
        "spec",
        ["", "Full", "bounded", "bounded:", "bounded:zero", "bounded:0",
         "bounded:-3", "bounded:8", "delta:4"],
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(WireError):
            parse_wire_format(spec)

    def test_rejects_non_string(self):
        with pytest.raises(WireError):
            parse_wire_format(7)


class TestMakeCodec:
    def test_kinds(self):
        assert make_codec("full", 4).kind == "full"
        assert make_codec("delta", 4).kind == "delta"

    def test_unknown_format_raises(self):
        with pytest.raises(WireError):
            make_codec("gzip", 4)


class TestFullVectorCodec:
    def test_byte_identical_to_encode_vector(self):
        codec = FullVectorCodec(3)
        key = channel_key("P1", "P2")
        for vector in ([0, 0, 0], [1, 0, 300], [2**20, 5, 1]):
            assert codec.encode(key, vector) == encode_vector(vector)
            assert list(codec.decode(key, encode_vector(vector))) == vector

    def test_decode_rejects_trailing_bytes(self):
        codec = FullVectorCodec(2)
        blob = encode_vector([1, 2]) + b"\x00"
        with pytest.raises(WireError):
            codec.decode(channel_key("a", "b"), blob)


class TestDeltaChannelCodec:
    def test_first_frame_against_zero_snapshot(self):
        codec = DeltaChannelCodec(4)
        key = channel_key("P1", "P2")
        blob = codec.encode(key, [0, 2, 0, 0])
        # One changed component: (index+1, increment) = 2 bytes.
        assert len(blob) == 2
        assert list(codec.decode(key, blob)) == [0, 2, 0, 0]

    def test_unchanged_vector_is_empty_frame(self):
        codec = DeltaChannelCodec(3)
        key = channel_key("P1", "P2")
        codec.decode(key, codec.encode(key, [1, 1, 0]))
        blob = codec.encode(key, [1, 1, 0])
        assert blob == b""
        assert list(codec.decode(key, blob)) == [1, 1, 0]

    def test_channels_are_independent(self):
        codec = DeltaChannelCodec(2)
        ab, ba = channel_key("a", "b"), channel_key("b", "a")
        blob_ab = codec.encode(ab, [3, 0])
        blob_ba = codec.encode(ba, [0, 5])
        assert list(codec.decode(ab, blob_ab)) == [3, 0]
        assert list(codec.decode(ba, blob_ba)) == [0, 5]

    def test_periodic_resync_emits_full_frame(self):
        codec = DeltaChannelCodec(3, resync_interval=2)
        key = channel_key("P1", "P2")
        resyncs_before = codec.resyncs
        for step in range(1, 7):
            blob = codec.encode(key, [step, 0, 0])
            assert list(codec.decode(key, blob)) == [step, 0, 0]
        # Every third frame (after 2 deltas) is a full resync.
        assert codec.resyncs == resyncs_before + 2

    def test_force_resync(self):
        codec = DeltaChannelCodec(3)
        key = channel_key("P1", "P2")
        codec.decode(key, codec.encode(key, [1, 0, 0]))
        codec.force_resync(key)
        before = codec.resyncs
        blob = codec.encode(key, [2, 0, 0])
        assert codec.resyncs == before + 1
        assert list(codec.decode(key, blob)) == [2, 0, 0]

    def test_reset_channel_reconnect(self):
        """A reconnect resets both endpoints to the zero snapshot."""
        codec = DeltaChannelCodec(3)
        key = channel_key("P1", "P2")
        codec.decode(key, codec.encode(key, [4, 4, 4]))
        codec.reset_channel(key)
        blob = codec.encode(key, [5, 4, 4])
        # Against zeros again: all three components are in the frame.
        assert list(codec.decode(key, blob)) == [5, 4, 4]

    def test_negative_change_falls_back_to_full(self):
        codec = DeltaChannelCodec(2)
        key = channel_key("P1", "P2")
        codec.decode(key, codec.encode(key, [9, 9]))
        before = codec.resyncs
        blob = codec.encode(key, [3, 9])
        assert codec.resyncs == before + 1
        assert list(codec.decode(key, blob)) == [3, 9]

    def test_wide_change_falls_back_to_full(self):
        """A delta no shorter than the full frame is not sent."""
        codec = DeltaChannelCodec(2)
        key = channel_key("P1", "P2")
        codec.decode(key, codec.encode(key, [1, 1]))
        before = codec.resyncs
        blob = codec.encode(key, [200, 201])
        assert codec.resyncs == before + 1
        assert list(codec.decode(key, blob)) == [200, 201]

    def test_delta_as_long_as_the_vector_is_kept(self):
        """The fallback starts at ``size + 1`` bytes, the shortest
        resync frame, on the one-byte and the multi-byte path."""
        codec = DeltaChannelCodec(24)
        key = channel_key("P1", "P2")
        vector = [1] * 12 + [0] * 12
        blob = codec.encode(key, vector)
        assert (len(blob), codec.resyncs) == (24, 0)
        assert list(codec.decode(key, blob)) == vector
        vector = [2] * 13 + [0] * 11
        blob = codec.encode(key, vector)
        assert (len(blob), codec.resyncs) == (25, 1)
        assert list(codec.decode(key, blob)) == vector

        codec = DeltaChannelCodec(4)
        blob = codec.encode(key, [200, 0, 0, 0])
        assert (len(blob), codec.resyncs) == (3, 0)
        assert list(codec.decode(key, blob)) == [200, 0, 0, 0]
        blob = codec.encode(key, [400, 1, 0, 0])
        assert codec.resyncs == 1
        assert list(codec.decode(key, blob)) == [400, 1, 0, 0]

    def test_random_walk_roundtrip(self):
        rng = random.Random(5)
        codec = DeltaChannelCodec(5, resync_interval=3)
        key = channel_key("P1", "P2")
        vector = [0] * 5
        for _ in range(300):
            vector[rng.randrange(5)] += rng.randrange(1, 4)
            blob = codec.encode(key, vector)
            assert list(codec.decode(key, blob)) == vector

    def test_stats_dict(self):
        codec = DeltaChannelCodec(3)
        codec.encode(channel_key("a", "b"), [1, 0, 0])
        stats = codec.stats_dict()
        assert stats["kind"] == "delta"
        assert stats["frames"] == 1
        assert "delta_frames" in stats

    def test_default_resync_interval_positive(self):
        assert DEFAULT_RESYNC_INTERVAL > 0


class TestCodecRegistryCounters:
    """The delta codec's own counts equal the registry's."""

    def test_delta_codec_feeds_both_counters(self):
        # Two deltas, a periodic resync, a too-wide change that falls
        # back to a resync, and one more delta.
        walk = ([1, 0, 0], [2, 0, 0], [3, 0, 0], [3, 5, 2], [4, 5, 2])
        with instrument.enabled_session() as obs:
            codec = DeltaChannelCodec(3, resync_interval=2)
            key = channel_key("P1", "P2")
            for vector in walk:
                codec.encode(key, vector)
        assert codec.resyncs == 2
        assert obs.piggyback_delta_bytes.value == codec.payload_bytes
        assert obs.delta_resync_total.value == codec.resyncs

    def test_full_codec_feeds_neither_counter(self):
        with instrument.enabled_session() as obs:
            codec = FullVectorCodec(3)
            codec.encode(channel_key("P1", "P2"), [1, 2, 3])
        assert codec.payload_bytes == 3
        assert obs.piggyback_delta_bytes.value == 0
        assert obs.delta_resync_total.value == 0


#: A valid first pair for each decode path: one-byte varints, and a
#: two-byte increment (129) that sends the frame down the per-varint
#: path.
FIRST_PAIRS = {
    "one-byte": bytes([2, 3]),
    "multi-byte": bytes([2, 0x81, 0x01]),
}

#: A valid size-4 resync frame for each decode path.
RESYNC_FRAMES = {
    "one-byte": bytes([0, 1, 2, 3, 4]),
    "multi-byte": bytes([0, 1, 0x81, 0x01, 3, 4]),
}


class TestDeltaDecodeIsAtomic:
    """A rejected frame raises and leaves the channel snapshot as it was.

    Every bad frame below starts with a valid pair, which a decoder that
    applied pairs as it read them would already have added.
    """

    @pytest.fixture(params=sorted(FIRST_PAIRS))
    def path(self, request):
        return request.param

    def _assert_rejected(self, blob, match):
        codec = DeltaChannelCodec(4)
        key = channel_key("P1", "P2")
        codec.decode(key, bytes([1, 5]))
        with pytest.raises(WireError, match=match):
            codec.decode(key, blob)
        assert list(codec.decode(key, b"")) == [5, 0, 0, 0]

    @pytest.mark.parametrize("tag", [5, 30])
    def test_out_of_range_tag(self, path, tag):
        self._assert_rejected(
            FIRST_PAIRS[path] + bytes([tag, 1]),
            f"names component {tag - 1} ",
        )

    def test_tag_zero_after_first_pair(self, path):
        self._assert_rejected(
            FIRST_PAIRS[path] + bytes([0, 1]), "names component -1 "
        )

    def test_zero_increment(self, path):
        self._assert_rejected(
            FIRST_PAIRS[path] + bytes([3, 0]), "zero increment"
        )

    def test_truncated_varint(self, path):
        self._assert_rejected(FIRST_PAIRS[path] + bytes([1]), "truncated")
        self._assert_rejected(
            FIRST_PAIRS[path] + bytes([1, 0x80]), "truncated"
        )

    def test_trailing_bytes_after_resync_frame(self, path):
        self._assert_rejected(
            RESYNC_FRAMES[path] + bytes([9]), "trailing bytes"
        )

    def test_varint_over_64_bits(self, path):
        self._assert_rejected(
            FIRST_PAIRS[path] + bytes([1] + [0xFF] * 10 + [1]),
            "exceeds 64 bits",
        )

    def test_valid_frames_on_both_paths(self, path):
        codec = DeltaChannelCodec(4)
        key = channel_key("P1", "P2")
        increment = 3 if path == "one-byte" else 129
        assert list(codec.decode(key, FIRST_PAIRS[path])) == [
            0, increment, 0, 0
        ]
        assert list(codec.decode(key, RESYNC_FRAMES[path])) == [
            1, 2 if path == "one-byte" else 129, 3, 4
        ]
