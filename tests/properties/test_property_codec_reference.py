"""The byte-operation codecs against their per-varint reference.

:mod:`repro.clocks.delta` builds and parses frames with byte slices
whenever every varint fits in one byte and falls back to one varint at
a time otherwise.  Hypothesis drives random channel walks through the
shipped codecs and the reference loops of
:mod:`tests.clocks.codec_reference` side by side.  Frames must be
byte-identical, decoded vectors and counters equal, on both sides of
the one-byte boundary: sizes 127/128 put tags on either side of it,
and increments and values span one-, two- and three-byte varints.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks.delta import DeltaChannelCodec, FullVectorCodec
from repro.sim.wire import WireError, decode_vector, encode_vector
from tests.clocks.codec_reference import (
    ReferenceDeltaCodec,
    ReferenceFullCodec,
    reference_decode_vector,
    reference_encode_vector,
)

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SIZES = st.sampled_from([0, 1, 24, 127, 128, 200])

#: One-, two- and three-byte varints.
VARINT_VALUES = st.one_of(
    st.integers(1, 0x7F),
    st.integers(0x80, 0x3FFF),
    st.integers(0x4000, 0x1FFFFF),
)

#: Unchanged frames sent in one go by the "idle" step: two of them
#: carry a channel past the default 64-frame resync interval.
IDLE_FRAMES = 40

STEPS = st.sampled_from(
    ["bump", "bump", "bump", "same", "drop", "idle", "force", "reset"]
)

KEYS = (("P1", "P2"), ("P2", "P1"))


def _outcome(decode, key, blob):
    """``decode``'s vector, or the message of the WireError it raised."""
    try:
        return list(decode(key, blob))
    except WireError as exc:
        return str(exc)


def _send(codec, reference, key, vector):
    blob = codec.encode(key, vector)
    assert blob == reference.encode(key, vector)
    decoded = codec.decode(key, blob)
    assert decoded == reference.decode(key, blob)
    assert list(decoded) == vector


@SETTINGS
@given(SIZES, st.sampled_from([0, 1, 64]), st.data())
def test_delta_walks_match_reference(size, resync_interval, data):
    codec = DeltaChannelCodec(size, resync_interval=resync_interval)
    reference = ReferenceDeltaCodec(size, resync_interval)
    vectors = {key: [0] * size for key in KEYS}
    for step in data.draw(st.lists(STEPS, max_size=25), label="steps"):
        key = data.draw(st.sampled_from(KEYS), label="key")
        vector = vectors[key]
        if step == "force":
            codec.force_resync(key)
            reference.force_resync(key)
            continue
        if step == "reset":
            codec.reset_channel(key)
            reference.reset_channel(key)
            continue
        if size and step == "bump":
            # Up to 16 changes, so a frame can reach the d + 1 byte
            # fallback at d = 24 from either side.
            changes = st.lists(
                st.tuples(st.integers(0, size - 1), VARINT_VALUES),
                min_size=1,
                max_size=16,
            )
            for index, increment in data.draw(changes, label="bump"):
                vector[index] += increment
        elif size and step == "drop":
            # A non-monotone step: the codec must resync.
            index = data.draw(st.integers(0, size - 1), label="drop")
            vector[index] = data.draw(
                st.integers(0, max(0, vector[index] - 1)), label="to"
            )
        for _ in range(IDLE_FRAMES if step == "idle" else 1):
            _send(codec, reference, key, vector)
    assert (codec.frames, codec.resyncs, codec.payload_bytes) == (
        reference.frames,
        reference.resyncs,
        reference.payload_bytes,
    )
    assert codec.delta_frames == reference.delta_frames
    for key in KEYS:
        assert codec.decode(key, b"") == reference.decode(key, b"")


#: Arbitrary frames, biased toward one-byte varints so that valid and
#: nearly valid delta frames come up as often as garbage.
FRAMES = st.one_of(
    st.binary(max_size=24),
    st.lists(st.integers(0, 0x81), max_size=24).map(bytes),
)


@SETTINGS
@given(st.sampled_from([1, 4, 24, 128]), VARINT_VALUES, FRAMES)
def test_delta_decode_of_any_frame_matches_reference(size, start, blob):
    """Same vector or same error; a rejected frame changes nothing."""
    key = KEYS[0]
    codec = DeltaChannelCodec(size)
    reference = ReferenceDeltaCodec(size, 64)
    vector = [start] * size
    _send(codec, reference, key, vector)
    outcome = _outcome(codec.decode, key, blob)
    assert outcome == _outcome(reference.decode, key, blob)
    if isinstance(outcome, str):
        assert list(codec.decode(key, b"")) == vector


VECTORS = st.lists(st.one_of(st.just(0), VARINT_VALUES), max_size=200)


@SETTINGS
@given(VECTORS, st.binary(max_size=3))
def test_vector_codec_matches_reference(vector, tail):
    blob = encode_vector(vector)
    assert blob == reference_encode_vector(vector)
    data = tail + blob + tail
    decoded, offset = decode_vector(data, len(vector), len(tail))
    assert (decoded, offset) == reference_decode_vector(
        data, len(vector), len(tail)
    )
    assert list(decoded) == vector


@SETTINGS
@given(VECTORS, FRAMES)
def test_full_codec_matches_reference(vector, garbage):
    size = len(vector)
    codec = FullVectorCodec(size)
    reference = ReferenceFullCodec(size)
    key = KEYS[0]
    _send(codec, reference, key, vector)
    assert (codec.frames, codec.payload_bytes) == (
        reference.frames,
        reference.payload_bytes,
    )
    assert _outcome(codec.decode, key, garbage) == _outcome(
        reference.decode, key, garbage
    )
