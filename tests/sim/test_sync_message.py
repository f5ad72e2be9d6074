"""The ``SyncMessage`` contract: an immutable tuple that behaves, in
every way the rest of the package relies on, like the frozen dataclass
it replaced.

``_DataclassMessage`` is that dataclass, kept here as the reference for
hash values (which fix set and dict iteration order, hence every output)
and for ``repr``.
"""

from __future__ import annotations

import copy
import dataclasses
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.computation import SyncMessage


@dataclasses.dataclass(frozen=True)
class _DataclassMessage:
    index: int
    sender: object
    receiver: object
    name: str

    def __repr__(self) -> str:
        return f"{self.name}[{self.sender!r}->{self.receiver!r}@{self.index}]"


FIELDS = ("index", "sender", "receiver", "name")
ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)

processes = st.one_of(st.text(max_size=6), st.integers(-5, 50))
messages = st.builds(
    SyncMessage, st.integers(0, 10**6), processes, processes, st.text()
)


def _message():
    return SyncMessage(0, "P1", "P2", "m1")


class TestReadOnly:
    @pytest.mark.parametrize("field", FIELDS)
    def test_fields_cannot_be_set(self, field):
        message = _message()
        with pytest.raises(AttributeError):
            setattr(message, field, 7)
        assert message == _message()

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            _message().colour = "red"

    def test_no_instance_dict(self):
        assert not hasattr(_message(), "__dict__")


class TestHash:
    def test_hash_is_the_field_tuple_hash(self):
        message = SyncMessage(3, "S1", "C9", "m4")
        assert hash(message) == hash((3, "S1", "C9", "m4"))

    @settings(max_examples=200, deadline=None)
    @given(messages)
    def test_hash_matches_the_dataclass(self, message):
        reference = _DataclassMessage(*message)
        assert hash(message) == hash(reference)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(messages, unique=True, max_size=30))
    def test_set_order_matches_the_dataclass(self, drawn):
        as_dataclass = [_DataclassMessage(*m) for m in drawn]
        assert [tuple(m) for m in set(drawn)] == [
            dataclasses.astuple(m) for m in set(as_dataclass)
        ]


class TestEquality:
    def test_equal_fields_equal(self):
        assert _message() == _message()
        assert not _message() != _message()

    @pytest.mark.parametrize("field", FIELDS)
    def test_any_field_differs(self, field):
        other = _message()._replace(**{field: 99})
        assert _message() != other and not _message() == other

    def test_plain_tuple_unequal_both_ways(self):
        message = _message()
        fields = tuple(message)
        assert message != fields and fields != message
        assert not message == fields and not fields == message

    def test_other_types_unequal(self):
        assert _message() != _DataclassMessage(0, "P1", "P2", "m1")
        assert _message() != "m1" and _message() != 0

    def test_tuple_key_stays_apart(self):
        table = {_message(): "message", tuple(_message()): "tuple"}
        assert len(table) == 2


class TestUnordered:
    @pytest.mark.parametrize("compare", ORDERINGS)
    @pytest.mark.parametrize(
        "other", [_message(), SyncMessage(1, "P2", "P1", "m2"),
                  (0, "P1", "P2", "m1"), (), 3]
    )
    def test_orderings_raise_both_ways(self, compare, other):
        with pytest.raises(TypeError):
            compare(_message(), other)
        with pytest.raises(TypeError):
            compare(other, _message())

    def test_sorting_raises(self):
        with pytest.raises(TypeError):
            sorted([_message(), SyncMessage(1, "P2", "P1", "m2")])


class TestUnchangedBehaviour:
    def test_methods(self):
        message = SyncMessage(2, "S1", "C4", "m3")
        assert message.participants() == ("S1", "C4")
        assert message.channel() == ("S1", "C4")
        assert message.involves("S1") and message.involves("C4")
        assert not message.involves("C5")

    def test_repr_and_str(self):
        message = SyncMessage(2, "S1", "C4", "m3")
        assert repr(message) == "m3['S1'->'C4'@2]"
        assert str(message) == repr(message) == f"{message}"

    @settings(max_examples=100, deadline=None)
    @given(messages)
    def test_repr_matches_the_dataclass(self, message):
        assert repr(message) == repr(_DataclassMessage(*message))

    def test_keyword_construction(self):
        message = SyncMessage(index=4, sender="a", receiver="b", name="m5")
        assert message == SyncMessage(4, "a", "b", "m5")
        assert (message.index, message.sender, message.receiver,
                message.name) == (4, "a", "b", "m5")

    def test_wrong_arity_raises(self):
        with pytest.raises(TypeError):
            SyncMessage(0, "P1", "P2")


class TestRoundTrips:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, protocol):
        message = SyncMessage(5, ("P", 1), "P2", "m6")
        restored = pickle.loads(pickle.dumps(message, protocol))
        assert type(restored) is SyncMessage
        assert restored == message and hash(restored) == hash(message)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copy(self, copier):
        message = SyncMessage(5, ("P", 1), "P2", "m6")
        duplicate = copier(message)
        assert type(duplicate) is SyncMessage
        assert duplicate == message and repr(duplicate) == repr(message)


class TestTupleAdditions:
    """What the tuple base adds; documented on ``SyncMessage``."""

    def test_sequence_protocol(self):
        message = SyncMessage(1, "P1", "P2", "m2")
        assert len(message) == 4
        assert list(message) == [1, "P1", "P2", "m2"]
        assert message[1] == "P1" and message[-1] == "m2"
        assert "P2" in message

    def test_concatenation_is_a_plain_tuple(self):
        joined = _message() + ("extra",)
        assert type(joined) is tuple and joined[-1] == "extra"

    def test_namedtuple_helpers(self):
        message = _message()
        assert SyncMessage._fields == FIELDS
        assert SyncMessage._make([0, "P1", "P2", "m1"]) == message
        assert message._replace(name="m9").name == "m9"
        assert type(message._replace(name="m9")) is SyncMessage
        assert message._asdict() == {
            "index": 0, "sender": "P1", "receiver": "P2", "name": "m1"
        }
