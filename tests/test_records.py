"""The records the toolkit holds by the thousand are slotted, frozen
dataclasses: no per-instance attribute table, and the usual value contract."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from sparse_expand.corpus import Document, Topic
from sparse_expand.index import Phrase, Query, Term
from sparse_expand.suggestions import SuggestionSet

# One factory per record type; each call makes a new, equal record, and
# `replace` names a field to change and its new value.
RECORDS = {
    "Term": (lambda: Term("chic_all-en", "whale", 2.0), ("text", "ship")),
    "Phrase": (lambda: Phrase("chic_all-en", ("Sea", "story")), ("boost", 3.0)),
    "Query": (
        lambda: Query((Term("chic_all-en", "whale", 2.0), Phrase("chic_all-en", ("Sea", "story")))),
        ("clauses", (Term("chic_all-en", "ship"),)),
    ),
    "Document": (
        lambda: Document("d1", "en", {"dc:title": ("Moby Dick",), "dc:subject": ("whales", "ships")}),
        ("lang", "de"),
    ),
    "Topic": (lambda: Topic("CHIC-012", "moby dick", "en", "A whale."), ("description", None)),
    "SuggestionSet": (
        lambda: SuggestionSet("CHIC-012", "STR", ("Herman Melville", "Sea story"), (Fraction(2, 3), 0.5)),
        ("system", "COMBO"),
    ),
}

pytestmark = pytest.mark.parametrize("make, change", RECORDS.values(), ids=RECORDS.keys())


def test_a_record_has_slots_and_no_attribute_table(make, change):
    record = make()
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record))


def test_a_record_is_frozen(make, change):
    record = make()
    name, value = change
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    assert record == make()


def test_equal_records_hash_equal(make, change):
    a, b = make(), make()
    assert a == b and a is not b
    if isinstance(a, Document):  # a document's fields are a dict, as before slots
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "clone",
    [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
    ],
    ids=["pickle", "pickle-protocol-0", "copy", "deepcopy", "replace"],
)
def test_a_record_round_trips(make, change, clone):
    record = make()
    twin = clone(record)
    assert twin == record and twin is not record
    assert type(twin) is type(record)
    name, value = change
    changed = dataclasses.replace(twin, **{name: value})
    assert getattr(changed, name) == value and changed != record
    assert record == make()
