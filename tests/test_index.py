import math
import random
import re
import struct
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import OLDER_SNAPSHOTS, WORDS, random_corpus
from oracles import (
    field_token_positions,
    naive_ascending_runs_below,
    naive_concept_table,
    naive_descends,
    naive_pos_starts,
    naive_rises,
    naive_search,
    naive_str_scores,
)
from sparse_expand import index as index_module
from sparse_expand.analysis import chain_for
from sparse_expand.cli import main
from sparse_expand.corpus import CONCEPT_FIELDS, Document, Topic, ingest_documents
from sparse_expand.errors import (
    AnalysisError,
    DataError,
    DuplicateDocumentError,
    EmptyCorpusError,
    UnknownFieldError,
)
from sparse_expand.index import (
    SNAPSHOT_FILENAME,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    Hits,
    Index,
    Phrase,
    Query,
    ScoredDoc,
    Term,
    _ascending_runs_below,
    _descends,
    _Field,
    _holds_zero,
    _narrowed,
    _pos_starts,
    _records,
    _rises,
    build_index,
)
from sparse_expand.stopwords import load_stopwords
from sparse_expand.str_recommender import CooccurConfig, suggest_str

CHAINS = {"en": chain_for("en"), "de": chain_for("de")}


def _index(docs):
    return build_index(docs, CHAINS)


def _doc(i, **fields):
    return Document(f"d{i}", "en", {k: tuple(v) for k, v in fields.items()})


def test_build_single_doc_all_field():
    idx = _index([_doc(0, **{"dc:title": ["moby dick"]})])
    assert len(idx.doc_set("chic_all-en", ["moby"])) == 1
    (posting,) = idx.postings("chic_all-en", "mobi")
    assert posting.positions == (0,)


def test_build_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        build_index([], CHAINS)


def test_df_counts_documents():
    idx = _index(
        [_doc(0, **{"dc:title": ["map of town"]}), _doc(1, **{"dc:title": ["old map"]})]
    )
    assert len(idx.doc_set("dc:title-en", ["map"])) == 2


def test_missing_chain_for_language():
    doc = Document("d0", "fr", {"dc:title": ("bonjour",)})
    with pytest.raises(DataError):
        build_index([doc], CHAINS)


def test_build_rejects_a_field_named_as_the_union_field():
    # Its composite name would be the union field's, chic_all-en.
    doc = Document("d0", "en", {"chic_all": ("whale",), "dc:title": ("ship",)})
    with pytest.raises(DataError, match="^document 'd0': field 'chic_all' is reserved for the union field$"):
        build_index([_doc(1, **{"dc:title": ["sea"]}), doc], CHAINS)


def test_build_rejects_a_repeated_doc_id():
    docs = [_doc(0, **{"dc:title": ["whale"]}), _doc(1, **{"dc:title": ["ship"]})]
    docs.append(Document("d0", "de", {"dc:title": ("Schiff",)}))
    with pytest.raises(DuplicateDocumentError, match="repeated doc_id 'd0'"):
        build_index(docs, CHAINS)


def test_search_single_match():
    idx = _index([_doc(0, **{"dc:title": ["moby dick"]})])
    results = idx.search(Query((Term("chic_all-en", "Moby"),)), 10)
    assert len(results) == 1
    assert results[0].doc_id == "d0"
    assert results[0].score > 0


@pytest.mark.parametrize("mode", ["all", "any"])
def test_doc_set_of_no_terms_is_empty(mode):
    idx = _index([_doc(0, **{"dc:title": ["moby dick"]})])
    assert idx.doc_set("chic_all-en", [], mode) == frozenset()


def test_phrase_order_matters():
    idx = _index([_doc(0, **{"dc:title": ["moby dick"]})])
    assert idx.search(Query((Phrase("chic_all-en", ("dick", "moby")),)), 10) == []
    assert idx.search(Query((Phrase("chic_all-en", ("moby", "dick")),)), 10) != []


def test_search_matches_bruteforce_on_three_docs():
    docs = [
        _doc(0, **{"dc:title": ["whale hunt"], "dc:description": ["a big whale"]}),
        _doc(1, **{"dc:title": ["whale map"]}),
        _doc(2, **{"dc:title": ["canada map"], "dc:subject": ["maps"]}),
    ]
    idx = _index(docs)
    query = Query(
        (Term("chic_all-en", "whale"), Term("chic_all-en", "map", 2.0))
    )
    got = [(r.doc_id, r.score) for r in idx.search(query, 10)]
    assert got == naive_search(docs, CHAINS, query, 10)


def test_df_unseen_term_zero():
    idx = _index([_doc(0, **{"dc:title": ["whale"]})])
    assert len(idx.doc_set("chic_all-en", ["zebra"])) == 0


def test_df_fixture_count():
    docs = [
        _doc(i, **{"dc:title": ["harbor light" if i < 5 else "quiet village"]})
        for i in range(20)
    ]
    idx = _index(docs)
    assert len(idx.doc_set("dc:title-en", ["harbor"])) == 5


def test_df_analyzes_raw_term():
    idx = _index([_doc(0, **{"dc:title": ["dick the sailor"]})])
    assert len(idx.doc_set("dc:title-en", ["Dick's"])) == 1


def test_df_multi_token_raises():
    idx = _index([_doc(0, **{"dc:title": ["whale"]})])
    with pytest.raises(AnalysisError):
        idx.doc_set("dc:title-en", ["two words"])
    with pytest.raises(AnalysisError):
        idx.doc_set("dc:title-en", ["the"])


def test_doc_set_modes():
    docs = [
        _doc(0, **{"dc:title": ["film poster"]}),
        _doc(1, **{"dc:title": ["film from canada"]}),
        _doc(2, **{"dc:title": ["canada film archive"]}),
    ]
    idx = _index(docs)
    assert idx.doc_set("dc:title-en", ["film", "canada"], "all") == {1, 2}
    assert idx.doc_set("dc:title-en", ["film", "canada"], "any") == {0, 1, 2}
    assert idx.doc_set("dc:title-en", ["film"], "all") == {0, 1, 2}
    assert idx.doc_set("dc:title-en", ["zebra", "film"], "all") == frozenset()


def test_doc_set_all_subset_of_any():
    docs = random_corpus(7, 40)
    idx = _index(docs)
    for terms in (["film", "canada"], ["whale", "ship", "ocean"]):
        assert idx.doc_set("chic_all-en", terms, "all") <= idx.doc_set(
            "chic_all-en", terms, "any"
        )


def test_doc_set_bad_mode():
    idx = _index([_doc(0, **{"dc:title": ["whale"]})])
    with pytest.raises(ValueError):
        idx.doc_set("dc:title-en", ["whale"], "most")


def test_unknown_field_errors():
    idx = _index([_doc(0, **{"dc:title": ["whale"]})])
    with pytest.raises(UnknownFieldError):
        idx.doc_set("dc:subject-en", ["whale"])
    with pytest.raises(UnknownFieldError):
        idx.search(Query((Term("nope-en", "whale"),)), 5)


def test_phrase_hits_within_all_terms_docset():
    docs = random_corpus(11, 60)
    idx = _index(docs)
    phrase = Phrase("chic_all-en", ("film", "canada"))
    hits = {r.doc_id for r in idx.search(Query((phrase,)), 1000)}
    allowed = {
        idx.doc_ids[i] for i in idx.doc_set("chic_all-en", ["film", "canada"], "all")
    }
    assert hits <= allowed


def test_tf_sums_to_token_counts():
    docs = random_corpus(3, 30)
    idx = _index(docs)
    chain = CHAINS["en"]
    for field in ("dc:title-en", "chic_all-en"):
        total_tf = sum(
            p.tf for term in idx.terms(field) for p in idx.postings(field, term)
        )
        expected = 0
        for doc in docs:
            stream = field_token_positions(doc, chain)
            expected += len(stream.get(field, []))
        assert total_tf == expected


def test_multivalue_gap_blocks_phrases():
    idx = _index([_doc(0, **{"dc:subject": ["old map", "town plan"]})])
    assert idx.search(Query((Phrase("dc:subject-en", ("map", "town")),)), 5) == []
    assert idx.search(Query((Phrase("dc:subject-en", ("old", "map")),)), 5) != []


def test_tie_break_by_doc_id():
    docs = [_doc(1, **{"dc:title": ["whale"]}), _doc(0, **{"dc:title": ["whale"]})]
    idx = _index(docs)
    results = idx.search(Query((Term("dc:title-en", "whale"),)), 5)
    assert [r.doc_id for r in results] == ["d0", "d1"]


def test_result_cap():
    docs = [_doc(i, **{"dc:title": ["whale"]}) for i in range(10)]
    idx = _index(docs)
    assert len(idx.search(Query((Term("dc:title-en", "whale"),)), 3)) == 3


@pytest.mark.parametrize("k", [0, -1])
def test_search_depth_below_one_is_rejected(k):
    idx = _index([_doc(i, **{"dc:title": ["whale"]}) for i in range(3)])
    with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
        idx.search(Query((Term("dc:title-en", "whale"),)), k)


def _random_query(rng, fields=("chic_all-en", "dc:title-en", "dc:description-en")):
    from conftest import WORDS

    clauses = []
    for _ in range(rng.randint(1, 4)):
        field = rng.choice(fields)
        boost = rng.choice([1.0, 2.0, 0.5])
        if rng.random() < 0.3:
            terms = tuple(rng.sample(WORDS, rng.randint(2, 3)))
            clauses.append(Phrase(field, terms, boost))
        else:
            clauses.append(Term(field, rng.choice(WORDS), boost))
    return Query(tuple(clauses))


@pytest.mark.parametrize("seed", range(8))
def test_search_oracle_randomized(seed):
    rng = random.Random(1000 + seed)
    docs = random_corpus(seed, rng.randint(20, 120))
    idx = _index(docs)
    cut = 0
    for _ in range(12):
        query = _random_query(rng)
        for k in (1000, 3, 1):
            _assert_search_matches_oracle(idx, docs, query, k)
        cut += len(idx.search(query, 1000)) > 3
    assert cut, "no query had more hits than the smaller k"
    _assert_search_matches_oracle(idx, docs, Query((Term("chic_all-en", "zebra"),)))


def test_search_oracle_mixed_languages():
    docs = random_corpus(21, 40) + [
        Document("de-0", "de", {"dc:title": ("Gemälde der Straße",)}),
        Document("de-1", "de", {"dc:title": ("alte Gemälde",)}),
    ]
    idx = _index(docs)
    query = Query((Term("chic_all-de", "Gemälde"),))
    got = [(r.doc_id, r.score) for r in idx.search(query, 10)]
    assert got == naive_search(docs, CHAINS, query, 10)
    assert {d for d, _ in got} == {"de-0", "de-1"}


def _assert_search_matches_oracle(idx, docs, query, k=1000):
    """Same hits as the oracle, each score to the bit, in the two columns
    and as rows, each a ScoredDoc."""
    hits = idx.search(query, k)
    expected = naive_search(docs, CHAINS, query, k)
    assert hits == expected
    assert [(d, repr(s)) for d, s in hits] == [(d, repr(s)) for d, s in expected]
    assert all(type(h) is ScoredDoc for h in hits)
    assert hits.doc_ids == tuple(d for d, _ in expected)
    assert [s.hex() for s in hits.scores] == [s.hex() for _, s in expected]


def test_hits_read_as_scored_doc_rows():
    hits = Hits(["b", "a", "c"], [3.0, 2.0, 2.0])
    assert (hits.doc_ids, hits.scores) == (("b", "a", "c"), (3.0, 2.0, 2.0))
    assert len(hits) == 3
    assert (hits[0], hits[2], hits[-1], hits[-3]) == (
        ScoredDoc("b", 3.0), ScoredDoc("c", 2.0), ScoredDoc("c", 2.0), ScoredDoc("b", 3.0)
    )
    assert type(hits[1]) is ScoredDoc
    for i in (3, -4):
        with pytest.raises(IndexError):
            hits[i]
    tail = hits[1:]
    assert type(tail) is list and tail == [ScoredDoc("a", 2.0), ScoredDoc("c", 2.0)]
    assert all(type(row) is ScoredDoc for row in tail)
    assert hits[::-2] == [ScoredDoc("c", 2.0), ScoredDoc("b", 3.0)] and hits[5:] == []
    assert list(hits) == [ScoredDoc("b", 3.0), ScoredDoc("a", 2.0), ScoredDoc("c", 2.0)]
    assert all(type(row) is ScoredDoc for row in hits)
    assert [ScoredDoc("x", 9.0)] + hits[1:] == [ScoredDoc("x", 9.0), *tail]
    assert not Hits() and len(Hits()) == 0 and list(Hits()) == []


def test_hits_equal_hits_with_equal_columns_and_a_list_of_the_same_rows():
    hits = Hits(["b", "a"], [3.0, 2.0])
    rows = [ScoredDoc("b", 3.0), ScoredDoc("a", 2.0)]
    assert hits == Hits(("b", "a"), (3.0, 2.0)) and hits == rows and rows == hits
    assert hits == [("b", 3.0), ("a", 2.0)]
    assert not hits != rows
    for other in (
        Hits(["b", "a"], [3.0, 2.5]),
        Hits(["a", "b"], [3.0, 2.0]),
        Hits(["b"], [3.0]),
        [ScoredDoc("b", 3.0), ScoredDoc("a", 2.5)],
        rows[:1],
        [],
        (("b", 3.0), ("a", 2.0)),
    ):
        assert hits != other and other != hits
    assert Hits() == [] and Hits() == Hits() and Hits() != Hits(["a"], [1.0])


def test_hits_repr_and_read_only():
    hits = Hits(["a", "b"], [2.0, 1.0])
    assert repr(hits) == "Hits(doc_ids=('a', 'b'), scores=(2.0, 1.0))"
    assert eval(repr(hits), {"Hits": Hits}) == hits
    with pytest.raises(TypeError):
        hits[0] = ScoredDoc("c", 3.0)
    with pytest.raises(TypeError):
        del hits[0]
    assert hits == [ScoredDoc("a", 2.0), ScoredDoc("b", 1.0)]
    with pytest.raises(ValueError, match="2 doc ids for 1 scores"):
        Hits(["a", "b"], [1.0])


# Clauses that match nothing in `random_corpus(31, 80)`: the first clause
# that matches then comes later in the query.
_UNMATCHED_CLAUSES = {
    "unseen term": Term("chic_all-en", "zebra"),
    "stopword-only term": Term("chic_all-en", "the"),
    "unmatched phrase": Phrase("dc:title-en", ("lighthouse", "lighthouse", "lighthouse")),
}


@pytest.mark.parametrize("lead", sorted(_UNMATCHED_CLAUSES))
def test_search_oracle_when_the_first_clause_matches_nothing(lead):
    docs = random_corpus(31, 80)
    idx = _index(docs)
    clause = _UNMATCHED_CLAUSES[lead]
    assert idx.search(Query((clause,)), 10) == []
    rng = random.Random(31)
    for _ in range(12):
        _assert_search_matches_oracle(idx, docs, Query((clause, *_random_query(rng).clauses)))
    others = [c for c in _UNMATCHED_CLAUSES.values() if c != clause]
    _assert_search_matches_oracle(idx, docs, Query((clause, *others, Term("chic_all-en", "whale"))))


def test_search_oracle_with_a_repeated_clause():
    docs = random_corpus(32, 80)
    idx = _index(docs)
    term = Term("chic_all-en", "whale", 2.0)
    phrase = Phrase("chic_all-en", ("railway", "film"))
    for clauses in ((term, term), (term, term, term), (phrase, term, phrase), (term, phrase, term)):
        _assert_search_matches_oracle(idx, docs, Query(clauses))


@pytest.mark.parametrize("boost", [5e-324, 1e308])
def test_search_oracle_with_subnormal_and_overflowing_weights(boost):
    docs = random_corpus(33, 80)
    idx = _index(docs)
    extreme = Term("chic_all-en", "whale", boost)
    plain = Term("chic_all-en", "map")
    phrase = Phrase("chic_all-en", ("film", "poster"), boost)
    for clauses in (
        (extreme,),
        (extreme, plain),
        (plain, extreme),
        (extreme, plain, extreme),
        (phrase, extreme, plain),
        (Term("chic_all-en", "whale", 5e-324), Term("chic_all-en", "whale", 1e308)),
    ):
        _assert_search_matches_oracle(idx, docs, Query(clauses))


def test_snapshot_round_trip(tmp_path):
    docs = random_corpus(5, 50)
    idx = _index(docs)
    path = tmp_path / SNAPSHOT_FILENAME
    idx.save(path)
    loaded = Index.load(path)

    assert loaded.n_docs == idx.n_docs
    assert loaded.doc_ids == idx.doc_ids
    assert loaded.fields == idx.fields
    rng = random.Random(99)
    for _ in range(10):
        query = _random_query(rng)
        assert loaded.search(query, 100) == idx.search(query, 100)
    for field in idx.fields:
        assert loaded.raw_values(field) == idx.raw_values(field)


_VALUES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join) | st.text(max_size=6)
_DOCUMENTS = st.lists(
    st.tuples(
        st.sampled_from(["en", "de"]),
        st.dictionaries(
            st.sampled_from(["dc:title", "dc:subject", "dc:description"]),
            st.lists(_VALUES, min_size=1, max_size=3).map(tuple),
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(drawn=_DOCUMENTS, phrase=st.lists(st.sampled_from(WORDS), min_size=2, max_size=3))
def test_snapshot_round_trip_property(tmp_path_factory, drawn, phrase):
    idx = _index([Document(f"d{i}", lang, fields) for i, (lang, fields) in enumerate(drawn)])
    directory = tmp_path_factory.mktemp("snapshot")
    idx.save(directory / "a.bin")
    loaded = Index.load(directory / "a.bin")

    assert loaded.doc_ids == idx.doc_ids
    assert loaded.fields == idx.fields
    for field in idx.fields:
        assert loaded.raw_values(field) == idx.raw_values(field)
        assert loaded.terms(field) == idx.terms(field)
        queries = [Query((Phrase(field, tuple(phrase)),))]
        for term in idx.terms(field):
            assert loaded.postings(field, term) == idx.postings(field, term)
            queries.append(Query((Term(field, term),)))
        for query in queries:
            assert loaded.search(query, 10) == idx.search(query, 10)
    loaded.save(directory / "b.bin")
    assert (directory / "b.bin").read_bytes() == (directory / "a.bin").read_bytes()


# Table strings: line feeds, NULs, astral code points and empty strings
# often, any other character that is not a surrogate sometimes.
_TABLE_TEXT = st.text(
    st.sampled_from(["\n", "\0", "\U0001f433", "\U0010ffff", "a", "\r"]) | st.characters(exclude_categories=("Cs",)),
    max_size=4,
)


@st.composite
def _table_strings(draw, min_size=0):
    """A sorted table of distinct strings, sometimes every one of them
    holding a U+000A, so that `save` must pick another separator."""
    strings = draw(st.lists(_TABLE_TEXT, min_size=min_size, max_size=5, unique=True))
    if draw(st.booleans()):
        strings = [f"{string}\n" for string in strings]
    return sorted(strings)


@settings(max_examples=200, deadline=None)
@given(
    doc_ids=_table_strings(min_size=1),
    terms=_table_strings(),
    values=_table_strings(),
    stopwords=_table_strings(),
    name=_TABLE_TEXT,
)
def test_snapshot_tables_round_trip_any_strings(tmp_path_factory, doc_ids, terms, values, stopwords, name):
    # each term and raw value on the first document; any table may be empty but the doc ids
    field = f"{name}-en"
    chains = {"en": chain_for("en", frozenset(stopwords))}
    postings = {field: {term: _columns([0], [1], [0]) for term in terms}}
    built = _hand_index(doc_ids, postings, {field: {value: (0,) for value in values}}, chains)
    directory = tmp_path_factory.mktemp("tables")
    built.save(directory / "a.bin")
    data = (directory / "a.bin").read_bytes()
    loaded = Index.load(directory / "a.bin")

    assert loaded.doc_ids == tuple(doc_ids)
    assert loaded.fields == [field]
    assert loaded.terms(field) == terms
    assert loaded.raw_values(field) == dict.fromkeys(values, (0,))
    assert loaded.chains["en"].stopword_list == frozenset(stopwords)
    assert _walk(data)[1] == {"en": terms}
    loaded.save(directory / "b.bin")
    assert (directory / "b.bin").read_bytes() == data


@pytest.mark.parametrize(
    "strings, separator",
    [
        ([], "\n"),
        ([""], "\n"),
        (["x", "y"], "\n"),
        (["a\nb"], "\0"),
        (["\n", "\0"], "\x01"),
        (["\n\0\x01", "\x03"], "\x02"),
        (["\n", "".join(map(chr, range(0xD800)))], "\ue000"),
    ],
    ids=["empty", "one-empty-string", "plain", "line-feed", "line-feed-and-nul", "lowest-free", "past-the-surrogates"],
)
def test_a_table_is_separated_by_a_line_feed_unless_a_string_holds_one(strings, separator):
    out = bytearray()
    index_module._put_table(out, strings)
    assert bytes(out) == _table(*strings, separator=separator)


def test_a_table_holding_every_separator_is_not_saved(monkeypatch):
    # Only a table holding every code point but the surrogates, over a
    # million of them, has no separator; three stand in for them here.
    monkeypatch.setattr(index_module, "_SEPARATORS", (range(3),))
    out = bytearray()
    index_module._put_table(out, ["\x02"])  # U+000A is tried first, and is free
    assert bytes(out) == _table("\x02")
    index_module._put_table(out, ["\x01", "\n\x02"])
    assert bytes(out) == _table("\x02") + _table("\x01", "\n\x02", separator="\0")
    with pytest.raises(DataError, match="^no code point is free to separate the strings of a snapshot table$"):
        index_module._put_table(out, ["\0\x01\x02\n"])


def test_a_concept_value_holding_a_line_feed_saves_and_loads_back(tmp_path):
    docs = [
        Document("d0", "en", {"dc:subject": ("Sea\nstories", "Whaling"), "dc:title": ("Moby-Dick",)}),
        Document("d1", "en", {"dc:subject": ("Whaling",), "enrichment:concept_label": ("\nShips\n",)}),
    ]
    built = _index(docs)
    assert built.raw_values("dc:subject-en") == {"Sea\nstories": (0,), "Whaling": (0, 1)}
    assert built.raw_values("enrichment:concept_label-en") == {"Ships": (1,)}  # stripped, as any value
    path = tmp_path / SNAPSHOT_FILENAME
    built.save(path)
    loaded = Index.load(path)
    for field in built.fields:
        assert loaded.raw_values(field) == built.raw_values(field)
        assert loaded.terms(field) == built.terms(field)
    assert loaded.concept_table("en") == built.concept_table("en")
    loaded.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"not an index at all")
    with pytest.raises(DataError):
        Index.load(path)


def test_snapshot_truncated_or_bit_flipped_raises_only_data_error(tmp_path):
    path = tmp_path / SNAPSHOT_FILENAME
    _index(random_corpus(11, 8)).save(path)
    data = path.read_bytes()
    bad = tmp_path / "bad.bin"
    for cut in range(len(data)):
        bad.write_bytes(data[:cut])
        with pytest.raises(DataError):
            Index.load(bad)
    rng = random.Random(12)
    loaded = 0
    for _ in range(300):
        # a flip before the trailer, re-signed, so the structural checks see it
        flipped = bytearray(data[:-4])
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        bad.write_bytes(_signed(bytes(flipped)))
        try:
            idx = Index.load(bad)
        except DataError:
            continue
        loaded += 1
        # whatever loads must also answer a search on each of its terms
        for field in idx.fields:
            for term in idx.terms(field):
                idx.search(Query((Term(field, term),)), 10)
    assert loaded


def test_snapshot_rejects_trailing_bytes(tmp_path):
    path = tmp_path / SNAPSHOT_FILENAME
    _index(random_corpus(13, 5)).save(path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DataError):
        Index.load(path)


def _checksum_message(path):
    crc = "[0-9a-f]{8}"
    return rf"^{re.escape(str(path))}: malformed index snapshot: checksum mismatch \(CRC-32 {crc}, stored {crc}\)$"


def test_snapshot_rejects_every_single_bit_flip(tmp_path):
    path = _narrow_snapshot(tmp_path)
    data = path.read_bytes()
    bad = tmp_path / "bad.bin"
    header = len(SNAPSHOT_MAGIC) + 4
    for i in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[i] ^= 1 << bit
            bad.write_bytes(bytes(flipped))
            # a flip in the magic or the version is caught first, by them
            match = _checksum_message(bad) if i >= header else "not an index snapshot|unsupported snapshot version"
            with pytest.raises(DataError, match=match):
                Index.load(bad)


@pytest.mark.parametrize("cut", [1, 2, 3, 4], ids=lambda cut: f"cut-{cut}")
def test_snapshot_rejects_a_cut_trailer(tmp_path, cut):
    path = _narrow_snapshot(tmp_path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(DataError, match=_checksum_message(path)):
        Index.load(path)


@pytest.mark.parametrize("extra", [b"\0", b"\0\0\0\0", b"SPXINDEX"])
def test_snapshot_rejects_bytes_after_its_trailer(tmp_path, extra):
    path = _narrow_snapshot(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data + extra)
    with pytest.raises(DataError, match=_checksum_message(path)):
        Index.load(path)
    # signed again over the extra bytes, they are caught as bytes after the last item
    path.write_bytes(_signed(data + extra))
    with pytest.raises(DataError, match=f"ends at byte {len(data) - 4} of {len(data) + len(extra)}$"):
        Index.load(path)


def test_snapshot_too_short_for_its_trailer_is_rejected(tmp_path):
    path = tmp_path / SNAPSHOT_FILENAME
    header = SNAPSHOT_MAGIC + _u32s(SNAPSHOT_VERSION)
    for tail in (b"", b"\0", b"\0\0\0"):
        path.write_bytes(header + tail)
        with pytest.raises(DataError, match=f"snapshot: 4 bytes at byte 12 run past byte {12 + len(tail)}$"):
            Index.load(path)
    # the smallest signed file: a trailer over the header alone
    path.write_bytes(_signed(header))
    with pytest.raises(DataError, match="malformed index snapshot: 4 bytes at byte 12 run past byte 12$"):
        Index.load(path)


def test_snapshot_deterministic_bytes(tmp_path):
    docs = random_corpus(6, 30)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    _index(docs).save(a)
    _index(docs).save(b)
    assert a.read_bytes() == b.read_bytes()


def test_query_validation():
    with pytest.raises(ValueError):
        Query(())
    with pytest.raises(ValueError):
        Term("f", "x", 0.0)
    with pytest.raises(ValueError):
        Phrase("f", (), 1.0)
    for boost in (math.inf, -math.inf, math.nan, -1.0):
        with pytest.raises(ValueError):
            Term("f", "x", boost)
        with pytest.raises(ValueError):
            Phrase("f", ("x", "y"), boost)


def test_scoreddoc_order_contract():
    docs = [
        _doc(0, **{"dc:title": ["whale whale whale"]}),
        _doc(1, **{"dc:title": ["whale"]}),
        _doc(2, **{"dc:title": ["whale whale"]}),
    ]
    idx = _index(docs)
    results = idx.search(Query((Term("dc:title-en", "whale"),)), 10)
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)
    assert [r.doc_id for r in results] == ["d0", "d2", "d1"]


def _columns(docs, tfs, positions):
    return (array("I", docs), array("I", tfs), array("I", positions))


_GOOD = _columns([0, 1], [1, 2], [0, 0, 2])


def _hand_index(doc_ids, fields, values=None, chains=None):
    """An index made by the constructor from hand-made columns: `fields`
    maps a field to term -> (docs, tfs, positions), `values` a field to
    raw value -> doc ordinals; one "en" chain unless `chains` is given."""
    chains = chains or {"en": chain_for("en")}
    return Index(doc_ids, *_records(fields, values or {}, chains), chains)


def _u32s(*values):
    return struct.pack(f"<{len(values)}I", *values)


def _byte_column(*values):
    """A column of values below 256 as written: width 1, count, bytes."""
    return _u32s(1, len(values)) + bytes(values)


def _table(*strings, separator="\n"):
    """A table as written: count, separator code point, byte count, then
    each string's UTF-8 followed by the separator's."""
    blob = "".join(string + separator for string in strings).encode("utf-8")
    return _u32s(len(strings), ord(separator), len(blob)) + blob


def _signed(body):
    """`body` followed by the trailer `save` appends: its CRC-32."""
    return body + _u32s(zlib.crc32(body))


def _patched(data, old, new):
    """The snapshot `data` with the one place before its trailer that
    holds `old` replaced by `new`, re-signed, so that only the structural
    checks can reject it."""
    body = data[:-4]
    assert body.count(old) == 1
    return _signed(body.replace(old, new))


# Each case is (columns of term "x", raw-value docs of "x", field, patch).
# Term "y" always holds _GOOD, so in a valid snapshot the field's `starts`
# column is [0, 2, 4] and its language's term table is `_table("x", "y")`;
# the one language table is `_table("en")`, and that language's
# stopword table follows it. Every column holds values below 256,
# so each is written 1 byte per value. A patch is (old
# bytes, new bytes, expected error): the test saves a valid snapshot,
# replaces the one place holding the old bytes and re-signs it.
_INCONSISTENT = [
    (_columns([0, 2], [1, 1], [0, 0]), (0,), "t-en", None),  # ordinal >= n_docs
    (_columns([1, 0], [1, 1], [0, 0]), (0,), "t-en", None),  # not ascending
    (_columns([1, 1], [1, 1], [0, 0]), (0,), "t-en", None),  # repeated doc
    (_columns([0, 1], [0, 2], [0, 1]), (0,), "t-en", None),  # tf 0
    (_columns([0, 1], [1, 2], [0, 1]), (0,), "t-en", None),  # tfs != positions
    (_GOOD, (0, 2), "t-en", None),  # raw-value ordinal >= n_docs
    (_GOOD, (1, 0), "t-en", None),  # raw-value ordinals not ascending
    (_GOOD, (0,), "t-en", (_byte_column(0, 2, 4), _byte_column(0, 5, 4), "bad posting start")),
    (_GOOD, (0,), "t-en", (_byte_column(0, 2, 4), _byte_column(0, 2, 3), "disagree with their offsets")),
    (_GOOD, (0,), "t-en", (b"x\ny\n", b"x\nx\n", "terms .* not strictly ascending")),
    (_GOOD, (0,), "t-en", (_table("x", "y"), _u32s(3, 10, 4) + b"x\ny\n", "string count disagrees with its blob$")),
    (_GOOD, (0,), "t-en", (_table("x", "y"), _u32s(1, 10, 4) + b"x\ny\n", "string count disagrees with its blob$")),
    (_GOOD, (0,), "t-en", (_table("x", "y"), _u32s(2, 10, 4) + b"x\nyy", "table does not end with its separator$")),
    (_GOOD, (0,), "t-en", (_table("x", "y"), _u32s(2, 10, 3) + b"x\ny", "table does not end with its separator$")),
    (_GOOD, (0,), "t-en", (_table("x", "y"), _u32s(2, 32, 4) + b"x\ny\n", "table does not end with its separator$")),
    (_GOOD, (0,), "t-en", (_table("x", "y"), _u32s(2, 0xD800, 4) + b"x\ny\n", "separator 0xd800 is a surrogate or above")),
    (_GOOD, (0,), "t-en", (_table("x", "y"), _u32s(2, 0xDFFF, 4) + b"x\ny\n", "separator 0xdfff is a surrogate or above")),
    (_GOOD, (0,), "t-en", (_table("x", "y"), _u32s(2, 0x110000, 4) + b"x\ny\n", "separator 0x110000 is a surrogate or above")),
    (_GOOD, (0,), "t-en", (_table("en"), _table("fr"), "no analyzer profile for language 'fr'")),
    (_GOOD, (0,), "t-en", (b"t-en", b"t-fr", "no analyzer chain for field 't-fr'")),
    (_GOOD, (0,), "t-en", (_byte_column(1, 2, 1, 2), _u32s(4, 4, 2**31, 2**31, 1, 2), "tfs of field 't-en' hold a 0 or disagree")),
    (
        _GOOD,
        (0,),
        "t-en",
        (
            b"x\n" + _byte_column(0, 1) + _byte_column(0),
            b"x\n" + _byte_column(0, 2) + _byte_column(0),
            "raw values of field 't-en' disagree with their offsets$",
        ),
    ),
]
_PATCHED_IDS = [
    "descending-offsets",
    "last-offset-not-column-length",
    "repeated-term",
    "count-above-the-blob",
    "count-below-the-blob",
    "blob-not-terminated",
    "blob-cut-before-its-last-separator",
    "separator-not-in-the-blob",
    "separator-first-surrogate",
    "separator-last-surrogate",
    "separator-above-U+10FFFF",
    "language-without-profile",
    "field-without-chain",
    "tf-sum-beyond-u32",
    "raw-value-offsets-past-their-docs",
]


@pytest.mark.parametrize(
    "columns, raw_docs, field, patch",
    _INCONSISTENT,
    # The unpatched cases keep the ids they had when each case also named
    # a stage list. The field-without-chain case, which the constructor
    # rejects, is "field-without-chain".
    ids=[
        f"columns{i}-raw_docs{i}-stages{i}-{case[2]}"
        for i, case in zip(range(7), _INCONSISTENT[:7])
    ]
    + _PATCHED_IDS,
)
def test_snapshot_rejects_inconsistent_contents(tmp_path, columns, raw_docs, field, patch):
    idx = _hand_index(["d0", "d1"], {field: {"x": columns, "y": _GOOD}}, {field: {"x": raw_docs}})
    path = tmp_path / SNAPSHOT_FILENAME
    idx.save(path)
    match = None
    if patch:
        old, new, match = patch
        path.write_bytes(_patched(path.read_bytes(), old, new))
    with pytest.raises(DataError, match=match) as raised:
        Index.load(path)
    assert str(raised.value).startswith(f"{path}: malformed index snapshot: ")


def test_snapshot_rejects_positions_beyond_what_the_tfs_cover(tmp_path):
    idx = _hand_index(["d0", "d1"], {"t-en": {"x": _columns([0, 1], [1, 1], [0, 0, 2])}})
    path = tmp_path / SNAPSHOT_FILENAME
    idx.save(path)
    with pytest.raises(DataError, match="tfs of field 't-en' hold a 0 or disagree with its positions"):
        Index.load(path)


@pytest.mark.parametrize("delta", [1, -1])
def test_snapshot_rejects_tfs_one_off_their_positions_in_a_field_read_only_by_doc(tmp_path, delta):
    # dc:description-en (a field with tfs of 2) is never read
    # positionally here; load derives no offsets but still checks its tfs
    docs = random_corpus(43, 30)
    built = _index(docs)
    field = "dc:description-en"
    columns = built._fields[field]
    tfs = array("I", columns.tfs)
    i = next(j for j, tf in enumerate(tfs) if tf + delta > 0)
    tfs[i] += delta
    assert sum(tfs) == len(columns.positions) + delta
    fields = {name: built._fields[name] for name in built.fields}
    fields[field] = columns._replace(tfs=tfs)
    path = tmp_path / SNAPSHOT_FILENAME
    Index(built.doc_ids, built._term_tables, fields, built.chains).save(path)
    with pytest.raises(DataError) as raised:
        Index.load(path)
    assert str(raised.value) == (
        f"{path}: malformed index snapshot: tfs of field {field!r} hold a 0 or disagree with its positions"
    )
    # unpatched, the same snapshot loads and single-term reads of the field agree
    built.save(path)
    loaded = Index.load(path)
    for term in built.terms(field):
        query = Query((Term(field, term),))
        assert loaded.search(query, 100) == built.search(query, 100)


def test_snapshot_rejects_repeated_doc_ids(tmp_path):
    path = tmp_path / SNAPSHOT_FILENAME
    _index([_doc(0, **{"dc:title": ["whale"]}), _doc(1, **{"dc:title": ["ship"]})]).save(path)
    path.write_bytes(_patched(path.read_bytes(), b"d0\nd1\n", b"d0\nd0\n"))
    with pytest.raises(DataError) as raised:
        Index.load(path)
    assert str(raised.value) == f"{path}: malformed index snapshot: repeated doc_id 'd0'"


def test_constructor_rejects_a_repeated_doc_id():
    terms, fields = _records({"t-en": {"x": _GOOD}}, {}, ["en"])
    with pytest.raises(DuplicateDocumentError, match="^repeated doc_id 'd1'$"):
        Index(["d0", "d1", "d2", "d1"], terms, fields, {"en": chain_for("en")})


def test_constructor_rejects_unique_doc_ids_out_of_order():
    terms, fields = _records({"t-en": {"x": _GOOD}}, {}, ["en"])
    with pytest.raises(DataError, match="^doc_ids are not in ascending order$") as raised:
        Index(["d0", "d2", "d1"], terms, fields, {"en": chain_for("en")})
    assert not isinstance(raised.value, DuplicateDocumentError)


def test_build_numbers_documents_in_doc_id_order(tmp_path):
    docs = random_corpus(21, 40)
    shuffled = list(docs)
    random.Random(21).shuffle(shuffled)
    built = _index(shuffled)
    assert list(built.doc_ids) == sorted(d.doc_id for d in docs)
    _index(docs).save(tmp_path / "a.bin")
    built.save(tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_constructor_rejects_a_field_whose_language_has_no_chain():
    terms, fields = _records({"t-en": {"x": _GOOD}, "t-de": {"x": _GOOD}}, {}, ["en"])
    with pytest.raises(DataError, match="^no analyzer chain for field 't-de'$"):
        Index(["d0", "d1"], terms, fields, {"en": chain_for("en")})


def test_snapshot_accepts_the_valid_columns(tmp_path):
    idx = _hand_index(["d0", "d1"], {"t-en": {"x": _GOOD}}, {"t-en": {"x": (0,)}})
    path = tmp_path / SNAPSHOT_FILENAME
    idx.save(path)
    loaded = Index.load(path)
    assert [(p.doc, p.positions) for p in loaded.postings("t-en", "x")] == [(0, (0,)), (1, (0, 2))]


def _walk(data):
    """(spans, language terms) of a version 9 snapshot, read by walking
    the layout README "Snapshot format" gives: spans holds the (start,
    end, width, values) of every column in file order, where
    data[start:end] holds the column's width, count and values; language
    terms maps each language to its term table."""
    assert data == _signed(data[:-4])
    offset = len(SNAPSHOT_MAGIC) + 4
    spans = []

    def u32():
        nonlocal offset
        offset += 4
        return struct.unpack_from("<I", data, offset - 4)[0]

    def column():
        nonlocal offset
        start = offset
        width, n = u32(), u32()
        code = {1: "B", 2: "H", 4: "I"}[width]
        values = struct.unpack_from(f"<{n}{code}", data, offset)
        offset += width * n
        spans.append((start, offset, width, values))
        return values

    def table():
        nonlocal offset
        n, separator, size = u32(), chr(u32()), u32()
        text = data[offset : offset + size].decode("utf-8")
        offset += size
        strings, start = [], 0
        for end, char in enumerate(text):
            if char == separator:
                strings.append(text[start:end])
                start = end + 1
        assert start == len(text) and len(strings) == n
        return strings

    lang_terms = {}
    for lang in table():  # languages
        table()  # stopwords
        lang_terms[lang] = table()  # terms
    table()  # doc_ids
    for _ in table():  # fields
        column()  # term ordinals
        for _ in range(4):  # starts, docs, tfs, positions
            column()
        table()  # raw values
        column()  # raw-value starts
        column()  # raw-value docs
    assert offset == len(data) - 4  # the CRC-32 trailer follows
    return spans, lang_terms


def _column_spans(data):
    """(start, end, width, values) of every column of a version 9
    snapshot, in file order."""
    return _walk(data)[0]


def _stored_columns(data):
    """(width, values) of every column of a version 9 snapshot, in file
    order."""
    return [(width, values) for _, _, width, values in _column_spans(data)]


def _widened(data, width):
    """The snapshot `data` with every column narrower than `width` bytes
    per value written at `width`, re-signed: what a writer that does not
    narrow would write."""
    code = {2: "H", 4: "I"}[width]
    out, done = bytearray(), 0
    for start, end, stored, values in _column_spans(data):
        if stored < width:
            out += data[done:start] + _u32s(width, len(values)) + struct.pack(f"<{len(values)}{code}", *values)
            done = end
    return _signed(bytes(out + data[done:-4]))


def _smallest_width(values):
    return min(w for w in (1, 2, 4) if max(values, default=0) < 256**w)


# Column maxima on both sides of each width's limit.
_ORDINAL_COUNTS = st.sampled_from([1, 2, 256, 257, 65536, 65537])
_TFS = st.sampled_from([1, 2, 255, 256, 65535, 65536])
_TOP_POSITIONS = st.sampled_from([0, 1, 255, 256, 65535, 65536, 2**32 - 2, 2**32 - 1])
_VALUE_LENGTHS = st.sampled_from([1, 255, 256, 65535, 65536])


@st.composite
def _wide_indexes(draw):
    """An index of one field "t-en" whose terms "x" and "y" (and "z" on
    every doc, if drawn) and raw values hold column maxima drawn from
    both sides of 255/256, 65,535/65,536 and 2**32 - 1. Filler terms on
    doc 0, if drawn, bring the largest term ordinal to either side of
    255/256."""
    n_docs = draw(_ORDINAL_COUNTS)
    ordinals = sorted({0, 1, n_docs // 2, n_docs - 2, n_docs - 1} & set(range(n_docs)))
    terms = {}
    for term in ("x", "y"):
        docs = draw(st.lists(st.sampled_from(ordinals), min_size=1, unique=True).map(sorted))
        tfs, positions = [], []
        for _ in docs:
            tf, top = draw(_TFS), draw(_TOP_POSITIONS)
            first = max(0, top - tf + 1)
            tfs.append(tf)
            positions.extend(range(first, first + tf))
        terms[term] = _columns(docs, tfs, positions)
    if draw(st.booleans()):
        terms["z"] = _columns(range(n_docs), [1] * n_docs, [0] * n_docs)
    for i in range(draw(st.sampled_from([0, 253, 254]))):
        terms[f"f{i:03d}"] = _columns([0], [1], [0])
    values = {
        "v" * draw(_VALUE_LENGTHS): tuple(sorted(draw(st.sets(st.sampled_from(ordinals), min_size=1)))),
        "w": (n_docs - 1,),
    }
    doc_ids = [f"d{i:05d}" for i in range(n_docs)]
    return _hand_index(doc_ids, {"t-en": terms}, {"t-en": values})


@settings(max_examples=40, deadline=None)
@given(idx=_wide_indexes())
def test_snapshot_stores_each_column_at_the_smallest_width_that_fits(tmp_path_factory, idx):
    directory = tmp_path_factory.mktemp("widths")
    idx.save(directory / "a.bin")
    data = (directory / "a.bin").read_bytes()
    loaded = Index.load(directory / "a.bin")

    for term in ("x", "y"):  # "z" is one position per doc, left to search
        assert loaded.postings("t-en", term) == idx.postings("t-en", term)
    queries = [Query((Term("t-en", term),)) for term in idx.terms("t-en")]
    queries.append(Query((Phrase("t-en", ("x", "y")),)))
    for query in queries:
        assert loaded.search(query, 10) == idx.search(query, 10)
    assert loaded.raw_values("t-en") == idx.raw_values("t-en")

    for width, values in _stored_columns(data):
        assert width == _smallest_width(values)
    # a built index and a loaded one hold each column at the same width
    built, read = idx._fields["t-en"], loaded._fields["t-en"]
    columns = ("ordinals", "starts", "docs", "tfs", "positions", "value_starts", "value_docs")
    for name in columns:
        column = getattr(built, name)
        assert column.itemsize == getattr(read, name).itemsize == _smallest_width(column)

    loaded.save(directory / "b.bin")
    assert (directory / "b.bin").read_bytes() == data
    # the bytes do not depend on the width a column is held at
    wide = built._replace(**{name: array("I", getattr(built, name)) for name in columns})
    Index(idx.doc_ids, idx._term_tables, {"t-en": wide}, idx.chains).save(directory / "c.bin")
    assert (directory / "c.bin").read_bytes() == data


@pytest.mark.parametrize("width", [2, 4])
def test_a_snapshot_with_columns_wider_than_needed_loads_as_the_narrow_one(tmp_path, width):
    idx = _index(random_corpus(5, 50))
    narrow_path, wide_path = tmp_path / "narrow.bin", tmp_path / "wide.bin"
    idx.save(narrow_path)
    narrow = narrow_path.read_bytes()
    wide_path.write_bytes(_widened(narrow, width))
    assert {stored for stored, _ in _stored_columns(wide_path.read_bytes())} == {width}
    loaded, wide = Index.load(narrow_path), Index.load(wide_path)

    assert wide.doc_ids == loaded.doc_ids
    assert wide.fields == loaded.fields
    for field in loaded.fields:
        assert wide.raw_values(field) == loaded.raw_values(field)
        assert wide.terms(field) == loaded.terms(field)
    assert any(loaded.raw_values(field) for field in loaded.fields)
    rng = random.Random(width)
    for _ in range(20):
        query = _random_query(rng)
        assert wide.search(query, 100) == loaded.search(query, 100)
    wide.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == narrow


def _wide_inconsistent(top):
    """Cases of `test_snapshot_rejects_inconsistent_columns_written_wide`
    for columns `width` bytes wide, given `top` = 256**(width - 1): only a
    column's high byte tells top + j from j. Each is (docs of term "x",
    its tfs, docs of raw value "v", expected error); "x" has positions
    [0, 0, 1, 0] and term "y" holds each of the three documents once."""
    docs, tfs, raw_docs = (0, 1, 2), (1, 2, 1), (0, 2)
    ordinals = "bad doc ordinals in field 't-en'$"
    return {
        "descending-run": ((0, 2, 1), tfs, raw_docs, ordinals),
        "repeated-doc": ((0, 1, 1), tfs, raw_docs, ordinals),
        "ordinal-not-below-n_docs": ((0, 1, top + 2), tfs, raw_docs, ordinals),
        "ordinal-not-below-n_docs-mid-run": ((0, top + 1, 2), tfs, raw_docs, ordinals),
        "tf-0": (docs, (0, 3, 1), raw_docs, "tfs of field 't-en' hold a 0 or disagree with its positions$"),
        "raw-value-ordinal-not-below-n_docs": (
            docs, tfs, (0, top + 2), "bad doc ordinals for the raw values of field 't-en'$"
        ),
    }


@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("case", list(_wide_inconsistent(1)))
def test_snapshot_rejects_inconsistent_columns_written_wide(tmp_path, width, case):
    docs, tfs, raw_docs, match = _wide_inconsistent(256 ** (width - 1))[case]
    terms = {"x": _columns(docs, tfs, [0, 0, 1, 0]), "y": _columns([0, 1, 2], [1, 1, 1], [0, 0, 0])}
    idx = _hand_index(["d0", "d1", "d2"], {"t-en": terms}, {"t-en": {"v": raw_docs}})
    path = tmp_path / SNAPSHOT_FILENAME
    idx.save(path)
    path.write_bytes(_widened(path.read_bytes(), width))
    with pytest.raises(DataError, match=match) as raised:
        Index.load(path)
    assert str(raised.value).startswith(f"{path}: malformed index snapshot: ")


def test_rises_reads_little_endian_items():
    assert _rises(array("B", [3, 5, 5, 4, 255, 0])) == bytes([1, 0, 0, 1, 0])
    # Items whose high and low bytes disagree on the order.
    assert _rises(array("H", [256, 255, 65535, 0])) == bytes([0, 1, 0])
    assert _rises(array("I", [2**24, 2**24 - 1, 2**32 - 1])) == bytes([0, 1])
    assert _rises(array("H")) == _rises(array("H", [1])) == b""


def test_holds_zero_reads_whole_items():
    assert not _holds_zero(array("H", [1, 256]))  # zero bytes, no zero item
    assert _holds_zero(array("H", [256, 0]))
    assert not _holds_zero(array("I", [2**24, 256]))
    assert _holds_zero(array("I", [1, 0, 2**32 - 1]))
    assert _holds_zero(array("B", [1, 0])) and not _holds_zero(array("B", [1, 2]))
    assert not _holds_zero(array("I"))


@st.composite
def _rise_columns(draw):
    """(values, chunk): a column of typecode B, H or I, its items drawn
    toward 0 and the typecode's largest, and sometimes sorted; 0 to 3
    items long or within two items of one or two chunks, for a
    `_RISE_CHUNK` of `chunk`."""
    code = draw(st.sampled_from("BHI"))
    top = 256 ** array(code).itemsize - 1
    chunk = draw(st.sampled_from([1, 2, 3, 4, 4096]))
    near_edges = st.builds(lambda k, d: max(0, k * chunk + d), st.integers(1, 2), st.integers(-2, 2))
    length = draw(st.integers(0, 3) | near_edges)
    edges = [0, 1, top - 1, top]
    item = st.sampled_from(edges) | st.integers(0, top)
    head = draw(st.lists(item, min_size=min(length, 12), max_size=min(length, 12)))
    rng = draw(st.randoms(use_true_random=False))
    tail = [rng.choice(edges) if rng.random() < 0.5 else rng.randint(0, top) for _ in range(length - len(head))]
    values = head + tail
    if draw(st.booleans()):
        values.sort()
    return array(code, values), chunk


@settings(max_examples=300, deadline=None)
@given(case=_rise_columns())
def test_rises_and_descends_agree_with_the_oracles(case):
    values, chunk = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "_RISE_CHUNK", chunk)
        assert _rises(values) == naive_rises(values)
        assert _descends(values) == naive_descends(values)


@st.composite
def _runs(draw):
    """(values, starts, limit): a column of typecode B, H or I cut into
    runs, with values drawn toward 0 and the typecode's largest, empty
    runs (repeated starts), and a limit often the column's largest value
    or one more."""
    code = draw(st.sampled_from("BHI"))
    top = 256 ** array(code).itemsize - 1
    item = st.sampled_from([0, 1, top - 1, top]) | st.integers(0, top)
    ascending = draw(st.booleans())
    values, starts = [], [0]
    for run in draw(st.lists(st.lists(item, max_size=9), max_size=8)):
        if ascending or draw(st.integers(0, 3)):
            run = sorted(set(run))
        values += run
        starts.append(len(values))
    largest = max(values, default=0)
    limit = draw(st.sampled_from([largest, largest + 1]) | st.integers(0, top + 1))
    return array(code, values), array("I", starts), limit


@settings(max_examples=300, deadline=None)
@given(runs=_runs(), chunk=st.sampled_from([1, 2, 3, 4, 4096]))
def test_ascending_runs_below_agrees_with_the_oracle(runs, chunk):
    values, starts, limit = runs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "_RISE_CHUNK", chunk)
        got = _ascending_runs_below(values, starts, limit)
    assert got == naive_ascending_runs_below(values, starts, limit)


@pytest.mark.parametrize("code", ["B", "H", "I"])
def test_ascending_runs_below_across_chunk_edges(code):
    chunk = index_module._RISE_CHUNK
    n = 3 * chunk + 2
    scale = (256 ** array(code).itemsize - 1) // 255  # 1, 257 or 16843009: every byte varies
    ascending = array(code, [(j % 200) * scale for j in range(n)])
    starts = list(range(0, n, 200)) + [n]
    limit = 199 * scale + 1
    assert _ascending_runs_below(ascending, array("I", starts), limit) is True
    assert _ascending_runs_below(ascending, array("I", starts), limit - 1) is False
    # A descent at pair p (values[p + 1] <= values[p]) on or next to a
    # chunk edge passes only where a run starts at p + 1.
    for p in (chunk - 2, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, n - 2):
        values = array(code, ascending)
        values[p + 1] = values[p]
        assert _ascending_runs_below(values, array("I", starts), limit) is False
        cut = array("I", sorted(starts + [p + 1]))
        assert _ascending_runs_below(values, cut, limit) is True
        assert naive_ascending_runs_below(values, cut, limit) is True
    # Each item at a multiple of 200 is below the one before it: the
    # first such item past a chunk edge needs its run start.
    first_past_edge = next(start for start in starts if start > chunk)
    without = array("I", [start for start in starts if start != first_past_edge])
    assert _ascending_runs_below(ascending, without, limit) is False


def _narrow_snapshot(tmp_path, stopwords=None):
    """A valid snapshot whose every column is 1 byte per value."""
    idx = _hand_index(
        ["d0", "d1"], {"t-en": {"x": _GOOD, "y": _GOOD}}, {"t-en": {"x": (0,)}}, {"en": chain_for("en", stopwords)}
    )
    path = tmp_path / "index" / SNAPSHOT_FILENAME
    path.parent.mkdir()
    idx.save(path)
    return path


def _assert_malformed(path, capsys, match):
    """`Index.load` raises a DataError naming the snapshot, and `index
    search` on it exits 2 with that message."""
    with pytest.raises(DataError, match=match) as raised:
        Index.load(path)
    assert str(raised.value).startswith(f"{path}: malformed index snapshot: ")
    queries = path.parent.parent / "queries.tsv"
    queries.write_text("T-000\tt-en:(x)\n", encoding="utf-8")
    code = main(["index", "search", "--index", str(path.parent), "--query-file", str(queries)])
    assert code == 2
    assert str(raised.value) in capsys.readouterr().err


@pytest.mark.parametrize("width", [0, 3, 8])
def test_snapshot_rejects_a_column_width_other_than_1_2_or_4(tmp_path, capsys, width):
    path = _narrow_snapshot(tmp_path)
    path.write_bytes(_patched(path.read_bytes(), _byte_column(0, 2, 4), _u32s(width, 3) + bytes([0, 2, 4])))
    _assert_malformed(path, capsys, f"column width {width} is not 1, 2 or 4$")


def test_snapshot_rejects_a_narrow_column_that_runs_past_the_end(tmp_path, capsys):
    # The last column, the raw-value docs (0,), holds one byte; at width 2
    # its one value needs two.
    path = _narrow_snapshot(tmp_path)
    body = path.read_bytes()[:-4]
    assert body.endswith(_byte_column(0))
    path.write_bytes(_signed(body[:-9] + _u32s(2, 1) + b"\0"))
    end = len(body)
    _assert_malformed(path, capsys, f"2 bytes at byte {end - 1} run past byte {end}$")


@pytest.mark.parametrize("words", [("the", "of"), ("of", "of")], ids=["out-of-order", "repeated-word"])
def test_snapshot_rejects_a_stopword_table_not_strictly_ascending(tmp_path, capsys, words):
    path = _narrow_snapshot(tmp_path, frozenset({"of", "the"}))
    path.write_bytes(_patched(path.read_bytes(), _table("of", "the"), _table(*words)))
    _assert_malformed(path, capsys, "stopwords of language 'en' not strictly ascending$")


# In a `_narrow_snapshot`, the field names' blob "t-en\n" is followed by
# the field's term-ordinal column: "x" and "y" are terms 0 and 1 of the
# language table `_table("x", "y")`.
_NARROW_ORDINALS = b"t-en\n" + _byte_column(0, 1)
_NARROW_TERM_TABLE = _table("x", "y")


@pytest.mark.parametrize("ordinals", [(0, 2), (1, 1), (1, 0)], ids=["not-below-the-table", "repeated", "descending"])
def test_snapshot_rejects_bad_term_ordinals(tmp_path, capsys, ordinals):
    path = _narrow_snapshot(tmp_path)
    path.write_bytes(_patched(path.read_bytes(), _NARROW_ORDINALS, b"t-en\n" + _byte_column(*ordinals)))
    _assert_malformed(path, capsys, "bad term ordinals in field 't-en'$")


@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("case", ["not-below-the-table", "descending"])
def test_snapshot_rejects_bad_term_ordinals_written_wide(tmp_path, capsys, width, case):
    # Only the high byte of each bad column tells it from [0, 1].
    top = 256 ** (width - 1)
    ordinals = (0, top + 1) if case == "not-below-the-table" else (top, 1)
    path = _narrow_snapshot(tmp_path)
    path.write_bytes(_widened(path.read_bytes(), width))
    code = {2: "H", 4: "I"}[width]
    good, bad = (b"t-en\n" + _u32s(width, 2) + struct.pack(f"<2{code}", *values) for values in ((0, 1), ordinals))
    path.write_bytes(_patched(path.read_bytes(), good, bad))
    _assert_malformed(path, capsys, "bad term ordinals in field 't-en'$")


@pytest.mark.parametrize("terms", [("y", "x"), ("x", "x")], ids=["out-of-order", "repeated-term"])
def test_snapshot_rejects_a_language_term_table_not_strictly_ascending(tmp_path, capsys, terms):
    path = _narrow_snapshot(tmp_path)
    path.write_bytes(_patched(path.read_bytes(), _NARROW_TERM_TABLE, _table(*terms)))
    _assert_malformed(path, capsys, "terms of language 'en' not strictly ascending$")


def test_a_language_term_no_field_names_loads_and_re_saves_to_its_own_bytes(tmp_path):
    # "w" joins the language table before "x" and "y"; the field's
    # ordinals move up one place to keep naming them.
    path = _narrow_snapshot(tmp_path)
    original = Index.load(path)
    data = _patched(path.read_bytes(), _NARROW_TERM_TABLE, _table("w", "x", "y"))
    path.write_bytes(_patched(data, _NARROW_ORDINALS, b"t-en\n" + _byte_column(1, 2)))
    loaded = Index.load(path)
    assert loaded.terms("t-en") == original.terms("t-en") == ["x", "y"]
    for query in (Query((Term("t-en", "x"),)), Query((Phrase("t-en", ("x", "y")),)), Query((Term("t-en", "w"),))):
        assert loaded.search(query, 10) == original.search(query, 10)
    assert loaded.postings("t-en", "w") == ()
    assert _walk(path.read_bytes())[1] == {"en": ["w", "x", "y"]}
    loaded.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("separator", ["\0", "z", "\U0010ffff"])
def test_a_table_with_another_free_separator_loads_and_re_saves_with_a_line_feed(tmp_path, separator):
    path = _narrow_snapshot(tmp_path)
    data = path.read_bytes()
    original = Index.load(path)
    path.write_bytes(_patched(data, _NARROW_TERM_TABLE, _table("x", "y", separator=separator)))
    loaded = Index.load(path)
    assert loaded.terms("t-en") == original.terms("t-en") == ["x", "y"]
    query = Query((Phrase("t-en", ("x", "y")),))
    assert loaded.search(query, 10) == original.search(query, 10)
    loaded.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == data


def test_snapshot_rejects_a_field_whose_language_has_no_table_before_reading_it(tmp_path, capsys):
    path = _narrow_snapshot(tmp_path)
    # The field's term-ordinal column gets width 3, which reading it rejects.
    path.write_bytes(_patched(path.read_bytes(), _NARROW_ORDINALS, b"t-fr\n" + _u32s(3, 2) + bytes([0, 1])))
    _assert_malformed(path, capsys, "no analyzer chain for field 't-fr'$")


@pytest.mark.parametrize("version, directory", OLDER_SNAPSHOTS)
def test_snapshot_of_an_older_version_is_rejected(version, directory):
    assert len(OLDER_SNAPSHOTS) == SNAPSHOT_VERSION - 1  # one fixture per older version
    path = directory / SNAPSHOT_FILENAME
    assert path.read_bytes()[: len(SNAPSHOT_MAGIC) + 4] == SNAPSHOT_MAGIC + struct.pack("<I", version)
    with pytest.raises(DataError, match=rf"unsupported snapshot version {version} \(expected {SNAPSHOT_VERSION};"):
        Index.load(path)


def test_snapshot_of_version_9_loads(tmp_path):
    # tests/data/index_v9: `index build --stopwords stopwords.txt` over
    # docs.jsonl (three en and three de documents, not in doc_id order);
    # a fresh build must write the same bytes
    data = Path(__file__).parent / "data" / "index_v9"
    path = data / SNAPSHOT_FILENAME
    assert SNAPSHOT_VERSION == 9
    assert path.read_bytes()[: len(SNAPSHOT_MAGIC) + 4] == SNAPSHOT_MAGIC + struct.pack("<I", 9)
    stopwords = load_stopwords(data / "stopwords.txt")
    chains = {lang: chain_for(lang, stopwords) for lang in ("de", "en")}
    loaded = Index.load(path)
    assert loaded.chains == chains
    assert loaded.doc_ids == ("de-1", "de-2", "de-3", "en-1", "en-2", "en-3")
    fresh = build_index(ingest_documents(data / "docs.jsonl").documents, chains)
    fresh.save(tmp_path / SNAPSHOT_FILENAME)
    assert (tmp_path / SNAPSHOT_FILENAME).read_bytes() == path.read_bytes()
    queries = [
        Query((Term("enrichment:concept_label-en", "whales"), Phrase("chic_all-en", ("sea", "stories")))),
        Query((Term("chic_all-en", "the"), Phrase("dc:title-en", ("Moby", "Dick's")))),
        Query((Phrase("dc:title-de", ("alte", "Mann")), Term("chic_all-de", "Häuser"))),
        Query((Term("chic_all-de", "Meer"), Term("dc:description-de", "über"))),
    ]
    for query in queries:
        assert loaded.search(query, 10) == fresh.search(query, 10)
    assert [len(loaded.search(query, 10)) for query in queries] == [3, 1, 2, 2]


def test_snapshot_of_version_9_re_saves_to_its_own_bytes(tmp_path):
    data = Path(__file__).parent / "data" / "index_v9"
    committed = (data / SNAPSHOT_FILENAME).read_bytes()
    loaded = Index.load(data / SNAPSHOT_FILENAME)
    path = tmp_path / SNAPSHOT_FILENAME
    loaded.save(path)
    assert path.read_bytes() == committed
    again = Index.load(path)
    assert again.doc_ids == loaded.doc_ids and again.fields == loaded.fields
    for field in loaded.fields:
        assert again.terms(field) == loaded.terms(field)
        assert again.raw_values(field) == loaded.raw_values(field)
    assert loaded.raw_values("dc:subject-en") == {"Fishing": (4,), "Sea stories": (3, 4), "Whaling": (3,)}
    assert "whale" in loaded.terms("dc:title-en")
    queries = [Query((Term("dc:title-en", "whale"),)), Query((Phrase("chic_all-en", ("sea", "stories")),))]
    for query in queries:
        assert again.search(query, 10) == loaded.search(query, 10)
    assert [len(loaded.search(query, 10)) for query in queries] == [2, 2]  # "Whaling" stems to "whale"
    documents = ingest_documents(data / "docs.jsonl").documents
    for lang in ("de", "en"):
        assert again.concept_table(lang) == loaded.concept_table(lang)
        value_df, doc_values = loaded.concept_table(lang)
        assert (value_df, {doc: set(values) for doc, values in doc_values.items()}) == naive_concept_table(
            documents, lang
        )
    # reads leave what `save` writes as it was
    loaded.save(path)
    assert path.read_bytes() == committed


def test_a_chain_with_no_stopwords_survives_save_and_load(tmp_path):
    chains = {"en": chain_for("en", frozenset())}
    docs = [_doc(0, **{"dc:title": ["the whale"]}), _doc(1, **{"dc:title": ["a whale"]})]
    fresh = build_index(docs, chains)
    fresh.save(tmp_path / SNAPSHOT_FILENAME)
    loaded = Index.load(tmp_path / SNAPSHOT_FILENAME)
    assert loaded.chains == chains
    assert loaded.chains["en"].stopword_list == frozenset()
    query = Query((Phrase("dc:title-en", ("the", "whale")),))
    assert [hit.doc_id for hit in loaded.search(query, 10)] == ["d0"]
    assert loaded.search(query, 10) == fresh.search(query, 10)


def test_only_concept_fields_keep_raw_values(tmp_path):
    fields = ("dc:title", "dc:description", "dc:creator", *CONCEPT_FIELDS)
    rng = random.Random(7)
    docs = [
        Document(
            f"d{i}",
            lang,
            {name: tuple(rng.choice(WORDS) for _ in range(rng.randint(1, 2))) for name in fields},
        )
        for i, lang in enumerate(["en", "de"] * 15)
    ]
    built = _index(docs)
    built.save(tmp_path / SNAPSHOT_FILENAME)
    loaded = Index.load(tmp_path / SNAPSHOT_FILENAME)
    concept = {f"{name}-{lang}" for name in CONCEPT_FIELDS for lang in ("en", "de")}
    for idx in (built, loaded):
        assert {f for f in idx.fields if idx.raw_values(f)} == concept
    for lang in ("en", "de"):
        topic = Topic("T", " ".join(rng.sample(WORDS, 2)), lang)
        cfg = CooccurConfig(top_k=1000)
        expected = naive_str_scores(docs, topic, CHAINS[lang], cfg.input_fields, cfg.concept_fields)
        got = suggest_str(loaded, topic, cfg)
        assert expected and dict(got.suggestions) == expected


def test_postings_are_read_back_from_the_columns():
    idx = _index(
        [
            _doc(0, **{"dc:title": ["whale ship whale"]}),
            _doc(1, **{"dc:title": ["ship"]}),
            _doc(2, **{"dc:title": ["whale"], "dc:description": ["old whale"]}),
        ]
    )
    assert [(p.doc, p.positions, p.tf) for p in idx.postings("dc:title-en", "whale")] == [
        (0, (0, 2), 2),
        (2, (0,), 1),
    ]
    assert [(p.doc, p.positions) for p in idx.postings("chic_all-en", "whale")] == [
        (0, (0, 2)),
        (2, (1, 3)),  # schema order: description "old whale", gap, title "whale"
    ]
    assert idx.postings("dc:title-en", "zebra") == ()


# A few words, so that terms repeat within a value and across values and
# fields ("whales" stems to "whale"); "the", "der" and "--" analyze to
# nothing; "a:note" is a lax field outside the schema, so it goes last
# in the union field although its name sorts first.
_ORACLE_WORDS = st.sampled_from(["whale", "whales", "ship", "sea", "Haus", "the", "der", "--"])
_ORACLE_DOCUMENTS = st.lists(
    st.tuples(
        st.sampled_from(["en", "de"]),
        st.dictionaries(
            st.sampled_from(["dc:title", "dc:description", "dc:subject", "a:note"]),
            st.lists(st.lists(_ORACLE_WORDS, max_size=4).map(" ".join), min_size=1, max_size=3).map(tuple),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(drawn=_ORACLE_DOCUMENTS)
def test_postings_match_the_oracle_token_streams(drawn):
    docs = [Document(f"d{i}", lang, fields) for i, (lang, fields) in enumerate(drawn)]
    idx = _index(docs)
    expected: dict[str, dict[str, dict[int, list[int]]]] = {}
    for ordinal, doc in enumerate(sorted(docs, key=lambda doc: doc.doc_id)):
        for field, pairs in field_token_positions(doc, CHAINS[doc.lang]).items():
            terms = expected.setdefault(field, {})
            for term, position in pairs:
                terms.setdefault(term, {}).setdefault(ordinal, []).append(position)
    assert idx.fields == sorted(expected)
    for field, terms in expected.items():
        assert idx.terms(field) == sorted(terms)
        for term, per_doc in terms.items():
            postings = [(p.doc, p.positions, p.tf) for p in idx.postings(field, term)]
            assert postings == [(doc, tuple(ps), len(ps)) for doc, ps in per_doc.items()]


# Two languages; "a:b" is a lax field whose name sorts before the union
# field's.
_LEXICON_DOCUMENTS = st.lists(
    st.tuples(
        st.sampled_from(["en", "de"]),
        st.dictionaries(
            st.sampled_from(["a:b", "dc:title", "dc:subject"]),
            st.lists(st.lists(_ORACLE_WORDS, max_size=4).map(" ".join), min_size=1, max_size=2).map(tuple),
            max_size=3,
        ),
    ),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(drawn=_LEXICON_DOCUMENTS)
def test_a_languages_fields_share_one_term_table(tmp_path_factory, drawn):
    docs = [Document(f"d{i}", lang, fields) for i, (lang, fields) in enumerate(drawn)]
    docs.append(Document("z", "de", {"dc:creator": ("der",)}))  # a field with no terms
    idx = _index(docs)
    directory = tmp_path_factory.mktemp("lexicon")
    idx.save(directory / "a.bin")
    data = (directory / "a.bin").read_bytes()
    loaded = Index.load(directory / "a.bin")

    assert loaded.fields == idx.fields
    assert loaded.terms("dc:creator-de") == []
    _, lang_terms = _walk(data)
    assert sorted(lang_terms) == ["de", "en"]
    for lang, table in lang_terms.items():
        fields = [field for field in idx.fields if field.endswith(f"-{lang}")]
        # exactly the terms of the language's fields: none unused
        assert table == sorted(set().union(*map(idx.terms, fields)))
        shared = {}
        for field in fields:
            assert loaded.terms(field) == idx.terms(field)
            for term in loaded.terms(field):
                # every field holds the table's one string for a term
                assert shared.setdefault(term, term) is term
    loaded.save(directory / "b.bin")
    assert (directory / "b.bin").read_bytes() == data


def test_phrase_of_a_repeated_token_counts_overlapping_matches():
    docs = [
        _doc(0, **{"dc:title": ["whale whale whale"]}),
        _doc(1, **{"dc:title": ["whale ship whale"]}),
        _doc(2, **{"dc:title": ["ship"]}),
    ]
    idx = _index(docs)
    query = Query((Phrase("dc:title-en", ("whale", "whale")),))
    results = idx.search(query, 10)
    idf = 1.0 + math.log(3 / 2)
    assert results == [ScoredDoc("d0", math.sqrt(2) * idf)]
    assert [(r.doc_id, r.score) for r in results] == naive_search(docs, CHAINS, query, 10)


def _repetitive_corpus(rng, size):
    """Short fields over a small vocabulary with one dominant word, so
    words repeat within and across values."""
    vocab = ["whale", "ship", "map", "harbor", "castle"]
    weights = [8, 3, 2, 1, 1]

    def value():
        return " ".join(rng.choices(vocab, weights, k=rng.randint(1, 5)))

    docs = []
    for i in range(size):
        fields = {"dc:title": (value(),)}
        if rng.random() < 0.8:
            fields["dc:description"] = tuple(value() for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.5:
            fields["dc:subject"] = tuple(value() for _ in range(rng.randint(2, 3)))
        docs.append(Document(f"r{i:03d}", "en", fields))
    return docs, vocab, weights


@pytest.mark.parametrize("seed", range(6))
def test_phrase_search_oracle_on_repeated_words(seed):
    rng = random.Random(500 + seed)
    docs, vocab, weights = _repetitive_corpus(rng, rng.randint(15, 60))
    idx = _index(docs)
    fields = ("chic_all-en", "dc:title-en", "dc:description-en", "dc:subject-en")
    phrases = [
        ("whale", "whale"),
        ("whale", "whale", "whale"),
        ("whale", "ship"),  # most common token first
        ("whale", "castle", "whale"),
    ]
    phrases += [tuple(rng.choices(vocab, weights, k=rng.randint(2, 4))) for _ in range(10)]
    # phrases across the boundary of two values of a multi-valued field
    for doc in docs[:10]:
        for values in doc.fields.values():
            if len(values) > 1:
                phrases.append((values[0].split()[-1], values[1].split()[0]))
    for terms in phrases:
        clauses = [Phrase(rng.choice(fields), terms, rng.choice([0.5, 1.0, 2.0]))]
        if rng.random() < 0.5:
            clauses.append(Term(rng.choice(fields), rng.choice(vocab), 1.5))
        query = Query(tuple(clauses))
        got = [(r.doc_id, r.score) for r in idx.search(query, 1000)]
        assert got == naive_search(docs, CHAINS, query, 1000)


# -- phrase memo --------------------------------------------------------

_MEMO_DOCS = random_corpus(31, 30)
_MEMO_FIELDS = ("chic_all-en", "dc:title-en", "dc:description-en")


def _adjacent_pairs(docs):
    """Pairs of `WORDS` that occur next to each other in some value."""
    pairs = set()
    for doc in docs:
        for values in doc.fields.values():
            for value in values:
                words = value.split()
                pairs.update(p for p in zip(words, words[1:]) if set(p) <= set(WORDS))
    return sorted(pairs)


# Phrases that match (adjacent pairs, some widened to three words) and
# phrases that do not (a pair reversed is rarely adjacent too).
_MEMO_PHRASES = _adjacent_pairs(_MEMO_DOCS)[::4][:12]
_MEMO_PHRASES += [pair + (WORDS[i],) for i, pair in enumerate(_MEMO_PHRASES[:3])]
_MEMO_PHRASES += [(b, a) for a, b in _MEMO_PHRASES[:4]]

# Term texts: single words, phrases' words as one text (the memo key
# of a Term and a Phrase with equal text is the same), and texts that
# analyze to nothing.
_MEMO_TEXTS = [*WORDS[:12], *(" ".join(terms) for terms in _MEMO_PHRASES[:6]), "the", "of the", "..."]
_MEMO_BOOSTS = [0.5, 1.0, 2.0]

_MEMO_CLAUSES = st.one_of(
    st.builds(
        Phrase,
        st.sampled_from(_MEMO_FIELDS),
        st.sampled_from(_MEMO_PHRASES),
        st.sampled_from(_MEMO_BOOSTS),
    ),
    st.builds(
        Term,
        st.sampled_from(_MEMO_FIELDS),
        st.sampled_from(_MEMO_TEXTS),
        st.sampled_from(_MEMO_BOOSTS),
    ),
)
_MEMO_QUERIES = st.lists(
    st.lists(_MEMO_CLAUSES, min_size=1, max_size=3).map(Query), min_size=1, max_size=8
)
_PAIR = _MEMO_PHRASES[0]


@settings(max_examples=40, deadline=None)
@given(queries=_MEMO_QUERIES)
# a Term whose text is a Phrase's text, in either order
@example(queries=[Query((Phrase("chic_all-en", _PAIR),)), Query((Term("chic_all-en", " ".join(_PAIR)),))])
@example(queries=[Query((Term("chic_all-en", " ".join(_PAIR), 2.0),)), Query((Phrase("chic_all-en", _PAIR, 2.0),))])
# one text at two boosts, in one query and across queries
@example(queries=[Query((Term("chic_all-en", WORDS[0], 0.5), Term("chic_all-en", WORDS[0], 2.0)))] * 2)
# a clause that analyzes to nothing, alone and beside one that matches
@example(queries=[Query((Term("dc:title-en", "the"),)), Query((Term("dc:title-en", "the"), Term("dc:title-en", WORDS[0])))])
def test_repeated_phrases_score_as_on_a_fresh_index(tmp_path_factory, queries):
    built = _index(_MEMO_DOCS)
    path = tmp_path_factory.mktemp("memo") / SNAPSHOT_FILENAME
    built.save(path)
    loaded = Index.load(path)
    for query in queries:
        expected = naive_search(_MEMO_DOCS, CHAINS, query, 1000)
        assert [(r.doc_id, r.score) for r in _index(_MEMO_DOCS).search(query, 1000)] == expected
        assert [(r.doc_id, r.score) for r in built.search(query, 1000)] == expected
        assert [(r.doc_id, r.score) for r in loaded.search(query, 1000)] == expected
    # an unknown field raises on every call, however full the memo
    unknown = Query((Term("chic_all-en", WORDS[0]), Term("dc:nosuch-en", WORDS[0])))
    for idx in (built, loaded, built, loaded):
        with pytest.raises(UnknownFieldError):
            idx.search(unknown, 10)


def test_phrase_memo_keeps_fields_and_indexes_apart():
    docs = [
        _doc(0, **{"dc:title": ["whale ship"], "dc:description": ["ship whale"]}),
        _doc(1, **{"dc:title": ["old map"], "dc:description": ["whale ship"]}),
        _doc(2, **{"dc:title": ["whale ship harbor"]}),
    ]
    other_docs = [
        _doc(5, **{"dc:title": ["a whale ship"]}),
        _doc(6, **{"dc:title": ["ship"], "dc:description": ["whale"]}),
    ]
    idx, other = _index(docs), _index(other_docs)
    queries = [
        Query((Phrase(field, ("whale", "ship")),)) for field in ("dc:title-en", "dc:description-en")
    ]
    for query in queries * 2:
        for index, its_docs in ((idx, docs), (other, other_docs)):
            got = [(r.doc_id, r.score) for r in index.search(query, 10)]
            assert got == naive_search(its_docs, CHAINS, query, 10)
    assert [r.doc_id for r in idx.search(queries[0], 10)] == ["d0", "d2"]
    assert [r.doc_id for r in idx.search(queries[1], 10)] == ["d1"]
    assert [r.doc_id for r in other.search(queries[0], 10)] == ["d5"]
    assert other.search(queries[1], 10) == []


def test_phrase_memo_stops_growing_once_its_budget_is_spent(monkeypatch):
    monkeypatch.setattr(index_module, "CLAUSE_MEMO_BUDGET", 6)
    docs = random_corpus(32, 40)
    idx = _index(docs)
    phrases = _adjacent_pairs(docs)
    phrases += [(b, a) for a, b in phrases]
    queries = [Query((Phrase("chic_all-en", terms),)) for terms in phrases]
    for query in queries:
        got = [(r.doc_id, r.score) for r in idx.search(query, 1000)]
        assert got == naive_search(docs, CHAINS, query, 1000)
        assert sum(1 + len(entry[0]) if entry else 1 for entry in idx._clause_memo.values()) <= 6
    full = dict(idx._clause_memo)
    assert 0 < len(full) < len(queries)
    assert idx._clause_memo_room == 0
    for query in queries + [Query((Phrase("chic_all-en", ("film", "whale", "map")),))]:
        got = [(r.doc_id, r.score) for r in idx.search(query, 1000)]
        assert got == naive_search(docs, CHAINS, query, 1000)
    assert idx._clause_memo == full


def test_single_token_entries_cost_one_unit_and_leave_room_for_phrases(monkeypatch):
    monkeypatch.setattr(index_module, "CLAUSE_MEMO_BUDGET", 4)
    docs = random_corpus(33, 40)
    idx = _index(docs)
    common = max(WORDS, key=lambda word: len(idx.term_docs(["chic_all-en"], word)))
    pair = next(p for p in _adjacent_pairs(docs) if len(idx.doc_set("chic_all-en", p)) == 1)
    term, phrase = Term("chic_all-en", common), Phrase("chic_all-en", pair)
    assert len(idx.term_docs(["chic_all-en"], common)) > 4
    for query in [Query((term,)), Query((phrase, term)), Query((Term("chic_all-en", "the"),))] * 2:
        got = [(r.doc_id, r.score) for r in idx.search(query, 1000)]
        assert got == naive_search(docs, CHAINS, query, 1000)
    # the term's entry points into its field's columns; the phrase's
    # holds its one matched doc, so it costs 2
    assert set(idx._clause_memo) == {("chic_all-en", text, 1.0) for text in (common, phrase.text, "the")}
    assert idx._clause_memo_room == 0


# -- position offsets ---------------------------------------------------


def _title_pairs(docs):
    """Adjacent word pairs of the documents' titles."""
    pairs = set()
    for doc in docs:
        words = doc.fields["dc:title"][0].split()
        pairs.update(zip(words, words[1:]))
    return sorted(pairs)


def test_only_positional_reads_derive_position_offsets(tmp_path, monkeypatch):
    calls = []
    derive = index_module._pos_starts

    def counted(starts, tfs):
        calls.append(len(tfs))
        return derive(starts, tfs)

    monkeypatch.setattr(index_module, "_pos_starts", counted)
    docs = random_corpus(42, 80)
    built = _index(docs)
    path = tmp_path / SNAPSHOT_FILENAME
    built.save(path)
    loaded = Index.load(path)
    assert calls == []
    assert loaded._position_offsets == {}

    terms = [Query((Term(field, word),)) for field in ("chic_all-en", "dc:title-en") for word in WORDS[:8]]
    terms.append(Query((Term("dc:title-en", "whale"), Term("chic_all-en", "the whale"))))
    for query in terms:
        _assert_search_matches_oracle(loaded, docs, query)
    assert loaded.doc_set("chic_all-en", ["whale", "ship"], "any")
    assert any(loaded.raw_values(field) for field in loaded.fields)
    assert loaded.concept_table("en")[0]
    topic = Topic("T", "whale ship", "en")
    assert suggest_str(loaded, topic).suggestions == suggest_str(built, topic).suggestions
    assert calls == []

    first, second = _title_pairs(docs)[:2]
    phrases = [Query((Phrase("dc:title-en", first),)), Query((Phrase("dc:title-en", second),))]
    for query in phrases:
        _assert_search_matches_oracle(loaded, docs, query)
    assert len(calls) == 1
    derived = list(loaded._position_offsets)
    assert derived == ["dc:title-en"]
    phrases.append(Query((Phrase("chic_all-en", first),)))
    _assert_search_matches_oracle(loaded, docs, phrases[-1])
    assert len(calls) == 2

    assert all(loaded.search(query, 1000) for query in phrases)
    for query in terms + phrases:
        hits, expected = loaded.search(query, 1000), built.search(query, 1000)
        assert hits == expected
        assert [s.hex() for s in hits.scores] == [s.hex() for s in expected.scores]
    assert len(calls) == 2 + 2  # the built index derives its two fields' offsets once each


def test_a_loaded_index_read_positionally_in_another_field_order_agrees(tmp_path):
    docs = random_corpus(44, 50)
    built = _index(docs)
    built.save(tmp_path / SNAPSHOT_FILENAME)
    loaded = Index.load(tmp_path / SNAPSHOT_FILENAME)
    pair = _title_pairs(docs)[0]
    # built reads field A before field B; loaded reads B first, then A
    order = ["chic_all-en", "dc:description-en", "dc:title-en"]
    reads = {}
    for idx, fields in ((built, order), (loaded, order[::-1])):
        for field in fields:
            postings = {term: idx.postings(field, term) for term in idx.terms(field)}
            hits = idx.search(Query((Phrase(field, pair),)), 1000)
            reads.setdefault(field, []).append((postings, hits.doc_ids, [s.hex() for s in hits.scores]))
        if idx is loaded:
            unread = set(idx.fields) - set(idx._position_offsets)
            assert unread == set(idx.fields) - set(order)
    for field, (from_built, from_loaded) in reads.items():
        assert from_loaded == from_built
    assert any(hits for _, hits, _ in reads["dc:title-en"])



# -- lookup maps --------------------------------------------------------


def _with_ordinals(idx):
    """The fields of `idx` that hold a term -> ordinal dict."""
    return set(idx._term_ordinals)


def _assert_str_matches_oracle(idx, docs, topic, cfg):
    """`suggest_str` gives the oracle's values, ranks and scores, to the
    bit for `log_jaccard` and as the exact fraction for `jaccard`."""
    log = cfg.similarity == "log_jaccard"
    expected = naive_str_scores(docs, topic, CHAINS[topic.lang], cfg.input_fields, cfg.concept_fields, log=log)
    ranked = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[: cfg.top_k]
    got = suggest_str(idx, topic, cfg).suggestions
    assert [(s.text, s.score) for s in got] == ranked
    assert [type(s.score) for s in got] == [type(score) for _, score in ranked]
    if log:
        assert [s.score.hex() for s in got] == [score.hex() for _, score in ranked]
    return got


def test_load_builds_no_lookup_maps_and_each_read_builds_its_own(tmp_path, monkeypatch):
    docs = random_corpus(46, 80)
    built = _index(docs)
    path = tmp_path / SNAPSHOT_FILENAME
    built.save(path)
    for idx in (built, Index.load(path)):
        assert _with_ordinals(idx) == set()
        assert {field for field, record in idx._fields.items() if record.values} == {
            f"{name}-en" for name in CONCEPT_FIELDS
        }
        for field, record in idx._fields.items():
            assert type(record) is _Field and type(record.ordinals) is array
            values, starts, value_docs = record.values, record.value_starts, record.value_docs
            assert type(starts) is array and type(value_docs) is array
            assert len(starts) == len(values) + 1 and starts[-1] == len(value_docs)
            assert list(values) == sorted(idx.raw_values(field))

    loaded = Index.load(path)
    query = Query((Term("chic_all-en", "whale"),))
    _assert_search_matches_oracle(loaded, docs, query)
    assert _with_ordinals(loaded) == {"chic_all-en"}
    assert loaded.search(query, 1000) == built.search(query, 1000)

    calls = []
    doc_set = Index.doc_set
    monkeypatch.setattr(Index, "doc_set", lambda idx, *args: calls.append(args) or doc_set(idx, *args))
    loaded = Index.load(path)
    for title in ("whale", "film canada", "ocean zebra", "poster museum map"):
        topic = Topic("T", title, "en")
        for similarity in ("jaccard", "log_jaccard"):
            cfg = CooccurConfig(similarity=similarity, top_k=1000)
            got = _assert_str_matches_oracle(loaded, docs, topic, cfg)
            assert got == suggest_str(built, topic, cfg).suggestions
            assert got or title == "ocean zebra"
    assert _with_ordinals(loaded) == {"dc:title-en", "dc:description-en"}
    assert calls == []



_CONCEPT_VALUES = st.sampled_from(["sea", " sea ", "Sea", "sea stories", "Meer", "  ", "\t"]) | st.text(max_size=4)
_CONCEPT_DOCUMENTS = st.lists(
    st.tuples(
        st.sampled_from(["en", "de"]),
        st.dictionaries(
            st.sampled_from(["dc:title", *CONCEPT_FIELDS]),
            st.lists(_CONCEPT_VALUES, min_size=1, max_size=3).map(tuple),
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(drawn=_CONCEPT_DOCUMENTS)
@example(  # one value in both concept fields of a document, and in one field of another
    drawn=[("en", {"dc:subject": ("sea", "ship"), "enrichment:concept_label": (" sea",)}), ("en", {"dc:subject": ("sea",)})]
)
@example(  # whitespace-only values; "de" has no concept field
    drawn=[("en", {"dc:subject": ("  ", "sea"), "enrichment:concept_label": ("\t",)}), ("de", {"dc:title": ("Meer",)})]
)
def test_concept_table_is_each_documents_trimmed_concept_values(tmp_path_factory, drawn):
    docs = [Document(f"d{i}", lang, fields) for i, (lang, fields) in enumerate(drawn)]
    built = _index(docs)
    path = tmp_path_factory.mktemp("concepts") / SNAPSHOT_FILENAME
    built.save(path)
    for idx in (built, Index.load(path)):
        for lang in ("en", "de"):
            expected_df, expected_values = naive_concept_table(docs, lang)
            value_df, doc_values = idx.concept_table(lang)
            assert value_df == expected_df
            assert {doc: set(values) for doc, values in doc_values.items()} == expected_values
            assert all(len(set(values)) == len(values) for values in doc_values.values())


_TFS = st.sampled_from([1, 255, 256]) | st.integers(1, 300)


@st.composite
def _tf_runs(draw):
    """One field's tfs, term by term: drawn toward 1, 255 and 256, so the
    column is 1 or 2 bytes wide, or all 1; with empty runs (terms with no
    posting) and at times a single term."""
    tf = st.just(1) if draw(st.booleans()) else _TFS
    return draw(st.lists(st.lists(tf, max_size=6), min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(runs=_tf_runs())
@example(runs=[[1, 1, 1]])
@example(runs=[[255], [256, 1]])
@example(runs=[[255, 255], [], [1]])
@example(runs=[[]])
def test_position_offsets_are_a_running_sum_of_tfs(tmp_path_factory, runs):
    tfs = [tf for run in runs for tf in run]
    starts = [0]
    for run in runs:
        starts.append(starts[-1] + len(run))
    expected = naive_pos_starts(starts, tfs)
    narrow_starts, narrow_tfs = _narrowed(array("I", starts)), _narrowed(array("I", tfs))
    assert narrow_tfs.itemsize == (2 if any(tf > 255 for tf in tfs) else 1)
    assert _pos_starts(narrow_starts, narrow_tfs) == expected

    # the same columns as a field: every posting's positions read back
    terms, offset = {}, 0
    for i, run in enumerate(runs):
        positions = [p for tf in run for p in range(offset, offset + tf)]
        offset += 1
        terms[f"t{i}"] = _columns(range(len(run)), run, positions)
    n_docs = max(map(len, runs))
    built = _hand_index([f"d{i}" for i in range(n_docs)], {"t-en": terms})
    path = tmp_path_factory.mktemp("offsets") / SNAPSHOT_FILENAME
    built.save(path)
    for idx in (built, Index.load(path)):
        assert "t-en" not in idx._position_offsets
        for term, (docs, term_tfs, positions) in terms.items():
            postings = idx.postings("t-en", term)
            assert [p.doc for p in postings] == list(docs)
            assert [p.tf for p in postings] == list(term_tfs)
            assert [q for p in postings for q in p.positions] == list(positions)
        assert list(idx._position_offsets["t-en"]) == expected
