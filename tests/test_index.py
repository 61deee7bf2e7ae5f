import math
import random
import struct
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORDS, random_corpus
from oracles import field_token_positions, naive_search
from sparse_expand.analysis import chain_for
from sparse_expand.corpus import Document
from sparse_expand.errors import (
    AnalysisError,
    DataError,
    EmptyCorpusError,
    UnknownFieldError,
)
from sparse_expand.analysis import AnalyzerChain
from sparse_expand.index import (
    SNAPSHOT_FILENAME,
    SNAPSHOT_MAGIC,
    Index,
    Phrase,
    Query,
    ScoredDoc,
    Term,
    build_index,
)

CHAINS = {"en": chain_for("en"), "de": chain_for("de")}


def _index(docs):
    return build_index(docs, CHAINS)


def _doc(i, **fields):
    return Document(f"d{i}", "en", {k: tuple(v) for k, v in fields.items()})


def test_build_single_doc_all_field():
    idx = _index([_doc(0, **{"dc:title": ["moby dick"]})])
    assert idx.df("chic_all-en", "moby") == 1
    (posting,) = idx.postings("chic_all-en", "mobi")
    assert posting.positions == (0,)


def test_build_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        build_index([], CHAINS)


def test_df_counts_documents():
    idx = _index(
        [_doc(0, **{"dc:title": ["map of town"]}), _doc(1, **{"dc:title": ["old map"]})]
    )
    assert idx.df("dc:title-en", "map") == 2


def test_missing_chain_for_language():
    doc = Document("d0", "fr", {"dc:title": ("bonjour",)})
    with pytest.raises(DataError):
        build_index([doc], CHAINS)


def test_search_single_match():
    idx = _index([_doc(0, **{"dc:title": ["moby dick"]})])
    results = idx.search(Query((Term("chic_all-en", "Moby"),)), 10)
    assert len(results) == 1
    assert results[0].doc_id == "d0"
    assert results[0].score > 0


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
    assert idx.df("chic_all-en", "zebra") == 0


def test_df_fixture_count():
    docs = [
        _doc(i, **{"dc:title": ["harbor light" if i < 5 else "quiet village"]})
        for i in range(20)
    ]
    idx = _index(docs)
    assert idx.df("dc:title-en", "harbor") == 5


def test_df_analyzes_raw_term():
    idx = _index([_doc(0, **{"dc:title": ["dick the sailor"]})])
    assert idx.df("dc:title-en", "Dick's") == 1


def test_df_multi_token_raises():
    idx = _index([_doc(0, **{"dc:title": ["whale"]})])
    with pytest.raises(AnalysisError):
        idx.df("dc:title-en", "two words")
    with pytest.raises(AnalysisError):
        idx.df("dc:title-en", "the")


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
        idx.df("dc:subject-en", "whale")
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
    for _ in range(12):
        query = _random_query(rng)
        got = [(r.doc_id, r.score) for r in idx.search(query, 1000)]
        assert got == naive_search(docs, CHAINS, query, 1000)


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
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        bad.write_bytes(bytes(flipped))
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


def _u32s(*values):
    return struct.pack(f"<{len(values)}I", *values)


# Each case is (columns of term "x", raw-value docs of "x", stages, field,
# patch). Term "y" always holds _GOOD, so in a valid snapshot the field's
# `starts` column is [0, 2, 4] and its terms table is lengths [1, 1] with
# blob "xy". A patch is (old bytes, new bytes, expected error): the test
# saves a valid snapshot and replaces the one place holding the old bytes.
_INCONSISTENT = [
    (_columns([0, 2], [1, 1], [0, 0]), (0,), ("tokenize",), "t-en", None),  # ordinal >= n_docs
    (_columns([1, 0], [1, 1], [0, 0]), (0,), ("tokenize",), "t-en", None),  # not ascending
    (_columns([1, 1], [1, 1], [0, 0]), (0,), ("tokenize",), "t-en", None),  # repeated doc
    (_columns([0, 1], [0, 2], [0, 1]), (0,), ("tokenize",), "t-en", None),  # tf 0
    (_columns([0, 1], [1, 2], [0, 1]), (0,), ("tokenize",), "t-en", None),  # tfs != positions
    (_GOOD, (0, 2), ("tokenize",), "t-en", None),  # raw-value ordinal >= n_docs
    (_GOOD, (1, 0), ("tokenize",), "t-en", None),  # raw-value ordinals not ascending
    (_GOOD, (0,), ("tokenize", "mystery"), "t-en", None),  # unknown stage
    (_GOOD, (0,), ("tokenize",), "t-fr", None),  # no chain for the field
    (_GOOD, (0,), ("tokenize",), "t-en", (_u32s(3, 0, 2, 4), _u32s(3, 0, 5, 4), "bad posting start")),
    (_GOOD, (0,), ("tokenize",), "t-en", (_u32s(3, 0, 2, 4), _u32s(3, 0, 2, 3), "disagree with their offsets")),
    (_GOOD, (0,), ("tokenize",), "t-en", (b"xy", b"xx", "terms .* not strictly ascending")),
    (_GOOD, (0,), ("tokenize",), "t-en", (_u32s(2, 1, 1, 2) + b"xy", _u32s(2, 1, 2, 2) + b"xy", "string lengths")),
]
_PATCHED_IDS = ["descending-offsets", "last-offset-not-column-length", "repeated-term", "lengths-disagree-with-blob"]


@pytest.mark.parametrize(
    "columns, raw_docs, stages, field, patch",
    _INCONSISTENT,
    # The unpatched cases keep the ids they had before the patch cases.
    ids=[f"columns{i}-raw_docs{i}-stages{i}-{case[3]}" for i, case in enumerate(_INCONSISTENT[:9])]
    + _PATCHED_IDS,
)
def test_snapshot_rejects_inconsistent_contents(tmp_path, columns, raw_docs, stages, field, patch):
    idx = Index(
        doc_ids=["d0", "d1"],
        doc_langs=["en", "en"],
        postings={field: {"x": columns, "y": _GOOD}},
        raw_values={field: {"x": raw_docs}},
        chains={"en": AnalyzerChain("en", stages)},
    )
    path = tmp_path / SNAPSHOT_FILENAME
    idx.save(path)
    match = None
    if patch:
        old, new, match = patch
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
    with pytest.raises(DataError, match=match):
        Index.load(path)


def test_snapshot_rejects_repeated_doc_ids(tmp_path):
    idx = Index(
        doc_ids=["d0", "d0"],
        doc_langs=["en", "en"],
        postings={"t-en": {"x": _GOOD}},
        raw_values={},
        chains={"en": AnalyzerChain("en", ("tokenize",))},
    )
    path = tmp_path / SNAPSHOT_FILENAME
    idx.save(path)
    with pytest.raises(DataError, match="repeated doc_id"):
        Index.load(path)


def test_snapshot_accepts_the_valid_columns(tmp_path):
    idx = Index(
        doc_ids=["d0", "d1"],
        doc_langs=["en", "en"],
        postings={"t-en": {"x": _GOOD}},
        raw_values={"t-en": {"x": (0,)}},
        chains={"en": AnalyzerChain("en", ("tokenize",))},
    )
    path = tmp_path / SNAPSHOT_FILENAME
    idx.save(path)
    loaded = Index.load(path)
    assert [(p.doc, p.positions) for p in loaded.postings("t-en", "x")] == [(0, (0,)), (1, (0, 2))]


def test_snapshot_of_version_1_is_rejected():
    path = Path(__file__).parent / "data" / "index_v1" / SNAPSHOT_FILENAME
    assert path.read_bytes()[: len(SNAPSHOT_MAGIC) + 4] == SNAPSHOT_MAGIC + struct.pack("<I", 1)
    with pytest.raises(DataError, match="unsupported snapshot version 1"):
        Index.load(path)


def test_snapshot_of_version_2_is_rejected():
    # tests/data/index_v2/index.bin: two documents, written by the version 2 format
    path = Path(__file__).parent / "data" / "index_v2" / SNAPSHOT_FILENAME
    assert path.read_bytes()[: len(SNAPSHOT_MAGIC) + 4] == SNAPSHOT_MAGIC + struct.pack("<I", 2)
    with pytest.raises(DataError, match="unsupported snapshot version 2"):
        Index.load(path)


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
