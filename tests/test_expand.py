import logging
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_build_query, naive_combo, naive_parse_query
from sparse_expand import expand
from sparse_expand.analysis import chain_for
from sparse_expand.corpus import Topic
from sparse_expand.errors import DataError, EmptyQueryError
from sparse_expand.expand import (
    ExpansionConfig,
    build_query,
    combo_merge,
    parse_query,
    read_query_file,
    serialize_query,
    write_query_file,
)
from sparse_expand.index import Phrase, Query, Term
from sparse_expand.suggestions import make_suggestion_set

MOBY_CONCEPTS = [
    "Herman Melville",
    "English language",
    "Adventure novel",
    "Sea story",
    "Richard Bentley",
    "Harper Brothers",
    "The Great American Novel",
    "literature",
    "Ishmael (Moby-Dick)",
]


def _set(topic_id, system, texts):
    return make_suggestion_set(
        topic_id, system, [(t, 1.0 / (i + 1)) for i, t in enumerate(texts)]
    )


def test_build_query_worked_example():
    topic = Topic("CHIC-012", "moby dick", "en")
    query = build_query(topic, _set("CHIC-012", "WIKI_ENTITY", MOBY_CONCEPTS))
    assert query.clauses[0] == Term("chic_all-en", "moby", 2.0)
    assert query.clauses[1] == Term("chic_all-en", "dick", 2.0)
    assert query.clauses[2] == Phrase("chic_all-en", ("Herman", "Melville"), 1.0)
    assert query.clauses[9] == Term("chic_all-en", "literature", 1.0)
    assert serialize_query(query) == (
        "chic_all-en:(moby OR dick)^2 OR "
        'chic_all-en:("Herman Melville" OR "English language" OR "Adventure novel" OR '
        '"Sea story" OR "Richard Bentley" OR "Harper Brothers" OR '
        '"The Great American Novel" OR literature OR "Ishmael (Moby-Dick)")'
    )


def test_build_query_degenerate_title_only():
    query = build_query(Topic("T", "unarmed", "en"))
    assert query.clauses == (Term("chic_all-en", "unarmed", 2.0),)
    assert serialize_query(query) == "chic_all-en:(unarmed)^2"


def test_build_query_dedups_suggestions():
    topic = Topic("T", "moby dick", "en")
    # distinct texts stay distinct clauses
    suggestions = _set("T", "WIKI_ENTITY", ["Herman Melville", "HERMAN MELVILLE x"])
    assert len(build_query(topic, suggestions).clauses) == 4
    # case-insensitive duplicates collapse to the first occurrence
    dup = _set("T", "WIKI_ENTITY", ["Alpha", "alpha"])
    query = build_query(topic, dup)
    assert len(query.clauses) == 3
    assert query.clauses[2] == Term("chic_all-en", "Alpha", 1.0)


def test_build_query_clause_count_property():
    topic = Topic("T", "the falkland islands", "en")
    suggestions = _set("T", "STR", ["South Atlantic", "Penguin"])
    query = build_query(topic, suggestions)
    # 2 stopword-free title tokens + 2 suggestions
    assert len(query.clauses) == 4


def test_build_query_boost_placement():
    topic = Topic("T", "falkland islands", "en")
    suggestions = _set("T", "STR", ["South Atlantic", "Penguin"])
    cfg = ExpansionConfig(title_boost=3.5)
    query = build_query(topic, suggestions, cfg)
    title_clauses = query.clauses[:2]
    concept_clauses = query.clauses[2:]
    assert all(c.boost == 3.5 for c in title_clauses)
    assert all(c.boost == 1.0 for c in concept_clauses)


def test_build_query_empty_title_errors():
    with pytest.raises(EmptyQueryError):
        build_query(Topic("T", "the of", "en"))


def test_build_query_drops_stopword_only_suggestion(caplog):
    topic = Topic("T", "whale", "en")
    suggestions = _set("T", "STR", ["of the", "Ocean"])
    with caplog.at_level(logging.WARNING):
        query = build_query(topic, suggestions)
    assert len(query.clauses) == 2
    assert "of the" in caplog.text


def test_build_query_max_concepts_cap():
    topic = Topic("T", "whale", "en")
    suggestions = _set("T", "STR", [f"Concept {i:02d}" for i in range(15)])
    query = build_query(topic, suggestions, ExpansionConfig(max_concepts=5))
    assert len(query.clauses) == 6


# Words that analyze to nothing in one language or both, possessives
# (`Ahab's's` keeps its own), words that split into two tokens or lose
# one (`U.S.`: `s` stems to nothing), a quote inside a word, a hyphen.
_QUERY_WORDS = st.sampled_from(
    ["moby", "Dick", "whale", "Straße", "the", "of", "der", "und", "s",
     "Dick's", "Ahab's's", "U.S.", 'O"Brien', "Moby-Dick", "(literature)"]
)
_CONCEPTS = st.builds(
    lambda words, separator, case: case(separator.join(words)),
    st.lists(_QUERY_WORDS, min_size=1, max_size=3),
    st.sampled_from([" ", "  ", "\t", '"', " - "]),
    st.sampled_from([str, str.lower, str.upper, str.title]),  # concepts that differ only in case
)


@settings(max_examples=500, deadline=None)
@given(
    title=st.lists(_QUERY_WORDS, max_size=4).map(" ".join),
    lang=st.sampled_from(["en", "de"]),
    concepts=st.lists(_CONCEPTS, max_size=9, unique=True),
    max_concepts=st.integers(0, 7),
    title_boost=st.sampled_from([2.0, 3.5]),
)
@example(title="moby Dick moby", lang="en", concepts=["Whale"], max_concepts=1, title_boost=2.0)
@example(title="whale", lang="en", concepts=["the", "THE", "Whale", "WHALE"], max_concepts=2, title_boost=2.0)
@example(title="whale", lang="en", concepts=["Dick's", 'O"Brien', "U.S.", "Ahab's's"], max_concepts=4, title_boost=2.0)
def test_build_query_agrees_with_the_naive_rule(title, lang, concepts, max_concepts, title_boost):
    topic = Topic("T", title, lang)
    suggestions = make_suggestion_set("T", "STR", [(text, 1.0) for text in concepts])
    cfg = ExpansionConfig(title_boost=title_boost, max_concepts=max_concepts)
    expected = naive_build_query(title, lang, concepts, max_concepts, title_boost)
    if expected is None:
        with pytest.raises(EmptyQueryError):
            build_query(topic, suggestions, cfg)
    else:
        assert build_query(topic, suggestions, cfg) == expected


def test_queries_built_for_two_topics_share_their_words_and_field():
    queries = [
        build_query(Topic(tid, title, "en"), _set(tid, "STR", ["Penguin colony", "harbor"]))
        for tid, title in (("T1", "whale ship"), ("T2", "ocean whale"))
    ]
    (whale1, ship, colony1, harbor1), (ocean, whale2, colony2, harbor2) = (q.clauses for q in queries)
    assert whale1.text is whale2.text == "whale"
    assert harbor1.text is harbor2.text == "harbor"
    assert colony1.terms == colony2.terms == ("Penguin", "colony")
    assert all(a is b for a, b in zip(colony1.terms, colony2.terms))
    assert all(c.field is whale1.field for q in queries for c in q.clauses)

def test_combo_round_robin_with_dedup():
    a = _set("T", "WIKI_ENTITY", ["a", "b"])
    b = _set("T", "WIKI_SIM", ["c", "a"])
    merged = combo_merge([a, b])
    assert merged.texts() == ["a", "c", "b"]
    assert merged.system == "COMBO"
    assert [s.score for s in merged.suggestions] == [1.0, 1 / 2, 1 / 3]


def test_combo_single_input_relabeled():
    merged = combo_merge([_set("T", "STR", ["x", "y"])])
    assert merged.texts() == ["x", "y"]
    assert merged.system == "COMBO"


def test_combo_four_full_sets():
    sets = [
        _set("T", system, [f"{system}-{i}" for i in range(10)])
        for system in ("WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR")
    ]
    merged = combo_merge(sets, max_concepts=10)
    assert len(merged.suggestions) == 10
    for system in ("WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR"):
        assert any(t.startswith(system) for t in merged.texts())
    # rank-1 items of every system come first, in canonical order
    assert merged.texts()[:4] == ["WIKI_ENTITY-0", "WIKI_SIM-0", "WIKI_BACK-0", "STR-0"]


def test_combo_fixed_system_order_ignores_input_order():
    a = _set("T", "STR", ["s1"])
    b = _set("T", "WIKI_ENTITY", ["w1"])
    assert combo_merge([a, b]).texts() == ["w1", "s1"]
    assert combo_merge([b, a]).texts() == ["w1", "s1"]


def test_combo_case_insensitive_dedup():
    a = _set("T", "WIKI_ENTITY", ["Whale"])
    b = _set("T", "STR", ["whale", "Ship"])
    assert combo_merge([a, b]).texts() == ["Whale", "Ship"]


def test_combo_idempotent():
    a = _set("T", "WIKI_ENTITY", ["a", "b"])
    b = _set("T", "WIKI_SIM", ["c", "a"])
    merged = combo_merge([a, b])
    again = combo_merge([merged])
    assert again.texts() == merged.texts()


def test_combo_mismatched_topics():
    with pytest.raises(DataError):
        combo_merge([_set("T1", "STR", ["x"]), _set("T2", "STR", ["y"])])


def test_combo_needs_input():
    with pytest.raises(DataError):
        combo_merge([])


def test_combo_rejects_a_negative_max_concepts():
    sets = [_set("T", "STR", ["x", "y"])]
    with pytest.raises(ValueError, match="max_concepts must be >= 0, got -1"):
        combo_merge(sets, max_concepts=-1)
    assert combo_merge(sets, max_concepts=0).suggestions == ()


# Texts that collide under `str.lower`, texts that only `casefold` would
# merge ("ß", "ss") and "İ", which lowers to two characters ("i̇"); and
# systems COMBO does not order.
_COMBO_TEXTS = st.sampled_from(
    ["whale", "Whale", "WHALE", "Sea story", "sea Story", "ship", "ß", "SS", "ss", "İ", "i", "i̇"]
)
_COMBO_SETS = st.lists(
    st.tuples(
        st.sampled_from(["WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR", "COMBO", "OTHER"]),
        st.lists(_COMBO_TEXTS, max_size=8, unique=True),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(sets=_COMBO_SETS, k=st.integers(0, 40))
@example(sets=[("STR", ["whale", "ship"]), ("WIKI_SIM", ["Whale"])], k=0)
@example(sets=[("OTHER", ["ship"]), ("STR", ["whale", "ship", "Sea story"]), ("WIKI_ENTITY", [])], k=40)
def test_combo_merge_agrees_with_the_naive_rule(sets, k):
    sets = [_set("T", system, texts) for system, texts in sets]
    merged = combo_merge(sets, max_concepts=k)
    assert merged.texts() == naive_combo(sets, k)
    assert [s.score for s in merged.suggestions] == [1 / rank for rank in range(1, len(merged.suggestions) + 1)]


# -- surface syntax -----------------------------------------------------


def test_serialize_groups_by_field_and_boost():
    query = Query(
        (
            Term("chic_all-en", "moby", 2.0),
            Term("chic_all-en", "dick", 2.0),
            Phrase("chic_all-en", ("Herman", "Melville"), 1.0),
            Term("dc:title-en", "whale", 1.0),
        )
    )
    assert serialize_query(query) == (
        'chic_all-en:(moby OR dick)^2 OR chic_all-en:("Herman Melville") OR dc:title-en:(whale)'
    )


def test_parse_round_trip_worked_example():
    text = (
        "chic_all-en:(moby OR dick)^2 OR "
        'chic_all-en:("Herman Melville" OR "English language" OR literature)'
    )
    query = parse_query(text)
    assert serialize_query(query) == text
    assert query.clauses[0] == Term("chic_all-en", "moby", 2.0)
    assert query.clauses[2] == Phrase("chic_all-en", ("Herman", "Melville"), 1.0)
    assert query.clauses[4] == Term("chic_all-en", "literature", 1.0)


def test_parse_fractional_boost():
    query = parse_query("f-en:(x)^2.5")
    assert query.clauses[0].boost == 2.5
    assert serialize_query(query) == "f-en:(x)^2.5"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "noparens",
        "f:(unclosed",
        'f:("unclosed phrase)',
        "f:()",
        "f:(a) x",
        "f:(a OR )",
        "f:(a)^0",
        "f:(a)^0.0e5",
        "f:(a)^1e999",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(DataError):
        parse_query(bad)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("f:(a) OR", "offset 8: expected field:(...)"),
        ("f:(a ORb)", "offset 5: expected OR or )"),
        ("f:(a)ORg:(b)", "offset 5: expected OR between groups"),
    ],
)
def test_parse_rejects_an_or_that_is_not_a_word_of_its_own(bad, message):
    with pytest.raises(DataError, match=re.escape(f"bad query expression at {message}: {bad!r}")):
        parse_query(bad)


# An Arabic-Indic two, a fullwidth three, and such digits after ASCII ones.
_NON_ASCII_BOOSTS = ["f:(a)^\u0662", "f:(a)^\uff13", "f:(a)^2.\u0665", "f:(a)^1e\u0663"]


@pytest.mark.parametrize("bad", _NON_ASCII_BOOSTS)
def test_parse_rejects_a_boost_not_in_ascii_digits(bad):
    with pytest.raises(DataError, match="expected OR between groups"):
        parse_query(bad)


def _outcome(parse, text):
    try:
        return parse(text)
    except DataError as exc:
        return str(exc)


# Characters and whole tokens of the query alphabet, so that random
# strings reach every state of the grammar.
_QUERY_PIECES = st.lists(
    st.sampled_from(
        ["f", "a", "O", "R", "OR", " OR ", ":", "(", ")", '"', " ", "  ", "\t", "^", "2", "0", ".", "e",
         "-", "\u0661", "f:(", ")^2", ")^0", ")^1e999", '"a b"', '""']
    ),
    max_size=16,
).map("".join)
# Groups and separators in the shapes the writer emits, and in shapes close to them.
_SEPARATORS = st.sampled_from([" OR ", "OR", " OR", "OR ", " ", "  OR  ", " ORb ", "\tOR "])
_GROUPS = st.builds(
    lambda opening, items, sep, closing: opening + sep.join(items) + closing,
    st.sampled_from(["f:(", "f:( ", "a:b:(", "OR:(", "f :("]),
    st.lists(
        st.sampled_from(["a", "OR", "ORb", "aOR", "x:", "y:(", "b^2", '"a b"', '""', '"a', "a(", "\u0661"]),
        max_size=3,
    ),
    _SEPARATORS,
    st.sampled_from([")", " )", ")^2", ")^0", ")^1e999", ")^1.5e-3", ")^x", "", ")^\u0661"]),
)
_QUERY_LIKE = st.builds(
    lambda groups, sep, tail: sep.join(groups) + tail,
    st.lists(_GROUPS, min_size=1, max_size=3),
    _SEPARATORS,
    st.sampled_from(["", " OR", "OR", " x"]),
)


@settings(max_examples=2000)
@given(st.one_of(_QUERY_LIKE, _QUERY_PIECES))
def test_parse_query_agrees_with_the_naive_scanner(text):
    assert _outcome(parse_query, text) == _outcome(naive_parse_query, text)


_WORD = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEF0123456789", min_size=1, max_size=8
)
_FIELDS = st.sampled_from(["chic_all-en", "dc:title-en", "chic_all-de"])
_BOOSTS = st.sampled_from([1.0, 2.0, 3.0, 0.5])


def _clauses():
    term = st.builds(Term, _FIELDS, _WORD, _BOOSTS)
    phrase = st.builds(
        Phrase, _FIELDS, st.lists(_WORD, min_size=1, max_size=4).map(tuple), _BOOSTS
    )
    return st.one_of(term, phrase)


@settings(max_examples=300)
@given(st.lists(_clauses(), min_size=1, max_size=8).map(tuple))
def test_serialize_parse_round_trip(clauses):
    query = Query(clauses)
    assert parse_query(serialize_query(query)) == query


@pytest.mark.parametrize(
    "boost,text", [(2.0, "^2"), (2.5, "^2.5"), (1e-05, "^1e-05"), (1234567.0, "^1234567.0")]
)
def test_boost_text_round_trips(boost, text):
    query = Query((Term("f-en", "x", boost),))
    assert serialize_query(query) == f"f-en:(x){text}"
    assert parse_query(serialize_query(query)) == query


@settings(max_examples=300)
@given(
    st.lists(
        st.builds(
            Term,
            _FIELDS,
            _WORD,
            st.floats(min_value=0, exclude_min=True, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=4,
    ).map(tuple)
)
def test_serialize_parse_round_trip_any_positive_boost(clauses):
    query = Query(clauses)
    assert parse_query(serialize_query(query)) == query


# Letters, whitespace, quotes, parentheses, `:`, `^` and `OR`: each
# character the grammar gives a meaning to.
_WIDE = st.lists(
    st.sampled_from(["a", "b", "O", "R", "OR", " ", "\t", '"', "(", ")", ":", "^"]), max_size=6
).map("".join)
_WIDE_FIELDS = st.one_of(st.just("f-en"), _WIDE)
_WIDE_CLAUSES = st.one_of(
    st.builds(Term, _WIDE_FIELDS, _WIDE, _BOOSTS),
    st.builds(Phrase, _WIDE_FIELDS, st.lists(_WIDE, min_size=1, max_size=3).map(tuple), _BOOSTS),
)


@settings(max_examples=500)
@given(st.lists(_WIDE_CLAUSES, min_size=1, max_size=4).map(tuple))
def test_serialize_writes_only_what_parse_reads_back(clauses):
    query = Query(clauses)
    try:
        text = serialize_query(query)
    except DataError:
        return
    assert parse_query(text) == query


def test_the_documented_query_examples_read_back_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    row = next(line for line in readme.splitlines() if line.startswith("| queries |"))
    examples = [
        re.search(r"e\.g\. `([^`]+)`", row)[1],
        re.search(r"^    (\S.*)$", expand.__doc__, re.MULTILINE)[1],
    ]
    for example in examples:
        assert serialize_query(parse_query(example)) == example


def test_query_file_round_trip(tmp_path):
    topic = Topic("CHIC-012", "moby dick", "en")
    query = build_query(topic, _set("CHIC-012", "WIKI_ENTITY", MOBY_CONCEPTS))
    path = tmp_path / "queries.tsv"
    write_query_file(path, [("CHIC-012", query)])
    assert read_query_file(path) == [("CHIC-012", query)]



def test_a_query_file_shares_one_string_per_word_and_field(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text(
        't1\tchic_all-en:(whale OR "sea story")^2 OR dc:title-en:(ship)\n'
        't2\tdc:title-en:(ship OR whale) OR chic_all-en:("sea story")\n',
        encoding="utf-8",
    )
    (_, q1), (_, q2) = read_query_file(path)
    whale1, sea_story1, ship1 = q1.clauses
    ship2, whale2, sea_story2 = q2.clauses
    assert whale1.text is whale2.text == "whale"
    assert ship1.text is ship2.text == "ship"
    assert all(a is b for a, b in zip(sea_story1.terms, sea_story2.terms))
    assert whale1.field is sea_story1.field is sea_story2.field == "chic_all-en"
    assert ship1.field is ship2.field is whale2.field == "dc:title-en"

def test_a_concept_with_a_quote_keeps_its_phrase_through_a_query_file(tmp_path):
    query = build_query(Topic("T1", "whale", "en"), _set("T1", "STR", ['O"Brien family']))
    assert query.clauses[1] == Phrase("chic_all-en", ("O", "Brien", "family"), 1.0)
    chain = chain_for("en")
    tokens = chain.run(query.clauses[1].text)
    assert tokens == chain.run('O"Brien family') == ["o", "brien", "famili"]
    assert serialize_query(query) == 'chic_all-en:(whale)^2 OR chic_all-en:("O Brien family")'
    path = tmp_path / "queries.tsv"
    write_query_file(path, [("T1", query)])
    assert read_query_file(path) == [("T1", query)]


@pytest.mark.parametrize(
    "clause",
    [
        Term("f-en", "a b"),
        Term("f-en", ""),
        Term("f-en", "a(b"),
        Term("f-en", "a)"),
        Term("f-en", 'O"Brien'),
        Term("f en", "a"),
        Phrase("f-en", ('O"Brien',)),
        Phrase("f-en", ("a b",)),
        Phrase("f-en", ("a\tb", "c")),
        Phrase("f-en", ("a", "")),
        Phrase("f(en", ("a", "b")),
    ],
)
def test_serialize_rejects_a_clause_the_parser_would_read_differently(clause):
    with pytest.raises(DataError):
        serialize_query(Query((Term("f-en", "ok"), clause)))


# Quotes, parentheses and every kind of whitespace, among any other text.
_SUGGESTION_CHARS = st.sampled_from('aB9 "()\t\x1c\u2028-\'’^:é') | st.characters(
    blacklist_categories=("Cs",)
)
_SUGGESTION_TEXTS = st.lists(st.text(_SUGGESTION_CHARS, max_size=16), max_size=12, unique=True)


@settings(max_examples=200, deadline=None)
@given(texts=_SUGGESTION_TEXTS, lang=st.sampled_from(["en", "de"]))
def test_expanded_queries_parse_back_from_their_text(texts, lang):
    topic = Topic("T", "moby dick", lang)
    query = build_query(topic, make_suggestion_set("T", "STR", [(t, 1.0) for t in texts]))
    assert parse_query(serialize_query(query)) == query


@pytest.mark.parametrize(
    "topic_ids,message",
    [
        (["T1", ""], "topic id '' is empty or contains whitespace"),
        (["T 1"], "topic id 'T 1' is empty or contains whitespace"),
        (["T\t1"], "topic id 'T\\t1' is empty or contains whitespace"),
        (["T1\n"], "topic id 'T1\\n' is empty or contains whitespace"),
        (["T1", "T2", "T1"], "repeated topic id 'T1'"),
    ],
)
def test_query_file_writer_rejects_an_id_the_reader_would_reject(tmp_path, topic_ids, message):
    query = Query((Term("chic_all-en", "whale"),))
    path = tmp_path / "queries.tsv"
    with pytest.raises(DataError, match=re.escape(message)):
        write_query_file(path, [(topic_id, query) for topic_id in topic_ids])
    assert not path.exists()


@pytest.mark.parametrize(
    "topic_id,clause,bad",
    [
        ("T2", Term("chic_all-en", "wh\ud800le"), "\ud800"),
        ("T2", Phrase("chic_all-en", ("moby", "d\udfffck")), "\udfff"),
        ("T\udc00", Term("chic_all-en", "whale"), "\udc00"),
    ],
)
def test_query_file_writer_rejects_a_lone_surrogate_before_writing(tmp_path, topic_id, clause, bad):
    path = tmp_path / "queries.tsv"
    path.write_bytes(b"old\n")
    queries = [("T1", Query((Term("chic_all-en", "ship"),))), (topic_id, Query((clause,)))]
    message = f"queries.tsv: line 2 holds a lone surrogate {bad!r}, which UTF-8 cannot encode"
    with pytest.raises(DataError, match=re.escape(message)):
        write_query_file(path, queries)
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["queries.tsv"]


def test_expansion_config_validation():
    for title_boost in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="boost must be positive and finite"):
            ExpansionConfig(title_boost=title_boost)
    with pytest.raises(ValueError):
        ExpansionConfig(max_concepts=-1)


def test_read_query_file_rejects_a_repeated_topic_id(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text(
        "T-000\tchic_all-en:(whale)\nT-001\tchic_all-en:(ship)\nT-000\tchic_all-en:(sea)\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=r"queries\.tsv:3: repeated topic id 'T-000'"):
        read_query_file(path)
