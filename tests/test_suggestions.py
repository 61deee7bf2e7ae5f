import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_suggestion_set_ok
from sparse_expand.errors import DataError
from sparse_expand.suggestions import (
    ConceptSuggestion,
    SuggestionSet,
    make_suggestion_set,
    read_suggestion_file,
    write_suggestion_file,
)

_SCORES = st.one_of(
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
    st.sampled_from([0.5, Fraction(1, 2), 1 / 3, Fraction(1, 3), 0.0, Fraction(0)]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def _rows(draw):
    """(text, rank, score) rows: mostly near-valid, so that both outcomes
    and each kind of fault come up."""
    size = draw(st.integers(0, 6))
    texts = draw(st.lists(st.sampled_from(["a", "b", "c", "A", "d e", "f", "g"]),
                          min_size=size, max_size=size))
    ranks = draw(st.one_of(
        st.just(list(range(1, size + 1))),
        st.lists(st.integers(0, size + 1), min_size=size, max_size=size),
    ))
    scores = draw(st.lists(_SCORES, min_size=size, max_size=size))
    if draw(st.booleans()):
        scores.sort(key=float, reverse=True)
    return list(zip(texts, ranks, scores))


@settings(max_examples=1000, deadline=None)
@given(_rows())
def test_suggestion_set_accepts_exactly_what_the_naive_predicate_accepts(tmp_path_factory, rows):
    # In memory a suggestion's rank is its position: the score and text rules.
    positional = [(text, rank, score) for rank, (text, _, score) in enumerate(rows, 1)]
    suggestions = tuple(ConceptSuggestion(text, score) for text, _, score in rows)
    if naive_suggestion_set_ok(positional):
        assert make_suggestion_set("T", "STR", suggestions).suggestions == suggestions
    else:
        with pytest.raises(DataError):
            make_suggestion_set("T", "STR", suggestions)
    # A file holds the ranks, in any line order: all three rules.
    path = tmp_path_factory.mktemp("sets") / "suggestions.tsv"
    path.write_text(
        "".join(f"T\t{rank}\t{text}\t{float(score)!r}\tSTR\n" for text, rank, score in rows),
        encoding="utf-8",
    )
    by_rank = sorted(rows, key=lambda row: row[1])
    if naive_suggestion_set_ok([(text, rank, float(score)) for text, rank, score in by_rank]):
        read = read_suggestion_file(path)
        expected = [(text, float(score)) for text, _, score in by_rank]
        assert [list(s.suggestions) for s in read] == ([expected] if rows else [])
    else:
        with pytest.raises(DataError):
            read_suggestion_file(path)


@pytest.mark.parametrize(
    "lines",
    [
        ["T\t1\ta\t0.5\tSTR", "T\t3\tb\t0.4\tSTR"],  # rank gap
        ["T\t0\ta\t0.5\tSTR", "T\t1\tb\t0.4\tSTR"],  # ranks from 0
        ["T\t1\ta\t0.5\tSTR", "T\t1\tb\t0.4\tSTR"],  # repeated rank
        ["T\t1\ta\t0.4\tSTR", "T\t2\tb\t0.5\tSTR"],  # rising scores
        ["T\t1\ta\t0.5\tSTR", "T\t2\ta\t0.4\tSTR"],  # repeated text
        ["T\t1\ta\t1.0\tSTR", "T\t2\tb\tnan\tSTR", "T\t3\tc\t5.0\tSTR"],  # nan hides a rise
        ["T\t1\ta\tinf\tSTR", "T\t2\tb\t0.4\tSTR"],  # infinite score
        ["T\t1\ta\t0.5\tSTR", "T\t2\tb\t-inf\tSTR"],  # infinite score
        ["T 1\t1\ta\t0.5\tSTR"],  # topic id with whitespace
        ["\t1\ta\t0.5\tSTR"],  # empty topic id
    ],
)
def test_suggestion_file_rejects_a_malformed_set(tmp_path, lines):
    path = tmp_path / "suggestions.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(DataError):
        read_suggestion_file(path)


@pytest.mark.parametrize("topic_id,problem", [("T 1", "contains whitespace"), (" ", "is empty")])
def test_suggestion_file_names_the_line_of_a_bad_topic_id(tmp_path, topic_id, problem):
    path = tmp_path / "suggestions.tsv"
    path.write_text(f" T0 \t1\ta\t0.5\tSTR\n{topic_id}\t1\tb\t0.5\tSTR\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"suggestions.tsv:2: topic id {topic_id.strip()!r} {problem}")):
        read_suggestion_file(path)
    path.write_text(" T0 \t1\ta\t0.5\tSTR\n", encoding="utf-8")
    assert [s.topic_id for s in read_suggestion_file(path)] == ["T0"]


def test_make_suggestion_set_keeps_text_and_score_in_rank_order():
    sset = make_suggestion_set("T", "WIKI_SIM", [("Whale", Fraction(2, 3)), ("Ship", 0.5)])
    assert sset.suggestions == (
        ConceptSuggestion("Whale", Fraction(2, 3)),
        ConceptSuggestion("Ship", 0.5),
    )
    assert repr(sset.suggestions[1]) == "ConceptSuggestion(text='Ship', score=0.5)"
    assert sset.system == "WIKI_SIM"
    assert make_suggestion_set("T", "STR", []).suggestions == ()


@pytest.mark.parametrize("scores", [(1.0, math.nan, 5.0), (math.inf, 0.5), (0.5, -math.inf), (math.nan,)])
def test_suggestion_set_rejects_a_non_finite_score(scores):
    pairs = [(f"c{i}", score) for i, score in enumerate(scores)]
    with pytest.raises(DataError, match="suggestions for topic 'T': score must be finite"):
        make_suggestion_set("T", "STR", pairs)


@pytest.mark.parametrize(
    "pairs,message",
    [
        ([("a", 0.5), ("b", 0.25), ("a", 0.125)], "duplicate text 'a'"),
        ([("a", 0.25), ("b", Fraction(1, 2))], "scores increase with rank"),
    ],
)
def test_suggestion_set_names_its_topic_and_fault(pairs, message):
    with pytest.raises(DataError, match=re.escape(f"suggestions for topic 'T': {message}")):
        make_suggestion_set("T", "STR", pairs)


@pytest.mark.parametrize(
    "ranks,message", [("1 3", "got 3 in place of 2"), ("0 1", "got 0 in place of 1"), ("2 2", "got 2 in place of 1")]
)
def test_suggestion_file_names_the_first_rank_out_of_place(tmp_path, ranks, message):
    path = tmp_path / "suggestions.tsv"
    lines = [f"T\t{rank}\t{text}\t0.5\tSTR\n" for rank, text in zip(ranks.split(), "ab")]
    path.write_text("T0\t1\tz\t0.5\tSTR\n" + "".join(lines), encoding="utf-8")
    expected = f"suggestions.tsv: suggestions for topic 'T': ranks must be contiguous from 1, {message}"
    with pytest.raises(DataError, match=re.escape(expected)):
        read_suggestion_file(path)


@pytest.mark.parametrize("text", ["a\nb", "c\td", "e\rf"])
def test_suggestion_writer_rejects_a_text_it_cannot_write_back(tmp_path, text):
    path = tmp_path / "suggestions.tsv"
    sets = [make_suggestion_set("T1", "STR", [("whale", 0.5)]),
            make_suggestion_set("T2", "STR", [("ship", 0.5), (text, 0.25)])]
    with pytest.raises(DataError, match=re.escape(f"topic 'T2', suggestion {text!r}: tab or line break")):
        write_suggestion_file(path, sets)
    assert not path.exists()
    for topic_id in (text, "T 1", " T1", ""):
        with pytest.raises(DataError, match=re.escape(f"topic id {topic_id!r} is empty or contains whitespace")):
            write_suggestion_file(path, [sets[0], make_suggestion_set(topic_id, "STR", [("whale", 0.5)])])
        assert not path.exists()


@pytest.mark.parametrize(
    "topic_id,text,line,bad",
    [("T2", "sh\ud800p", 3, "\ud800"), ("T\udc00", "ship", 2, "\udc00")],
)
def test_suggestion_writer_rejects_a_lone_surrogate_before_writing(tmp_path, topic_id, text, line, bad):
    path = tmp_path / "suggestions.tsv"
    path.write_bytes(b"old\n")
    sets = [make_suggestion_set("T1", "STR", [("whale", 0.5)]),
            make_suggestion_set(topic_id, "STR", [("sea", 0.5), (text, 0.25)])]
    message = f"suggestions.tsv: line {line} holds a lone surrogate {bad!r}, which UTF-8 cannot encode"
    with pytest.raises(DataError, match=re.escape(message)):
        write_suggestion_file(path, sets)
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["suggestions.tsv"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "A", "d e"]), _SCORES), max_size=5))
def test_the_columns_constructor_agrees_with_make_suggestion_set(rows):
    texts, scores = [text for text, _ in rows], [score for _, score in rows]
    try:
        by_columns = SuggestionSet("T", "STR", texts, scores)
    except DataError:
        with pytest.raises(DataError):
            make_suggestion_set("T", "STR", zip(texts, scores))
        return
    by_rows = make_suggestion_set("T", "STR", zip(texts, scores))
    assert by_columns == by_rows and hash(by_columns) == hash(by_rows)
    assert by_columns.concepts == tuple(texts) and by_columns.scores == tuple(scores)
    assert by_columns.suggestions == tuple(map(ConceptSuggestion._make, rows))
    assert by_columns.texts() == texts


@pytest.mark.parametrize("texts,scores", [(["a", "b"], [0.5]), (["a"], [0.5, 0.25]), ([], [0.5])])
def test_suggestion_set_rejects_columns_of_unequal_length(texts, scores):
    message = f"suggestions for topic 'T': {len(texts)} texts for {len(scores)} scores"
    with pytest.raises(DataError, match=re.escape(message)):
        SuggestionSet("T", "STR", texts, scores)


def test_suggestion_writer_rejects_a_repeated_topic_and_system(tmp_path):
    path = tmp_path / "suggestions.tsv"
    whale, ship = make_suggestion_set("T1", "STR", [("whale", 0.5)]), make_suggestion_set("T1", "STR", [("ship", 0.5)])
    with pytest.raises(DataError, match=re.escape("repeated suggestion set: topic 'T1', system 'STR'")):
        write_suggestion_file(path, [whale, make_suggestion_set("T0", "STR", []), ship])
    assert not path.exists()
    # One topic may hold a set per system, and each reads back as written.
    sets = [whale, make_suggestion_set("T1", "COMBO", [("ship", 0.5)])]
    write_suggestion_file(path, sets)
    assert read_suggestion_file(path) == sets
