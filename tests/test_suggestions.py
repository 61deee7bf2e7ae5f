from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_suggestion_set_ok
from sparse_expand.errors import DataError
from sparse_expand.suggestions import ConceptSuggestion, SuggestionSet, make_suggestion_set

_SCORES = st.one_of(
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
    st.sampled_from([0.5, Fraction(1, 2), 1 / 3, Fraction(1, 3), 0.0, Fraction(0)]),
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


@settings(max_examples=1000)
@given(_rows())
def test_suggestion_set_accepts_exactly_what_the_naive_predicate_accepts(rows):
    suggestions = tuple(ConceptSuggestion(text, score, rank, "STR") for text, rank, score in rows)
    if naive_suggestion_set_ok(rows):
        assert SuggestionSet("T", "STR", suggestions).suggestions == suggestions
    else:
        with pytest.raises(DataError):
            SuggestionSet("T", "STR", suggestions)


def test_make_suggestion_set_numbers_ranks_and_names_the_source():
    sset = make_suggestion_set("T", "WIKI_SIM", [("Whale", Fraction(2, 3)), ("Ship", 0.5)])
    assert sset.suggestions == (
        ConceptSuggestion("Whale", Fraction(2, 3), 1, "WIKI_SIM"),
        ConceptSuggestion("Ship", 0.5, 2, "WIKI_SIM"),
    )
    assert repr(sset.suggestions[1]) == (
        "ConceptSuggestion(text='Ship', score=0.5, rank=2, source='WIKI_SIM')"
    )
    assert make_suggestion_set("T", "STR", []).suggestions == ()
