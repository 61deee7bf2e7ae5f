import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_corpus
from oracles import naive_str_scores
from sparse_expand.analysis import chain_for, query_tokens
from sparse_expand.corpus import CONCEPT_FIELDS, Document, Topic
from sparse_expand.errors import EmptyQueryError
from sparse_expand.index import Index, build_index
from sparse_expand.str_recommender import (
    SIMILARITIES,
    CooccurConfig,
    _jaccard_key,
    jaccard,
    log_jaccard,
    suggest_str,
)

EN = {"en": chain_for("en")}
CHAINS = {"en": chain_for("en"), "de": chain_for("de")}


def test_jaccard_examples():
    assert jaccard(10, 5, 3) == Fraction(3, 12) == Fraction(1, 4)
    assert jaccard(7, 7, 7) == 1
    assert jaccard(4, 9, 0) == 0
    assert jaccard(0, 0, 0) == 0


def test_jaccard_rejects_impossible_counts():
    with pytest.raises(ValueError):
        jaccard(2, 3, 4)
    with pytest.raises(ValueError):
        log_jaccard(2, 3, 4)


def test_log_jaccard_examples():
    assert log_jaccard(0, 0, 0) == 0.0
    assert log_jaccard(1, 1, 1) == 1.0


def test_log_jaccard_spot_value_high_precision():
    import mpmath

    mpmath.mp.dps = 50
    expected = mpmath.log(11) / (2 * mpmath.log(101) - mpmath.log(11))
    got = log_jaccard(100, 100, 10)
    assert abs(got - float(expected)) < 1e-9
    # frozen from the 50-digit computation above
    assert abs(got - 0.35096222537895504) < 1e-9


def test_similarity_sweep_exhaustive():
    # every admissible (df_x, df_y, df_xy) with counts <= 64
    for a in range(65):
        for b in range(a, 65):  # symmetry halves the sweep
            last_plain = last_log = -1.0
            for c in range(min(a, b) + 1):
                plain = jaccard(a, b, c)
                logged = log_jaccard(a, b, c)
                assert 0 <= plain <= 1
                assert 0.0 <= logged <= 1.0
                assert plain == jaccard(b, a, c)
                assert logged == log_jaccard(b, a, c)
                assert plain > last_plain or (plain == 0 and last_plain < 0)
                assert logged > last_log or (logged == 0.0 and last_log < 0)
                last_plain, last_log = plain, logged


@st.composite
def _counts(draw, n_docs):
    """(df_x, df_y, df_xy) of two co-occurring document sets among n_docs."""
    df_x = draw(st.integers(1, n_docs))
    df_y = draw(st.integers(1, n_docs))
    # the union df_x + df_y - df_xy of two sets of n_docs documents is at most n_docs
    df_xy = draw(st.integers(max(1, df_x + df_y - n_docs), min(df_x, df_y)))
    return df_x, df_y, df_xy


@settings(max_examples=1000)
@given(st.data())
def test_jaccard_key_orders_and_ties_as_the_fraction(data):
    n_docs = data.draw(st.one_of(st.integers(1, 12), st.integers(1, 10**6)))
    a = data.draw(_counts(n_docs))
    b = data.draw(_counts(n_docs))
    key_a, key_b = (_jaccard_key(*counts, n_docs**2) for counts in (a, b))
    score_a, score_b = jaccard(*a), jaccard(*b)
    assert (key_a > key_b, key_a == key_b) == (score_a > score_b, score_a == score_b)


def test_jaccard_key_on_neighbouring_and_equal_fractions():
    n_sq = 60**2
    # 29/59 - 28/57 = 1/(59 * 57), the smallest gap two unions <= 60 allow
    assert _jaccard_key(30, 58, 29, n_sq) > _jaccard_key(30, 55, 28, n_sq)
    assert _jaccard_key(30, 30, 1, n_sq) < _jaccard_key(30, 29, 1, n_sq)  # 1/59 < 1/58
    assert _jaccard_key(30, 10, 10, n_sq) == _jaccard_key(30, 50, 20, n_sq)  # 1/3 == 2/6


def _planted_corpus(n_docs, n_topic, values):
    """n_docs documents, the first n_topic titled "whale" and the rest
    "ship"; values maps a concept value to (topic documents holding it,
    other documents holding it)."""
    subjects = [[] for _ in range(n_docs)]
    for value, (inside, outside) in values.items():
        for i in list(range(inside)) + list(range(n_topic, n_topic + outside)):
            subjects[i].append(value)
    return [
        Document(
            f"d{i:03d}",
            "en",
            {"dc:title": ("whale" if i < n_topic else "ship",), "dc:subject": tuple(subjects[i])},
        )
        for i in range(n_docs)
    ]


def test_str_ranks_near_and_equal_scores_as_the_oracle():
    # 60 documents, 30 of them the topic's; each pair below is named so
    # that a key too coarse to separate its scores would rank it wrongly
    values = {
        "aa 28/57": (28, 27),  # just below 29/59
        "zz 29/59": (29, 29),
        "aa 1/59": (1, 29),  # just below 1/58
        "zz 1/58": (1, 28),
        "alpha 2/6": (20, 30),  # ties 1/3 exactly
        "zeta 1/3": (10, 0),
        "mid 19/58": (19, 28),  # just below 1/3
    }
    docs = _planted_corpus(60, 30, values)
    idx = build_index(docs, EN)
    topic = Topic("T", "whale", "en")
    cfg = CooccurConfig(top_k=len(values))
    expected = naive_str_scores(docs, topic, EN["en"], cfg.input_fields, cfg.concept_fields)
    expected_rank = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
    got = suggest_str(idx, topic, cfg)
    assert [(s.text, s.score) for s in got.suggestions] == expected_rank
    assert got.texts() == [
        "zz 29/59", "aa 28/57", "alpha 2/6", "zeta 1/3", "mid 19/58", "zz 1/58", "aa 1/59"
    ]
    assert all(type(s.score) is Fraction for s in got.suggestions)


@pytest.mark.parametrize("similarity", ["jaccard", "log_jaccard"])
def test_str_checks_the_counts_of_every_candidate(monkeypatch, similarity):
    docs = [Document("a", "en", {"dc:title": ("whale",), "dc:subject": ("sea",)})]
    idx = build_index(docs, EN)
    # "ranked low" appears twice in the one topic document: df_xy = 2 > df_x = 1.
    # It would rank below "sea" and fall outside top_k = 1, yet must be caught.
    maps = ({"sea": 1, "ranked low": 100}, {0: ("sea", "ranked low", "ranked low")})
    monkeypatch.setattr(Index, "concept_table", lambda index, lang: maps)
    cfg = CooccurConfig(similarity=similarity, top_k=1)
    with pytest.raises(ValueError, match="df_xy cannot exceed"):
        suggest_str(idx, Topic("T", "whale", "en"), cfg)


def _poster_corpus():
    """Twenty documents where 'poster' dominates co-occurrence with
    {film, canada}, then 'Cinema and Theatre', then 'popular media'."""
    docs = []

    def doc(i, title, subjects=(), concepts=(), description=None):
        fields = {"dc:title": (title,)}
        if description:
            fields["dc:description"] = (description,)
        if subjects:
            fields["dc:subject"] = tuple(subjects)
        if concepts:
            fields["enrichment:concept_label"] = tuple(concepts)
        docs.append(Document(f"d{i:02d}", "en", fields))

    for i in range(10):  # the {film, canada} document set
        subjects = []
        if i < 8:
            subjects.append("poster")
        if i < 6:
            subjects.append("Cinema and Theatre")
        if i < 4:
            subjects.append("popular media")
        doc(i, "film canada", subjects=subjects)
    # extra documents diluting the runner-up concepts
    doc(10, "quiet castle", subjects=["Cinema and Theatre", "music"])
    doc(11, "old harbor", subjects=["Cinema and Theatre"])
    for i in range(12, 20):
        doc(i, "village painting", subjects=["paintings"], concepts=["music"])
    return docs


def test_str_poster_ranking():
    docs = _poster_corpus()
    idx = build_index(docs, EN)
    topic = Topic("CHIC-010", "film canada", "en")
    result = suggest_str(idx, topic)
    assert result.texts()[:3] == ["poster", "Cinema and Theatre", "popular media"]
    assert result.system == "STR"
    scores = [s.score for s in result.suggestions]
    assert scores == sorted(scores, reverse=True)


def test_str_no_evidence_yields_empty():
    docs = _poster_corpus()
    idx = build_index(docs, EN)
    assert suggest_str(idx, Topic("T", "zeppelin", "en")).suggestions == ()


def test_str_empty_query_raises():
    idx = build_index(_poster_corpus(), EN)
    with pytest.raises(EmptyQueryError):
        suggest_str(idx, Topic("T", "the of", "en"))


def test_str_conjunction_with_fallback():
    docs = [
        Document("a", "en", {"dc:title": ("whale",), "dc:subject": ("sea",)}),
        Document("b", "en", {"dc:title": ("compass",), "dc:subject": ("navigation",)}),
    ]
    idx = build_index(docs, EN)
    # no document holds both words; disjunctive fallback covers both
    result = suggest_str(idx, Topic("T", "whale compass", "en"))
    assert set(result.texts()) == {"sea", "navigation"}


def test_str_value_in_both_concept_fields_is_one_candidate():
    docs = [
        Document(
            "a",
            "en",
            {
                "dc:title": ("whale",),
                "dc:subject": ("sea",),
                "enrichment:concept_label": ("sea",),
            },
        ),
        Document("b", "en", {"dc:title": ("whale",), "dc:subject": ("sea",)}),
    ]
    idx = build_index(docs, EN)
    result = suggest_str(idx, Topic("T", "whale", "en"))
    assert result.texts() == ["sea"]
    assert result.suggestions[0].score == 1


def test_str_ties_break_lexicographically():
    docs = [
        Document("a", "en", {"dc:title": ("whale",), "dc:subject": ("zeta", "alpha")}),
    ]
    idx = build_index(docs, EN)
    result = suggest_str(idx, Topic("T", "whale", "en"))
    assert result.texts() == ["alpha", "zeta"]


# Words whose analysis STR must match: straight, double and typographic
# possessives, stopwords, and German words the stemmer folds together.
_TITLE_WORDS = {
    "en": ["Dick's", "Dick", "Ahab's's", "Ahab's", "Ahab’s", "Ahabʼs", "whale", "whales", "sea", "the", "of", "s"],
    "de": ["Häuser", "Hauser", "Meer", "Meere", "alte", "Mann", "der", "und", "Straßen", "Strassen"],
}
_STR_CONCEPTS = ["Whaling", "Sea stories", "Ships", "Meere", "Seefahrt"]


@st.composite
def _str_cases(draw):
    """Documents in both languages with titles, descriptions and concept
    values, and a topic title in one of the languages."""
    docs = []
    for i in range(draw(st.integers(1, 8))):
        lang = draw(st.sampled_from(["en", "de"]))
        words = st.lists(st.sampled_from(_TITLE_WORDS[lang]), min_size=1, max_size=4).map(" ".join)
        fields = {"dc:title": (draw(words),)}
        if draw(st.booleans()):
            fields["dc:description"] = tuple(draw(st.lists(words, min_size=1, max_size=2)))
        for name in CONCEPT_FIELDS:
            values = draw(st.lists(st.sampled_from(_STR_CONCEPTS), max_size=2, unique=True))
            if values:
                fields[name] = tuple(values)
        docs.append((lang, fields))
    lang = draw(st.sampled_from(["en", "de"]))
    title = " ".join(draw(st.lists(st.sampled_from(_TITLE_WORDS[lang]), min_size=1, max_size=3)))
    return docs, title, lang


@settings(max_examples=100, deadline=None)
@given(case=_str_cases())
@example(case=([("en", {"dc:title": ("Moby Dick's whale",), "dc:subject": ("Whaling",)})], "Dick’s whales", "en"))
@example(  # "Ahab's's" analyzes to "ahab'", not to the "ahab" of "Ahab's"
    case=(
        [
            ("en", {"dc:title": ("Ahab's's sea",), "dc:subject": ("Ships",)}),
            ("en", {"dc:title": ("Ahab's whale",), "dc:subject": ("Whaling",)}),
        ],
        "Ahab's's",
        "en",
    )
)
@example(  # no document holds both terms: the union
    case=(
        [
            ("en", {"dc:title": ("whale",), "dc:subject": ("Whaling",)}),
            ("en", {"dc:description": ("the sea",), "enrichment:concept_label": ("Sea stories",)}),
        ],
        "whale of the sea",
        "en",
    )
)
@example(
    case=(
        [
            ("de", {"dc:title": ("Die alten Häuser",), "dc:subject": ("Seefahrt",)}),
            ("de", {"dc:description": ("Hauser am Meer",), "enrichment:concept_label": ("Meere",)}),
        ],
        "der Häuser Meere",
        "de",
    )
)
@example(case=([("en", {"dc:title": ("the sea",), "dc:subject": ("Ships",)})], "the of s", "en"))
def test_str_equals_the_oracle_on_built_and_loaded_indexes(tmp_path_factory, case):
    drawn, title, lang = case
    docs = [Document(f"d{i}", doc_lang, fields) for i, (doc_lang, fields) in enumerate(drawn)]
    built = build_index(docs, CHAINS)
    path = tmp_path_factory.mktemp("str") / "index.bin"
    built.save(path)
    topic = Topic("T", title, lang)
    for idx in (built, Index.load(path)):
        for similarity in SIMILARITIES:
            cfg = CooccurConfig(similarity=similarity, top_k=1000)
            if not query_tokens(CHAINS[lang], title):
                with pytest.raises(EmptyQueryError):
                    suggest_str(idx, topic, cfg)
                continue
            log = similarity == "log_jaccard"
            expected = naive_str_scores(docs, topic, CHAINS[lang], cfg.input_fields, cfg.concept_fields, log=log)
            ranked = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
            got = suggest_str(idx, topic, cfg).suggestions
            assert [(s.text, s.score) for s in got] == ranked
            assert [repr(s.score) for s in got] == [repr(score) for _, score in ranked]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("similarity", ["jaccard", "log_jaccard"])
def test_str_oracle_randomized(seed, similarity):
    rng = random.Random(300 + seed)
    docs = random_corpus(seed, rng.randint(30, 200))
    idx = build_index(docs, EN)
    cfg = CooccurConfig(similarity=similarity, top_k=10)
    chain = EN["en"]
    for title in ("film canada", "whale", "poster museum", "ocean ship harbor"):
        topic = Topic("T", title, "en")
        expected = naive_str_scores(
            docs, topic, chain, cfg.input_fields, cfg.concept_fields, log=similarity == "log_jaccard"
        )
        got = suggest_str(idx, topic, cfg)
        expected_rank = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert [s.text for s in got.suggestions] == [v for v, _ in expected_rank]
        for sugg, (_, score) in zip(got.suggestions, expected_rank):
            assert sugg.score == score


def _renamed_concepts(docs, prefix):
    concept_fields = CooccurConfig().concept_fields
    return [
        Document(
            d.doc_id,
            d.lang,
            {
                name: tuple(prefix + v for v in values) if name in concept_fields else values
                for name, values in d.fields.items()
            },
        )
        for d in docs
    ]


@pytest.mark.parametrize("similarity", ["jaccard", "log_jaccard"])
def test_str_indexes_do_not_share_concept_maps(similarity):
    cfg = CooccurConfig(similarity=similarity, top_k=50)
    chain = EN["en"]
    base = random_corpus(7, 120)
    corpora = [base, _renamed_concepts(base, "other "), random_corpus(8, 90)]
    indexes = [build_index(docs, EN) for docs in corpora]
    titles = ("film canada", "whale", "ocean ship harbor")
    # interleave the indexes so a map leaking between them would show
    for title in titles:
        for docs, idx in zip(corpora, indexes):
            topic = Topic("T", title, "en")
            expected = naive_str_scores(
                docs, topic, chain, cfg.input_fields, cfg.concept_fields,
                log=similarity == "log_jaccard",
            )
            expected_rank = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
            got = suggest_str(idx, topic, cfg)
            assert [(s.text, s.score) for s in got.suggestions] == expected_rank


def test_str_concept_maps_do_not_keep_index_alive():
    docs = random_corpus(9, 40)
    idx = build_index(docs, EN)
    suggest_str(idx, Topic("T", "whale", "en"))
    ref = weakref.ref(idx)
    del idx
    gc.collect()
    assert ref() is None
    # a new index, possibly at the same address, gets its own maps
    renamed = _renamed_concepts(docs, "new ")
    topic = Topic("T", "whale", "en")
    cfg = CooccurConfig()
    expected = naive_str_scores(renamed, topic, EN["en"], cfg.input_fields, cfg.concept_fields)
    got = suggest_str(build_index(renamed, EN), topic, cfg)
    expected_rank = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert [(s.text, s.score) for s in got.suggestions] == expected_rank


def test_str_ranking_invariant_under_duplication():
    docs = _poster_corpus()
    idx1 = build_index(docs, EN)
    tripled = []
    for m in range(3):
        for d in docs:
            tripled.append(Document(f"{d.doc_id}-copy{m}", d.lang, d.fields))
    idx3 = build_index(tripled, EN)
    topic = Topic("T", "film canada", "en")
    assert suggest_str(idx1, topic).texts() == suggest_str(idx3, topic).texts()


def test_cooccur_config_validation():
    with pytest.raises(ValueError):
        CooccurConfig(top_k=0)
    with pytest.raises(TypeError):
        CooccurConfig(input_fields=("dc:title",))
    with pytest.raises(ValueError):
        CooccurConfig(similarity="cosine")
    assert CooccurConfig().input_fields == ("dc:title", "dc:description")
    assert CooccurConfig().concept_fields == CONCEPT_FIELDS == ("dc:subject", "enrichment:concept_label")


@pytest.mark.parametrize("title", ["it's's whale", "it’s’s whale"])
def test_str_drops_a_title_token_that_analyzes_to_no_term(title):
    # "it's's" stays a title word, whose term "it'" is in no document,
    # so STR falls back to the union: the documents of "whale"
    index = build_index(random_corpus(5, 80), EN)
    expected = suggest_str(index, Topic("T", "whale", "en"))
    assert expected.suggestions
    assert suggest_str(index, Topic("T", title, "en")).suggestions == expected.suggestions
