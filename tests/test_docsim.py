import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORDS
from oracles import naive_docsim_ranking, naive_important_words
from sparse_expand.analysis import chain_for
from sparse_expand.docsim import SimCorpus, suggest_docsim
from sparse_expand.errors import DataError, SeedNotFoundError
from sparse_expand.suggestions import read_suggestion_file, write_suggestion_file

EN_CHAIN = chain_for("en")


def _bodies_corpus(bodies: dict[str, str]) -> SimCorpus:
    return SimCorpus(sorted(bodies.items()))


def _random_bodies(seed: int, size: int) -> dict[str, str]:
    rng = random.Random(seed)
    return {
        f"Article {i:03d}": " ".join(rng.choice(WORDS) for _ in range(rng.randint(5, 40)))
        for i in range(size)
    }


def test_important_words_undersized_document():
    corpus = _bodies_corpus({"A": "whale ship", "B": "harbor light"})
    assert corpus.important_words("A", 5) == {"whale", "ship"}


def test_important_words_matches_hand_computed_argmax():
    bodies = {
        "A": "whale whale ship",
        "B": "ship harbor",
        "C": "harbor harbor harbor whale",
    }
    corpus = _bodies_corpus(bodies)
    for title in bodies:
        expected = naive_important_words(bodies, EN_CHAIN, title, 1)
        assert corpus.important_words(title, 1) == expected


def test_important_words_tie_prefers_lexicographic():
    # both stemmed terms appear once with equal df; the smaller term wins
    corpus = _bodies_corpus({"A": "zebra apple", "B": "unrelated words"})
    assert corpus.important_words("A", 1) == {"appl"}


def test_sim_identical_documents():
    body = " ".join(WORDS[:12])
    corpus = _bodies_corpus({"A": body, "B": body, "C": "something else entirely"})
    assert corpus.sim("A", "B", 10) == 1


def test_sim_disjoint_documents():
    corpus = _bodies_corpus({"A": "whale ship ocean", "B": "castle garden village"})
    assert corpus.sim("A", "B", 3) == 0


def test_sim_fraction_value():
    a_words = "whale ship ocean harbor castle garden village river bridge mountain"
    b_words = "whale ship ocean compass violin opera carnival harvest railway archive"
    corpus = _bodies_corpus({"A": a_words, "B": b_words})
    # top-10 sets are all ten distinct words of each doc; overlap is 3
    assert corpus.sim("A", "B", 10) == Fraction(3, 10)


def test_sim_symmetry_exhaustive_on_fixture():
    bodies = _random_bodies(4, 30)
    corpus = _bodies_corpus(bodies)
    titles = corpus.titles
    for i, t1 in enumerate(titles):
        for t2 in titles[i:]:
            assert corpus.sim(t1, t2, 10) == corpus.sim(t2, t1, 10)


def test_sim_range_bound():
    bodies = _random_bodies(5, 20)
    corpus = _bodies_corpus(bodies)
    for t1 in corpus.titles:
        for t2 in corpus.titles:
            value = corpus.sim(t1, t2, 7)
            assert 0 <= value <= 1
            cap = min(len(corpus.important_words(t1, 7)), len(corpus.important_words(t2, 7)))
            assert value <= Fraction(cap, 7)


def test_suggest_near_duplicate_ranks_first():
    bodies = _random_bodies(6, 15)
    seed_title = "Article 000"
    bodies["Twin"] = bodies[seed_title]
    corpus = _bodies_corpus(bodies)
    result = suggest_docsim(corpus, seed_title, k=5, n=10)
    assert result.texts()[0] == "Twin"


def test_suggest_all_zero_scores_is_empty():
    corpus = _bodies_corpus(
        {"A": "whale ship", "B": "castle garden", "C": "violin opera"}
    )
    assert suggest_docsim(corpus, "A", k=5, n=5).suggestions == ()


def test_suggest_excludes_seed():
    bodies = _random_bodies(7, 25)
    corpus = _bodies_corpus(bodies)
    result = suggest_docsim(corpus, "Article 003", k=25, n=10)
    assert "Article 003" not in result.texts()


def test_suggest_rejects_a_negative_k():
    corpus = _bodies_corpus({"A": "whale ship", "B": "whale harbor"})
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        suggest_docsim(corpus, "A", k=-1)
    assert suggest_docsim(corpus, "A", k=0).suggestions == ()


def test_suggest_unknown_seed():
    corpus = _bodies_corpus({"A": "whale", "B": "ship"})
    with pytest.raises(SeedNotFoundError):
        suggest_docsim(corpus, "Missing")


def test_important_words_of_an_unknown_title():
    corpus = _bodies_corpus({"A": "whale", "B": "ship"})
    with pytest.raises(SeedNotFoundError, match="^document not in corpus: 'Missing'$"):
        corpus.important_words("Missing", 3)


@pytest.mark.parametrize("seed", range(4))
def test_suggest_matches_all_pairs_oracle(seed):
    bodies = _random_bodies(100 + seed, 50)
    corpus = _bodies_corpus(bodies)
    for seed_title in list(bodies)[:5]:
        expected = naive_docsim_ranking(bodies, EN_CHAIN, seed_title, k=10, n=12)
        got = suggest_docsim(corpus, seed_title, k=10, n=12)
        assert [(s.text, s.score) for s in got.suggestions] == expected


def test_suggest_one_corpus_at_two_n_matches_oracle():
    bodies = _random_bodies(120, 40)
    corpus = _bodies_corpus(bodies)
    seeds = list(bodies)[:4]
    # alternate n on one corpus: each n has its own overlap vectors
    for seed_title in seeds:
        for n in (3, 12, 3):
            expected = naive_docsim_ranking(bodies, EN_CHAIN, seed_title, k=10, n=n)
            got = suggest_docsim(corpus, seed_title, k=10, n=n)
            assert [(s.text, s.score) for s in got.suggestions] == expected


def test_suggest_k_beyond_nonzero_titles_matches_oracle():
    bodies = {
        "A": "whale ship ocean",
        "B": "whale harbor",
        "C": "ship castle",
        "D": "violin opera",
        "E": "garden village",
    }
    corpus = _bodies_corpus(bodies)
    expected = naive_docsim_ranking(bodies, EN_CHAIN, "A", k=50, n=3)
    got = suggest_docsim(corpus, "A", k=50, n=3)
    assert [(s.text, s.score) for s in got.suggestions] == expected
    assert got.texts() == ["B", "C"]


def test_suggest_ties_break_by_code_point_title_order():
    # code-point order: "Moby" < "Zebra" < "apple" < "Émile"; file order differs
    bodies = {
        "apple": "ship garden",
        "Émile": "ocean violin",
        "seed": "whale ship ocean harbor",
        "Zebra": "whale castle",
        "Moby": "whale ship opera",
        "Österreich": "carnival railway",
    }
    corpus = SimCorpus(list(bodies.items()))
    expected = naive_docsim_ranking(bodies, EN_CHAIN, "seed", k=10, n=10)
    got = suggest_docsim(corpus, "seed", k=10, n=10)
    assert [(s.text, s.score) for s in got.suggestions] == expected
    assert got.texts() == ["Moby", "Zebra", "apple", "Émile"]
    assert all(type(s.score) is Fraction for s in got.suggestions)
    assert corpus.titles == sorted(bodies)
    corpus.titles.append("changed")  # a copy: the corpus keeps its own list
    assert corpus.titles == sorted(bodies)


def test_suggestion_files_byte_identical(tmp_path):
    bodies = _random_bodies(8, 30)
    sets = []
    for source in ("WIKI_SIM", "WIKI_BACK"):
        corpus = _bodies_corpus(bodies)
        sets.append(
            suggest_docsim(corpus, "Article 001", k=10, n=10, source=source, topic_id="T1")
        )
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_suggestion_file(a, [sets[0]])
    corpus2 = _bodies_corpus(bodies)
    again = suggest_docsim(corpus2, "Article 001", k=10, n=10, source="WIKI_SIM", topic_id="T1")
    write_suggestion_file(b, [again])
    assert a.read_bytes() == b.read_bytes()


def test_corpus_from_dir(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "Whale%20Shark.txt").write_text("whale shark fish", encoding="utf-8")
    (directory / "Castle.txt").write_text("castle fortress", encoding="utf-8")
    corpus = SimCorpus.from_dir(directory)
    assert corpus.titles == ["Castle", "Whale Shark"]
    assert "Whale Shark" in corpus


def test_empty_corpus_rejected():
    with pytest.raises(DataError, match="^similarity corpus is empty$"):
        SimCorpus([])


def test_corpus_rejects_a_directory_with_no_text(tmp_path):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "notes.wiki").write_text("whale shark fish", encoding="utf-8")
    with pytest.raises(DataError, match=rf"^{re.escape(str(tmp_path / 'corpus'))}: no \*\.txt file$"):
        SimCorpus.from_dir(tmp_path / "corpus")


def test_duplicate_titles_rejected():
    with pytest.raises(DataError):
        SimCorpus([("A", "x"), ("A", "y")])


def test_important_words_bad_n():
    corpus = _bodies_corpus({"A": "whale"})
    with pytest.raises(ValueError):
        corpus.important_words("A", 0)


def test_titles_with_whitespace_other_than_spaces_rejected():
    for title in ("Blue\nWhale", "Whale\tShark", "Sea\u2028Life", "Tail\r"):
        with pytest.raises(DataError, match="whitespace other than spaces"):
            SimCorpus([(title, "whale"), ("Ocean", "whale")])
    assert "Blue  Whale " in SimCorpus([("Blue  Whale ", "whale"), ("Ocean", "whale")])


# Titles mixing letters and spaces with whitespace that would split a
# suggestion-file line (str.splitlines) or column (tab), or arbitrary text.
_SEPARATORS = "\t\n\r\x0b\x0c\x1c\x85\u2028\u3000"
_TITLES = st.text(st.sampled_from("ab é" + _SEPARATORS), max_size=6) | st.text(max_size=8)


@settings(max_examples=200)
@given(titles=st.lists(_TITLES, min_size=2, max_size=5, unique=True))
def test_docsim_titles_round_trip_through_the_suggestion_file(tmp_path_factory, titles):
    try:
        corpus = SimCorpus([(title, "whale ship ocean") for title in titles])
    except DataError:
        assert any(c.isspace() and c != " " for title in titles for c in title)
        return
    sets = [
        suggest_docsim(corpus, title, n=3, topic_id=f"T-{i}") for i, title in enumerate(titles)
    ]
    path = tmp_path_factory.mktemp("docsim") / "suggestions.tsv"
    write_suggestion_file(path, sets)
    assert {s.topic_id: s.texts() for s in read_suggestion_file(path)} == {
        s.topic_id: s.texts() for s in sets
    }


@st.composite
def _small_corpus(draw):
    """A few documents over a five-word vocabulary, so that many
    documents tie on each overlap."""
    size = draw(st.integers(2, 8))
    vocabulary = st.sampled_from(WORDS[:5])
    bodies = {
        f"D{i}": " ".join(draw(st.lists(vocabulary, max_size=6))) for i in range(size)
    }
    return bodies, draw(st.sampled_from(sorted(bodies))), draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(_small_corpus())
def test_suggest_matches_the_oracle_for_every_k(drawn):
    bodies, seed_title, n = drawn
    corpus = _bodies_corpus(bodies)
    for k in range(1, len(bodies) + 2):
        got = suggest_docsim(corpus, seed_title, k=k, n=n)
        expected = naive_docsim_ranking(bodies, EN_CHAIN, seed_title, k=k, n=n)
        assert [(s.text, s.score) for s in got.suggestions] == expected, k
        assert all(type(s.score) is Fraction for s in got.suggestions)


def test_corpus_builds_no_per_n_structure_until_the_first_suggestion():
    corpus = _bodies_corpus({"A": "whale ship", "B": "whale harbor", "C": "ship castle"})
    assert corpus._by_n == {}
    corpus.sim("A", "B", 3)
    corpus.important_words("C", 2)
    assert corpus._by_n == {}
    suggest_docsim(corpus, "A", n=3)
    assert list(corpus._by_n) == [3]


def test_score_table_is_sized_to_the_largest_important_word_set():
    corpus = _bodies_corpus({"A": "whale ship ocean", "B": "whale harbor", "C": "ship castle"})
    n = 300_000
    got = suggest_docsim(corpus, "A", k=5, n=n)
    assert [(s.text, s.score) for s in got.suggestions] == [
        ("B", Fraction(1, n)),
        ("C", Fraction(1, n)),
    ]
    _, width, scores = corpus._packed(n)
    assert width == 1
    assert scores == tuple(Fraction(i, n) for i in range(4))


# Distinct tokens that the English chain keeps as they are.
_WIDE_VOCABULARY = [f"w{i:03d}" for i in range(600)]


def test_two_byte_lanes_skip_matches_off_a_lane_boundary():
    # Lanes in title order: Big 257 (bytes 01 01), Empty 0, One 1 (01 00),
    # Seed cleared. The pattern of 1, bytes 01 00, first occurs one byte
    # into Big's lane and must not be read as a document.
    bodies = {
        "Seed": " ".join(_WIDE_VOCABULARY[:300]),
        "Big": " ".join(_WIDE_VOCABULARY[:257]),
        "Empty": "",
        "One": _WIDE_VOCABULARY[299],
    }
    corpus = _bodies_corpus(bodies)
    got = suggest_docsim(corpus, "Seed", k=10, n=300)
    assert corpus._packed(300)[1] == 2
    assert [(s.text, s.score) for s in got.suggestions] == [
        ("Big", Fraction(257, 300)),
        ("One", Fraction(1, 300)),
    ]
    assert naive_docsim_ranking(bodies, EN_CHAIN, "Seed", k=10, n=300) == [
        (s.text, s.score) for s in got.suggestions
    ]


def test_seed_sharing_no_word_gets_no_suggestions():
    corpus = _bodies_corpus({"Seed": "violin opera", "A": "whale ship", "B": "whale ship"})
    assert suggest_docsim(corpus, "Seed", k=5, n=5).suggestions == ()
    assert suggest_docsim(corpus, "A", k=5, n=5).texts() == ["B"]


@st.composite
def _lane_corpus(draw):
    """A corpus, a seed and n for either lane width.

    One-byte lanes: documents over a five-word vocabulary with n <= 6.
    Two-byte lanes: runs of up to 600 distinct words with n >= 256, so
    documents with 256 or more important words share hundreds of them.
    Repeated words change term frequencies; any document may be empty or
    hold a word no other document holds, and so may the seed.
    """
    wide = draw(st.booleans())
    vocabulary = _WIDE_VOCABULARY if wide else WORDS[:5]
    bodies = {}
    for i in range(draw(st.integers(1, 6))):
        if wide:
            # Few run starts, so that overlaps of 256 and more are common.
            start = draw(st.sampled_from((0, 40, 300)))
            words = vocabulary[start : draw(st.integers(start, len(vocabulary)))]
        else:
            words = draw(st.lists(st.sampled_from(vocabulary), max_size=6))
        words = words + draw(st.lists(st.sampled_from(vocabulary), max_size=4))
        if draw(st.booleans()):
            words.append(f"q{i}z")
        bodies[f"D{i}"] = " ".join(words)
    n = draw(st.integers(256, 700) if wide else st.integers(1, 6))
    return bodies, draw(st.sampled_from(sorted(bodies))), n


@settings(max_examples=150, deadline=None)
@given(_lane_corpus())
def test_packed_lanes_match_the_oracle(drawn):
    bodies, seed_title, n = drawn
    corpus = _bodies_corpus(bodies)
    expected = naive_docsim_ranking(bodies, EN_CHAIN, seed_title, k=len(bodies), n=n)
    for k in range(1, len(bodies) + 2):
        got = suggest_docsim(corpus, seed_title, k=k, n=n)
        assert [(s.text, s.score) for s in got.suggestions] == expected[:k], k
    largest = max(len(corpus.important_words(title, n)) for title in bodies)
    assert corpus._packed(n)[1] == (1 if largest < 256 else 2)
