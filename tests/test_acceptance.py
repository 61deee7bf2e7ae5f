"""Acceptance suite: one test per release criterion.

Each test prints a `CRITERION nn PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`). Every expected value is either
a hand-derived constant or recomputed here by an independent brute-force
oracle from tests/oracles.py.
"""

import functools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    WORDS,
    build_pipeline_workspace,
    random_corpus,
    tree_bytes,
    write_docs_file,
    write_topics_file,
)
from oracles import (
    naive_average_precision,
    naive_docsim_ranking,
    naive_r_precision,
    naive_search,
    naive_str_scores,
)
from sparse_expand.analysis import chain_for
from sparse_expand.cli import main
from sparse_expand.corpus import Document, Topic
from sparse_expand.docsim import SimCorpus, suggest_docsim
from sparse_expand.evaluation import average_precision, r_precision, se_precision
from sparse_expand.expand import build_query, write_query_file
from sparse_expand.index import Phrase, Query, Term, build_index
from sparse_expand.pipeline import PipelineConfig, run_pipeline
from sparse_expand.str_recommender import CooccurConfig, jaccard, log_jaccard, suggest_str
from sparse_expand.suggestions import make_suggestion_set
from sparse_expand.wiki_lead import ArticleStore, strip_markup, suggest_wiki_lead
from test_str_recommender import _poster_corpus
from test_wiki_lead import MOBY_WIKITEXT, STRIP_CASES, UNBALANCED_CASES, _random_wikitext

EN = {"en": chain_for("en")}
DATA = Path(__file__).parent / "data"


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nCRITERION {number:02d} FAIL: {name}")
                raise
            print(f"\nCRITERION {number:02d} PASS: {name}")

        return wrapper

    return decorate


@criterion(1, "STR scores equal brute-force set recounts on 20 random corpora, < 5 s")
def test_criterion_01_jaccard_oracle():
    started = time.monotonic()
    checked = 0
    cfg = CooccurConfig(top_k=10)
    chain = EN["en"]
    for case in range(20):
        rng = random.Random(9000 + case)
        size = 500 if case < 2 else rng.randint(30, 250)
        docs = random_corpus(9000 + case, size)
        index = build_index(docs, EN)
        title = " ".join(rng.sample(WORDS, rng.randint(1, 2)))
        topic = Topic(f"A-{case}", title, "en")
        expected = naive_str_scores(docs, topic, chain, cfg.input_fields, cfg.concept_fields)
        got = suggest_str(index, topic, cfg)
        expected_rank = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert [s.text for s in got.suggestions] == [v for v, _ in expected_rank]
        for sugg, (_, score) in zip(got.suggestions, expected_rank):
            assert isinstance(sugg.score, Fraction)
            assert sugg.score == score  # exact rational equality
            checked += 1
    elapsed = time.monotonic() - started
    assert checked > 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "log-Jaccard sweep (counts <= 64) bounded, symmetric, monotone; spot value to 1e-9")
def test_criterion_02_log_jaccard_sweep():
    for a in range(65):
        for b in range(a, 65):
            previous = -1.0
            for c in range(min(a, b) + 1):
                value = log_jaccard(a, b, c)
                assert 0.0 <= value <= 1.0
                assert value == log_jaccard(b, a, c)
                assert value > previous or (value == 0.0 and previous < 0)
                previous = value
    import mpmath

    mpmath.mp.dps = 50
    expected = mpmath.log(11) / (2 * mpmath.log(101) - mpmath.log(11))
    assert abs(log_jaccard(100, 100, 10) - float(expected)) < 1e-9


@criterion(3, "docsim ranking equals the all-pairs brute force; sim symmetric on every pair")
def test_criterion_03_docsim_oracle():
    chain = EN["en"]
    for seed in range(3):
        rng = random.Random(7100 + seed)
        bodies = {
            f"Article {i:03d}": " ".join(rng.choice(WORDS) for _ in range(rng.randint(5, 50)))
            for i in range(rng.randint(40, 100))
        }
        corpus = SimCorpus(sorted(bodies.items()))
        titles = corpus.titles
        for seed_title in titles[:4]:
            expected = naive_docsim_ranking(bodies, chain, seed_title, k=10, n=15)
            got = suggest_docsim(corpus, seed_title, k=10, n=15)
            assert [(s.text, s.score) for s in got.suggestions] == expected
        for i, t1 in enumerate(titles):
            for t2 in titles[i + 1 :]:
                assert corpus.sim(t1, t2, 15) == corpus.sim(t2, t1, 15)


@criterion(4, "search results equal a naive per-document rescoring scan, exactly")
def test_criterion_04_search_oracle():
    for seed in range(4):
        rng = random.Random(4400 + seed)
        size = 500 if seed == 0 else rng.randint(50, 300)
        docs = random_corpus(4400 + seed, size)
        index = build_index(docs, EN)
        for _ in range(10):
            clauses = []
            for _ in range(rng.randint(1, 4)):
                field = rng.choice(["chic_all-en", "dc:title-en", "dc:description-en"])
                boost = rng.choice([1.0, 2.0, 0.5])
                if rng.random() < 0.3:
                    clauses.append(Phrase(field, tuple(rng.sample(WORDS, 2)), boost))
                else:
                    clauses.append(Term(field, rng.choice(WORDS), boost))
            query = Query(tuple(clauses))
            got = [(r.doc_id, r.score) for r in index.search(query, 1000)]
            assert got == naive_search(docs, EN, query, 1000)


@criterion(5, "AP/R-P/weak/strong match an independent naive scorer to 1e-9; hand cases exact")
def test_criterion_05_metric_oracle():
    # hand cases first
    assert average_precision(["a", "x", "b"], {"a": 1, "b": 1}) == pytest.approx(
        (1 + 2 / 3) / 2
    )
    grades = dict(enumerate([2] * 7 + [1] * 2 + [0], start=1))
    sset = make_suggestion_set("T", "X", [(f"c{i}", 1.0 / i) for i in range(1, 11)])
    assert se_precision(sset, grades) == (0.9, 0.7)

    for seed in range(100):
        rng = random.Random(5500 + seed)
        pool = [f"doc{i}" for i in range(40)]
        judgments = {d: rng.choice([0, 0, 1, 2]) for d in rng.sample(pool, 25)}
        if not any(g >= 1 for g in judgments.values()):
            judgments[pool[0]] = 2
        ranked = rng.sample(pool, rng.randint(0, 30))
        assert average_precision(ranked, judgments) == pytest.approx(
            naive_average_precision(ranked, judgments), abs=1e-9
        )
        assert r_precision(ranked, judgments) == pytest.approx(
            naive_r_precision(ranked, judgments), abs=1e-9
        )
        n = rng.randint(1, 10)
        suggestion_grades = [rng.choice([0, 1, 2]) for _ in range(n)]
        sset = make_suggestion_set(
            "T", "X", [(f"s{i}", 1.0 / (i + 1)) for i in range(n)]
        )
        weak, strong = se_precision(sset, dict(enumerate(suggestion_grades, start=1)))
        expected_weak = sum(1 for g in suggestion_grades if g >= 1) / n
        expected_strong = sum(1 for g in suggestion_grades if g == 2) / n
        assert abs(weak - expected_weak) < 1e-9
        assert abs(strong - expected_strong) < 1e-9


@criterion(6, "worked example: lead-link expansion serializes to the golden query file")
def test_criterion_06_worked_example_expansion(tmp_path):
    store = ArticleStore([("Moby-Dick", MOBY_WIKITEXT)])
    topic = Topic("CHIC-012", "moby dick", "en")
    suggestions = suggest_wiki_lead(store, topic, k=10)
    query = build_query(topic, suggestions)
    out = tmp_path / "queries.tsv"
    write_query_file(out, [(topic.topic_id, query)])
    assert out.read_bytes() == (DATA / "chic012_query.txt").read_bytes()


@criterion(7, "worked example: co-occurrence returns poster / Cinema and Theatre / popular media")
def test_criterion_07_worked_example_cooccurrence():
    index = build_index(_poster_corpus(), EN)
    topic = Topic("CHIC-010", "film canada", "en")
    result = suggest_str(index, topic)
    assert result.texts()[:3] == ["poster", "Cinema and Theatre", "popular media"]


@criterion(8, "coverage and word-count tables reproduce the engineered fixture numbers")
def test_criterion_08_table_shapes(tmp_path, capsys):
    docs = []
    for i in range(50):
        fields = {"dc:title": (f"t {i}",), "europeana:country": ("europe",)}
        if i < 7:
            fields["dc:contributor"] = ("someone",)
        docs.append(Document(f"d{i:02d}", "en", fields))
    docs_file = write_docs_file(tmp_path / "docs.jsonl", docs)
    assert main(["corpus", "stats", "--docs", str(docs_file)]) == 0
    rows = {
        line.split()[0]: line.split()
        for line in capsys.readouterr().out.splitlines()
        if line
    }
    assert rows["dc:contributor"][2] == "14"
    assert rows["europeana:country"][2] == "100"

    titles = ["one"] * 7 + ["two words"] * 42 + ["a b c d e f"]
    topics = [Topic(f"T-{i:03d}", t, "en") for i, t in enumerate(titles)]
    topics_file = write_topics_file(tmp_path / "topics.jsonl", topics)
    assert main(["corpus", "topic-stats", "--topics", str(topics_file)]) == 0
    out = capsys.readouterr().out
    title_row = next(line.split() for line in out.splitlines() if line.startswith("title"))
    assert title_row == ["title", "1.94", "2", "1", "6"]


@criterion(9, "wikitext parser passes 25+ fixtures; stripping idempotent on 1000 fuzz inputs")
def test_criterion_09_wikitext_suite():
    cases = list(STRIP_CASES) + list(UNBALANCED_CASES)
    assert len(cases) >= 25
    for source, expected in STRIP_CASES:
        result = strip_markup(source)
        assert result.text == expected and result.truncated is False
    for source, expected in UNBALANCED_CASES:
        result = strip_markup(source)
        assert result.text == expected and result.truncated is True
    rng = random.Random(1851)
    for _ in range(1000):
        source = _random_wikitext(rng)
        once = strip_markup(source).text
        assert strip_markup(once).text == once


@criterion(10, "five-system pipeline on 1000 docs / 10 topics: < 30 s, byte-identical reruns")
def test_criterion_10_pipeline_determinism(tmp_path):
    paths = build_pipeline_workspace(tmp_path, seed=1, n_docs=1000, n_topics=10)
    systems = ["WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR", "COMBO"]
    cfg = PipelineConfig(**paths)
    started = time.monotonic()
    run_pipeline(cfg, systems)
    out = Path(paths["out"])
    snapshot = tree_bytes(out)
    run_pipeline(cfg, systems)
    elapsed = time.monotonic() - started
    second = tree_bytes(out)
    assert second == snapshot
    for system in systems:
        assert (out / "en" / system / "run.trec").stat().st_size > 0
    assert elapsed < 30.0, f"two pipeline runs took {elapsed:.2f}s"
