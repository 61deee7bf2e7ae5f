"""One analyzer chain per profile for the whole process: which callers
share it, and that no result depends on how warm its cache is."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import WORDS, build_pipeline_workspace, random_corpus, write_docs_file
from oracles import naive_chain_run
from sparse_expand import analysis, cli, expand, pipeline
from sparse_expand.analysis import LANGUAGES, AnalyzerChain, chain_for, shared_chain
from sparse_expand.corpus import Document, Topic
from sparse_expand.docsim import SimCorpus
from sparse_expand.index import SNAPSHOT_FILENAME, Index, Phrase, Query, Term, build_index
from sparse_expand.pipeline import PipelineConfig, run_pipeline
from sparse_expand.porter import porter_stem
from sparse_expand.stopwords import ENGLISH
from sparse_expand.wiki_lead import ArticleStore


def _ids(chains) -> set[int]:
    return set(map(id, chains))


@pytest.fixture
def chains_run(monkeypatch) -> list[AnalyzerChain]:
    """Every chain whose `run` is called, once per call."""
    used = []
    run = AnalyzerChain.run
    monkeypatch.setattr(AnalyzerChain, "run", lambda chain, text: used.append(chain) or run(chain, text))
    return used


def _built_with(monkeypatch, module) -> list[dict]:
    """The chains of every `build_index` call that `module` makes."""
    built = []
    original = module.build_index
    monkeypatch.setattr(module, "build_index", lambda docs, chains: built.append(chains) or original(docs, chains))
    return built


def test_loads_of_one_snapshot_share_the_chain_of_the_bundled_stopwords(tmp_path):
    path = tmp_path / SNAPSHOT_FILENAME
    build_index(random_corpus(3, 20), {"en": chain_for("en")}).save(path)
    first, second = Index.load(path), Index.load(path)
    assert first.chains["en"] is second.chains["en"] is shared_chain("en")
    # the default list names the same profile as the list it resolves to
    assert shared_chain("en") is shared_chain("en", ENGLISH) is shared_chain("en", frozenset(ENGLISH))
    assert shared_chain("en") is not shared_chain("de")


def test_a_snapshot_built_with_its_own_stopwords_gets_its_own_chain(tmp_path, monkeypatch):
    docs = write_docs_file(tmp_path / "docs.jsonl", random_corpus(3, 20))
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("Whale\nship\n", encoding="utf-8")
    built = _built_with(monkeypatch, cli)
    argv = ["index", "build", "--docs", str(docs), "--out", str(tmp_path / "idx")]
    assert cli.main([*argv, "--stopwords", str(stopwords)]) == 0
    custom = shared_chain("en", frozenset({"whale", "ship"}))
    assert custom is not shared_chain("en")
    assert built[0]["en"] is custom
    assert Index.load(tmp_path / "idx" / SNAPSHOT_FILENAME).chains["en"] is custom
    assert cli.main(argv) == 0
    assert built[1]["en"] is shared_chain("en")


def test_build_query_analyzes_with_the_shared_chain(monkeypatch):
    used = []
    query_tokens = analysis.query_tokens
    monkeypatch.setattr(expand, "query_tokens", lambda chain, text: used.append(chain) or query_tokens(chain, text))
    expand.build_query(Topic("T1", "whale ship", "en"))
    expand.build_query(Topic("T2", "Walfang", "de"))
    assert [id(chain) for chain in used] == [id(shared_chain("en")), id(shared_chain("de"))]


def test_article_store_and_sim_corpus_analyze_with_the_shared_chains(chains_run):
    ArticleStore([("Moby Dick", "[[Whale]] lead."), ("The Ship", "[[Sea]] lead.")])
    assert _ids(chains_run) == _ids([shared_chain("en"), shared_chain("en", frozenset())])
    chains_run.clear()
    SimCorpus([("Wal", "Wale schwimmen"), ("Schiff", "Schiffe segeln")], lang="de")
    assert _ids(chains_run) == _ids([shared_chain("de")])


def test_run_indexes_with_the_shared_chain(tmp_path, monkeypatch):
    paths = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=3)
    built = _built_with(monkeypatch, pipeline)
    run_pipeline(PipelineConfig(**paths), ["STR"])
    assert len(built) == 1 and built[0]["en"] is shared_chain("en")


def test_chain_for_gives_a_private_chain_with_an_empty_cache(monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "porter_stem", lambda term: calls.append(term) or porter_stem(term))
    shared_chain("en").run("whales")
    first, second = chain_for("en"), chain_for("en")
    assert first is not second and first == second == shared_chain("en")
    for chain in (first, second):
        calls.clear()
        assert chain.run("whales") == ["whale"]
        assert calls == ["whales"]  # nothing was cached for this chain
    calls.clear()
    assert shared_chain("en").run("whales") == ["whale"]
    assert calls == []


def test_shared_chain_rejects_a_language_with_no_profile():
    for _ in range(2):  # the failed first call left no entry behind
        with pytest.raises(ValueError, match="no analyzer profile for language: 'fr'"):
            shared_chain("fr")


# Words that exercise every stage: possessives with each apostrophe,
# `U.S.`-style tokens, German umlauts and ß, stopwords and words that
# analyze to nothing.
_WORD = st.one_of(
    st.sampled_from(WORDS),
    st.sampled_from(("Dick's", "ship’s", "Ahabʼs", "it's's", "U.S.", "U.K.", "s", "The", "und", "DER")),
    st.sampled_from(("Häuser", "Straße", "Gemälde", "über", "ÖL", "Wäldern", "Fußball")),
    st.builds(
        "".join,
        st.tuples(st.sampled_from(("whale", "Haus", "U", "S", "it")), st.sampled_from(("'s", "’s", "ʼs", ".", ""))),
    ),
    st.text(alphabet="aäöüßsSU.'’ʼ", min_size=1, max_size=6),
)
_TEXT = st.lists(_WORD, max_size=8).map(" ".join)


@pytest.mark.parametrize("lang", sorted(LANGUAGES))
@settings(max_examples=150)
@given(warm=st.lists(_TEXT, max_size=6), texts=st.lists(_TEXT, min_size=1, max_size=6))
def test_shared_chain_results_do_not_depend_on_cache_warmth(lang, warm, texts):
    shared = shared_chain(lang)
    for text in warm:
        shared.run(text)
    for text in texts:
        assert shared.run(text) == chain_for(lang).run(text) == naive_chain_run(shared, text)


@settings(max_examples=60, deadline=None)
@given(
    titles=st.lists(_TEXT, min_size=1, max_size=6),
    warm=st.lists(_TEXT, max_size=4),
    queries=st.lists(st.lists(_WORD, min_size=1, max_size=3), min_size=1, max_size=4),
)
def test_search_on_a_loaded_index_matches_an_index_of_a_fresh_chain(tmp_path_factory, titles, warm, queries):
    docs = [Document(f"d{i}", "en", {"dc:title": (title,)}) for i, title in enumerate(titles)]
    fresh = build_index(docs, {"en": chain_for("en")})
    field = "chic_all-en"
    assume(fresh.has_field(field))
    path = tmp_path_factory.mktemp("snapshot") / SNAPSHOT_FILENAME
    fresh.save(path)
    for text in warm:
        shared_chain("en").run(text)
    loaded = Index.load(path)
    for words in queries:
        query = Query((*(Term(field, word) for word in words), Phrase(field, tuple(words))))
        assert loaded.search(query, 10) == fresh.search(query, 10)
