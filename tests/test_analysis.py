import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import PROFILE_STAGES, naive_chain_run, naive_porter_stem
from sparse_expand import analysis, porter
from sparse_expand.analysis import (
    LANGUAGES,
    AnalyzerChain,
    chain_for,
    de_light_stem,
    de_normalize,
    en_possessive,
    query_tokens,
    tokenize,
)
from sparse_expand.corpus import Document
from sparse_expand.index import build_index
from sparse_expand.porter import porter_stem
from sparse_expand.stopwords import ENGLISH, GERMAN, load_stopwords

# Hand-verified against the algorithm definition; includes the classic
# worked examples for every step plus the full traces
# generalizations -> gener and oscillators -> oscil.
PORTER_VECTORS = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "valenci": "valenc",
    "hesitanci": "hesit",
    "digitizer": "digit",
    "radicalli": "radic",
    "differentli": "differ",
    "vileli": "vile",
    "analogousli": "analog",
    "vietnamization": "vietnam",
    "predication": "predic",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "angulariti": "angular",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
    "generalizations": "gener",
    "oscillators": "oscil",
    "whale": "whale",
    "islands": "island",
}


@pytest.mark.parametrize("word,expected", sorted(PORTER_VECTORS.items()))
def test_porter_vectors(word, expected):
    assert porter_stem(word) == expected


def test_porter_total_on_odd_input():
    # no exceptions on digits, apostrophes, empty strings
    for term in ("", "1914", "o'brien", "x"):
        porter_stem(term)


# Every suffix some step tests, taken from the oracle's tables, so a rule
# missing from the production tables still shows up in the words.
_PORTER_SUFFIXES = sorted(
    {suffix for table in (oracles._STEP2, oracles._STEP3, oracles._STEP4) for suffix, _ in table}
    | {"sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "e", "ll"}
)


@settings(max_examples=1000)
@given(
    st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz" + "aeiouyyy"), max_size=8),
    st.lists(st.sampled_from(_PORTER_SUFFIXES), max_size=2),
)
def test_porter_stem_matches_the_published_steps(letters, suffixes):
    word = letters + "".join(suffixes)
    assert porter_stem(word) == naive_porter_stem(word)


# Per suffix table: its step in the oracle, a stem whose measure passes
# the step's condition and one whose measure fails it. "tr", "bat" and
# "adopt" have measures 0, 1 and 2; "bat" and "adopt" end in T, as ION
# asks. Step 1a has no condition, so both its stems pass.
_PORTER_TABLES = {
    "_STEP1A": (oracles._step1a, "bat", "tr"),
    "_STEP2": (oracles._step2, "bat", "tr"),
    "_STEP3": (oracles._step3, "bat", "tr"),
    "_STEP4": (oracles._step4, "adopt", "bat"),
}


@pytest.mark.parametrize("table", sorted(_PORTER_TABLES))
def test_porter_stem_matches_the_published_steps_on_every_table_suffix(table):
    step, passing, failing = _PORTER_TABLES[table]
    for suffix, replacement in getattr(porter, table)[1]:
        assert step(passing + suffix) == passing + replacement
        unchanged = failing + (replacement if table == "_STEP1A" else suffix)
        assert step(failing + suffix) == unchanged
        for word in (passing + suffix, failing + suffix):
            assert porter_stem(word) == naive_porter_stem(word), word


@pytest.mark.parametrize("table", sorted(_PORTER_TABLES))
def test_porter_table_suffixes_are_its_rules_suffixes(table):
    # The early exit tests the suffix tuple; a rule it missed would never run.
    suffixes, rules = getattr(porter, table)
    assert suffixes == tuple(suffix for suffix, _ in rules)


def test_tokenize_splits_non_alphanumeric():
    assert tokenize("Moby-Dick: a whale, 1851!") == ["Moby", "Dick", "a", "whale", "1851"]
    assert tokenize("under_score") == ["under", "score"]
    assert tokenize("") == []


def test_tokenize_keeps_internal_apostrophe():
    assert tokenize("Dick's whale") == ["Dick's", "whale"]
    assert tokenize("dogs' tails") == ["dogs", "tails"]


def test_en_possessive():
    assert en_possessive("Dick's") == "Dick"
    assert en_possessive("DICK'S") == "DICK"
    assert en_possessive("dick’s") == "dick"
    assert en_possessive("its") == "its"


def test_de_normalize():
    assert de_normalize("straße") == "strasse"
    assert de_normalize("abc") == "abc"
    assert de_normalize("über") == "uber"
    assert de_normalize("Gemälde".lower()) == "gemalde"


def test_de_light_stem_rule_table():
    assert de_light_stem("gemalde") == "gemald"
    assert de_light_stem("strasse") == "strass"
    assert de_light_stem("hauser") == "haus"
    assert de_light_stem("wassern") == "wass"
    assert de_light_stem("hauses") == "haus"
    # stems shorter than four characters are left alone
    assert de_light_stem("ende") == "ende"
    assert de_light_stem("eis") == "eis"


def _indexed(chain: AnalyzerChain, text: str) -> list[tuple[str, int]]:
    """(term, position) pairs of `text` indexed as a one-value title, in
    position order, read back from the index's postings."""
    field = f"dc:title-{chain.lang}"
    idx = build_index([Document("d", chain.lang, {"dc:title": (text,)})], {chain.lang: chain})
    pairs = [
        (term, position)
        for term in idx.terms(field)
        for posting in idx.postings(field, term)
        for position in posting.positions
    ]
    return sorted(pairs, key=lambda pair: pair[1])


def test_analyze_en_chain(en_chain):
    # tokenize, strip possessive, lowercase, stopwords, stem
    assert en_chain.run("Moby Dick's Whale") == ["mobi", "dick", "whale"]
    assert _indexed(en_chain, "Moby Dick's Whale") == [("mobi", 0), ("dick", 1), ("whale", 2)]


def test_analyze_all_stopwords(en_chain):
    assert en_chain.run("the of and") == []


def test_analyze_de_chain(de_chain):
    assert de_chain.run("Gemälde Straße") == ["gemald", "strass"]
    assert _indexed(de_chain, "Gemälde Straße") == [("gemald", 0), ("strass", 1)]


def test_analyze_empty_input(en_chain):
    assert en_chain.run("") == []


def test_positions_contract(en_chain):
    # positions are assigned after stopword removal
    text = "the whale and the captain of the ship"
    assert _indexed(en_chain, text) == [("whale", 0), ("captain", 1), ("ship", 2)]


def test_determinism(en_chain):
    text = "The Pequod's crew hunted whales across both oceans."
    assert en_chain.run(text) == en_chain.run(text) == chain_for("en").run(text)


def test_stage_idempotence_individually():
    # lowercase, normalization and stopword filtering are idempotent on
    # their own output; full-chain idempotence is not promised (stemming)
    for term in ("Straße", "ÜBER", "Maps"):
        once = de_normalize(term.lower())
        assert de_normalize(once) == once
    words = ["whale", "the", "of", "ship"]
    filtered = [w for w in words if w not in ENGLISH]
    assert [w for w in filtered if w not in ENGLISH] == filtered


@settings(max_examples=200)
@given(st.text(max_size=80))
def test_positions_consecutive_for_any_input(s):
    chain = chain_for("en")
    terms = chain.run(s)
    assert _indexed(chain, s) == [(term, i) for i, term in enumerate(terms)]
    assert all(terms)


@settings(max_examples=100)
@given(st.text(max_size=80))
def test_analysis_deterministic(s):
    chain = chain_for("de")
    assert chain.run(s) == chain.run(s)


def test_chain_unknown_language():
    with pytest.raises(ValueError):
        chain_for("fr")


def test_chain_profiles_are_fixed():
    with pytest.raises(ValueError, match="no analyzer profile for language: 'fr'"):
        AnalyzerChain("fr")
    with pytest.raises(ValueError, match="no analyzer profile for language: 'fr'"):
        chain_for("fr", frozenset({"le"}))
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    listed = dict(re.findall(r"- `(\w+)`: tokenize .*?Stage\s+names:\s+`([^`]+)`", readme, re.S))
    assert sorted(listed) == sorted(LANGUAGES) == sorted(PROFILE_STAGES) == ["de", "en"]
    for lang, names in listed.items():
        assert tuple(names.split()) == PROFILE_STAGES[lang]


def test_builtin_list_sizes():
    assert 100 <= len(ENGLISH) <= 160
    assert 100 <= len(GERMAN) <= 160


def test_stopword_file_loader(tmp_path):
    f = tmp_path / "stop.txt"
    f.write_text("# comment\nfoo\nBAR  \n\nbaz # trailing\n", encoding="utf-8")
    assert load_stopwords(f) == frozenset({"foo", "bar", "baz"})


def test_custom_stopwords_flow_through():
    chain = chain_for("en", stopword_list=frozenset({"whale"}))
    assert chain.run("the whale") == ["the"]
    assert chain_for("en", frozenset()).run("The whale of a tale") == ["the", "whale", "of", "a", "tale"]


def test_query_tokens_surface_forms(en_chain):
    assert query_tokens(en_chain, "The Great American Novel") == ["Great", "American", "Novel"]
    assert query_tokens(en_chain, "Dick's whale") == ["Dick", "whale"]
    assert query_tokens(en_chain, "the of and") == []
    # a double possessive keeps both: "it's's" is indexed as "it'", "it's" as nothing
    assert query_tokens(en_chain, "it's's whale") == ["it's's", "whale"]
    assert query_tokens(en_chain, "it’s’s Ahab's's") == ["it’s’s", "Ahab's's"]
    assert query_tokens(en_chain, "xx's's Dick’s") == ["xx's's", "Dick"]
    assert query_tokens(en_chain, "U.S. whale") == ["U", "whale"]  # "s" stems to ""


# Words that exercise every stage: stopwords in mixed case, possessives
# with straight and typographic apostrophes, German umlauts and ß.
_CHAIN_WORDS = (
    "The", "the", "THE", "of", "Und", "der", "DIE", "whale", "Whales", "whaling",
    "Dick's", "ship’s", "Ahab's's", "don't", "Gemälde", "Straße", "Häuser",
    "ÜBER", "über", "Öl", "maps", "running", "s", "a1", "x", "",
)
_CHAINS = {
    "en": lambda: chain_for("en"),
    "de": lambda: chain_for("de"),
    "en_no_stopwords": lambda: chain_for("en", frozenset()),
    "de_no_stopwords": lambda: chain_for("de", frozenset()),
    "de_custom_stopwords": lambda: chain_for(
        "de", stopword_list=frozenset({"whale", "gemälde", "s"})
    ),
}
_chain_text = st.lists(
    st.one_of(st.sampled_from(_CHAIN_WORDS), st.text(alphabet="aäöüßA'’ .-", max_size=8)),
    max_size=12,
).map(" ".join)


@pytest.mark.parametrize("profile", sorted(_CHAINS))
@settings(max_examples=150)
@given(texts=st.lists(_chain_text, min_size=1, max_size=4))
def test_chain_matches_stage_by_stage_oracle(profile, texts):
    chain = _CHAINS[profile]()
    for text in texts:  # the first run of each text fills the cache
        expected = naive_chain_run(chain, text)
        assert chain.run(text) == expected
        assert chain.run(text) == expected
    warm = _CHAINS[profile]()
    for text in reversed(texts):
        assert warm.run(text) == naive_chain_run(warm, text)


@pytest.mark.parametrize("profile", sorted(_CHAINS))
@settings(max_examples=150)
@given(text=_chain_text)
def test_every_query_token_analyzes_to_exactly_one_term(profile, text):
    chain = _CHAINS[profile]()
    tokens = query_tokens(chain, text)
    assert all(len(chain.run(token)) == 1 for token in tokens)
    # nothing but a token that analyzes to no term is dropped, and a token
    # loses a possessive only if that leaves its term as it is
    expected = []
    for surface in tokenize(text):
        if chain.run(surface):
            word = en_possessive(surface) if chain.lang == "en" else surface
            expected.append(word if chain.run(word) == chain.run(surface) else surface)
    assert tokens == expected


# Words with up to three possessives, straight, typographic or upper case.
_possessive_text = st.lists(
    st.one_of(
        st.builds(
            "".join,
            st.tuples(
                st.sampled_from(("it", "Ahab", "xx", "the", "s", "a", "whale", "Häuser", "Dick")),
                st.lists(st.sampled_from(("'s", "’s", "ʼs", "'S")), max_size=3).map("".join),
            ),
        ),
        st.sampled_from(_CHAIN_WORDS),
        st.text(alphabet="aäsS'’ .", max_size=8),
    ),
    max_size=8,
).map(" ".join)


@pytest.mark.parametrize("profile", ["en", "en_no_stopwords", "de"])
@settings(max_examples=300)
@given(text=_possessive_text)
def test_query_words_analyze_to_the_terms_of_their_text(profile, text):
    chain = _CHAINS[profile]()
    assert [x for word in query_tokens(chain, text) for x in chain.run(word)] == chain.run(text)


def test_chains_with_different_stopwords_do_not_share_results():
    plain = chain_for("en")
    custom = chain_for("en", stopword_list=frozenset({"whale"}))
    assert plain.run("the whale") == ["whale"]
    assert custom.run("the whale") == ["the"]
    assert plain.run("the whale") == ["whale"]
    assert plain == chain_for("en")
    assert plain != custom


def test_chain_stems_each_surface_token_once(monkeypatch):
    calls = []

    def counting_stem(term):
        calls.append(term)
        return porter_stem(term)

    monkeypatch.setattr(analysis, "porter_stem", counting_stem)
    chain = chain_for("en")
    assert chain.run("whales and Whales and whales") == ["whale", "whale", "whale"]
    assert chain.run("whales") == ["whale"]
    assert calls == ["whales", "whales"]  # one per distinct surface form
