import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    NAIVE_STRIP_STAGES,
    naive_article_match,
    naive_extract_lead,
    naive_link_targets,
    naive_strip_markup,
)
from sparse_expand import index, wiki_lead
from sparse_expand.analysis import AnalyzerChain
from sparse_expand.corpus import Topic
from sparse_expand.errors import DataError
from sparse_expand.wiki_lead import (
    _STAGES,
    ArticleStore,
    _link_targets,
    _strip,
    extract_lead,
    strip_markup,
    suggest_wiki_lead,
)

# -- markup stripping fixtures: (input, expected output) ----------------

STRIP_CASES = [
    # templates
    ("{{Infobox x}}Moby", "Moby"),
    ("{{a{{b}}c}}X", "X"),
    ("A{{one}}B{{two}}C", "ABC"),
    ("{{outer|param={{inner|x=1}}|y}}done", "done"),
    ("{{{arg}}}tail", "}tail"),  # triple braces: inner pair removed
    ("plain text, no markup", "plain text, no markup"),
    # comments
    ("a<!-- hidden -->b", "ab"),
    ("a<!-- multi\nline -->b", "ab"),
    ("<!--x--><!--y-->z", "z"),
    ("a<!-- comment with {{braces}} -->b", "ab"),
    # media and category links
    ("[[File:w.jpg|thumb|[[inner]]]]Y", "Y"),
    ("[[Image:pic.png|border]]Z", "Z"),
    ("[[Category:Novels]]Q", "Q"),
    ("[[file:lower.jpg]]ok", "ok"),
    ("[[ File:spaced.jpg ]]ok", "ok"),
    ("[[:File:colon.jpg]]ok", "ok"),
    ("[[File:a.jpg|x[[File:b.jpg|y]]z]]w", "w"),
    # ordinary links survive
    ("[[Herman Melville]] wrote", "[[Herman Melville]] wrote"),
    ("[[Adventure novel|an adventure]]", "[[Adventure novel|an adventure]]"),
    ("[[FileFormat]] stays", "[[FileFormat]] stays"),  # not a File: namespace
    # tables
    ("{| class=x\n|cell\n|}after", "after"),
    ("{|outer{|inner|}rest|}tail", "tail"),
    ("before{|\n|row\n|}middle{|\n|row2\n|}end", "beforemiddleend"),
    # combinations
    ("{{box}}[[File:i.jpg]]<!--c-->{|t|}[[Keep]]", "[[Keep]]"),
    ("text {{t|[[File:in.jpg]]}} more", "text  more"),
    ("[[Link]]{{tmpl}}[[Another|label]]", "[[Link]][[Another|label]]"),
]

UNBALANCED_CASES = [
    ("open {{never closes", "open "),
    ("text [[File:forever.jpg|no close", "text "),
    ("start {|row never ends", "start "),
    ("fine<!--no end", "fine"),
    ("a{{b}}c{{d", "ac"),
]


@pytest.mark.parametrize("source,expected", STRIP_CASES)
def test_strip_markup_cases(source, expected):
    result = strip_markup(source)
    assert result.text == expected
    assert result.truncated is False


@pytest.mark.parametrize("source,expected", UNBALANCED_CASES)
def test_strip_markup_unbalanced(source, expected):
    result = strip_markup(source)
    assert result.text == expected
    assert result.truncated is True


def test_strip_markup_never_raises_on_stray_closers():
    result = strip_markup("}}stray ]] closers |} here")
    assert result.truncated is False
    assert "stray" in result.text


_FRAGMENTS = [
    "word ",
    "Two Words ",
    "[[Plain Link]] ",
    "[[Target|label]] ",
    "{{tmpl|a=1}} ",
    "{{outer{{inner}}}} ",
    "{{unclosed ",
    "}} ",
    "]] ",
    "[[File:pic.jpg|thumb|[[cap]]]] ",
    "[[Category:Things]] ",
    "<!-- note --> ",
    "<!-- unterminated ",
    "{| table |} ",
    "{| nested {| tables |} |} ",
    "{| open table ",
    "== Heading ==\n",
    "\n",
    "'''bold''' ",
    "| pipe ",
    "{ brace ",
    "[ bracket ",
]


def _random_wikitext(rng: random.Random) -> str:
    return "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 25)))


def test_strip_markup_idempotent_on_fuzz():
    rng = random.Random(20120612)
    for _ in range(1000):
        source = _random_wikitext(rng)
        once = strip_markup(source).text
        assert strip_markup(once).text == once


def test_strip_markup_idempotent_on_glued_openers():
    # removal that glues '{'+'{' together must still reach a fixpoint
    source = "{[[File:x.jpg]]{"
    once = strip_markup(source)
    assert strip_markup(once.text).text == once.text


_DELIMITERS = st.sampled_from(
    ["{{", "}}", "{|", "|}", "[[", "]]", "[[File:", "[[ :image :", "[[Category:",
     "<!--", "-->", "{", "}", "[", "]", "|", ":", "x", " ", "\n"]
)


@settings(max_examples=1000)
@given(st.lists(_DELIMITERS | st.sampled_from(["<!", "--", "-", "<"]), max_size=30).map("".join))
def test_strippers_match_one_character_oracle(text):
    # text and the truncated flag, for every stage in pass order
    assert len(_STAGES) == len(NAIVE_STRIP_STAGES)
    for stage, oracle in zip(_STAGES, NAIVE_STRIP_STAGES):
        assert _strip(text, *stage) == oracle(text)


@settings(max_examples=1000)
@given(st.lists(_DELIMITERS | st.sampled_from(["<!", "--", "-", "<"]), max_size=30).map("".join))
def test_strip_markup_matches_the_one_character_fixpoint(text):
    assert strip_markup(text) == naive_strip_markup(text)


# -- lead extraction ----------------------------------------------------


def test_extract_lead_header_split():
    text = "[[Herman Melville]] wrote it.\n== Plot ==\n[[Ahab]]"
    lead = extract_lead(text, min_links=1)
    assert lead.links == ("Herman Melville",)
    assert lead.used_full_article is False


def test_extract_lead_pipe_rule():
    lead = extract_lead("[[Adventure novel|an adventure]]", min_links=1)
    assert lead.links == ("Adventure novel",)


def test_extract_lead_fallback_to_full_article():
    text = (
        "[[One]] link only.\n"
        "== Later ==\n"
        "[[Two]] and [[Three]] and [[Four]] and [[Five]]."
    )
    lead = extract_lead(text, min_links=3)
    assert lead.links == ("One", "Two", "Three", "Four", "Five")
    assert lead.used_full_article is True


def test_extract_lead_no_fallback_when_enough():
    text = "[[One]] [[Two]] [[Three]]\n== H ==\n[[Four]]"
    lead = extract_lead(text, min_links=3)
    assert lead.links == ("One", "Two", "Three")
    assert lead.used_full_article is False


def test_extract_lead_dedup_keeps_first():
    text = "[[A]] [[B]] [[A]] [[C]]"
    assert extract_lead(text, min_links=1).links == ("A", "B", "C")


def test_extract_lead_fragment_and_whitespace_normalization():
    text = "[[Some  Article#History]] [[  Trimmed |label]]"
    assert extract_lead(text, min_links=1).links == ("Some Article", "Trimmed")


def test_extract_lead_discards_interlanguage_links():
    text = "[[de:Wal]] [[pt-br:Baleia]] [[Whale]]"
    assert extract_lead(text, min_links=1).links == ("Whale",)


# `str.splitlines` ends a line at each of these; a lead ends only at `\n`.
@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_extract_lead_ends_only_at_a_newline(separator):
    lead = extract_lead(f"[[C]]{separator}== H == [[D]]", min_links=1)
    assert lead.links == ("C", "D")
    assert lead.used_full_article is False


def test_extract_lead_heading_on_the_first_line_leaves_an_empty_lead():
    lead = extract_lead("== Plot ==\n[[Ahab]] [[Ishmael]]", min_links=1)
    assert lead.links == ("Ahab", "Ishmael")
    assert lead.used_full_article is True
    assert extract_lead("== Plot ==\n[[Ahab]]", min_links=0) == extract_lead("", min_links=0)


def test_extract_lead_ignores_equals_signs_inside_a_line():
    text = "[[A]] == not a heading == [[B]]\n x == y\n== H ==\n[[C]]"
    lead = extract_lead(text, min_links=1)
    assert lead.links == ("A", "B")
    assert lead.used_full_article is False


def test_extract_lead_stable_under_body_growth():
    lead_part = "[[A]] [[B]] [[C]] intro.\n"
    before = extract_lead(lead_part + "== S ==\nbody", min_links=3)
    after = extract_lead(lead_part + "== S ==\nbody [[D]] [[E]] more", min_links=3)
    assert before.links == after.links == ("A", "B", "C")


_LINK_FRAGMENTS = st.sampled_from(
    ["[[", "]]", "|", "#", "de:", "pt-br:", "en:", "x:", "A", "b c", " ", "  ", "\n", "\t", "[", "]"]
)


@settings(max_examples=500)
@given(st.lists(_LINK_FRAGMENTS, max_size=30).map("".join))
def test_link_targets_match_oracle(text):
    assert _link_targets(text) == naive_link_targets(text)


_LEAD_FRAGMENTS = st.sampled_from(
    _FRAGMENTS
    + ["==", "= ", "== H ==", "\n", "\n==", "\n ==", "\u2028", "\x0b", "[[A]] ", "[[B]]", "[[de:C]]", "[[", "]]"]
)


@settings(max_examples=1000)
@given(st.lists(_LEAD_FRAGMENTS, max_size=30).map("".join), st.integers(0, 4))
@example("== H ==\n[[A]]", 1)
@example("[[A]] == x ==\n[[B]]\n== H ==\n[[C]] [[D]]", 3)
@example("[[A]]\n{{t}}== H ==\n[[B]]", 2)
def test_extract_lead_agrees_with_the_oracle(text, min_links):
    lead = extract_lead(text, min_links=min_links)
    assert (lead.links, lead.used_full_article) == naive_extract_lead(text, min_links)


def test_extract_lead_strips_markup_first():
    text = "{{Infobox}}[[Real]] <!--[[Hidden]]--> [[File:x.jpg|[[Nested]]]]\n== H ==\n"
    assert extract_lead(text, min_links=1).links == ("Real",)


# -- article store and matching -----------------------------------------


@pytest.fixture
def store():
    return ArticleStore(
        [
            ("Moby-Dick", "[[Herman Melville]] novel"),
            ("Falkland Islands", "[[Atlantic Ocean]] archipelago"),
            ("Whale", "[[Ocean]] mammal"),
            ("Whale Shark", "[[Fish]] species"),
            ("History of Canada", "[[Canada]]"),
        ]
    )


def test_match_original_stage(store):
    match = store.match("moby dick")
    assert match.title == "Moby-Dick"
    assert match.stage == "original"
    assert match.score > 0


def test_match_stopword_free_stage(store):
    match = store.match("the falkland islands")
    assert match.title == "Falkland Islands"
    assert match.stage == "stopword_free"


def test_match_permutation_stage(store):
    match = store.match("islands falkland")
    assert match.title == "Falkland Islands"
    assert match.stage == "permutation"


def test_match_single_word_stage(store):
    match = store.match("zeppelin whale")
    assert match.title == "Whale"
    assert match.stage == "single_word"


def test_match_no_match(store):
    assert store.match("zzzq") is None


def test_match_prefers_shorter_title_on_ties(store):
    match = store.match("whale")
    assert match.title == "Whale"


def test_match_permutation_order_independent(store):
    forward = store.match("islands falkland")
    backward = store.match("falkland islands the")  # stopwords removed first
    assert forward.title == backward.title == "Falkland Islands"


def test_match_stage_a_skips_later_stages(store):
    # a stage-a hit must never be reported as a later stage
    match = store.match("whale shark")
    assert match.stage == "original"
    assert match.title == "Whale Shark"


# Title words per language: stopwords, possessives (straight and
# typographic, one that stems to nothing), case variants, words sharing a
# stem, and German umlauts, ß and suffixes, so that every stage fires and
# scores tie. "—" analyzes to nothing.
_TITLE_WORDS = {
    "en": ["the", "The", "of", "and", "a", "whale", "Whale", "whales", "Dick's", "Dick", "dick’s",
           "Moby", "s", "it's's", "shark", "Islands", "island", "Falkland", "—"],
    "de": ["der", "Die", "und", "von", "Straße", "STRASSE", "strassen", "Häuser", "Hauser", "Haus",
           "Hauses", "Bücher", "Buches", "buch", "Fuß", "fuss", "über", "—"],
}
# Words of distinct terms: a topic of 7 or 8 of them skips the permutation stage.
_DISTINCT_WORDS = {
    "en": ["whale", "shark", "island", "ocean", "ship", "harbor", "captain", "Moby"],
    "de": ["Haus", "Straße", "Buch", "München", "Fuß", "Wasser", "Berg", "Garten"],
}


@st.composite
def _match_cases(draw):
    """A language, its titles (one of them, at times, 40 words long) and
    topic titles: short, repeated words whose occurrences overlap, or 7
    to 8 distinct words."""
    lang = draw(st.sampled_from(sorted(_TITLE_WORDS)))
    words = st.sampled_from(_TITLE_WORDS[lang])
    phrases = st.lists(words, min_size=1, max_size=4).map(" ".join)
    repeats = st.builds(lambda word, n: " ".join([word] * n), words, st.integers(2, 4))
    long_topics = st.lists(st.sampled_from(_DISTINCT_WORDS[lang]), min_size=7, max_size=8, unique=True)
    titles = draw(st.lists(phrases | repeats, min_size=1, max_size=6, unique=True))
    long_title = " ".join(draw(st.lists(words, min_size=40, max_size=40)))
    if draw(st.booleans()) and long_title not in titles:
        titles.append(long_title)
    topics = draw(st.lists(phrases | repeats | long_topics.map(" ".join), min_size=1, max_size=4))
    return lang, titles, topics


@settings(max_examples=300, deadline=None)
@given(case=_match_cases())
def test_match_agrees_with_the_brute_force_oracle(case):
    lang, titles, topics = case
    store = ArticleStore(((title, "") for title in titles), lang=lang)
    for topic_title in topics:
        match = store.match(topic_title)
        expected = naive_article_match(titles, topic_title, lang)
        got = (match.title, match.stage, match.score.hex()) if match else None
        assert got == ((expected[0], expected[1], expected[2].hex()) if expected else None)



@st.composite
def _permuted_cases(draw):
    """A language, titles and a topic title of 4 to 6 distinct words, some
    sharing a term or dropped as stopwords; each title is a run of the
    topic's words in a drawn order, at times with another word."""
    lang = draw(st.sampled_from(sorted(_TITLE_WORDS)))
    vocabulary = sorted(set(_TITLE_WORDS[lang] + _DISTINCT_WORDS[lang]))
    words = draw(st.lists(st.sampled_from(vocabulary), min_size=4, max_size=6, unique=True))
    titles = []
    for _ in range(draw(st.integers(1, 5))):
        run = draw(st.permutations(words))[: draw(st.integers(1, len(words)))]
        run += draw(st.lists(st.sampled_from(vocabulary), max_size=1))
        titles.append(" ".join(run))
    return lang, list(dict.fromkeys(titles)), " ".join(words)


@settings(max_examples=300, deadline=None)
@given(case=_permuted_cases())
def test_match_of_four_to_six_words_agrees_with_the_brute_force_oracle(case):
    lang, titles, topic_title = case
    match = ArticleStore(((title, "") for title in titles), lang=lang).match(topic_title)
    expected = naive_article_match(titles, topic_title, lang)
    got = (match.title, match.stage, match.score.hex()) if match else None
    assert got == ((expected[0], expected[1], expected[2].hex()) if expected else None)


def test_match_analyzes_a_topic_once_however_many_orderings(monkeypatch):
    words = ["whale", "shark", "island", "ocean", "ship", "harbor"]
    store = ArticleStore([(" ".join(reversed(words)), ""), ("Moby", "")])
    calls = []
    run = AnalyzerChain.run
    monkeypatch.setattr(AnalyzerChain, "run", lambda chain, text: calls.append(text) or run(chain, text))
    # The last n words, in the title's reverse order: n! orderings, one a hit.
    for n in range(2, len(words) + 1):
        calls.clear()
        topic_title = " ".join(words[-n:])
        assert store.match(topic_title).stage == "permutation"
        assert calls == [topic_title]


def test_store_rejects_duplicates():
    with pytest.raises(DataError):
        ArticleStore([("A", "x"), ("A", "y")])


def test_store_from_dir(tmp_path):
    articles = tmp_path / "articles"
    articles.mkdir()
    (articles / "Moby-Dick.wiki").write_text("[[Herman Melville]]", encoding="utf-8")
    (articles / "Whale%20Shark.wiki").write_text("[[Fish]]", encoding="utf-8")
    store = ArticleStore.from_dir(articles)
    assert store.titles == ["Moby-Dick", "Whale Shark"]
    assert store.match("whale shark").title == "Whale Shark"


# -- suggestions --------------------------------------------------------

MOBY_WIKITEXT = (
    "{{Infobox book|author=[[Herman Melville]]}}\n"
    "'''Moby-Dick''' is a novel by [[Herman Melville]], written in the "
    "[[English language]]. It is an [[Adventure novel]] and [[Sea story]] "
    "first published by [[Richard Bentley]], then [[Harper Brothers]]. "
    "Critics call [[Herman Melville]]'s book [[The Great American Novel]]; "
    "its [[literature]] narrator is [[Ishmael (Moby-Dick)|Ishmael]].\n"
    "== Background ==\n"
    "[[Nantucket]] whaling.\n"
)


def test_suggest_wiki_lead_paper_example_order():
    store = ArticleStore([("Moby-Dick", MOBY_WIKITEXT)])
    topic = Topic("CHIC-012", "moby dick", "en")
    result = suggest_wiki_lead(store, topic, k=10)
    assert result.texts() == [
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
    assert result.system == "WIKI_ENTITY"
    assert [s.score for s in result.suggestions][:3] == [1.0, 0.5, 1 / 3]


def test_suggest_wiki_lead_no_match_is_empty(store):
    assert suggest_wiki_lead(store, Topic("T", "zzzq", "en")).suggestions == ()


def test_suggest_wiki_lead_uses_fallback_links():
    wikitext = "[[Only]] one.\n== More ==\n[[Extra]] [[Links]] [[Here]]"
    store = ArticleStore([("Only Article", wikitext)])
    result = suggest_wiki_lead(store, Topic("T", "only article", "en"), k=10)
    assert result.texts() == ["Only", "Extra", "Links", "Here"]


def test_suggest_wiki_lead_rejects_a_negative_k():
    store = ArticleStore([("Many", "[[A]] [[B]]")])
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        suggest_wiki_lead(store, Topic("T", "many", "en"), k=-1)
    assert suggest_wiki_lead(store, Topic("T", "many", "en"), k=0).suggestions == ()


def test_store_and_match_build_and_search_no_index(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the article store built or searched an index")

    monkeypatch.setattr(index, "build_index", refuse)
    monkeypatch.setattr(index.Index, "search", refuse)
    store = ArticleStore([("Moby-Dick", MOBY_WIKITEXT), ("Whale", "[[Ocean]] mammal")])
    assert store.match("moby dick").title == "Moby-Dick"
    assert store.match("whale of the ocean").stage == "single_word"
    assert suggest_wiki_lead(store, Topic("T", "whale", "en")).texts() == ["Ocean"]


def test_suggest_wiki_lead_caps_at_k():
    wikitext = " ".join(f"[[Link {i:02d}]]" for i in range(20))
    store = ArticleStore([("Many", wikitext)])
    result = suggest_wiki_lead(store, Topic("T", "many", "en"), k=10)
    assert len(result.suggestions) == 10


# -- the lead memo --------------------------------------------------------


@st.composite
def _memo_cases(draw):
    """A store's language, its (title, wikitext) articles and a list of
    (topic title, k, min_links) calls."""
    lang, titles, topics = draw(_match_cases())
    articles = [(title, "".join(draw(st.lists(_LEAD_FRAGMENTS, max_size=30)))) for title in titles]
    call = st.tuples(st.sampled_from(topics), st.integers(0, 5), st.integers(0, 4))
    calls = draw(st.lists(call, min_size=1, max_size=8))
    return lang, articles, calls


@settings(max_examples=200, deadline=None)
@given(case=_memo_cases())
# One article whose lead falls back to the whole text at 3 links, not at 1.
@example(case=("en", [("Whale", "[[A]]\n== H ==\n[[B]]")], [("whale", 5, 1), ("whales", 5, 3), ("whale", 1, 1)]))
def test_suggest_wiki_lead_agrees_with_the_oracles_on_first_and_repeated_calls(case):
    lang, articles, calls = case
    store = ArticleStore(articles, lang=lang)
    wikitext = dict(articles)
    expected = []
    for topic_title, k, min_links in calls:
        match = naive_article_match(list(wikitext), topic_title, lang)
        links = naive_extract_lead(wikitext[match[0]], min_links)[0][:k] if match else ()
        expected.append([(link, 1 / rank) for rank, link in enumerate(links, 1)])
    answers = []
    for _ in range(2):  # the second pass reads what the first one kept
        sets = [suggest_wiki_lead(store, Topic("T", title, lang), k, min_links) for title, k, min_links in calls]
        answers.append([[(x.text, x.score) for x in sset.suggestions] for sset in sets])
    assert answers[0] == expected
    assert answers[1] == answers[0]


@pytest.fixture
def extractions(monkeypatch):
    """The wikitexts that `wiki_lead.extract_lead` is called on."""
    calls = []
    extract = wiki_lead.extract_lead
    monkeypatch.setattr(wiki_lead, "extract_lead", lambda text, **kw: calls.append(text) or extract(text, **kw))
    return calls


def test_the_store_extracts_an_article_once_per_min_links(extractions):
    wikitext = "[[Only]] one.\n== More ==\n[[Extra]] [[Links]] [[Here]]"
    store = ArticleStore([("Only Article", wikitext), ("Whale", "[[Ocean]]")])
    first, second = Topic("T1", "only article", "en"), Topic("T2", "article only", "en")
    assert store.match(first.title).title == store.match(second.title).title == "Only Article"
    assert suggest_wiki_lead(store, first, min_links=1).texts() == ["Only"]
    assert suggest_wiki_lead(store, second, min_links=1).texts() == ["Only"]
    assert extractions == [wikitext]
    assert suggest_wiki_lead(store, second, min_links=3).texts() == ["Only", "Extra", "Links", "Here"]
    assert suggest_wiki_lead(store, first, min_links=3, k=2).texts() == ["Only", "Extra"]
    assert suggest_wiki_lead(store, first, min_links=1).texts() == ["Only"]
    assert extractions == [wikitext, wikitext]
    assert store.lead("Only Article", 3) == extract_lead(wikitext, min_links=3)
    assert len(extractions) == 2


def test_a_negative_k_raises_before_any_match_or_extraction(extractions, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matched a topic for a negative k")

    store = ArticleStore([("Many", "[[A]] [[B]]")])
    monkeypatch.setattr(ArticleStore, "match", refuse)
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        suggest_wiki_lead(store, Topic("T", "many", "en"), k=-1)
    assert extractions == []
