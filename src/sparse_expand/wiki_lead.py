"""Encyclopedia lead-section concept extraction.

Three parts: a markup stripper that removes comments, templates,
media/category links and tables from wikitext (plain [[...]] links are
kept); a lead extractor that collects link targets above the first
heading, in appearance order; and a title matcher that resolves a topic
to an article through four fallback stages, each text of a stage looked
up once in a table of every run of consecutive terms of every title.

A store's articles never change, so it extracts an article's lead once
per `min_links`, on the first match, and keeps it for its own life.

The stripper is defensive and never raises. `_STAGES` is the one list
of its openers (`<!--`, `{{`, media and category links, `{|`). It
repeats the stages until no opener is left, a fixpoint of the pipeline,
so stripping is idempotent even on pathological nesting. Unbalanced
openers swallow text to the end of the input and set the `truncated`
flag.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .analysis import query_tokens, shared_chain
from .corpus import Topic
from .errors import DataError
from .files import read_titled_files
from .index import idf_weight, tf_weight
from .suggestions import SuggestionSet, reciprocal_rank_scores

_MEDIA_LINK_RE = re.compile(r"\[\[\s*:?\s*(?:file|image|category)\s*:", re.I)
_LINK_RE = re.compile(r"\[\[(.*?)\]\]", re.S)
_INTERLANGUAGE_RE = re.compile(r"^[a-z]{2,3}(?:-[a-z0-9]+)*:")

# strip_markup's stages in pass order: a region's opener, the token that
# nests inside it (None: comments do not nest) and its closer.
_STAGES = (
    (re.compile("<!--"), None, "-->"),
    (re.compile(r"\{\{"), "{{", "}}"),
    (_MEDIA_LINK_RE, "[[", "]]"),
    (re.compile(r"\{\|"), "{|", "|}"),
)

MAX_PERMUTATION_TOKENS = 6
DEFAULT_MIN_LINKS = 3


class StripResult(NamedTuple):
    text: str
    truncated: bool


def _past_close(text: str, i: int, open_tok: str | None, close_tok: str) -> int:
    """Index just past the closer that balances an opener ending at i, or
    -1 when it never closes. Jumps between delimiters; where an opener
    and a closer start at the same place, the opener wins. With no
    `open_tok`, nothing nests and the first closer ends the region."""
    depth = 1
    opener = -1 if open_tok is None else text.find(open_tok, i)
    closer = text.find(close_tok, i)
    while closer != -1:
        if opener != -1 and opener <= closer:
            depth += 1
            i = opener + len(open_tok)
        else:
            depth -= 1
            i = closer + len(close_tok)
            if depth == 0:
                return i
        if opener != -1 and opener < i:
            opener = text.find(open_tok, i)
        if closer < i:
            closer = text.find(close_tok, i)
    return -1


def _strip(text: str, opener: re.Pattern[str], open_tok: str | None, close_tok: str) -> tuple[str, bool]:
    """Drop each region from `opener` to the closer that balances it; one
    never closed drops the rest and sets the flag. Stray closers are text.
    Text joined across a dropped region waits for the next pass, even
    where it spells a new opener."""
    kept: list[str] = []
    i = 0
    while (match := opener.search(text, i)) is not None:
        kept.append(text[i : match.start()])
        i = _past_close(text, match.end(), open_tok, close_tok)
        if i == -1:
            return "".join(kept), True
    kept.append(text[i:])
    return "".join(kept), False


def strip_markup(wikitext: str) -> StripResult:
    """Clean wikitext down to prose plus plain [[...]] links.

    Every pass drops each opener it meets, with or without its closer,
    so the text shrinks until no opener is left and a further pass would
    change nothing.
    """
    text = wikitext
    truncated = False
    while any(opener.search(text) for opener, _, _ in _STAGES):
        for stage in _STAGES:
            text, flag = _strip(text, *stage)
            truncated |= flag
    return StripResult(text, truncated)


def _link_targets(text: str) -> list[str]:
    """Targets of plain links, first occurrence order, deduplicated."""
    targets = []
    for match in _LINK_RE.finditer(text):
        target = match.group(1).split("|", 1)[0].split("#", 1)[0]
        target = " ".join(target.split())
        if target and not _INTERLANGUAGE_RE.match(target):
            targets.append(target)
    return list(dict.fromkeys(targets))


@dataclass(frozen=True)
class LeadExtract:
    links: tuple[str, ...]
    used_full_article: bool


def extract_lead(wikitext: str, min_links: int = DEFAULT_MIN_LINKS) -> LeadExtract:
    """Links of the section above the first heading.

    Falls back to the whole cleaned article when the lead yields fewer
    than `min_links` links (short articles).
    """
    cleaned = strip_markup(wikitext).text
    # The lead ends where the first line starting with `==` begins. A line
    # ends at `\n` only, as in every file the repo reads; `splitlines` would
    # also end one at `\x0b`, `\x1c` or U+2028 inside the lead.
    lead = "" if cleaned.startswith("==") else cleaned.partition("\n==")[0]
    links = _link_targets(lead)
    used_full_article = False
    if len(links) < min_links:
        full = _link_targets(cleaned)
        if len(full) > len(links):
            links = full
            used_full_article = True
    return LeadExtract(links=tuple(links), used_full_article=used_full_article)


@dataclass(frozen=True)
class MatchResult:
    title: str
    stage: str
    score: float


class ArticleStore:
    """Immutable set of (title, wikitext) articles with a title matcher.

    Titles are analyzed twice: once with the language's standard chain
    and once with an empty stopword list, so that a query carrying
    function words only matches a title that carries them too. Per chain,
    each run of a title's terms maps to the title once per occurrence.
    Lead extracts are derived from the articles and built on first use:
    at most one per (title, `min_links`) for the life of the store.
    """

    def __init__(self, articles: Iterable[tuple[str, str]], lang: str = "en"):
        """Store (title, wikitext) pairs; a repeated title is a DataError."""
        self.lang = lang
        self._articles: dict[str, str] = {}
        for title, wikitext in articles:
            if title in self._articles:
                raise DataError(f"duplicate article title {title!r}")
            self._articles[title] = wikitext
        if not self._articles:
            raise DataError("article store is empty")
        # Each pair is (chain, its run table).
        self._standard = (shared_chain(lang), {})
        self._exact = (shared_chain(lang, frozenset()), {})
        for chain, runs in (self._standard, self._exact):
            for title in self._articles:
                terms = chain.run(title)
                for i, j in itertools.combinations(range(len(terms) + 1), 2):
                    runs.setdefault(tuple(terms[i:j]), []).append(title)
        self._leads: dict[tuple[str, int], LeadExtract] = {}

    @classmethod
    def from_dir(cls, path: str | Path, lang: str = "en") -> "ArticleStore":
        """Load `<percent-encoded-title>.wiki` files from a directory."""
        return cls(read_titled_files(path, ".wiki"), lang=lang)

    @property
    def titles(self) -> list[str]:
        return sorted(self._articles)

    def wikitext(self, title: str) -> str:
        return self._articles[title]

    def lead(self, title: str, min_links: int = DEFAULT_MIN_LINKS) -> LeadExtract:
        """`extract_lead` of the article, made on the first call per
        (title, `min_links`) and kept."""
        key = (title, min_links)
        lead = self._leads.get(key)
        if lead is None:
            lead = self._leads[key] = extract_lead(self._articles[title], min_links=min_links)
        return lead

    def match(self, topic_title: str) -> MatchResult | None:
        """Resolve a topic title through four stages.

        (a) the words as given, in order; (b) the stopword-free words in
        order; (c) every ordering of the stopword-free word set; (d) each
        single word. The words are analyzed once, and a stage looks up
        each of its texts' term runs on its own, a title holding one tf
        times scoring sqrt(tf) * idf(df); the first stage with a hit wins,
        and its winner is the hit with the highest score, ties broken by
        shorter then lexicographically smaller title.
        """
        standard, runs = self._standard
        # Each query word is one token with a nonempty term, so a text joined
        # from words analyzes to their terms: each stage looks those up.
        words = query_tokens(standard, topic_title)
        terms = tuple(map(standard.term, words))
        distinct = tuple(map(standard.term, sorted(set(words))))
        orderings = (
            itertools.permutations(distinct)
            if 2 <= len(distinct) <= MAX_PERMUTATION_TOKENS
            else ()
        )
        exact, exact_runs = self._exact
        stages = (
            ("original", exact_runs, [tuple(exact.run(topic_title))]),
            ("stopword_free", runs, [terms]),
            ("permutation", runs, orderings),
            ("single_word", runs, zip(terms)),
        )
        for stage, table, phrases in stages:
            # Each phrase's best (-score, title length, title); the least wins.
            bests = []
            for phrase in phrases:
                tfs = Counter(table.get(phrase, ()))
                if tfs:
                    idf = idf_weight(len(self._articles), len(tfs))
                    bests.append(min((-tf_weight(tf) * idf, len(title), title) for title, tf in tfs.items()))
            if bests:
                neg_score, _, title = min(bests)
                return MatchResult(title, stage, -neg_score)
        return None


def suggest_wiki_lead(
    store: ArticleStore,
    topic: Topic,
    k: int = 10,
    min_links: int = DEFAULT_MIN_LINKS,
) -> SuggestionSet:
    """Lead-section link targets of the matched article, ranked by
    appearance order with a synthetic 1/rank score."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    match = store.match(topic.title)
    if match is None:
        return SuggestionSet(topic.topic_id, "WIKI_ENTITY")
    links = store.lead(match.title, min_links).links[:k]
    return SuggestionSet(topic.topic_id, "WIKI_ENTITY", links, reciprocal_rank_scores(len(links)))
