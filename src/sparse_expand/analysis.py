"""Text analysis chains: tokenization, stopword removal, case folding,
possessive stripping, stemming and German character normalization.

A chain is one of two built-in language profiles plus its stopword list,
and nothing else; an empty list drops no token:

    en: tokenize -> en_possessive -> lowercase -> stopwords -> porter_stem
    de: tokenize -> lowercase -> stopwords -> de_normalize -> de_light_stem

A chain is immutable and pure: analyzing the same input twice yields the
same token list. Each chain caches the term of every surface token it
analyzes. `chain_for` gives a private chain with an empty cache;
`shared_chain` gives the one chain per (language, stopword list) that
the package itself analyzes with, so index builds and loads, query
expansion, the article store and the similarity corpora of one process
share its cache.

The index assigns positions after stopword removal, so a value's
surviving tokens are numbered 0..k-1 with no gaps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import stopwords as _stopwords
from .porter import porter_stem

__all__ = [
    "AnalyzerChain",
    "chain_for",
    "shared_chain",
    "tokenize",
    "porter_stem",
    "de_normalize",
    "de_light_stem",
    "en_possessive",
    "query_tokens",
]

# Alphanumeric runs; word-internal apostrophes are kept so possessive
# stripping can see them ("Dick's" stays one token).
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’ʼ][^\W_]+)*", re.UNICODE)

_APOSTROPHES = ("'", "’", "ʼ")

_DE_CHARMAP = str.maketrans({"ä": "a", "ö": "o", "ü": "u", "ß": "ss"})

# Longest suffix first; strip at most one, and only if what remains has
# at least four characters.
_DE_SUFFIXES = ("ern", "em", "en", "er", "es", "e", "s")


def tokenize(text: str) -> list[str]:
    """Split on runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text)


def en_possessive(term: str) -> str:
    """Strip a trailing possessive 's (straight or typographic quote)."""
    if len(term) > 2 and term[-1] in "sS" and term[-2] in _APOSTROPHES:
        return term[:-2]
    return term


def de_normalize(term: str) -> str:
    """Fold German special characters: ä->a, ö->o, ü->u, ß->ss."""
    return term.translate(_DE_CHARMAP)


def de_light_stem(term: str) -> str:
    """Strip one common German inflection suffix, keeping stems >= 4 chars."""
    for suffix in _DE_SUFFIXES:
        if term.endswith(suffix) and len(term) - len(suffix) >= 4:
            return term[: -len(suffix)]
    return term


# Languages with a built-in profile, the only ones a chain accepts.
LANGUAGES = frozenset({"en", "de"})


@dataclass(frozen=True)
class AnalyzerChain:
    """One language's built-in profile with its stopword list.

    Every stage after `tokenize` maps one token to one token (or drops
    it), so each chain caches the result per surface token.
    """

    lang: str
    stopword_list: frozenset[str] = field(default_factory=frozenset)
    _cache: dict[str, str] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self):
        if self.lang not in LANGUAGES:
            raise ValueError(f"no analyzer profile for language: {self.lang!r}")

    def run(self, text: str) -> list[str]:
        """Apply every stage; returns surviving token texts in order."""
        cache = self._cache  # `term` inlined: a call per token made `run` 25% slower
        terms = []
        for surface in tokenize(text):
            term = cache.get(surface)
            if term is None:
                term = cache[surface] = self._analyze_token(surface)
            if term:
                terms.append(term)
        return terms

    def term(self, surface: str) -> str:
        """The term one surface token analyzes to, read through the cache;
        "" if it is dropped."""
        term = self._cache.get(surface)
        if term is None:
            term = self._cache[surface] = self._analyze_token(surface)
        return term

    def _analyze_token(self, term: str) -> str:
        """The stages after `tokenize` on one token; "" if it is dropped."""
        en = self.lang == "en"
        term = (en_possessive(term) if en else term).lower()
        if term in self.stopword_list:
            return ""
        return porter_stem(term) if en else de_light_stem(de_normalize(term))


def chain_for(lang: str, stopword_list: frozenset[str] | None = None) -> AnalyzerChain:
    """The chain for a language profile, with its bundled stopwords unless
    a list is given; exact title matching gives an empty one."""
    if stopword_list is None:
        stopword_list = _stopwords.BY_LANG.get(lang, frozenset())  # AnalyzerChain checks lang
    return AnalyzerChain(lang, stopword_list)


# The chain of each profile that `shared_chain` has given out, by
# (language, stopword list); it lives as long as the process.
_SHARED: dict[tuple[str, frozenset[str]], AnalyzerChain] = {}


def shared_chain(lang: str, stopword_list: frozenset[str] | None = None) -> AnalyzerChain:
    """The one chain of a profile for the life of the process, its cache
    shared by every caller; the stopwords are the bundled ones unless a
    list is given, and a list equal to the bundled one names the same
    profile.

    Analysis is pure, so a result never depends on what the cache holds;
    two threads that analyze one new token at once both store its term.
    """
    if stopword_list is None:
        stopword_list = _stopwords.BY_LANG.get(lang, frozenset())
    key = (lang, stopword_list)
    chain = _SHARED.get(key)
    if chain is None:  # chain_for rejects a language with no profile
        chain = _SHARED.setdefault(key, chain_for(lang, stopword_list))
    return chain


def query_tokens(chain: AnalyzerChain, text: str) -> list[str]:
    """Surface tokens of `text` (unstemmed and case-kept) that the chain
    analyzes to a term, in order.

    These are the raw words a query is assembled from; full analysis
    happens again at match time, token by token, and gives each word the
    term its token has in `chain.run(text)`. A word loses a possessive
    when that leaves its term as it is (`Dick's` becomes `Dick`), but a
    double possessive keeps it: `Ahab's's` analyzes to `ahab'`, while
    `Ahab's` would give `ahab`. Stopwords are dropped, and so is `s`
    (which stems to nothing).
    """
    words = []
    for surface in tokenize(text):
        term = chain.term(surface)
        if not term:
            continue
        word = en_possessive(surface) if chain.lang == "en" else surface
        words.append(word if word == surface or chain.term(word) == term else surface)
    return words
