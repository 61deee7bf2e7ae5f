"""Text analysis chains: tokenization, stopword removal, case folding,
possessive stripping, stemming and German character normalization.

A chain is immutable and pure: analyzing the same input twice yields the
same token list. Two language profiles are built in:

    en: tokenize -> en_possessive -> lowercase -> stopwords -> porter_stem
    de: tokenize -> lowercase -> stopwords -> de_normalize -> de_light_stem

Positions are assigned after stopword removal, so surviving tokens are
numbered 0..k-1 with no gaps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import stopwords as _stopwords
from .porter import porter_stem

__all__ = [
    "Token",
    "AnalyzerChain",
    "analyze",
    "chain_for",
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


@dataclass(frozen=True)
class Token:
    text: str
    position: int


_STAGE_ORDER = {
    "en": ("tokenize", "en_possessive", "lowercase", "stopwords", "porter_stem"),
    "de": ("tokenize", "lowercase", "stopwords", "de_normalize", "de_light_stem"),
}


# Every stage name the built-in profiles use; `AnalyzerChain.run` knows no other.
STAGE_NAMES = frozenset(stage for stages in _STAGE_ORDER.values() for stage in stages)


@dataclass(frozen=True)
class AnalyzerChain:
    """An ordered, immutable analysis pipeline for one language.

    Every stage after `tokenize` maps one token to one token (or drops
    it), so each chain caches the result per surface token.
    """

    lang: str
    stages: tuple[str, ...]
    stopword_list: frozenset[str] = field(default_factory=frozenset)
    _cache: dict[str, str] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def run(self, text: str) -> list[str]:
        """Apply every stage; returns surviving token texts in order."""
        cache = self._cache
        terms = []
        for surface in tokenize(text):
            term = cache.get(surface)
            if term is None:
                term = cache[surface] = self._analyze_token(surface)
            if term:
                terms.append(term)
        return terms

    def _analyze_token(self, term: str) -> str:
        """The stages after `tokenize` on one token; "" if it is dropped."""
        for stage in self.stages:
            if stage == "tokenize":
                continue
            if stage == "en_possessive":
                term = en_possessive(term)
            elif stage == "lowercase":
                term = term.lower()
            elif stage == "stopwords":
                if term.lower() in self.stopword_list:
                    return ""
            elif stage == "porter_stem":
                term = porter_stem(term)
            elif stage == "de_normalize":
                term = de_normalize(term)
            elif stage == "de_light_stem":
                term = de_light_stem(term)
            else:
                raise ValueError(f"unknown analyzer stage: {stage}")
        return term


def chain_for(
    lang: str,
    stopword_list: frozenset[str] | None = None,
    *,
    keep_stopwords: bool = False,
) -> AnalyzerChain:
    """Build the standard chain for a language profile.

    `keep_stopwords` drops the stopword stage; used for exact title
    matching where function words must stay significant.
    """
    if lang not in _STAGE_ORDER:
        raise ValueError(f"no analyzer profile for language: {lang!r}")
    stages = _STAGE_ORDER[lang]
    if keep_stopwords:
        stages = tuple(s for s in stages if s != "stopwords")
    if stopword_list is None:
        stopword_list = _stopwords.BY_LANG[lang]
    return AnalyzerChain(lang=lang, stages=stages, stopword_list=stopword_list)


def analyze(chain: AnalyzerChain, text: str) -> list[Token]:
    """Run the chain; positions are consecutive over surviving tokens."""
    return [Token(t, i) for i, t in enumerate(chain.run(text))]


def query_tokens(chain: AnalyzerChain, text: str) -> list[str]:
    """Surface tokens of `text` minus stopwords, unstemmed and case-kept.

    These are the raw words a query is assembled from; full analysis
    happens again at match time, token by token.
    """
    terms = tokenize(text)
    if "en_possessive" in chain.stages:
        terms = [en_possessive(t) for t in terms]
    if "stopwords" in chain.stages:
        terms = [t for t in terms if t.lower() not in chain.stopword_list]
    return terms
