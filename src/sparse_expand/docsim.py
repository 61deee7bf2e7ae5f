"""Related-concept suggestion by document similarity.

Each corpus document stands for one concept (its title). Documents are
compared through their n most important words, where importance is the
TF*IDF weight used by the index module, and

    sim(d1, d2) = |top_n(d1) & top_n(d2)| / n

a set-overlap variant of the Jaccard coefficient with a fixed
denominator. Scores are exact rationals. A seed is compared only with
the documents that share an important word with it, found through a
word -> documents map per n; since n is fixed, ranking by the integer
overlap gives the same order as ranking by the score.

To keep k suggestions, the k-th largest overlap is read off a tally of
the overlap values; only the documents that reach it are sorted, by
overlap and then by ordinal. Documents are held by their ordinal in
sorted title order, so ties break by title through integer comparisons.
Scores come from a table of Fraction(i, n), built once per n.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, compress
from pathlib import Path
from typing import Iterable

from .analysis import chain_for
from .errors import DataError, SeedNotFoundError
from .files import read_titled_files
from .index import idf_weight
from .suggestions import SuggestionSet, make_suggestion_set


class SimCorpus:
    """Immutable (title, body) collection with cached important-word sets."""

    def __init__(self, documents: Iterable[tuple[str, str]], lang: str = "en"):
        self.lang = lang
        self._chain = chain_for(lang)
        self._term_counts: dict[str, Counter] = {}
        for title, body in documents:
            if title in self._term_counts:
                raise DataError(f"duplicate document title {title!r}")
            if any(c.isspace() and c != " " for c in title):
                raise DataError(f"document title {title!r} contains whitespace other than spaces")
            self._term_counts[title] = Counter(self._chain.run(body))
        if not self._term_counts:
            raise DataError("similarity corpus is empty")
        self._df = Counter()
        for counts in self._term_counts.values():
            self._df.update(counts.keys())
        self._titles = sorted(self._term_counts)
        self._ordinals = {title: i for i, title in enumerate(self._titles)}
        self._important: dict[tuple[str, int], frozenset[str]] = {}
        self._holders: dict[int, dict[str, tuple[int, ...]]] = {}
        self._scores: dict[int, tuple[Fraction, ...]] = {}

    @classmethod
    def from_dir(cls, path: str | Path, lang: str = "en") -> "SimCorpus":
        """Load `<percent-encoded-title>.txt` files from a directory."""
        return cls(read_titled_files(path, ".txt"), lang=lang)

    @property
    def titles(self) -> list[str]:
        return list(self._titles)

    @property
    def n_docs(self) -> int:
        return len(self._term_counts)

    def __contains__(self, title: str) -> bool:
        return title in self._term_counts

    def important_words(self, title: str, n: int) -> frozenset[str]:
        """The n highest tf*idf terms of a document.

        Ties prefer the lexicographically smaller term; documents with
        fewer than n distinct terms contribute all of them.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if title not in self._term_counts:
            raise SeedNotFoundError(f"document not in corpus: {title!r}")
        key = (title, n)
        cached = self._important.get(key)
        if cached is not None:
            return cached
        counts = self._term_counts[title]
        ranked = sorted(
            counts,
            key=lambda term: (-counts[term] * idf_weight(self.n_docs, self._df[term]), term),
        )
        words = frozenset(ranked[:n])
        self._important[key] = words
        return words

    def sim(self, title1: str, title2: str, n: int) -> Fraction:
        """Important-word overlap of two documents, in [0, 1]."""
        words1 = self.important_words(title1, n)
        words2 = self.important_words(title2, n)
        return Fraction(len(words1 & words2), n)

    def _score_table(self, n: int) -> tuple[Fraction, ...]:
        """Fraction(i, n) for every overlap i from 0 to n."""
        table = self._scores.get(n)
        if table is None:
            table = self._scores[n] = tuple(Fraction(i, n) for i in range(n + 1))
        return table

    def _overlaps(self, title: str, n: int) -> Counter:
        """Ordinals of the other documents sharing an important word with
        `title`, mapped to the size of the shared important-word set."""
        words = self.important_words(title, n)
        holders = self._holders.get(n)
        if holders is None:
            lists: dict[str, list[int]] = {}
            for ordinal, other in enumerate(self._titles):
                for word in self.important_words(other, n):
                    lists.setdefault(word, []).append(ordinal)
            holders = {word: tuple(ordinals) for word, ordinals in lists.items()}
            self._holders[n] = holders
        counts = Counter(chain.from_iterable(map(holders.__getitem__, words)))
        del counts[self._ordinals[title]]
        return counts


def suggest_docsim(
    corpus: SimCorpus,
    seed_title: str,
    k: int = 10,
    n: int = 50,
    source: str = "WIKI_SIM",
    topic_id: str = "",
) -> SuggestionSet:
    """Titles of the documents most similar to the seed document.

    The seed itself is excluded and zero-score documents are omitted,
    so fewer than k suggestions may come back.
    """
    if seed_title not in corpus:
        raise SeedNotFoundError(f"seed not found: {seed_title!r}")
    counts = corpus._overlaps(seed_title, n)
    candidates = counts
    if len(counts) > k:
        threshold = _kth_largest(Counter(counts.values()), k)
        candidates = compress(counts, map(threshold.__le__, counts.values()))
    ranked = sorted(candidates)  # ordinal order is title order
    ranked.sort(key=counts.__getitem__, reverse=True)
    top = ranked[:k]
    titles = map(corpus._titles.__getitem__, top)
    scores = map(corpus._score_table(n).__getitem__, map(counts.__getitem__, top))
    return make_suggestion_set(topic_id, source, zip(titles, scores))


def _kth_largest(tally: Counter, k: int) -> int:
    """The k-th largest value of a multiset given as value -> count
    (the smallest value when k exceeds its size)."""
    seen = 0
    for value in sorted(tally, reverse=True):
        seen += tally[value]
        if seen >= k:
            break
    return value
