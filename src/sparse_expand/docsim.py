"""Related-concept suggestion by document similarity.

Each corpus document stands for one concept (its title). Documents are
compared through their n most important words, where importance is the
TF*IDF weight used by the index module, and

    sim(d1, d2) = |top_n(d1) & top_n(d2)| / n

a set-overlap variant of the Jaccard coefficient with a fixed
denominator. Scores are exact rationals; since n is fixed, ranking by
the integer overlap gives the same order as ranking by the score.

A seed's overlap with every document is counted at once, in packed
integer lanes. Per n, built on first use, each important word held by
two or more documents is one Python int with a 1 in the lane of each
holder's ordinal (a word only one document holds adds to no other
document's overlap). A lane is one byte while the largest important-word
set has fewer than 256 words, and just wide enough otherwise, so the sum
of the seed's words' ints never carries from one lane into the next; one
`to_bytes` call then gives every document's overlap. The vectors take
about (words held by two or more documents) x documents x lane width
bytes per n.

Ranking walks the overlap values downward with `bytes.find`, keeping
only matches on a lane boundary: documents are held by their ordinal in
sorted title order, so this yields (-overlap, title) order directly,
stops after k and never visits a zero. Scores come from a per-n table of
Fraction(i, n), sized to the largest important-word set.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator

from .analysis import shared_chain
from .errors import DataError, SeedNotFoundError
from .files import read_titled_files
from .index import idf_weight
from .suggestions import SuggestionSet


class SimCorpus:
    """Immutable (title, body) collection with cached important-word sets."""

    def __init__(self, documents: Iterable[tuple[str, str]], lang: str = "en"):
        self.lang = lang
        self._chain = shared_chain(lang)
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
        self._by_n: dict[int, tuple[dict[str, int], int, tuple[Fraction, ...]]] = {}

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

    def _packed(self, n: int) -> tuple[dict[str, int], int, tuple[Fraction, ...]]:
        """The overlap vectors, lane width and score table for n, built on
        first use.

        Each important word held by two or more documents maps to an int
        with a 1 in the lane of each holder's ordinal; a lane is `width`
        bytes, wide enough for the largest important-word set. The score
        table holds Fraction(i, n) for every overlap that set size allows.
        """
        packed = self._by_n.get(n)
        if packed is None:
            sets = [self.important_words(title, n) for title in self._titles]
            largest = max(map(len, sets))
            width = (largest.bit_length() + 7) // 8 or 1
            holders: dict[str, list[int]] = {}
            for ordinal, words in enumerate(sets):
                for word in words:
                    holders.setdefault(word, []).append(ordinal)
            vectors = {}
            for word, ordinals in holders.items():
                if len(ordinals) > 1:
                    lanes = bytearray(len(sets) * width)
                    for ordinal in ordinals:
                        lanes[ordinal * width] = 1
                    vectors[word] = int.from_bytes(lanes, "little")
            scores = tuple(Fraction(i, n) for i in range(largest + 1))
            packed = self._by_n[n] = (vectors, width, scores)
        return packed


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
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if seed_title not in corpus:
        raise SeedNotFoundError(f"seed not found: {seed_title!r}")
    words = corpus.important_words(seed_title, n)
    vectors, width, scores = corpus._packed(n)
    # No lane exceeds len(words) < 256**width, so no sum carries between lanes.
    total = sum(map(vectors.get, words, repeat(0)))
    lanes = bytearray(total.to_bytes(corpus.n_docs * width, "little"))
    seed = corpus._ordinals[seed_title] * width
    # The seed's own lane counts its shared words: no overlap can exceed it.
    top = int.from_bytes(lanes[seed : seed + width], "little")
    lanes[seed : seed + width] = bytes(width)
    titles = corpus._titles
    # islice takes no stop past sys.maxsize, and no more than n_docs can rank.
    ranked = list(islice(_ranked(lanes, width, top), min(k, corpus.n_docs)))
    return SuggestionSet(
        topic_id, source, [titles[ordinal] for ordinal, _ in ranked], [scores[value] for _, value in ranked]
    )


def _ranked(lanes: bytearray, width: int, top: int) -> Iterator[tuple[int, int]]:
    """(ordinal, value) of every nonzero lane of at most `top`, by
    descending value and then ascending ordinal."""
    for value in range(top, 0, -1):
        pattern = value.to_bytes(width, "little")
        at = lanes.find(pattern)
        while at >= 0:
            if not at % width:  # a match must start on a lane boundary
                yield at // width, value
            at = lanes.find(pattern, at - at % width + width)
