"""Concept suggestions and their tab-separated file format.

A suggestion file holds one line per suggestion, sorted by topic then
rank:

    topic_id <TAB> rank <TAB> concept_text <TAB> score <TAB> system

A set holds its suggestions as two parallel columns, the texts
(`concepts`) and the `scores`, in rank order: a suggestion's rank is its
position, and its system is the set's. The set checks both as whole
columns, so building and validating one runs no Python loop over its
suggestions. Its `suggestions`, (text, score) `ConceptSuggestion` rows,
are made only when read; the generators, COMBO, the query builder, the
file writer and the evaluator read the columns. The file writer rejects
a topic id or text that would not read back as written, and a repeated
(topic, system) pair; the reader checks the ranks it reads before it
drops them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from operator import truediv
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import DataError
from .files import ascii_number, check_ranked, check_ranks, is_id, line_id, read_rows, write_lines

# The one registry of system names. Generator order is COMBO's merge
# order; COMBO comes last because it consumes the generators' output.
GENERATOR_SYSTEMS = ("WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR")
SYSTEMS = GENERATOR_SYSTEMS + ("COMBO",)


class ConceptSuggestion(NamedTuple):
    text: str
    score: float | Fraction


@dataclass(frozen=True, slots=True)
class SuggestionSet:
    """One topic's suggestions from one system, as two parallel columns in
    rank order: the texts (`concepts`) and their `scores`. DataError,
    naming the topic, for columns of unequal length, a score that is not
    finite, a repeated text, or scores rising with rank."""

    topic_id: str
    system: str
    concepts: tuple[str, ...] = ()
    scores: tuple[float | Fraction, ...] = ()

    def __post_init__(self):
        concepts, scores = tuple(self.concepts), tuple(self.scores)
        object.__setattr__(self, "concepts", concepts)
        object.__setattr__(self, "scores", scores)
        what = f"suggestions for topic {self.topic_id!r}"
        if len(concepts) != len(scores):
            raise DataError(f"{what}: {len(concepts)} texts for {len(scores)} scores")
        if concepts:
            check_ranked(what, concepts, tuple(map(float, scores)), "text")

    @property
    def suggestions(self) -> tuple[ConceptSuggestion, ...]:
        """The (text, score) rows in rank order, made on each read."""
        return tuple(map(tuple.__new__, repeat(ConceptSuggestion), zip(self.concepts, self.scores)))

    def texts(self) -> list[str]:
        return list(self.concepts)


def group_by_topic(sets: Iterable[SuggestionSet]) -> dict[str, list[SuggestionSet]]:
    """topic_id -> its sets, in the order given."""
    by_topic: dict[str, list[SuggestionSet]] = {}
    for sset in sets:
        by_topic.setdefault(sset.topic_id, []).append(sset)
    return by_topic


def make_suggestion_set(
    topic_id: str, system: str, texts_scores: Iterable[tuple[str, float | Fraction]]
) -> SuggestionSet:
    """Build a set from (text, score) tuples already in rank order."""
    pairs = tuple(texts_scores)
    concepts, scores = zip(*pairs) if pairs else ((), ())
    return SuggestionSet(topic_id, system, concepts, scores)


def reciprocal_rank_scores(n: int) -> tuple[float, ...]:
    """1/1, 1/2, ..., 1/n: the synthetic scores of a ranking by position."""
    return tuple(map(truediv, repeat(1.0, n), range(1, n + 1)))


def suggestion_lines(sets: Iterable[SuggestionSet]) -> list[str]:
    """The suggestion file's lines, sorted by topic then rank; DataError,
    before any is written, for a topic id that is empty or holds
    whitespace, a (topic, system) pair given twice, and a tab, `\\n` or
    `\\r` inside a column."""
    lines, seen = [], set()
    for sset in sorted(sets, key=lambda s: s.topic_id):
        topic_id, system = sset.topic_id, sset.system
        if not is_id(topic_id):
            raise DataError(f"topic id {topic_id!r} is empty or contains whitespace")
        if (topic_id, system) in seen:
            raise DataError(f"repeated suggestion set: topic {topic_id!r}, system {system!r}")
        seen.add((topic_id, system))
        for rank, text, score in zip(count(1), sset.concepts, sset.scores):
            line = f"{topic_id}\t{rank}\t{text}\t{float(score):.6f}\t{system}"
            if line.count("\t") != 4 or "\n" in line or "\r" in line:
                raise DataError(f"topic {topic_id!r}, suggestion {text!r}: tab or line break")
            lines.append(line)
    return lines


def write_suggestion_file(path: str | Path, sets: Iterable[SuggestionSet]) -> None:
    write_lines(path, suggestion_lines(sets))


def read_suggestion_file(path: str | Path) -> list[SuggestionSet]:
    """Parse and validate a suggestion file; one set per (topic, system)."""
    rows: dict[tuple[str, str], list[tuple[int, str, float]]] = {}
    for lineno, (topic_id, rank_s, text, score_s, system) in read_rows(path, 5, "\t"):
        topic_id = line_id(path, lineno, topic_id)
        try:
            rank, score = ascii_number(rank_s), ascii_number(score_s, float)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad rank or score") from None
        rows.setdefault((topic_id, system), []).append((rank, text, score))
    sets = []
    for (topic_id, system), entries in rows.items():
        ranks, texts, scores = zip(*sorted(entries))
        check_ranks(f"{path}: suggestions for topic {topic_id!r}", ranks)
        try:
            sets.append(SuggestionSet(topic_id, system, texts, scores))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return sets
