"""Concept suggestions and their tab-separated file format.

A suggestion file holds one line per suggestion, sorted by topic then
rank:

    topic_id <TAB> rank <TAB> concept_text <TAB> score <TAB> system

A suggestion is a (text, score) NamedTuple built without a Python-level
call, by `tuple.__new__` mapped over the pairs: its rank is its position
in the set, and its system is the set's. A set checks its scores and
texts as whole columns, so building and validating a set runs no Python
loop over its suggestions. The file writer rejects a topic id or text
that would not read back as written; the reader checks the ranks it
reads before it drops them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from operator import truediv
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import DataError
from .files import ascii_number, check_ranked, check_ranks, is_id, line_id, read_rows, write_lines

# The one registry of system names. Generator order is COMBO's merge
# order; COMBO comes last because it consumes the generators' output.
GENERATOR_SYSTEMS = ("WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR")
SYSTEMS = GENERATOR_SYSTEMS + ("COMBO",)


class ConceptSuggestion(NamedTuple):
    text: str
    score: float | Fraction



@dataclass(frozen=True)
class SuggestionSet:
    topic_id: str
    system: str
    suggestions: tuple[ConceptSuggestion, ...]

    def __post_init__(self):
        object.__setattr__(self, "suggestions", tuple(self.suggestions))
        if self.suggestions:
            texts, scores = zip(*self.suggestions)
            check_ranked(f"suggestions for topic {self.topic_id!r}", texts, tuple(map(float, scores)), "text")

    def texts(self) -> list[str]:
        return [s.text for s in self.suggestions]


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
    suggestions = tuple(map(tuple.__new__, repeat(ConceptSuggestion), texts_scores))
    return SuggestionSet(topic_id, system, suggestions)


def reciprocal_rank_scores() -> Iterator[float]:
    """1/1, 1/2, 1/3, ...: the synthetic scores of a ranking by position."""
    return map(truediv, repeat(1.0), count(1))


def suggestion_lines(sets: Iterable[SuggestionSet]) -> list[str]:
    """The suggestion file's lines, sorted by topic then rank; DataError,
    before any is written, for a topic id that is empty or holds
    whitespace, and for a tab, `\\n` or `\\r` inside a column."""
    lines = []
    for sset in sorted(sets, key=lambda s: s.topic_id):
        if not is_id(sset.topic_id):
            raise DataError(f"topic id {sset.topic_id!r} is empty or contains whitespace")
        for rank, (text, score) in enumerate(sset.suggestions, 1):
            line = f"{sset.topic_id}\t{rank}\t{text}\t{float(score):.6f}\t{sset.system}"
            if line.count("\t") != 4 or "\n" in line or "\r" in line:
                raise DataError(f"topic {sset.topic_id!r}, suggestion {text!r}: tab or line break")
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
            sets.append(make_suggestion_set(topic_id, system, zip(texts, scores)))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return sets
