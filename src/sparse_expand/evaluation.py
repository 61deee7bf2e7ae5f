"""Run and suggestion scoring: AP, R-Precision, weak/strong precision.

File formats follow the TREC conventions:

    run:       topic_id Q0 doc_id rank score run_tag   (whitespace separated)
    qrels:     topic_id 0 doc_id grade                 (grades 0, 1, 2)
    judgments: topic_id rank grade                     (tab separated)

A grade >= 1 counts as relevant for the ad-hoc metrics. Topics without
any relevant document are excluded from means; topics with relevant
documents but no run entries score 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataError
from .files import read_lines, write_lines
from .suggestions import SuggestionSet

logger = logging.getLogger(__name__)

GRADES = (0, 1, 2)
DEFAULT_RUN_DEPTH = 1000
RELEVANCE_THRESHOLD = 1


@dataclass(frozen=True)
class RunRecord:
    topic_id: str
    doc_id: str
    rank: int
    score: float
    run_tag: str


def run_lines(records: Iterable[RunRecord]) -> list[str]:
    """The run file's lines, in record order."""
    return [f"{r.topic_id} Q0 {r.doc_id} {r.rank} {r.score:.6f} {r.run_tag}" for r in records]


def write_run_file(path: str | Path, records: Sequence[RunRecord]) -> None:
    write_lines(path, run_lines(records))


def read_run_file(path: str | Path) -> dict[str, list[RunRecord]]:
    """Parse and validate a run; returns topic -> records in rank order."""
    by_topic: dict[str, list[RunRecord]] = {}
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise DataError(f"{path}:{lineno}: expected 6 whitespace-separated columns")
        topic_id, _, doc_id, rank_s, score_s, tag = parts
        try:
            record = RunRecord(topic_id, doc_id, int(rank_s), float(score_s), tag)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad rank or score") from None
        if not math.isfinite(record.score):
            raise DataError(f"{path}:{lineno}: score must be finite")
        by_topic.setdefault(topic_id, []).append(record)
    for topic_id, records in by_topic.items():
        records.sort(key=lambda r: r.rank)
        ranks = [r.rank for r in records]
        if ranks != list(range(1, len(ranks) + 1)):
            raise DataError(f"run for topic {topic_id!r}: ranks must be contiguous from 1")
        docs = [r.doc_id for r in records]
        if len(set(docs)) != len(docs):
            raise DataError(f"run for topic {topic_id!r}: duplicate doc_id")
        scores = [r.score for r in records]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise DataError(f"run for topic {topic_id!r}: scores increase with rank")
    return by_topic


def read_qrels_file(path: str | Path) -> dict[str, dict[str, int]]:
    """topic -> doc -> grade; grades restricted to 0, 1, 2."""
    qrels: dict[str, dict[str, int]] = {}
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 whitespace-separated columns")
        topic_id, _, doc_id, grade_s = parts
        try:
            grade = int(grade_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad grade") from None
        if grade not in GRADES:
            raise DataError(f"{path}:{lineno}: grade must be one of {GRADES}")
        qrels.setdefault(topic_id, {})[doc_id] = grade
    return qrels


def write_qrels_file(path: str | Path, qrels: Mapping[str, Mapping[str, int]]) -> None:
    lines = [
        f"{topic_id} 0 {doc_id} {grade}"
        for topic_id in sorted(qrels)
        for doc_id, grade in sorted(qrels[topic_id].items())
    ]
    write_lines(path, lines)


def _relevant_docs(judgments: Mapping[str, int], threshold: int) -> set[str]:
    return {doc for doc, grade in judgments.items() if grade >= threshold}


def average_precision(
    ranked_docs: Sequence[str],
    judgments: Mapping[str, int],
    threshold: int = RELEVANCE_THRESHOLD,
) -> float:
    """AP of one ranked list; requires at least one relevant document."""
    relevant = _relevant_docs(judgments, threshold)
    if not relevant:
        raise DataError("average_precision needs a topic with relevant documents")
    hits = 0
    total = 0.0
    for position, doc in enumerate(ranked_docs, 1):
        if doc in relevant:
            hits += 1
            total += hits / position
    return total / len(relevant)


def r_precision(
    ranked_docs: Sequence[str],
    judgments: Mapping[str, int],
    threshold: int = RELEVANCE_THRESHOLD,
) -> float:
    """Fraction of relevant documents within the top R ranks."""
    relevant = _relevant_docs(judgments, threshold)
    if not relevant:
        raise DataError("r_precision needs a topic with relevant documents")
    r = len(relevant)
    found = sum(1 for doc in ranked_docs[:r] if doc in relevant)
    return found / r


def se_precision(
    suggestions: SuggestionSet, grades: Mapping[int, int]
) -> tuple[float, float]:
    """(weak, strong) precision of one suggestion set.

    `grades` maps rank to grade; unjudged suggestions count as 0 with a
    warning, as does an empty suggestion set.
    """
    if not suggestions.suggestions:
        logger.warning("empty suggestion set for topic %s", suggestions.topic_id)
        return (0.0, 0.0)
    weak = strong = 0
    for sugg in suggestions.suggestions:
        grade = grades.get(sugg.rank)
        if grade is None:
            logger.warning(
                "unjudged suggestion rank %d for topic %s", sugg.rank, suggestions.topic_id
            )
            grade = 0
        if grade not in GRADES:
            raise DataError(f"grade must be one of {GRADES}, got {grade}")
        if grade >= 1:
            weak += 1
        if grade == 2:
            strong += 1
    n = len(suggestions.suggestions)
    return (weak / n, strong / n)


@dataclass
class MetricReport:
    per_topic: dict[str, dict[str, float]]  # topic -> metric -> value
    means: dict[str, float]

    @property
    def topic_ids(self) -> list[str]:
        return sorted(self.per_topic)


def evaluate_run(
    run: Mapping[str, Sequence[RunRecord]],
    qrels: Mapping[str, Mapping[str, int]],
    threshold: int = RELEVANCE_THRESHOLD,
    depth: int = DEFAULT_RUN_DEPTH,
) -> MetricReport:
    """AP and R-Precision per topic plus their means.

    The topic set is every qrels topic with at least one relevant
    document; topics missing from the run contribute 0. Run topics
    absent from the qrels are skipped with a warning.
    """
    for topic_id in run:
        if topic_id not in qrels:
            logger.warning("run topic %s has no judgments; skipped", topic_id)
    per_topic: dict[str, dict[str, float]] = {}
    for topic_id in sorted(qrels):
        judgments = qrels[topic_id]
        if not _relevant_docs(judgments, threshold):
            continue
        ranked = [r.doc_id for r in run.get(topic_id, [])][:depth]
        per_topic[topic_id] = {
            "ap": average_precision(ranked, judgments, threshold),
            "r_precision": r_precision(ranked, judgments, threshold),
        }
    if not per_topic:
        raise DataError("no qrels topic has relevant documents")
    n = len(per_topic)
    means = {
        "ap": sum(v["ap"] for v in per_topic.values()) / n,
        "r_precision": sum(v["r_precision"] for v in per_topic.values()) / n,
    }
    return MetricReport(per_topic=per_topic, means=means)


def read_judgments_file(path: str | Path) -> dict[str, dict[int, int]]:
    """Suggestion judgments: topic -> rank -> grade."""
    judgments: dict[str, dict[int, int]] = {}
    for lineno, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated columns")
        topic_id, rank_s, grade_s = parts
        try:
            rank, grade = int(rank_s), int(grade_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad rank or grade") from None
        if grade not in GRADES:
            raise DataError(f"{path}:{lineno}: grade must be one of {GRADES}")
        judgments.setdefault(topic_id, {})[rank] = grade
    return judgments


def evaluate_suggestions(
    sets: Sequence[SuggestionSet], judgments: Mapping[str, Mapping[int, int]]
) -> MetricReport:
    """Weak/strong precision per topic plus means over the topic set.

    Expects one suggestion set per topic (a single system's output).
    """
    per_topic: dict[str, dict[str, float]] = {}
    for sset in sets:
        if sset.topic_id in per_topic:
            raise DataError(
                f"multiple suggestion sets for topic {sset.topic_id!r}; "
                "evaluate one system at a time"
            )
        weak, strong = se_precision(sset, judgments.get(sset.topic_id, {}))
        per_topic[sset.topic_id] = {"weak": weak, "strong": strong}
    if not per_topic:
        raise DataError("no suggestion sets to evaluate")
    n = len(per_topic)
    means = {
        "weak": sum(v["weak"] for v in per_topic.values()) / n,
        "strong": sum(v["strong"] for v in per_topic.values()) / n,
    }
    return MetricReport(per_topic=per_topic, means=means)
