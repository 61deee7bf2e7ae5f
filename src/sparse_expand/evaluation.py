"""Run and suggestion scoring: AP, R-Precision, weak/strong precision.

File formats follow the TREC conventions:

    run:       topic_id Q0 doc_id rank score run_tag   (whitespace separated)
    qrels:     topic_id 0 doc_id grade                 (grades 0, 1, 2)
    judgments: topic_id rank grade                     (tab separated)

A qrels file grades each (topic, doc) once, and a judgments file each
(topic, rank) once, with ranks from 1; a repeat is a data error, not a
silent override. Topic and doc ids follow the id rule of `files`.

In memory a run is `{topic_id: Hits}`, each topic's hits in rank order,
as `Index.search` returns them. The writer reads the `doc_ids` and
`scores` columns, never a row: it checks every topic first, then formats
each topic with one `%` format, its line repeated once per hit, numbers
the ranks, writes the run tag it is given, and encodes and writes one
topic's block at a time. The reader checks the ranks, then drops them and
the tags.

A grade >= 1 counts as relevant for the ad-hoc metrics. Topics without
any relevant document are excluded from means; topics with relevant
documents but no run entries score 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import DataError
from .files import ascii_number, check_ranked, check_ranks, encodable, is_id, line_id, read_rows, write_atomic
from .index import Hits
from .suggestions import SuggestionSet

logger = logging.getLogger(__name__)

GRADES = (0, 1, 2)
DEFAULT_RUN_DEPTH = 1000
RELEVANCE_THRESHOLD = 1
_NO_HITS = Hits()


def _run_blocks(run: Mapping[str, Hits], run_tag: str) -> Iterator[str]:
    """Each topic's block of run lines, in mapping order, as an iterator;
    raises DataError before returning it, so that no caller writes any
    of the run, for what `read_run_file` would reject: a run tag, topic
    id or doc id that is empty or holds whitespace, and hits that
    `check_ranked` rejects; and for an id that no UTF-8 file can hold
    (`encodable`)."""
    ids = {run_tag}.union(run, *(hits.doc_ids for hits in run.values()))
    bad = [i for i in ids if not is_id(i)]
    if bad:
        raise DataError(f"run id {min(bad)!r} is empty or contains whitespace")
    if not encodable("".join(ids)):  # surrogates stay lone when joined
        bad = min(i for i in ids if not encodable(i))
        raise DataError(f"run id {bad!r} holds a lone surrogate, which UTF-8 cannot encode")
    for topic_id, hits in run.items():
        check_ranked(f"run for topic {topic_id!r}", hits.doc_ids, hits.scores, "doc_id")
    tag = run_tag.replace("%", "%%")  # an id may hold `%`, which the format would read
    return (_run_block(topic_id.replace("%", "%%"), hits, tag) for topic_id, hits in run.items())


def _run_block(topic: str, hits: Hits, tag: str) -> str:
    """One topic's run lines, by one `%` format over its hits' fields;
    `topic` and `tag` come with any `%` doubled."""
    n = len(hits.doc_ids)
    line = f"{topic} Q0 %s %d %.6f {tag}\n"
    return (line * n) % tuple(chain.from_iterable(zip(hits.doc_ids, range(1, n + 1), hits.scores)))


def run_text(run: Mapping[str, Hits], run_tag: str) -> str:
    """The run file's text: topics in mapping order, hits in rank order.
    Raises DataError as `_run_blocks` does."""
    return "".join(_run_blocks(run, run_tag))


def write_run_file(path: str | Path, run: Mapping[str, Hits], run_tag: str) -> None:
    """Write `run_text` to `path`, encoding one topic's block at a time, so
    the whole text is never held; a DataError comes before any write."""
    write_atomic(path, (block.encode("utf-8") for block in _run_blocks(run, run_tag)))


def read_run_file(path: str | Path) -> dict[str, Hits]:
    """Parse and validate a run; returns topic -> hits in rank order."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    for lineno, (topic_id, _, doc_id, rank_s, score_s, _) in read_rows(path, 6):
        try:
            rank, score = ascii_number(rank_s), ascii_number(score_s, float)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad rank or score") from None
        if not math.isfinite(score):
            raise DataError(f"{path}:{lineno}: score must be finite")
        rows.setdefault(topic_id, []).append((rank, doc_id, score))
    run = {}
    for topic_id, entries in rows.items():
        ranks, docs, scores = zip(*sorted(entries))
        what = f"{path}: run for topic {topic_id!r}"
        check_ranks(what, ranks)
        check_ranked(what, docs, scores, "doc_id")
        run[topic_id] = Hits(docs, scores)
    return run


def read_qrels_file(path: str | Path) -> dict[str, dict[str, int]]:
    """topic -> doc -> grade; grades restricted to 0, 1, 2."""
    qrels: dict[str, dict[str, int]] = {}
    for lineno, (topic_id, _, doc_id, grade_s) in read_rows(path, 4):
        try:
            grade = ascii_number(grade_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad grade") from None
        if grade not in GRADES:
            raise DataError(f"{path}:{lineno}: grade must be one of {GRADES}")
        grades = qrels.setdefault(topic_id, {})
        if doc_id in grades:
            raise DataError(f"{path}:{lineno}: repeated doc {doc_id!r} for topic {topic_id!r}")
        grades[doc_id] = grade
    return qrels


def _relevant_docs(judgments: Mapping[str, int]) -> set[str]:
    return {doc for doc, grade in judgments.items() if grade >= RELEVANCE_THRESHOLD}


def average_precision(ranked_docs: Sequence[str], judgments: Mapping[str, int]) -> float:
    """AP of one ranked list; requires at least one relevant document."""
    relevant = _relevant_docs(judgments)
    if not relevant:
        raise DataError("average_precision needs a topic with relevant documents")
    hits = 0
    total = 0.0
    for position, doc in enumerate(ranked_docs, 1):
        if doc in relevant:
            hits += 1
            total += hits / position
    return total / len(relevant)


def r_precision(ranked_docs: Sequence[str], judgments: Mapping[str, int]) -> float:
    """Fraction of relevant documents within the top R ranks."""
    relevant = _relevant_docs(judgments)
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
    n = len(suggestions.concepts)
    if not n:
        logger.warning("empty suggestion set for topic %s", suggestions.topic_id)
        return (0.0, 0.0)
    weak = strong = 0
    for rank in range(1, n + 1):
        grade = grades.get(rank)
        if grade is None:
            logger.warning("unjudged suggestion rank %d for topic %s", rank, suggestions.topic_id)
            grade = 0
        if grade not in GRADES:
            raise DataError(f"grade must be one of {GRADES}, got {grade}")
        if grade >= 1:
            weak += 1
        if grade == 2:
            strong += 1
    return (weak / n, strong / n)


@dataclass
class MetricReport:
    per_topic: dict[str, dict[str, float]]  # topic -> metric -> value
    means: dict[str, float]

    @classmethod
    def of(cls, per_topic: dict[str, dict[str, float]]) -> "MetricReport":
        """The report of non-empty per-topic values, with each metric's
        mean over the topics."""
        n = len(per_topic)
        metrics = next(iter(per_topic.values()))
        means = {m: sum(values[m] for values in per_topic.values()) / n for m in metrics}
        return cls(per_topic=per_topic, means=means)

    @property
    def topic_ids(self) -> list[str]:
        return sorted(self.per_topic)

    def rows(self, places: int) -> list[tuple[str, ...]]:
        """One row per topic in id order, then a `mean` row: the label,
        then each metric in `means` order with `places` decimals."""
        labelled = [(t, self.per_topic[t]) for t in self.topic_ids] + [("mean", self.means)]
        return [
            (label, *(f"{values[m]:.{places}f}" for m in self.means)) for label, values in labelled
        ]


def evaluate_run(
    run: Mapping[str, Hits],
    qrels: Mapping[str, Mapping[str, int]],
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
        if not _relevant_docs(judgments):
            continue
        ranked = run.get(topic_id, _NO_HITS).doc_ids[:depth]
        per_topic[topic_id] = {
            "ap": average_precision(ranked, judgments),
            "r_precision": r_precision(ranked, judgments),
        }
    if not per_topic:
        raise DataError("no qrels topic has relevant documents")
    return MetricReport.of(per_topic)


def read_judgments_file(path: str | Path) -> dict[str, dict[int, int]]:
    """Suggestion judgments: topic -> rank -> grade."""
    judgments: dict[str, dict[int, int]] = {}
    for lineno, (topic_id, rank_s, grade_s) in read_rows(path, 3, "\t"):
        topic_id = line_id(path, lineno, topic_id)
        try:
            rank, grade = ascii_number(rank_s), ascii_number(grade_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad rank or grade") from None
        if grade not in GRADES:
            raise DataError(f"{path}:{lineno}: grade must be one of {GRADES}")
        if rank < 1:
            raise DataError(f"{path}:{lineno}: rank must be at least 1")
        grades = judgments.setdefault(topic_id, {})
        if rank in grades:
            raise DataError(f"{path}:{lineno}: repeated rank {rank} for topic {topic_id!r}")
        grades[rank] = grade
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
    return MetricReport.of(per_topic)
