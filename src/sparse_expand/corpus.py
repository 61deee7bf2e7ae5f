"""Metadata corpus ingest, topics, and the coverage / word-count reports.

Documents arrive as UTF-8 line-delimited JSON, one object per line:

    {"id": "...", "lang": "en", "fields": {"dc:title": ["..."], ...}}

Topics use the same transport:

    {"id": "CHIC-010", "lang": "en", "title": "film canada", "description": "..."}

A document's language must have an analyzer profile ("en" or "de").
Ids may not contain whitespace, since run files separate their columns
by whitespace. Each field value is stored with its whitespace runs folded
to one space, so that a value is one line with no tabs in the
suggestion file.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import LANGUAGES
from .errors import DataError, DuplicateDocumentError, EmptyCorpusError

# Fields of a typical cultural-heritage metadata record, used as the
# default ingest schema and as the column order of coverage reports.
DEFAULT_SCHEMA: tuple[str, ...] = (
    "dc:contributor",
    "dc:coverage",
    "dc:creator",
    "dc:date",
    "dc:description",
    "dc:format",
    "dc:identifier",
    "dc:language",
    "dc:publisher",
    "dc:relation",
    "dc:rights",
    "dc:source",
    "dc:subject",
    "dc:title",
    "dc:type",
    "dcterms:alternative",
    "dcterms:created",
    "dcterms:extent",
    "dcterms:hasFormat",
    "dcterms:hasPart",
    "dcterms:hasVersion",
    "dcterms:isPartOf",
    "dcterms:isReferencedBy",
    "dcterms:issued",
    "dcterms:medium",
    "dcterms:provenance",
    "dcterms:references",
    "dcterms:spatial",
    "dcterms:tableOfContents",
    "dcterms:temporal",
    "enrichment:agent_label",
    "enrichment:agent_term",
    "enrichment:concept_broader_label",
    "enrichment:concept_broader_term",
    "enrichment:concept_label",
    "enrichment:concept_term",
    "enrichment:period_broader_label",
    "enrichment:period_broader_term",
    "enrichment:period_label",
    "enrichment:period_term",
    "enrichment:place_broader_label",
    "enrichment:place_broader_term",
    "enrichment:place_label",
    "enrichment:place_term",
    "europeana:country",
    "europeana:dataProvider",
    "europeana:isShownAt",
    "europeana:isShownBy",
    "europeana:language",
    "europeana:object",
    "europeana:provider",
    "europeana:rights",
    "europeana:type",
    "europeana:uri",
    "europeana:year",
)


@dataclass(frozen=True)
class Document:
    """One multi-field metadata record."""

    doc_id: str
    lang: str
    fields: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class Topic:
    topic_id: str
    title: str
    lang: str
    description: str | None = None


@dataclass
class IngestResult:
    documents: list[Document]
    accepted: int
    rejected: int
    reject_reasons: Counter

    def __iter__(self):
        return iter(self.documents)


def _parse_document(obj: dict, schema: Sequence[str] | None, lax: bool) -> Document:
    doc_id = str(obj.get("id", "")).strip()
    if not doc_id:
        raise DataError("missing or empty 'id'")
    if any(map(str.isspace, doc_id)):
        raise DataError(f"document id {doc_id!r} contains whitespace")
    lang = str(obj.get("lang", "")).strip()
    if not lang:
        raise DataError(f"document {doc_id!r}: missing or empty 'lang'")
    if lang not in LANGUAGES:
        raise DataError(f"document {doc_id!r}: no analyzer profile for language {lang!r}")
    raw_fields = obj.get("fields")
    if not isinstance(raw_fields, dict):
        raise DataError(f"document {doc_id!r}: 'fields' must be an object")
    known = set(schema) if schema is not None else None
    fields: dict[str, tuple[str, ...]] = {}
    for name, values in raw_fields.items():
        if known is not None and name not in known and not lax:
            raise DataError(f"document {doc_id!r}: unknown field {name!r}")
        if isinstance(values, str):
            values = [values]
        if not isinstance(values, list):
            raise DataError(f"document {doc_id!r}: field {name!r} must hold a list")
        folded = tuple(filter(None, (" ".join(str(v).split()) for v in values)))
        if folded:
            fields[name] = folded
    return Document(doc_id=doc_id, lang=lang, fields=fields)


def ingest_documents(
    path: str | Path,
    schema: Sequence[str] | None = DEFAULT_SCHEMA,
    lax: bool = False,
) -> IngestResult:
    """Read a line-delimited JSON document file.

    Strict mode aborts on the first malformed line; lax mode skips and
    counts it. A duplicate doc_id aborts in either mode.
    """
    documents: list[Document] = []
    seen: set[str] = set()
    reasons: Counter = Counter()
    rejected = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"invalid JSON: {exc}") from None
                if not isinstance(obj, dict):
                    raise DataError("line is not a JSON object")
                doc = _parse_document(obj, schema, lax)
            except DataError as exc:
                if lax:
                    rejected += 1
                    reasons[str(exc)] += 1
                    continue
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if doc.doc_id in seen:
                raise DuplicateDocumentError(
                    f"{path}:{lineno}: duplicate doc_id {doc.doc_id!r}"
                )
            seen.add(doc.doc_id)
            documents.append(doc)
    return IngestResult(
        documents=documents,
        accepted=len(documents),
        rejected=rejected,
        reject_reasons=reasons,
    )


def read_topics(path: str | Path) -> list[Topic]:
    """Read a line-delimited JSON topic file."""
    topics: list[Topic] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: line is not a JSON object")
            topic_id = str(obj.get("id", "")).strip()
            title = str(obj.get("title", "")).strip()
            lang = str(obj.get("lang", "")).strip()
            if not topic_id or not title or not lang:
                raise DataError(
                    f"{path}:{lineno}: topic needs non-empty 'id', 'title' and 'lang'"
                )
            if any(map(str.isspace, topic_id)):
                raise DataError(f"{path}:{lineno}: topic id {topic_id!r} contains whitespace")
            description = obj.get("description")
            if description is not None:
                description = str(description)
            topics.append(
                Topic(topic_id=topic_id, title=title, lang=lang, description=description)
            )
    return topics


@dataclass(frozen=True)
class FieldCoverage:
    count: int
    fraction: Fraction  # exact, in [0, 1]

    @property
    def percent(self) -> int:
        """Display percentage, rounded half-up to an integer."""
        return int(self.fraction * 100 + Fraction(1, 2))


@dataclass
class CoverageReport:
    corpus_size: int
    per_field: dict[str, FieldCoverage]


def coverage_report(
    corpus: Iterable[Document], schema: Sequence[str] = DEFAULT_SCHEMA
) -> CoverageReport:
    """Count, per schema field, the documents carrying at least one value."""
    counts = Counter()
    size = 0
    for doc in corpus:
        size += 1
        for name in doc.fields:
            counts[name] += 1
    if size == 0:
        raise EmptyCorpusError("empty corpus")
    per_field = {
        name: FieldCoverage(count=counts.get(name, 0), fraction=Fraction(counts.get(name, 0), size))
        for name in schema
    }
    return CoverageReport(corpus_size=size, per_field=per_field)


@dataclass(frozen=True)
class FieldStats:
    mean: float
    median: float
    min: int
    max: int


@dataclass
class TopicStats:
    title: FieldStats
    description: FieldStats


def _field_stats(counts: Sequence[int]) -> FieldStats:
    return FieldStats(
        mean=statistics.mean(counts),
        median=statistics.median(counts),
        min=min(counts),
        max=max(counts),
    )


def topic_stats(topics: Sequence[Topic]) -> TopicStats:
    """Whitespace word-count statistics over a topic set.

    An absent description counts as zero words. The median of an even
    count is the mean of the central pair.
    """
    if not topics:
        raise DataError("empty topic list")
    title_counts = [len(t.title.split()) for t in topics]
    desc_counts = [len(t.description.split()) if t.description else 0 for t in topics]
    return TopicStats(
        title=_field_stats(title_counts),
        description=_field_stats(desc_counts),
    )
