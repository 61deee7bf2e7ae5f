"""Metadata corpus ingest, topics, and the coverage / word-count reports.

Documents arrive as UTF-8 line-delimited JSON, one object per line:

    {"id": "...", "lang": "en", "fields": {"dc:title": ["..."], ...}}

Topics use the same transport:

    {"id": "CHIC-010", "lang": "en", "title": "film canada", "description": "..."}

A document's language must have an analyzer profile ("en" or "de"),
and its field names must come from the one built-in 55-field
`DEFAULT_SCHEMA` unless the ingest is lax, which keeps other fields too.
Ids may not contain whitespace, since run files separate their columns
by whitespace, and a topic id may appear only once in its file. No
string may hold a lone surrogate (a JSON escape such as `\\ud800`
without its pair), since no UTF-8 writer can emit one, and no object may
repeat a key: `files.json_object` reads every line. A document's
`id` and `lang` must be JSON strings, and each field a list of values or
one string (read as a one-value list; a bare number is rejected). Each
value is a string or a number (not `true`, `false`, `null`, an array or
an object); a number is stored in Python's `str()` form. Each field value is stored with its
whitespace runs folded to one space, so that a value is one line with no
tabs in the suggestion file. Field names are interned (`sys.intern`):
the documents of a corpus share one string object per field name, where
each JSON line would decode its own. Values are not shared. `Document`
and `Topic` are slotted, frozen dataclasses.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import LANGUAGES
from .errors import DataError, DuplicateDocumentError, EmptyCorpusError
from .files import is_id, json_object, read_lines

# Fields of a typical cultural-heritage metadata record: the only fields
# a strict ingest accepts, the column order of coverage reports and the
# field order of the index's union field.
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

_SCHEMA_FIELDS = frozenset(DEFAULT_SCHEMA)

# Controlled-vocabulary fields whose whole values are co-occurrence (STR)
# concepts; the index keeps raw values for these fields only.
CONCEPT_FIELDS: tuple[str, ...] = ("dc:subject", "enrichment:concept_label")


@dataclass(frozen=True, slots=True)
class Document:
    """One multi-field metadata record."""

    doc_id: str
    lang: str
    fields: dict[str, tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class Topic:
    topic_id: str
    title: str
    lang: str
    description: str | None = None


@dataclass
class IngestResult:
    documents: list[Document]
    reject_reasons: Counter

    @property
    def rejected(self) -> int:
        """Lines skipped in lax mode."""
        return sum(self.reject_reasons.values())


# JSON type names; a field value must be a string or a number (a JSON
# true or false decodes to a bool, which is an int but not a number here).
_JSON_TYPES = {
    str: "string", int: "number", float: "number", bool: "boolean",
    type(None): "null", list: "array", dict: "object",
}
_VALUE_TYPES = frozenset((str, int, float))


def _string(obj: dict, key: str, where: str = "") -> str:
    """`obj[key]` stripped, "" if absent; DataError, prefixed by `where`, if not a JSON string."""
    value = obj.get(key, "")
    if type(value) is not str:
        raise DataError(f"{where}{key!r} must be a string, not a JSON {_JSON_TYPES[type(value)]}")
    return value.strip()


def _parse_document(obj: dict, lax: bool) -> Document:
    doc_id = _string(obj, "id")
    if not doc_id:
        raise DataError("missing or empty 'id'")
    if not is_id(doc_id):
        raise DataError(f"document id {doc_id!r} contains whitespace")
    lang = _string(obj, "lang", f"document {doc_id!r}: ")
    if not lang:
        raise DataError(f"document {doc_id!r}: missing or empty 'lang'")
    if lang not in LANGUAGES:
        raise DataError(f"document {doc_id!r}: no analyzer profile for language {lang!r}")
    raw_fields = obj.get("fields")
    if not isinstance(raw_fields, dict):
        raise DataError(f"document {doc_id!r}: 'fields' must be an object")
    fields: dict[str, tuple[str, ...]] = {}
    for name, values in raw_fields.items():
        if name not in _SCHEMA_FIELDS and not lax:
            raise DataError(f"document {doc_id!r}: unknown field {name!r}")
        if isinstance(values, str):
            values = [values]
        if not isinstance(values, list):
            raise DataError(f"document {doc_id!r}: field {name!r} must hold a list")
        for value in values:
            if type(value) not in _VALUE_TYPES:
                raise DataError(
                    f"document {doc_id!r}: field {name!r} holds a JSON "
                    f"{_JSON_TYPES[type(value)]}, not a string or a number"
                )
        folded = tuple(filter(None, (" ".join(str(v).split()) for v in values)))
        if folded:
            fields[sys.intern(name)] = folded
    return Document(doc_id=doc_id, lang=lang, fields=fields)


def ingest_documents(path: str | Path, lax: bool = False) -> IngestResult:
    """Read a line-delimited JSON document file.

    Strict mode aborts on the first malformed line, a field outside
    `DEFAULT_SCHEMA` included; lax mode skips and counts a malformed line
    and keeps unknown fields. A duplicate doc_id aborts in either mode.
    """
    documents: list[Document] = []
    seen: set[str] = set()
    reasons: Counter = Counter()
    for lineno, line in read_lines(path):
        try:
            doc = _parse_document(json_object(line), lax)
        except DataError as exc:
            if lax:
                reasons[str(exc)] += 1
                continue
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if doc.doc_id in seen:
            raise DuplicateDocumentError(f"{path}:{lineno}: duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        documents.append(doc)
    return IngestResult(documents=documents, reject_reasons=reasons)


def _parse_topic(obj: dict) -> Topic:
    topic_id, title, lang = (_string(obj, key) for key in ("id", "title", "lang"))
    description = obj.get("description")
    if description is not None and type(description) is not str:
        raise DataError(
            f"'description' must be a string or null, not a JSON {_JSON_TYPES[type(description)]}"
        )
    if not topic_id or not title or not lang:
        raise DataError("topic needs non-empty 'id', 'title' and 'lang'")
    if not is_id(topic_id):
        raise DataError(f"topic id {topic_id!r} contains whitespace")
    return Topic(topic_id=topic_id, title=title, lang=lang, description=description)


def read_topics(path: str | Path) -> list[Topic]:
    """Read a line-delimited JSON topic file. `id`, `title` and `lang`
    must be JSON strings, and `description` a string, null or absent."""
    topics: dict[str, Topic] = {}
    for lineno, line in read_lines(path):
        try:
            topic = _parse_topic(json_object(line))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if topic.topic_id in topics:
            raise DataError(f"{path}:{lineno}: repeated topic id {topic.topic_id!r}")
        topics[topic.topic_id] = topic
    return list(topics.values())


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


def coverage_report(corpus: Iterable[Document]) -> CoverageReport:
    """Count, per `DEFAULT_SCHEMA` field, the documents carrying at least
    one value."""
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
        for name in DEFAULT_SCHEMA
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
