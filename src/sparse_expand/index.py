"""Immutable field-aware inverted index with positional postings.

Documents are indexed per language: a document's tokens go into
"<field>-<lang>" composite fields plus a union field "chic_all-<lang>"
that concatenates every analyzed field in `DEFAULT_SCHEMA` order.
Multi-valued fields are concatenated with a one-position gap between
values so that phrases never match across value boundaries. Documents
are numbered in doc_id order, so ordinal order is doc_id order.

The index holds what the snapshot stores, as it stores it; every map
derived from that is in the index's own tables, built on first use. Per
language it keeps one term table, the sorted union of its fields'
terms. Each composite field is one record of the eight items the
snapshot stores for it, in its order: term ordinals (places in its
language's table, strictly ascending), `starts`, `docs`, `tfs`,
`positions`, and the raw values with their offsets and doc-ordinal
columns. Every column is an `array` at the narrowest of 1, 2 or 4 bytes
per value that holds it. The field's term i, the table entry its i-th
ordinal names, owns `docs[starts[i]:starts[i+1]]` (doc ordinals,
strictly ascending), the same slice of `tfs`, and
`positions[pos_starts[i]:pos_starts[i+1]]` (every posting's positions,
in doc order; `pos_starts` is the running sum of `tfs` at `starts`). A
term's slices are cut when a caller asks. `build_index` appends each
token straight to its term's columns, then derives each language's
table once and each field's ordinals from it. Neither build nor load
resolves a field's term strings, makes its term -> ordinal dict or
derives its `pos_starts`: every term read goes through `Index._span`,
which builds the dict through the language's table on the field's first
term lookup, and only phrase matching and `postings` derive the offsets,
on the field's first positional read.

Scoring is a documented TF*IDF sum with no length normalization:

    idf(df)       = 1 + ln(N / (1 + df))
    clause score  = boost * sqrt(tf) * idf(df)
    doc score     = sum of matching clause scores

For a phrase clause, tf is the number of consecutive-position
occurrences in the field and df the number of documents with at least
one occurrence. A doc score adds its clause scores in clause order from
0.0. Since 0.0 + w is w for any non-negative w, `search` fills the empty
score map from the first clause that matches in one C-level pass (a
clause lists each doc once); later clauses add into it one doc at a
time. The result is a `Hits`: two tuples, doc ids and scores in rank
order, each gathered from the ranked ordinals by one C-level
`itemgetter` call (a plain map when there are fewer than two hits), so
no object is made per hit. `ScoredDoc` rows exist only when a caller
indexes or iterates the hits; the run writer and `evaluate_run` read
the columns.

Expanded queries repeat the same clauses, so each `Index` keeps a clause
memo from (field, text, boost) to the docs and tfs columns that hold the
clause's matches, their bounds in them, and its tf -> weight map; or an
empty entry for a clause that analyzes to nothing or matches nothing.
`search` analyzes, looks up and weighs each distinct clause, single
token or phrase, once; a repeat reads the entry. A single token's entry
points into its field's columns and copies nothing; a phrase's entry
holds its matching docs and their match counts. A clause on a field the
index lacks is never stored, so UnknownFieldError rises on every call. An
entry costs 1, plus its matched-doc count for a phrase; once
`CLAUSE_MEMO_BUDGET` units are spent, a new clause is weighed but not
stored. The memo, STR's concept table per language (`concept_table`),
and each field's term ordinals and position offsets are the index's
tables, built on first use. They start empty in the constructor and live
and die with their `Index`.

Only the concept fields (`corpus.CONCEPT_FIELDS`) keep their raw,
untokenized values, the only ones co-occurrence scoring reads; every
other field's record holds no value, offsets of one 0 and no doc. They
are held as the snapshot stores them: the sorted values, an offsets
column and a doc-ordinal column. `raw_values` builds a value -> docs
dict from them on each call; `concept_table` reads the columns.

Every `Index` is made by one constructor, from the term tables and the
finished field records; `build_index` and `Index.load` both call it. The
constructor checks what holds for any index, however it was made: it
raises DuplicateDocumentError for a repeated doc_id, and DataError for
doc_ids otherwise not ascending or a field whose language has no chain.
So `save` cannot write a snapshot that `load` rejects for these reasons.

The version 9 snapshot (README "Snapshot format") stores every string
list as a table: a u32 count, a u32 separator code point and one UTF-8
blob that holds each string followed by the separator. That is U+000A
unless a string of the table holds one, else the lowest code point,
surrogates excluded, that none holds. It stores every column as
a u32 item width (1, 2 or 4), a u32 count and its little-endian values
at that width, and ends with the CRC-32 of every byte before it. `save`
writes each column at the narrowest width that holds it, whatever width
it is held at, so the bytes depend only on the documents; a width fits
when the high bytes it drops are all zero. The snapshot stores no
`pos_starts`. Per language it stores its stopword table and its term
table; each field stores its record, item by item.
So `save` writes the tables and records as held, and `Index.load` keeps
them as read. `Index.load` checks the magic, the version and the
checksum before it decodes anything. It then splits each table's blob
with one `str.split` and reads each column once, as an array. It checks
the term-ordinal, doc-ordinal, offset and tf arrays (`_rises`, `_descends`,
`_holds_zero`) with word-parallel arithmetic on the little-endian bytes
that `_little_endian` gives here and in `save`: `_rises` compares each
item with the next in one int per 4,096 items, in lanes no wider than an
item, and a descent of an offsets column is a rise of a complemented
copy. It copies no posting column, and gathers each run's last doc
ordinal with one `itemgetter`. It sums the tfs in one C-level pass. It
runs no Python loop per term or posting, resolves no term string,
derives no position offsets and builds no lookup maps. Each
language's chain is `analysis.shared_chain` of its stopwords, so every
load of one profile analyzes through one stem cache. The decoder checks
the bytes and columns; `load` then reports the constructor's errors as a
malformed snapshot too. The decoder rejects with DataError:

- another magic or version, then a checksum that is not the CRC-32 of
  the bytes before it (so every single-bit flip, and in all but one
  case in 2**32 a truncation or appended bytes), then bytes after the
  last item;
- a column width other than 1, 2 or 4;
- a table whose count disagrees with its blob, whose blob does not end
  with its separator, whose separator is a surrogate or above U+10FFFF,
  or whose blob is not UTF-8;
- analyzer languages, stopwords, a language's terms, field names or raw
  values that are not strictly ascending;
- a language with no analyzer profile;
- a field whose language has no term table (the constructor's "no
  analyzer chain" error, raised before the field is read);
- a term ordinal not below its language's term count, or not strictly
  ascending within its field;
- offsets (`starts`, raw-value starts) that do not have one more entry
  than their table, do not start at 0, descend, or do not end at their
  column's length;
- tfs and docs columns of different lengths, a tf of 0, or tfs that do
  not sum to the length of the positions column;
- a doc ordinal not below the document count, or not strictly ascending
  within a term or a raw value.
"""

from __future__ import annotations

import math
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from operator import attrgetter, eq, itemgetter, lt, sub
from pathlib import Path
from typing import NamedTuple

from .analysis import LANGUAGES, AnalyzerChain, shared_chain
from .corpus import CONCEPT_FIELDS, DEFAULT_SCHEMA, Document
from .errors import AnalysisError, DataError, DuplicateDocumentError, EmptyCorpusError, UnknownFieldError
from .files import write_atomic

ALL_FIELD = "chic_all"
SEGMENT_GAP = 1  # skipped positions between values of a multi-valued field

SNAPSHOT_MAGIC = b"SPXINDEX"
SNAPSHOT_VERSION = 9
SNAPSHOT_FILENAME = "index.bin"

# Column item width in bytes -> its array typecode. Columns are written
# and read as raw little-endian arrays of these.
_TYPECODES = {1: "B", 2: "H", 4: "I"}
if any(array(code).itemsize != width for width, code in _TYPECODES.items()):
    raise ImportError("sparse_expand.index needs array items of 1, 2 and 4 bytes")
_BIG_ENDIAN = sys.byteorder == "big"

# Units of the per-index clause memo, which holds single tokens and
# phrases alike: an entry costs 1, plus its matched docs for a phrase,
# whose matches it holds. A five-system `run` of 600 topics needs about
# 5.9k units over 2k docs and 23k over 20k.
CLAUSE_MEMO_BUDGET = 2**16

# Items per step of `_rises`: it bounds only the size of the ints it
# makes and of the masks it keeps.
_RISE_CHUNK = 4096

# (width, lanes) -> `_lane_masks` of a full chunk.
_LANE_MASKS: dict[tuple[int, int], tuple[int, int]] = {}

# The code points a table may be separated by, in the order `save` tries
# them after U+000A: every one but the surrogates, which UTF-8 cannot hold.
_SEPARATORS = (range(0xD800), range(0xE000, 0x110000))

# Byte -> 1 if its top bit is clear, else 0.
_CLEAR_TOP_BIT = bytes(1 - (byte >> 7) for byte in range(256))

# Byte -> its complement.
_COMPLEMENT = bytes(range(255, -1, -1))

# The docs and tfs of a clause that matches no document, shared by all.
_NO_MATCH = (array("I"), array("I"))

# The clause memo's entry for a clause that analyzes to nothing or
# matches nothing.
_NO_ENTRY = ()

# Field name -> its place in the union field's order.
_SCHEMA_ORDER = {name: i for i, name in enumerate(DEFAULT_SCHEMA)}

# One term's postings: doc ordinals, tfs, positions.
Columns = tuple[array, array, array]


def idf_weight(n_docs: int, df: int) -> float:
    return 1.0 + math.log(n_docs / (1.0 + df))


def tf_weight(tf: int) -> float:
    return math.sqrt(tf)


@dataclass(frozen=True)
class Posting:
    """One (term, doc) entry, as returned by `Index.postings`."""

    doc: int
    positions: tuple[int, ...]

    @property
    def tf(self) -> int:
        return len(self.positions)


def _check_boost(boost: float) -> None:
    if not (math.isfinite(boost) and boost > 0):
        raise ValueError(f"boost must be positive and finite, got {boost!r}")


@dataclass(frozen=True, slots=True)
class Term:
    field: str
    text: str
    boost: float = 1.0

    def __post_init__(self):
        _check_boost(self.boost)


@dataclass(frozen=True, slots=True)
class Phrase:
    field: str
    terms: tuple[str, ...]
    boost: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("phrase needs at least one term")
        _check_boost(self.boost)

    @property
    def text(self) -> str:
        return " ".join(self.terms)


Clause = Term | Phrase


@dataclass(frozen=True, slots=True)
class Query:
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if not self.clauses:
            raise ValueError("query needs at least one clause")


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float


class Hits(Sequence):
    """A ranked result list as two parallel columns: `doc_ids` and
    `scores`, in rank order. It reads as a sequence of `ScoredDoc` rows
    (a slice is a list of them), made only when asked for; it equals
    another `Hits` with equal columns and a list of the same rows."""

    __slots__ = ("doc_ids", "scores")

    def __init__(self, doc_ids: Iterable[str] = (), scores: Iterable[float] = ()):
        self.doc_ids = tuple(doc_ids)
        self.scores = tuple(scores)
        if len(self.doc_ids) != len(self.scores):
            raise ValueError(f"{len(self.doc_ids)} doc ids for {len(self.scores)} scores")

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(Hits(self.doc_ids[i], self.scores[i]))
        return ScoredDoc(self.doc_ids[i], self.scores[i])

    def __iter__(self):
        return map(tuple.__new__, repeat(ScoredDoc), zip(self.doc_ids, self.scores))

    def __eq__(self, other):
        if isinstance(other, Hits):
            return self.doc_ids == other.doc_ids and self.scores == other.scores
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Hits(doc_ids={self.doc_ids!r}, scores={self.scores!r})"


class _Field(NamedTuple):
    """One composite field, as the snapshot stores it and in its order.
    Its term i is the entry of its language's term table that `ordinals[i]`
    names; it owns docs and tfs [starts[i]:starts[i+1]], and its positions
    follow those of the terms before it. Raw value i of the sorted
    `values` is held by the doc ordinals
    `value_docs[value_starts[i]:value_starts[i+1]]`. Every column is held
    at the narrowest width. The maps derived from them are the index's own
    (`Index._span`)."""

    ordinals: array
    starts: array
    docs: array
    tfs: array
    positions: array
    values: list[str]
    value_starts: array
    value_docs: array


def _pos_starts(starts: array, tfs: array) -> list[int]:
    """Each term's first position, then the end of the last: the running
    sum of per-term tf sums. Not a running sum per posting: that many ints
    per derivation fragment the heap of a process that reloads."""
    term_tfs = map(tfs.__getitem__, map(slice, starts, starts[1:]))
    return list(accumulate(map(sum, term_tfs), initial=0))


def _records(
    postings: Mapping[str, Mapping[str, Columns]],
    raw_values: Mapping[str, Mapping[str, Iterable[int]]],
    langs: Iterable[str],
) -> tuple[dict[str, list[str]], dict[str, _Field]]:
    """Each language's term table, the sorted union of its fields' terms
    (empty for a language of `langs` with no field), and each field's
    record, from its per-term columns and its raw values' doc ordinals
    (kept in the order given)."""
    tables: dict[str, set[str]] = {lang: set() for lang in langs}
    for name, terms in postings.items():
        tables.setdefault(name.rpartition("-")[2], set()).update(terms)
    term_tables = {lang: sorted(terms) for lang, terms in tables.items()}
    places = {lang: dict(zip(table, count())) for lang, table in term_tables.items()}
    fields = {}
    for name, terms in postings.items():
        names, value_docs = sorted(terms), raw_values.get(name, {})
        values = sorted(value_docs)
        starts, docs, tfs, positions = array("I", [0]), array("I"), array("I"), array("I")
        for term in names:
            term_docs, term_tfs, term_positions = terms[term]
            docs.extend(term_docs)
            tfs.extend(term_tfs)
            positions.extend(term_positions)
            starts.append(len(docs))
        value_starts, value_ordinals = array("I", [0]), array("I")
        for value in values:
            value_ordinals.extend(value_docs[value])
            value_starts.append(len(value_ordinals))
        ordinals = array("I", map(places[name.rpartition("-")[2]].__getitem__, names))
        posting_columns = map(_narrowed, (ordinals, starts, docs, tfs, positions))
        fields[name] = _Field(*posting_columns, values, _narrowed(value_starts), _narrowed(value_ordinals))
    return term_tables, fields


class Index:
    """Sealed index: its contents do not change after construction. It
    holds what the snapshot stores; every map derived from that is in the
    index's own tables, built on first use: the clause memo that `search`
    fills, the concept tables that `concept_table` fills, and each field's
    term ordinals and position offsets. None changes a result."""

    def __init__(
        self,
        doc_ids: Sequence[str],
        terms: Mapping[str, list[str]],
        fields: Mapping[str, _Field],
        chains: Mapping[str, AnalyzerChain],
    ):
        """Store each language's sorted term table and each field's
        finished record as given; a field's ordinals are places in its
        language's table. `save` writes the table of each language of
        `chains`.

        Raises DuplicateDocumentError for a repeated doc_id, and DataError
        for doc_ids otherwise not ascending or a field without a chain."""
        self._doc_ids = tuple(doc_ids)
        if not all(map(lt, self._doc_ids, self._doc_ids[1:])):
            ordered = sorted(self._doc_ids)
            for doc_id in compress(ordered, map(eq, ordered, ordered[1:])):
                raise DuplicateDocumentError(f"repeated doc_id {doc_id!r}")
            raise DataError("doc_ids are not in ascending order")
        for name in fields:
            if name.rpartition("-")[2] not in chains:
                raise DataError(f"no analyzer chain for field {name!r}")
        self._term_tables = dict(terms)
        self._fields = dict(fields)
        self._chains = dict(chains)
        self._clause_memo: dict[tuple[str, str, float], tuple] = {}
        self._clause_memo_room = CLAUSE_MEMO_BUDGET
        self._concept_tables: dict[str, tuple[dict[str, int], dict[int, tuple[str, ...]]]] = {}
        self._term_ordinals: dict[str, dict[str, int]] = {}
        self._position_offsets: dict[str, array] = {}

    @property
    def n_docs(self) -> int:
        return len(self._doc_ids)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return self._doc_ids

    @property
    def fields(self) -> list[str]:
        return sorted(self._fields)

    @property
    def chains(self) -> dict[str, AnalyzerChain]:
        return dict(self._chains)

    def has_field(self, field: str) -> bool:
        return field in self._fields

    def chain_for_field(self, field: str) -> AnalyzerChain:
        if field not in self._fields:
            raise UnknownFieldError(f"unknown field: {field!r}")
        return self._chains[field.rpartition("-")[2]]

    def _span(self, field: str, analyzed_term: str) -> tuple[_Field, int, int, int] | None:
        """A term's field record, its place i in the field and the bounds
        of its docs and tfs; None if the field or the term is unseen. The
        field's term -> i map is built on its first lookup, through its
        language's term table."""
        record = self._fields.get(field)
        if record is None:
            return None
        ordinals = self._term_ordinals.get(field)
        if ordinals is None:
            ordinals = self._term_ordinals[field] = dict(zip(self._term_strings(field, record), count()))
        i = ordinals.get(analyzed_term)
        return None if i is None else (record, i, record.starts[i], record.starts[i + 1])

    def _term_strings(self, field: str, record: _Field) -> map:
        """The field's terms, in its order, read through its language's
        term table."""
        return map(self._term_tables[field.rpartition("-")[2]].__getitem__, record.ordinals)

    def _columns(self, field: str, analyzed_term: str) -> Columns | None:
        """A term's docs, tfs and positions, cut from its field's columns;
        None if the field or the term is unseen. The field's position
        offsets are derived on its first read, in 4 bytes."""
        span = self._span(field, analyzed_term)
        if span is None:
            return None
        record, i, lo, hi = span
        pos_starts = self._position_offsets.get(field)
        if pos_starts is None:
            pos_starts = self._position_offsets[field] = array("I", _pos_starts(record.starts, record.tfs))
        return record.docs[lo:hi], record.tfs[lo:hi], record.positions[pos_starts[i] : pos_starts[i + 1]]

    def postings(self, field: str, analyzed_term: str) -> tuple[Posting, ...]:
        """Posting list for an already-analyzed term; empty if unseen.

        Built from the columns on every call; search reads the columns."""
        columns = self._columns(field, analyzed_term)
        if columns is None:
            return ()
        docs = columns[0]
        return tuple(map(Posting, docs, map(tuple, _positions_of(columns, docs))))

    def terms(self, field: str) -> list[str]:
        record = self._fields.get(field)
        return list(self._term_strings(field, record)) if record else []

    def raw_values(self, field: str) -> dict[str, tuple[int, ...]]:
        """Verbatim stored value -> sorted doc ordinals, for one field,
        built from its raw-value columns on every call.

        `build_index` keeps raw values only for the concept fields
        (`corpus.CONCEPT_FIELDS`); any other field gives {}."""
        record = self._fields.get(field)
        if record is None:
            return {}
        ordinals, starts = record.value_docs.tolist(), record.value_starts
        return dict(zip(record.values, map(tuple, map(ordinals.__getitem__, map(slice, starts, starts[1:])))))

    def concept_table(self, lang: str) -> tuple[dict[str, int], dict[int, tuple[str, ...]]]:
        """Document frequency of each concept value over the concept fields
        of one language combined, and the values of each document; built
        from the raw-value columns on first use and kept for the life of
        the index. A value in both fields of a document counts once."""
        table = self._concept_tables.get(lang)
        if table is None:
            held: list[dict[str, None]] = []  # per doc, its values as dict keys
            for name in CONCEPT_FIELDS:
                record = self._fields.get(f"{name}-{lang}")
                if record is None:
                    continue
                held = held or [{} for _ in self._doc_ids]
                values, starts, docs = record.values, record.value_starts, record.value_docs
                # value i, once for each doc of its run in `docs`; a value
                # that a doc holds in both fields is one key of its dict
                labels = chain.from_iterable(map(repeat, values, map(sub, starts[1:], starts)))
                deque(map(dict.setdefault, map(held.__getitem__, docs), labels), 0)
            doc_values = dict(compress(zip(count(), map(tuple, held)), held))
            value_df = Counter(chain.from_iterable(doc_values.values()))
            table = self._concept_tables[lang] = (dict(value_df), doc_values)
        return table

    def term_docs(self, fields: Iterable[str], analyzed_term: str) -> set[int]:
        """Doc ordinals of the documents holding an already-analyzed term
        in any of `fields`; a field the index lacks adds none."""
        docs: set[int] = set()
        for field in fields:
            span = self._span(field, analyzed_term)
            if span:
                record, _, lo, hi = span
                docs.update(record.docs[lo:hi])
        return docs

    def _analyzed_single(self, field: str, raw_term: str) -> str:
        tokens = self.chain_for_field(field).run(raw_term)
        if len(tokens) != 1:
            raise AnalysisError(
                f"term {raw_term!r} analyzed to {len(tokens)} tokens for field {field!r}"
            )
        return tokens[0]

    def doc_set(self, field: str, raw_terms: Sequence[str], mode: str = "all") -> frozenset[int]:
        """Doc ordinals matching all (intersection) or any (union) of the terms."""
        if mode not in ("all", "any"):
            raise ValueError(f"mode must be 'all' or 'any', got {mode!r}")
        sets = [self.term_docs((field,), self._analyzed_single(field, raw)) for raw in raw_terms]
        if not sets:
            return frozenset()
        return frozenset(set.intersection(*sets) if mode == "all" else set.union(*sets))

    def _phrase_matches(self, field: str, tokens: Sequence[str]) -> tuple[array, array]:
        """Ascending docs with consecutive-position matches, and the match
        count in each. Doc columns are intersected rarest token first;
        positions are read only for the docs that survive."""
        columns = {}
        for token in tokens:
            found = self._columns(field, token)
            if found is None:
                return _NO_MATCH
            columns[token] = found
        rarest_first = sorted(columns, key=lambda token: len(columns[token][0]))
        docs = columns[rarest_first[0]][0]
        for token in rarest_first[1:]:
            other = columns[token][0]
            n = len(other)
            docs = [d for d in docs if (i := bisect_left(other, d)) < n and other[i] == d]
        positions = {token: _positions_of(columns[token], docs) for token in columns}
        first = positions[tokens[0]]
        shifted = [(offset, positions[token]) for offset, token in enumerate(tokens) if offset]
        matched, counts = [], []
        for j, doc in enumerate(docs):
            starts = set(first[j])
            for offset, per_doc in shifted:
                starts.intersection_update([p - offset for p in per_doc[j]])
            if starts:
                matched.append(doc)
                counts.append(len(starts))
        return (array("I", matched), array("I", counts)) if matched else _NO_MATCH

    def search(self, query: Query, k: int) -> Hits:
        """The top `k` (at least 1) documents for a disjunctive query; raw
        clause text is analyzed with the field's chain at query time.

        Each distinct (field, text, boost) clause, single token or phrase,
        is analyzed, looked up and weighed on its first call and then read
        from the clause memo while its budget lasts; UnknownFieldError
        rises on every call for a field the index lacks."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        scores: dict[int, float] = {}
        get = scores.get
        memo = self._clause_memo
        for clause in query.clauses:
            key = (clause.field, clause.text, clause.boost)
            entry = memo.get(key)
            if entry is None:
                tokens = self.chain_for_field(clause.field).run(clause.text)
                cost = 1
                lo = hi = 0
                if len(tokens) == 1:  # bounds in the field's columns; no docs copied
                    span = self._span(clause.field, tokens[0])
                    if span:
                        record, _, lo, hi = span
                        docs, tfs = record.docs, record.tfs
                elif tokens:  # the entry holds the phrase's matches
                    docs, tfs = self._phrase_matches(clause.field, tokens)
                    hi = len(docs)
                    cost += hi
                entry = _NO_ENTRY
                if lo < hi:
                    idf = idf_weight(self.n_docs, hi - lo)
                    boost = clause.boost
                    weight = {tf: boost * tf_weight(tf) * idf for tf in set(tfs[lo:hi])}
                    entry = docs, tfs, lo, hi, weight
                if cost <= self._clause_memo_room:
                    memo[key] = entry
                    self._clause_memo_room -= cost
            if not entry:  # analyzes to nothing or matches nothing
                continue
            docs, tfs, lo, hi, weight = entry
            docs, tfs = docs[lo:hi], tfs[lo:hi]
            if scores:
                for doc, tf in zip(docs, tfs):
                    scores[doc] = get(doc, 0.0) + weight[tf]
            else:  # the first matching clause: 0.0 + w is w, and each doc is listed once
                scores.update(zip(docs, map(weight.__getitem__, tfs)))
        ranked = sorted(scores)  # ordinal order is doc_id order
        ranked.sort(key=scores.__getitem__, reverse=True)
        del ranked[k:]
        if len(ranked) > 1:  # one C-level gather per column
            gather = itemgetter(*ranked)
            return Hits(gather(self._doc_ids), gather(scores))
        # itemgetter needs a key, and with exactly one returns a bare item
        return Hits(tuple(map(self._doc_ids.__getitem__, ranked)), tuple(map(scores.__getitem__, ranked)))

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the binary snapshot (format documented in the README),
        signed with the CRC-32 of every byte before its trailer."""
        out = bytearray(SNAPSHOT_MAGIC)
        out += struct.pack("<I", SNAPSHOT_VERSION)
        langs = sorted(self._chains)
        _put_table(out, langs)
        for lang in langs:
            _put_table(out, sorted(self._chains[lang].stopword_list))
            _put_table(out, self._term_tables[lang])
        _put_table(out, self._doc_ids)
        names = sorted(self._fields)
        _put_table(out, names)
        for name in names:
            record = self._fields[name]
            for column in record[:5]:  # ordinals, starts, docs, tfs, positions
                _put_column(out, column)
            _put_table(out, record.values)
            _put_column(out, record.value_starts)
            _put_column(out, record.value_docs)
        out += struct.pack("<I", zlib.crc32(out))
        write_atomic(path, [out])

    @classmethod
    def load(cls, path: str | Path) -> "Index":
        """Read a snapshot; a malformed one raises DataError."""
        data = Path(path).read_bytes()
        if data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise DataError(f"{path}: not an index snapshot")
        try:
            parts = cls._decode(data, path)
        except (struct.error, UnicodeDecodeError, IndexError) as exc:
            raise DataError(f"{path}: malformed index snapshot: {exc}") from None
        try:
            return cls(*parts)
        except DataError as exc:
            raise DataError(f"{path}: malformed index snapshot: {exc}") from None

    @staticmethod
    def _decode(data: bytes, path: str | Path) -> tuple:
        """The constructor's arguments, read from a snapshot whose version,
        checksum, bytes and columns are checked, in that order."""
        offset = len(SNAPSHOT_MAGIC)
        view = memoryview(data)

        def bad(what: str) -> DataError:
            return DataError(f"{path}: malformed index snapshot: {what}")

        def take(size: int) -> memoryview:
            nonlocal offset
            end = offset + size
            if end > len(view):
                raise bad(f"{size} bytes at byte {offset} run past byte {len(view)}")
            chunk = view[offset:end]
            offset = end
            return chunk

        def take_u32() -> int:
            (value,) = struct.unpack("<I", take(4))
            return value

        def take_column() -> array:
            width = take_u32()
            if width not in _TYPECODES:
                raise bad(f"column width {width} is not 1, 2 or 4")
            return _from_little_endian(width, take(width * take_u32()))

        def take_table() -> list[str]:
            n_strings, separator = take_u32(), take_u32()
            if 0xD800 <= separator <= 0xDFFF or separator > 0x10FFFF:
                raise bad(f"table separator {separator:#x} is a surrogate or above U+10FFFF")
            strings = str(take(take_u32()), "utf-8").split(chr(separator))
            if strings.pop():
                raise bad("table does not end with its separator")
            if len(strings) != n_strings:
                raise bad("string count disagrees with its blob")
            return strings

        def take_sorted_table(what: str) -> list[str]:
            strings = take_table()
            if not all(map(lt, strings, strings[1:])):
                raise bad(f"{what} not strictly ascending")
            return strings

        def take_offsets(what: str, n_items: int) -> array:
            """An offsets column for `n_items`: one entry more, the first 0,
            none descending. The caller checks the last against its column."""
            offsets = take_column()
            if len(offsets) != n_items + 1 or offsets[0] != 0 or _descends(offsets):
                raise bad(f"bad {what} offsets")
            return offsets

        version = take_u32()
        if version != SNAPSHOT_VERSION:
            raise DataError(
                f"{path}: unsupported snapshot version {version} "
                f"(expected {SNAPSHOT_VERSION}; rebuild the index)"
            )
        body = len(data) - 4  # the trailer's first byte
        if body < offset:
            raise bad(f"4 bytes at byte {offset} run past byte {len(data)}")
        (stored,) = struct.unpack_from("<I", data, body)
        view = view[:body]
        computed = zlib.crc32(view)
        if computed != stored:
            raise bad(f"checksum mismatch (CRC-32 {computed:08x}, stored {stored:08x})")

        chains: dict[str, AnalyzerChain] = {}
        lang_terms: dict[str, list[str]] = {}
        for lang in take_sorted_table("analyzer languages"):
            if lang not in LANGUAGES:
                raise bad(f"no analyzer profile for language {lang!r}")
            stopwords = take_sorted_table(f"stopwords of language {lang!r}")
            chains[lang] = shared_chain(lang, frozenset(stopwords))
            lang_terms[lang] = take_sorted_table(f"terms of language {lang!r}")

        doc_ids = take_table()
        n_docs = len(doc_ids)

        names = take_sorted_table("field names")
        fields: dict[str, _Field] = {}
        for name in names:
            table = lang_terms.get(name.rpartition("-")[2])
            if table is None:
                raise bad(f"no analyzer chain for field {name!r}")
            ordinals = take_column()
            if not _ascending_runs_below(ordinals, array("I", (0, len(ordinals))), len(table)):
                raise bad(f"bad term ordinals in field {name!r}")
            starts = take_offsets(f"posting start of field {name!r}", len(ordinals))
            docs, tfs, positions = take_column(), take_column(), take_column()
            if starts[-1] != len(docs) or len(tfs) != len(docs):
                raise bad(f"columns of field {name!r} disagree with their offsets")
            if _holds_zero(tfs) or sum(tfs) != len(positions):
                raise bad(f"tfs of field {name!r} hold a 0 or disagree with its positions")
            if not _ascending_runs_below(docs, starts, n_docs):
                raise bad(f"bad doc ordinals in field {name!r}")
            values = take_sorted_table(f"raw values of field {name!r}")
            value_starts = take_offsets(f"raw value start of field {name!r}", len(values))
            value_docs = take_column()
            if value_starts[-1] != len(value_docs):
                raise bad(f"raw values of field {name!r} disagree with their offsets")
            if not _ascending_runs_below(value_docs, value_starts, n_docs):
                raise bad(f"bad doc ordinals for the raw values of field {name!r}")
            fields[name] = _Field(ordinals, starts, docs, tfs, positions, values, value_starts, value_docs)

        if offset != len(view):
            raise bad(f"ends at byte {offset} of {len(view)}")
        return doc_ids, lang_terms, fields, chains


def _ascending_runs_below(values: array, starts: array, limit: int) -> bool:
    """True if every run `values[starts[i]:starts[i+1]]` is strictly
    ascending and every value is below `limit`. `starts` begins at 0,
    does not descend and ends at len(values)."""
    if not values:
        return True
    rises = _rises(values)
    rises.append(0)  # a byte for the last item, which ends the last run
    # The last item of each nonempty run, once. The first start, 0, gives
    # -1: the last item again, so there are at least two keys and each
    # gather is a tuple. Only an empty run repeats a start.
    lasts = map(sub, starts, repeat(1))
    if 0 in _rises(starts):
        lasts = dict.fromkeys(lasts)
    gather = itemgetter(*lasts)
    # Every item that does not rise must be the last of its run (the last
    # item's 0 is gathered twice); then each run's last item is its largest.
    return gather(rises).count(0) == rises.count(0) + 1 and max(gather(values)) < limit


def _rises(values: array) -> bytearray:
    """Byte j is 1 if item j + 1 of `values` is greater than item j, else 0.

    Each chunk of `_RISE_CHUNK` items and the item after it are read from
    the little-endian bytes as one int, `current`, whose `width`-byte
    lanes are the items; `following`, shifted down one lane, holds items
    j + 1. Where the top bits of two such items differ, the following item
    is greater if its top bit is set. Where they agree, it is greater if
    its other bits are: `below` subtracts them from current's with each
    lane's top bit set, so no lane borrows from the next, and that top bit
    stays set unless following's other bits are greater. `flat` holds
    following's top bit flipped where the top bits differ and below's
    where they agree, so its top bit is clear exactly where the following
    item is greater. No lane is wider than an item, and each chunk makes
    one int from bytes and one back."""
    width = values.itemsize
    bits = 8 * width
    raw = _little_endian(values)
    n_pairs = len(values) - 1
    chunk = _RISE_CHUNK
    out = bytearray()
    for first in range(0, n_pairs, chunk):
        pairs = min(chunk, n_pairs - first)
        high, low = _lane_masks(width, pairs)
        current = int.from_bytes(raw[first * width : (first + pairs + 1) * width], "little")
        following = current >> bits
        below = (current | high) - (following & low)
        flat = following ^ ((current ^ following) | (following ^ below))
        # Each pair's top byte; lane `pairs`, the item after the chunk, is no pair.
        tops = flat.to_bytes((pairs + 1) * width, "little")[width - 1 : pairs * width : width]
        out += tops.translate(_CLEAR_TOP_BIT)
    return out


def _descends(values: array) -> bool:
    """True if an item of `values` is less than the one before it: a
    descent is a rise of the complemented items, whose little-endian bytes
    are the items' own, each complemented."""
    complemented = bytes(_little_endian(values)).translate(_COMPLEMENT)
    return 1 in _rises(_from_little_endian(values.itemsize, complemented))


def _lane_masks(width: int, lanes: int) -> tuple[int, int]:
    """Two ints of `lanes` lanes of `width` bytes: one with each lane's
    top bit set, one with its other bits. A full chunk's are kept."""
    masks = _LANE_MASKS.get((width, lanes))
    if masks is None:
        high = int.from_bytes((bytes(width - 1) + b"\x80") * lanes, "little")
        masks = high, high - (high >> (8 * width - 1))
        if lanes == _RISE_CHUNK:
            _LANE_MASKS[width, lanes] = masks
    return masks


def _holds_zero(values: array) -> bool:
    """True if `values` holds a 0: the OR of each item's little-endian
    bytes is then a zero byte."""
    width = values.itemsize
    raw = bytes(_little_endian(values))
    merged = 0
    for k in range(width):
        merged |= int.from_bytes(raw[k::width], "little")
    return 0 in merged.to_bytes(len(values), "little")


def _narrowest(values: array) -> tuple[int, bytes]:
    """The narrowest width of 1, 2 or 4 bytes that holds every value, and
    the values as little-endian bytes at that width."""
    width = values.itemsize
    raw = bytes(_little_endian(values))
    n = len(values)
    narrow = width
    # Halve the width while the high bytes it would drop are all zero.
    while narrow > 1 and all(raw[k::width].count(0) == n for k in range(narrow // 2, narrow)):
        narrow //= 2
    if narrow == width:
        return width, raw
    kept = bytearray(narrow * n)
    for k in range(narrow):
        kept[k::narrow] = raw[k::width]
    return narrow, kept


def _little_endian(values: array) -> memoryview:
    """`values` as little-endian bytes: a view of the array itself, or on
    a big-endian host of a byteswapped copy."""
    if _BIG_ENDIAN:
        values = array(values.typecode, values)
        values.byteswap()
    return memoryview(values).cast("B")


def _from_little_endian(width: int, raw: bytes) -> array:
    values = array(_TYPECODES[width])
    values.frombytes(raw)
    if _BIG_ENDIAN:
        values.byteswap()
    return values


def _narrowed(values: array) -> array:
    """The same values at the narrowest width that holds them."""
    return _from_little_endian(*_narrowest(values))


def _put_column(out: bytearray, values: array) -> None:
    """Append a column: its u32 item width and count, then its values as
    little-endian integers of that width, the narrowest that holds them."""
    width, raw = _narrowest(values)
    out += struct.pack("<II", width, len(values))
    out += raw


def _put_table(out: bytearray, strings: Sequence[str]) -> None:
    """Append a table: the u32 string count, separator code point and
    byte count, then the strings' UTF-8, each string followed by the
    separator. That is U+000A unless a string holds one, else the lowest
    code point, surrogates excluded, that no string holds."""
    separator = "\n"
    text = separator.join([*strings, ""])
    if text.count(separator) != len(strings):  # a string holds a U+000A
        held = set(text)
        free = (char for char in map(chr, chain(*_SEPARATORS)) if char not in held)
        separator = next(free, None)
        if separator is None:
            raise DataError("no code point is free to separate the strings of a snapshot table")
        text = separator.join([*strings, ""])
    blob = text.encode("utf-8")
    out += struct.pack("<III", len(strings), ord(separator), len(blob))
    out += blob


def _positions_of(columns: Columns, docs: Sequence[int]) -> list[array]:
    """Each doc's positions in one term's columns; `docs` is ascending and
    every doc in it has a posting."""
    col_docs, tfs, positions = columns
    out = []
    i = start = 0
    for doc in docs:
        j = bisect_left(col_docs, doc, i)
        start += sum(tfs[i:j])
        out.append(positions[start : start + tfs[j]])
        i = j
    return out


def build_index(corpus: Iterable[Document], chains: Mapping[str, AnalyzerChain]) -> Index:
    """Analyze and index a document stream.

    Raises on an empty corpus, a repeated doc_id, a document whose
    language has no chain, or one with a field named `chic_all`, which
    the union field's name reserves. Documents are numbered in doc_id
    order. Field order inside the union field is `DEFAULT_SCHEMA` order,
    then any extra (lax-ingested) fields lexicographically. Raw values
    are kept for the concept fields only, as the columns a snapshot
    stores.

    Each token goes straight into its term's columns, in its field and
    the union field, and each concept value's doc ordinals arrive in
    ascending order. Each language's term table is then derived once, and
    each field's record holds its terms as places in it. No field's term
    -> ordinal map or position offsets are made here: as after `load`, the
    index builds them on first use.
    """
    docs = sorted(corpus, key=attrgetter("doc_id"))
    if not docs:
        raise EmptyCorpusError("empty corpus")

    postings: dict[str, dict[str, Columns]] = {}
    raw_values: dict[str, dict[str, list[int]]] = {}  # each value's docs, ascending

    def add(terms: dict[str, Columns], ordinal: int, tokens: Sequence[str], start: int) -> int:
        """Append one value's tokens, from position `start`, to their
        terms' columns; the next value's start."""
        for position, token in enumerate(tokens, start):
            columns = terms.get(token)
            if columns is None:
                columns = terms[token] = (array("I"), array("I"), array("I"))
            term_docs, tfs, positions = columns
            if term_docs and term_docs[-1] == ordinal:
                tfs[-1] += 1
            else:
                term_docs.append(ordinal)
                tfs.append(1)
            positions.append(position)
        return start + len(tokens) + SEGMENT_GAP

    for ordinal, doc in enumerate(docs):
        if doc.lang not in chains:
            raise DataError(f"no analyzer chain for language {doc.lang!r}")
        if ALL_FIELD in doc.fields:
            raise DataError(f"document {doc.doc_id!r}: field {ALL_FIELD!r} is reserved for the union field")
        chain = chains[doc.lang]
        all_terms = postings.setdefault(f"{ALL_FIELD}-{doc.lang}", {})
        all_pos = 0
        for name in sorted(doc.fields, key=lambda n: (_SCHEMA_ORDER.get(n, len(_SCHEMA_ORDER)), n)):
            composite = f"{name}-{doc.lang}"
            terms = postings.setdefault(composite, {})
            pos = 0
            for value in doc.fields[name]:
                if name in CONCEPT_FIELDS and (trimmed := value.strip()):
                    held = raw_values.setdefault(composite, {}).setdefault(trimmed, [])
                    if not held or held[-1] != ordinal:  # skip a repeat within one document
                        held.append(ordinal)
                tokens = chain.run(value)
                if tokens:
                    pos = add(terms, ordinal, tokens, pos)
                    all_pos = add(all_terms, ordinal, tokens, all_pos)

    return Index([doc.doc_id for doc in docs], *_records(postings, raw_values, chains), chains)
