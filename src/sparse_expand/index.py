"""Immutable field-aware inverted index with positional postings.

Documents are indexed per language: a document's tokens go into
"<field>-<lang>" composite fields plus a union field "chic_all-<lang>"
that concatenates every analyzed field in `DEFAULT_SCHEMA` order.
Multi-valued fields are concatenated with a one-position gap between
values so that phrases never match across value boundaries. Documents
are numbered in doc_id order, so ordinal order is doc_id order.

Columns are what the snapshot stores; the index keeps every map derived
from them in its own tables, built on first use. Each composite field
keeps its postings as one set of `array` columns, each at the narrowest
of 1, 2 or 4 bytes per value that holds it, and its terms as a sorted
list; term i owns `docs[starts[i]:starts[i+1]]` (doc ordinals, strictly
ascending), the same slice of `tfs`, and
`positions[pos_starts[i]:pos_starts[i+1]]` (every posting's positions,
in doc order; `pos_starts` is the running sum of `tfs` at `starts`). A
term's slices are cut when a caller asks. `build_index` appends each
token straight to its term's columns. Neither build nor load makes a
field's term -> ordinal dict or derives its `pos_starts`: every term
read goes through `Index._span`, which builds the dict on the field's
first term lookup, and only phrase matching and `postings` derive the
offsets, on the field's first positional read.

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
other field keeps none. They are held as the snapshot stores them: the
sorted values, an offsets column and a doc-ordinal column. `raw_values`
builds a value -> docs dict from them on each call; `concept_table`
reads the columns.

Every `Index` is made by one constructor, from finished field and
raw-value columns; `build_index` and `Index.load` both call it. The
constructor checks what holds for any index, however it was made: it
raises DuplicateDocumentError for a repeated doc_id, and DataError for
doc_ids otherwise not ascending or a field whose language has no chain.
So `save` cannot write a snapshot that `load` rejects for these reasons.

The version 8 snapshot (README "Snapshot format") stores every string
list as a table, a length column and one UTF-8 blob, and every column as
a u32 item width (1, 2 or 4), a u32 count and its little-endian values
at that width. `save` writes each column at the narrowest width that
holds it, whatever width it is held at, so the bytes depend only on the
documents; a width fits when the high bytes it drops are all zero. The
snapshot stores no `pos_starts`. Per language it stores its stopword
table and one term table, the sorted set of its fields' terms; each
field stores its terms as a column of ordinals into that table, and
`save` writes the raw-value columns as held. `Index.load` decodes each
blob once and reads each column once, as an array. It checks the
term-ordinal, doc-ordinal, offset and tf arrays (`_rises`, `_descends`,
`_holds_zero`) with word-parallel arithmetic on the little-endian bytes
that `_little_endian` gives here and in `save`: `_rises` compares each
item with the next in one int per 4,096 items, in lanes no wider than an
item, and a descent of an offsets column is a rise of a complemented
copy. It copies no posting column, and gathers each run's last doc
ordinal with one `itemgetter`. It sums the tfs in one C-level pass, and
maps each field's ordinals to its language's decoded terms in one
C-level pass, so a language's fields share its term strings. It runs no
Python loop per term or posting, derives no position offsets and builds
no lookup maps: it keeps the term lists and raw-value columns. Each
language's chain is `analysis.shared_chain` of its stopwords, so every
load of one profile analyzes through one stem cache. The decoder checks
the bytes and columns; `load` then reports the constructor's errors as a
malformed snapshot too. The decoder rejects with DataError:

- another magic or version, truncation, or bytes after the last item;
- a column width other than 1, 2 or 4;
- a table whose lengths disagree with its blob, or whose blob is not
  UTF-8;
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
SNAPSHOT_VERSION = 8
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


class _FieldColumns(NamedTuple):
    """One composite field's postings, as the snapshot stores them: term
    i of the sorted `terms` owns docs and tfs [starts[i]:starts[i+1]], and
    its positions follow those of the terms before it. `starts`, `docs`,
    `tfs` and `positions` are each held at the narrowest width. The maps
    derived from them are the index's own (`Index._span`)."""

    terms: list[str]
    starts: array
    docs: array
    tfs: array
    positions: array


def _pos_starts(starts: array, tfs: array) -> list[int]:
    """Each term's first position, then the end of the last: the running
    sum of per-term tf sums. Not a running sum per posting: that many ints
    per derivation fragment the heap of a process that reloads."""
    term_tfs = map(tfs.__getitem__, map(slice, starts, starts[1:]))
    return list(accumulate(map(sum, term_tfs), initial=0))


def _concatenate(terms: Mapping[str, Columns]) -> _FieldColumns:
    """One field's columns from per-term columns."""
    names = sorted(terms)
    starts = array("I", [0])
    docs, tfs, positions = array("I"), array("I"), array("I")
    for name in names:
        term_docs, term_tfs, term_positions = terms[name]
        docs.extend(term_docs)
        tfs.extend(term_tfs)
        positions.extend(term_positions)
        starts.append(len(docs))
    starts, docs, tfs, positions = map(_narrowed, (starts, docs, tfs, positions))
    return _FieldColumns(names, starts, docs, tfs, positions)


class _RawValues(NamedTuple):
    """One field's raw values, as the snapshot stores them: value i of
    the sorted `values` is held by the doc ordinals [starts[i]:starts[i+1]]
    of `docs`."""

    values: list[str]
    starts: array
    docs: array


_NO_RAW_VALUES = _RawValues([], array("I", [0]), array("I"))


def _raw_value_columns(value_docs: Mapping[str, Iterable[int]]) -> _RawValues:
    """Raw-value columns from value -> doc ordinals, each value's docs
    kept in the order given, at the narrowest width."""
    values = sorted(value_docs)
    starts, docs = array("I", [0]), array("I")
    for value in values:
        docs.extend(value_docs[value])
        starts.append(len(docs))
    return _RawValues(values, _narrowed(starts), _narrowed(docs))


class Index:
    """Sealed index: its contents do not change after construction. Its
    columns are what the snapshot stores; every map derived from them is
    in the index's own tables, built on first use: the clause memo that
    `search` fills, the concept tables that `concept_table` fills, and
    each field's term ordinals and position offsets. None changes a
    result."""

    def __init__(
        self,
        doc_ids: Sequence[str],
        fields: Mapping[str, _FieldColumns],
        raw_values: Mapping[str, _RawValues],
        chains: Mapping[str, AnalyzerChain],
    ):
        """Store finished field columns and raw-value columns as given.

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
        self._fields = dict(fields)
        self._raw_values = dict(raw_values)
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

    def _span(self, field: str, analyzed_term: str) -> tuple[_FieldColumns, int, int, int] | None:
        """A term's field columns, its ordinal i in them and the bounds
        of its docs and tfs; None if the field or the term is unseen. The
        field's term ordinals are built on its first lookup."""
        field_columns = self._fields.get(field)
        if field_columns is None:
            return None
        ordinals = self._term_ordinals.get(field)
        if ordinals is None:
            ordinals = self._term_ordinals[field] = dict(zip(field_columns.terms, count()))
        i = ordinals.get(analyzed_term)
        return None if i is None else (field_columns, i, field_columns.starts[i], field_columns.starts[i + 1])

    def _columns(self, field: str, analyzed_term: str) -> Columns | None:
        """A term's docs, tfs and positions, cut from its field's columns;
        None if the field or the term is unseen. The field's position
        offsets are derived on its first read, in 4 bytes."""
        span = self._span(field, analyzed_term)
        if span is None:
            return None
        (_, starts, docs, tfs, positions), i, lo, hi = span
        pos_starts = self._position_offsets.get(field)
        if pos_starts is None:
            pos_starts = self._position_offsets[field] = array("I", _pos_starts(starts, tfs))
        return docs[lo:hi], tfs[lo:hi], positions[pos_starts[i] : pos_starts[i + 1]]

    def postings(self, field: str, analyzed_term: str) -> tuple[Posting, ...]:
        """Posting list for an already-analyzed term; empty if unseen.

        Built from the columns on every call; search reads the columns."""
        columns = self._columns(field, analyzed_term)
        if columns is None:
            return ()
        docs = columns[0]
        return tuple(map(Posting, docs, map(tuple, _positions_of(columns, docs))))

    def terms(self, field: str) -> list[str]:
        field_columns = self._fields.get(field)
        return list(field_columns.terms) if field_columns else []

    def raw_values(self, field: str) -> dict[str, tuple[int, ...]]:
        """Verbatim stored value -> sorted doc ordinals, for one field,
        built from its raw-value columns on every call.

        `build_index` keeps raw values only for the concept fields
        (`corpus.CONCEPT_FIELDS`); any other field gives {}."""
        values, starts, docs = self._raw_values.get(field, _NO_RAW_VALUES)
        ordinals = docs.tolist()
        return dict(zip(values, map(tuple, map(ordinals.__getitem__, map(slice, starts, starts[1:])))))

    def concept_table(self, lang: str) -> tuple[dict[str, int], dict[int, tuple[str, ...]]]:
        """Document frequency of each concept value over the concept fields
        of one language combined, and the values of each document; built
        from the raw-value columns on first use and kept for the life of
        the index. A value in both fields of a document counts once."""
        table = self._concept_tables.get(lang)
        if table is None:
            held: list[dict[str, None]] = []  # per doc, its values as dict keys
            for name in CONCEPT_FIELDS:
                columns = self._raw_values.get(f"{name}-{lang}")
                if columns is None:
                    continue
                held = held or [{} for _ in self._doc_ids]
                values, starts, docs = columns
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
                field_columns, _, lo, hi = span
                docs.update(field_columns.docs[lo:hi])
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
                        (_, _, docs, tfs, _), _, lo, hi = span
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
        """Write the binary snapshot (format documented in the README)."""
        out = bytearray(SNAPSHOT_MAGIC)
        out += struct.pack("<I", SNAPSHOT_VERSION)
        langs = sorted(self._chains)
        names = sorted(self._fields)
        lang_terms: dict[str, set[str]] = {lang: set() for lang in langs}
        for name in names:
            lang_terms[name.rpartition("-")[2]].update(self._fields[name].terms)
        term_ordinals: dict[str, dict[str, int]] = {}
        _put_table(out, langs)
        for lang in langs:
            _put_table(out, sorted(self._chains[lang].stopword_list))
            table = sorted(lang_terms[lang])
            _put_table(out, table)
            term_ordinals[lang] = dict(zip(table, count()))
        _put_table(out, self._doc_ids)
        _put_table(out, names)
        for name in names:
            terms, *columns = self._fields[name]
            _put_column(out, array("I", map(term_ordinals[name.rpartition("-")[2]].__getitem__, terms)))
            for column in columns:
                _put_column(out, column)
            values, value_starts, value_docs = self._raw_values.get(name, _NO_RAW_VALUES)
            _put_table(out, values)
            _put_column(out, value_starts)
            _put_column(out, value_docs)
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
        """The constructor's arguments, read from a snapshot whose bytes
        and columns are checked."""
        offset = len(SNAPSHOT_MAGIC)
        view = memoryview(data)

        def bad(what: str) -> DataError:
            return DataError(f"{path}: malformed index snapshot: {what}")

        def take(size: int) -> memoryview:
            nonlocal offset
            end = offset + size
            if end > len(data):
                raise bad(f"{size} bytes at byte {offset} run past byte {len(data)}")
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
            lengths = take_column()
            text = str(take(take_u32()), "utf-8")
            ends = list(accumulate(lengths, initial=0))
            if ends[-1] != len(text):
                raise bad("string lengths disagree with their blob")
            return list(map(text.__getitem__, map(slice, ends, ends[1:])))

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
        fields: dict[str, _FieldColumns] = {}
        raw_values: dict[str, _RawValues] = {}
        for name in names:
            table = lang_terms.get(name.rpartition("-")[2])
            if table is None:
                raise bad(f"no analyzer chain for field {name!r}")
            ordinals = take_column()
            if not _ascending_runs_below(ordinals, array("I", (0, len(ordinals))), len(table)):
                raise bad(f"bad term ordinals in field {name!r}")
            terms = list(map(table.__getitem__, ordinals))  # the table's own strings
            starts = take_offsets(f"posting start of field {name!r}", len(terms))
            docs, tfs, positions = take_column(), take_column(), take_column()
            if starts[-1] != len(docs) or len(tfs) != len(docs):
                raise bad(f"columns of field {name!r} disagree with their offsets")
            if _holds_zero(tfs) or sum(tfs) != len(positions):
                raise bad(f"tfs of field {name!r} hold a 0 or disagree with its positions")
            if not _ascending_runs_below(docs, starts, n_docs):
                raise bad(f"bad doc ordinals in field {name!r}")
            fields[name] = _FieldColumns(terms, starts, docs, tfs, positions)

            values = take_sorted_table(f"raw values of field {name!r}")
            value_starts = take_offsets(f"raw value start of field {name!r}", len(values))
            value_docs = take_column()
            if value_starts[-1] != len(value_docs):
                raise bad(f"raw values of field {name!r} disagree with their offsets")
            if not _ascending_runs_below(value_docs, value_starts, n_docs):
                raise bad(f"bad doc ordinals for the raw values of field {name!r}")
            if values:
                raw_values[name] = _RawValues(values, value_starts, value_docs)

        if offset != len(data):
            raise bad(f"ends at byte {offset} of {len(data)}")
        return doc_ids, fields, raw_values, chains


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


def _put_table(out: bytearray, strings: Iterable[str]) -> None:
    """Append a table: a column of code-point lengths, then the u32 byte
    count and bytes of the strings' concatenated UTF-8."""
    strings = list(strings)
    _put_column(out, array("I", map(len, strings)))
    blob = "".join(strings).encode("utf-8")
    out += struct.pack("<I", len(blob))
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
    ascending order. No field's term ordinals or position offsets are
    made here: as after `load`, the index builds them on first use.
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

    return Index(
        [doc.doc_id for doc in docs],
        {f: _concatenate(terms) for f, terms in postings.items()},
        {f: _raw_value_columns(vals) for f, vals in raw_values.items()},
        chains,
    )
