"""Immutable field-aware inverted index with positional postings.

Documents are indexed per language: a document's tokens go into
"<field>-<lang>" composite fields plus a union field "chic_all-<lang>"
that concatenates every analyzed field in schema order. Multi-valued
fields are concatenated with a one-position gap between values so that
phrases never match across value boundaries.

Each composite field keeps its postings as one set of `array("I")`
columns. Its terms are numbered in sorted order; term i owns
`docs[starts[i]:starts[i+1]]` (doc ordinals, strictly ascending), the
same slice of `tfs`, and `positions[pos_starts[i]:pos_starts[i+1]]`
(every posting's positions, in doc order). A term's slices are cut only
when a caller asks for them.

Scoring is a documented TF*IDF sum with no length normalization:

    idf(df)       = 1 + ln(N / (1 + df))
    clause score  = boost * sqrt(tf) * idf(df)
    doc score     = sum of matching clause scores

For a phrase clause, tf is the number of consecutive-position
occurrences in the field and df the number of documents with at least
one occurrence.

The version 3 snapshot (README "Snapshot format") stores every string
list as a table, a u32 length column and one UTF-8 blob, and every
column as a u32 count and its values. `Index.load` decodes each blob
once, reads each column with one `frombytes`, and checks whole columns
with C-level iterators, so it runs no Python loop per term or posting.
It rejects with DataError:

- another magic or version, truncation, or bytes after the last item;
- a table whose lengths disagree with its blob, or whose blob is not
  UTF-8;
- analyzer languages, field names, terms or raw values that are not
  strictly ascending;
- an unknown analyzer stage, or a field whose language has no chain;
- doc_id and language tables of different lengths, or a repeated doc_id;
- offsets (`starts`, `pos_starts`, raw-value starts) that do not have
  one more entry than their table, do not start at 0, descend, or do
  not end at their column's length;
- tfs and docs columns of different lengths, a tf of 0, or a term whose
  tfs do not sum to its `pos_starts` difference;
- a doc ordinal not below the document count, or not strictly ascending
  within a term or a raw value.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, count
from operator import eq, ge, le, lt, sub
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .analysis import STAGE_NAMES, AnalyzerChain
from .corpus import DEFAULT_SCHEMA, Document
from .errors import AnalysisError, DataError, EmptyCorpusError, UnknownFieldError
from .files import write_atomic

ALL_FIELD = "chic_all"
SEGMENT_GAP = 1  # skipped positions between values of a multi-valued field

SNAPSHOT_MAGIC = b"SPXINDEX"
SNAPSHOT_VERSION = 3
SNAPSHOT_FILENAME = "index.bin"

# Columns are written and read as raw little-endian u32 arrays.
if array("I").itemsize != 4:
    raise ImportError("sparse_expand.index needs array('I') items of 4 bytes")
_BIG_ENDIAN = sys.byteorder == "big"

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


@dataclass(frozen=True)
class Term:
    field: str
    text: str
    boost: float = 1.0

    def __post_init__(self):
        _check_boost(self.boost)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Query:
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if not self.clauses:
            raise ValueError("query needs at least one clause")


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float


# ScoredDoc from a (doc_id, score) pair without a Python-level call.
_scored_doc = partial(tuple.__new__, ScoredDoc)


class _FieldColumns(NamedTuple):
    """One composite field's postings: term i (in sorted order) owns
    docs and tfs [starts[i]:starts[i+1]] and positions
    [pos_starts[i]:pos_starts[i+1]]."""

    ordinals: dict[str, int]
    starts: array
    pos_starts: array
    docs: array
    tfs: array
    positions: array


def _concatenate(terms: Mapping[str, Columns]) -> _FieldColumns:
    """One field's columns from per-term columns."""
    names = sorted(terms)
    starts, pos_starts = array("I", [0]), array("I", [0])
    docs, tfs, positions = array("I"), array("I"), array("I")
    for name in names:
        term_docs, term_tfs, term_positions = terms[name]
        docs.extend(term_docs)
        tfs.extend(term_tfs)
        positions.extend(term_positions)
        starts.append(len(docs))
        pos_starts.append(len(positions))
    return _FieldColumns(dict(zip(names, count())), starts, pos_starts, docs, tfs, positions)


class Index:
    """Sealed index; no mutation after construction."""

    def __init__(
        self,
        doc_ids: Sequence[str],
        doc_langs: Sequence[str],
        postings: Mapping[str, Mapping[str, Columns]],
        raw_values: Mapping[str, Mapping[str, Sequence[int]]],
        chains: Mapping[str, AnalyzerChain],
        all_field: str = ALL_FIELD,
    ):
        self._doc_ids = tuple(doc_ids)
        self._doc_langs = tuple(doc_langs)
        self._fields = {f: _concatenate(terms) for f, terms in postings.items()}
        self._raw_values = {
            f: {v: tuple(ds) for v, ds in vals.items()} for f, vals in raw_values.items()
        }
        self._chains = dict(chains)
        self._all_field = all_field
        self._doc_rank: list[int] | None = None

    @property
    def n_docs(self) -> int:
        return len(self._doc_ids)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return self._doc_ids

    @property
    def doc_langs(self) -> tuple[str, ...]:
        return self._doc_langs

    @property
    def all_field(self) -> str:
        return self._all_field

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
        _, _, lang = field.rpartition("-")
        try:
            return self._chains[lang]
        except KeyError:
            raise UnknownFieldError(f"no analyzer for field {field!r}") from None

    def _columns(self, field: str, analyzed_term: str, width: int = 3) -> tuple | None:
        """The first `width` of a term's columns (docs, tfs, positions),
        cut from its field's columns; None if the term is unseen."""
        field_columns = self._fields.get(field)
        if field_columns is None:
            return None
        ordinals, starts, pos_starts, docs, tfs, positions = field_columns
        i = ordinals.get(analyzed_term)
        if i is None:
            return None
        lo, hi = starts[i], starts[i + 1]
        if width == 1:
            return (docs[lo:hi],)
        if width == 2:
            return docs[lo:hi], tfs[lo:hi]
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
        return list(field_columns.ordinals) if field_columns else []

    def raw_values(self, field: str) -> dict[str, tuple[int, ...]]:
        """Verbatim stored value -> sorted doc ordinals, for one field."""
        return dict(self._raw_values.get(field, {}))

    def _analyzed_single(self, field: str, raw_term: str) -> str:
        tokens = self.chain_for_field(field).run(raw_term)
        if len(tokens) != 1:
            raise AnalysisError(
                f"term {raw_term!r} analyzed to {len(tokens)} tokens for field {field!r}"
            )
        return tokens[0]

    def df(self, field: str, raw_term: str) -> int:
        """Document frequency of a raw term; 0 for unseen terms."""
        columns = self._columns(field, self._analyzed_single(field, raw_term), 1)
        return len(columns[0]) if columns else 0

    def doc_set(self, field: str, raw_terms: Sequence[str], mode: str = "all") -> frozenset[int]:
        """Doc ordinals matching all (intersection) or any (union) of the terms."""
        if mode not in ("all", "any"):
            raise ValueError(f"mode must be 'all' or 'any', got {mode!r}")
        sets = []
        for raw in raw_terms:
            columns = self._columns(field, self._analyzed_single(field, raw), 1)
            sets.append(set(columns[0]) if columns else set())
        if not sets:
            return frozenset()
        result = sets[0]
        for s in sets[1:]:
            result = (result & s) if mode == "all" else (result | s)
        return frozenset(result)

    def _phrase_matches(self, field: str, tokens: Sequence[str]) -> tuple[list[int], list[int]]:
        """Ascending docs with consecutive-position matches, and the match
        count in each. Doc columns are intersected rarest token first;
        positions are read only for the docs that survive."""
        columns = {}
        for token in tokens:
            found = self._columns(field, token)
            if found is None:
                return [], []
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
        return matched, counts

    def _rank(self) -> list[int]:
        """doc ordinal -> place of its doc_id in sorted order, built once."""
        if self._doc_rank is None:
            rank = [0] * self.n_docs
            by_id = sorted(range(self.n_docs), key=self._doc_ids.__getitem__)
            for place, doc in enumerate(by_id):
                rank[doc] = place
            self._doc_rank = rank
        return self._doc_rank

    def search(self, query: Query, k: int) -> list[ScoredDoc]:
        """Rank documents for a disjunctive query; raw clause text is
        analyzed with the field's chain at query time."""
        scores: dict[int, float] = {}
        get = scores.get
        for clause in query.clauses:
            tokens = self.chain_for_field(clause.field).run(clause.text)
            if len(tokens) == 1:
                columns = self._columns(clause.field, tokens[0], 2)
                if columns is None:
                    continue
                docs, tfs = columns
            elif tokens:
                docs, tfs = self._phrase_matches(clause.field, tokens)
            else:
                continue
            if not docs:
                continue
            idf = idf_weight(self.n_docs, len(docs))
            boost = clause.boost
            weight = {tf: boost * tf_weight(tf) * idf for tf in set(tfs)}
            for doc, tf in zip(docs, tfs):
                scores[doc] = get(doc, 0.0) + weight[tf]
        ranked = sorted(scores, key=self._rank().__getitem__)
        ranked.sort(key=scores.__getitem__, reverse=True)
        del ranked[k:]
        pairs = zip(map(self._doc_ids.__getitem__, ranked), map(scores.__getitem__, ranked))
        return list(map(_scored_doc, pairs))

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the binary snapshot (format documented in the README)."""
        out = bytearray(SNAPSHOT_MAGIC)
        out += struct.pack("<I", SNAPSHOT_VERSION)
        langs = sorted(self._chains)
        _put_table(out, langs)
        for lang in langs:
            _put_table(out, self._chains[lang].stages)
            _put_table(out, sorted(self._chains[lang].stopword_list))
        _put_table(out, self._doc_ids)
        _put_table(out, self._doc_langs)
        names = sorted(self._fields)
        _put_table(out, names)
        for name in names:
            field_columns = self._fields[name]
            _put_table(out, field_columns.ordinals)
            for column in field_columns[1:]:  # starts, pos_starts, docs, tfs, positions
                _put_column(out, column)
            values = self._raw_values.get(name, {})
            sorted_values = sorted(values)
            value_docs = list(map(values.__getitem__, sorted_values))
            _put_table(out, sorted_values)
            _put_column(out, array("I", accumulate(map(len, value_docs), initial=0)))
            _put_column(out, array("I", chain.from_iterable(value_docs)))
        _put_table(out, [self._all_field])
        write_atomic(path, out)

    @classmethod
    def load(cls, path: str | Path) -> "Index":
        """Read a snapshot; a malformed one raises DataError."""
        data = Path(path).read_bytes()
        if data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise DataError(f"{path}: not an index snapshot")
        try:
            return cls._decode(data, path)
        except (struct.error, UnicodeDecodeError, IndexError) as exc:
            raise DataError(f"{path}: malformed index snapshot: {exc}") from None

    @classmethod
    def _decode(cls, data: bytes, path: str | Path) -> "Index":
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
            values = array("I")
            values.frombytes(take(4 * take_u32()))
            if _BIG_ENDIAN:
                values.byteswap()
            return values

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
            if len(offsets) != n_items + 1 or offsets[0] != 0 or not all(map(le, offsets, offsets[1:])):
                raise bad(f"bad {what} offsets")
            return offsets

        version = take_u32()
        if version != SNAPSHOT_VERSION:
            raise DataError(
                f"{path}: unsupported snapshot version {version} "
                f"(expected {SNAPSHOT_VERSION}; rebuild the index)"
            )

        chains: dict[str, AnalyzerChain] = {}
        for lang in take_sorted_table("analyzer languages"):
            stages = tuple(take_table())
            unknown = sorted(set(stages) - STAGE_NAMES)
            if unknown:
                raise bad(f"unknown analyzer stage {unknown[0]!r}")
            words = frozenset(take_table())
            chains[lang] = AnalyzerChain(lang=lang, stages=stages, stopword_list=words)

        doc_ids, doc_langs = take_table(), take_table()
        n_docs = len(doc_ids)
        if len(doc_langs) != n_docs:
            raise bad(f"{n_docs} doc_ids but {len(doc_langs)} languages")
        if len(set(doc_ids)) != n_docs:
            raise bad("repeated doc_id")

        names = take_sorted_table("field names")
        fields: dict[str, _FieldColumns] = {}
        raw_values: dict[str, dict[str, tuple[int, ...]]] = {}
        for name in names:
            if name.rpartition("-")[2] not in chains:
                raise bad(f"no analyzer chain for field {name!r}")
            terms = take_sorted_table(f"terms of field {name!r}")
            starts = take_offsets(f"posting start of field {name!r}", len(terms))
            pos_starts = take_offsets(f"position start of field {name!r}", len(terms))
            docs, tfs, positions = take_column(), take_column(), take_column()
            if starts[-1] != len(docs) or len(tfs) != len(docs) or pos_starts[-1] != len(positions):
                raise bad(f"columns of field {name!r} disagree with their offsets")
            term_tfs = map(tfs.__getitem__, map(slice, starts, starts[1:]))
            if min(tfs, default=1) < 1 or not all(
                map(eq, map(sum, term_tfs), map(sub, pos_starts[1:], pos_starts))
            ):
                raise bad(f"tfs of field {name!r} hold a 0 or disagree with its positions")
            if not _ascending_runs_below(docs, starts, n_docs):
                raise bad(f"bad doc ordinals in field {name!r}")
            fields[name] = _FieldColumns(
                dict(zip(terms, count())), starts, pos_starts, docs, tfs, positions
            )

            values = take_sorted_table(f"raw values of field {name!r}")
            value_starts = take_offsets(f"raw value start of field {name!r}", len(values))
            value_docs = take_column()
            if value_starts[-1] != len(value_docs):
                raise bad(f"raw values of field {name!r} disagree with their offsets")
            if not _ascending_runs_below(value_docs, value_starts, n_docs):
                raise bad(f"bad doc ordinals for the raw values of field {name!r}")
            ordinals = value_docs.tolist()
            value_slices = map(slice, value_starts, value_starts[1:])
            raw_values[name] = dict(zip(values, map(tuple, map(ordinals.__getitem__, value_slices))))

        tail = take_table()
        if len(tail) != 1:
            raise bad(f"{len(tail)} union-field names")
        if offset != len(data):
            raise bad(f"ends at byte {offset} of {len(data)}")
        index = cls(doc_ids, doc_langs, {}, {}, chains, tail[0])
        index._fields, index._raw_values = fields, raw_values  # already checked and built
        return index


def _ascending_runs_below(values: array, starts: array, limit: int) -> bool:
    """True if every value is below `limit` and every run
    `values[starts[i]:starts[i+1]]` is strictly ascending."""
    if not values:
        return True
    # Indices k + 1 where values[k] >= values[k + 1]: each must begin a run.
    descents = compress(count(1), map(ge, values, values[1:]))
    return max(values) < limit and set(starts).issuperset(descents)


def _put_column(out: bytearray, values: array) -> None:
    """Append a column: its u32 count, then its little-endian u32 values."""
    out += struct.pack("<I", len(values))
    if _BIG_ENDIAN:
        values = array("I", values)
        values.byteswap()
    out += values.tobytes()


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


def build_index(
    corpus: Iterable[Document],
    chains: Mapping[str, AnalyzerChain],
    schema: Sequence[str] = DEFAULT_SCHEMA,
    all_field: str = ALL_FIELD,
) -> Index:
    """Analyze and index a document stream.

    Raises on an empty corpus or on a document whose language has no
    chain. Field order inside the union field is schema order, then any
    extra (lax-ingested) fields lexicographically.
    """
    docs = list(corpus)
    if not docs:
        raise EmptyCorpusError("empty corpus")
    schema_order = {name: i for i, name in enumerate(schema)}

    postings: dict[str, dict[str, Columns]] = {}
    raw_values: dict[str, dict[str, set[int]]] = {}
    doc_ids: list[str] = []
    doc_langs: list[str] = []

    def add_segment(
        per_term: dict[str, list[int]], tokens: Sequence[str], start: int
    ) -> int:
        for i, token in enumerate(tokens):
            per_term.setdefault(token, []).append(start + i)
        return start + len(tokens) + SEGMENT_GAP

    def add_postings(field: str, ordinal: int, per_term: dict[str, list[int]]) -> None:
        field_postings = postings.setdefault(field, {})
        for term, positions in per_term.items():
            columns = field_postings.get(term)
            if columns is None:
                columns = field_postings[term] = (array("I"), array("I"), array("I"))
            columns[0].append(ordinal)
            columns[1].append(len(positions))
            columns[2].extend(positions)

    for ordinal, doc in enumerate(docs):
        if doc.lang not in chains:
            raise DataError(f"no analyzer chain for language {doc.lang!r}")
        chain = chains[doc.lang]
        doc_ids.append(doc.doc_id)
        doc_langs.append(doc.lang)

        names = sorted(
            doc.fields, key=lambda n: (schema_order.get(n, len(schema_order)), n)
        )
        all_terms: dict[str, list[int]] = {}
        all_pos = 0

        for name in names:
            composite = f"{name}-{doc.lang}"
            per_term: dict[str, list[int]] = {}
            pos = 0
            for value in doc.fields[name]:
                tokens = chain.run(value)
                trimmed = value.strip()
                if trimmed:
                    raw_values.setdefault(composite, {}).setdefault(trimmed, set()).add(
                        ordinal
                    )
                if not tokens:
                    continue
                pos = add_segment(per_term, tokens, pos)
                all_pos = add_segment(all_terms, tokens, all_pos)
            add_postings(composite, ordinal, per_term)
        add_postings(f"{all_field}-{doc.lang}", ordinal, all_terms)

    return Index(
        doc_ids=doc_ids,
        doc_langs=doc_langs,
        postings=postings,
        raw_values={f: {v: tuple(sorted(ds)) for v, ds in vals.items()} for f, vals in raw_values.items()},
        chains=chains,
        all_field=all_field,
    )
