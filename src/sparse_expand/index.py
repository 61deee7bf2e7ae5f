"""Immutable field-aware inverted index with positional postings.

Documents are indexed per language: a document's tokens go into
"<field>-<lang>" composite fields plus a union field "chic_all-<lang>"
that concatenates every analyzed field in schema order. Multi-valued
fields are concatenated with a one-position gap between values so that
phrases never match across value boundaries.

Each term's postings are three `array("I")` columns: doc ordinals
(strictly ascending), term frequencies, and one flat positions array
holding every posting's positions in doc order.

Scoring is a documented TF*IDF sum with no length normalization:

    idf(df)       = 1 + ln(N / (1 + df))
    clause score  = boost * sqrt(tf) * idf(df)
    doc score     = sum of matching clause scores

For a phrase clause, tf is the number of consecutive-position
occurrences in the field and df the number of documents with at least
one occurrence.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import lt
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .analysis import STAGE_NAMES, AnalyzerChain
from .corpus import DEFAULT_SCHEMA, Document
from .errors import AnalysisError, DataError, EmptyCorpusError, UnknownFieldError
from .files import write_atomic

ALL_FIELD = "chic_all"
SEGMENT_GAP = 1  # skipped positions between values of a multi-valued field

SNAPSHOT_MAGIC = b"SPXINDEX"
SNAPSHOT_VERSION = 2
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
        self._postings = {f: dict(terms) for f, terms in postings.items()}
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
        return sorted(self._postings)

    @property
    def chains(self) -> dict[str, AnalyzerChain]:
        return dict(self._chains)

    def has_field(self, field: str) -> bool:
        return field in self._postings

    def chain_for_field(self, field: str) -> AnalyzerChain:
        if field not in self._postings:
            raise UnknownFieldError(f"unknown field: {field!r}")
        _, _, lang = field.rpartition("-")
        try:
            return self._chains[lang]
        except KeyError:
            raise UnknownFieldError(f"no analyzer for field {field!r}") from None

    def _columns(self, field: str, analyzed_term: str) -> Columns | None:
        return self._postings.get(field, {}).get(analyzed_term)

    def postings(self, field: str, analyzed_term: str) -> tuple[Posting, ...]:
        """Posting list for an already-analyzed term; empty if unseen.

        Built from the columns on every call; search reads the columns."""
        columns = self._columns(field, analyzed_term)
        if columns is None:
            return ()
        docs = columns[0]
        return tuple(map(Posting, docs, map(tuple, _positions_of(columns, docs))))

    def terms(self, field: str) -> list[str]:
        return sorted(self._postings.get(field, {}))

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
        columns = self._columns(field, self._analyzed_single(field, raw_term))
        return len(columns[0]) if columns else 0

    def doc_set(self, field: str, raw_terms: Sequence[str], mode: str = "all") -> frozenset[int]:
        """Doc ordinals matching all (intersection) or any (union) of the terms."""
        if mode not in ("all", "any"):
            raise ValueError(f"mode must be 'all' or 'any', got {mode!r}")
        sets = []
        for raw in raw_terms:
            columns = self._columns(field, self._analyzed_single(field, raw))
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
        terms = self._postings[field]
        columns = {}
        for token in tokens:
            if token not in terms:
                return [], []
            columns[token] = terms[token]
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
                columns = self._postings[clause.field].get(tokens[0])
                if columns is None:
                    continue
                docs, tfs, _ = columns
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
        out = bytearray()
        out += SNAPSHOT_MAGIC
        out += struct.pack("<I", SNAPSHOT_VERSION)

        def put_str(s: str) -> None:
            raw = s.encode("utf-8")
            out.extend(struct.pack("<I", len(raw)))
            out.extend(raw)

        out += struct.pack("<I", len(self._chains))
        for lang in sorted(self._chains):
            chain = self._chains[lang]
            put_str(lang)
            out += struct.pack("<I", len(chain.stages))
            for stage in chain.stages:
                put_str(stage)
            words = sorted(chain.stopword_list)
            out += struct.pack("<I", len(words))
            for word in words:
                put_str(word)

        out += struct.pack("<I", self.n_docs)
        for doc_id, lang in zip(self._doc_ids, self._doc_langs):
            put_str(doc_id)
            put_str(lang)

        fields = sorted(self._postings)
        out += struct.pack("<I", len(fields))
        for name in fields:
            put_str(name)

        entries = [
            (fi, t, self._postings[f][t])
            for fi, f in enumerate(fields)
            for t in sorted(self._postings[f])
        ]
        out += struct.pack("<I", len(entries))
        for fi, term, (docs, tfs, positions) in entries:
            out += struct.pack("<I", fi)
            put_str(term)
            out += struct.pack("<II", len(docs), len(positions))
            out += _u32_bytes(docs)
            out += _u32_bytes(tfs)
            out += _u32_bytes(positions)

        value_entries = [
            (fi, v, self._raw_values[f][v])
            for fi, f in enumerate(fields)
            for v in sorted(self._raw_values.get(f, {}))
        ]
        out += struct.pack("<I", len(value_entries))
        for fi, value, docs in value_entries:
            out += struct.pack("<I", fi)
            put_str(value)
            out += struct.pack("<I", len(docs))
            out += _u32_bytes(array("I", docs))

        put_str(self._all_field)
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

        def take_u32() -> int:
            nonlocal offset
            (value,) = struct.unpack_from("<I", data, offset)
            offset += 4
            return value

        def take_str() -> str:
            nonlocal offset
            length = take_u32()
            raw = data[offset : offset + length]
            offset += length
            return raw.decode("utf-8")

        def take_u32s(count: int) -> array:
            nonlocal offset
            end = offset + 4 * count
            if end > len(data):
                raise bad(f"{count} values run past byte {len(data)}")
            values = array("I")
            values.frombytes(view[offset:end])
            if _BIG_ENDIAN:
                values.byteswap()
            offset = end
            return values

        version = take_u32()
        if version != SNAPSHOT_VERSION:
            raise DataError(
                f"{path}: unsupported snapshot version {version} "
                f"(expected {SNAPSHOT_VERSION}; rebuild the index)"
            )

        chains: dict[str, AnalyzerChain] = {}
        for _ in range(take_u32()):
            lang = take_str()
            stages = tuple(take_str() for _ in range(take_u32()))
            unknown = sorted(set(stages) - STAGE_NAMES)
            if unknown:
                raise bad(f"unknown analyzer stage {unknown[0]!r}")
            words = frozenset(take_str() for _ in range(take_u32()))
            chains[lang] = AnalyzerChain(lang=lang, stages=stages, stopword_list=words)

        n_docs = take_u32()
        doc_ids, doc_langs = [], []
        for _ in range(n_docs):
            doc_ids.append(take_str())
            doc_langs.append(take_str())
        if len(set(doc_ids)) != n_docs:
            raise bad("repeated doc_id")

        fields = [take_str() for _ in range(take_u32())]
        for name in fields:
            if name.rpartition("-")[2] not in chains:
                raise bad(f"no analyzer chain for field {name!r}")

        postings: dict[str, dict[str, Columns]] = {name: {} for name in fields}
        for _ in range(take_u32()):
            field = fields[take_u32()]
            term = take_str()
            df = take_u32()
            n_positions = take_u32()
            block = take_u32s(2 * df + n_positions)
            docs, tfs, positions = block[:df], block[df : 2 * df], block[2 * df :]
            consistent = (
                _ascending_below(docs, n_docs)
                and min(tfs, default=1) >= 1
                and sum(tfs) == n_positions
            )
            if not consistent:
                raise bad(f"inconsistent postings for term {term!r} in field {field!r}")
            postings[field][term] = (docs, tfs, positions)

        raw_values: dict[str, dict[str, tuple[int, ...]]] = {}
        for _ in range(take_u32()):
            field = fields[take_u32()]
            value = take_str()
            docs = take_u32s(take_u32())
            if not _ascending_below(docs, n_docs):
                raise bad(f"bad doc ordinals for value {value!r} in field {field!r}")
            raw_values.setdefault(field, {})[value] = tuple(docs)

        all_field = take_str()
        if offset != len(data):
            raise bad(f"ends at byte {offset} of {len(data)}")
        return cls(
            doc_ids=doc_ids,
            doc_langs=doc_langs,
            postings=postings,
            raw_values=raw_values,
            chains=chains,
            all_field=all_field,
        )


def _ascending_below(values: array, limit: int) -> bool:
    """True if `values` is strictly ascending and below `limit`."""
    if not values:
        return True
    return values[-1] < limit and (len(values) == 1 or all(map(lt, values, values[1:])))


def _u32_bytes(values: array) -> bytes:
    """Little-endian bytes of a u32 column."""
    if _BIG_ENDIAN:
        values = array("I", values)
        values.byteswap()
    return values.tobytes()


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
