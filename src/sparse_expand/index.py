"""Immutable field-aware inverted index with positional postings.

Documents are indexed per language: a document's tokens go into
"<field>-<lang>" composite fields plus a union field "chic_all-<lang>"
that concatenates every analyzed field in schema order. Multi-valued
fields are concatenated with a one-position gap between values so that
phrases never match across value boundaries.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .analysis import AnalyzerChain
from .corpus import DEFAULT_SCHEMA, Document
from .errors import AnalysisError, DataError, EmptyCorpusError, UnknownFieldError

ALL_FIELD = "chic_all"
SEGMENT_GAP = 1  # skipped positions between values of a multi-valued field

SNAPSHOT_MAGIC = b"SPXINDEX"
SNAPSHOT_VERSION = 1
SNAPSHOT_FILENAME = "index.bin"


def idf_weight(n_docs: int, df: int) -> float:
    return 1.0 + math.log(n_docs / (1.0 + df))


def tf_weight(tf: int) -> float:
    return math.sqrt(tf)


@dataclass(frozen=True)
class Posting:
    doc: int
    positions: tuple[int, ...]

    @property
    def tf(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Term:
    field: str
    text: str
    boost: float = 1.0

    def __post_init__(self):
        if self.boost <= 0:
            raise ValueError("boost must be positive")


@dataclass(frozen=True)
class Phrase:
    field: str
    terms: tuple[str, ...]
    boost: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("phrase needs at least one term")
        if self.boost <= 0:
            raise ValueError("boost must be positive")

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


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float


class Index:
    """Sealed index; no mutation after construction."""

    def __init__(
        self,
        doc_ids: Sequence[str],
        doc_langs: Sequence[str],
        postings: Mapping[str, Mapping[str, Sequence[Posting]]],
        raw_values: Mapping[str, Mapping[str, Sequence[int]]],
        field_lengths: Mapping[str, Mapping[int, int]],
        chains: Mapping[str, AnalyzerChain],
        all_field: str = ALL_FIELD,
    ):
        self._doc_ids = tuple(doc_ids)
        self._doc_langs = tuple(doc_langs)
        self._postings = {
            f: {t: tuple(ps) for t, ps in terms.items()} for f, terms in postings.items()
        }
        self._raw_values = {
            f: {v: tuple(ds) for v, ds in vals.items()} for f, vals in raw_values.items()
        }
        self._field_lengths = {f: dict(ls) for f, ls in field_lengths.items()}
        self._chains = dict(chains)
        self._all_field = all_field
        self._known_fields = frozenset(self._field_lengths) | frozenset(self._postings)

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
        return sorted(self._known_fields)

    @property
    def chains(self) -> dict[str, AnalyzerChain]:
        return dict(self._chains)

    def has_field(self, field: str) -> bool:
        return field in self._known_fields

    def chain_for_field(self, field: str) -> AnalyzerChain:
        if field not in self._known_fields:
            raise UnknownFieldError(f"unknown field: {field!r}")
        _, _, lang = field.rpartition("-")
        try:
            return self._chains[lang]
        except KeyError:
            raise UnknownFieldError(f"no analyzer for field {field!r}") from None

    def postings(self, field: str, analyzed_term: str) -> tuple[Posting, ...]:
        """Posting list for an already-analyzed term; empty if unseen."""
        return self._postings.get(field, {}).get(analyzed_term, ())

    def terms(self, field: str) -> list[str]:
        return sorted(self._postings.get(field, {}))

    def raw_values(self, field: str) -> dict[str, tuple[int, ...]]:
        """Verbatim stored value -> sorted doc ordinals, for one field."""
        return dict(self._raw_values.get(field, {}))

    def field_length(self, field: str, doc: int) -> int:
        return self._field_lengths.get(field, {}).get(doc, 0)

    def _analyzed_single(self, field: str, raw_term: str) -> str:
        tokens = self.chain_for_field(field).run(raw_term)
        if len(tokens) != 1:
            raise AnalysisError(
                f"term {raw_term!r} analyzed to {len(tokens)} tokens for field {field!r}"
            )
        return tokens[0]

    def df(self, field: str, raw_term: str) -> int:
        """Document frequency of a raw term; 0 for unseen terms."""
        return len(self.postings(field, self._analyzed_single(field, raw_term)))

    def doc_set(self, field: str, raw_terms: Sequence[str], mode: str = "all") -> frozenset[int]:
        """Doc ordinals matching all (intersection) or any (union) of the terms."""
        if mode not in ("all", "any"):
            raise ValueError(f"mode must be 'all' or 'any', got {mode!r}")
        sets = []
        for raw in raw_terms:
            term = self._analyzed_single(field, raw)
            sets.append({p.doc for p in self.postings(field, term)})
        if not sets:
            return frozenset()
        result = sets[0]
        for s in sets[1:]:
            result = (result & s) if mode == "all" else (result | s)
        return frozenset(result)

    def _phrase_occurrences(self, field: str, tokens: Sequence[str]) -> dict[int, int]:
        """doc ordinal -> count of consecutive-position matches."""
        maps = []
        for token in tokens:
            plist = self.postings(field, token)
            if not plist:
                return {}
            maps.append({p.doc: p.positions for p in plist})
        common = set(maps[0])
        for m in maps[1:]:
            common &= set(m)
        occurrences: dict[int, int] = {}
        for doc in common:
            rest = [set(m[doc]) for m in maps[1:]]
            count = sum(
                1
                for pos in maps[0][doc]
                if all(pos + offset + 1 in s for offset, s in enumerate(rest))
            )
            if count:
                occurrences[doc] = count
        return occurrences

    def search(self, query: Query, k: int) -> list[ScoredDoc]:
        """Rank documents for a disjunctive query; raw clause text is
        analyzed with the field's chain at query time."""
        scores: dict[int, float] = {}
        for clause in query.clauses:
            chain = self.chain_for_field(clause.field)
            tokens = chain.run(clause.text)
            if not tokens:
                continue
            if len(tokens) == 1:
                plist = self.postings(clause.field, tokens[0])
                if not plist:
                    continue
                idf = idf_weight(self.n_docs, len(plist))
                for posting in plist:
                    scores[posting.doc] = scores.get(posting.doc, 0.0) + (
                        clause.boost * tf_weight(posting.tf) * idf
                    )
            else:
                occurrences = self._phrase_occurrences(clause.field, tokens)
                if not occurrences:
                    continue
                idf = idf_weight(self.n_docs, len(occurrences))
                for doc in sorted(occurrences):
                    scores[doc] = scores.get(doc, 0.0) + (
                        clause.boost * tf_weight(occurrences[doc]) * idf
                    )
        ranked = sorted(scores.items(), key=lambda item: (-item[1], self._doc_ids[item[0]]))
        return [ScoredDoc(self._doc_ids[doc], score) for doc, score in ranked[:k]]

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

        fields = sorted(self._known_fields)
        field_idx = {name: i for i, name in enumerate(fields)}
        out += struct.pack("<I", len(fields))
        for name in fields:
            put_str(name)

        entries = [
            (field_idx[f], t, self._postings[f][t])
            for f in sorted(self._postings)
            for t in sorted(self._postings[f])
        ]
        out += struct.pack("<I", len(entries))
        for fi, term, plist in entries:
            out += struct.pack("<I", fi)
            put_str(term)
            out += struct.pack("<I", len(plist))
            for posting in plist:
                out += struct.pack("<II", posting.doc, len(posting.positions))
                out += struct.pack(f"<{len(posting.positions)}I", *posting.positions)

        value_entries = [
            (field_idx[f], v, self._raw_values[f][v])
            for f in sorted(self._raw_values)
            for v in sorted(self._raw_values[f])
        ]
        out += struct.pack("<I", len(value_entries))
        for fi, value, docs in value_entries:
            out += struct.pack("<I", fi)
            put_str(value)
            out += struct.pack("<I", len(docs))
            out += struct.pack(f"<{len(docs)}I", *docs)

        length_entries = [
            (field_idx[f], self._field_lengths[f]) for f in sorted(self._field_lengths)
        ]
        out += struct.pack("<I", len(length_entries))
        for fi, lengths in length_entries:
            out += struct.pack("<II", fi, len(lengths))
            for doc in sorted(lengths):
                out += struct.pack("<II", doc, lengths[doc])

        put_str(self._all_field)
        Path(path).write_bytes(bytes(out))

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

        def take(fmt: str):
            nonlocal offset
            size = struct.calcsize(fmt)
            values = struct.unpack_from(fmt, data, offset)
            offset += size
            return values

        def take_str() -> str:
            nonlocal offset
            (length,) = take("<I")
            raw = data[offset : offset + length]
            offset += length
            return raw.decode("utf-8")

        (version,) = take("<I")
        if version != SNAPSHOT_VERSION:
            raise DataError(f"{path}: unsupported snapshot version {version}")

        chains: dict[str, AnalyzerChain] = {}
        (n_langs,) = take("<I")
        for _ in range(n_langs):
            lang = take_str()
            (n_stages,) = take("<I")
            stages = tuple(take_str() for _ in range(n_stages))
            (n_words,) = take("<I")
            words = frozenset(take_str() for _ in range(n_words))
            chains[lang] = AnalyzerChain(lang=lang, stages=stages, stopword_list=words)

        (n_docs,) = take("<I")
        doc_ids, doc_langs = [], []
        for _ in range(n_docs):
            doc_ids.append(take_str())
            doc_langs.append(take_str())

        (n_fields,) = take("<I")
        fields = [take_str() for _ in range(n_fields)]

        postings: dict[str, dict[str, tuple[Posting, ...]]] = {}
        (n_entries,) = take("<I")
        for _ in range(n_entries):
            (fi,) = take("<I")
            term = take_str()
            (df,) = take("<I")
            plist = []
            for _ in range(df):
                doc, n_pos = take("<II")
                positions = take(f"<{n_pos}I")
                plist.append(Posting(doc, tuple(positions)))
            postings.setdefault(fields[fi], {})[term] = tuple(plist)

        raw_values: dict[str, dict[str, tuple[int, ...]]] = {}
        (n_entries,) = take("<I")
        for _ in range(n_entries):
            (fi,) = take("<I")
            value = take_str()
            (count,) = take("<I")
            docs = take(f"<{count}I")
            raw_values.setdefault(fields[fi], {})[value] = tuple(docs)

        field_lengths: dict[str, dict[int, int]] = {}
        (n_entries,) = take("<I")
        for _ in range(n_entries):
            fi, n = take("<II")
            lengths = {}
            for _ in range(n):
                doc, length = take("<II")
                lengths[doc] = length
            field_lengths[fields[fi]] = lengths

        all_field = take_str()
        if offset != len(data):
            raise DataError(
                f"{path}: malformed index snapshot: ends at byte {offset} of {len(data)}"
            )
        return cls(
            doc_ids=doc_ids,
            doc_langs=doc_langs,
            postings=postings,
            raw_values=raw_values,
            field_lengths=field_lengths,
            chains=chains,
            all_field=all_field,
        )


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

    postings: dict[str, dict[str, list[Posting]]] = {}
    raw_values: dict[str, dict[str, set[int]]] = {}
    field_lengths: dict[str, dict[int, int]] = {}
    doc_ids: list[str] = []
    doc_langs: list[str] = []

    def add_segment(
        per_term: dict[str, list[int]], tokens: Sequence[str], start: int
    ) -> int:
        for i, token in enumerate(tokens):
            per_term.setdefault(token, []).append(start + i)
        return start + len(tokens) + SEGMENT_GAP

    for ordinal, doc in enumerate(docs):
        if doc.lang not in chains:
            raise DataError(f"no analyzer chain for language {doc.lang!r}")
        chain = chains[doc.lang]
        doc_ids.append(doc.doc_id)
        doc_langs.append(doc.lang)

        names = sorted(
            doc.fields, key=lambda n: (schema_order.get(n, len(schema_order)), n)
        )
        all_name = f"{all_field}-{doc.lang}"
        all_terms: dict[str, list[int]] = {}
        all_pos = 0
        all_length = 0

        for name in names:
            composite = f"{name}-{doc.lang}"
            per_term: dict[str, list[int]] = {}
            pos = 0
            length = 0
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
                length += len(tokens)
                all_length += len(tokens)
            field_lengths.setdefault(composite, {})[ordinal] = length
            field_postings = postings.setdefault(composite, {})
            for term in per_term:
                field_postings.setdefault(term, []).append(
                    Posting(ordinal, tuple(per_term[term]))
                )
        field_lengths.setdefault(all_name, {})[ordinal] = all_length
        all_postings = postings.setdefault(all_name, {})
        for term in all_terms:
            all_postings.setdefault(term, []).append(Posting(ordinal, tuple(all_terms[term])))

    return Index(
        doc_ids=doc_ids,
        doc_langs=doc_langs,
        postings=postings,
        raw_values={f: {v: tuple(sorted(ds)) for v, ds in vals.items()} for f, vals in raw_values.items()},
        field_lengths=field_lengths,
        chains=chains,
        all_field=all_field,
    )
