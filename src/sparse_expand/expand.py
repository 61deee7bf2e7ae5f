"""Expanded-query construction and the cross-system suggestion merge.

A topic title becomes one boosted term clause per stopword-free word;
each suggested concept becomes an unboosted clause on the same field, a
phrase when it analyzes to several tokens. Clause text keeps its surface
form: analysis happens again at query time, so `"The Great American
Novel"` stays readable in the serialized query.

Serialized queries group consecutive clauses sharing field and boost:

    chic_all-en:(moby OR dick)^2 OR chic_all-en:("Herman Melville" OR literature)

Parsing inverts serialization exactly: serialization raises DataError
for a clause the parser would read back as another one.
"""

from __future__ import annotations

import itertools
import logging
import math
import re
from dataclasses import dataclass
from functools import partial
from operator import is_not
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import LANGUAGES, chain_for, query_tokens
from .corpus import Topic
from .errors import DataError, EmptyQueryError
from .files import is_id, read_keyed_lines, write_lines
from .index import ALL_FIELD, Clause, Phrase, Query, Term, _check_boost
from .suggestions import (
    GENERATOR_SYSTEMS,
    SuggestionSet,
    make_suggestion_set,
    reciprocal_rank_scores,
)

logger = logging.getLogger(__name__)

_SYSTEM_ORDER = {name: i for i, name in enumerate(GENERATOR_SYSTEMS)}

# One chain per language for every `build_query` call: `query_tokens`
# analyzes each word, and a shared cache does so once per process.
_CHAINS = {lang: chain_for(lang) for lang in LANGUAGES}


@dataclass(frozen=True)
class ExpansionConfig:
    title_boost: float = 2.0
    max_concepts: int = 10

    def __post_init__(self):
        _check_boost(self.title_boost)
        if self.max_concepts < 0:
            raise ValueError("max_concepts must be >= 0")


def build_query(
    topic: Topic,
    suggestions: SuggestionSet | None = None,
    cfg: ExpansionConfig | None = None,
) -> Query:
    """OR together boosted title words and suggested concepts."""
    cfg = cfg or ExpansionConfig()
    chain = _CHAINS.get(topic.lang)
    if chain is None:
        raise EmptyQueryError(
            f"topic {topic.topic_id!r}: no analyzer profile for language {topic.lang!r}"
        )
    field = f"{ALL_FIELD}-{topic.lang}"

    title_tokens = query_tokens(chain, topic.title)
    if not title_tokens:
        raise EmptyQueryError(f"empty title: topic {topic.topic_id!r}")
    clauses: list[Clause] = [Term(field, tok, cfg.title_boost) for tok in title_tokens]

    seen: set[str] = set()
    texts = suggestions.texts()[: cfg.max_concepts] if suggestions else []
    for text in texts:
        if text.lower() in seen:
            continue
        seen.add(text.lower())
        words = query_tokens(chain, text)
        if not words:
            logger.warning(
                "dropping suggestion %r for topic %s: analyzes to no tokens",
                text,
                topic.topic_id,
            )
            continue
        if len(words) == 1:
            clauses.append(Term(field, words[0], 1.0))
        else:
            # A phrase word holds no quote, so the query file can quote it;
            # analysis splits at quotes anyway.
            clauses.append(Phrase(field, tuple(text.replace('"', " ").split()), 1.0))
    return Query(tuple(clauses))


def combo_merge(sets: Sequence[SuggestionSet], max_concepts: int = 10) -> SuggestionSet:
    """Round-robin merge by rank across systems, in a fixed system order.

    Texts are deduplicated case-insensitively keeping the first
    occurrence; merged suggestions get synthetic 1/rank scores since the
    source scores are not comparable across systems.
    """
    if not sets:
        raise DataError("combo needs at least one input suggestion set")
    topic_ids = {s.topic_id for s in sets}
    if len(topic_ids) != 1:
        raise DataError(f"combo inputs disagree on topic: {sorted(topic_ids)}")
    ordered = sorted(sets, key=lambda s: _SYSTEM_ORDER.get(s.system, len(_SYSTEM_ORDER)))
    # Texts rank by rank, systems in merge order within a rank.
    by_rank = itertools.zip_longest(*(s.texts() for s in ordered))
    texts = list(filter(_is_text, itertools.chain.from_iterable(by_rank)))
    lowered = list(map(str.lower, texts))
    # The first text of each lowered form, in the order the forms appear.
    first = dict(zip(reversed(lowered), reversed(texts)))
    merged = map(first.__getitem__, list(dict.fromkeys(lowered))[:max_concepts])
    return make_suggestion_set(sets[0].topic_id, "COMBO", zip(merged, reciprocal_rank_scores()))


_is_text = partial(is_not, None)


# -- query surface syntax ---------------------------------------------

_FIELD_RE = re.compile(r'([^\s()"]+):\(')
_BARE_RE = re.compile(r'[^\s()"]+')
_PHRASE_WORD_RE = re.compile(r'[^\s"]+')


def _format_boost(boost: float) -> str:
    """`^2`-style text, or the exact repr where `:g` would lose digits."""
    if boost == 1:
        return ""
    text = f"{boost:g}"
    if float(text) != boost:
        text = repr(boost)
    return f"^{text}"


def _format_clause(clause: Clause) -> str:
    """A clause's text inside its group; DataError if `parse_query` would
    not read it back as the same clause."""
    if not _BARE_RE.fullmatch(clause.field):
        raise DataError(f"query field {clause.field!r} is not one bare word")
    if isinstance(clause, Phrase):
        bad = [word for word in clause.terms if not _PHRASE_WORD_RE.fullmatch(word)]
        if bad:
            raise DataError(f"phrase word {bad[0]!r} is empty or holds a quote or whitespace")
        return '"%s"' % " ".join(clause.terms)
    if not _BARE_RE.fullmatch(clause.text):
        raise DataError(f"query term {clause.text!r} is not one bare word")
    return clause.text


def serialize_query(query: Query) -> str:
    """Render a query, grouping runs of clauses with equal field and boost.

    Raises DataError for a clause the parser could not read back: a field
    or term that is not one bare word (no whitespace, quote or
    parenthesis), or a phrase word that is empty or holds a quote or
    whitespace."""
    groups: list[tuple[str, float, list[Clause]]] = []
    for clause in query.clauses:
        if groups and groups[-1][0] == clause.field and groups[-1][1] == clause.boost:
            groups[-1][2].append(clause)
        else:
            groups.append((clause.field, clause.boost, [clause]))
    rendered = [
        f"{field}:({' OR '.join(_format_clause(c) for c in clauses)}){_format_boost(boost)}"
        for field, boost, clauses in groups
    ]
    return " OR ".join(rendered)


_BOOST_RE = re.compile(r"\^(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)")


def parse_query(expression: str) -> Query:
    """Parse the surface syntax back into a Query."""
    clauses: list[Clause] = []
    pos = 0
    text = expression.strip()

    def syntax_error(what: str) -> DataError:
        return DataError(f"bad query expression at offset {pos}: {what}: {text!r}")

    while pos < len(text):
        match = _FIELD_RE.match(text, pos)
        if not match:
            raise syntax_error("expected field:(...)")
        field = match.group(1)
        pos = match.end()
        items: list[Clause] = []
        while True:
            while pos < len(text) and text[pos] == " ":
                pos += 1
            if pos >= len(text):
                raise syntax_error("unterminated group")
            if text[pos] == '"':
                end = text.find('"', pos + 1)
                if end == -1:
                    raise syntax_error("unterminated phrase quote")
                words = text[pos + 1 : end].split()
                if not words:
                    raise syntax_error("empty phrase")
                items.append(Phrase(field, tuple(words)))
                pos = end + 1
            else:
                word = _BARE_RE.match(text, pos)
                if not word:
                    raise syntax_error("expected a term")
                items.append(Term(field, word.group(0)))
                pos = word.end()
            while pos < len(text) and text[pos] == " ":
                pos += 1
            if pos < len(text) and text[pos] == ")":
                pos += 1
                break
            if text.startswith("OR", pos):
                pos += 2
                continue
            raise syntax_error("expected OR or )")
        boost = 1.0
        boost_match = _BOOST_RE.match(text, pos)
        if boost_match:
            boost = float(boost_match.group(1))
            if not 0 < boost < math.inf:
                raise syntax_error("boost must be positive and finite")
            pos = boost_match.end()
        clauses.extend(
            Term(field, c.text, boost) if isinstance(c, Term) else Phrase(field, c.terms, boost)
            for c in items
        )
        while pos < len(text) and text[pos] == " ":
            pos += 1
        if pos < len(text):
            if text.startswith("OR", pos):
                pos += 2
                while pos < len(text) and text[pos] == " ":
                    pos += 1
            else:
                raise syntax_error("expected OR between groups")
    if not clauses:
        raise DataError(f"empty query expression: {expression!r}")
    return Query(tuple(clauses))


def write_query_file(path: str | Path, queries: Iterable[tuple[str, Query]]) -> None:
    """One `topic_id <TAB> expression` line per query.

    Raises DataError, before anything is written, for a topic id that
    `read_query_file` would reject (empty, holding whitespace, or
    repeated) and for a query `serialize_query` rejects."""
    lines, seen = [], set()
    for topic_id, query in queries:
        if not is_id(topic_id):
            raise DataError(f"topic id {topic_id!r} is empty or contains whitespace")
        if topic_id in seen:
            raise DataError(f"repeated topic id {topic_id!r}")
        seen.add(topic_id)
        lines.append(f"{topic_id}\t{serialize_query(query)}")
    write_lines(path, lines)


def read_query_file(path: str | Path) -> list[tuple[str, Query]]:
    """(topic id, query) per `topic_id<TAB>expression` line."""
    return list(read_keyed_lines(path, parse_query).items())
