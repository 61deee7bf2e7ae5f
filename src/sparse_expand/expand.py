"""Expanded-query construction and the cross-system suggestion merge.

A topic title becomes one boosted term clause per stopword-free word;
each suggested concept becomes an unboosted clause on the same field, a
phrase when it analyzes to several tokens. Clause text keeps its surface
form: analysis happens again at query time, so `"The Great American
Novel"` stays readable in the serialized query.

Serialized queries group consecutive clauses sharing field and boost:

    chic_all-en:(moby OR dick)^2 OR chic_all-en:("Herman Melville" OR literature)

One token pattern, `_TOKEN`, is the whole grammar: optional spaces, then
a group opening `field:(`, a quoted phrase, a `)` with its optional
`^boost` in ASCII digits, or a bare word (no whitespace, `"`, `(` or
`)`). `OR` joins groups, and clauses within a group, only as a word of
its own: a trailing `OR`, or one glued to a word (`f:(a ORb)`,
`f:(a)ORg:(b)`), is malformed. Parsing inverts serialization exactly:
serialization raises DataError for a clause the parser would read back
as another one.

Topics and systems repeat the same concept words, so both `build_query`
and `parse_query` intern (`sys.intern`) each clause's field and each
word, phrase words included: the queries of a run share one string
object per distinct field and word.
"""

from __future__ import annotations

import logging
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import LANGUAGES, query_tokens, shared_chain
from .corpus import Topic
from .errors import DataError, EmptyQueryError
from .files import is_id, read_keyed_lines, write_lines
from .index import ALL_FIELD, Clause, Phrase, Query, Term, _check_boost
from .suggestions import (
    GENERATOR_SYSTEMS,
    SuggestionSet,
    reciprocal_rank_scores,
)

logger = logging.getLogger(__name__)

_SYSTEM_ORDER = {name: i for i, name in enumerate(GENERATOR_SYSTEMS)}


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
    if topic.lang not in LANGUAGES:
        raise EmptyQueryError(
            f"topic {topic.topic_id!r}: no analyzer profile for language {topic.lang!r}"
        )
    chain = shared_chain(topic.lang)
    field = sys.intern(f"{ALL_FIELD}-{topic.lang}")

    title_tokens = query_tokens(chain, topic.title)
    if not title_tokens:
        raise EmptyQueryError(f"empty title: topic {topic.topic_id!r}")
    clauses: list[Clause] = [Term(field, sys.intern(tok), cfg.title_boost) for tok in title_tokens]

    seen: set[str] = set()
    texts = suggestions.concepts[: cfg.max_concepts] if suggestions else ()
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
            clauses.append(Term(field, sys.intern(words[0]), 1.0))
        else:
            # A phrase word holds no quote, so the query file can quote it;
            # analysis splits at quotes anyway.
            clauses.append(Phrase(field, tuple(map(sys.intern, text.replace('"', " ").split())), 1.0))
    return Query(tuple(clauses))


def combo_merge(sets: Sequence[SuggestionSet], max_concepts: int = 10) -> SuggestionSet:
    """Round-robin merge by rank across systems, in a fixed system order.

    Texts are deduplicated case-insensitively keeping the first
    occurrence; merged suggestions get synthetic 1/rank scores since the
    source scores are not comparable across systems.
    """
    if max_concepts < 0:
        raise ValueError(f"max_concepts must be >= 0, got {max_concepts}")
    if not sets:
        raise DataError("combo needs at least one input suggestion set")
    topic_ids = {s.topic_id for s in sets}
    if len(topic_ids) != 1:
        raise DataError(f"combo inputs disagree on topic: {sorted(topic_ids)}")
    ordered = sorted(sets, key=lambda s: _SYSTEM_ORDER.get(s.system, len(_SYSTEM_ORDER)))
    lists = [s.concepts for s in ordered]
    # Lowered form -> its first text; texts rank by rank, systems in merge order within a rank.
    first: dict[str, str] = {}
    for rank in range(max(map(len, lists))):
        for texts in lists:
            if rank < len(texts):
                first.setdefault(texts[rank].lower(), texts[rank])
    merged = tuple(first.values())[:max_concepts]
    return SuggestionSet(sets[0].topic_id, "COMBO", merged, reciprocal_rank_scores(len(merged)))


# -- query surface syntax ---------------------------------------------

# The whole query grammar: optional spaces, then one token. `none` is
# the empty match where no token starts.
_TOKEN = re.compile(
    r' *(?:(?P<open>[^\s()"]+):\(|(?P<phrase>"[^"]*")|(?P<word>[^\s()"]+)'
    r'|(?P<close>\)(?:\^(?P<boost>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?))?)|(?P<none>))'
)


def _format_boost(boost: float) -> str:
    """`^2`-style text, or the exact repr where `:g` would lose digits."""
    if boost == 1:
        return ""
    text = f"{boost:g}"
    if float(text) != boost:
        text = repr(boost)
    return f"^{text}"


def _format_clause(clause: Clause) -> str:
    """A term's or phrase's text; DataError unless `_TOKEN` reads it back as written."""
    is_phrase = isinstance(clause, Phrase)
    text = f'"{clause.text}"' if is_phrase else clause.text
    token = _TOKEN.fullmatch(text)
    if is_phrase and not (token and tuple(text[1:-1].split()) == clause.terms):
        raise DataError(f"phrase {clause.terms!r} has a word that is empty or holds a quote or whitespace")
    if not is_phrase and not (token and token["word"] == text):
        raise DataError(f"query term {text!r} is not one bare word")
    return text


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
    rendered = []
    for field, boost, clauses in groups:
        opening = _TOKEN.fullmatch(f"{field}:(")
        if not opening or opening["open"] != field:
            raise DataError(f"query field {field!r} is not one bare word")
        rendered.append(f"{field}:({' OR '.join(map(_format_clause, clauses))}){_format_boost(boost)}")
    return " OR ".join(rendered)


def parse_query(expression: str) -> Query:
    """Parse the surface syntax back into a Query, one `_TOKEN` at a time."""
    text = expression.strip()
    if not text:
        raise DataError(f"empty query expression: {expression!r}")

    def syntax_error(at: int, what: str) -> DataError:
        return DataError(f"bad query expression at offset {at}: {what}: {text!r}")

    clauses: list[Clause] = []
    expect, pos = "field:(...)", 0  # what may come next
    while True:
        token = _TOKEN.match(text, pos)
        kind, at, pos = token.lastgroup, token.start(token.lastgroup), token.end()
        if expect == "a term" and kind in ("word", "phrase"):
            word = token["word"]
            item = sys.intern(word) if word else [*map(sys.intern, token["phrase"][1:-1].split())]
            if not item:
                raise syntax_error(at, "empty phrase")
            items.append(item)
            expect = "OR or )"
        elif token["word"] == "OR" and expect in ("OR or )", "OR between groups"):
            expect = "a term" if expect == "OR or )" else "field:(...)"
        elif kind == "open" and expect == "field:(...)":
            field, items, expect = sys.intern(token["open"]), [], "a term"
        elif kind == "close" and expect == "OR or )":
            boost = float(token["boost"] or 1)
            if not 0 < boost < math.inf:
                raise syntax_error(at + 1, "boost must be positive and finite")
            clauses += [Term(field, i, boost) if type(i) is str else Phrase(field, i, boost) for i in items]
            expect = "OR between groups"
        elif at == len(text) and expect == "OR between groups":
            return Query(tuple(clauses))
        elif kind == "open" and expect == "a term":  # `field:` is a term; the `(` after it is not
            raise syntax_error(pos - 1, "expected OR or )")
        elif expect == "a term" and text[at : at + 1] in ("", '"'):
            raise syntax_error(at, "unterminated phrase quote" if text[at:] else "unterminated group")
        else:
            raise syntax_error(at, f"expected {expect}")


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
