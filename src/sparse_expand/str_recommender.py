"""Co-occurrence search-term recommender.

Candidate concepts are whole field values from the concept fields
`corpus.CONCEPT_FIELDS` (controlled-vocabulary surface forms, e.g.
"Cinema and Theatre").
A topic's document set is built from its title over the input fields:
the title is analyzed once with the language's chain, and each term's
documents are the union of its doc columns in those fields
(`Index.term_docs`). Every concept value is then scored by the Jaccard
similarity of the two document sets, computed from the set sizes

    jaccard(df_x, df_y, df_xy) = df_xy / (df_x + df_y - df_xy)

or by its logarithmic variant that dampens large size differences.

Only values that co-occur with the topic's documents can score above
zero, so scoring walks the topic's documents through a doc -> values map
(an inverted file turned around) instead of intersecting every value's
document set. The map and each value's document frequency are built on
first use from the index's raw-value columns and kept on the index
(`Index.concept_table`), one per language.

Jaccard candidates are ranked on the exact integer key
floor(jaccard * N**2), N the number of indexed documents: every union is
at most N, so two distinct scores differ by at least 1/N**2 and the key
orders and ties exactly as the Fraction does. Scores are computed only
for the suggestions returned.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import log
from typing import ClassVar

from .corpus import CONCEPT_FIELDS, Topic
from .errors import EmptyQueryError
from .index import Index
from .suggestions import SuggestionSet


# The candidate scores `suggest_str` knows, by name.
SIMILARITIES = ("jaccard", "log_jaccard")


@dataclass(frozen=True)
class CooccurConfig:
    input_fields: ClassVar[tuple[str, ...]] = ("dc:title", "dc:description")
    concept_fields: ClassVar[tuple[str, ...]] = CONCEPT_FIELDS
    similarity: str = "jaccard"  # one of SIMILARITIES
    top_k: int = 10

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.similarity not in SIMILARITIES:
            raise ValueError(f"unknown similarity {self.similarity!r}")


def jaccard(df_x: int, df_y: int, df_xy: int) -> Fraction:
    """Exact rational Jaccard score from document-set sizes.

    The empty-vs-empty case (all three zero) is defined as 0.
    """
    if df_xy > min(df_x, df_y):
        raise ValueError("df_xy cannot exceed min(df_x, df_y)")
    if df_x == df_y == 0:
        return Fraction(0)
    return Fraction(df_xy, df_x + df_y - df_xy)


def log_jaccard(df_x: int, df_y: int, df_xy: int) -> float:
    """Jaccard over log-damped frequencies: ln(1+c) replaces each count."""
    if df_xy > min(df_x, df_y):
        raise ValueError("df_xy cannot exceed min(df_x, df_y)")
    if df_xy == 0:
        return 0.0
    lx, ly, lxy = log(1 + df_x), log(1 + df_y), log(1 + df_xy)
    return lxy / (lx + ly - lxy)


def _topic_doc_set(index: Index, topic: Topic, cfg: CooccurConfig) -> set[int]:
    """Documents matching the topic title over the input fields.

    The title is analyzed once; per term, the doc columns of all input
    fields are unioned; terms are then intersected. If the conjunction
    is empty, fall back to the disjunction of terms.
    """
    chain = index.chains.get(topic.lang)
    if chain is None:
        raise EmptyQueryError(f"no analyzer for topic language {topic.lang!r}")
    terms = chain.run(topic.title)
    if not terms:
        raise EmptyQueryError(f"empty query: topic {topic.topic_id!r}")
    fields = [f"{name}-{topic.lang}" for name in cfg.input_fields]
    first, *rest = (index.term_docs(fields, term) for term in terms)
    conjunction = first.intersection(*rest)
    if conjunction:
        return conjunction
    first.update(*rest)
    return first


def suggest_str(index: Index, topic: Topic, cfg: CooccurConfig | None = None) -> SuggestionSet:
    """Rank concept-field values by co-occurrence with the topic title.

    Values never co-occurring with the topic's documents are omitted, so
    the result can be shorter than top_k (or empty).
    """
    cfg = cfg or CooccurConfig()
    ds_x = _topic_doc_set(index, topic, cfg)
    if cfg.similarity == "jaccard":
        similarity, rank_key = jaccard, partial(_jaccard_key, n_sq=index.n_docs**2)
    else:
        similarity = rank_key = log_jaccard

    value_df, doc_values = index.concept_table(topic.lang)
    df_xy = Counter(itertools.chain.from_iterable(map(doc_values.get, ds_x, itertools.repeat(()))))
    df_x = len(ds_x)
    df_y = map(value_df.__getitem__, df_xy)
    keys = dict(zip(df_xy, map(rank_key, itertools.repeat(df_x), df_y, df_xy.values())))
    ranked = sorted(df_xy)
    ranked.sort(key=keys.__getitem__, reverse=True)
    top = ranked[: cfg.top_k]
    df_y = map(value_df.__getitem__, top)
    scores = map(similarity, itertools.repeat(df_x), df_y, map(df_xy.__getitem__, top))
    return SuggestionSet(topic.topic_id, "STR", top, scores)


def _jaccard_key(df_x: int, df_y: int, df_xy: int, n_sq: int) -> int:
    """floor(jaccard(df_x, df_y, df_xy) * n_sq) for df_xy >= 1, with the
    count check of jaccard()."""
    if df_xy > min(df_x, df_y):
        raise ValueError("df_xy cannot exceed min(df_x, df_y)")
    return df_xy * n_sq // (df_x + df_y - df_xy)
