"""Independent recomputation of sampled benchmark results.

In the manner of the test suite's naive oracles: every result is
recomputed from the raw inputs by plain scans and set arithmetic,
avoiding the index, recommender and similarity code under test. Only
the analyzer's building blocks (tokenizer, possessive rule, stopword
list, Porter stemmer) are shared, since every route needs identical
tokens; stems are memoised here to keep the checks cheap.

Each `check_*` returns a list of problem strings; empty means correct.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from sparse_expand.analysis import en_possessive, tokenize
from sparse_expand.corpus import DEFAULT_SCHEMA
from sparse_expand.porter import porter_stem
from sparse_expand.stopwords import ENGLISH

SEGMENT_GAP = 1


class Analyzer:
    """The English chain (tokenize, possessive, lowercase, stopwords,
    Porter) with a stem cache."""

    def __init__(self, stopwords=ENGLISH):
        self.stopwords = stopwords
        self._stems: dict[str, str] = {}

    def surface(self, text: str) -> list[str]:
        """Lowercased non-stopword tokens: what reaches the stemmer."""
        out = []
        for token in tokenize(text):
            token = en_possessive(token).lower()
            if token not in self.stopwords:
                out.append(token)
        return out

    def run(self, text: str) -> list[str]:
        stems = self._stems
        out = []
        for token in self.surface(text):
            stem = stems.get(token)
            if stem is None:
                stem = stems[token] = porter_stem(token)
            if stem:
                out.append(stem)
        return out


# -- search -------------------------------------------------------------


def union_field_positions(documents, analyzer: Analyzer) -> list[dict[str, list[int]]]:
    """Per document, term -> positions in the union field, from scratch."""
    in_schema = set(DEFAULT_SCHEMA)
    out = []
    for doc in documents:
        names = [n for n in DEFAULT_SCHEMA if n in doc.fields] + sorted(
            n for n in doc.fields if n not in in_schema
        )
        positions: dict[str, list[int]] = {}
        pos = 0
        for name in names:
            for value in doc.fields[name]:
                tokens = analyzer.run(value)
                if not tokens:
                    continue
                for i, term in enumerate(tokens):
                    positions.setdefault(term, []).append(pos + i)
                pos += len(tokens) + SEGMENT_GAP
        out.append(positions)
    return out


def naive_search(doc_ids, streams, analyzer: Analyzer, query, k: int) -> list[tuple[str, float]]:
    """Score every document against every clause of a union-field query."""
    n_docs = len(doc_ids)
    scores: dict[int, float] = {}
    for clause in query.clauses:
        text = " ".join(clause.terms) if hasattr(clause, "terms") else clause.text
        tokens = analyzer.run(text)
        if not tokens:
            continue
        tfs = {}
        for i, stream in enumerate(streams):
            if tokens[0] not in stream:
                continue
            if len(tokens) == 1:
                tf = len(stream[tokens[0]])
            else:
                rest = [set(stream.get(t, ())) for t in tokens[1:]]
                tf = sum(
                    1
                    for start in stream[tokens[0]]
                    if all(start + j + 1 in s for j, s in enumerate(rest))
                )
            if tf:
                tfs[i] = tf
        if not tfs:
            continue
        idf = 1.0 + math.log(n_docs / (1.0 + len(tfs)))
        for i in sorted(tfs):
            scores[i] = scores.get(i, 0.0) + clause.boost * math.sqrt(tfs[i]) * idf
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], doc_ids[kv[0]]))
    return [(doc_ids[i], score) for i, score in ranked[:k]]


def check_search(expected: list[tuple[str, float]], hits) -> list[str]:
    got = [(h.doc_id, h.score) for h in hits]
    if got == expected:
        return []
    for rank, (a, b) in enumerate(zip(got, expected), 1):
        if a != b:
            return [f"rank {rank}: got {a}, expected {b}"]
    return [f"got {len(got)} hits, expected {len(expected)}"]


# -- STR ----------------------------------------------------------------


class StrOracle:
    """Co-occurrence scores by explicit set arithmetic over raw documents."""

    def __init__(self, documents, analyzer: Analyzer,
                 input_fields=("dc:title", "dc:description"),
                 concept_fields=("dc:subject", "enrichment:concept_label")):
        self.analyzer = analyzer
        self.bags = []
        self.value_docs: dict[str, set[int]] = {}
        for i, doc in enumerate(documents):
            bag = set()
            for name in input_fields:
                for value in doc.fields.get(name, ()):
                    bag.update(analyzer.run(value))
            self.bags.append(bag)
            for name in concept_fields:
                for value in doc.fields.get(name, ()):
                    self.value_docs.setdefault(value.strip(), set()).add(i)

    def scores(self, title: str, k: int = 10) -> list[tuple[str, Fraction]]:
        per_token = [
            {i for i, bag in enumerate(self.bags) if stem in bag} for stem in self.analyzer.run(title)
        ]
        ds_x = set.intersection(*per_token) if per_token else set()
        if not ds_x and per_token:
            ds_x = set.union(*per_token)
        scored = []
        for value, ds_y in self.value_docs.items():
            inter = len(ds_x & ds_y)
            if inter:
                scored.append((value, Fraction(inter, len(ds_x) + len(ds_y) - inter)))
        scored.sort(key=lambda p: (-p[1], p[0]))
        return scored[:k]


def check_pairs(expected: list[tuple[str, object]], sset) -> list[str]:
    got = [(s.text, s.score) for s in sset.suggestions]
    if got == expected:
        return []
    return [f"{sset.system} {sset.topic_id}: got {got[:3]}..., expected {expected[:3]}..."]


# -- docsim -------------------------------------------------------------


class DocsimOracle:
    """Top-n tf*idf words per document and all-pairs overlap ranking."""

    def __init__(self, bodies: dict[str, str], analyzer: Analyzer, n: int = 50):
        counts = {title: Counter(analyzer.run(body)) for title, body in bodies.items()}
        df: Counter = Counter()
        for c in counts.values():
            df.update(c.keys())
        n_docs = len(bodies)
        self.words = {}
        for title, c in counts.items():
            weight = {t: c[t] * (1.0 + math.log(n_docs / (1.0 + df[t]))) for t in c}
            self.words[title] = set(sorted(weight, key=lambda t: (-weight[t], t))[:n])
        self.n = n

    def ranking(self, seed: str, k: int = 10) -> list[tuple[str, Fraction]]:
        seed_words = self.words[seed]
        scored = []
        for title, words in self.words.items():
            if title == seed:
                continue
            score = Fraction(len(seed_words & words), self.n)
            if score > 0:
                scored.append((title, score))
        scored.sort(key=lambda p: (-p[1], p[0]))
        return scored[:k]


# -- WIKI_ENTITY and COMBO ----------------------------------------------


def check_links(expected: list[str], sset) -> list[str]:
    got = sset.texts()
    if got == expected:
        return []
    return [f"WIKI_ENTITY {sset.topic_id}: got {got}, expected {expected}"]


def naive_combo(sets, k: int = 10) -> list[str]:
    """Round robin by rank over WIKI_ENTITY, WIKI_SIM, WIKI_BACK, STR."""
    order = ("WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR")
    lists = [s.texts() for name in order for s in sets if s.system == name]
    merged, seen = [], set()
    for rank in range(max((len(x) for x in lists), default=0)):
        for texts in lists:
            if rank < len(texts) and texts[rank].lower() not in seen:
                seen.add(texts[rank].lower())
                merged.append(texts[rank])
    return merged[:k]


# -- evaluation ---------------------------------------------------------


def naive_mean_ap(run_lines: list[str], qrels_lines: list[str], depth: int = 1000) -> float:
    """Mean average precision recomputed from run and qrels text."""
    judged: dict[str, dict[str, int]] = {}
    for line in qrels_lines:
        topic, _, doc, grade = line.split()
        judged.setdefault(topic, {})[doc] = int(grade)
    ranked: dict[str, list[tuple[int, str]]] = {}
    for line in run_lines:
        topic, _, doc, rank, _, _ = line.split()
        ranked.setdefault(topic, []).append((int(rank), doc))
    aps = []
    for topic in sorted(judged):
        relevant = {d for d, g in judged[topic].items() if g >= 1}
        if not relevant:
            continue
        docs = [d for _, d in sorted(ranked.get(topic, []))][:depth]
        hits, total = 0, 0.0
        for position, doc in enumerate(docs, 1):
            if doc in relevant:
                hits += 1
                total += hits / position
        aps.append(total / len(relevant))
    return sum(aps) / len(aps)
