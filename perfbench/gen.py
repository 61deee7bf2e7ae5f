"""Seeded synthetic inputs for the benchmark.

Writes only files, in the formats the program's own readers take:

    docs.jsonl        metadata records (ingest_documents)
    topics.jsonl      topics (read_topics)
    articles/*.wiki   wikitext articles (ArticleStore.from_dir)
    sim/*.txt         WIKI_SIM corpus (SimCorpus.from_dir)
    back/*.txt        WIKI_BACK corpus (SimCorpus.from_dir)
    seeds.tsv         topic -> seed title
    qrels.txt         TREC relevance judgments
    queries.jsonl     search topics (read_topics)
    queries.tsv       their suggested concepts (read_suggestion_file)
    expect_wiki.tsv   planted lead links of the topics whose article is
                      known by construction (benchmark-private oracle)

Words follow a Zipf law, so posting lists are skewed as in real metadata.
Documents, topics and articles belong to topical clusters, so concepts
co-occur with title words the way the STR recommender expects.

The same seed and sizes always give byte-identical files.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

# A subset of the program's English stopwords, used as filler and for
# stopword-only topics.
STOPWORDS = ("the", "of", "and", "in", "a", "to", "for", "on", "with", "by", "from", "at")

_SYLLABLES = (
    "ka ri lo men tar vel do sin pra gor lu bex nor tha quin res mal fi zen cor ad ul "
    "ver pon mi sa tu ren gal hob jin kel mur nat pel rud sor tev wam yal zor bri cha "
    "dre fen gli hus"
).split()

# Inflections the Porter stemmer folds back onto the base word.
_SUFFIXES = ("", "", "", "", "s", "s", "ing", "ed", "er", "ers", "ation", "ness", "ly", "ment")

# Topic kinds, spread over the four article-matching stages plus misses,
# in these proportions (percent).
TOPIC_KINDS = ("original", "stopword_free", "permutation", "single_word", "none", "stopword_only")
_KIND_WEIGHTS = (30, 15, 15, 20, 12, 8)
SHORT_LEAD_EVERY = 7  # every 7th article has a lead too short to use
MISSING_SEED_EVERY = 10  # every 10th topic has no seed


def _stratified(rng: random.Random, n: int, labels, weights) -> list:
    """`n` labels in the given proportions, shuffled: inputs of one size
    have the same make-up for every seed, so seeds differ in content only."""
    pool = [label for label, w in zip(labels, weights) for _ in range(w)]
    out = [pool[int((i + 0.5) * len(pool) / n)] for i in range(n)]
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class Sizes:
    docs: int
    concepts: int
    clusters: int
    topics: int
    articles: int
    sim_docs: int
    queries: int


class _Zipf:
    """Draws items with probability proportional to 1 / rank**s."""

    def __init__(self, items, s: float = 1.0):
        self.items = list(items)
        total = 0.0
        self.cum = []
        for rank in range(1, len(self.items) + 1):
            total += 1.0 / rank**s
            self.cum.append(total)

    def draw(self, rng: random.Random):
        return self.items[bisect(self.cum, rng.random() * self.cum[-1])]


def _base_words(rng: random.Random, count: int) -> list[str]:
    words: list[str] = []
    seen = set(STOPWORDS)
    while len(words) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _unknown_word(rng: random.Random) -> str:
    # 'q' followed by 'x' never comes out of the syllable table.
    return "qx" + "".join(rng.choice("bcdfghjklmnpstvwz") for _ in range(5))


class _World:
    """Vocabulary, concepts and clusters shared by every generated file."""

    def __init__(self, rng: random.Random, sizes: Sizes):
        n_base = max(200, sizes.docs // 2)
        base = _base_words(rng, n_base)
        self.base = base
        surface = [w + rng.choice(_SUFFIXES) for w in base for _ in range(2)]
        surface = list(dict.fromkeys(surface))
        rng.shuffle(surface)
        self.global_words = _Zipf(surface, 1.05)

        concepts: list[str] = []
        seen: set[str] = set()
        while len(concepts) < sizes.concepts:
            n_words = rng.choice((1, 1, 2, 2, 3))
            words = [rng.choice(base).capitalize() for _ in range(n_words)]
            if n_words == 3 and rng.random() < 0.3:
                words[1] = "of"
            text = " ".join(words)
            if text.lower() not in seen and len(set(words)) == len(words):
                seen.add(text.lower())
                concepts.append(text)

        self.cluster_words = []
        self.cluster_concepts = []
        for _ in range(sizes.clusters):
            words = rng.sample(surface, min(len(surface), 40))
            self.cluster_words.append(_Zipf(words, 1.1))
            picked = rng.sample(concepts, min(len(concepts), 30))
            self.cluster_concepts.append(_Zipf(picked, 1.2))
        self.clusters = _Zipf(range(sizes.clusters), 0.6)

    def words(self, rng: random.Random, cluster: int, n: int, stop_share: float) -> list[str]:
        out = []
        for _ in range(n):
            roll = rng.random()
            if roll < stop_share:
                out.append(rng.choice(STOPWORDS))
            elif roll < stop_share + 0.6:
                out.append(self.cluster_words[cluster].draw(rng))
            else:
                out.append(self.global_words.draw(rng))
        return out


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _documents(rng: random.Random, world: _World, sizes: Sizes, prefix: str):
    docs = []
    lines = []
    for i in range(sizes.docs):
        cluster = world.clusters.draw(rng)
        title = " ".join(world.words(rng, cluster, rng.randint(2, 8), 0.1))
        fields = {"dc:title": [title.capitalize()]}
        fields["dc:description"] = [
            " ".join(world.words(rng, cluster, rng.randint(5, 30), 0.25)) + "."
            for _ in range(rng.randint(1, 2))
        ]
        concepts = list(dict.fromkeys(
            world.cluster_concepts[cluster].draw(rng) for _ in range(rng.randint(1, 3))
        ))
        split = rng.randint(0, len(concepts))
        if concepts[:split]:
            fields["dc:subject"] = concepts[:split]
        if concepts[split:]:
            fields["enrichment:concept_label"] = concepts[split:]
        fields["dc:creator"] = [" ".join(rng.choice(world.base).capitalize() for _ in range(2))]
        fields["europeana:country"] = [rng.choice(("france", "germany", "italy", "spain", "poland"))]
        doc_id = f"{prefix}{i:06d}"
        docs.append((doc_id, cluster))
        lines.append(json.dumps({"id": doc_id, "lang": "en", "fields": fields}))
    return docs, lines


def _rough_stem(word: str) -> str:
    """Strips more than any stemmer would, so titles unique under it stay
    unique after stemming."""
    word = word.lower()
    changed = True
    while changed:
        changed = False
        for suffix in ("ation", "ness", "ment", "ing", "ers", "er", "ed", "ly", "es", "s", "e", "y"):
            if word.endswith(suffix) and len(word) - len(suffix) >= 3:
                word = word[: -len(suffix)]
                changed = True
                break
    return word


def _article_titles(rng: random.Random, world: _World, count: int):
    """Titles unique up to stemming and word order; some carry a stopword."""
    titles: list[tuple[str, int]] = []
    seen: set[frozenset[str]] = set()
    while len(titles) < count:
        cluster = world.clusters.draw(rng)
        n_words = rng.choice((1, 2, 2, 2, 3))
        words = []
        for _ in range(n_words):
            word = world.cluster_words[cluster].draw(rng)
            words.append(rng.choice(world.base) if rng.random() < 0.5 else word)
        words = [w.capitalize() for w in words]
        if n_words == 3 and rng.random() < 0.3:
            words[1] = "of"
        key = tuple(_rough_stem(w) for w in words)
        if len(set(key)) != len(key) or frozenset(key) in seen:
            continue
        seen.add(frozenset(key))
        titles.append((" ".join(words), cluster))
    return titles


def _link(rng: random.Random, target: str) -> str:
    roll = rng.random()
    if roll < 0.6:
        return f"[[{target}]]"
    if roll < 0.85:
        return f"[[{target}|{target.lower()}]]"
    return f"[[{target}#History|{target.split()[0].lower()}]]"


def _sentence(rng: random.Random, world: _World, cluster: int, links: list[str]) -> str:
    """Prose with the links inserted in the given order."""
    words = world.words(rng, cluster, rng.randint(6, 16), 0.25)
    slots = sorted(rng.randint(0, len(words)) for _ in links)
    for offset, (slot, target) in enumerate(zip(slots, links)):
        words.insert(slot + offset, _link(rng, target))
    text = " ".join(words)
    return text[:1].upper() + text[1:] + "."


def _article(rng: random.Random, world: _World, title: str, cluster: int, short: bool):
    """Wikitext with templates, tables, comments and media links.

    Returns the text and the plain link targets of the lead and of the
    whole article, in first-occurrence order.
    """
    pool = world.cluster_concepts[cluster]
    n_lead = rng.randint(0, 2) if short else rng.randint(3, 12)
    lead_links = list(dict.fromkeys(pool.draw(rng) for _ in range(n_lead)))
    body_links = list(dict.fromkeys(pool.draw(rng) for _ in range(rng.randint(2, 8))))
    parts = []
    parts.append("{{Infobox thing | name = %s | image = {{nested|x}} | note = [[Hidden Link]] }}" % title)
    parts.append("<!-- maintenance note: [[Commented Link]] -->")
    chunks = [lead_links[i : i + 3] for i in range(0, len(lead_links), 3)] or [[]]
    for chunk in chunks:
        parts.append(_sentence(rng, world, cluster, chunk))
    if rng.random() < 0.5:
        parts.append("[[File:%s.jpg|thumb|A view of [[Caption Link]] here]]" % title.replace(" ", "_"))
    parts.append("")
    for s, links in enumerate((body_links[: len(body_links) // 2], body_links[len(body_links) // 2 :])):
        parts.append(f"== Section {s} ==")
        parts.append(_sentence(rng, world, cluster, links))
        if s == 0:
            parts.append('{| class="wikitable"\n|-\n| [[Table Link]] || cell\n|}')
    parts.append("[[Category:%s]]" % title)
    parts.append("[[de:%s]]" % title)
    full = list(dict.fromkeys(lead_links + body_links))
    return "\n".join(parts) + "\n", lead_links, full


def _topic_title(rng: random.Random, kind: str, article: str) -> str:
    words = article.split()
    content = [w for w in words if w.lower() not in STOPWORDS]
    if kind == "original":
        return article
    if kind == "stopword_free":
        return "the " + article
    if kind == "permutation":
        return " ".join(reversed(content))
    if kind == "single_word":
        return f"{rng.choice(content).lower()} {_unknown_word(rng)}"
    if kind == "none":
        return f"{_unknown_word(rng)} {_unknown_word(rng)}"
    return " ".join(rng.sample(STOPWORDS, rng.randint(1, 3)))


def _sim_corpus(rng, world, directory: Path, titles) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for title, cluster in titles:
        body = " ".join(world.words(rng, cluster, rng.randint(100, 400), 0.3))
        path = directory / f"{quote(title, safe='')}.txt"
        path.write_text(body + "\n", encoding="utf-8")


def generate(root: str | Path, seed: int, sizes: Sizes) -> dict[str, str]:
    """Write every input file under `root`; returns their paths by role."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    # The vocabulary, concepts and clusters are the same for every seed, as
    # a language is; the seed draws the documents, articles and topics.
    world = _World(random.Random(0), sizes)
    rng = random.Random(seed)

    docs, doc_lines = _documents(rng, world, sizes, f"d{seed}-")
    _write_lines(root / "docs.jsonl", doc_lines)

    # Article titles double as WIKI_SIM / WIKI_BACK titles; both corpora
    # share the first half of the sim titles, from which seeds are drawn.
    n_first = max(sizes.articles, sizes.sim_docs)
    titles = _article_titles(rng, world, n_first + sizes.sim_docs)
    article_titles = titles[: sizes.articles]
    articles_dir = root / "articles"
    articles_dir.mkdir(parents=True, exist_ok=True)
    expected_links: dict[str, tuple[str, ...]] = {}
    for i, (title, cluster) in enumerate(article_titles):
        short = i % SHORT_LEAD_EVERY == SHORT_LEAD_EVERY - 1
        text, lead, full = _article(rng, world, title, cluster, short)
        (articles_dir / f"{quote(title, safe='')}.wiki").write_text(text, encoding="utf-8")
        links = lead if len(lead) >= 3 or len(full) <= len(lead) else full
        expected_links[title] = tuple(links)

    shared = titles[: sizes.sim_docs // 2]
    _sim_corpus(rng, world, root / "sim", titles[: sizes.sim_docs])
    _sim_corpus(rng, world, root / "back", shared + titles[n_first : n_first + sizes.sim_docs - len(shared)])
    seed_titles = [t for t, _ in shared]

    topics = []
    topic_lines = []
    seed_lines = []
    expect_lines = []
    used: set[str] = set()
    kinds = _stratified(rng, sizes.topics, TOPIC_KINDS, _KIND_WEIGHTS)
    for i, kind in enumerate(kinds):
        title, cluster = rng.choice(article_titles)
        if kind == "permutation" and len([w for w in title.split() if w.lower() not in STOPWORDS]) < 2:
            kind = "original"
        topic_title = _topic_title(rng, kind, title)
        topic_id = f"T{seed}-{i:04d}"
        if kind == "original" and title not in used:
            used.add(title)
            expect_lines.append("\t".join((topic_id, title) + expected_links[title]))
        record = {"id": topic_id, "lang": "en", "title": topic_title}
        if rng.random() < 0.5:
            record["description"] = " ".join(world.words(rng, cluster, rng.randint(5, 15), 0.3))
        topic_lines.append(json.dumps(record))
        topics.append((topic_id, cluster, kind))
        if kind != "stopword_only" and i % MISSING_SEED_EVERY != MISSING_SEED_EVERY - 1:
            seed_lines.append(f"{topic_id}\t{rng.choice(seed_titles)}")
    _write_lines(root / "topics.jsonl", topic_lines)
    _write_lines(root / "seeds.tsv", seed_lines)
    _write_lines(root / "expect_wiki.tsv", expect_lines)

    by_cluster: dict[int, list[str]] = {}
    for doc_id, cluster in docs:
        by_cluster.setdefault(cluster, []).append(doc_id)
    all_ids = [doc_id for doc_id, _ in docs]
    qrel_lines = []
    for topic_id, cluster, _ in topics:
        related = by_cluster.get(cluster, [])
        judged = rng.sample(related, min(len(related), 15)) + rng.sample(all_ids, min(len(all_ids), 10))
        grades = {}
        for doc_id in judged:
            grades.setdefault(doc_id, rng.choice((1, 2)) if doc_id in related else 0)
        qrel_lines.extend(f"{topic_id} 0 {d} {g}" for d, g in sorted(grades.items()))
    _write_lines(root / "qrels.txt", qrel_lines)

    # Search queries: 1-3 word topics plus 0-10 concepts; a fifth of them
    # are title-only baselines.
    query_lines = []
    suggestion_lines = []
    for i in range(sizes.queries):
        cluster = world.clusters.draw(rng)
        words = world.words(rng, cluster, 1 + i % 3, 0.0)
        topic_id = f"Q{seed}-{i:05d}"
        query_lines.append(json.dumps({"id": topic_id, "lang": "en", "title": " ".join(words)}))
        if i % 5 == 4:
            continue
        concepts = list(dict.fromkeys(
            world.cluster_concepts[cluster].draw(rng) for _ in range(i % 11)
        ))
        for rank, text in enumerate(concepts, 1):
            suggestion_lines.append(f"{topic_id}\t{rank}\t{text}\t{1.0 / rank:.6f}\tSTR")
    _write_lines(root / "queries.jsonl", query_lines)
    _write_lines(root / "queries.tsv", suggestion_lines)

    return {
        "docs": str(root / "docs.jsonl"),
        "topics": str(root / "topics.jsonl"),
        "articles": str(articles_dir),
        "sim_corpus": str(root / "sim"),
        "back_corpus": str(root / "back"),
        "seeds": str(root / "seeds.tsv"),
        "qrels": str(root / "qrels.txt"),
        "queries": str(root / "queries.jsonl"),
        "query_suggestions": str(root / "queries.tsv"),
        "expect_wiki": str(root / "expect_wiki.tsv"),
    }


def input_bytes(paths: dict[str, str]) -> dict[str, int]:
    """Size on disk of each generated input, files and directories."""
    out = {}
    for role, path in paths.items():
        p = Path(path)
        out[role] = sum(f.stat().st_size for f in p.iterdir()) if p.is_dir() else p.stat().st_size
    return out


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write seeded synthetic benchmark inputs.")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", required=True, help="JSON object of Sizes fields")
    args = parser.parse_args()
    print(json.dumps(generate(args.out, args.seed, Sizes(**json.loads(args.sizes)))))
