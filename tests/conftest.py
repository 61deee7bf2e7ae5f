"""Shared fixtures: deterministic synthetic corpora and topic sets."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sparse_expand.analysis import chain_for
from sparse_expand.corpus import Document, Topic
from sparse_expand.index import SNAPSHOT_VERSION

WORDS = (
    "film canada poster map whale ship ocean harbor castle painting museum "
    "archive photograph sculpture bridge river mountain village portrait "
    "cathedral fortress manuscript garden railway harvest carnival opera "
    "violin compass lighthouse"
).split()

SUBJECTS = (
    "poster",
    "Cinema and Theatre",
    "popular media",
    "maps",
    "paintings",
    "sculpture",
    "music",
    "architecture",
    "navigation",
    "photography",
)

# Every tests/data/index_v<N> with N below the current version: a snapshot
# written by the version N format (two documents up to version 3, the six
# of index_v9/docs.jsonl after that), as pytest params with ids "v<N>".
# Each holds only its index.bin; index_v9, the current version's, also
# keeps the documents and stopwords it was built from.
OLDER_SNAPSHOTS = [
    pytest.param(version, directory, id=f"v{version}")
    for version, directory in sorted(
        (int(directory.name.removeprefix("index_v")), directory)
        for directory in (Path(__file__).parent / "data").glob("index_v*")
    )
    if version < SNAPSHOT_VERSION
]


@pytest.fixture(scope="session")
def en_chain():
    return chain_for("en")


@pytest.fixture(scope="session")
def de_chain():
    return chain_for("de")


def random_document(rng: random.Random, doc_id: str, lang: str = "en") -> Document:
    fields: dict[str, tuple[str, ...]] = {}
    fields["dc:title"] = (" ".join(rng.sample(WORDS, rng.randint(1, 4))),)
    if rng.random() < 0.7:
        fields["dc:description"] = tuple(
            " ".join(rng.sample(WORDS, rng.randint(2, 6)))
            for _ in range(rng.randint(1, 2))
        )
    if rng.random() < 0.6:
        fields["dc:subject"] = tuple(
            rng.sample(SUBJECTS, rng.randint(1, 3))
        )
    if rng.random() < 0.4:
        fields["enrichment:concept_label"] = (rng.choice(SUBJECTS),)
    fields["europeana:country"] = ("europe",)
    return Document(doc_id=doc_id, lang=lang, fields=fields)


def random_corpus(seed: int, size: int, lang: str = "en") -> list[Document]:
    rng = random.Random(seed)
    return [random_document(rng, f"doc-{seed}-{i:04d}", lang) for i in range(size)]


def random_topic(rng: random.Random, topic_id: str, lang: str = "en") -> Topic:
    title = " ".join(rng.sample(WORDS, rng.randint(1, 3)))
    description = None
    if rng.random() < 0.5:
        description = " ".join(rng.sample(WORDS, rng.randint(3, 8)))
    return Topic(topic_id=topic_id, title=title, lang=lang, description=description)


def write_docs_file(path: Path, documents) -> Path:
    lines = [
        json.dumps(
            {"id": d.doc_id, "lang": d.lang, "fields": {k: list(v) for k, v in d.fields.items()}}
        )
        for d in documents
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_topics_file(path: Path, topics) -> Path:
    lines = []
    for t in topics:
        record = {"id": t.topic_id, "lang": t.lang, "title": t.title}
        if t.description is not None:
            record["description"] = t.description
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    """{relative posix path: bytes} of every file under `root`; {} when
    `root` is missing."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def build_pipeline_workspace(
    root: Path, seed: int = 0, n_docs: int = 120, n_topics: int = 6, lang: str = "en"
) -> dict[str, str]:
    """Create every input the pipeline needs under `root`."""
    from urllib.parse import quote

    rng = random.Random(seed)
    documents = random_corpus(seed, n_docs, lang)
    docs_file = write_docs_file(root / "docs.jsonl", documents)

    topics = []
    for i in range(n_topics):
        title = " ".join(rng.sample(WORDS, 2))
        topics.append(Topic(f"T-{i:03d}", title, lang))
    topics_file = write_topics_file(root / "topics.jsonl", topics)

    articles = root / "articles"
    articles.mkdir()
    for topic in topics:
        article_title = topic.title.title()
        links = " ".join(f"[[{w.title()}]]" for w in rng.sample(WORDS, 5))
        body = f"{links} intro text.\n== Details ==\n[[Extra Link]] body.\n"
        (articles / f"{quote(article_title, safe='')}.wiki").write_text(body, encoding="utf-8")

    corpus_titles = sorted({w.title() for w in WORDS[:15]})
    for name in ("sim", "back"):
        directory = root / name
        directory.mkdir()
        for title in corpus_titles:
            body = " ".join(rng.choice(WORDS) for _ in range(30))
            (directory / f"{quote(title, safe='')}.txt").write_text(body, encoding="utf-8")

    seeds_file = root / "seeds.tsv"
    seeds_file.write_text(
        "\n".join(f"{t.topic_id}\t{rng.choice(corpus_titles)}" for t in topics) + "\n",
        encoding="utf-8",
    )

    qrels_file = root / "qrels.txt"
    lines = []
    for topic in topics:
        judged = rng.sample(documents, 12)
        for doc in judged:
            lines.append(f"{topic.topic_id} 0 {doc.doc_id} {rng.choice([0, 1, 1, 2])}")
    qrels_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

    out_dir = root / "out"
    return {
        "docs": str(docs_file),
        "topics": str(topics_file),
        "articles": str(articles),
        "sim_corpus": str(root / "sim"),
        "back_corpus": str(root / "back"),
        "seeds": str(seeds_file),
        "qrels": str(qrels_file),
        "out": str(out_dir),
        "lang": lang,
    }
