"""End-to-end pipeline: index, suggest, expand, search, evaluate.

Outputs land in `out/<lang>/<system>/{run.trec, suggestions.tsv}` plus
`metrics.tsv` when qrels are given, with a `manifest.json` at the output
root recording the config hash and tool version. Identical inputs
produce byte-identical outputs.

Topics run one after another in a plain loop: the work is CPU-bound
Python, which threads only slow down. Systems run sequentially because
the concept merge consumes the other systems' suggestion files.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from . import __version__
from .analysis import chain_for
from .corpus import Topic, ingest_documents, read_topics
from .docsim import SimCorpus, suggest_docsim
from .errors import ConfigError, DataError, EmptyQueryError
from .evaluation import (
    RunRecord,
    evaluate_run,
    read_qrels_file,
    read_run_file,
    write_run_file,
)
from .expand import ExpansionConfig, build_query, combo_merge
from .files import read_lines, write_lines
from .index import Index, build_index
from .str_recommender import CooccurConfig, suggest_str
from .suggestions import (
    GENERATOR_SYSTEMS,
    SYSTEMS,
    SuggestionSet,
    make_suggestion_set,
    read_suggestion_file,
    write_suggestion_file,
)
from .wiki_lead import ArticleStore, suggest_wiki_lead

logger = logging.getLogger(__name__)

CONFIG_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    docs: str = ""
    topics: str = ""
    out: str = ""
    lang: str = "en"
    articles: str = ""
    sim_corpus: str = ""
    back_corpus: str = ""
    seeds: str = ""
    qrels: str = ""
    k: int = 10
    n: int = 50
    boost: float = 2.0
    similarity: str = "jaccard"
    min_links: int = 3
    depth: int = 1000


def load_config(path: str | Path, **overrides) -> PipelineConfig:
    """Read a versioned JSON config; explicit keyword overrides win."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: config must be a JSON object")
    version = raw.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise DataError(f"{path}: unsupported config version {version}")
    known = set(PipelineConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise DataError(f"{path}: unknown config keys: {sorted(unknown)}")
    merged = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return PipelineConfig(**merged)


def config_validate(cfg: PipelineConfig, systems: Sequence[str]) -> list[str]:
    """Collect every configuration problem; empty list means valid."""
    problems: list[str] = []

    def need_path(name: str, value: str, reason: str) -> None:
        if not value:
            problems.append(f"missing {name} ({reason})")
        elif not Path(value).exists():
            problems.append(f"{name} path does not exist: {value}")

    for system in systems:
        if system not in SYSTEMS:
            problems.append(f"unknown system {system!r}")
    need_path("docs", cfg.docs, "document corpus")
    need_path("topics", cfg.topics, "topic file")
    if not cfg.out:
        problems.append("missing out (output directory)")
    if cfg.lang not in ("en", "de"):
        problems.append(f"lang must be 'en' or 'de', got {cfg.lang!r}")
    if cfg.boost <= 0:
        problems.append("boost must be positive")
    if cfg.k < 1:
        problems.append("k must be >= 1")
    if cfg.n < 1:
        problems.append("n must be >= 1")
    if cfg.depth < 1:
        problems.append("depth must be >= 1")
    if cfg.similarity not in ("jaccard", "log_jaccard"):
        problems.append(f"similarity must be 'jaccard' or 'log_jaccard', got {cfg.similarity!r}")
    if "WIKI_ENTITY" in systems:
        need_path("articles", cfg.articles, "needed by WIKI_ENTITY")
    if "WIKI_SIM" in systems:
        need_path("sim_corpus", cfg.sim_corpus, "needed by WIKI_SIM")
        need_path("seeds", cfg.seeds, "needed by WIKI_SIM")
    if "WIKI_BACK" in systems:
        need_path("back_corpus", cfg.back_corpus, "needed by WIKI_BACK")
        need_path("seeds", cfg.seeds, "needed by WIKI_BACK")
    if cfg.qrels:
        need_path("qrels", cfg.qrels, "relevance judgments")
    return problems


def read_seeds_file(path: str | Path) -> dict[str, str]:
    """topic_id -> seed document title, one tab-separated pair per line."""
    seeds: dict[str, str] = {}
    for lineno, line in read_lines(path):
        topic_id, sep, title = line.partition("\t")
        if not sep or not topic_id.strip() or not title.strip():
            raise DataError(f"{path}:{lineno}: expected 'topic_id<TAB>seed title'")
        seeds[topic_id.strip()] = title.strip()
    return seeds


def _suggest_system(
    system: str,
    cfg: PipelineConfig,
    index: Index,
    topics: Sequence[Topic],
) -> dict[str, SuggestionSet]:
    if system == "STR":
        str_cfg = CooccurConfig(similarity=cfg.similarity, top_k=cfg.k)

        def job(topic: Topic) -> SuggestionSet:
            try:
                return suggest_str(index, topic, str_cfg)
            except EmptyQueryError as exc:
                logger.warning("%s", exc)
                return make_suggestion_set(topic.topic_id, "STR", [])

        return {topic.topic_id: job(topic) for topic in topics}

    if system == "WIKI_ENTITY":
        store = ArticleStore.from_dir(cfg.articles, lang=cfg.lang)
        return {
            t.topic_id: suggest_wiki_lead(store, t, k=cfg.k, min_links=cfg.min_links)
            for t in topics
        }

    if system in ("WIKI_SIM", "WIKI_BACK"):
        directory = cfg.sim_corpus if system == "WIKI_SIM" else cfg.back_corpus
        corpus = SimCorpus.from_dir(directory, lang=cfg.lang)
        seeds = read_seeds_file(cfg.seeds)

        def job(topic: Topic) -> SuggestionSet:
            seed = seeds.get(topic.topic_id)
            if seed is None:
                logger.warning("no seed for topic %s; empty %s suggestions", topic.topic_id, system)
                return make_suggestion_set(topic.topic_id, system, [])
            return suggest_docsim(corpus, seed, k=cfg.k, n=cfg.n, source=system, topic_id=topic.topic_id)

        return {topic.topic_id: job(topic) for topic in topics}

    raise ValueError(f"not a generator system: {system}")


def run_pipeline(cfg: PipelineConfig, systems: Sequence[str]) -> dict[str, list[str]]:
    """Produce run, suggestion and metric files for the requested systems.

    Returns the written file paths per system. Raises ConfigError before
    any work if the configuration is incomplete.
    """
    systems = list(dict.fromkeys(systems))
    problems = config_validate(cfg, systems)
    if problems:
        raise ConfigError(problems)

    out_root = Path(cfg.out)
    lang_dir = out_root / cfg.lang

    documents = ingest_documents(cfg.docs).documents
    topics = [t for t in read_topics(cfg.topics) if t.lang == cfg.lang]
    if not topics:
        raise DataError(f"no topics with lang {cfg.lang!r} in {cfg.topics}")
    chains = {cfg.lang: chain_for(cfg.lang)}
    index = build_index([d for d in documents if d.lang == cfg.lang], chains)
    if not index.has_field(f"{index.all_field}-{cfg.lang}"):
        raise DataError(f"corpus has no indexed {cfg.lang!r} content")

    qrels = read_qrels_file(cfg.qrels) if cfg.qrels else None
    written: dict[str, list[str]] = {}
    produced: dict[str, dict[str, SuggestionSet]] = {}

    ordered = [s for s in SYSTEMS if s in systems]  # COMBO runs last
    for system in ordered:
        logger.info("running system %s (%s)", system, cfg.lang)
        system_dir = lang_dir / system
        if system == "COMBO":
            per_topic = _combo_inputs(cfg, lang_dir, topics, produced)
        else:
            per_topic = _suggest_system(system, cfg, index, topics)
        produced[system] = per_topic

        suggestions_path = system_dir / "suggestions.tsv"
        sets = [per_topic[t.topic_id] for t in sorted(topics, key=lambda t: t.topic_id)]
        write_suggestion_file(suggestions_path, sets)
        files = [str(suggestions_path)]

        records: list[RunRecord] = []
        for topic in sorted(topics, key=lambda t: t.topic_id):
            try:
                query = build_query(
                    topic,
                    per_topic[topic.topic_id],
                    ExpansionConfig(title_boost=cfg.boost, max_concepts=cfg.k),
                    chain=chains[cfg.lang],
                )
            except EmptyQueryError as exc:
                logger.warning("%s; topic contributes no results", exc)
                continue
            for rank, hit in enumerate(index.search(query, cfg.depth), 1):
                records.append(RunRecord(topic.topic_id, hit.doc_id, rank, hit.score, system))
        run_path = system_dir / "run.trec"
        write_run_file(run_path, records)
        files.append(str(run_path))

        if qrels is not None:
            report = evaluate_run(read_run_file(run_path), qrels, depth=cfg.depth)
            metrics_path = system_dir / "metrics.tsv"
            _write_metrics(metrics_path, report)
            files.append(str(metrics_path))
        written[system] = files

    manifest_path = out_root / "manifest.json"
    _write_manifest(manifest_path, cfg, ordered)
    written["manifest"] = [str(manifest_path)]
    return written


def _combo_inputs(
    cfg: PipelineConfig,
    lang_dir: Path,
    topics: Sequence[Topic],
    produced: dict[str, dict[str, SuggestionSet]],
) -> dict[str, SuggestionSet]:
    """Merge the generator systems' suggestions, from this run or disk."""
    available: dict[str, dict[str, SuggestionSet]] = {}
    for system in GENERATOR_SYSTEMS:
        if system in produced:
            available[system] = produced[system]
        else:
            path = lang_dir / system / "suggestions.tsv"
            if path.exists():
                available[system] = {
                    s.topic_id: s for s in read_suggestion_file(path)
                }
    if not available:
        raise DataError(
            "COMBO needs at least one generator system's suggestions; "
            f"none requested and none found under {lang_dir}"
        )
    merged: dict[str, SuggestionSet] = {}
    for topic in topics:
        inputs = [
            available[system][topic.topic_id]
            for system in GENERATOR_SYSTEMS
            if system in available and topic.topic_id in available[system]
        ]
        if inputs:
            merged[topic.topic_id] = combo_merge(inputs, max_concepts=cfg.k)
        else:
            merged[topic.topic_id] = make_suggestion_set(topic.topic_id, "COMBO", [])
    return merged


def _write_metrics(path: Path, report) -> None:
    lines = ["topic\tap\tr_precision"]
    for topic_id in report.topic_ids:
        values = report.per_topic[topic_id]
        lines.append(f"{topic_id}\t{values['ap']:.6f}\t{values['r_precision']:.6f}")
    lines.append(f"mean\t{report.means['ap']:.6f}\t{report.means['r_precision']:.6f}")
    write_lines(path, lines)


def _write_manifest(path: Path, cfg: PipelineConfig, systems: Sequence[str]) -> None:
    config_json = json.dumps(asdict(cfg), sort_keys=True)
    manifest = {
        "config_hash": hashlib.sha256(config_json.encode("utf-8")).hexdigest(),
        "language": cfg.lang,
        "systems": list(systems),
        "tool_version": __version__,
    }
    write_lines(path, [json.dumps(manifest, indent=2, sort_keys=True)])
