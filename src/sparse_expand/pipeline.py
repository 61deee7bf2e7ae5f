"""End-to-end pipeline: index, suggest, expand, search, evaluate.

Outputs land in `out/<lang>/<system>/{run.trec, suggestions.tsv}` plus
`metrics.tsv` when qrels are given, with a `manifest.json` at the output
root recording the config hash and tool version. Identical inputs
produce byte-identical outputs.

Each step from topics to a run has one function here, which the CLI
subcommands call too: `select_topics`, `str_sets`, `wiki_entity_sets`,
`docsim_sets`, `combo_sets`, `expanded_queries` and `search_run`. So the
subcommand chain writes the bytes `run` writes. `run` scores each run
from the ranked hits it holds, without reading its run file back.

Topics run one after another in a plain loop: the work is CPU-bound
Python, which threads only slow down. `run` works in two phases: it
reads every input and makes every requested system's suggestion sets
(COMBO last, since it merges the others), then expands, searches, scores
and writes one system after another. So a malformed input stops it
before it writes any file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .analysis import LANGUAGES, query_tokens, shared_chain
from .corpus import Topic, ingest_documents, read_topics
from .docsim import SimCorpus, suggest_docsim
from .errors import ConfigError, DataError, EmptyQueryError
from .evaluation import MetricReport, evaluate_run, read_qrels_file, write_run_file
from .expand import ExpansionConfig, build_query, combo_merge
from .files import json_object, read_keyed_lines, read_text, write_lines
from .index import ALL_FIELD, Hits, Index, Query, build_index
from .str_recommender import SIMILARITIES, CooccurConfig, suggest_str
from .suggestions import (
    GENERATOR_SYSTEMS,
    SYSTEMS,
    SuggestionSet,
    group_by_topic,
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


# The config paths each system reads beyond docs and topics, in the order
# config_validate names them; a docsim system's corpus comes first.
_SYSTEM_INPUTS = {
    "WIKI_ENTITY": ("articles",),
    "WIKI_SIM": ("sim_corpus", "seeds"),
    "WIKI_BACK": ("back_corpus", "seeds"),
}

# The JSON values each annotated field type takes; a bool is not a number.
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
}


def load_config(path: str | Path | None, **overrides) -> PipelineConfig:
    """Read a versioned JSON config, or none when `path` is None; explicit
    keyword overrides win, except those that are None."""
    raw = {}
    if path is not None:
        try:
            raw = json_object(read_text(path))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        version = raw.pop("version", CONFIG_VERSION)
        if type(version) is not int or version != CONFIG_VERSION:
            raise DataError(f"{path}: unsupported config version {version}")
    unknown = set(raw) - set(PipelineConfig.__dataclass_fields__)
    if unknown:
        raise DataError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        types, name = _JSON_TYPES[PipelineConfig.__dataclass_fields__[key].type]
        if isinstance(value, bool) or not isinstance(value, types):
            raise DataError(f"{path}: config key {key!r} must be {name}, got {value!r}")
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
    if cfg.lang not in LANGUAGES:
        problems.append(f"lang must be one of {sorted(LANGUAGES)}, got {cfg.lang!r}")
    try:
        finite = math.isfinite(cfg.boost)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        problems.append("boost must be finite")
    elif cfg.boost <= 0:
        problems.append("boost must be positive")
    if cfg.k < 1:
        problems.append("k must be >= 1")
    if cfg.n < 1:
        problems.append("n must be >= 1")
    if cfg.depth < 1:
        problems.append("depth must be >= 1")
    if cfg.min_links < 1:
        problems.append("min_links must be >= 1")
    if cfg.similarity not in SIMILARITIES:
        problems.append(f"similarity must be one of {list(SIMILARITIES)}, got {cfg.similarity!r}")
    for system, names in _SYSTEM_INPUTS.items():
        if system in systems:
            for name in names:
                need_path(name, getattr(cfg, name), f"needed by {system}")
    if cfg.qrels:
        need_path("qrels", cfg.qrels, "relevance judgments")
    return problems


def _seed_title(text: str) -> str:
    if not text.strip():
        raise DataError("empty seed title")
    return text.strip()


def read_seeds_file(path: str | Path) -> dict[str, str]:
    """topic_id -> seed document title, per `topic_id<TAB>seed title` line."""
    return read_keyed_lines(path, _seed_title)


# -- the steps from topics to a run, shared with the CLI subcommands ------


def select_topics(topics: Iterable[Topic], lang: str) -> list[Topic]:
    """The topics of language `lang`, in topic-id order. Each other topic
    is skipped with one warning, in input order."""
    kept = []
    for topic in topics:
        if topic.lang == lang:
            kept.append(topic)
        else:
            logger.warning(
                "topic %r: language %r is not --lang %r; topic skipped", topic.topic_id, topic.lang, lang
            )
    return sorted(kept, key=lambda t: t.topic_id)


def str_sets(index: Index, topics: Iterable[Topic], cfg: CooccurConfig) -> list[SuggestionSet]:
    """STR suggestions per topic; a title with no query tokens gets an empty set."""
    sets = []
    for topic in topics:
        try:
            sets.append(suggest_str(index, topic, cfg))
        except EmptyQueryError as exc:
            logger.warning("%s", exc)
            sets.append(SuggestionSet(topic.topic_id, "STR"))
    return sets


def wiki_entity_sets(
    store: ArticleStore, topics: Iterable[Topic], k: int, min_links: int
) -> list[SuggestionSet]:
    """WIKI_ENTITY suggestions per topic."""
    return [suggest_wiki_lead(store, topic, k=k, min_links=min_links) for topic in topics]


def docsim_sets(
    corpus: SimCorpus,
    seeds: Mapping[str, str],
    topic_ids: Iterable[str],
    k: int,
    n: int,
    system: str,
) -> list[SuggestionSet]:
    """WIKI_SIM or WIKI_BACK suggestions per topic id, from the topic's
    seed document; a topic with no seed gets an empty set (`run` warns of
    it once, for every docsim system)."""
    return [
        SuggestionSet(topic_id, system)
        if topic_id not in seeds
        else suggest_docsim(corpus, seeds[topic_id], k=k, n=n, source=system, topic_id=topic_id)
        for topic_id in topic_ids
    ]


def combo_sets(by_topic: Mapping[str, Sequence[SuggestionSet]], k: int) -> list[SuggestionSet]:
    """Each topic's sets merged into one COMBO set, in topic order."""
    return [combo_merge(sets, max_concepts=k) for _, sets in sorted(by_topic.items())]


def expanded_queries(
    topics: Iterable[Topic],
    by_topic: Mapping[str, Sequence[SuggestionSet]],
    cfg: ExpansionConfig,
) -> list[tuple[str, Query]]:
    """(topic id, query) per topic. A topic's suggestion sets are merged
    when it has several; a topic whose language has no analyzer profile,
    or whose title has no query tokens, is skipped."""
    queries = []
    for topic in topics:
        sets = by_topic.get(topic.topic_id, ())
        merged = None
        if len(sets) == 1:
            merged = sets[0]
        elif sets:
            merged = combo_merge(sets, max_concepts=cfg.max_concepts)
        try:
            queries.append((topic.topic_id, build_query(topic, merged, cfg)))
        except EmptyQueryError as exc:
            logger.warning("%s; topic skipped", exc)
    return queries


def search_run(
    index: Index, queries: Iterable[tuple[str, Query]], depth: int
) -> dict[str, Hits]:
    """Each query's top `depth` hits, by topic id in query order: a run."""
    return {topic_id: index.search(query, depth) for topic_id, query in queries}


# -- run ------------------------------------------------------------------


def run_pipeline(cfg: PipelineConfig, systems: Sequence[str]) -> dict[str, list[str]]:
    """Produce run, suggestion and metric files for the requested systems.

    Returns the written file paths per system. Raises ConfigError before
    any work if the configuration is incomplete. Phase 1 reads every
    input, the seeds file once and COMBO's on-disk generator files
    included, and makes every system's suggestion sets. Phase 2 expands,
    searches and scores one system at a time, then writes its files; the
    manifest comes last. So an input error rises before the first write.
    """
    systems = list(dict.fromkeys(systems))
    problems = config_validate(cfg, systems)
    if problems:
        raise ConfigError(problems)

    out_root = Path(cfg.out)
    lang_dir = out_root / cfg.lang

    documents = ingest_documents(cfg.docs).documents
    topics = select_topics(read_topics(cfg.topics), cfg.lang)
    if not topics:
        raise DataError(f"no topics with lang {cfg.lang!r} in {cfg.topics}")
    index = build_index([d for d in documents if d.lang == cfg.lang], {cfg.lang: shared_chain(cfg.lang)})
    del documents  # the index holds all the run reads of them
    if not index.has_field(f"{ALL_FIELD}-{cfg.lang}"):
        raise DataError(f"corpus has no indexed {cfg.lang!r} content")

    qrels = read_qrels_file(cfg.qrels) if cfg.qrels else None
    ordered = [s for s in SYSTEMS if s in systems]  # COMBO comes last
    docsim = [s for s in ordered if "seeds" in _SYSTEM_INPUTS.get(s, ())]
    seeds = read_seeds_file(cfg.seeds) if docsim else {}
    chain = shared_chain(cfg.lang)
    worded = []  # the topics whose title has query words: only these are searched
    for topic in topics:
        if docsim and topic.topic_id not in seeds:
            logger.warning("no seed for topic %s; empty %s suggestions", topic.topic_id, " and ".join(docsim))
        if query_tokens(chain, topic.title):
            worded.append(topic)
        else:
            logger.warning("empty title: topic %r; no query for %s", topic.topic_id, ", ".join(ordered))
    produced: dict[str, list[SuggestionSet]] = {}
    for system in ordered:
        logger.info("running system %s (%s)", system, cfg.lang)
        produced[system] = _system_sets(system, cfg, index, topics, worded, seeds, lang_dir, produced)

    written: dict[str, list[str]] = {}
    for system in ordered:  # each system's sets are dropped once written
        written[system] = _score_and_write(system, produced.pop(system), cfg, index, worded, qrels, lang_dir)

    manifest_path = out_root / "manifest.json"
    _write_manifest(manifest_path, cfg, ordered)
    written["manifest"] = [str(manifest_path)]
    return written


def _system_sets(
    system: str,
    cfg: PipelineConfig,
    index: Index,
    topics: Sequence[Topic],
    worded: Sequence[Topic],
    seeds: Mapping[str, str],
    lang_dir: Path,
    produced: Mapping[str, list[SuggestionSet]],
) -> list[SuggestionSet]:
    """One system's suggestion sets for the topics, in topic order. STR
    makes none for a topic whose title has no query words, the topics
    not in `worded`: `run` has warned of each, and an empty set adds no
    line to a file and no concept to COMBO."""
    if system == "STR":
        return str_sets(index, worded, CooccurConfig(similarity=cfg.similarity, top_k=cfg.k))
    if system == "WIKI_ENTITY":
        store = ArticleStore.from_dir(cfg.articles, lang=cfg.lang)
        return wiki_entity_sets(store, topics, cfg.k, cfg.min_links)
    if system == "COMBO":
        return combo_sets(_combo_inputs(lang_dir, topics, produced), cfg.k)
    corpus = SimCorpus.from_dir(getattr(cfg, _SYSTEM_INPUTS[system][0]), lang=cfg.lang)
    topic_ids = [t.topic_id for t in topics]
    return docsim_sets(corpus, seeds, topic_ids, cfg.k, cfg.n, system)


def _score_and_write(
    system: str,
    sets: list[SuggestionSet],
    cfg: PipelineConfig,
    index: Index,
    topics: Sequence[Topic],
    qrels: Mapping[str, Mapping[str, int]] | None,
    lang_dir: Path,
) -> list[str]:
    """Expand, search and score one system's sets for `topics`, each of
    whose titles has query words, then write its suggestion, run and
    (given qrels) metric files; returns their paths. The run dies on
    return, before the next system's search."""
    expansion = ExpansionConfig(title_boost=cfg.boost, max_concepts=cfg.k)
    run = search_run(index, expanded_queries(topics, group_by_topic(sets), expansion), cfg.depth)
    report = evaluate_run(run, qrels, depth=cfg.depth) if qrels is not None else None
    system_dir = lang_dir / system
    paths = [system_dir / "suggestions.tsv", system_dir / "run.trec"]
    write_suggestion_file(paths[0], sets)
    write_run_file(paths[1], run, system)
    if report is not None:
        paths.append(system_dir / "metrics.tsv")
        _write_metrics(paths[2], report)
    return [str(path) for path in paths]


def _combo_inputs(
    lang_dir: Path, topics: Sequence[Topic], produced: Mapping[str, list[SuggestionSet]]
) -> dict[str, list[SuggestionSet]]:
    """The generator systems' sets of the topics, from this run or from
    disk, grouped by topic."""
    paths = {system: lang_dir / system / "suggestions.tsv" for system in GENERATOR_SYSTEMS}
    found = [s for s in GENERATOR_SYSTEMS if s in produced or paths[s].exists()]
    if not found:
        raise DataError(
            "COMBO needs at least one generator system's suggestions; "
            f"none requested and none found under {lang_dir}"
        )
    ids = {t.topic_id for t in topics}
    sets = itertools.chain.from_iterable(
        produced[s] if s in produced else read_suggestion_file(paths[s]) for s in found
    )
    return group_by_topic(s for s in sets if s.topic_id in ids)


def _write_metrics(path: Path, report: MetricReport) -> None:
    write_lines(path, ["topic\tap\tr_precision", *map("\t".join, report.rows(places=6))])


def _write_manifest(path: Path, cfg: PipelineConfig, systems: Sequence[str]) -> None:
    config_json = json.dumps(asdict(cfg), sort_keys=True)
    manifest = {
        "config_hash": hashlib.sha256(config_json.encode("utf-8")).hexdigest(),
        "language": cfg.lang,
        "systems": list(systems),
        "tool_version": __version__,
    }
    write_lines(path, [json.dumps(manifest, indent=2, sort_keys=True)])
