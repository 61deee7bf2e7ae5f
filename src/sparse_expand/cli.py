"""Command-line entry point.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
Progress goes to standard error; machine-readable output goes to files
or standard output only.
"""

from __future__ import annotations

import logging
import math
import sys
from pathlib import Path

import click

from . import __version__
from .analysis import chain_for
from .corpus import coverage_report, ingest_documents, read_topics, topic_stats
from .docsim import SimCorpus, suggest_docsim
from .errors import ConfigError, EmptyQueryError, SparseExpandError
from .evaluation import (
    evaluate_run,
    evaluate_suggestions,
    read_judgments_file,
    read_qrels_file,
    read_run_file,
    run_lines,
    RunRecord,
)
from .expand import ExpansionConfig, build_query, combo_merge, write_query_file, read_query_file
from .files import write_lines
from .index import Index, SNAPSHOT_FILENAME, build_index
from .pipeline import (
    PipelineConfig,
    load_config,
    read_seeds_file,
    run_pipeline,
)
from .str_recommender import CooccurConfig, suggest_str
from .suggestions import (
    SYSTEMS,
    make_suggestion_set,
    read_suggestion_file,
    suggestion_lines,
    write_suggestion_file,
)
from .wiki_lead import ArticleStore, suggest_wiki_lead

logger = logging.getLogger(__name__)

_FORMAT_OPTION = click.option(
    "--format", "fmt", type=click.Choice(["table", "tsv"]), default="table", show_default=True
)


def _echo_rows(rows: list[tuple], headers: tuple[str, ...], fmt: str) -> None:
    if fmt == "tsv":
        for row in rows:
            click.echo("\t".join(str(v) for v in row))
        return
    table = [headers] + [tuple(str(v) for v in row) for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    for r in table:
        click.echo("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())


def _emit_lines(lines: list[str], out_file: str | None) -> None:
    """Write the lines to `out_file`, or print them when there is none."""
    if out_file:
        write_lines(out_file, lines)
    else:
        for line in lines:
            click.echo(line)


def _run_tag(ctx, param, value: str) -> str:
    if not value or any(map(str.isspace, value)):
        raise click.BadParameter("must be non-empty and contain no whitespace")
    return value


def _finite_positive(ctx, param, value: float | None) -> float | None:
    if value is not None and not (math.isfinite(value) and value > 0):
        raise click.BadParameter("must be positive and finite")
    return value


_POSITIVE = click.IntRange(min=1)


def _number(value: float) -> str:
    return f"{value:g}"


@click.group()
@click.version_option(version=__version__, prog_name="sparse-expand")
def cli():
    """Query expansion toolkit for sparse metadata search."""


# -- corpus -------------------------------------------------------------


@cli.group()
def corpus():
    """Corpus reports."""


@corpus.command("stats")
@click.option("--docs", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--lax", is_flag=True, help="Skip malformed lines instead of aborting.")
@_FORMAT_OPTION
def corpus_stats(docs, lax, fmt):
    """Per-field coverage of a document file."""
    result = ingest_documents(docs, lax=lax)
    report = coverage_report(result.documents)
    rows = [
        (name, cov.count, cov.percent) for name, cov in report.per_field.items()
    ]
    _echo_rows(rows, ("field", "count", "percent"), fmt)
    logger.info("corpus size: %d documents (%d rejected)", report.corpus_size, result.rejected)


@corpus.command("topic-stats")
@click.option("--topics", required=True, type=click.Path(exists=True, dir_okay=False))
@_FORMAT_OPTION
def corpus_topic_stats(topics, fmt):
    """Word-count statistics of a topic file."""
    stats = topic_stats(read_topics(topics))
    rows = [
        (
            name,
            f"{field.mean:.2f}",
            _number(field.median),
            field.min,
            field.max,
        )
        for name, field in (("title", stats.title), ("description", stats.description))
    ]
    _echo_rows(rows, ("field", "mean", "median", "min", "max"), fmt)


# -- index --------------------------------------------------------------


@cli.group("index")
def index_group():
    """Build and query the inverted index."""


@index_group.command("build")
@click.option("--docs", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--lax", is_flag=True)
@click.option("--stopwords", "stopword_file", type=click.Path(exists=True, dir_okay=False))
def index_build(docs, out_dir, lax, stopword_file):
    """Index a document file into a snapshot directory."""
    from .stopwords import load_stopwords

    documents = ingest_documents(docs, lax=lax).documents
    custom = load_stopwords(stopword_file) if stopword_file else None
    langs = sorted({d.lang for d in documents})
    chains = {lang: chain_for(lang, stopword_list=custom) for lang in langs}
    index = build_index(documents, chains)
    path = Path(out_dir) / SNAPSHOT_FILENAME
    index.save(path)
    logger.info("indexed %d documents into %s", index.n_docs, path)


@index_group.command("search")
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--query-file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("-k", "top_k", type=_POSITIVE, default=1000, show_default=True)
@click.option("--run-tag", default="sparse-expand", show_default=True, callback=_run_tag)
@click.option("--out", "out_file", type=click.Path(dir_okay=False))
def index_search(index_dir, query_file, top_k, run_tag, out_file):
    """Run serialized queries; writes TREC run lines."""
    index = Index.load(Path(index_dir) / SNAPSHOT_FILENAME)
    records = []
    for topic_id, query in read_query_file(query_file):
        for rank, hit in enumerate(index.search(query, top_k), 1):
            records.append(RunRecord(topic_id, hit.doc_id, rank, hit.score, run_tag))
    _emit_lines(run_lines(records), out_file)


# -- suggest ------------------------------------------------------------


@cli.group()
def suggest():
    """Generate related-concept suggestions."""


@suggest.command("str")
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--topics", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "top_k", type=_POSITIVE, default=10, show_default=True)
@click.option(
    "--similarity",
    type=click.Choice(["jaccard", "log", "log_jaccard"]),
    default="jaccard",
    show_default=True,
)
@click.option("--out", "out_file", type=click.Path(dir_okay=False))
def suggest_str_cmd(index_dir, topics, top_k, similarity, out_file):
    """Co-occurrence suggestions from the indexed corpus."""
    if similarity == "log":
        similarity = "log_jaccard"
    index = Index.load(Path(index_dir) / SNAPSHOT_FILENAME)
    cfg = CooccurConfig(similarity=similarity, top_k=top_k)
    sets = []
    for topic in read_topics(topics):
        try:
            sets.append(suggest_str(index, topic, cfg))
        except EmptyQueryError as exc:
            logger.warning("%s", exc)
            sets.append(make_suggestion_set(topic.topic_id, "STR", []))
    _emit_lines(suggestion_lines(sets), out_file)


@suggest.command("wiki-lead")
@click.option("--articles", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--topics", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "top_k", type=_POSITIVE, default=10, show_default=True)
@click.option("--min-links", type=_POSITIVE, default=3, show_default=True)
@click.option("--lang", default="en", show_default=True)
@click.option("--out", "out_file", type=click.Path(dir_okay=False))
def suggest_wiki_lead_cmd(articles, topics, top_k, min_links, lang, out_file):
    """Lead-section link suggestions from a local article directory."""
    store = ArticleStore.from_dir(articles, lang=lang)
    sets = [
        suggest_wiki_lead(store, topic, k=top_k, min_links=min_links)
        for topic in read_topics(topics)
    ]
    _emit_lines(suggestion_lines(sets), out_file)


@suggest.command("docsim")
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--seeds", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "top_k", type=_POSITIVE, default=10, show_default=True)
@click.option("--n", "top_n", type=_POSITIVE, default=50, show_default=True)
@click.option("--label", type=click.Choice(["WIKI_SIM", "WIKI_BACK"]), default="WIKI_SIM", show_default=True)
@click.option("--lang", default="en", show_default=True)
@click.option("--out", "out_file", type=click.Path(dir_okay=False))
def suggest_docsim_cmd(corpus_dir, seeds, top_k, top_n, label, lang, out_file):
    """Document-similarity suggestions over a text corpus directory."""
    corpus = SimCorpus.from_dir(corpus_dir, lang=lang)
    sets = [
        suggest_docsim(corpus, seed, k=top_k, n=top_n, source=label, topic_id=topic_id)
        for topic_id, seed in sorted(read_seeds_file(seeds).items())
    ]
    _emit_lines(suggestion_lines(sets), out_file)


# -- combo / expand -----------------------------------------------------


@cli.command("combo")
@click.option("--inputs", "input_files", multiple=True, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "top_k", type=_POSITIVE, default=10, show_default=True)
@click.option("--out", "out_file", required=True, type=click.Path(dir_okay=False))
def combo_cmd(input_files, top_k, out_file):
    """Merge suggestion files from several systems."""
    by_topic: dict[str, list] = {}
    for path in input_files:
        for sset in read_suggestion_file(path):
            by_topic.setdefault(sset.topic_id, []).append(sset)
    merged = [combo_merge(sets, max_concepts=top_k) for _, sets in sorted(by_topic.items())]
    write_suggestion_file(out_file, merged)


@cli.command("expand")
@click.option("--topics", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--suggestions", "suggestion_files", multiple=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--boost", default=2.0, show_default=True, callback=_finite_positive)
@click.option("--k", "max_concepts", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--out", "out_file", required=True, type=click.Path(dir_okay=False))
def expand_cmd(topics, suggestion_files, boost, max_concepts, out_file):
    """Build boosted expanded queries from topics plus suggestions."""
    by_topic: dict[str, list] = {}
    for path in suggestion_files:
        for sset in read_suggestion_file(path):
            by_topic.setdefault(sset.topic_id, []).append(sset)
    cfg = ExpansionConfig(title_boost=boost, max_concepts=max_concepts)
    queries = []
    for topic in read_topics(topics):
        sets = by_topic.get(topic.topic_id, [])
        merged = None
        if len(sets) == 1:
            merged = sets[0]
        elif len(sets) > 1:
            merged = combo_merge(sets, max_concepts=max_concepts)
        try:
            queries.append((topic.topic_id, build_query(topic, merged, cfg)))
        except EmptyQueryError as exc:
            logger.warning("%s; topic skipped", exc)
    write_query_file(out_file, queries)


# -- run (pipeline) -----------------------------------------------------


@cli.command("run")
@click.option("--config", "config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--system", "systems", multiple=True, type=click.Choice(SYSTEMS))
@click.option("--docs", type=click.Path())
@click.option("--topics", type=click.Path())
@click.option("--out", type=click.Path())
@click.option("--lang", type=click.Choice(["en", "de"]))
@click.option("--articles", type=click.Path())
@click.option("--sim-corpus", type=click.Path())
@click.option("--back-corpus", type=click.Path())
@click.option("--seeds", type=click.Path())
@click.option("--qrels", type=click.Path())
@click.option("--k", type=_POSITIVE)
@click.option("--n", type=_POSITIVE)
@click.option("--boost", type=float, callback=_finite_positive)
@click.option("--similarity", type=click.Choice(["jaccard", "log", "log_jaccard"]))
@click.option("--min-links", type=_POSITIVE)
@click.option("--depth", type=_POSITIVE)
def run_cmd(config_file, systems, **overrides):
    """Run the full pipeline for the requested systems."""
    if overrides.get("similarity") == "log":
        overrides["similarity"] = "log_jaccard"
    if config_file:
        cfg = load_config(config_file, **overrides)
    else:
        cfg = PipelineConfig(**{k: v for k, v in overrides.items() if v is not None})
    if not systems:
        systems = ("STR",)
    written = run_pipeline(cfg, systems)
    for system, files in written.items():
        for path in files:
            logger.info("wrote %s (%s)", path, system)


# -- eval ---------------------------------------------------------------


@cli.group("eval")
def eval_group():
    """Score runs and suggestion sets."""


@eval_group.command("adhoc")
@click.option("--run", "run_file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--qrels", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--depth", type=_POSITIVE, default=1000, show_default=True)
@_FORMAT_OPTION
def eval_adhoc(run_file, qrels, depth, fmt):
    """MAP and R-Precision of a TREC run."""
    report = evaluate_run(read_run_file(run_file), read_qrels_file(qrels), depth=depth)
    rows = [
        (topic_id, f"{report.per_topic[topic_id]['ap']:.4f}", f"{report.per_topic[topic_id]['r_precision']:.4f}")
        for topic_id in report.topic_ids
    ]
    rows.append(("mean", f"{report.means['ap']:.4f}", f"{report.means['r_precision']:.4f}"))
    _echo_rows(rows, ("topic", "ap", "r_precision"), fmt)


@eval_group.command("se")
@click.option("--suggestions", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--judgments", required=True, type=click.Path(exists=True, dir_okay=False))
@_FORMAT_OPTION
def eval_se(suggestions, judgments, fmt):
    """Weak/strong precision of a suggestion file."""
    sets = read_suggestion_file(suggestions)
    report = evaluate_suggestions(sets, read_judgments_file(judgments))
    rows = [
        (topic_id, f"{report.per_topic[topic_id]['weak']:.4f}", f"{report.per_topic[topic_id]['strong']:.4f}")
        for topic_id in report.topic_ids
    ]
    rows.append(("mean", f"{report.means['weak']:.4f}", f"{report.means['strong']:.4f}"))
    _echo_rows(rows, ("topic", "weak", "strong"), fmt)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except ConfigError as exc:
        for problem in exc.problems:
            click.echo(f"error: {problem}", err=True)
        return 1
    except SparseExpandError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
