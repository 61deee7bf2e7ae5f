"""Command-line entry point.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
Progress and warnings go to standard error (`-q` keeps errors only);
machine-readable output goes to files or standard output only.
"""

from __future__ import annotations

import itertools
import logging
import math
import sys
from pathlib import Path

import click

from . import __version__
from .analysis import LANGUAGES, shared_chain
from .corpus import coverage_report, ingest_documents, read_topics, topic_stats
from .docsim import SimCorpus
from .errors import ConfigError, SparseExpandError
from .evaluation import (
    evaluate_run,
    evaluate_suggestions,
    read_judgments_file,
    read_qrels_file,
    read_run_file,
    run_text,
    write_run_file,
)
from .expand import ExpansionConfig, write_query_file, read_query_file
from .files import is_id, write_lines
from .index import Index, SNAPSHOT_FILENAME, build_index
from .pipeline import (
    combo_sets,
    docsim_sets,
    expanded_queries,
    load_config,
    read_seeds_file,
    run_pipeline,
    search_run,
    select_topics,
    str_sets,
    wiki_entity_sets,
)
from .str_recommender import SIMILARITIES, CooccurConfig
from .suggestions import (
    SYSTEMS,
    SuggestionSet,
    group_by_topic,
    read_suggestion_file,
    suggestion_lines,
    write_suggestion_file,
)
from .wiki_lead import ArticleStore

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
        click.echo("".join(line + "\n" for line in lines), nl=False)


def _run_tag(ctx, param, value: str) -> str:
    if not is_id(value):
        raise click.BadParameter("must be non-empty and contain no whitespace")
    return value


def _finite_positive(ctx, param, value: float | None) -> float | None:
    if value is not None and not (math.isfinite(value) and value > 0):
        raise click.BadParameter("must be positive and finite")
    return value


_POSITIVE = click.IntRange(min=1)
_LANG = click.Choice(sorted(LANGUAGES))


def _similarity_option(**kwargs):
    """`--similarity`, where `log` names `log_jaccard`."""

    def alias(ctx, param, value: str | None) -> str | None:
        return "log_jaccard" if value == "log" else value

    return click.option(
        "--similarity", type=click.Choice(SIMILARITIES + ("log",)), callback=alias, **kwargs
    )


def _number(value: float) -> str:
    return f"{value:g}"


def _sets_by_topic(paths) -> dict[str, list[SuggestionSet]]:
    return group_by_topic(itertools.chain.from_iterable(map(read_suggestion_file, paths)))


@click.group()
@click.version_option(version=__version__, prog_name="sparse-expand")
@click.option("-q", "--quiet", is_flag=True, help="Log errors only.")
def cli(quiet):
    """Query expansion toolkit for sparse metadata search."""
    # Set on every call: a level left by an earlier call in one process
    # would otherwise stay.
    logging.getLogger().setLevel(logging.ERROR if quiet else logging.INFO)


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
    chains = {lang: shared_chain(lang, stopword_list=custom) for lang in langs}
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
    run = search_run(index, read_query_file(query_file), top_k)
    if out_file:
        write_run_file(out_file, run, run_tag)
    else:
        click.echo(run_text(run, run_tag), nl=False)


# -- suggest ------------------------------------------------------------


@cli.group()
def suggest():
    """Generate related-concept suggestions."""


@suggest.command("str")
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--topics", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "top_k", type=_POSITIVE, default=10, show_default=True)
@_similarity_option(default="jaccard", show_default=True)
@click.option("--out", "out_file", type=click.Path(dir_okay=False))
def suggest_str_cmd(index_dir, topics, top_k, similarity, out_file):
    """Co-occurrence suggestions from the indexed corpus."""
    index = Index.load(Path(index_dir) / SNAPSHOT_FILENAME)
    cfg = CooccurConfig(similarity=similarity, top_k=top_k)
    _emit_lines(suggestion_lines(str_sets(index, read_topics(topics), cfg)), out_file)


@suggest.command("wiki-lead")
@click.option("--articles", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--topics", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "top_k", type=_POSITIVE, default=10, show_default=True)
@click.option("--min-links", type=_POSITIVE, default=3, show_default=True)
@click.option("--lang", type=_LANG, default="en", show_default=True)
@click.option("--out", "out_file", type=click.Path(dir_okay=False))
def suggest_wiki_lead_cmd(articles, topics, top_k, min_links, lang, out_file):
    """Lead-section link suggestions from a local article directory, for
    the topics of `--lang`; a topic of another language is skipped."""
    store = ArticleStore.from_dir(articles, lang=lang)
    sets = wiki_entity_sets(store, select_topics(read_topics(topics), lang), top_k, min_links)
    _emit_lines(suggestion_lines(sets), out_file)


@suggest.command("docsim")
@click.option("--corpus", "corpus_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--seeds", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "top_k", type=_POSITIVE, default=10, show_default=True)
@click.option("--n", "top_n", type=_POSITIVE, default=50, show_default=True)
@click.option("--label", type=click.Choice(["WIKI_SIM", "WIKI_BACK"]), default="WIKI_SIM", show_default=True)
@click.option("--lang", type=_LANG, default="en", show_default=True)
@click.option("--out", "out_file", type=click.Path(dir_okay=False))
def suggest_docsim_cmd(corpus_dir, seeds, top_k, top_n, label, lang, out_file):
    """Document-similarity suggestions over a text corpus directory."""
    corpus = SimCorpus.from_dir(corpus_dir, lang=lang)
    seed_titles = read_seeds_file(seeds)
    sets = docsim_sets(corpus, seed_titles, sorted(seed_titles), top_k, top_n, label)
    _emit_lines(suggestion_lines(sets), out_file)


# -- combo / expand -----------------------------------------------------


@cli.command("combo")
@click.option("--inputs", "input_files", multiple=True, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "top_k", type=_POSITIVE, default=10, show_default=True)
@click.option("--out", "out_file", required=True, type=click.Path(dir_okay=False))
def combo_cmd(input_files, top_k, out_file):
    """Merge suggestion files from several systems."""
    write_suggestion_file(out_file, combo_sets(_sets_by_topic(input_files), top_k))


@cli.command("expand")
@click.option("--topics", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--suggestions", "suggestion_files", multiple=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--boost", default=2.0, show_default=True, callback=_finite_positive)
@click.option("--k", "max_concepts", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--out", "out_file", required=True, type=click.Path(dir_okay=False))
def expand_cmd(topics, suggestion_files, boost, max_concepts, out_file):
    """Build boosted expanded queries from topics plus suggestions."""
    cfg = ExpansionConfig(title_boost=boost, max_concepts=max_concepts)
    queries = expanded_queries(read_topics(topics), _sets_by_topic(suggestion_files), cfg)
    write_query_file(out_file, queries)


# -- run (pipeline) -----------------------------------------------------


@cli.command("run")
@click.option("--config", "config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--system", "systems", multiple=True, type=click.Choice(SYSTEMS))
@click.option("--docs", type=click.Path())
@click.option("--topics", type=click.Path())
@click.option("--out", type=click.Path())
@click.option("--lang", type=_LANG)
@click.option("--articles", type=click.Path())
@click.option("--sim-corpus", type=click.Path())
@click.option("--back-corpus", type=click.Path())
@click.option("--seeds", type=click.Path())
@click.option("--qrels", type=click.Path())
@click.option("--k", type=_POSITIVE)
@click.option("--n", type=_POSITIVE)
@click.option("--boost", type=float, callback=_finite_positive)
@_similarity_option()
@click.option("--min-links", type=_POSITIVE)
@click.option("--depth", type=_POSITIVE)
def run_cmd(config_file, systems, **overrides):
    """Run the full pipeline for the requested systems."""
    cfg = load_config(config_file, **overrides)
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
    _echo_rows(report.rows(places=4), ("topic", "ap", "r_precision"), fmt)


@eval_group.command("se")
@click.option("--suggestions", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--judgments", required=True, type=click.Path(exists=True, dir_okay=False))
@_FORMAT_OPTION
def eval_se(suggestions, judgments, fmt):
    """Weak/strong precision of a suggestion file."""
    sets = read_suggestion_file(suggestions)
    report = evaluate_suggestions(sets, read_judgments_file(judgments))
    _echo_rows(report.rows(places=4), ("topic", "weak", "strong"), fmt)


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
