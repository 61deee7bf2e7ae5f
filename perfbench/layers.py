"""Per-layer metrics of a traced run.

Times come from the tracer's spans and leaf counters. Counts and shares
marked outside-in are recomputed afterwards through the package's public
accessors, with the tracer removed, so they cost the traced run nothing.
Layers are named after modules; `trace.*` accounts for the traced wall
time: the layers' self times plus the benchmark's own unattributed time,
minus the overlap of pipeline worker threads, add up to `trace.wall_s`.

Which end-to-end metric each layer metric should move, and where. An
operation (`ops_per_s`, `op_p50_ms`, `op_tail_ms`) is one search on the
search workload and one topic's suggestion sets on the suggest workload.
The traced run makes one pass of all three phases on either workload;
the pipeline phase runs only there, so `pipeline.*`, `suggestions.*` and
`evaluation.*` move no end-to-end metric.

    corpus.ingest_s, corpus.docs             setup_s
    analysis.*, porter.*                     setup_s; op_* on suggest (topic titles);
                                             hardly op_* on search (queries hold a
                                             few dozen tokens)
    index.build_s/postings/terms/save_s      setup_s, peak_rss_mb
    index.load_s                             snapshot_load_s
    index.snapshot_bytes_per_input_byte      snapshot_bytes
    index.search_self_s, postings_scanned_per_query, phrase_clause_share, hits_per_query
                                             op_* on search; not on suggest
    index.doc_set_calls                      op_* on suggest (STR)
    str.*                                    op_* on suggest; not on search
    wiki_lead.store_build_s                  setup_s
    wiki_lead.match_s/searches_per_match/stage_share.*/extract_s/full_article_share
                                             op_* on suggest
    docsim.corpus_build_s                    setup_s
    docsim.suggest_self_s/pairs_per_seed/nonzero_share
                                             op_* on suggest, op_tail_ms most
    expand.build_query_s/parse_s             setup_s
    expand.clauses_per_query                 op_* on search
    expand.combo_merge_s                     op_* on suggest
    suggestions.*, evaluation.*, pipeline.*  none (traced run only)
    trace.overhead_share                     traced / untraced wall time of the same work, minus 1
"""

from __future__ import annotations

import random
import statistics
import threading
from pathlib import Path

from sparse_expand import analysis, errors, str_recommender, wiki_lead

import checks
from tracer import END, NAME, PARENT, START, THREAD, Tracer, layer_of

SYSTEM_ORDER = ("WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR", "COMBO")
STAGES = ("original", "stopword_free", "permutation", "single_word", "none")
LAYERS = ("corpus", "analysis", "porter", "index", "str", "wiki_lead", "docsim",
          "expand", "suggestions", "evaluation", "pipeline")

# name, unit, better
PER_LAYER = (
    ("corpus.ingest_s", "s", "lower"),
    ("corpus.docs", "count", "higher"),
    ("analysis.run_calls", "count", "lower"),
    ("analysis.run_self_s", "s", "lower"),
    ("analysis.tokens", "count", "lower"),
    ("analysis.distinct_token_share", "ratio", "lower"),
    ("porter.stem_calls", "count", "lower"),
    ("porter.stem_s", "s", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.postings", "count", "lower"),
    ("index.terms", "count", "lower"),
    ("index.save_s", "s", "lower"),
    ("index.load_s", "s", "lower"),
    ("index.snapshot_bytes_per_input_byte", "ratio", "lower"),
    ("index.search_self_s", "s", "lower"),
    ("index.postings_scanned_per_query", "count", "lower"),
    ("index.phrase_clause_share", "ratio", "lower"),
    ("index.hits_per_query", "count", "lower"),
    ("index.doc_set_calls", "count", "lower"),
    ("str.suggest_self_s", "s", "lower"),
    ("str.candidates_per_topic", "count", "lower"),
    ("str.cooccurring_per_topic", "count", "lower"),
    ("str.useful_share", "ratio", "higher"),
    ("str.union_fallback_share", "ratio", "lower"),
    ("wiki_lead.store_build_s", "s", "lower"),
    ("wiki_lead.match_s", "s", "lower"),
    ("wiki_lead.searches_per_match", "count", "lower"),
    *((f"wiki_lead.stage_share.{stage}", "ratio", "higher" if stage == "original" else "lower")
      for stage in STAGES),
    ("wiki_lead.extract_s", "s", "lower"),
    ("wiki_lead.full_article_share", "ratio", "lower"),
    ("docsim.corpus_build_s", "s", "lower"),
    ("docsim.suggest_self_s", "s", "lower"),
    ("docsim.pairs_per_seed", "count", "lower"),
    ("docsim.nonzero_share", "ratio", "higher"),
    ("expand.build_query_s", "s", "lower"),
    ("expand.clauses_per_query", "count", "lower"),
    ("expand.combo_merge_s", "s", "lower"),
    ("expand.parse_s", "s", "lower"),
    ("suggestions.write_s", "s", "lower"),
    ("suggestions.read_s", "s", "lower"),
    ("evaluation.evaluate_s", "s", "lower"),
    ("evaluation.run_records", "count", "lower"),
    ("evaluation.run_io_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    *((f"pipeline.system_s.{system}", "s", "lower") for system in SYSTEM_ORDER),
    ("pipeline.workers", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.parallel_overlap_s", "s", "lower"),
    *((f"trace.self_s.{layer}", "s", "lower") for layer in LAYERS),
)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def compute(tracer: Tracer, bench, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    leaves = tracer.leaves()
    self_s = tracer.self_times()
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def total(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(self_s[id(s)] for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def leaf(name: str) -> list:
        return leaves.get(name, [0, 0.0, 0.0, 0])

    m: dict[str, float] = {}
    m["corpus.ingest_s"] = total("corpus.ingest_documents")
    m["corpus.docs"] = len(bench.documents)

    run = leaf("analysis.AnalyzerChain.run")
    m["analysis.run_calls"] = run[0]
    m["analysis.run_self_s"] = run[2]
    m["analysis.tokens"] = run[3]
    m["analysis.distinct_token_share"] = distinct_token_share(bench)
    stem = leaf("porter.porter_stem")
    m["porter.stem_calls"] = stem[0]
    m["porter.stem_s"] = stem[2]

    idx = bench.index
    n_terms = n_postings = 0
    for field in idx.fields:
        for term in idx.terms(field):
            n_terms += 1
            n_postings += len(idx.postings(field, term))
    m["index.build_s"] = total("index.build_index")
    m["index.postings"] = n_postings
    m["index.terms"] = n_terms
    m["index.save_s"] = total("index.Index.save")
    m["index.load_s"] = total("index.Index.load")
    m["index.snapshot_bytes_per_input_byte"] = bench.snapshot_bytes / Path(bench.paths["docs"]).stat().st_size
    m["index.search_self_s"] = self_total("index.Index.search")
    scanned, phrases, clauses = query_shape(idx, bench.queries)
    m["index.postings_scanned_per_query"] = _mean(scanned)
    m["index.phrase_clause_share"] = _share(phrases, clauses)
    m["index.hits_per_query"] = _mean(bench.hit_counts)
    m["index.doc_set_calls"] = count("index.Index.doc_set")

    m["str.suggest_self_s"] = self_total("str_recommender.suggest_str")
    m.update(str_counts(bench))

    matches = by_name.get("wiki_lead.ArticleStore.match", [])
    match_ids = {id(s) for s in matches}
    searches_in_match = sum(
        1 for s in by_name.get("index.Index.search", ()) if s[PARENT] is not None and id(s[PARENT]) in match_ids
    )
    m["wiki_lead.store_build_s"] = total("wiki_lead.ArticleStore.from_dir")
    m["wiki_lead.match_s"] = total("wiki_lead.ArticleStore.match")
    m["wiki_lead.searches_per_match"] = _share(searches_in_match, len(matches))
    m.update(wiki_counts(bench))
    m["wiki_lead.extract_s"] = total("wiki_lead.extract_lead")

    sims = leaf("docsim.SimCorpus.sim")
    m["docsim.corpus_build_s"] = total("docsim.SimCorpus.from_dir")
    m["docsim.suggest_self_s"] = self_total("docsim.suggest_docsim")
    m["docsim.pairs_per_seed"] = _share(sims[0], count("docsim.suggest_docsim"))
    m["docsim.nonzero_share"] = docsim_nonzero_share(bench)

    m["expand.build_query_s"] = total("expand.build_query")
    m["expand.clauses_per_query"] = _mean(len(q.clauses) for q in bench.queries)
    m["expand.combo_merge_s"] = total("expand.combo_merge")
    m["expand.parse_s"] = total("expand.parse_query")

    m["suggestions.write_s"] = total("suggestions.write_suggestion_file")
    m["suggestions.read_s"] = total("suggestions.read_suggestion_file")
    m["evaluation.evaluate_s"] = total("evaluation.evaluate_run")
    m["evaluation.run_records"] = sum(len(text.splitlines()) for text in bench.run_files.values())
    m["evaluation.run_io_s"] = total("evaluation.write_run_file") + total("evaluation.read_run_file")

    m["pipeline.self_s"] = self_total("pipeline.run_pipeline")
    systems, workers = pipeline_breakdown(tracer, by_name.get("pipeline.run_pipeline", []))
    for system in SYSTEM_ORDER:
        m[f"pipeline.system_s.{system}"] = systems.get(system, 0.0)
    m["pipeline.workers"] = workers

    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for span in spans:
        layer_self[layer_of(span[NAME])] += self_s[id(span)]
    for name, entry in leaves.items():
        layer_self[layer_of(name)] += entry[2]
    wall = total("bench.run")
    m["trace.overhead_share"] = traced_wall / untraced_wall - 1
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = layer_self.pop("bench")
    m["trace.parallel_overlap_s"] = sum(layer_self.values()) + m["trace.unattributed_s"] - wall
    for layer in LAYERS:
        m[f"trace.self_s.{layer}"] = layer_self[layer]

    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (float(m[name]), units[name]) for name, _, _ in PER_LAYER}


# -- outside-in counters ----------------------------------------------------


def distinct_token_share(bench) -> float:
    """Distinct tokens reaching the stemmer / tokens reaching it, over the
    set-up's documents, sim corpora and article titles."""
    analyzer = checks.Analyzer()
    total = 0
    distinct: set[str] = set()

    def add(text: str) -> None:
        nonlocal total
        tokens = analyzer.surface(text)
        total += len(tokens)
        distinct.update(tokens)

    for doc in bench.documents:
        for values in doc.fields.values():
            for value in values:
                add(value)
    for key in ("sim_corpus", "back_corpus"):
        for f in Path(bench.paths[key]).glob("*.txt"):
            add(f.read_text(encoding="utf-8"))
    for title in bench.store.titles:
        add(title)
    return _share(len(distinct), total)


def query_shape(idx, queries) -> tuple[list[int], int, int]:
    """Postings read per query (every token of every clause), and how many
    clauses are phrases after analysis."""
    scanned = []
    phrases = clauses = 0
    for query in queries:
        n = 0
        for clause in query.clauses:
            tokens = idx.chain_for_field(clause.field).run(clause.text)
            clauses += 1
            phrases += len(tokens) > 1
            n += sum(len(idx.postings(clause.field, t)) for t in tokens)
        scanned.append(n)
    return scanned, phrases, clauses


def str_counts(bench) -> dict[str, float]:
    """Candidate concepts, co-occurring ones and the union fallback rate,
    over the suggest phase's topics."""
    idx = bench.index
    cfg = str_recommender.CooccurConfig()
    candidates: set[str] = set()
    for name in cfg.concept_fields:
        candidates.update(idx.raw_values(f"{name}-en"))
    chain = analysis.chain_for("en")
    fields = [f"{name}-en" for name in cfg.input_fields if idx.has_field(f"{name}-en")]
    cooccurring, fallbacks, n = [], 0, 0
    everything = str_recommender.CooccurConfig(top_k=len(candidates) + 1)
    for topic in bench.topics:
        tokens = analysis.query_tokens(chain, topic.title)
        if not tokens:
            continue
        n += 1
        per_token = []
        for token in tokens:
            docs = set()
            for field in fields:
                docs |= idx.doc_set(field, [token], mode="any")
            per_token.append(docs)
        fallbacks += not set.intersection(*per_token)
        cooccurring.append(len(str_recommender.suggest_str(idx, topic, everything).suggestions))
    mean_co = _mean(cooccurring)
    return {
        "str.candidates_per_topic": float(len(candidates)),
        "str.cooccurring_per_topic": mean_co,
        "str.useful_share": _share(mean_co, len(candidates)),
        "str.union_fallback_share": _share(fallbacks, n),
    }


def wiki_counts(bench) -> dict[str, float]:
    """Which matching stage fired, and how often the lead fell back to the
    whole article, over the suggest phase's topics."""
    stages = dict.fromkeys(STAGES, 0)
    full = matched = 0
    for topic in bench.topics:
        match = bench.store.match(topic.title)
        stages[match.stage if match else "none"] += 1
        if match:
            matched += 1
            full += wiki_lead.extract_lead(bench.store.wikitext(match.title)).used_full_article
    n = len(bench.topics)
    out = {f"wiki_lead.stage_share.{stage}": _share(c, n) for stage, c in stages.items()}
    out["wiki_lead.full_article_share"] = _share(full, matched)
    return out


def docsim_nonzero_share(bench, n_seeds: int = 20) -> float:
    """Share of (seed, document) pairs with a positive similarity, over a
    seeded sample of seeds in both corpora."""
    rng = random.Random(len(bench.topics))
    seeds = sorted(set(bench.seeds.values()))
    pairs = nonzero = 0
    for corpus in bench.sims.values():
        titles = corpus.titles
        for seed in rng.sample(seeds, min(n_seeds, len(seeds))):
            try:
                scores = [corpus.sim(seed, t, 50) for t in titles if t != seed]
            except errors.SeedNotFoundError:
                continue
            pairs += len(scores)
            nonzero += sum(1 for s in scores if s > 0)
    return _share(nonzero, pairs)


def pipeline_breakdown(tracer: Tracer, runs: list[list]) -> tuple[dict[str, float], int]:
    """Per-system wall time inside run_pipeline, and the worker threads used.

    Systems run in a fixed order and each ends with evaluate_run, so
    system i spans from the end of the previous system's evaluate_run (for
    the first: the end of the pipeline's build_index) to the end of its own.
    """
    systems: dict[str, float] = {}
    threads: set[int] = set()
    main = threading.main_thread().ident
    for run in runs:
        inner = tracer.descendants(run)
        threads.update(s[THREAD] for s in inner if s[THREAD] != main)
        builds = [s for s in inner if s[NAME] == "index.build_index" and s[PARENT] is run]
        evals = [s for s in inner if s[NAME] == "evaluation.evaluate_run"]
        if not builds or len(evals) != len(SYSTEM_ORDER):
            continue
        mark = builds[0][END]
        for system, ev in zip(SYSTEM_ORDER, evals):
            systems[system] = systems.get(system, 0.0) + ev[END] - mark
            mark = ev[END]
    return systems, len(threads)
