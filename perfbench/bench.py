"""Workload definitions and the phases every workload runs.

Each workload sets up from its generated inputs (ingest, build_index,
Index.save, ArticleStore.from_dir, SimCorpus.from_dir x2, queries through
build_query and the query file round trip), loads the snapshot and warms
each suggestion generator once. The phases:

    search    Index.search(q, 1000) over the search queries
    suggest   per topic: suggest_str, suggest_wiki_lead, suggest_docsim x2
              (WIKI_SIM, WIKI_BACK) and combo_merge
    pipeline  run_pipeline with all five systems and qrels on a small
              experiment of its own, each repetition into a fresh output
              directory

A timed run measures only the workload's own phase, closed-loop for
`--seconds`, in whole passes over its inputs with snapshot loads between
operations, and scales its timings by a machine-speed reference
(calibrate.py). The traced run (counted mode) makes one pass of every
phase, so every layer is exercised. Every phase has a single client in a
single process. The program is called only through module
attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from sparse_expand import (
    analysis,
    corpus,
    docsim,
    errors,
    expand,
    index,
    pipeline,
    str_recommender,
    suggestions,
    wiki_lead,
)

import checks
from calibrate import Unscaled
from gen import Sizes

K = 1000  # search depth, as in the pipeline's run files
SUGGEST_K = 10
DOCSIM_N = 50
SYSTEMS = ("WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR", "COMBO")

# A timed run makes at least this many passes over the workload's inputs.
MIN_PASSES = 3
# Operations between two reference ticks (calibrate.py), about every 70 ms.
TICK_EVERY = {"search": 50, "suggest": 4}
SETUP_TICKS = 5  # reference ticks before and after each set-up
# Operations between two snapshot loads: single loads spread by +-15%, so a
# run makes about 30 of them.
LOAD_EVERY = {"search": 750, "suggest": 75}
PHASES = ("search", "suggest", "pipeline")
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    main: Sizes
    timed: str  # the phase that runs for --seconds: "search" or "suggest"


# Inputs of the pipeline phase, the same small experiment for every workload.
PIPE_SIZES = Sizes(docs=300, concepts=200, clusters=15, topics=10, articles=40, sim_docs=40, queries=0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search",
            "Index read path: posting scans and phrase matching over a 2.5k-doc index dominate; "
            "the write path (build, save, load) sits in set-up beside it.",
            Sizes(docs=2500, concepts=3000, clusters=300, topics=150, articles=150, sim_docs=150, queries=3000),
            "search",
        ),
        Workload(
            "suggest",
            "Suggestion generators dominate: STR over a 2k-doc index, WIKI_ENTITY over 1k wikitext "
            "articles, docsim over two 400-article corpora; the index read path does little.",
            Sizes(docs=2000, concepts=4000, clusters=300, topics=600, articles=1000, sim_docs=400, queries=750),
            "suggest",
        ),
    )
}


def tiny(sizes: Sizes) -> Sizes:
    """The smoke-mode version of a workload's inputs."""
    return Sizes(
        docs=min(sizes.docs, 150), concepts=min(sizes.concepts, 120), clusters=8,
        topics=min(sizes.topics, 12), articles=min(sizes.articles, 24),
        sim_docs=min(sizes.sim_docs, 24), queries=min(sizes.queries, 30),
    )


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it."""
    for p in TAIL_LADDER:
        if min_samples * (100 - p) >= 1000:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


@dataclass
class Outcomes:
    attempted: int = 0
    failed: int = 0
    expected: dict[str, int] = field(default_factory=dict)  # documented error paths
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def expect(self, what: str) -> None:
        self.expected[what] = self.expected.get(what, 0) + 1


class Bench:
    """One workload's state and phases; results land in `self.samples`.

    Timings in `samples` and `latencies` are scaled by the reference
    (calibrate.py); `raw` keeps the unscaled ones. Without a reference
    (counted runs) the two are the same."""

    def __init__(self, workload: Workload, paths: dict, pipe_paths: dict, work: Path, seed: int,
                 reference=None):
        self.workload = workload
        self.ref = reference or Unscaled()
        self.paths = paths
        self.pipe_paths = pipe_paths
        self.work = work
        self.snapshot = work / "index.bin"
        self.outcomes = Outcomes()
        self.samples: dict[str, list[float]] = {name: [] for name in ("setup_s", "snapshot_load_s", "pass_s")}
        self.raw: dict[str, list[float]] = {name: [] for name in self.samples}
        self.factors: list[float] = []  # reference factor of each set-up and pass
        # Latencies of the operations of the timed phase, by item, one per pass.
        self.latencies: dict[object, list[float]] = {}
        self._pending: list[tuple[object, float]] = []  # this pass's, unscaled
        self.cursor = dict.fromkeys(PHASES, 0)
        self.chain = analysis.chain_for("en")
        self.hit_counts: list[int] = []
        self.digests = {name: hashlib.sha256() for name in ("snapshot", "search", "suggest", "pipeline")}
        self.rng = random.Random(seed * 7919 + 17)
        self.fresh_hits: dict[int, list] = {}
        self.sampled_hits: dict[int, list] = {}
        self.sampled_sets: dict[str, dict[str, object]] = {}
        self.snapshot_shas: set[str] = set()
        self.pipeline_trees: list[dict[str, str]] = []

    # -- set-up ----------------------------------------------------------

    def setup(self, reps: int) -> None:
        """Repeat the whole set-up; keep the state of the last repetition."""
        for _ in range(reps):
            self._drop_state()
            mark = len(self.ref.ticks)
            for _ in range(SETUP_TICKS):
                self.ref.tick()
            start = perf_counter()
            self._setup_once()
            elapsed = perf_counter() - start
            for _ in range(SETUP_TICKS):
                self.ref.tick()
            self._record("setup_s", elapsed, self.ref.factor(mark))
            self.outcomes.attempted += 1
            self.snapshot_shas.add(hashlib.sha256(self.snapshot.read_bytes()).hexdigest())
        self._sample_choice()
        # Results of the freshly built index, to compare with the snapshot.
        for i in self.search_sample:
            self.fresh_hits[i] = [(h.doc_id, h.score) for h in self.built.search(self.queries[i], K)]
        self.snapshot_bytes = self.snapshot.stat().st_size
        self.digests["snapshot"].update(self.snapshot.read_bytes())
        self.built = None

    def _drop_state(self) -> None:
        self.built = self.documents = self.store = self.sims = None

    def _setup_once(self) -> None:
        p = self.paths
        self.documents = corpus.ingest_documents(p["docs"]).documents
        self.built = index.build_index(self.documents, {"en": analysis.chain_for("en")})
        self.built.save(self.snapshot)
        self.store = wiki_lead.ArticleStore.from_dir(p["articles"])
        self.sims = {
            "WIKI_SIM": docsim.SimCorpus.from_dir(p["sim_corpus"]),
            "WIKI_BACK": docsim.SimCorpus.from_dir(p["back_corpus"]),
        }
        self.topics = corpus.read_topics(p["topics"])
        self.seeds = pipeline.read_seeds_file(p["seeds"])

        # Queries: topics expanded by build_query, written and parsed back
        # as `index search --query-file` reads them.
        query_topics = corpus.read_topics(p["queries"])
        suggested = {s.topic_id: s for s in suggestions.read_suggestion_file(p["query_suggestions"])}
        self.built_queries = [expand.build_query(t, suggested.get(t.topic_id)) for t in query_topics]
        query_file = self.work / "queries.tsv"
        expand.write_query_file(query_file, zip((t.topic_id for t in query_topics), self.built_queries))
        parsed = expand.read_query_file(query_file)
        self.query_ids = [topic_id for topic_id, _ in parsed]
        self.queries = [query for _, query in parsed]

    def _sample_choice(self) -> None:
        rng = self.rng
        self.search_sample = sorted(rng.sample(range(len(self.queries)), min(6, len(self.queries))))
        self.topic_sample = set(rng.sample([t.topic_id for t in self.topics], min(8, len(self.topics))))
        expect = {}
        for line in Path(self.paths["expect_wiki"]).read_text(encoding="utf-8").splitlines():
            topic_id, _title, *links = line.split("\t")
            expect[topic_id] = links
        self.wiki_expect = expect
        self.topic_sample |= set(rng.sample(sorted(expect), min(4, len(expect))))

    def warm_up(self) -> None:
        """Load the snapshot, then one untimed call per generator (fills the
        important-word cache)."""
        self.index = index.Index.load(self.snapshot)
        topic = next(t for t in self.topics if t.topic_id in self.seeds)
        str_recommender.suggest_str(self.index, topic)
        wiki_lead.suggest_wiki_lead(self.store, topic, k=SUGGEST_K)
        for corpus_ in self.sims.values():
            docsim.suggest_docsim(corpus_, self.seeds[topic.topic_id], k=SUGGEST_K, n=DOCSIM_N)

    # -- measurement -----------------------------------------------------

    def measure(self, seconds: float | None) -> None:
        """Run the measured operations.

        Timed mode (`seconds` given) makes whole passes over the inputs of
        the workload's own phase until `seconds` have passed, and at least
        MIN_PASSES of them. Each pass runs every input once, so each item
        has one latency per pass and the metrics can take medians over
        passes: the shared host's speed drifts over seconds. It reloads the
        snapshot before every LOAD_EVERY operations. A reference tick runs
        every TICK_EVERY operations, before each load and after the pass;
        the pass's timings are scaled by the factor of its ticks
        (calibrate.py). Counted mode (`seconds=None`), used by the
        traced pair: one snapshot load and one pass of every phase (two
        pipeline repetitions, to compare their outputs).
        """
        if seconds is None:
            self._record("snapshot_load_s", self._load(), 1.0)
            for phase in PHASES:
                for _ in range(self._pass_length(phase) or 2):
                    getattr(self, f"_{phase}_op")()
            self._pending.clear()
            return
        phase = self.workload.timed
        step = getattr(self, f"_{phase}_op")
        tick_every, load_every = TICK_EVERY[phase], LOAD_EVERY[phase]
        deadline = perf_counter() + seconds
        while len(self.samples["pass_s"]) < MIN_PASSES or perf_counter() < deadline:
            mark = len(self.ref.ticks)
            loads = []
            for i in range(self._pass_length(phase)):
                if i % load_every == 0:
                    self.ref.tick()
                    loads.append(self._load())
                if i % tick_every == 0:
                    self.ref.tick()
                step()
            self.ref.tick()
            factor = self.ref.factor(mark)
            for load in loads:
                self._record("snapshot_load_s", load, factor)
            self._record("pass_s", sum(elapsed for _, elapsed in self._pending), factor)
            for item, elapsed in self._pending:
                self.latencies.setdefault(item, []).append(elapsed / factor)
            self._pending.clear()

    def _record(self, name: str, seconds: float, factor: float) -> None:
        self.raw[name].append(seconds)
        self.samples[name].append(seconds / factor)
        if name != "snapshot_load_s":
            self.factors.append(factor)

    def _pass_length(self, phase: str) -> int:
        return {"search": len(self.queries), "suggest": len(self.topics)}.get(phase, 0)

    def _latency(self, item, seconds: float) -> None:
        self._pending.append((item, seconds))

    def _next(self, phase: str) -> int:
        i = self.cursor[phase]
        self.cursor[phase] = i + 1
        return i

    def _load(self) -> float:
        """Reload the snapshot; returns the seconds it took."""
        self.index = None
        start = perf_counter()
        self.index = index.Index.load(self.snapshot)
        elapsed = perf_counter() - start
        self.outcomes.attempted += 1
        return elapsed

    def _search_op(self) -> None:
        i = self._next("search")
        q = i % len(self.queries)
        self.outcomes.attempted += 1
        start = perf_counter()
        try:
            hits = self.index.search(self.queries[q], K)
        except errors.SparseExpandError as exc:
            self.outcomes.fail(f"search {self.query_ids[q]}: {exc!r}")
            return
        self._latency(q, perf_counter() - start)
        if i < len(self.queries):
            self.hit_counts.append(len(hits))
            self.digests["search"].update(
                "".join(f"{self.query_ids[q]}\t{h.doc_id}\t{h.score!r}\n" for h in hits).encode()
            )
            if q in self.search_sample:
                self.sampled_hits[q] = hits

    def _suggest_op(self) -> None:
        i = self._next("suggest")
        topic = self.topics[i % len(self.topics)]
        out = self.outcomes
        sets = []
        start = perf_counter()
        try:
            sets.append(str_recommender.suggest_str(self.index, topic))
        except errors.EmptyQueryError as exc:
            if analysis.query_tokens(self.chain, topic.title):
                out.fail(f"STR {topic.topic_id}: {exc!r}")
            else:
                out.expect("STR empty query")
        sets.append(wiki_lead.suggest_wiki_lead(self.store, topic, k=SUGGEST_K))
        seed = self.seeds.get(topic.topic_id)
        for label, corpus_ in self.sims.items():
            if seed is None:
                out.expect("missing seed")
                continue
            try:
                sets.append(docsim.suggest_docsim(
                    corpus_, seed, k=SUGGEST_K, n=DOCSIM_N, source=label, topic_id=topic.topic_id
                ))
            except errors.SeedNotFoundError as exc:
                out.fail(f"{label} {topic.topic_id}: {exc!r}")
        combo = expand.combo_merge(sets, max_concepts=SUGGEST_K)
        self._latency(topic.topic_id, perf_counter() - start)
        out.attempted += 5 if seed is not None else 3
        if i < len(self.topics):
            for sset in sets + [combo]:
                self.digests["suggest"].update("".join(
                    f"{topic.topic_id}\t{sset.system}\t{x.text}\t{float(x.score)!r}\n" for x in sset.suggestions
                ).encode())
            if topic.topic_id in self.topic_sample:
                self.sampled_sets[topic.topic_id] = {x.system: x for x in sets + [combo]}

    def _pipeline_op(self) -> None:
        rep = self._next("pipeline")
        p = self.pipe_paths
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = pipeline.PipelineConfig(
            docs=p["docs"], topics=p["topics"], out=str(out_dir), lang="en",
            articles=p["articles"], sim_corpus=p["sim_corpus"], back_corpus=p["back_corpus"],
            seeds=p["seeds"], qrels=p["qrels"],
        )
        self.outcomes.attempted += 1
        try:
            pipeline.run_pipeline(cfg, SYSTEMS)
        except errors.SparseExpandError as exc:
            self.outcomes.fail(f"pipeline: {exc!r}")
            return
        tree = {
            str(f.relative_to(out_dir)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out_dir.rglob("*")) if f.is_file()
        }
        self.pipeline_trees.append(tree)
        if rep == 0:
            for name, sha in sorted(tree.items()):
                self.digests["pipeline"].update(f"{name}\t{sha}\n".encode())
            self.run_files = {
                system: (out_dir / "en" / system / "run.trec").read_text(encoding="utf-8") for system in SYSTEMS
            }
            self.metric_files = {
                system: (out_dir / "en" / system / "metrics.tsv").read_text(encoding="utf-8") for system in SYSTEMS
            }

    # -- correctness -----------------------------------------------------

    def verify(self) -> None:
        """Check the sampled results against independent recomputation."""
        out = self.outcomes
        if len(self.snapshot_shas) != 1:
            out.fail("snapshot bytes differ across set-up repetitions")
        if self.queries != self.built_queries:
            out.fail("query file round trip changed the queries")
        analyzer = checks.Analyzer()
        doc_ids = [d.doc_id for d in self.documents]
        streams = checks.union_field_positions(self.documents, analyzer)
        for q, hits in sorted(self.sampled_hits.items()):
            qid = self.query_ids[q]
            if [(h.doc_id, h.score) for h in hits] != self.fresh_hits[q]:
                out.fail(f"search {qid}: loaded snapshot differs from the built index")
            expected = checks.naive_search(doc_ids, streams, analyzer, self.queries[q], K)
            for problem in checks.check_search(expected, hits):
                out.fail(f"search {qid}: {problem}")
        del streams

        str_oracle = checks.StrOracle(self.documents, analyzer)
        sim_oracles = {
            label: checks.DocsimOracle(_bodies(self.paths[key]), analyzer, DOCSIM_N)
            for label, key in (("WIKI_SIM", "sim_corpus"), ("WIKI_BACK", "back_corpus"))
        }
        titles = {t.topic_id: t.title for t in self.topics}
        for topic_id, sets in sorted(self.sampled_sets.items()):
            problems = []
            if "STR" in sets:
                problems += checks.check_pairs(str_oracle.scores(titles[topic_id], SUGGEST_K), sets["STR"])
            if topic_id in self.wiki_expect:
                problems += checks.check_links(self.wiki_expect[topic_id][:SUGGEST_K], sets["WIKI_ENTITY"])
            for label, oracle in sim_oracles.items():
                if label in sets:
                    problems += checks.check_pairs(oracle.ranking(self.seeds[topic_id], SUGGEST_K), sets[label])
            merged = checks.naive_combo([s for name, s in sets.items() if name != "COMBO"], SUGGEST_K)
            if sets["COMBO"].texts() != merged:
                problems.append(f"COMBO {topic_id}: got {sets['COMBO'].texts()}, expected {merged}")
            for problem in problems:
                out.fail(problem)

        trees = self.pipeline_trees
        if any(tree != trees[0] for tree in trees[1:]):
            out.fail("pipeline outputs differ between repetitions")
        if trees:
            qrels = Path(self.pipe_paths["qrels"]).read_text(encoding="utf-8").splitlines()
            for system in SYSTEMS:
                mean = self.metric_files[system].splitlines()[-1].split("\t")
                expected = f"{checks.naive_mean_ap(self.run_files[system].splitlines(), qrels):.6f}"
                if mean[1] != expected:
                    out.fail(f"pipeline {system}: mean AP {mean[1]}, expected {expected}")

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, peak_rss: float) -> dict[str, tuple[float, str]]:
        """The metrics of a timed run. An operation is one search on the
        search workload and one topic's suggestion sets on the suggest
        workload; its latency is the median of its scaled runs over the
        passes."""
        s = self.samples
        per_item = [statistics.median(runs) for runs in self.latencies.values()]
        tail = tail_percentile(len(per_item))
        self.tails = {"op_tail_ms": (tail, len(per_item))}
        return {
            "setup_s": (statistics.median(s["setup_s"]), "s"),
            "snapshot_load_s": (statistics.median(s["snapshot_load_s"]), "s"),
            "snapshot_bytes": (float(self.snapshot_bytes), "B"),
            "ops_per_s": (len(per_item) / statistics.median(s["pass_s"]), "1/s"),
            "op_p50_ms": (1000 * statistics.median(per_item), "ms"),
            "op_tail_ms": (1000 * percentile(per_item, tail), "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        }


def _bodies(directory: str) -> dict[str, str]:
    from urllib.parse import unquote

    return {
        unquote(f.stem): f.read_text(encoding="utf-8") for f in sorted(Path(directory).glob("*.txt"))
    }


def pool_size() -> str:
    """The pipeline's effective per-topic pool size, if it has a pool."""
    workers = getattr(pipeline, "_max_workers", None)
    return str(workers()) if workers else "none"


def environment(seed: int, workload: Workload, sizes: Sizes, pipe: Sizes) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "SPARSE_EXPAND_THREADS": os.environ.get("SPARSE_EXPAND_THREADS", "<unset>"),
        "pool_size": pool_size(),
        "seed": seed,
        "workload": workload.name,
        "sizes": sizes.__dict__,
        "pipeline_sizes": pipe.__dict__,
    }
