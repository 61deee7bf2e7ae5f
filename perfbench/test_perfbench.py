"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench as b  # noqa: E402
import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import sparse_expand  # noqa: E402
from sparse_expand import analysis, index  # noqa: E402
from sparse_expand.index import ScoredDoc  # noqa: E402
from sparse_expand.suggestions import make_suggestion_set  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """A counted tiny run of the suggest workload, verified clean."""
    work = tmp_path_factory.mktemp("bench")
    workload = b.WORKLOADS["suggest"]
    paths = gen.generate(work / "main", 5, b.tiny(workload.main))
    pipe_paths = gen.generate(work / "pipe", 6, b.tiny(b.PIPE_SIZES))
    bench = b.Bench(workload, paths, pipe_paths, work, 5)
    bench.setup(1)
    bench.warm_up()
    bench.measure(None)
    bench.verify()
    assert bench.outcomes.failed == 0, bench.outcomes.problems
    return bench


def _reverify(bench, **changes):
    """Verify a copy of the run with some recorded results replaced."""
    copy = object.__new__(b.Bench)
    copy.__dict__.update(bench.__dict__)
    copy.outcomes = b.Outcomes()
    for name, value in changes.items():
        setattr(copy, name, value)
    copy.verify()
    return copy.outcomes


def _topic_with(bench, system):
    return next(t for t, sets in sorted(bench.sampled_sets.items()) if sets.get(system) and sets[system].suggestions)


def _replace(bench, topic_id, system, sset):
    sampled = {t: dict(sets) for t, sets in bench.sampled_sets.items()}
    sampled[topic_id][system] = sset
    return sampled


def test_wrong_search_score_is_a_failure(ran):
    q, hits = next(iter(sorted(ran.sampled_hits.items())))
    wrong = [ScoredDoc(hits[0].doc_id, hits[0].score * 1.5)] + hits[1:]
    assert _reverify(ran, sampled_hits={**ran.sampled_hits, q: wrong}).failed >= 1


def test_snapshot_differing_from_built_index_is_a_failure(ran):
    q = next(iter(ran.fresh_hits))
    fresh = {**ran.fresh_hits, q: ran.fresh_hits[q][1:]}
    assert _reverify(ran, fresh_hits=fresh).failed == 1


def test_nondeterministic_snapshot_is_a_failure(ran):
    assert _reverify(ran, snapshot_shas=ran.snapshot_shas | {"0" * 64}).failed == 1


def test_query_round_trip_change_is_a_failure(ran):
    assert _reverify(ran, built_queries=ran.built_queries[1:] + ran.built_queries[:1]).failed == 1


def test_wrong_str_scores_are_a_failure(ran):
    topic = _topic_with(ran, "STR")
    sset = ran.sampled_sets[topic]["STR"]
    pairs = [(s.text, s.score) for s in sset.suggestions]
    pairs[0] = (pairs[0][0] + " x", pairs[0][1])
    wrong = make_suggestion_set(topic, "STR", pairs)
    assert _reverify(ran, sampled_sets=_replace(ran, topic, "STR", wrong)).failed >= 1


def test_wrong_docsim_ranking_is_a_failure(ran):
    topic = _topic_with(ran, "WIKI_SIM")
    sset = ran.sampled_sets[topic]["WIKI_SIM"]
    wrong = make_suggestion_set(topic, "WIKI_SIM", [(s.text, s.score) for s in sset.suggestions][:-1])
    assert _reverify(ran, sampled_sets=_replace(ran, topic, "WIKI_SIM", wrong)).failed >= 1


def test_wrong_lead_links_are_a_failure(ran):
    topic = next(t for t in sorted(ran.sampled_sets) if t in ran.wiki_expect and ran.wiki_expect[t])
    wrong = make_suggestion_set(topic, "WIKI_ENTITY", [("Nowhere", 1.0)])
    assert _reverify(ran, sampled_sets=_replace(ran, topic, "WIKI_ENTITY", wrong)).failed >= 1


def test_wrong_combo_merge_is_a_failure(ran):
    topic = _topic_with(ran, "COMBO")
    wrong = make_suggestion_set(topic, "COMBO", [("Nowhere", 1.0)])
    assert _reverify(ran, sampled_sets=_replace(ran, topic, "COMBO", wrong)).failed == 1


def test_pipeline_outputs_differing_between_repetitions_is_a_failure(ran):
    tree = dict(ran.pipeline_trees[0])
    name = next(iter(tree))
    tree[name] = "0" * 64
    assert _reverify(ran, pipeline_trees=ran.pipeline_trees + [tree]).failed == 1


def test_wrong_mean_ap_is_a_failure(ran):
    metrics = dict(ran.metric_files)
    metrics["STR"] = metrics["STR"].rsplit("\n", 2)[0] + "\nmean\t0.999999\t0.000000\n"
    assert _reverify(ran, metric_files=metrics).failed == 1


def test_naive_search_matches_the_index(ran):
    analyzer = checks.Analyzer()
    docs = ran.documents
    streams = checks.union_field_positions(docs, analyzer)
    built = index.build_index(docs, {"en": analysis.chain_for("en")})
    for query in ran.queries[:10]:
        expected = checks.naive_search([d.doc_id for d in docs], streams, analyzer, query, 50)
        assert checks.check_search(expected, built.search(query, 50)) == []


class _HalfSpeed:
    """A reference whose every tick takes twice the nominal time."""

    factor = calibrate.Reference.factor

    def __init__(self):
        self.ticks = []

    def tick(self):
        self.ticks.append(2 * calibrate.NOMINAL_TICK_S)


@pytest.fixture(scope="module")
def timed(tmp_path_factory):
    """A timed tiny run of the search workload (MIN_PASSES passes) on a
    machine the reference finds half as fast as nominal, verified clean."""
    work = tmp_path_factory.mktemp("timed")
    workload = b.WORKLOADS["search"]
    paths = gen.generate(work / "main", 7, b.tiny(workload.main))
    pipe_paths = gen.generate(work / "pipe", 8, b.tiny(b.PIPE_SIZES))
    bench = b.Bench(workload, paths, pipe_paths, work, 7, _HalfSpeed())
    bench.setup(1)
    bench.warm_up()
    bench.measure(0.0)
    bench.verify()
    assert bench.outcomes.failed == 0, bench.outcomes.problems
    return bench


def test_end_to_end_metrics_are_positive(timed):
    metrics = timed.end_to_end(timed.peak_rss_mb())
    assert all(value > 0 for value, _ in metrics.values())


def test_timed_run_makes_whole_passes(timed):
    passes = len(timed.samples["pass_s"])
    assert passes == b.MIN_PASSES
    loads_per_pass = -(-len(timed.queries) // b.LOAD_EVERY["search"])
    assert len(timed.samples["snapshot_load_s"]) == loads_per_pass * passes
    assert sorted(timed.latencies) == list(range(len(timed.queries)))
    assert all(len(runs) == passes for runs in timed.latencies.values())


def test_timings_are_scaled_by_the_reference(timed):
    for name, raw in timed.raw.items():
        assert timed.samples[name] == pytest.approx([seconds / 2 for seconds in raw])
    assert timed.factors == pytest.approx([2.0] * (1 + b.MIN_PASSES))
    scaled_passes = [sum(runs[i] for runs in timed.latencies.values()) for i in range(b.MIN_PASSES)]
    assert scaled_passes == pytest.approx(timed.samples["pass_s"])


# -- tracer ------------------------------------------------------------------


def test_self_time_subtracts_union_of_overlapping_children():
    tracer = Tracer()
    parent = ["p", 0.0, 10.0, None, 1, 0.5]
    tracer.spans = [
        parent,
        ["a", 1.0, 4.0, parent, 2, 0.0],
        ["b", 3.0, 6.0, parent, 3, 0.0],
        ["c", 8.0, 12.0, parent, 2, 0.0],
    ]
    self_s = tracer.self_times()
    # children cover [1, 6] and [8, 10] of the parent: 7 s; leaf time 0.5 s
    assert self_s[id(parent)] == pytest.approx(10.0 - 7.0 - 0.5)
    summary = tracer.summary()
    assert summary["p"] == pytest.approx((1, 10.0, 2.5))
    assert summary["a"] == pytest.approx((1, 3.0, 3.0))


def test_tracer_wraps_lookup_sites_and_restores_them():
    original_stem = analysis.porter_stem
    original_search = index.Index.__dict__["search"]
    original_load = index.Index.__dict__["load"]
    tracer = Tracer()
    tracer.install(sparse_expand)
    try:
        assert analysis.porter_stem is not original_stem
        with tracer.span("bench.run"):
            analysis.chain_for("en").run("The whales were swimming")
        worker = threading.Thread(target=lambda: analysis.chain_for("en").run("ships"))
        with tracer.span("bench.thread"):
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert analysis.porter_stem is original_stem
    assert index.Index.__dict__["search"] is original_search
    assert index.Index.__dict__["load"] is original_load
    leaves = tracer.leaves()
    assert leaves["porter.porter_stem"][0] == 3
    assert leaves["analysis.AnalyzerChain.run"][0] == 2
    assert leaves["analysis.AnalyzerChain.run"][3] == 3  # tokens returned
    run, thread = tracer.spans
    self_s = tracer.self_times()
    assert self_s[id(run)] >= 0 and self_s[id(thread)] >= 0
    assert run[5] > 0 and thread[5] > 0  # leaf time charged to the open span


# -- helpers and the definition file ---------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert b.tail_percentile(1000) == 99.0
    assert b.tail_percentile(999) == 95.0
    assert b.tail_percentile(200) == 95.0
    assert b.tail_percentile(100) == 90.0
    assert b.tail_percentile(60) == 75.0
    assert b.percentile([5, 1, 4, 2, 3], 50) == 3
    assert b.percentile(list(range(1, 101)), 99) == 99


def test_generator_is_deterministic(tmp_path):
    sizes = b.tiny(b.WORKLOADS["suggest"].main)
    first = gen.generate(tmp_path / "a", 3, sizes)
    second = gen.generate(tmp_path / "b", 3, sizes)
    for role in first:
        a, c = Path(first[role]), Path(second[role])
        files_a = sorted(a.rglob("*")) if a.is_dir() else [a]
        files_c = sorted(c.rglob("*")) if c.is_dir() else [c]
        assert [f.read_bytes() for f in files_a] == [f.read_bytes() for f in files_c]


def test_definition_file_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(b.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    fake = object.__new__(b.Bench)
    fake.samples = {name: [1.0] for name in ("setup_s", "snapshot_load_s", "pass_s")}
    fake.latencies = {0: [1.0, 2.0]}
    fake.snapshot_bytes = 1
    names = [(name, unit) for name, (_, unit) in fake.end_to_end(1.0).items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == names


# -- the command ---------------------------------------------------------------


def _run(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("workload,trace", [("search", "0"), ("suggest", "0"), ("search", "1"), ("suggest", "1")])
def test_smoke_run_prints_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.time()
    done = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr[-2000:]
    assert time.time() - start < 120
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert not list(ROOT.glob(f".perfbench_work/{workload}-4-*"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
