import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_average_precision, naive_r_precision, naive_se_precision
from sparse_expand.errors import DataError
from sparse_expand.evaluation import (
    GRADES,
    MetricReport,
    RunRecord,
    average_precision,
    evaluate_run,
    evaluate_suggestions,
    r_precision,
    read_judgments_file,
    read_qrels_file,
    read_run_file,
    se_precision,
    write_qrels_file,
    write_run_file,
)
from sparse_expand.suggestions import make_suggestion_set


def test_ap_hand_case_ranks_one_and_three():
    ranked = ["a", "x", "b", "y"]
    judgments = {"a": 1, "b": 2}
    assert average_precision(ranked, judgments) == pytest.approx((1 / 1 + 2 / 3) / 2)


def test_ap_perfect_ranking():
    ranked = ["a", "b", "rest"]
    judgments = {"a": 2, "b": 1}
    assert average_precision(ranked, judgments) == 1.0


def test_ap_no_relevant_retrieved():
    assert average_precision(["x", "y"], {"a": 1}) == 0.0
    assert average_precision([], {"a": 1}) == 0.0


def test_ap_requires_relevant_docs():
    with pytest.raises(DataError):
        average_precision(["a"], {"a": 0})


def test_rp_hand_cases():
    assert r_precision(["a", "x"], {"a": 1, "b": 1}) == 0.5
    # run shorter than R: missing ranks are non-relevant
    assert r_precision(["a"], {"a": 2, "b": 2}) == 0.5
    assert r_precision(["a", "b", "x"], {"a": 1, "b": 1}) == 1.0


def test_se_precision_hand_case():
    grades = dict(enumerate([2] * 7 + [1] * 2 + [0], start=1))
    sset = make_suggestion_set(
        "T", "WIKI_ENTITY", [(f"c{i}", 1.0 / i) for i in range(1, 11)]
    )
    assert se_precision(sset, grades) == (0.9, 0.7)


def test_se_precision_all_relevant():
    sset = make_suggestion_set("T", "STR", [("a", 1.0), ("b", 0.5)])
    assert se_precision(sset, {1: 2, 2: 2}) == (1.0, 1.0)


def test_se_precision_all_nonrelevant():
    sset = make_suggestion_set("T", "STR", [("a", 1.0), ("b", 0.5)])
    assert se_precision(sset, {1: 0, 2: 0}) == (0.0, 0.0)


def test_se_precision_empty_set_warns(caplog):
    sset = make_suggestion_set("T", "STR", [])
    with caplog.at_level(logging.WARNING):
        assert se_precision(sset, {}) == (0.0, 0.0)
    assert "empty suggestion set" in caplog.text


def test_se_precision_unjudged_counts_zero(caplog):
    sset = make_suggestion_set("T", "STR", [("a", 1.0), ("b", 0.5)])
    with caplog.at_level(logging.WARNING):
        assert se_precision(sset, {1: 2}) == (0.5, 0.5)
    assert "unjudged" in caplog.text


def test_se_precision_bad_grade():
    sset = make_suggestion_set("T", "STR", [("a", 1.0)])
    with pytest.raises(DataError):
        se_precision(sset, {1: 7})


def _run_records(topic, docs, tag="t"):
    return [
        RunRecord(topic, doc, rank, float(len(docs) - rank + 1), tag)
        for rank, doc in enumerate(docs, 1)
    ]


def test_evaluate_run_two_topic_mean():
    run = {
        "T1": _run_records("T1", ["a", "x", "b"]),
        "T2": _run_records("T2", ["y", "c"]),
    }
    qrels = {"T1": {"a": 1, "b": 1}, "T2": {"c": 2, "d": 1}}
    report = evaluate_run(run, qrels)
    ap1 = (1 + 2 / 3) / 2
    ap2 = (1 / 2) / 2
    assert report.per_topic["T1"]["ap"] == pytest.approx(ap1)
    assert report.per_topic["T2"]["ap"] == pytest.approx(ap2)
    assert report.means["ap"] == pytest.approx((ap1 + ap2) / 2)


def test_evaluate_run_topic_missing_from_run_scores_zero():
    run = {"T1": _run_records("T1", ["a"])}
    qrels = {"T1": {"a": 1}, "T2": {"b": 1}}
    report = evaluate_run(run, qrels)
    assert report.per_topic["T2"] == {"ap": 0.0, "r_precision": 0.0}
    assert report.means["ap"] == pytest.approx(0.5)


def test_evaluate_run_skips_zero_relevant_topics():
    run = {"T1": _run_records("T1", ["a"])}
    qrels = {"T1": {"a": 1}, "T3": {"x": 0}}
    report = evaluate_run(run, qrels)
    assert "T3" not in report.per_topic
    assert report.means["ap"] == 1.0


def test_evaluate_run_warns_on_unjudged_topic(caplog):
    run = {"T1": _run_records("T1", ["a"]), "T9": _run_records("T9", ["z"])}
    qrels = {"T1": {"a": 1}}
    with caplog.at_level(logging.WARNING):
        report = evaluate_run(run, qrels)
    assert "T9" in caplog.text
    assert list(report.per_topic) == ["T1"]


def test_evaluate_run_depth_cap():
    run = {"T1": _run_records("T1", ["x", "a"])}
    qrels = {"T1": {"a": 1}}
    assert evaluate_run(run, qrels, depth=1).per_topic["T1"]["ap"] == 0.0


def test_metrics_invariant_under_score_rescaling():
    docs = ["a", "x", "b"]
    qrels = {"T": {"a": 1, "b": 2}}
    low = {"T": [RunRecord("T", d, i + 1, 3.0 - i, "t") for i, d in enumerate(docs)]}
    high = {"T": [RunRecord("T", d, i + 1, 300.0 - i * 10, "t") for i, d in enumerate(docs)]}
    assert evaluate_run(low, qrels).per_topic == evaluate_run(high, qrels).per_topic


def test_ap_one_iff_perfect_prefix():
    qrels = {"a": 1, "b": 1}
    assert average_precision(["a", "b", "x"], qrels) == 1.0
    assert average_precision(["a", "x", "b"], qrels) < 1.0


def test_weak_at_least_strong_randomized():
    rng = random.Random(0)
    for _ in range(50):
        grades = [rng.choice([0, 1, 2]) for _ in range(rng.randint(1, 12))]
        weak, strong = naive_se_precision(grades)
        sset = make_suggestion_set(
            "T", "STR", [(f"c{i}", 1.0 / (i + 1)) for i in range(len(grades))]
        )
        got = se_precision(sset, dict(enumerate(grades, start=1)))
        assert got == (weak, strong)
        assert got[0] >= got[1]


def test_mean_permutation_invariance():
    qrels = {"T1": {"a": 1}, "T2": {"b": 1}, "T3": {"c": 2}}
    run = {
        "T1": _run_records("T1", ["a", "x"]),
        "T2": _run_records("T2", ["y", "b"]),
        "T3": _run_records("T3", ["c"]),
    }
    shuffled = {"T3": run["T3"], "T1": run["T1"], "T2": run["T2"]}
    assert evaluate_run(run, qrels).means == evaluate_run(shuffled, qrels).means


@pytest.mark.parametrize("seed", range(100))
def test_metrics_match_naive_scorer(seed):
    rng = random.Random(seed)
    doc_pool = [f"doc{i}" for i in range(30)]
    judgments = {d: rng.choice([0, 0, 1, 2]) for d in rng.sample(doc_pool, 20)}
    if not any(g >= 1 for g in judgments.values()):
        judgments[doc_pool[0]] = 1
    ranked = rng.sample(doc_pool, rng.randint(0, 25))
    assert average_precision(ranked, judgments) == pytest.approx(
        naive_average_precision(ranked, judgments), abs=1e-9
    )
    assert r_precision(ranked, judgments) == pytest.approx(
        naive_r_precision(ranked, judgments), abs=1e-9
    )


# -- file formats --------------------------------------------------------


def test_run_file_round_trip(tmp_path):
    records = _run_records("T1", ["a", "b", "c"]) + _run_records("T2", ["x"])
    path = tmp_path / "run.trec"
    write_run_file(path, records)
    parsed = read_run_file(path)
    assert [r.doc_id for r in parsed["T1"]] == ["a", "b", "c"]
    assert parsed["T2"][0].run_tag == "t"
    first = path.read_text().splitlines()[0].split()
    assert first[:4] == ["T1", "Q0", "a", "1"]


def test_run_file_rejects_rank_gap(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("T1 Q0 a 1 2.0 t\nT1 Q0 b 3 1.0 t\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_run_file(path)


def test_run_file_rejects_duplicate_doc(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("T1 Q0 a 1 2.0 t\nT1 Q0 a 2 1.0 t\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_run_file(path)


def test_run_file_rejects_increasing_scores(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("T1 Q0 a 1 1.0 t\nT1 Q0 b 2 2.0 t\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_run_file(path)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_run_file_rejects_non_finite_scores(tmp_path, score):
    path = tmp_path / "run.trec"
    path.write_text(f"T1 Q0 a 1 {score} t\nT1 Q0 b 2 1.0 t\n", encoding="utf-8")
    with pytest.raises(DataError, match=":1: score must be finite"):
        read_run_file(path)


def test_qrels_round_trip(tmp_path):
    qrels = {"T1": {"a": 2, "b": 0}, "T2": {"c": 1}}
    path = tmp_path / "qrels.txt"
    write_qrels_file(path, qrels)
    assert read_qrels_file(path) == qrels
    assert path.read_text().splitlines()[0] == "T1 0 a 2"


_IDS = st.text(min_size=1, max_size=8).filter(lambda s: not any(map(str.isspace, s)))


@settings(max_examples=200)
@given(
    qrels=st.dictionaries(
        _IDS, st.dictionaries(_IDS, st.sampled_from(GRADES), min_size=1, max_size=4), max_size=4
    )
)
def test_qrels_round_trip_property(tmp_path_factory, qrels):
    path = tmp_path_factory.mktemp("qrels") / "qrels.txt"
    write_qrels_file(path, qrels)
    assert read_qrels_file(path) == qrels


def test_qrels_rejects_bad_grade(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("T1 0 a 5\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_qrels_file(path)


def test_judgments_file(tmp_path):
    path = tmp_path / "judg.tsv"
    path.write_text("T1\t1\t2\nT1\t2\t0\nT2\t1\t1\n", encoding="utf-8")
    assert read_judgments_file(path) == {"T1": {1: 2, 2: 0}, "T2": {1: 1}}


def test_evaluate_suggestions_rejects_mixed_systems():
    sets = [
        make_suggestion_set("T1", "STR", [("a", 1.0)]),
        make_suggestion_set("T1", "WIKI_ENTITY", [("b", 1.0)]),
    ]
    with pytest.raises(DataError):
        evaluate_suggestions(sets, {})


def test_evaluate_suggestions_report():
    sets = [
        make_suggestion_set("T1", "STR", [("a", 1.0), ("b", 0.5)]),
        make_suggestion_set("T2", "STR", [("c", 1.0)]),
    ]
    judgments = {"T1": {1: 2, 2: 1}, "T2": {1: 0}}
    report = evaluate_suggestions(sets, judgments)
    assert report.per_topic["T1"] == {"weak": 1.0, "strong": 0.5}
    assert report.per_topic["T2"] == {"weak": 0.0, "strong": 0.0}
    assert report.means["weak"] == 0.5
    assert isinstance(report, MetricReport)
