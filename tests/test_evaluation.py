import logging
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_average_precision, naive_r_precision, naive_run_file_text, naive_se_precision
from sparse_expand import evaluation
from sparse_expand.errors import DataError
from sparse_expand.evaluation import (
    GRADES,
    MetricReport,
    average_precision,
    evaluate_run,
    evaluate_suggestions,
    r_precision,
    read_judgments_file,
    read_qrels_file,
    read_run_file,
    run_text,
    se_precision,
    write_run_file,
)
from sparse_expand.index import Hits
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


def _hits(docs):
    return Hits(docs, [float(len(docs) - i) for i in range(len(docs))])


def test_evaluate_run_two_topic_mean():
    run = {
        "T1": _hits(["a", "x", "b"]),
        "T2": _hits(["y", "c"]),
    }
    qrels = {"T1": {"a": 1, "b": 1}, "T2": {"c": 2, "d": 1}}
    report = evaluate_run(run, qrels)
    ap1 = (1 + 2 / 3) / 2
    ap2 = (1 / 2) / 2
    assert report.per_topic["T1"]["ap"] == pytest.approx(ap1)
    assert report.per_topic["T2"]["ap"] == pytest.approx(ap2)
    assert report.means["ap"] == pytest.approx((ap1 + ap2) / 2)


def test_evaluate_run_topic_missing_from_run_scores_zero():
    run = {"T1": _hits(["a"])}
    qrels = {"T1": {"a": 1}, "T2": {"b": 1}}
    report = evaluate_run(run, qrels)
    assert report.per_topic["T2"] == {"ap": 0.0, "r_precision": 0.0}
    assert report.means["ap"] == pytest.approx(0.5)


def test_evaluate_run_skips_zero_relevant_topics():
    run = {"T1": _hits(["a"])}
    qrels = {"T1": {"a": 1}, "T3": {"x": 0}}
    report = evaluate_run(run, qrels)
    assert "T3" not in report.per_topic
    assert report.means["ap"] == 1.0


def test_evaluate_run_warns_on_unjudged_topic(caplog):
    run = {"T1": _hits(["a"]), "T9": _hits(["z"])}
    qrels = {"T1": {"a": 1}}
    with caplog.at_level(logging.WARNING):
        report = evaluate_run(run, qrels)
    assert "T9" in caplog.text
    assert list(report.per_topic) == ["T1"]


def test_evaluate_run_depth_cap():
    run = {"T1": _hits(["x", "a"])}
    qrels = {"T1": {"a": 1}}
    assert evaluate_run(run, qrels, depth=1).per_topic["T1"]["ap"] == 0.0


def test_metrics_invariant_under_score_rescaling():
    docs = ["a", "x", "b"]
    qrels = {"T": {"a": 1, "b": 2}}
    low = {"T": Hits(docs, [3.0 - i for i in range(len(docs))])}
    high = {"T": Hits(docs, [300.0 - i * 10 for i in range(len(docs))])}
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
        "T1": _hits(["a", "x"]),
        "T2": _hits(["y", "b"]),
        "T3": _hits(["c"]),
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
    run = {"T1": _hits(["a", "b", "c"]), "T2": _hits(["x"])}
    path = tmp_path / "run.trec"
    write_run_file(path, run, "t")
    assert read_run_file(path) == run
    lines = path.read_text().splitlines()
    assert lines[0] == "T1 Q0 a 1 3.000000 t"
    assert lines[-1] == "T2 Q0 x 1 1.000000 t"


def test_run_file_reader_orders_each_topic_by_rank(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("T1 Q0 b 2 1.0 t\nT2 Q0 x 1 5.0 u\nT1 Q0 a 1 2.0 t\n", encoding="utf-8")
    assert read_run_file(path) == {
        "T1": Hits(["a", "b"], [2.0, 1.0]),
        "T2": Hits(["x"], [5.0]),
    }


@pytest.mark.parametrize("ranks", [(0, 1), (2, 3), (1, 1)])
def test_run_file_rejects_ranks_that_are_not_one_to_k(tmp_path, ranks):
    path = tmp_path / "run.trec"
    path.write_text(f"T1 Q0 a {ranks[0]} 2.0 t\nT1 Q0 b {ranks[1]} 1.0 t\n", encoding="utf-8")
    with pytest.raises(DataError, match="ranks must be contiguous from 1"):
        read_run_file(path)


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


def _write_qrels(path, qrels):
    lines = [f"{topic} 0 {doc} {grade}\n" for topic, grades in qrels.items() for doc, grade in grades.items()]
    path.write_text("".join(lines), encoding="utf-8")


def test_qrels_round_trip(tmp_path):
    qrels = {"T1": {"a": 2, "b": 0}, "T2": {"c": 1}}
    path = tmp_path / "qrels.txt"
    _write_qrels(path, qrels)
    assert read_qrels_file(path) == qrels


_IDS = st.text(min_size=1, max_size=8).filter(lambda s: not any(map(str.isspace, s)))


@settings(max_examples=200)
@given(
    qrels=st.dictionaries(
        _IDS, st.dictionaries(_IDS, st.sampled_from(GRADES), min_size=1, max_size=4), max_size=4
    )
)
def test_qrels_round_trip_property(tmp_path_factory, qrels):
    path = tmp_path_factory.mktemp("qrels") / "qrels.txt"
    _write_qrels(path, qrels)
    assert read_qrels_file(path) == qrels


def test_qrels_rejects_bad_grade(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("T1 0 a 5\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_qrels_file(path)


def test_judgments_file(tmp_path):
    path = tmp_path / "judg.tsv"
    path.write_text("T1\t1\t2\nT1\t2\t0\n T2 \t1\t1\n", encoding="utf-8")
    assert read_judgments_file(path) == {"T1": {1: 2, 2: 0}, "T2": {1: 1}}
    for topic_id, problem in (("T 1", "contains whitespace"), ("", "is empty")):
        path.write_text(f"T1\t1\t2\n{topic_id}\t1\t1\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"judg.tsv:2: topic id {topic_id!r} {problem}")):
            read_judgments_file(path)


# Ids and tags the writer's `%` format must keep as they are.
_RUN_IDS = st.one_of(st.sampled_from(["%", "%s", "%%", "a%d", "%.6f%"]), st.text("%sdQ0.-", min_size=1, max_size=5), _IDS)


@st.composite
def _runs(draw):
    """Runs with `%` in their ids, tied scores and topics with no hits."""
    run = {}
    for topic_id in draw(st.lists(_RUN_IDS, unique=True, max_size=4)):
        doc_ids = draw(st.lists(_RUN_IDS, unique=True, max_size=6))
        score = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(allow_nan=False, allow_infinity=False)
        scores = draw(st.lists(score, min_size=len(doc_ids), max_size=len(doc_ids)))
        run[topic_id] = Hits(doc_ids, sorted(scores, reverse=True))
    return run


@settings(max_examples=300)
@given(run=_runs(), run_tag=_RUN_IDS)
def test_run_file_bytes_match_a_line_by_line_writer(tmp_path_factory, run, run_tag):
    path = tmp_path_factory.mktemp("run") / "run.trec"
    write_run_file(path, run, run_tag)
    pairs = {topic_id: zip(hits.doc_ids, hits.scores) for topic_id, hits in run.items()}
    assert path.read_bytes() == naive_run_file_text(pairs, run_tag).encode("utf-8")
    read = read_run_file(path)
    assert {t: hits.doc_ids for t, hits in read.items()} == {t: hits.doc_ids for t, hits in run.items() if hits}


@pytest.mark.parametrize(
    "run",
    [
        {"T 1": Hits(["a"], [1.0])},
        {"": Hits(["a"], [1.0])},
        {"T1": Hits(["a", "a b"], [2.0, 1.0])},
        {"T1": Hits([""], [1.0])},
        {"T1": Hits(["a\u2028"], [1.0])},
    ],
)
def test_run_writer_rejects_an_id_the_reader_could_not_split(tmp_path, run):
    path = tmp_path / "run.trec"
    with pytest.raises(DataError, match="is empty or contains whitespace"):
        write_run_file(path, run, "t")
    assert not path.exists()


@pytest.mark.parametrize("run_tag", ["a b", "", "t\n"])
def test_run_writer_rejects_a_run_tag_the_reader_could_not_split(tmp_path, run_tag):
    path = tmp_path / "run.trec"
    with pytest.raises(DataError, match=re.escape(f"run id {run_tag!r} is empty or contains whitespace")):
        write_run_file(path, {"T1": Hits(["a"], [1.0])}, run_tag)
    assert not path.exists()


@pytest.mark.parametrize(
    "hits,message",
    [
        (Hits(["a"], [math.nan]), "score must be finite"),
        (Hits(["a", "b"], [2.0, math.inf]), "score must be finite"),
        (Hits(["a", "a"], [2.0, 1.0]), "duplicate doc_id"),
        (Hits(["a", "b"], [1.0, 2.0]), "scores increase with rank"),
    ],
)
def test_run_writer_rejects_hits_the_reader_would_reject(tmp_path, hits, message):
    path = tmp_path / "run.trec"
    run = {"T0": Hits(["x"], [1.0]), "T1": hits}
    with pytest.raises(DataError, match=re.escape(f"run for topic 'T1': {message}")):
        write_run_file(path, run, "t")
    assert not path.exists()


def test_run_writer_failing_mid_write_or_on_the_last_topic_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "run.trec"
    path.write_bytes(b"old\n")
    # A block that fails as it is drawn, after the earlier topics' blocks
    # were written to the temporary file.
    block = evaluation._run_block

    def failing(topic, hits, tag):
        if topic == "T1":
            raise RuntimeError("block")
        return block(topic, hits, tag)

    monkeypatch.setattr(evaluation, "_run_block", failing)
    run = {"T0": Hits(["x"], [1.0]), "T1": Hits(["y"], [1.0])}
    with pytest.raises(RuntimeError, match="block"):
        write_run_file(path, run, "t")
    monkeypatch.undo()
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.trec"]
    # Every topic is checked before the write starts, which would first
    # make the target's directory.
    run = {"T0": Hits(["x"], [1.0]), "T1": Hits(["y"], [1.0]), "T2": Hits(["a", "b"], [1.0, 2.0])}
    with pytest.raises(DataError, match=re.escape("run for topic 'T2': scores increase with rank")):
        write_run_file(tmp_path / "new" / "run.trec", run, "t")
    assert [p.name for p in tmp_path.iterdir()] == ["run.trec"]


@pytest.mark.parametrize(
    "run,run_tag,bad",
    [
        ({"T0": Hits(["x"], [1.0]), "T1": Hits(["y", "d\ud800"], [2.0, 1.0])}, "t", "d\ud800"),
        ({"T0": Hits(["x"], [1.0]), "T\udfff": Hits(["y"], [1.0])}, "t", "T\udfff"),
        ({"T0": Hits(["x"], [1.0])}, "t\ud800", "t\ud800"),
    ],
)
def test_run_writer_rejects_a_lone_surrogate_before_writing(tmp_path, run, run_tag, bad):
    path = tmp_path / "run.trec"
    path.write_bytes(b"old\n")
    message = f"run id {bad!r} holds a lone surrogate, which UTF-8 cannot encode"
    with pytest.raises(DataError, match=re.escape(message)):
        write_run_file(path, run, run_tag)
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.trec"]
    with pytest.raises(DataError, match=re.escape(message)):
        run_text(run, run_tag)


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
