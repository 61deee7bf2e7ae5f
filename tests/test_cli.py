import json
import os
from pathlib import Path

import pytest

from conftest import build_pipeline_workspace, write_docs_file, write_topics_file
from sparse_expand.cli import main
from sparse_expand.corpus import Document, Topic


def _coverage_fixture(tmp_path) -> Path:
    """Fifty documents: 7 carry dc:contributor, all carry europeana:country."""
    docs = []
    for i in range(50):
        fields = {"dc:title": (f"title {i}",), "europeana:country": ("europe",)}
        if i < 7:
            fields["dc:contributor"] = ("someone",)
        docs.append(Document(f"d{i:02d}", "en", fields))
    return write_docs_file(tmp_path / "docs.jsonl", docs)


def _table1_topics_fixture(tmp_path) -> Path:
    titles = ["one"] * 7 + ["two words"] * 42 + ["a b c d e f"]
    topics = [Topic(f"T-{i:03d}", t, "en") for i, t in enumerate(titles)]
    return write_topics_file(tmp_path / "topics.jsonl", topics)


def test_corpus_stats_table(tmp_path, capsys):
    docs = _coverage_fixture(tmp_path)
    assert main(["corpus", "stats", "--docs", str(docs)]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split() for line in out.splitlines() if line}
    assert rows["dc:contributor"][1:] == ["7", "14"]
    assert rows["europeana:country"][1:] == ["50", "100"]
    assert rows["dcterms:hasPart"][1:] == ["0", "0"]


def test_corpus_stats_tsv(tmp_path, capsys):
    docs = _coverage_fixture(tmp_path)
    assert main(["corpus", "stats", "--docs", str(docs), "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert "dc:contributor\t7\t14" in out.splitlines()


def test_corpus_topic_stats(tmp_path, capsys):
    topics = _table1_topics_fixture(tmp_path)
    assert main(["corpus", "topic-stats", "--topics", str(topics)]) == 0
    out = capsys.readouterr().out
    title_row = next(line.split() for line in out.splitlines() if line.startswith("title"))
    assert title_row == ["title", "1.94", "2", "1", "6"]


def test_index_build_and_search(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=40, n_topics=2)
    index_dir = tmp_path / "idx"
    assert main(["index", "build", "--docs", workspace["docs"], "--out", str(index_dir)]) == 0
    assert (index_dir / "index.bin").exists()

    queries = tmp_path / "queries.tsv"
    queries.write_text("T-000\tchic_all-en:(film OR canada)^2\n", encoding="utf-8")
    run_file = tmp_path / "run.trec"
    assert (
        main(
            [
                "index",
                "search",
                "--index",
                str(index_dir),
                "--query-file",
                str(queries),
                "-k",
                "5",
                "--out",
                str(run_file),
            ]
        )
        == 0
    )
    lines = run_file.read_text().splitlines()
    assert lines, "expected at least one result"
    assert lines[0].split()[:2] == ["T-000", "Q0"]


def test_suggest_str_writes_file(tmp_path):
    workspace = build_pipeline_workspace(tmp_path, n_docs=60, n_topics=3)
    index_dir = tmp_path / "idx"
    main(["index", "build", "--docs", workspace["docs"], "--out", str(index_dir)])
    out_file = tmp_path / "str.tsv"
    code = main(
        [
            "suggest",
            "str",
            "--index",
            str(index_dir),
            "--topics",
            workspace["topics"],
            "--k",
            "10",
            "--similarity",
            "log",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    for line in out_file.read_text().splitlines():
        assert line.split("\t")[4] == "STR"


def test_suggest_wiki_lead_stdout(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    code = main(
        [
            "suggest",
            "wiki-lead",
            "--articles",
            workspace["articles"],
            "--topics",
            workspace["topics"],
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out
    assert all(line.split("\t")[4] == "WIKI_ENTITY" for line in out.splitlines())


def test_suggest_docsim_label(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    code = main(
        [
            "suggest",
            "docsim",
            "--corpus",
            workspace["back_corpus"],
            "--seeds",
            workspace["seeds"],
            "--n",
            "10",
            "--label",
            "WIKI_BACK",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        assert line.split("\t")[4] == "WIKI_BACK"


def test_combo_and_expand_and_eval(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=60, n_topics=3)
    index_dir = tmp_path / "idx"
    main(["index", "build", "--docs", workspace["docs"], "--out", str(index_dir)])

    str_file = tmp_path / "str.tsv"
    main(
        ["suggest", "str", "--index", str(index_dir), "--topics", workspace["topics"],
         "--out", str(str_file)]
    )
    wiki_file = tmp_path / "wiki.tsv"
    main(
        ["suggest", "wiki-lead", "--articles", workspace["articles"], "--topics",
         workspace["topics"], "--out", str(wiki_file)]
    )

    combo_file = tmp_path / "combo.tsv"
    assert (
        main(
            ["combo", "--inputs", str(str_file), "--inputs", str(wiki_file), "--k", "10",
             "--out", str(combo_file)]
        )
        == 0
    )
    assert all(
        line.split("\t")[4] == "COMBO" for line in combo_file.read_text().splitlines()
    )

    queries_file = tmp_path / "queries.tsv"
    assert (
        main(
            ["expand", "--topics", workspace["topics"], "--suggestions", str(combo_file),
             "--boost", "2", "--out", str(queries_file)]
        )
        == 0
    )
    content = queries_file.read_text()
    assert ")^2 OR chic_all-en:(" in content

    run_file = tmp_path / "run.trec"
    main(
        ["index", "search", "--index", str(index_dir), "--query-file", str(queries_file),
         "--run-tag", "COMBO", "--out", str(run_file)]
    )
    assert (
        main(["eval", "adhoc", "--run", str(run_file), "--qrels", workspace["qrels"]]) == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("mean")


def test_eval_se(tmp_path, capsys):
    suggestions = tmp_path / "sugg.tsv"
    suggestions.write_text(
        "T1\t1\talpha\t1.000000\tSTR\nT1\t2\tbeta\t0.500000\tSTR\n", encoding="utf-8"
    )
    judgments = tmp_path / "judg.tsv"
    judgments.write_text("T1\t1\t2\nT1\t2\t1\n", encoding="utf-8")
    assert (
        main(["eval", "se", "--suggestions", str(suggestions), "--judgments", str(judgments)])
        == 0
    )
    out = capsys.readouterr().out
    assert "T1" in out and "1.0000" in out and "0.5000" in out


def test_run_pipeline_command(tmp_path):
    workspace = build_pipeline_workspace(tmp_path, n_docs=40, n_topics=2)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"version": 1, **{k: workspace[k] for k in ("docs", "topics", "out", "lang")}}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--system", "STR"]) == 0
    assert (Path(workspace["out"]) / "en" / "STR" / "run.trec").exists()


def test_exit_code_usage_error():
    assert main(["corpus", "stats"]) == 1  # --docs missing
    assert main(["no-such-command"]) == 1


def test_exit_code_config_error(tmp_path):
    assert main(["run", "--docs", "missing.jsonl", "--topics", "missing.jsonl",
                 "--out", str(tmp_path / "o"), "--system", "STR"]) == 1


def test_exit_code_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely not json\n", encoding="utf-8")
    assert main(["corpus", "stats", "--docs", str(bad)]) == 2


def test_index_build_on_an_id_with_whitespace_exits_2(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        '{"id": "a", "lang": "en", "fields": {"dc:title": ["whale"]}}\n'
        '{"id": "a b", "lang": "en", "fields": {"dc:title": ["ship"]}}\n',
        encoding="utf-8",
    )
    code = main(["index", "build", "--docs", str(docs), "--out", str(tmp_path / "idx")])
    assert code == 2
    assert "document id 'a b' contains whitespace" in capsys.readouterr().err
    lax = ["index", "build", "--docs", str(docs), "--out", str(tmp_path / "lax"), "--lax"]
    assert main(lax) == 0


def test_index_search_on_a_version_1_snapshot_exits_2(tmp_path, capsys):
    # tests/data/index_v1/index.bin: two documents, written by the version 1 format
    v1 = Path(__file__).parent / "data" / "index_v1"
    queries = tmp_path / "queries.tsv"
    queries.write_text("T-000\tchic_all-en:(whale)\n", encoding="utf-8")
    code = main(["index", "search", "--index", str(v1), "--query-file", str(queries)])
    assert code == 2
    assert "unsupported snapshot version 1" in capsys.readouterr().err


def test_exit_code_combo_prerequisite(tmp_path):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    code = main(
        ["run", "--docs", workspace["docs"], "--topics", workspace["topics"],
         "--out", workspace["out"], "--system", "COMBO"]
    )
    assert code == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sparse-expand" in capsys.readouterr().out


def test_stdout_holds_the_bytes_of_the_out_file(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=60, n_topics=3)
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text(
        "T-000\tchic_all-en:(film OR canada)^2\nT-001\tchic_all-en:(whale OR ship)\n",
        encoding="utf-8",
    )
    commands = [
        ["suggest", "str", "--index", index_dir, "--topics", workspace["topics"]],
        ["index", "search", "--index", index_dir, "--query-file", str(queries), "-k", "20"],
    ]
    for i, command in enumerate(commands):
        capsys.readouterr()
        assert main(command) == 0
        printed = capsys.readouterr().out
        out_file = tmp_path / f"out-{i}.txt"
        assert main(command + ["--out", str(out_file)]) == 0
        assert printed, command
        assert printed.encode("utf-8") == out_file.read_bytes(), command
        assert capsys.readouterr().out == ""


def test_a_failed_write_keeps_the_old_out_file(tmp_path, monkeypatch):
    workspace = build_pipeline_workspace(tmp_path, n_docs=40, n_topics=2)
    index_dir = tmp_path / "idx"
    build = ["index", "build", "--docs", workspace["docs"], "--out", str(index_dir)]
    assert main(build) == 0
    snapshot = (index_dir / "index.bin").read_bytes()
    out_dir = tmp_path / "suggestions"
    out_dir.mkdir()
    (out_dir / "str.tsv").write_text("old\n", encoding="utf-8")

    def disk_full(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", disk_full)
    assert main(build) == 2
    suggest = ["suggest", "str", "--index", str(index_dir), "--topics", workspace["topics"]]
    assert main(suggest + ["--out", str(out_dir / "str.tsv")]) == 2
    assert [p.name for p in index_dir.iterdir()] == ["index.bin"]
    assert (index_dir / "index.bin").read_bytes() == snapshot
    assert [p.name for p in out_dir.iterdir()] == ["str.tsv"]
    assert (out_dir / "str.tsv").read_text(encoding="utf-8") == "old\n"


@pytest.mark.parametrize("name", ["Blue%0AWhale.txt", "Whale%09Shark.txt"])
def test_suggest_docsim_on_a_title_with_a_newline_or_tab_exits_2(tmp_path, capsys, name):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / name).write_text("whale ocean ship", encoding="utf-8")
    (corpus_dir / "Ocean.txt").write_text("ocean whale harbor", encoding="utf-8")
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text("T-1\tOcean\n", encoding="utf-8")
    out_file = tmp_path / "docsim.tsv"
    code = main(
        ["suggest", "docsim", "--corpus", str(corpus_dir), "--seeds", str(seeds), "--n", "3",
         "--out", str(out_file)]
    )
    assert code == 2
    assert "contains whitespace other than spaces" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("tag", ["my run", "", "tab\there"])
def test_index_search_rejects_a_run_tag_with_whitespace(tmp_path, capsys, tag):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text("T-000\tchic_all-en:(whale)\n", encoding="utf-8")
    out_file = tmp_path / "run.trec"
    code = main(
        ["index", "search", "--index", index_dir, "--query-file", str(queries),
         "--run-tag", tag, "--out", str(out_file)]
    )
    assert code == 1
    assert "--run-tag" in capsys.readouterr().err
    assert not out_file.exists()


def test_index_build_on_a_language_without_a_profile_exits_2(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        '{"id": "a", "lang": "en", "fields": {"dc:title": ["whale"]}}\n'
        '{"id": "b", "lang": "xx", "fields": {"dc:title": ["ship"]}}\n',
        encoding="utf-8",
    )
    code = main(["index", "build", "--docs", str(docs), "--out", str(tmp_path / "idx")])
    assert code == 2
    assert "document 'b': no analyzer profile for language 'xx'" in capsys.readouterr().err
    lax = ["index", "build", "--docs", str(docs), "--out", str(tmp_path / "lax"), "--lax"]
    assert main(lax) == 0


def test_suggest_str_on_a_topic_line_that_is_not_an_object_exits_2(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    topics = tmp_path / "topics.jsonl"
    topics.write_text("[1]\n", encoding="utf-8")
    assert main(["suggest", "str", "--index", index_dir, "--topics", str(topics)]) == 2
    assert "line is not a JSON object" in capsys.readouterr().err


def test_eval_adhoc_on_a_nan_score_exits_2(tmp_path, capsys):
    run = tmp_path / "run.trec"
    run.write_text("T1 Q0 a 1 nan t\nT1 Q0 b 2 1.0 t\n", encoding="utf-8")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("T1 0 a 2\n", encoding="utf-8")
    assert main(["eval", "adhoc", "--run", str(run), "--qrels", str(qrels)]) == 2
    assert "score must be finite" in capsys.readouterr().err


def _option_args(workspace, tmp_path, command):
    """Valid arguments of `command`, which takes the option under test."""
    if command == "str":
        index_dir = str(tmp_path / "idx")
        assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
        return ["suggest", "str", "--index", index_dir, "--topics", workspace["topics"]]
    if command == "wiki-lead":
        return ["suggest", "wiki-lead", "--articles", workspace["articles"], "--topics", workspace["topics"]]
    if command == "docsim":
        return ["suggest", "docsim", "--corpus", workspace["sim_corpus"], "--seeds", workspace["seeds"]]
    if command == "search":
        index_dir = str(tmp_path / "idx")
        assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
        queries = tmp_path / "queries.tsv"
        queries.write_text("T-000\tchic_all-en:(whale)\n", encoding="utf-8")
        return ["index", "search", "--index", index_dir, "--query-file", str(queries)]
    if command == "eval":
        run = tmp_path / "run.trec"
        run.write_text("T-000 Q0 d0 1 2.0 t\n", encoding="utf-8")
        return ["eval", "adhoc", "--run", str(run), "--qrels", workspace["qrels"]]
    return ["expand", "--topics", workspace["topics"], "--out", str(tmp_path / "queries.tsv")]


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("str", "--k", "0"),
        ("wiki-lead", "--min-links", "0"),
        ("docsim", "--n", "0"),
        ("docsim", "--k", "-1"),
        ("search", "-k", "-1"),
        ("eval", "--depth", "-1"),
        ("expand", "--boost", "nan"),
        ("expand", "--boost", "inf"),
        ("expand", "--boost", "0"),
    ],
)
def test_out_of_range_numeric_options_are_usage_errors(tmp_path, capsys, command, option, value):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    args = _option_args(workspace, tmp_path, command)
    capsys.readouterr()
    assert main(args + [option, value]) == 1
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err
    assert main(args + [option, "1"]) == 0


@pytest.mark.parametrize(
    "option, value", [("--k", "0"), ("--n", "0"), ("--min-links", "0"), ("--boost", "nan"), ("--depth", "0")]
)
def test_run_rejects_out_of_range_numeric_options(tmp_path, capsys, option, value):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    args = ["run", "--docs", workspace["docs"], "--topics", workspace["topics"], "--out", workspace["out"]]
    assert main(args + [option, value]) == 1
    assert option in capsys.readouterr().err
    assert not Path(workspace["out"]).exists()
