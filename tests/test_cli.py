import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    OLDER_SNAPSHOTS,
    build_pipeline_workspace,
    tree_bytes,
    write_docs_file,
    write_topics_file,
)
import sparse_expand
from sparse_expand.analysis import chain_for
from sparse_expand.cli import main
from sparse_expand.corpus import Document, Topic
from sparse_expand.index import SNAPSHOT_FILENAME, build_index
from sparse_expand.suggestions import SYSTEMS


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


def test_eval_se_rejects_a_non_finite_score(tmp_path, capsys):
    # A nan between 1.0 and 5.0 would otherwise hide the rising score.
    suggestions = tmp_path / "sugg.tsv"
    suggestions.write_text(
        "T1\t1\talpha\t1.0\tSTR\nT1\t2\tbeta\tnan\tSTR\nT1\t3\tgamma\t5.0\tSTR\n",
        encoding="utf-8",
    )
    judgments = tmp_path / "judg.tsv"
    judgments.write_text("T1\t1\t2\nT1\t2\t1\nT1\t3\t0\n", encoding="utf-8")
    argv = ["eval", "se", "--suggestions", str(suggestions), "--judgments", str(judgments)]
    assert main(argv) == 2
    assert "suggestions for topic 'T1': score must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows,fault",
    [
        ("T1\t1\talpha\tnan\tSTR\n", "score must be finite"),
        ("T1\t1\talpha\t1.0\tSTR\nT1\t2\talpha\t0.5\tSTR\n", "duplicate text 'alpha'"),
        ("T1\t1\talpha\t0.5\tSTR\nT1\t2\tbeta\t1.0\tSTR\n", "scores increase with rank"),
    ],
)
def test_combo_names_the_suggestion_file_that_holds_a_faulty_set(tmp_path, capsys, rows, fault):
    ok, bad = tmp_path / "ok.tsv", tmp_path / "bad.tsv"
    ok.write_text("T1\t1\twhale\t1.0\tWIKI_ENTITY\n", encoding="utf-8")
    bad.write_text(rows, encoding="utf-8")
    argv = ["combo", "--inputs", str(ok), "--inputs", str(bad), "--out", str(tmp_path / "combo.tsv")]
    assert main(argv) == 2
    assert f"{bad}: suggestions for topic 'T1': {fault}" in capsys.readouterr().err
    assert not (tmp_path / "combo.tsv").exists()


def test_run_pipeline_command(tmp_path):
    workspace = build_pipeline_workspace(tmp_path, n_docs=40, n_topics=2)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"version": 1, **{k: workspace[k] for k in ("docs", "topics", "out", "lang")}}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--system", "STR"]) == 0
    assert (Path(workspace["out"]) / "en" / "STR" / "run.trec").exists()


@pytest.mark.parametrize("title", ["it's's whale", "it’s’s whale"])
def test_str_on_a_title_token_that_analyzes_to_no_term_exits_0(tmp_path, title):
    workspace = build_pipeline_workspace(tmp_path, n_docs=40, n_topics=2)
    topics = Path(workspace["topics"])
    topics.write_text(json.dumps({"id": "T-000", "lang": "en", "title": title}) + "\n", encoding="utf-8")
    args = ["--docs", workspace["docs"], "--topics", str(topics), "--out", workspace["out"]]
    assert main(["run", *args, "--system", "STR"]) == 0
    written = Path(workspace["out"]) / "en" / "STR" / "suggestions.tsv"
    assert written.read_text(encoding="utf-8")
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    out_file = tmp_path / "str.tsv"
    assert main(["suggest", "str", "--index", index_dir, "--topics", str(topics),
                 "--out", str(out_file)]) == 0
    assert out_file.read_text(encoding="utf-8") == written.read_text(encoding="utf-8")


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


def test_index_build_lax_on_a_field_named_chic_all_exits_2(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        '{"id": "a", "lang": "en", "fields": {"dc:title": ["whale"]}}\n'
        '{"id": "b", "lang": "en", "fields": {"chic_all": ["whale"], "dc:title": ["ship"]}}\n',
        encoding="utf-8",
    )
    out = tmp_path / "idx"
    assert main(["index", "build", "--docs", str(docs), "--out", str(out), "--lax"]) == 2
    assert "document 'b': field 'chic_all' is reserved for the union field" in capsys.readouterr().err
    assert not (out / SNAPSHOT_FILENAME).exists()


@pytest.mark.parametrize("version, directory", OLDER_SNAPSHOTS)
def test_index_search_on_an_older_snapshot_exits_2(tmp_path, capsys, version, directory):
    queries = tmp_path / "queries.tsv"
    queries.write_text("T-000\tchic_all-en:(whale)\n", encoding="utf-8")
    code = main(["index", "search", "--index", str(directory), "--query-file", str(queries)])
    assert code == 2
    assert f"unsupported snapshot version {version} (expected" in capsys.readouterr().err


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
    no_match = tmp_path / "no-match.tsv"
    no_match.write_text("T-000\tchic_all-en:(zyzzyva)\n", encoding="utf-8")
    commands = [
        ["suggest", "str", "--index", index_dir, "--topics", workspace["topics"]],
        ["suggest", "wiki-lead", "--articles", workspace["articles"], "--topics", workspace["topics"]],
        ["suggest", "docsim", "--corpus", workspace["sim_corpus"], "--seeds", workspace["seeds"]],
        ["index", "search", "--index", index_dir, "--query-file", str(queries), "-k", "20"],
        ["index", "search", "--index", index_dir, "--query-file", str(no_match)],
    ]
    for i, command in enumerate(commands):
        capsys.readouterr()
        assert main(command) == 0
        printed = capsys.readouterr().out
        out_file = tmp_path / f"out-{i}.txt"
        assert main(command + ["--out", str(out_file)]) == 0
        assert bool(printed) == (command[-1] != str(no_match)), command
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
    assert "topics.jsonl:1: not a JSON object" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["combo", "expand", "docsim", "run"])
def test_a_k_beyond_sys_maxsize_writes_what_k_1000_writes(tmp_path, command):
    workspace = build_pipeline_workspace(tmp_path, n_docs=40, n_topics=3)
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    str_file, wiki_file = str(tmp_path / "str.tsv"), str(tmp_path / "wiki.tsv")
    topics = ["--topics", workspace["topics"]]
    assert main(["suggest", "str", "--index", index_dir, *topics, "--out", str_file]) == 0
    assert main(["suggest", "wiki-lead", "--articles", workspace["articles"], *topics, "--out", wiki_file]) == 0
    argv = {
        "combo": ["combo", "--inputs", str_file, "--inputs", wiki_file, "--out"],
        "expand": ["expand", *topics, "--suggestions", str_file, "--suggestions", wiki_file, "--out"],
        "docsim": ["suggest", "docsim", "--corpus", workspace["sim_corpus"], "--seeds", workspace["seeds"], "--out"],
        "run": ["run", "--docs", workspace["docs"], *topics, "--system", "STR", "--system", "COMBO", "--out"],
    }[command]
    written = []
    for k in ("1000", str(sys.maxsize + 1)):
        out = tmp_path / f"k{k}"
        out.mkdir()
        assert main([*argv, str(out if command == "run" else out / "out.tsv"), "--k", k]) == 0
        # The manifest's config hash covers --k and --out.
        tree = tree_bytes(out)
        tree.pop("manifest.json", None)
        written.append(tree)
    assert written[0] and written[0] == written[1]


def _repeat_first_topic(workspace) -> None:
    topics = Path(workspace["topics"])
    lines = topics.read_text(encoding="utf-8").splitlines()
    topics.write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("qrels", [False, True])
def test_run_on_a_repeated_topic_id_exits_2_and_writes_nothing(tmp_path, capsys, qrels):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=3)
    _repeat_first_topic(workspace)
    args = ["run", "--docs", workspace["docs"], "--topics", workspace["topics"], "--out", workspace["out"]]
    if qrels:
        args += ["--qrels", workspace["qrels"]]
    assert main(args + ["--system", "STR"]) == 2
    assert "topics.jsonl:4: repeated topic id 'T-000'" in capsys.readouterr().err
    assert not Path(workspace["out"]).exists()


def _run_args(workspace, systems) -> list[str]:
    """`run` over every input of the workspace, qrels included."""
    args = ["run"]
    for key in ("docs", "topics", "out", "articles", "sim_corpus", "back_corpus", "seeds", "qrels"):
        args += [f"--{key.replace('_', '-')}", workspace[key]]
    return args + [arg for system in systems for arg in ("--system", system)]


def _append(path: Path, data: bytes) -> None:
    path.write_bytes(path.read_bytes() + data)


# Each fault breaks one input of `run` and returns the systems to request
# and the error `run` must report. All but the article fault surface only
# after some system's suggestions or run have been made.


def _repeated_seed_id(workspace):
    seeds = Path(workspace["seeds"])
    lines = seeds.read_bytes().splitlines(keepends=True)
    _append(seeds, lines[0])
    return SYSTEMS, f"{seeds}:{len(lines) + 1}: repeated topic id 'T-000'"


def _unknown_seed_title(workspace):
    seeds = Path(workspace["seeds"])
    lines = seeds.read_text(encoding="utf-8").splitlines()
    seeds.write_text("\n".join(["T-000\tNowhere", *lines[1:]]) + "\n", encoding="utf-8")
    return SYSTEMS, "seed not found: 'Nowhere'"


def _back_corpus_not_utf8(workspace):
    text = sorted(Path(workspace["back_corpus"]).glob("*.txt"))[0]
    _append(text, b"caf\xe9\n")
    return SYSTEMS, f"{text}:1: not UTF-8: invalid continuation byte"


def _malformed_generator_file(workspace):
    # COMBO reads WIKI_ENTITY's suggestions from disk when it is not requested.
    suggestions = Path(workspace["out"]) / "en" / "WIKI_ENTITY" / "suggestions.tsv"
    suggestions.parent.mkdir(parents=True, exist_ok=True)
    lines = len(suggestions.read_bytes().splitlines()) if suggestions.exists() else 0
    with suggestions.open("ab") as file:
        file.write(b"T-000\tfirst\tWhale\t0.5\tWIKI_ENTITY\n")
    return SYSTEMS[1:], f"{suggestions}:{lines + 1}: bad rank or score"


def _qrels_without_a_relevant_topic(workspace):
    qrels = Path(workspace["qrels"])
    lines = qrels.read_text(encoding="utf-8").splitlines()
    qrels.write_text("".join(line.rsplit(" ", 1)[0] + " 0\n" for line in lines), encoding="utf-8")
    return SYSTEMS, "no qrels topic has relevant documents"


def _article_not_utf8(workspace):
    article = sorted(Path(workspace["articles"]).glob("*.wiki"))[0]
    _append(article, b"caf\xe9\n")
    return SYSTEMS, f"{article}:4: not UTF-8: invalid continuation byte"


@pytest.mark.parametrize("earlier_run", [False, True], ids=["no-earlier-run", "earlier-run"])
@pytest.mark.parametrize(
    "fault",
    [
        _repeated_seed_id,
        _unknown_seed_title,
        _back_corpus_not_utf8,
        _malformed_generator_file,
        _qrels_without_a_relevant_topic,
        _article_not_utf8,
    ],
    ids=lambda fault: fault.__name__.lstrip("_"),
)
def test_run_on_a_faulty_input_exits_2_and_leaves_out_as_it_was(tmp_path, capsys, fault, earlier_run):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=3)
    if earlier_run:
        # With another k every file differs, so a rewritten one shows.
        assert main(_run_args(workspace, SYSTEMS) + ["--k", "2"]) == 0
        assert (Path(workspace["out"]) / "manifest.json").exists()
    systems, message = fault(workspace)
    before = tree_bytes(Path(workspace["out"]))
    capsys.readouterr()
    assert main(_run_args(workspace, systems)) == 2
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err and "Traceback" not in err
    assert tree_bytes(Path(workspace["out"])) == before


def test_expand_on_a_repeated_topic_id_exits_2(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=3)
    _repeat_first_topic(workspace)
    out_file = tmp_path / "queries.tsv"
    assert main(["expand", "--topics", workspace["topics"], "--out", str(out_file)]) == 2
    assert "topics.jsonl:4: repeated topic id 'T-000'" in capsys.readouterr().err
    assert not out_file.exists()


def test_index_search_on_a_repeated_topic_id_exits_2(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text("T-000\tchic_all-en:(whale)\nT-000\tchic_all-en:(ship)\n", encoding="utf-8")
    run_file = tmp_path / "run.trec"
    args = ["index", "search", "--index", index_dir, "--query-file", str(queries), "--out", str(run_file)]
    assert main(args) == 2
    assert "queries.tsv:2: repeated topic id 'T-000'" in capsys.readouterr().err
    assert not run_file.exists()


def test_index_search_on_a_topic_id_with_a_space_exits_2(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text("T-000\tchic_all-en:(ship)\nT 1\tchic_all-en:(whale)\n", encoding="utf-8")
    run_file = tmp_path / "run.trec"
    args = ["index", "search", "--index", index_dir, "--query-file", str(queries), "--out", str(run_file)]
    assert main(args) == 2
    assert "queries.tsv:2: topic id 'T 1' contains whitespace" in capsys.readouterr().err
    assert not run_file.exists()


def test_index_search_on_a_malformed_expression_names_its_line(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text("T-000\tchic_all-en:(ship)\nT-001\tchic_all-en:(whale\n", encoding="utf-8")
    run_file = tmp_path / "run.trec"
    args = ["index", "search", "--index", index_dir, "--query-file", str(queries), "--out", str(run_file)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{queries}:2: bad query expression at offset 18: expected OR or ): 'chic_all-en:(whale'" in err
    assert not run_file.exists()


@pytest.mark.parametrize("expression", ["f:(a) OR", "f:(a ORb)", "f:(a)ORg:(b)"])
def test_index_search_on_an_or_that_is_not_a_word_of_its_own_exits_2(tmp_path, capsys, expression):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text(f"T-000\tchic_all-en:(ship)\nT-001\t{expression}\n", encoding="utf-8")
    run_file = tmp_path / "run.trec"
    args = ["index", "search", "--index", index_dir, "--query-file", str(queries), "--out", str(run_file)]
    assert main(args) == 2
    assert f"{queries}:2: bad query expression at offset" in capsys.readouterr().err
    assert not run_file.exists()


@pytest.mark.parametrize("expression", ["f:(a)^\u0662", "f:(a)^\uff13"])
def test_index_search_on_a_boost_not_in_ascii_digits_exits_2(tmp_path, capsys, expression):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    index_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--docs", workspace["docs"], "--out", index_dir]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text(f"T-000\tchic_all-en:(ship)\nT-001\t{expression}\n", encoding="utf-8")
    run_file = tmp_path / "run.trec"
    args = ["index", "search", "--index", index_dir, "--query-file", str(queries), "--out", str(run_file)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{queries}:2: bad query expression at offset 5: expected OR between groups" in err
    assert not run_file.exists()


@pytest.mark.parametrize("doc_id", ["a b", ""])
def test_index_search_on_a_doc_id_the_run_file_cannot_hold_exits_2(tmp_path, capsys, doc_id):
    # Ingest rejects such ids; a library caller can still build and save them.
    docs = [Document(doc_id, "en", {"dc:title": ("whale",)}), Document("c", "en", {"dc:title": ("whale",)})]
    (tmp_path / "idx").mkdir()
    build_index(docs, {"en": chain_for("en")}).save(tmp_path / "idx" / SNAPSHOT_FILENAME)
    queries = tmp_path / "queries.tsv"
    queries.write_text("T1\tchic_all-en:(whale)\n", encoding="utf-8")
    run_file = tmp_path / "run.trec"
    args = ["index", "search", "--index", str(tmp_path / "idx"), "--query-file", str(queries)]
    assert main(args + ["--out", str(run_file)]) == 2
    assert f"run id {doc_id!r} is empty or contains whitespace" in capsys.readouterr().err
    assert not run_file.exists()
    assert main(args) == 2
    assert capsys.readouterr().out == ""


def test_eval_adhoc_on_a_repeated_qrels_line_exits_2(tmp_path, capsys):
    run = tmp_path / "run.trec"
    run.write_text("T1 Q0 a 1 1.0 t\n", encoding="utf-8")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("T1 0 a 2\nT2 0 a 1\nT1 0 b 1\nT1 0 a 0\n", encoding="utf-8")
    assert main(["eval", "adhoc", "--run", str(run), "--qrels", str(qrels)]) == 2
    assert "qrels.txt:4: repeated doc 'a' for topic 'T1'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "judgments, message",
    [
        ("T1\t1\t2\nT2\t1\t1\nT1\t1\t0\n", "judg.tsv:3: repeated rank 1 for topic 'T1'"),
        ("T1\t0\t2\n", "judg.tsv:1: rank must be at least 1"),
        ("T1\t1\t2\nT1\t-3\t1\n", "judg.tsv:2: rank must be at least 1"),
    ],
)
def test_eval_se_on_a_repeated_or_non_positive_rank_exits_2(tmp_path, capsys, judgments, message):
    suggestions = tmp_path / "sugg.tsv"
    suggestions.write_text("T1\t1\talpha\t1.000000\tSTR\n", encoding="utf-8")
    (tmp_path / "judg.tsv").write_text(judgments, encoding="utf-8")
    argv = ["eval", "se", "--suggestions", str(suggestions), "--judgments", str(tmp_path / "judg.tsv")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["wiki-lead", "docsim"])
def test_suggest_lang_outside_the_analyzer_profiles_is_a_usage_error(tmp_path, capsys, command):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    args = _option_args(workspace, tmp_path, command)
    capsys.readouterr()
    assert main(args + ["--lang", "fr"]) == 1
    err = capsys.readouterr().err
    assert "--lang" in err and "Traceback" not in err
    assert main(args + ["--lang", "en"]) == 0


def _non_utf8_case(workspace, tmp_path, which):
    """Arguments of a command that reads the input `which`, after a byte
    that is not UTF-8 went into that input."""
    bad = b"caf\xe9\n"
    index_dir = str(tmp_path / "idx")
    if which == "docs":
        Path(workspace["docs"]).write_bytes(Path(workspace["docs"]).read_bytes() + bad)
        return ["index", "build", "--docs", workspace["docs"], "--out", index_dir], "docs.jsonl"
    if which == "stopwords":
        stopwords = tmp_path / "stop.txt"
        stopwords.write_bytes(b"the\n" + bad)
        args = ["index", "build", "--docs", workspace["docs"], "--out", index_dir]
        return args + ["--stopwords", str(stopwords)], "stop.txt"
    if which == "topics":
        Path(workspace["topics"]).write_bytes(Path(workspace["topics"]).read_bytes() + bad)
        return ["expand", "--topics", workspace["topics"], "--out", str(tmp_path / "q.tsv")], "topics.jsonl"
    if which == "config":
        config = tmp_path / "config.json"
        config.write_bytes(b'{"version": 1, "docs": "' + bad.strip() + b'"}')
        return ["run", "--config", str(config)], "config.json"
    if which == "wiki":
        article = next(Path(workspace["articles"]).glob("*.wiki"))
        article.write_bytes(article.read_bytes() + bad)
        args = ["suggest", "wiki-lead", "--articles", workspace["articles"], "--topics", workspace["topics"]]
        return args, article.name
    if which == "txt":
        text = next(Path(workspace["sim_corpus"]).glob("*.txt"))
        text.write_bytes(text.read_bytes() + bad)
        args = ["suggest", "docsim", "--corpus", workspace["sim_corpus"], "--seeds", workspace["seeds"]]
        return args, text.name
    Path(workspace["seeds"]).write_bytes(Path(workspace["seeds"]).read_bytes() + bad)
    args = ["suggest", "docsim", "--corpus", workspace["sim_corpus"], "--seeds", workspace["seeds"]]
    return args, "seeds.tsv"


@pytest.mark.parametrize("which", ["docs", "stopwords", "topics", "config", "wiki", "txt", "seeds"])
def test_an_input_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, which):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    args, name = _non_utf8_case(workspace, tmp_path, which)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert name in err and "not UTF-8" in err and "Traceback" not in err


def test_suggest_docsim_on_a_file_name_that_is_not_utf8_exits_2(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    name = os.path.join(os.fsencode(workspace["sim_corpus"]), b"Whale\xff.txt")
    os.close(os.open(name, os.O_WRONLY | os.O_CREAT))
    args = ["suggest", "docsim", "--corpus", workspace["sim_corpus"], "--seeds", workspace["seeds"]]
    assert main(args) == 2
    assert "file name 'Whale\\udcff.txt' is not UTF-8" in capsys.readouterr().err


def test_suggest_docsim_on_a_repeated_seed_topic_id_exits_2(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=3)
    seeds = Path(workspace["seeds"])
    first = seeds.read_text(encoding="utf-8").splitlines()[0]
    seeds.write_text(seeds.read_text(encoding="utf-8") + first + "\n", encoding="utf-8")
    out_file = tmp_path / "docsim.tsv"
    args = ["suggest", "docsim", "--corpus", workspace["sim_corpus"], "--seeds", str(seeds),
            "--out", str(out_file)]
    assert main(args) == 2
    assert "seeds.tsv:4: repeated topic id 'T-000'" in capsys.readouterr().err
    assert not out_file.exists()


def test_suggest_docsim_on_a_seed_topic_id_with_whitespace_exits_2(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=3)
    seeds = Path(workspace["seeds"])
    seeds.write_text("T 1\tWhale\n", encoding="utf-8")
    out_file = tmp_path / "docsim.tsv"
    args = ["suggest", "docsim", "--corpus", workspace["sim_corpus"], "--seeds", str(seeds),
            "--out", str(out_file)]
    assert main(args) == 2
    assert "seeds.tsv:1: topic id 'T 1' contains whitespace" in capsys.readouterr().err
    assert not out_file.exists()


def test_expand_skips_a_topic_whose_language_has_no_profile(tmp_path, caplog):
    topics = tmp_path / "topics.jsonl"
    topics.write_text(
        '{"id": "T1", "lang": "fr", "title": "baleine"}\n'
        '{"id": "T2", "lang": "en", "title": "whale"}\n',
        encoding="utf-8",
    )
    out_file = tmp_path / "queries.tsv"
    assert main(["expand", "--topics", str(topics), "--out", str(out_file)]) == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in lines] == ["T2"]
    assert "topic 'T1': no analyzer profile for language 'fr'; topic skipped" in caplog.text


def test_suggest_wiki_lead_skips_a_topic_of_another_language(tmp_path, caplog):
    articles = tmp_path / "articles"
    articles.mkdir()
    (articles / "Whale.wiki").write_text("[[Ocean]] [[Mammal]] [[Krill]]", encoding="utf-8")
    (articles / "Moby-Dick.wiki").write_text("[[Herman Melville]] [[Novel]]", encoding="utf-8")
    en_only, mixed = tmp_path / "en.jsonl", tmp_path / "mixed.jsonl"
    en_topics = [Topic("T1", "whales", "en"), Topic("T3", "moby dick", "en")]
    write_topics_file(en_only, en_topics)
    write_topics_file(mixed, [en_topics[0], Topic("T2", "whales", "de"), en_topics[1]])
    outputs = []
    for topics in (en_only, mixed):
        out_file = tmp_path / f"{topics.stem}.tsv"
        argv = ["suggest", "wiki-lead", "--articles", str(articles), "--topics", str(topics), "--lang", "en"]
        assert main(argv + ["--out", str(out_file)]) == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]
    assert {line.split("\t")[0] for line in outputs[1].decode().splitlines()} == {"T1", "T3"}
    assert "topic 'T2': language 'de' is not --lang 'en'; topic skipped" in caplog.text
    assert caplog.text.count("topic skipped") == 1


# Byte edits: each replaces the byte at a position with zero to three
# bytes (zero deletes it), drawn at random or from bytes the readers
# treat specially.
_EDITS = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.binary(max_size=3)
        | st.sampled_from([b"\t", b"\n", b"\r", b"\x00", b"\xff", b"\xc3", b" ", b"%", b"\xe2\x80\xa8"]),
    ),
    max_size=5,
)


def _mutated(data: bytes, edits) -> bytes:
    for position, replacement in edits:
        at = position % (len(data) + 1)
        data = data[:at] + replacement + data[at + 1 :]
    return data


@pytest.fixture(scope="module")
def docsim_inputs(tmp_path_factory):
    return build_pipeline_workspace(tmp_path_factory.mktemp("docsim-fuzz"), n_docs=30, n_topics=4)


@settings(max_examples=60, deadline=None)
@given(
    seed_edits=_EDITS,
    corpus_edits=_EDITS,
    which=st.integers(0, 10**6),
    k=st.integers(1, 50),
    n=st.integers(1, 10**6),
)
def test_suggest_docsim_on_mutated_inputs_exits_with_a_documented_code(
    tmp_path_factory, docsim_inputs, seed_edits, corpus_edits, which, k, n
):
    work = tmp_path_factory.mktemp("case")
    seeds = work / "seeds.tsv"
    seeds.write_bytes(_mutated(Path(docsim_inputs["seeds"]).read_bytes(), seed_edits))
    corpus_dir = work / "sim"
    corpus_dir.mkdir()
    files = sorted(Path(docsim_inputs["sim_corpus"]).iterdir())
    for i, source in enumerate(files):
        data = source.read_bytes()
        if i == which % len(files):
            data = _mutated(data, corpus_edits)
        (corpus_dir / source.name).write_bytes(data)
    argv = ["suggest", "docsim", "--corpus", str(corpus_dir), "--seeds", str(seeds),
            "--k", str(k), "--n", str(n), "--out", str(work / "out.tsv")]
    assert main(argv) in (0, 1, 2)


@pytest.fixture(scope="module")
def index_inputs(tmp_path_factory):
    """A document file, its snapshot directory and a query file."""
    root = tmp_path_factory.mktemp("index-fuzz")
    workspace = build_pipeline_workspace(root, n_docs=30, n_topics=2)
    index_dir = root / "idx"
    assert main(["index", "build", "--docs", workspace["docs"], "--out", str(index_dir)]) == 0
    queries = root / "queries.tsv"
    queries.write_text(
        'T-000\tchic_all-en:(film OR canada)^2 OR chic_all-en:("old map" OR whale)\n'
        'T-001\tdc:title-en:(ship)^0.5 OR dc:subject-en:("film poster")\n',
        encoding="utf-8",
    )
    search = ["index", "search", "--index", str(index_dir), "--query-file", str(queries),
              "--out", str(root / "run.trec")]
    assert main(search) == 0
    return {
        "docs": Path(workspace["docs"]),
        "index": index_dir / "index.bin",
        "queries": queries,
        "topics": Path(workspace["topics"]),
    }


@settings(max_examples=40, deadline=None)
@given(doc_edits=_EDITS)
def test_index_build_on_mutated_docs_exits_with_a_documented_code(
    tmp_path_factory, index_inputs, doc_edits
):
    work = tmp_path_factory.mktemp("case")
    docs = work / "docs.jsonl"
    docs.write_bytes(_mutated(index_inputs["docs"].read_bytes(), doc_edits))
    assert main(["index", "build", "--docs", str(docs), "--out", str(work / "idx")]) in (0, 1, 2)


def _search_exit_code(work: Path, snapshot: bytes, queries: bytes) -> int:
    (work / "idx").mkdir()
    (work / "idx" / "index.bin").write_bytes(snapshot)
    (work / "queries.tsv").write_bytes(queries)
    return main(["index", "search", "--index", str(work / "idx"), "--query-file",
                 str(work / "queries.tsv"), "--out", str(work / "run.trec")])


@settings(max_examples=40, deadline=None)
@given(snapshot_edits=_EDITS)
def test_index_search_on_a_mutated_snapshot_exits_with_a_documented_code(
    tmp_path_factory, index_inputs, snapshot_edits
):
    snapshot = _mutated(index_inputs["index"].read_bytes(), snapshot_edits)
    queries = index_inputs["queries"].read_bytes()
    assert _search_exit_code(tmp_path_factory.mktemp("case"), snapshot, queries) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(query_edits=_EDITS)
def test_index_search_on_a_mutated_query_file_exits_with_a_documented_code(
    tmp_path_factory, index_inputs, query_edits
):
    snapshot = index_inputs["index"].read_bytes()
    queries = _mutated(index_inputs["queries"].read_bytes(), query_edits)
    assert _search_exit_code(tmp_path_factory.mktemp("case"), snapshot, queries) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(doc_edits=_EDITS, lax=st.booleans())
def test_corpus_stats_on_mutated_docs_exits_with_a_documented_code(
    tmp_path_factory, index_inputs, doc_edits, lax
):
    docs = tmp_path_factory.mktemp("case") / "docs.jsonl"
    docs.write_bytes(_mutated(index_inputs["docs"].read_bytes(), doc_edits))
    argv = ["corpus", "stats", "--docs", str(docs)] + (["--lax"] if lax else [])
    assert main(argv) in (0, 1, 2)


def _suggest_str_exit_code(work: Path, snapshot: bytes, topics: bytes) -> int:
    (work / "idx").mkdir()
    (work / "idx" / "index.bin").write_bytes(snapshot)
    (work / "topics.jsonl").write_bytes(topics)
    return main(["suggest", "str", "--index", str(work / "idx"), "--topics",
                 str(work / "topics.jsonl"), "--out", str(work / "out.tsv")])


@settings(max_examples=40, deadline=None)
@given(snapshot_edits=_EDITS)
def test_suggest_str_on_a_mutated_snapshot_exits_with_a_documented_code(
    tmp_path_factory, index_inputs, snapshot_edits
):
    snapshot = _mutated(index_inputs["index"].read_bytes(), snapshot_edits)
    topics = index_inputs["topics"].read_bytes()
    assert _suggest_str_exit_code(tmp_path_factory.mktemp("case"), snapshot, topics) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(topic_edits=_EDITS)
def test_suggest_str_on_a_mutated_topics_file_exits_with_a_documented_code(
    tmp_path_factory, index_inputs, topic_edits
):
    snapshot = index_inputs["index"].read_bytes()
    topics = _mutated(index_inputs["topics"].read_bytes(), topic_edits)
    assert _suggest_str_exit_code(tmp_path_factory.mktemp("case"), snapshot, topics) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(topic_edits=_EDITS)
def test_corpus_topic_stats_on_a_mutated_topics_file_exits_with_a_documented_code(
    tmp_path_factory, index_inputs, topic_edits
):
    topics = tmp_path_factory.mktemp("case") / "topics.jsonl"
    topics.write_bytes(_mutated(index_inputs["topics"].read_bytes(), topic_edits))
    assert main(["corpus", "topic-stats", "--topics", str(topics)]) in (0, 1, 2)


@pytest.fixture(scope="module")
def wiki_lead_inputs(tmp_path_factory):
    return build_pipeline_workspace(tmp_path_factory.mktemp("wiki-lead-fuzz"), n_docs=30, n_topics=6)


@settings(max_examples=40, deadline=None)
@given(article_edits=_EDITS, topic_edits=_EDITS, which=st.integers(0, 10**6))
def test_suggest_wiki_lead_on_mutated_inputs_exits_with_a_documented_code(
    tmp_path_factory, wiki_lead_inputs, article_edits, topic_edits, which
):
    work = tmp_path_factory.mktemp("case")
    topics = work / "topics.jsonl"
    topics.write_bytes(_mutated(Path(wiki_lead_inputs["topics"]).read_bytes(), topic_edits))
    articles = work / "articles"
    articles.mkdir()
    files = sorted(Path(wiki_lead_inputs["articles"]).iterdir())
    for i, source in enumerate(files):
        data = source.read_bytes()
        if i == which % len(files):
            data = _mutated(data, article_edits)
        (articles / source.name).write_bytes(data)
    argv = ["suggest", "wiki-lead", "--articles", str(articles), "--topics", str(topics),
            "--out", str(work / "out.tsv")]
    assert main(argv) in (0, 1, 2)


@pytest.fixture(scope="module")
def suggestion_inputs(tmp_path_factory):
    """A topics file and two systems' suggestion files for it."""
    root = tmp_path_factory.mktemp("suggestion-fuzz")
    workspace = build_pipeline_workspace(root, n_docs=30, n_topics=4)
    wiki, sim = root / "wiki.tsv", root / "sim.tsv"
    assert main(["suggest", "wiki-lead", "--articles", workspace["articles"], "--topics",
                 workspace["topics"], "--min-links", "1", "--out", str(wiki)]) == 0
    assert main(["suggest", "docsim", "--corpus", workspace["sim_corpus"], "--seeds",
                 workspace["seeds"], "--out", str(sim)]) == 0
    assert wiki.stat().st_size and sim.stat().st_size
    return {"topics": Path(workspace["topics"]), "suggestions": [wiki, sim]}


@settings(max_examples=40, deadline=None)
@given(edits=_EDITS, which=st.integers(0, 1), k=st.integers(1, 20))
def test_combo_on_a_mutated_suggestion_file_exits_with_a_documented_code(
    tmp_path_factory, suggestion_inputs, edits, which, k
):
    work = tmp_path_factory.mktemp("case")
    inputs = []
    for i, source in enumerate(suggestion_inputs["suggestions"]):
        data = source.read_bytes()
        inputs += ["--inputs", str(work / source.name)]
        (work / source.name).write_bytes(_mutated(data, edits) if i == which else data)
    argv = ["combo", *inputs, "--k", str(k), "--out", str(work / "combo.tsv")]
    assert main(argv) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(topic_edits=_EDITS, suggestion_edits=_EDITS)
def test_expand_on_mutated_topics_and_suggestions_exits_with_a_documented_code(
    tmp_path_factory, suggestion_inputs, topic_edits, suggestion_edits
):
    work = tmp_path_factory.mktemp("case")
    topics, suggestions = work / "topics.jsonl", work / "suggestions.tsv"
    topics.write_bytes(_mutated(suggestion_inputs["topics"].read_bytes(), topic_edits))
    suggestion_file = suggestion_inputs["suggestions"][0]
    suggestions.write_bytes(_mutated(suggestion_file.read_bytes(), suggestion_edits))
    argv = ["expand", "--topics", str(topics), "--suggestions", str(suggestions),
            "--out", str(work / "queries.tsv")]
    assert main(argv) in (0, 1, 2)


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A run, its qrels, a suggestion file and its judgments, from `run`."""
    root = tmp_path_factory.mktemp("eval-fuzz")
    workspace = build_pipeline_workspace(root, n_docs=30, n_topics=4)
    assert main(["run", "--docs", workspace["docs"], "--topics", workspace["topics"],
                 "--out", workspace["out"], "--system", "STR", "--k", "4"]) == 0
    system_dir = Path(workspace["out"]) / "en" / "STR"
    rows = [line.split("\t") for line in (system_dir / "suggestions.tsv").read_text("utf-8").splitlines()]
    judgments = root / "judgments.tsv"
    judgments.write_text(
        "".join(f"{topic}\t{rank}\t{i % 3}\n" for i, (topic, rank, *_) in enumerate(rows)), "utf-8"
    )
    return {
        "run": system_dir / "run.trec",
        "qrels": Path(workspace["qrels"]),
        "suggestions": system_dir / "suggestions.tsv",
        "judgments": judgments,
    }


@settings(max_examples=60, deadline=None)
@given(run_edits=_EDITS, qrels_edits=_EDITS, depth=st.integers(1, 10**6))
def test_eval_adhoc_on_mutated_inputs_exits_with_a_documented_code(
    tmp_path_factory, eval_inputs, run_edits, qrels_edits, depth
):
    work = tmp_path_factory.mktemp("case")
    run, qrels = work / "run.trec", work / "qrels.txt"
    run.write_bytes(_mutated(eval_inputs["run"].read_bytes(), run_edits))
    qrels.write_bytes(_mutated(eval_inputs["qrels"].read_bytes(), qrels_edits))
    argv = ["eval", "adhoc", "--run", str(run), "--qrels", str(qrels), "--depth", str(depth)]
    assert main(argv) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(suggestion_edits=_EDITS, judgment_edits=_EDITS)
def test_eval_se_on_mutated_inputs_exits_with_a_documented_code(
    tmp_path_factory, eval_inputs, suggestion_edits, judgment_edits
):
    work = tmp_path_factory.mktemp("case")
    suggestions, judgments = work / "suggestions.tsv", work / "judgments.tsv"
    suggestions.write_bytes(_mutated(eval_inputs["suggestions"].read_bytes(), suggestion_edits))
    judgments.write_bytes(_mutated(eval_inputs["judgments"].read_bytes(), judgment_edits))
    argv = ["eval", "se", "--suggestions", str(suggestions), "--judgments", str(judgments)]
    assert main(argv) in (0, 1, 2)


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    """Every input of a five-system `run`, and a config naming them."""
    root = tmp_path_factory.mktemp("run-fuzz")
    workspace = build_pipeline_workspace(root, n_docs=30, n_topics=2)
    keys = ("docs", "topics", "articles", "sim_corpus", "back_corpus", "seeds", "qrels", "lang")
    config = root / "config.json"
    config.write_text(
        json.dumps({"version": 1, **{k: workspace[k] for k in keys}, "k": 4, "min_links": 1}),
        encoding="utf-8",
    )
    assert main(_run_argv(config, root / "out")) == 0
    return {"config": config, "docs": Path(workspace["docs"]), "topics": Path(workspace["topics"])}


def _run_argv(config: Path, out: Path, *overrides: str) -> list[str]:
    """A five-system `run` on `config`; `--out` is given on the command
    line, so no edit of the config can send the output elsewhere."""
    systems = [arg for system in SYSTEMS for arg in ("--system", system)]
    return ["run", "--config", str(config), "--out", str(out), *overrides, *systems]


@settings(max_examples=30, deadline=None)
@given(config_edits=_EDITS)
def test_run_on_a_mutated_config_exits_with_a_documented_code(
    tmp_path_factory, run_inputs, config_edits
):
    work = tmp_path_factory.mktemp("case")
    config = work / "config.json"
    config.write_bytes(_mutated(run_inputs["config"].read_bytes(), config_edits))
    assert main(_run_argv(config, work / "out")) in (0, 1, 2)


@settings(max_examples=30, deadline=None)
@given(doc_edits=_EDITS, topic_edits=_EDITS)
def test_run_on_mutated_docs_and_topics_exits_with_a_documented_code(
    tmp_path_factory, run_inputs, doc_edits, topic_edits
):
    work = tmp_path_factory.mktemp("case")
    docs, topics = work / "docs.jsonl", work / "topics.jsonl"
    docs.write_bytes(_mutated(run_inputs["docs"].read_bytes(), doc_edits))
    topics.write_bytes(_mutated(run_inputs["topics"].read_bytes(), topic_edits))
    argv = _run_argv(run_inputs["config"], work / "out", "--docs", str(docs), "--topics", str(topics))
    assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("edit", ['"out": "o\\ud800"', '"k": 5, "k": 0'])
def test_run_on_a_malformed_config_exits_2_naming_it(tmp_path, capsys, edit):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    config = tmp_path / "config.json"
    keys = json.dumps({k: workspace[k] for k in ("docs", "topics")})
    config.write_text(f"{keys[:-1]}, {edit}}}", encoding="utf-8")
    assert main(["run", "--config", str(config), "--system", "STR"]) == 2
    err = capsys.readouterr().err
    assert f"{config}: " in err and "Traceback" not in err
    assert not Path(workspace["out"]).exists()


def test_run_on_a_config_with_min_links_below_one_is_a_usage_error(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({k: workspace[k] for k in ("docs", "topics", "out", "articles")} | {"min_links": -4}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--system", "WIKI_ENTITY"]) == 1
    assert "min_links must be >= 1" in capsys.readouterr().err
    assert not Path(workspace["out"]).exists()


def test_run_on_a_config_boost_beyond_the_float_range_exits_1(tmp_path, capsys):
    workspace = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=2)
    config = tmp_path / "config.json"
    keys = json.dumps({k: workspace[k] for k in ("docs", "topics", "out")})
    config.write_text(f'{keys[:-1]}, "boost": {"9" * 401}}}', encoding="utf-8")
    assert main(["run", "--config", str(config), "--system", "STR"]) == 1
    err = capsys.readouterr().err
    assert "boost must be finite" in err and "Traceback" not in err
    assert not Path(workspace["out"]).exists()


def _cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """`sparse-expand argv` in a fresh interpreter, whose logging starts
    unconfigured as a user's does."""
    src = str(Path(sparse_expand.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "sparse_expand.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def _stopword_only_topic_expand(tmp_path) -> list[str]:
    """`expand` arguments for topics where T1 is stopwords only, so it is
    skipped with a warning, and T2 builds a query."""
    topics = tmp_path / "topics.jsonl"
    topics.write_text(
        '{"id": "T1", "lang": "en", "title": "The of"}\n{"id": "T2", "lang": "en", "title": "whale"}\n',
        encoding="utf-8",
    )
    return ["expand", "--topics", str(topics), "--out", str(tmp_path / "queries.tsv")]


def test_quiet_flag_keeps_errors_only_on_stderr(tmp_path):
    expand = _stopword_only_topic_expand(tmp_path)
    stderr = {}
    for flags in ([], ["-q"], ["--quiet"]):
        done = _cli_process([*flags, *expand])
        assert (done.returncode, done.stdout) == (0, ""), done.stderr
        stderr[tuple(flags)] = done.stderr
    assert stderr[()] == "empty title: topic 'T1'; topic skipped\n"
    assert stderr[("-q",)] == stderr[("--quiet",)] == ""
    assert (tmp_path / "queries.tsv").read_text(encoding="utf-8") == "T2\tchic_all-en:(whale)^2\n"
    (tmp_path / "topics.jsonl").write_text('{"id": "T1", "lang": "en", "title": 5}\n', encoding="utf-8")
    done = _cli_process(["-q", *expand])
    assert done.returncode == 2 and done.stderr.startswith("error: ") and "topics.jsonl:1" in done.stderr


def test_quiet_flag_lasts_only_for_its_own_call(tmp_path, caplog):
    caplog.set_level(logging.WARNING)  # restored when the test ends
    expand = _stopword_only_topic_expand(tmp_path)
    warning = "empty title: topic 'T1'; topic skipped"
    assert main(["-q", *expand]) == 0
    assert warning not in caplog.text
    assert main(expand) == 0
    assert warning in caplog.text
