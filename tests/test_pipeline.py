import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse_expand
from conftest import build_pipeline_workspace, tree_bytes
from sparse_expand import evaluation, pipeline
from sparse_expand.cli import cli, main
from sparse_expand.corpus import Topic
from sparse_expand.errors import ConfigError, DataError
from sparse_expand.files import write_atomic
from sparse_expand.index import Hits
from sparse_expand.pipeline import (
    PipelineConfig,
    _write_metrics,
    config_validate,
    load_config,
    read_seeds_file,
    run_pipeline,
    select_topics,
)
from sparse_expand.suggestions import SuggestionSet, make_suggestion_set, read_suggestion_file


def _config(paths, **extra) -> PipelineConfig:
    allowed = set(PipelineConfig.__dataclass_fields__)
    merged = {k: v for k, v in paths.items() if k in allowed}
    merged.update(extra)
    return PipelineConfig(**merged)


def test_validate_missing_docs_named(tmp_path):
    problems = config_validate(PipelineConfig(topics="nope", out="o"), ["STR"])
    assert any("docs" in p for p in problems)


def test_validate_boost_range(tmp_path):
    paths = build_pipeline_workspace(tmp_path)
    problems = config_validate(_config(paths, boost=0.0), ["STR"])
    assert problems == ["boost must be positive"]


def test_validate_reports_all_errors(tmp_path):
    cfg = PipelineConfig(docs="", topics="", out="o", boost=-1.0)
    problems = config_validate(cfg, ["STR"])
    assert len(problems) >= 3  # docs, topics, boost at least


def test_validate_system_prerequisites(tmp_path):
    paths = build_pipeline_workspace(tmp_path)
    cfg = _config(paths, articles="", sim_corpus="")
    problems = config_validate(cfg, ["WIKI_ENTITY", "WIKI_SIM"])
    assert any("articles" in p for p in problems)
    assert any("sim_corpus" in p for p in problems)
    cfg = _config(paths, articles="", sim_corpus="", back_corpus="", seeds="")
    expected = [
        "missing articles (needed by WIKI_ENTITY)",
        "missing sim_corpus (needed by WIKI_SIM)",
        "missing seeds (needed by WIKI_SIM)",
        "missing back_corpus (needed by WIKI_BACK)",
        "missing seeds (needed by WIKI_BACK)",
    ]
    assert config_validate(cfg, ["WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK"]) == expected
    assert config_validate(cfg, ["WIKI_BACK", "WIKI_SIM", "WIKI_ENTITY"]) == expected


def test_run_reads_the_seeds_file_once(tmp_path, monkeypatch):
    paths = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=3)
    calls = []

    def counting(path):
        calls.append(path)
        return read_seeds_file(path)

    monkeypatch.setattr(pipeline, "read_seeds_file", counting)
    run_pipeline(_config(paths), ["WIKI_SIM", "WIKI_BACK"])
    assert calls == [paths["seeds"]]


def test_validate_unknown_system(tmp_path):
    paths = build_pipeline_workspace(tmp_path)
    problems = config_validate(_config(paths), ["NOPE"])
    assert any("unknown system" in p for p in problems)


def test_str_only_produces_two_files(tmp_path):
    paths = build_pipeline_workspace(tmp_path)
    paths.pop("qrels")
    cfg = _config(paths)
    written = run_pipeline(cfg, ["STR"])
    out = Path(paths["out"])
    assert (out / "en" / "STR" / "run.trec").exists()
    assert (out / "en" / "STR" / "suggestions.tsv").exists()
    assert not (out / "en" / "STR" / "metrics.tsv").exists()
    assert set(written) == {"STR", "manifest"}
    # isolation: no other system's output directory is touched
    assert [p.name for p in (out / "en").iterdir()] == ["STR"]


def test_pipeline_german_language(tmp_path):
    paths = build_pipeline_workspace(tmp_path, lang="de", n_docs=50, n_topics=3)
    written = run_pipeline(_config(paths), ["STR", "WIKI_ENTITY", "COMBO"])
    out = Path(paths["out"])
    for system in ("STR", "WIKI_ENTITY", "COMBO"):
        assert (out / "de" / system / "run.trec").exists(), system
    assert "COMBO" in written


def test_combo_without_inputs_fails(tmp_path):
    paths = build_pipeline_workspace(tmp_path)
    cfg = _config(paths)
    with pytest.raises(DataError) as exc:
        run_pipeline(cfg, ["COMBO"])
    assert "COMBO" in str(exc.value)


def test_combo_reads_prior_outputs_from_disk(tmp_path):
    paths = build_pipeline_workspace(tmp_path)
    cfg = _config(paths)
    run_pipeline(cfg, ["STR"])
    written = run_pipeline(cfg, ["COMBO"])
    assert "COMBO" in written
    combo_file = Path(paths["out"]) / "en" / "COMBO" / "suggestions.tsv"
    assert combo_file.exists()


def test_invalid_config_raises_before_work(tmp_path):
    cfg = PipelineConfig(docs="missing.jsonl", topics="missing.jsonl", out=str(tmp_path / "o"))
    with pytest.raises(ConfigError) as exc:
        run_pipeline(cfg, ["STR"])
    assert len(exc.value.problems) >= 2
    assert not (tmp_path / "o").exists()


def test_full_pipeline_writes_all_systems(tmp_path):
    paths = build_pipeline_workspace(tmp_path, n_docs=80, n_topics=4)
    cfg = _config(paths)
    systems = ["WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR", "COMBO"]
    written = run_pipeline(cfg, systems)
    out = Path(paths["out"])
    for system in systems:
        base = out / "en" / system
        assert (base / "run.trec").exists()
        assert (base / "suggestions.tsv").exists()
        assert (base / "metrics.tsv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["systems"] == systems
    assert manifest["language"] == "en"
    assert len(manifest["config_hash"]) == 64


def test_pipeline_deterministic(tmp_path):
    paths = build_pipeline_workspace(tmp_path, n_docs=60, n_topics=3)
    systems = ["WIKI_ENTITY", "STR", "COMBO"]
    out_a = tmp_path / "out-a"
    out_b = tmp_path / "out-b"
    run_pipeline(_config(paths, out=str(out_a)), systems)
    run_pipeline(_config(paths, out=str(out_b)), systems)
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        if rel.name == "manifest.json":
            continue  # differs: the config contains the output path
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_pipeline_rejects_wrong_language_topics(tmp_path):
    paths = build_pipeline_workspace(tmp_path)
    cfg = _config(paths, lang="de")
    with pytest.raises((DataError, ConfigError)):
        run_pipeline(cfg, ["STR"])


def _skip_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.getMessage().endswith("is not --lang 'en'; topic skipped")]


def test_select_topics_keeps_one_language_in_id_order(caplog):
    topics = [Topic("T3", "whales", "en"), Topic("T9", "wale", "de"), Topic("T1", "ships", "en"),
              Topic("T2", "baleines", "fr")]
    assert select_topics(topics, "en") == [topics[2], topics[0]]
    assert _skip_lines(caplog) == [
        "topic 'T9': language 'de' is not --lang 'en'; topic skipped",
        "topic 'T2': language 'fr' is not --lang 'en'; topic skipped",
    ]
    assert select_topics(topics, "it") == []


def test_load_config_with_overrides(tmp_path):
    paths = build_pipeline_workspace(tmp_path)
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps({"version": 1, **{k: v for k, v in paths.items()}, "k": 5}),
        encoding="utf-8",
    )
    cfg = load_config(config_file, k=7, boost=3.0)
    assert cfg.k == 7
    assert cfg.boost == 3.0
    assert cfg.docs == paths["docs"]


_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
_VALUES = {
    "str": _TEXT,
    "int": st.integers(-(10**30), 10**30),
    "float": st.one_of(st.integers(-(10**6), 10**6), st.floats(allow_nan=False, allow_infinity=False)),
}


@st.composite
def _configs(draw):
    """A PipelineConfig and the JSON of its keys, a subset in any order."""
    fields = PipelineConfig.__dataclass_fields__
    values = {key: draw(_VALUES[field.type]) for key, field in fields.items()}
    keys = draw(st.permutations([*draw(st.sets(st.sampled_from(list(fields)))), "version"]))
    defaults = {key: value for key, value in values.items() if key in keys}
    items = [(key, 1 if key == "version" else values[key]) for key in keys]
    return PipelineConfig(**defaults), "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items) + "}"


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_load_config_reads_back_any_valid_config(tmp_path_factory, case):
    cfg, text = case
    config_file = tmp_path_factory.mktemp("cfg") / "config.json"
    config_file.write_text(text, encoding="utf-8")
    read = load_config(config_file)
    assert read == cfg
    assert [type(getattr(read, key)) for key in PipelineConfig.__dataclass_fields__] == [
        type(getattr(cfg, key)) for key in PipelineConfig.__dataclass_fields__
    ]


@pytest.mark.parametrize("text,key", [('{"k": 5, "k": 0}', "k"), ('{"version": 1, "out": "a", "out": "b"}', "out")])
def test_load_config_rejects_a_repeated_key(tmp_path, text, key):
    config_file = tmp_path / "config.json"
    config_file.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{config_file}: repeated key {key!r}")):
        load_config(config_file)


def test_load_config_without_a_file_merges_the_overrides():
    assert load_config(None, k=5, lang=None) == PipelineConfig(k=5)
    assert load_config(None) == PipelineConfig()


def test_load_config_rejects_unknown_keys(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text('{"version": 1, "bogus": true}', encoding="utf-8")
    with pytest.raises(DataError):
        load_config(config_file)


def test_load_config_rejects_wrong_version(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text('{"version": 99}', encoding="utf-8")
    with pytest.raises(DataError):
        load_config(config_file)


def test_read_seeds_file(tmp_path):
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text("T-1\tWhale Shark\nT-2\tCastle\n", encoding="utf-8")
    assert read_seeds_file(seeds) == {"T-1": "Whale Shark", "T-2": "Castle"}
    bad = tmp_path / "bad.tsv"
    bad.write_text("no-tab-here\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_seeds_file(bad)
    bad.write_text("T-1\tCastle\nT 2\tWhale\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.tsv:2: topic id 'T 2' contains whitespace"):
        read_seeds_file(bad)
    bad.write_text(" \tWhale\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.tsv:1: topic id '' is empty"):
        read_seeds_file(bad)


def test_atomic_write_replaces_the_file_with_a_plain_file_mode(tmp_path):
    target = tmp_path / "out" / "run.trec"
    write_atomic(target, [b"new\n"])
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert target.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in target.parent.iterdir()) == ["run.trec"]


def test_atomic_write_failure_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "run.trec"
    target.write_text("old\n", encoding="utf-8")

    def disk_full(*args):
        raise OSError("disk full")

    for step in ("fsync", "replace"):
        with monkeypatch.context() as patch:
            patch.setattr(os, step, disk_full)
            with pytest.raises(OSError, match="disk full"):
                write_atomic(target, [b"new\n"])
        assert target.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.trec"]
        assert not list(tmp_path.glob("*.tmp*"))


@pytest.mark.parametrize(
    "key, literal, outcome",
    [
        ("k", '"ten"', "config key 'k' must be an integer, got 'ten'"),
        ("k", "true", "config key 'k' must be an integer, got True"),
        ("depth", "2.5", "config key 'depth' must be an integer, got 2.5"),
        ("min_links", "null", "config key 'min_links' must be an integer, got None"),
        ("boost", "null", "config key 'boost' must be a number, got None"),
        ("boost", "false", "config key 'boost' must be a number, got False"),
        ("boost", '"2"', "config key 'boost' must be a number, got '2'"),
        ("docs", "5", "config key 'docs' must be a string, got 5"),
        ("lang", '["en"]', "config key 'lang' must be a string, got ['en']"),
        ("boost", "1e400", ["boost must be finite"]),
        ("boost", "NaN", ["boost must be finite"]),
        ("boost", "-Infinity", ["boost must be finite"]),
        ("boost", "0", ["boost must be positive"]),
        ("boost", "2", []),
        ("boost", "2.5", []),
        ("k", "3", []),
        ("min_links", "-4", ["min_links must be >= 1"]),
        ("min_links", "0", ["min_links must be >= 1"]),
        ("min_links", "1", []),
        pytest.param("boost", "9" * 401, ["boost must be finite"], id="boost-401-digits"),
    ],
)
def test_load_config_checks_field_types(tmp_path, key, literal, outcome):
    paths = build_pipeline_workspace(tmp_path)
    rest = json.dumps({k: v for k, v in paths.items() if k != key})
    config_file = tmp_path / "config.json"
    config_file.write_text(f'{rest[:-1]}, "{key}": {literal}}}', encoding="utf-8")
    if isinstance(outcome, str):
        with pytest.raises(DataError, match=re.escape(f"{config_file}: {outcome}")):
            load_config(config_file)
        return
    cfg = load_config(config_file)
    assert config_validate(cfg, ["STR"]) == outcome
    if not outcome:
        # A value is kept as written, so "boost": 2 keeps the config hash of 2.
        value = json.loads(literal)
        assert (type(getattr(cfg, key)), getattr(cfg, key)) == (type(value), value)


SYSTEMS = ["WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR", "COMBO"]


def test_the_cli_chain_writes_the_bytes_run_writes(tmp_path):
    paths = build_pipeline_workspace(tmp_path, n_docs=80, n_topics=5)
    run_pipeline(_config(paths), SYSTEMS)
    out = Path(paths["out"]) / "en"
    chain = tmp_path / "chain"
    index_dir = str(chain / "idx")

    def cli(*args):
        assert main(list(args)) == 0, args

    cli("index", "build", "--docs", paths["docs"], "--out", index_dir)
    topics = ["--topics", paths["topics"]]
    cli("suggest", "str", "--index", index_dir, *topics, "--out", str(chain / "STR.tsv"))
    cli("suggest", "wiki-lead", "--articles", paths["articles"], *topics,
        "--out", str(chain / "WIKI_ENTITY.tsv"))
    for system, corpus in (("WIKI_SIM", "sim_corpus"), ("WIKI_BACK", "back_corpus")):
        cli("suggest", "docsim", "--corpus", paths[corpus], "--seeds", paths["seeds"],
            "--label", system, "--out", str(chain / f"{system}.tsv"))
    inputs = [arg for system in SYSTEMS[:-1] for arg in ("--inputs", str(chain / f"{system}.tsv"))]
    cli("combo", *inputs, "--out", str(chain / "COMBO.tsv"))
    for system in SYSTEMS:
        queries = str(chain / f"{system}.queries")
        cli("expand", *topics, "--suggestions", str(chain / f"{system}.tsv"), "--out", queries)
        cli("index", "search", "--index", index_dir, "--query-file", queries,
            "--run-tag", system, "--out", str(chain / f"{system}.trec"))
        suggestions, run = (out / system / "suggestions.tsv"), (out / system / "run.trec")
        assert (chain / f"{system}.tsv").read_bytes() == suggestions.read_bytes()
        assert (chain / f"{system}.trec").read_bytes() == run.read_bytes()
        assert run.stat().st_size > 0


def test_run_scores_its_runs_without_reading_them_back(tmp_path, monkeypatch):
    paths = build_pipeline_workspace(tmp_path, n_docs=80, n_topics=4)

    def refuse(path):
        raise AssertionError(f"read back {path}")

    for name, module in list(sys.modules.items()):
        if name.startswith("sparse_expand") and hasattr(module, "read_run_file"):
            monkeypatch.setattr(module, "read_run_file", refuse)
    run_pipeline(_config(paths), SYSTEMS)
    monkeypatch.undo()
    qrels = evaluation.read_qrels_file(paths["qrels"])
    for system in SYSTEMS:
        system_dir = Path(paths["out"]) / "en" / system
        report = evaluation.evaluate_run(evaluation.read_run_file(system_dir / "run.trec"), qrels)
        _write_metrics(tmp_path / "expected.tsv", report)
        assert (system_dir / "metrics.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()


GOLDEN_RUN = Path(__file__).parent / "data" / "run_seed1.sha256"


def _tree_digests(out: Path) -> list[str]:
    """`sha256sum`-style lines for every file under `out` except the
    manifest, whose config hash covers the output path."""
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    ]


def test_five_system_run_matches_the_golden_digests(tmp_path):
    paths = build_pipeline_workspace(tmp_path, seed=1, n_docs=200, n_topics=10)
    run_pipeline(_config(paths), SYSTEMS)
    expected = GOLDEN_RUN.read_text(encoding="utf-8").splitlines()
    assert _tree_digests(Path(paths["out"])) == expected


def _tree_and_manifest(out: Path) -> tuple[dict[str, bytes], dict]:
    """Every file under `out` but the manifest, and the manifest's keys
    but its config hash, which covers the input and output paths."""
    tree = tree_bytes(out)
    manifest = json.loads(tree.pop("manifest.json"))
    del manifest["config_hash"]
    return tree, manifest


@pytest.mark.parametrize("shuffle_seed", [3, 4])
def test_a_run_on_shuffled_input_lines_writes_the_same_tree(tmp_path, shuffle_seed):
    (tmp_path / "a").mkdir()
    paths = build_pipeline_workspace(tmp_path / "a", seed=1, n_docs=200, n_topics=10)
    run_pipeline(_config(paths), SYSTEMS)
    expected = _tree_and_manifest(Path(paths["out"]))

    shutil.copytree(tmp_path / "a", tmp_path / "b", ignore=shutil.ignore_patterns("out"))
    shuffled = {key: value.replace(str(tmp_path / "a"), str(tmp_path / "b")) for key, value in paths.items()}
    rng = random.Random(shuffle_seed)
    for key in ("docs", "topics", "seeds", "qrels"):
        path = Path(shuffled[key])
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        assert lines != Path(paths[key]).read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines), encoding="utf-8")
    run_pipeline(_config(shuffled), SYSTEMS)
    tree, manifest = _tree_and_manifest(Path(shuffled["out"]))
    assert len(tree) == 15 and all(tree.values())
    assert tree == expected[0]
    assert manifest == expected[1] == {"language": "en", "systems": SYSTEMS, "tool_version": sparse_expand.__version__}


def test_run_skips_each_topic_of_another_language_with_one_warning(tmp_path, caplog):
    paths = build_pipeline_workspace(tmp_path, n_docs=80, n_topics=4)
    run_pipeline(_config(paths), SYSTEMS)
    expected = _tree_and_manifest(Path(paths["out"]))
    assert _skip_lines(caplog) == []

    lines = Path(paths["topics"]).read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(1, json.dumps({"id": "T-DE", "lang": "de", "title": "Wal Schiff"}) + "\n")
    lines.append(json.dumps({"id": "T-000a", "lang": "fr", "title": "baleine"}) + "\n")
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out-mixed"
    run_pipeline(_config(paths, topics=str(mixed), out=str(out)), SYSTEMS)
    tree, manifest = _tree_and_manifest(out)
    assert len(tree) == 15 and all(tree.values())
    assert (tree, manifest) == expected
    assert _skip_lines(caplog) == [
        "topic 'T-DE': language 'de' is not --lang 'en'; topic skipped",
        "topic 'T-000a': language 'fr' is not --lang 'en'; topic skipped",
    ]


def test_a_seedless_topic_warns_once_per_run(tmp_path, caplog):
    paths = build_pipeline_workspace(tmp_path, n_docs=30, n_topics=3)
    seeds = Path(paths["seeds"])
    seeds.write_text("".join(seeds.read_text(encoding="utf-8").splitlines(keepends=True)[1:]), encoding="utf-8")
    run_pipeline(_config(paths), ["WIKI_SIM", "WIKI_BACK"])
    seed_lines = [r.getMessage() for r in caplog.records if "no seed" in r.getMessage()]
    assert seed_lines == ["no seed for topic T-000; empty WIKI_SIM and WIKI_BACK suggestions"]
    for system in ("WIKI_SIM", "WIKI_BACK"):
        written = read_suggestion_file(Path(paths["out"]) / "en" / system / "suggestions.tsv")
        assert {sset.topic_id for sset in written} == {"T-001", "T-002"}


def test_a_title_with_no_query_words_warns_once_per_run(tmp_path, caplog):
    paths = build_pipeline_workspace(tmp_path, n_docs=80, n_topics=3)
    topics = Path(paths["topics"])
    with topics.open("a", encoding="utf-8") as out:
        out.write(json.dumps({"id": "T-009", "lang": "en", "title": "The Of and"}) + "\n")
    seeds = Path(paths["seeds"])
    first_seed = seeds.read_text(encoding="utf-8").splitlines()[0].split("\t")[1]
    with seeds.open("a", encoding="utf-8") as out:
        out.write(f"T-009\t{first_seed}\n")
    run_pipeline(_config(paths), SYSTEMS)
    messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert messages == ["empty title: topic 'T-009'; no query for WIKI_ENTITY, WIKI_SIM, WIKI_BACK, STR, COMBO"]
    out = Path(paths["out"]) / "en"
    for system in SYSTEMS:
        assert "T-009" not in (out / system / "run.trec").read_text(encoding="utf-8")
    assert {sset.topic_id for sset in read_suggestion_file(out / "STR" / "suggestions.tsv")} == {"T-000", "T-001", "T-002"}

    # The shared steps, as the subcommands call them, write the same bytes
    # and warn once per step.
    caplog.clear()
    chain = tmp_path / "chain"
    index_dir = str(chain / "idx")
    assert main(["index", "build", "--docs", paths["docs"], "--out", index_dir]) == 0
    assert main(["suggest", "str", "--index", index_dir, "--topics", str(topics), "--out", str(chain / "STR.tsv")]) == 0
    assert main(["expand", "--topics", str(topics), "--suggestions", str(chain / "STR.tsv"),
                 "--out", str(chain / "STR.queries")]) == 0
    assert main(["index", "search", "--index", index_dir, "--query-file", str(chain / "STR.queries"),
                 "--run-tag", "STR", "--out", str(chain / "STR.trec")]) == 0
    assert (chain / "STR.tsv").read_bytes() == (out / "STR" / "suggestions.tsv").read_bytes()
    assert (chain / "STR.trec").read_bytes() == (out / "STR" / "run.trec").read_bytes()
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        "empty query: topic 'T-009'",
        "empty title: topic 'T-009'; topic skipped",
    ]


def _python(argv: list[str], hash_seed: str) -> subprocess.CompletedProcess:
    """`python argv` in a fresh interpreter that imports this package,
    under PYTHONHASHSEED `hash_seed`."""
    src = str(Path(sparse_expand.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300)


def test_run_and_index_build_write_the_same_bytes_under_every_hash_seed(tmp_path):
    paths = build_pipeline_workspace(tmp_path, seed=1, n_docs=200, n_topics=10)
    inputs = ["docs", "topics", "articles", "sim-corpus", "back-corpus", "seeds", "qrels"]
    run = ["run", *(arg for key in inputs for arg in (f"--{key}", paths[key.replace("-", "_")]))]
    run += [arg for system in SYSTEMS for arg in ("--system", system)]
    outputs, str_hashes = [], set()
    for hash_seed in ("0", "1", "12345"):
        out, index_dir = tmp_path / f"out-{hash_seed}", tmp_path / f"idx-{hash_seed}"
        for argv in ([*run, "--out", str(out)], ["index", "build", "--docs", paths["docs"], "--out", str(index_dir)]):
            result = _python(["-m", "sparse_expand.cli", *argv], hash_seed)
            assert result.returncode == 0, result.stderr
        outputs.append((*_tree_and_manifest(out), tree_bytes(index_dir)))
        str_hashes.add(_python(["-c", "print(hash('sparse-expand'))"], hash_seed).stdout)
    assert len(str_hashes) == 3  # each seed reached its interpreter
    tree, manifest, snapshot = outputs[0]
    assert len(tree) == 15 and all(tree.values()) and list(snapshot) == ["index.bin"]
    assert manifest == {"language": "en", "systems": SYSTEMS, "tool_version": sparse_expand.__version__}
    assert all(other == outputs[0] for other in outputs[1:])


def _run_path_outputs(paths, tmp_path) -> list:
    """The bytes of a five-system `run` with qrels, of `index search` to
    stdout and with --out, and of `eval adhoc` on that run."""
    out = Path(paths["out"])
    shutil.rmtree(out, ignore_errors=True)
    run_pipeline(_config(paths), SYSTEMS)
    tree = {path.relative_to(out).as_posix(): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}
    run_file = tmp_path / "searched.trec"
    search = ["index", "search", "--index", str(tmp_path / "idx"), "--query-file", str(tmp_path / "queries.tsv")]
    runner = CliRunner()
    results = [
        runner.invoke(cli, search),
        runner.invoke(cli, [*search, "--out", str(run_file)]),
        runner.invoke(cli, ["eval", "adhoc", "--run", str(run_file), "--qrels", paths["qrels"]]),
    ]
    for result in results:
        assert result.exit_code == 0, result.exception
    printed, _, scored = (result.stdout_bytes for result in results)
    return [tree, printed, run_file.read_bytes(), scored]


def test_the_run_path_reads_hit_columns_and_never_makes_a_row(tmp_path, monkeypatch):
    paths = build_pipeline_workspace(tmp_path)
    suggested = tmp_path / "str.tsv"
    for argv in (
        ["index", "build", "--docs", paths["docs"], "--out", str(tmp_path / "idx")],
        ["suggest", "str", "--index", str(tmp_path / "idx"), "--topics", paths["topics"], "--out", str(suggested)],
        ["expand", "--topics", paths["topics"], "--suggestions", str(suggested), "--out", str(tmp_path / "queries.tsv")],
    ):
        assert main(argv) == 0
    expected = _run_path_outputs(paths, tmp_path)
    tree, printed, written, scored = expected
    assert len(tree) == 16 and all(tree.values())
    assert printed == written and written
    assert scored.splitlines()[-1].startswith(b"mean")

    def no_rows(*_):
        raise AssertionError("a ScoredDoc row was made")

    monkeypatch.setattr(Hits, "__iter__", no_rows)
    monkeypatch.setattr(Hits, "__getitem__", no_rows)
    with pytest.raises(AssertionError, match="row was made"):
        list(Hits(["a"], [1.0]))
    assert _run_path_outputs(paths, tmp_path) == expected


def _suggestion_outputs(paths) -> list:
    """The files of a five-system `run`; of a COMBO-only `run` that reads
    the generators' suggestion files back; and the weak and strong
    precision of the COMBO sets read back."""
    out = Path(paths["out"])
    trees = []
    for systems in (SYSTEMS, ["COMBO"]):
        run_pipeline(_config(paths), systems)
        trees.append({path.relative_to(out).as_posix(): path.read_bytes() for path in sorted(out.rglob("*.*"))})
    sets = read_suggestion_file(out / paths["lang"] / "COMBO" / "suggestions.tsv")
    report = evaluation.evaluate_suggestions(sets, {sset.topic_id: {1: 2, 2: 1} for sset in sets})
    return [*trees, report.per_topic]


def test_the_suggestion_path_reads_set_columns_and_never_makes_a_row(tmp_path, monkeypatch):
    paths = build_pipeline_workspace(tmp_path)
    expected = _suggestion_outputs(paths)
    full, _, per_topic = expected
    for system in SYSTEMS:
        assert full[f"en/{system}/suggestions.tsv"] and full[f"en/{system}/run.trec"]
    assert len(per_topic) == 6

    def no_rows(_):
        raise AssertionError("a ConceptSuggestion row was made")

    monkeypatch.setattr(SuggestionSet, "suggestions", property(no_rows))
    with pytest.raises(AssertionError, match="row was made"):
        make_suggestion_set("T", "STR", [("a", 1.0)]).suggestions
    assert _suggestion_outputs(paths) == expected
