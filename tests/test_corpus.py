import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_expand.analysis import chain_for
from sparse_expand.corpus import (
    DEFAULT_SCHEMA,
    Document,
    Topic,
    coverage_report,
    ingest_documents,
    read_topics,
    topic_stats,
)
from sparse_expand.errors import DataError, DuplicateDocumentError, EmptyCorpusError
from sparse_expand.evaluation import RunRecord, read_run_file, write_run_file
from sparse_expand.index import build_index
from sparse_expand.suggestions import (
    make_suggestion_set,
    read_suggestion_file,
    write_suggestion_file,
)


def _write(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def _record(i, **fields):
    return {"id": f"d{i}", "lang": "en", "fields": fields}


def test_ingest_three_valid_lines(tmp_path):
    f = _write(
        tmp_path / "docs.jsonl",
        [_record(i, **{"dc:title": [f"title {i}"]}) for i in range(3)],
    )
    result = ingest_documents(f)
    assert result.accepted == 3
    assert result.rejected == 0
    assert [d.doc_id for d in result.documents] == ["d0", "d1", "d2"]


def test_ingest_drops_empty_values(tmp_path):
    f = _write(
        tmp_path / "docs.jsonl",
        [_record(0, **{"dc:title": ["  ", ""], "dc:subject": ["maps"]})],
    )
    (doc,) = ingest_documents(f).documents
    assert "dc:title" not in doc.fields
    assert doc.fields["dc:subject"] == ("maps",)


def test_ingest_duplicate_ids_abort(tmp_path):
    records = [_record(i, **{"dc:title": ["x"]}) for i in range(100)]
    for i in range(7):
        records[50 + i]["id"] = f"d{i}"  # seven collisions; first is d0
    f = _write(tmp_path / "docs.jsonl", records)
    with pytest.raises(DuplicateDocumentError) as exc:
        ingest_documents(f)
    assert "'d0'" in str(exc.value)


def test_ingest_duplicate_aborts_even_in_lax_mode(tmp_path):
    records = [_record(0, **{"dc:title": ["x"]}), _record(0, **{"dc:title": ["y"]})]
    f = _write(tmp_path / "docs.jsonl", records)
    with pytest.raises(DuplicateDocumentError):
        ingest_documents(f, lax=True)


def test_ingest_strict_aborts_on_malformed(tmp_path):
    f = tmp_path / "docs.jsonl"
    f.write_text('{"id": "a", "lang": "en", "fields": {}}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError) as exc:
        ingest_documents(f)
    assert ":2:" in str(exc.value)


def test_ingest_lax_skips_and_counts(tmp_path):
    f = tmp_path / "docs.jsonl"
    f.write_text(
        '{"id": "a", "lang": "en", "fields": {"dc:title": ["x"]}}\n'
        "not json\n"
        '{"id": "", "lang": "en", "fields": {}}\n'
        '{"id": "b", "lang": "en", "fields": {"dc:title": ["y"]}}\n',
        encoding="utf-8",
    )
    result = ingest_documents(f, lax=True)
    assert result.accepted == 2
    assert result.rejected == 2
    assert sum(result.reject_reasons.values()) == 2


def test_language_without_an_analyzer_profile_strict_vs_lax(tmp_path):
    records = [_record(0, **{"dc:title": ["x"]}), {**_record(1, **{"dc:title": ["y"]}), "lang": "xx"}]
    f = _write(tmp_path / "docs.jsonl", records)
    with pytest.raises(DataError, match=r":2: document 'd1': no analyzer profile for language 'xx'"):
        ingest_documents(f)
    result = ingest_documents(f, lax=True)
    assert [d.doc_id for d in result.documents] == ["d0"]
    assert result.reject_reasons == {"document 'd1': no analyzer profile for language 'xx'": 1}


def test_unknown_field_strict_vs_lax(tmp_path):
    f = _write(tmp_path / "docs.jsonl", [_record(0, **{"made:up": ["v"]})])
    with pytest.raises(DataError):
        ingest_documents(f)
    (doc,) = ingest_documents(f, lax=True).documents
    assert doc.fields["made:up"] == ("v",)


def test_ingest_deterministic(tmp_path):
    records = [_record(i, **{"dc:title": [f"t {i}"]}) for i in range(20)]
    f = _write(tmp_path / "docs.jsonl", records)
    assert ingest_documents(f).documents == ingest_documents(f).documents


# Every character str.splitlines breaks on is whitespace, so one space,
# a tab and these cover the run and suggestion file separators.
_SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]


@pytest.mark.parametrize("space", _SPACES)
def test_ingest_rejects_whitespace_inside_ids(tmp_path, space):
    records = [_record(0, **{"dc:title": ["x"]}), _record(1, **{"dc:title": ["y"]})]
    records[1]["id"] = f"a{space}b"
    f = _write(tmp_path / "docs.jsonl", records)
    with pytest.raises(DataError, match=":2: document id .* contains whitespace"):
        ingest_documents(f)
    result = ingest_documents(f, lax=True)
    assert [d.doc_id for d in result.documents] == ["d0"]
    assert result.rejected == 1
    assert result.reject_reasons == {f"document id {f'a{space}b'!r} contains whitespace": 1}


@pytest.mark.parametrize("space", _SPACES)
def test_read_topics_rejects_whitespace_inside_ids(tmp_path, space):
    f = tmp_path / "topics.jsonl"
    f.write_text(
        json.dumps({"id": "T-1", "lang": "en", "title": "whale"}) + "\n"
        + json.dumps({"id": f"T{space}2", "lang": "en", "title": "ship"}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=":2: topic id .* contains whitespace"):
        read_topics(f)


def test_ingest_folds_whitespace_inside_values(tmp_path):
    f = _write(
        tmp_path / "docs.jsonl",
        [_record(0, **{"dc:subject": ["Sea\nlife", " a \t\t b\u2028c ", "\r\n"]})],
    )
    (doc,) = ingest_documents(f).documents
    assert doc.fields["dc:subject"] == ("Sea life", "a b c")


@settings(max_examples=200)
@given(doc_id=st.text(min_size=1, max_size=8), topic_id=st.text(min_size=1, max_size=8))
def test_accepted_ids_round_trip_through_the_run_file(tmp_path_factory, doc_id, topic_id):
    directory = tmp_path_factory.mktemp("ids")
    docs = _write(directory / "docs.jsonl", [{"id": doc_id, "lang": "en", "fields": {}}])
    accepted = [d.doc_id for d in ingest_documents(docs, lax=True).documents]
    topics = directory / "topics.jsonl"
    topics.write_text(json.dumps({"id": topic_id, "lang": "en", "title": "x"}) + "\n", "utf-8")
    try:
        topic_ids = [t.topic_id for t in read_topics(topics)]
    except DataError:
        topic_ids = []
    records = [RunRecord(t, d, 1, 1.0, "STR") for t in topic_ids for d in accepted]
    run = directory / "run.trec"
    write_run_file(run, records)
    assert [r for rs in read_run_file(run).values() for r in rs] == records


@settings(max_examples=200)
@given(values=st.lists(st.text(max_size=12), min_size=1, max_size=4))
def test_ingested_values_round_trip_through_the_suggestion_file(tmp_path_factory, values):
    directory = tmp_path_factory.mktemp("values")
    docs = _write(directory / "docs.jsonl", [_record(0, **{"dc:subject": values})])
    documents = ingest_documents(docs).documents
    texts = sorted(build_index(documents, {"en": chain_for("en")}).raw_values("dc:subject-en"))
    sset = make_suggestion_set("T-1", "STR", [(t, Fraction(1, 1 + i)) for i, t in enumerate(texts)])
    path = directory / "suggestions.tsv"
    write_suggestion_file(path, [sset])
    assert [s.texts() for s in read_suggestion_file(path)] == ([texts] if texts else [])


def _docs_with(field, present, total):
    docs = []
    for i in range(total):
        fields = {"dc:title": ("x",)}
        if i < present:
            fields[field] = ("value",)
        docs.append(Document(f"d{i}", "en", fields))
    return docs


def test_coverage_full_field():
    report = coverage_report(_docs_with("europeana:country", 10, 10))
    assert report.per_field["europeana:country"].percent == 100


def test_coverage_absent_field():
    report = coverage_report(_docs_with("dc:subject", 10, 10))
    assert report.per_field["dcterms:hasPart"].percent == 0


def test_coverage_fourteen_percent():
    report = coverage_report(_docs_with("dc:contributor", 7, 50))
    assert report.per_field["dc:contributor"].count == 7
    assert report.per_field["dc:contributor"].percent == 14


def test_coverage_rounds_half_up():
    # 1 of 8 documents = 12.5% -> displays 13
    report = coverage_report(_docs_with("dc:creator", 1, 8))
    assert report.per_field["dc:creator"].fraction == Fraction(1, 8)
    assert report.per_field["dc:creator"].percent == 13


def test_coverage_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        coverage_report([])


def test_coverage_permutation_invariant():
    docs = _docs_with("dc:creator", 3, 9)
    forward = coverage_report(docs)
    backward = coverage_report(list(reversed(docs)))
    assert {f: c.count for f, c in forward.per_field.items()} == {
        f: c.count for f, c in backward.per_field.items()
    }


def test_coverage_count_bounded():
    report = coverage_report(_docs_with("dc:creator", 5, 9))
    for cov in report.per_field.values():
        assert 0 <= cov.count <= report.corpus_size
        assert 0 <= cov.percent <= 100


def test_schema_matches_report_shape():
    assert "dc:contributor" in DEFAULT_SCHEMA
    assert "europeana:country" in DEFAULT_SCHEMA
    assert len(DEFAULT_SCHEMA) == len(set(DEFAULT_SCHEMA)) == 55


def test_topic_stats_two_word_titles():
    topics = [
        Topic("t1", "falkland islands", "en"),
        Topic("t2", "moby dick", "en"),
    ]
    stats = topic_stats(topics)
    assert stats.title.mean == 2.0
    assert stats.title.median == 2
    assert stats.title.min == 2
    assert stats.title.max == 2


def test_topic_stats_absent_description_counts_zero():
    stats = topic_stats([Topic("t1", "unarmed", "en")])
    assert stats.description.mean == 0
    assert stats.description.min == 0
    assert stats.description.max == 0


def test_topic_stats_single_topic_degenerate():
    stats = topic_stats([Topic("t1", "europa maps 1914", "en", description="two words")])
    for fs in (stats.title, stats.description):
        assert fs.mean == fs.median == fs.min == fs.max


def test_topic_stats_engineered_title_row():
    # 7 one-word, 42 two-word and 1 six-word title: mean 1.94, median 2
    titles = ["one"] * 7 + ["two words"] * 42 + ["a b c d e f"]
    topics = [Topic(f"t{i}", title, "en") for i, title in enumerate(titles)]
    stats = topic_stats(topics)
    assert round(stats.title.mean, 2) == 1.94
    assert stats.title.median == 2
    assert stats.title.min == 1
    assert stats.title.max == 6


def test_topic_stats_even_median_is_central_mean():
    topics = [Topic(f"t{i}", " ".join(["w"] * n), "en") for i, n in enumerate([1, 2, 3, 6])]
    assert topic_stats(topics).title.median == 2.5


def test_topic_stats_empty_list():
    with pytest.raises(DataError):
        topic_stats([])


def test_read_topics(tmp_path):
    f = tmp_path / "topics.jsonl"
    f.write_text(
        '{"id": "CHIC-012", "lang": "en", "title": "moby dick"}\n'
        '{"id": "CHIC-010", "lang": "en", "title": "film canada", "description": "films about canada"}\n',
        encoding="utf-8",
    )
    topics = read_topics(f)
    assert topics[0] == Topic("CHIC-012", "moby dick", "en")
    assert topics[1].description == "films about canada"


def test_read_topics_requires_title(tmp_path):
    f = tmp_path / "topics.jsonl"
    f.write_text('{"id": "T", "lang": "en", "title": ""}\n', encoding="utf-8")
    with pytest.raises(DataError):
        read_topics(f)


@pytest.mark.parametrize("line", ["[1]", '"CHIC-012"', "3", "null"])
def test_read_topics_rejects_a_line_that_is_not_an_object(tmp_path, line):
    f = tmp_path / "topics.jsonl"
    f.write_text('{"id": "T", "lang": "en", "title": "whale"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2: line is not a JSON object"):
        read_topics(f)
