import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_expand.analysis import chain_for
from sparse_expand.cli import main
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
from sparse_expand.evaluation import read_run_file, write_run_file
from sparse_expand.index import Hits, build_index
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
    assert len(result.documents) == 3
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
    assert len(result.documents) == 2
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


@pytest.mark.parametrize(
    "value, kind",
    [(None, "null"), (True, "boolean"), (False, "boolean"), ({"a": 1}, "object"), ([1], "array")],
)
def test_field_values_must_be_strings_or_numbers(tmp_path, value, kind):
    records = [_record(0, **{"dc:title": ["x"]}), _record(1, **{"dc:title": ["y", value]})]
    f = _write(tmp_path / "docs.jsonl", records)
    message = f"document 'd1': field 'dc:title' holds a JSON {kind}, not a string or a number"
    with pytest.raises(DataError) as exc:
        ingest_documents(f)
    assert str(exc.value) == f"{f}:2: {message}"
    result = ingest_documents(f, lax=True)
    assert [d.doc_id for d in result.documents] == ["d0"]
    assert result.reject_reasons == {message: 1}


def test_numbers_are_stored_in_their_str_form(tmp_path):
    f = _write(tmp_path / "docs.jsonl", [_record(0, **{"dc:date": [1990, 2.5, -0.0, 1e100, " x "]})])
    (doc,) = ingest_documents(f).documents
    assert doc.fields["dc:date"] == ("1990", "2.5", "-0.0", "1e+100", "x")


def test_a_bare_string_is_a_one_value_list(tmp_path):
    f = _write(tmp_path / "docs.jsonl", [_record(0, **{"dc:title": " Moby  Dick "})])
    (doc,) = ingest_documents(f).documents
    assert doc.fields == {"dc:title": ("Moby Dick",)}


@pytest.mark.parametrize("value", [5, 2.5])
def test_a_bare_number_is_rejected(tmp_path, value):
    records = [_record(0, **{"dc:title": ["x"]}), _record(1, **{"dc:date": value})]
    f = _write(tmp_path / "docs.jsonl", records)
    message = "document 'd1': field 'dc:date' must hold a list"
    with pytest.raises(DataError) as exc:
        ingest_documents(f)
    assert str(exc.value) == f"{f}:2: {message}"
    assert ingest_documents(f, lax=True).reject_reasons == {message: 1}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("id", None, "'id' must be a string, not a JSON null"),
        ("id", 7, "'id' must be a string, not a JSON number"),
        ("id", True, "'id' must be a string, not a JSON boolean"),
        ("lang", ["en"], "document 'd1': 'lang' must be a string, not a JSON array"),
        ("lang", {"en": 1}, "document 'd1': 'lang' must be a string, not a JSON object"),
        ("lang", "", "document 'd1': missing or empty 'lang'"),
        ("lang", " ", "document 'd1': missing or empty 'lang'"),
        ("fields", ["dc:title", "y"], "document 'd1': 'fields' must be an object"),
        ("fields", None, "document 'd1': 'fields' must be an object"),
    ],
)
def test_id_and_lang_must_be_strings(tmp_path, key, value, message):
    records = [_record(0, **{"dc:title": ["x"]}), {**_record(1, **{"dc:title": ["y"]}), key: value}]
    f = _write(tmp_path / "docs.jsonl", records)
    with pytest.raises(DataError) as exc:
        ingest_documents(f)
    assert str(exc.value) == f"{f}:2: {message}"
    result = ingest_documents(f, lax=True)
    assert [d.doc_id for d in result.documents] == ["d0"]
    assert result.reject_reasons == {message: 1}


@pytest.mark.parametrize("line", ["[" * 100_000, '{"id": ' + "1" * 5000 + "}"])
def test_json_too_deep_or_too_long_a_number_is_a_malformed_line(tmp_path, line):
    f = tmp_path / "docs.jsonl"
    f.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=":1: invalid JSON"):
        ingest_documents(f)
    assert ingest_documents(f, lax=True).rejected == 1


def test_ingest_deterministic(tmp_path):
    records = [_record(i, **{"dc:title": [f"t {i}"]}) for i in range(20)]
    f = _write(tmp_path / "docs.jsonl", records)
    assert ingest_documents(f).documents == ingest_documents(f).documents



@pytest.mark.parametrize("lax", [False, True])
def test_ingested_documents_share_one_string_per_field_name(tmp_path, lax):
    fields = {"dc:title": ["a title"], "dc:subject": ["maps"]}
    if lax:
        fields["x:local"] = ["kept"]
    f = _write(tmp_path / "docs.jsonl", [_record(0, **fields), _record(1, **fields)])
    first, second = ingest_documents(f, lax=lax).documents
    assert list(first.fields) == list(second.fields) == list(fields)
    for a, b in zip(first.fields, second.fields):
        assert a is b

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
    run = {t: Hits(accepted, [1.0] * len(accepted)) for t in topic_ids}
    path = directory / "run.trec"
    write_run_file(path, run, "STR")
    assert read_run_file(path) == {t: hits for t, hits in run.items() if hits}


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


@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": None, "lang": "en", "title": "whale"}, "'id' must be a string, not a JSON null"),
        ({"id": 7, "lang": "en", "title": "whale"}, "'id' must be a string, not a JSON number"),
        ({"id": "T", "lang": ["en"], "title": "whale"}, "'lang' must be a string, not a JSON array"),
        ({"id": "T", "lang": "en", "title": 5}, "'title' must be a string, not a JSON number"),
        ({"id": "T", "lang": "en", "title": True}, "'title' must be a string, not a JSON boolean"),
        (
            {"id": "T", "lang": "en", "title": "whale", "description": {"a": 1}},
            "'description' must be a string or null, not a JSON object",
        ),
        (
            {"id": "T", "lang": "en", "title": "whale", "description": 2.5},
            "'description' must be a string or null, not a JSON number",
        ),
    ],
)
def test_read_topics_requires_string_values(tmp_path, capsys, record, message):
    f = tmp_path / "topics.jsonl"
    f.write_text('{"id": "T0", "lang": "en", "title": "ship", "description": null}\n'
                 + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"topics.jsonl:2: {message}")):
        read_topics(f)
    assert main(["corpus", "topic-stats", "--topics", str(f)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line", ["[1]", '"CHIC-012"', "3", "null"])
def test_read_topics_rejects_a_line_that_is_not_an_object(tmp_path, line):
    f = tmp_path / "topics.jsonl"
    f.write_text('{"id": "T", "lang": "en", "title": "whale"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2: not a JSON object"):
        read_topics(f)


def test_read_topics_rejects_a_repeated_topic_id(tmp_path):
    f = tmp_path / "topics.jsonl"
    f.write_text(
        '{"id": "T-000", "lang": "en", "title": "whale"}\n'
        '{"id": "T-001", "lang": "en", "title": "ship"}\n'
        '\n'
        '{"id": "T-000", "lang": "en", "title": "ocean"}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=r"topics\.jsonl:4: repeated topic id 'T-000'"):
        read_topics(f)


@pytest.mark.parametrize(
    "line,key",
    [
        ('{"id": "d1", "id": "d2", "lang": "en", "fields": {"dc:title": ["Moby"]}}', "id"),
        ('{"id": "d1", "lang": "en", "fields": {"dc:title": ["Moby"], "dc:title": ["Whale"]}}', "dc:title"),
    ],
)
def test_ingest_rejects_a_repeated_key_as_a_malformed_line(tmp_path, capsys, line, key):
    f = tmp_path / "docs.jsonl"
    f.write_text('{"id": "d0", "lang": "en", "fields": {"dc:title": ["Ship"]}}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"docs.jsonl:2: repeated key {key!r}")):
        ingest_documents(f)
    assert main(["corpus", "stats", "--docs", str(f)]) == 2
    assert f"docs.jsonl:2: repeated key {key!r}" in capsys.readouterr().err
    result = ingest_documents(f, lax=True)
    assert [d.doc_id for d in result.documents] == ["d0"]
    assert result.reject_reasons == {f"repeated key {key!r}": 1}
    assert main(["corpus", "stats", "--docs", str(f), "--lax"]) == 0


def test_read_topics_rejects_a_repeated_key(tmp_path):
    f = tmp_path / "topics.jsonl"
    f.write_text('{"id": "T", "lang": "en", "title": "whale", "title": "ship"}\n', encoding="utf-8")
    with pytest.raises(DataError, match=re.escape("topics.jsonl:1: repeated key 'title'")):
        read_topics(f)


# A JSON escape of one half of a surrogate pair decodes to a lone surrogate.
_LONE_SURROGATES = ["whale \\ud800 ship", "\\udfff", "a\\udc00\\ud800b"]


@pytest.mark.parametrize("value", _LONE_SURROGATES)
def test_ingest_rejects_a_lone_surrogate_as_a_malformed_line(tmp_path, value):
    f = tmp_path / "docs.jsonl"
    f.write_text(
        '{"id": "a", "lang": "en", "fields": {"dc:title": ["whale \\ud83d\\udc33"]}}\n'
        '{"id": "b", "lang": "en", "fields": {"dc:title": ["' + value + '"]}}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=r"docs\.jsonl:2: a string holds a lone surrogate"):
        ingest_documents(f)
    result = ingest_documents(f, lax=True)
    assert [d.fields["dc:title"] for d in result.documents] == [("whale \U0001f433",)]
    assert result.rejected == 1


@pytest.mark.parametrize("key", ["title", "description"])
def test_read_topics_rejects_a_lone_surrogate(tmp_path, key):
    f = tmp_path / "topics.jsonl"
    record = {"id": "T", "lang": "en", "title": "whale", key: "sea \ud800"}
    f.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"topics\.jsonl:1: a string holds a lone surrogate"):
        read_topics(f)


def test_document_lines_split_where_open_splits(tmp_path):
    # JSON strings may hold U+2028 and U+0085 raw; they do not end a line.
    f = tmp_path / "docs.jsonl"
    f.write_bytes(
        '{"id": "a", "lang": "en", "fields": {"dc:title": ["whale ship\x85sea"]}}\r\n'
        '{"id": "b", "lang": "en", "fields": {"dc:title": ["ocean"]}}\r'.encode("utf-8")
    )
    documents = ingest_documents(f).documents
    assert [d.fields["dc:title"] for d in documents] == [("whale ship sea",), ("ocean",)]


@pytest.mark.parametrize("reader", [ingest_documents, read_topics])
def test_a_file_that_is_not_utf8_is_a_data_error(tmp_path, reader):
    f = tmp_path / "in.jsonl"
    f.write_bytes(b'{"id": "a", "lang": "en", "title": "caf\xe9", "fields": {}}\n')
    with pytest.raises(DataError, match=r"in\.jsonl:1: not UTF-8"):
        reader(f)
