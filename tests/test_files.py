import ast
import os
from pathlib import Path

import pytest

import sparse_expand
from sparse_expand.errors import DataError
from sparse_expand.evaluation import read_judgments_file, read_qrels_file, read_run_file
from sparse_expand.files import read_lines, read_text, read_titled_files, write_lines
from sparse_expand.suggestions import read_suggestion_file

PACKAGE = Path(sparse_expand.__file__).parent
WRITE_METHODS = {"write_text", "write_bytes"}
MODULES = {"io", "os", "codecs"}  # their `open` takes the path first


def _open_mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an `open` call: the first argument of a
    method (`path.open("w")`), the second of a function (`open(p, "w")`)."""
    func = call.func
    method = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) not in MODULES
    position = 0 if method else 1
    if len(call.args) > position:
        return call.args[position]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), None)


def _writes(source: str) -> list[int]:
    """Line numbers of the calls in `source` that write a file directly."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WRITE_METHODS:
            lines.append(node.lineno)
        elif name == "open":
            mode = _open_mode(node)
            if mode is None:
                continue
            # A mode that is not a literal cannot be shown to be read-only.
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                lines.append(node.lineno)
            elif set(mode.value) & set("wax+"):
                lines.append(node.lineno)
    return lines


def _text_reads(source: str) -> list[int]:
    """Line numbers of the calls in `source` that may open a file in text mode."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "read_text" and isinstance(func, ast.Attribute):  # Path.read_text
            lines.append(node.lineno)
        elif name == "open":
            mode = _open_mode(node)
            binary = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value
            if not binary:
                lines.append(node.lineno)
    return lines


def _offenders(check) -> dict[str, list[int]]:
    return {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "files.py" and (lines := check(path.read_text(encoding="utf-8")))
    }


def test_only_files_module_writes():
    assert _offenders(_writes) == {}, "write output through sparse_expand.files"


def test_only_files_module_reads_text():
    # Binary reads, such as Index.load's read_bytes, decode no text.
    assert _offenders(_text_reads) == {}, "read text through sparse_expand.files"


def test_text_read_guard_sees_every_text_read():
    source = "\n".join(
        [
            "Path(p).read_text()",
            "p.read_text(encoding='utf-8')",
            "open(p)",
            "open(p, 'r', encoding='utf-8')",
            "p.open()",
            "io.open(p, mode)",
            "open(p, 'rb')",
            "p.open('rb')",
            "p.read_bytes()",
            "read_lines(p)",
            "read_text(p)",
        ]
    )
    assert _text_reads(source) == [1, 2, 3, 4, 5, 6]


def test_write_guard_sees_every_direct_write():
    source = "\n".join(
        [
            "Path(p).write_text('x')",
            "p.write_bytes(b'x')",
            "open(p, 'w')",
            "open(p, mode='ab')",
            "p.open('r+')",
            "open(p, flags)",
            "io.open(p, 'w')",
            "os.open(p, os.O_WRONLY)",
            "open(p)",
            "open(p, 'rb')",
            "p.open()",
            "p.open('rb')",
            "io.open(p, 'r')",
            "p.read_text()",
        ]
    )
    assert _writes(source) == [1, 2, 3, 4, 5, 6, 7, 8]


# Each delimited reader with a line, holding {} where a number goes, and
# the message of a line whose number it cannot read.
_NUMBER_COLUMNS = [
    (read_run_file, "T1 Q0 a {} 1.0 t", "bad rank or score"),
    (read_run_file, "T1 Q0 a 1 {} t", "bad rank or score"),
    (read_qrels_file, "T1 0 a {}", "bad grade"),
    (read_suggestion_file, "T1\t{}\tWhale\t0.5\tSTR", "bad rank or score"),
    (read_suggestion_file, "T1\t1\tWhale\t{}\tSTR", "bad rank or score"),
    (read_judgments_file, "T1\t{}\t1", "bad rank or grade"),
    (read_judgments_file, "T1\t1\t{}", "bad rank or grade"),
]


@pytest.mark.parametrize("number", ["\u0661", "1_0", "\uff11", "1\u0660"])
@pytest.mark.parametrize("read,line,message", _NUMBER_COLUMNS)
def test_delimited_readers_take_only_ascii_numerals(tmp_path, read, line, message, number):
    path = tmp_path / "rows.txt"
    path.write_text(line.format(1) + "\n", encoding="utf-8")
    read(path)
    path.write_text(line.format(number) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"rows.txt:1: {message}$"):
        read(path)


def test_write_lines_then_read_lines(tmp_path):
    path = tmp_path / "sub" / "lines.txt"
    write_lines(path, ["a b", "", "  ", "c\td"])
    assert path.read_bytes() == b"a b\n\n  \nc\td\n"
    assert list(read_lines(path)) == [(1, "a b"), (4, "c\td")]
    write_lines(path, [])
    assert path.read_bytes() == b""
    assert list(read_lines(path)) == []


def test_read_lines_splits_where_open_does(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("a\rb\r\nc\u2028d\x85e\x0cf\n\ng".encode("utf-8"))
    with open(path, encoding="utf-8") as handle:
        expected = [line.rstrip("\n") for line in handle]
    assert [line for _, line in read_lines(path)] == [x for x in expected if x.strip()]
    assert list(read_lines(path)) == [(1, "a"), (2, "b"), (3, "c\u2028d\x85e\x0cf"), (5, "g")]
    assert read_text(path) == path.read_text(encoding="utf-8") == "a\nb\nc\u2028d\x85e\x0cf\n\ng"


def test_bytes_that_are_not_utf8_raise_a_data_error_naming_file_and_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"fine\r\nstill fine\rbad \xff here\n")
    with pytest.raises(DataError, match=r"bad\.tsv:3: not UTF-8"):
        read_text(path)
    with pytest.raises(DataError, match=r"bad\.tsv:3: not UTF-8"):
        list(read_lines(path))


def test_titled_files_load_in_name_order(tmp_path):
    (tmp_path / "Blue%20Whale.txt").write_text("whale", encoding="utf-8")
    (tmp_path / "Ark.txt").write_text("ship", encoding="utf-8")
    (tmp_path / "Other.wiki").write_text("x", encoding="utf-8")
    assert read_titled_files(tmp_path, ".txt") == [("Ark", "ship"), ("Blue Whale", "whale")]


def test_titled_files_reject_a_directory_with_none_of_the_suffix(tmp_path):
    (tmp_path / "Ark.wiki").write_text("ship", encoding="utf-8")
    with pytest.raises(DataError) as raised:
        read_titled_files(tmp_path, ".txt")
    assert str(raised.value) == f"{tmp_path}: no *.txt file"
    with pytest.raises(DataError, match="no \\*\\.txt file$"):
        read_titled_files(tmp_path / "missing", ".txt")


@pytest.mark.parametrize("name", [b"Whale\xff.txt", b"Whale%FF.txt"])
def test_titled_files_reject_a_name_that_is_not_utf8(tmp_path, name):
    (tmp_path / "Ark.txt").write_text("ship", encoding="utf-8")
    fd = os.open(os.path.join(os.fsencode(tmp_path), name), os.O_WRONLY | os.O_CREAT)
    os.close(fd)
    with pytest.raises(DataError, match="is not UTF-8"):
        read_titled_files(tmp_path, ".txt")
