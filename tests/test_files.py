import ast
from pathlib import Path

import sparse_expand
from sparse_expand.files import read_lines, write_lines

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


def test_only_files_module_writes():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "files.py" and (lines := _writes(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}, "write output through sparse_expand.files"


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


def test_write_lines_then_read_lines(tmp_path):
    path = tmp_path / "sub" / "lines.txt"
    write_lines(path, ["a b", "", "  ", "c\td"])
    assert path.read_bytes() == b"a b\n\n  \nc\td\n"
    assert list(read_lines(path)) == [(1, "a b"), (4, "c\td")]
    write_lines(path, [])
    assert path.read_bytes() == b""
    assert list(read_lines(path)) == []
