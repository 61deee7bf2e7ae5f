"""The file boundary: every output write and every text-file read.

Every output file is written to a unique temporary file in its
directory, flushed to disk and renamed over the target, so a failed
write leaves the old file in place and no temporary file behind. Every
input text file is UTF-8; a file that is not raises `DataError` naming
the file and line. Line files hold one record per line, split as `open()`
splits them (at `\\n`, `\\r` and `\\r\\n` only); readers skip blank lines
and number the rest from 1 for their error messages.
"""

from __future__ import annotations

import os
import tempfile
import urllib.parse
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import DataError

T = TypeVar("T")


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace `path` with `data`, creating its directory if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        # mkstemp creates the file private; give it the mode a plain write would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(name, 0o666 & ~umask)
        os.replace(name, path)
    except BaseException:
        Path(name).unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line followed by a newline."""
    write_atomic(path, "".join(line + "\n" for line in lines).encode("utf-8"))


def _lf(text: str) -> str:
    """`text` with its line ends read as `open()` reads them: `\\r\\n` and
    `\\r` become `\\n`."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path: str | Path) -> str:
    """The whole of a UTF-8 file."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode, so they can be split into lines.
        lineno = _lf(data[: exc.start].decode("utf-8")).count("\n") + 1
        raise DataError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from None
    return _lf(text)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of a UTF-8 file."""
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if line.strip():
                    yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
        read_text(path)  # raises the DataError that names the line
        raise


def is_id(text: str) -> bool:
    """Whether `text` is a valid id (of a topic, a document or a run):
    non-empty, with no whitespace, so a split line gives it back whole."""
    return text.split() == [text]


def line_id(path: str | Path, lineno: int, text: str) -> str:
    """`text` stripped, as the topic id on line `lineno` of `path`;
    DataError if that is empty or holds whitespace."""
    text = text.strip()
    if not is_id(text):
        problem = "contains whitespace" if text else "is empty"
        raise DataError(f"{path}:{lineno}: topic id {text!r} {problem}")
    return text


def read_keyed_lines(path: str | Path, parse: Callable[[str], T]) -> dict[str, T]:
    """topic id -> parsed value, per `topic_id<TAB>value` line. DataError
    naming the line for a missing tab, a bad id (`line_id`), an id seen
    on an earlier line, or a value that `parse` rejects."""
    values: dict[str, T] = {}
    for lineno, line in read_lines(path):
        topic_id, sep, value = line.partition("\t")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected a tab after the topic id")
        topic_id = line_id(path, lineno, topic_id)
        if topic_id in values:
            raise DataError(f"{path}:{lineno}: repeated topic id {topic_id!r}")
        try:
            values[topic_id] = parse(value)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return values


def read_titled_files(directory: str | Path, suffix: str) -> list[tuple[str, str]]:
    """(title, text) of each `<percent-encoded-title><suffix>` file of a
    directory, in file-name order. Titles must be UTF-8, as encoded and
    as decoded, since every writer emits them as UTF-8."""
    pairs = []
    for file in sorted(Path(directory).glob("*" + suffix)):
        try:
            file.name.encode("utf-8")
            title = urllib.parse.unquote(file.stem, errors="strict")
        except UnicodeError:
            raise DataError(f"{directory}: file name {file.name!r} is not UTF-8") from None
        pairs.append((title, read_text(file)))
    return pairs
