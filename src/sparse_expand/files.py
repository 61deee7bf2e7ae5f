"""The file boundary: every output write, every text-file read and the
rules of the records those files hold.

Every output file is written, as a sequence of byte chunks, to a unique
temporary file in its directory, flushed to disk and renamed over the
target, so a failed write leaves the old file in place and no temporary
file behind. Every input text file is UTF-8; a file that is not raises
`DataError` naming the file and line. Line files hold one record per
line, split as `open()` splits them (at `\\n`, `\\r` and `\\r\\n` only);
readers skip blank lines and number the rest from 1 for their error
messages.

The record rules live here, each once: a JSON record (document, topic,
`run` config) is one object with no repeated key and no lone surrogate
(`json_object`); a delimited row has its reader's column count
(`read_rows`) and ASCII numerals (`ascii_number`); an id holds no
whitespace (`is_id`); written text holds no lone surrogate
(`encodable`); a ranked list (a run topic, a suggestion set) has
finite scores that never rise, no key twice (`check_ranked`) and, in a
file, ranks 1..k (`check_ranks`).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import urllib.parse
from collections import Counter
from operator import lt
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DataError

T = TypeVar("T")


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Replace `path` with the concatenated byte `chunks`, creating its
    directory if needed. The chunks are written as they are drawn, so a
    caller need not hold the whole file at once; an error while drawing
    one leaves the old file as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
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
    """Write each line followed by a newline; DataError, before any byte
    is written, for a line holding a lone surrogate (`encodable`)."""
    text = "".join(line + "\n" for line in lines)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        lineno = text.count("\n", 0, exc.start) + 1
        raise DataError(
            f"{path}: line {lineno} holds a lone surrogate {text[exc.start]!r}, which UTF-8 cannot encode"
        ) from None
    write_atomic(path, [data])


def encodable(text: str) -> bool:
    """Whether `text` can be written as UTF-8: whether it holds no lone
    surrogate (\\ud800-\\udfff), the only code points UTF-8 cannot encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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


def read_rows(path: str | Path, n: int, sep: str | None = None) -> Iterator[tuple[int, list[str]]]:
    """(line number, columns) of each non-blank line, split at `sep` or, if
    None, at whitespace; DataError naming a line without `n` columns."""
    for lineno, line in read_lines(path):
        parts = line.split(sep)
        if len(parts) != n:
            raise DataError(f"{path}:{lineno}: expected {n} {'tab' if sep else 'whitespace'}-separated columns")
        yield lineno, parts


def ascii_number(text: str, kind: Callable[[str], T] = int) -> T:
    """`kind(text)` for a numeral written in ASCII without `_`; ValueError
    for `1_0` or a digit of another script, which `int` and `float` take."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII numeral: {text!r}")
    return kind(text)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise DataError(f"repeated key {Counter(k for k, _ in pairs).most_common(1)[0][0]!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # `json.loads` would build one per call


def json_object(text: str) -> dict:
    """`text` parsed as one JSON object; DataError for invalid JSON (too deep
    or too many digits included), a non-object, a key repeated within an
    object, and a lone surrogate, which no UTF-8 writer can emit."""
    try:
        obj = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError("not a JSON object")
    # Only a JSON escape such as \ud800 decodes to a lone surrogate.
    if "\\" in text:
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise DataError("a string holds a lone surrogate (\\ud800-\\udfff)") from None
    return obj


def check_ranked(what: str, keys: Sequence[str], scores: Sequence[float], key: str) -> None:
    """DataError, prefixed by `what`, for a ranked list no file may hold: a
    score that is not finite, a `key` seen twice, or scores rising with rank."""
    if not all(map(math.isfinite, scores)):
        raise DataError(f"{what}: score must be finite")
    if len(set(keys)) != len(keys):
        raise DataError(f"{what}: duplicate {key} {Counter(keys).most_common(1)[0][0]!r}")
    if any(map(lt, scores, scores[1:])):
        raise DataError(f"{what}: scores increase with rank")


def check_ranks(what: str, ranks: Sequence[int]) -> None:
    """DataError, prefixed by `what`, unless the sorted `ranks` are 1..k."""
    if tuple(ranks) != tuple(range(1, len(ranks) + 1)):
        place, rank = next((i, rank) for i, rank in enumerate(ranks, 1) if rank != i)
        raise DataError(f"{what}: ranks must be contiguous from 1, got {rank} in place of {place}")


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
