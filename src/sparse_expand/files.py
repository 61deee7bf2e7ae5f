"""The file boundary: every output write and every line-file read.

Every output file is written to a unique temporary file in its
directory, flushed to disk and renamed over the target, so a failed
write leaves the old file in place and no temporary file behind. Line
files are UTF-8 with one record per line; readers skip blank lines and
number the rest from 1 for their error messages.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator


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


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of a UTF-8 file."""
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if line.strip():
            yield lineno, line
