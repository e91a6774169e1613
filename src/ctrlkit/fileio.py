"""Atomic file writes, checked UTF-8 reads and the malformed-file rule.

A file is written under a temporary name in its target's directory and
renamed onto the target only once it is complete, so a write that fails or
is interrupted leaves the previous file, if any, as it was.  The rename is
atomic on POSIX and Windows; nothing is fsynced, so the guarantee covers a
failing process, not a power loss.

``read_lines`` is the only text-file reader: a line ends at ``\\n``, ``\\r\\n``
or ``\\r``, one leading byte-order mark (U+FEFF) is dropped, and invalid
UTF-8 raises the caller's error naming the line.
``parsing`` turns a parser's exception into the caller's error.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file next to ``path`` for writing; it replaces
    ``path`` when the block exits cleanly and is removed when it raises."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_lines(path, error: type[Exception]) -> io.StringIO:
    """The lines of the UTF-8 text file ``path``, as iterating the file in
    text mode gives them, without one leading U+FEFF (a byte-order mark, not
    data; any other U+FEFF is); bytes that are not UTF-8 raise ``error``
    naming the line (counted by ``\\n``)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(
            f"{path}:{line}: byte {data[exc.start]:#04x} is not valid UTF-8"
        ) from None
    return io.StringIO(text.removeprefix("\ufeff"), newline=None)


@contextmanager
def parsing(path, error: type[Exception], what: str):
    """Raise the AttributeError, KeyError, TypeError or ValueError of the
    block as ``error``, naming the malformed ``what`` file ``path``."""
    try:
        yield
    except error:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise error(f"malformed {what} file {path}: {exc!r}") from None
