"""Atomic file writes.

A file is written under a temporary name in its target's directory and
renamed onto the target only once it is complete, so a write that fails or
is interrupted leaves the previous file, if any, as it was.  The rename is
atomic on POSIX and Windows; nothing is fsynced, so the guarantee covers a
failing process, not a power loss.
"""

from __future__ import annotations

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
