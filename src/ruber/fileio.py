"""Atomic output files.

Every file the CLI produces is written to a temporary file in the
target's directory and then moved over the target with ``os.replace``,
so a reader sees either the previous file or the complete new one, and a
failed write leaves the previous file untouched.  There is no fsync: this
guards against partial files from errors and interrupted runs, not
against power loss.
"""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a file handle whose contents replace ``path`` on success.

    If the body raises, the temporary file is removed and ``path`` is left
    as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
