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
import errno
import os
import stat


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a file handle whose contents replace ``path`` on success.

    If the body raises, the temporary file is removed and ``path`` is left
    as it was.  An ``OSError`` from creating the temporary file or from
    moving it names ``path``, not the temporary file.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def check_target(path) -> None:
    """Raise, naming ``path``, the ``OSError`` that :func:`atomic_write` would
    give because the directory of ``path`` is missing or ``path`` is a directory.

    A command that writes several files checks them all before its first
    write, so that a refusal leaves none of them behind.
    """
    path = os.fspath(path)
    head = os.path.dirname(path) or "."
    try:
        if not stat.S_ISDIR(os.stat(head).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), head)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
