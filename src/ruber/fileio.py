"""Atomic output files, and the ``%.6f`` text of their float tables.

Every output file is written to a temporary file in the target's directory
and then moved over the target with ``os.replace``, so a reader sees either
the previous file or the complete new one, and a failed write leaves the
previous file untouched.  A target that is a symbolic link is written
through: the link stays, and the file it names gets the new bytes.  There is
no fsync: this guards against partial files from errors and interrupted
runs, not against power loss.
"""

from __future__ import annotations

import contextlib
import errno
import os
import stat
import sys

import numpy as np

# cells rendered per pass of fixed6_lines: its scratch arrays stay a few hundred KiB
_BLOCK_CELLS = 4096
# a cell at or past it goes through %: v * 1e6 would near 2**52, where floats hold
# no fraction, and could overflow
_FIXED6_LIMIT = 2.0**52 / 1e6
# column i holds the three ASCII digits of i, leading zeros included
_DIGITS3 = np.array([list(b"%03d" % i) for i in range(1000)], np.uint8).T.copy()
_NAN, _INF = (np.frombuffer(word, np.uint8)[:, None] for word in (b"nan", b"inf"))


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a file handle whose contents replace ``path`` on success.

    :func:`check_target` refuses ``path`` before any file is made.  If the body
    raises, the temporary file is removed and ``path`` is left as it was.  An
    ``OSError`` names ``path``, not the temporary file or the file a link names.
    """
    path = os.fspath(path)
    real = check_target(path)
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, real)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def check_target(path) -> str:
    """Return the file that a write to ``path`` replaces: ``path`` with its links
    resolved.  Raise, naming ``path``, an ``OSError`` when the file system's
    encoding cannot hold ``path``, ``path`` is empty, its directory is missing or
    it is a directory; or when it is another kind of non-regular file, a FIFO
    say, that ``os.replace`` would replace, not write to.

    A command that writes several files checks them all before its first
    write, so that a refusal leaves none of them behind.
    """
    path = os.fspath(path)
    check_name(path)
    if not path:  # realpath would read "" as the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    # realpath drops a trailing separator; kept, it still names a directory
    real = os.path.realpath(path) + os.sep * path.endswith(os.sep)
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(real)).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        with contextlib.suppress(FileNotFoundError):  # a new file
            mode = os.stat(real).st_mode
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if not stat.S_ISREG(mode):
                raise OSError(errno.EEXIST, "exists and is not a regular file")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    return real


def check_name(path) -> None:
    """Raise an ``OSError`` naming ``path`` when the file system's encoding cannot
    hold it, as under the C locale for a metric name with a non-ASCII letter."""
    path = os.fspath(path)
    try:
        os.fsencode(path)
    except UnicodeEncodeError as exc:
        raise OSError(errno.EILSEQ, f"the file system encoding "
                      f"{sys.getfilesystemencoding()!r} cannot hold this name", path) from exc


def fixed6_lines(values, sep: str):
    """Yield each row of the 2-D float array ``values`` (at least one column) as its
    ``'%.6f'`` cells joined by ``sep`` (ASCII, no newline): byte for byte
    ``sep.join('%.6f' % v for v in row)``.

    The digits of a block of rows come from integer passes over ``round(v * 1e6)``.
    A row holding a cell whose float product cannot decide that rounding, an exact
    tie or a magnitude past ``_FIXED6_LIMIT``, is formatted with ``%`` instead.
    """
    values = np.asarray(values, dtype=float)
    step = max(1, _BLOCK_CELLS // values.shape[1])
    sep_bytes = np.frombuffer(sep.encode("ascii"), np.uint8)
    for start in range(0, values.shape[0], step):
        yield from _fixed6_block(values[start:start + step], sep, sep_bytes)


def _fixed6_block(block, sep, sep_bytes) -> list[str]:
    finite = np.isfinite(block)
    small = np.abs(block) < _FIXED6_LIMIT  # False for nan and inf
    y = np.where(small, block, 0.0) * 1e6
    n = np.rint(y)
    # the exact v * 1e6 is within half a spacing of y, so it rounds to n when y is
    # further than that from n +- 0.5; np.spacing is negative for negative inputs
    decided = np.abs(np.abs(y - n) - 0.5) > 2 * np.spacing(np.abs(y))
    undecided = np.flatnonzero((~decided | (finite & ~small)).any(axis=1))  # rows for %

    # one byte plane per character position; the 0 bytes of unused positions are dropped
    whole, frac = np.divmod(np.abs(n).astype(np.int64), 10**6)
    ndig = len(str(whole.max()))
    end = ndig + 8  # sign, integer digits, point, six fraction digits
    planes = np.zeros((end + sep_bytes.size,) + block.shape, np.uint8)
    planes[0] = np.signbit(block) * ord("-")
    for k in range(ndig):  # from the units digit up; leading zeros stay 0
        present = whole > 0 if k else True
        whole, digit = np.divmod(whole, 10)
        planes[ndig - k] = (digit + 48) * present
    planes[ndig + 1] = ord(".")
    high, low = np.divmod(frac, 1000)
    planes[ndig + 2:ndig + 5] = _DIGITS3.take(high, axis=1)
    planes[ndig + 5:end] = _DIGITS3.take(low, axis=1)
    if not finite.all():
        nan = np.isnan(block)
        planes[0, nan] = 0  # "%.6f" % -nan is "nan"
        planes[1:end, ~finite] = 0
        planes[1:4, nan] = _NAN
        planes[1:4, np.isinf(block)] = _INF
    planes[end:, :, :-1] = sep_bytes[:, None, None]
    planes[end, :, -1] = ord("\n")
    text = planes.transpose(1, 2, 0).tobytes().translate(None, b"\0").decode("ascii")
    lines = text.split("\n")[:-1]
    for row in undecided:
        lines[row] = sep.join("%.6f" % v for v in block[row].tolist())
    return lines
