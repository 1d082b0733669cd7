"""Whole-file output: a file is either fully written or left untouched."""

from __future__ import annotations

import os
import stat
from collections.abc import Iterable
from pathlib import Path

_BytesLike = bytes | bytearray | memoryview


def _create_beside(directory: str) -> tuple[int, str]:
    """Create a new, empty temporary file in ``directory``; return its descriptor and path.

    The file is created with mode 0o666, so the kernel applies the process
    umask, as it does for ``open(path, "w")``.
    """
    while True:
        tmp = os.path.join(directory, f".sealsim-{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def write_atomic(path: str | Path, data: str | _BytesLike | Iterable[_BytesLike]) -> None:
    """Write ``data`` to a temporary file beside the file at ``path``, then rename it.

    ``str`` is written in text mode; a bytes-like object (``bytes``,
    ``bytearray``, ``memoryview``) is written as it is, and so is each
    bytes-like chunk of any other iterable, in order, so a caller can stream
    a file that it never holds whole.  A new file gets mode 0o666 less the
    umask, and a file that is replaced keeps its mode bits, as with
    ``open(path, "w")``.  Like ``open``, a symlink at ``path`` is followed:
    the temporary file is created beside the file it points to and renamed
    onto that file, so the link stays a link.

    On any failure, also one raised by the iterable, the temporary file is
    removed and the exception propagates; an existing file at ``path`` keeps
    its old contents.
    """
    target = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        mode = None
    fd, tmp = _create_beside(os.path.dirname(target))
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            if isinstance(data, str | _BytesLike):
                handle.write(data)
            else:
                handle.writelines(data)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
