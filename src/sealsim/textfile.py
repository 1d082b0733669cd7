"""Whole-file output: a file is either fully written or left untouched."""

from __future__ import annotations

import os
import secrets
import stat
from pathlib import Path


def _create_beside(directory: str) -> tuple[int, str]:
    """Create a new, empty temporary file in ``directory``; return its descriptor and path.

    The file is created with mode 0o666, so the kernel applies the process
    umask, as it does for ``open(path, "w")``.
    """
    while True:
        tmp = os.path.join(directory, f".sealsim-{secrets.token_hex(6)}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def write_atomic(path: str | Path, data: str | bytes | bytearray | memoryview) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it.

    ``str`` is written in text mode; any other data (``bytes``,
    ``bytearray``, ``memoryview``) is written as it is.  A new file gets
    mode 0o666 less the umask, and a file that is replaced keeps its mode
    bits, as with ``open(path, "w")``.

    On any failure the temporary file is removed and the exception
    propagates; an existing file at ``path`` keeps its old contents.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    fd, tmp = _create_beside(directory)
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
