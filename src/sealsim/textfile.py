"""Whole-file output: a file is either fully written or left untouched."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_atomic(path: str | Path, data: str | bytes | bytearray | memoryview) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it.

    ``str`` is written in text mode; any other data (``bytes``,
    ``bytearray``, ``memoryview``) is written as it is.

    On any failure the temporary file is removed and the exception
    propagates; an existing file at ``path`` keeps its old contents.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sealsim-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
