"""Read and write Kraus channels as JSON documents.

Layout: ``{"label": str, "operators": [M, ...]}`` where each M is a 2x2
nested array of ``[re, im]`` pairs, row-major.  The label may not contain
control characters (below U+0020, or U+007F) or lone surrogates.  Files
are UTF-8, as JSON requires; every malformed document, including one too
deeply nested or with a number too large to read, raises
:class:`ChannelFormatError`.
"""

from __future__ import annotations

import json
import re
import reprlib
from pathlib import Path

import numpy as np

from sealsim.qubit import KrausChannel

# Labels are printed into line-based outputs (reports, transcript comments),
# so no character of one may end or rewrite a line: C0 controls and DEL.
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
# A JSON escape such as "\ud800" with no partner decodes to a lone surrogate,
# which no output stream can encode.
_SURROGATE = re.compile("[\ud800-\udfff]")


class ChannelFormatError(ValueError):
    """Raised for malformed channel documents; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def _entry(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
    ):
        # reprlib cuts a long or deeply nested value down to a few dozen characters
        got = reprlib.repr(value)
        raise ChannelFormatError(f"{where}: expected an [re, im] number pair, got {got}")
    try:
        return complex(value[0], value[1])
    except OverflowError as exc:
        raise ChannelFormatError(f"{where}: number out of range") from exc


def parse_channel(text: str) -> KrausChannel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an integer literal beyond int's digit limit
        raise ChannelFormatError("invalid JSON: an integer has too many digits") from exc
    except RecursionError as exc:
        raise ChannelFormatError("invalid JSON: nested too deeply") from exc

    if not isinstance(doc, dict):
        raise ChannelFormatError("top level must be an object")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ChannelFormatError('"label" must be a string')
    control = _CONTROL.search(label)
    if control:
        raise ChannelFormatError(
            f'"label" has control character U+{ord(control.group()):04X} at index {control.start()}'
        )
    surrogate = _SURROGATE.search(label)
    if surrogate:
        raise ChannelFormatError(
            f'"label" has lone surrogate U+{ord(surrogate.group()):04X} at index {surrogate.start()}'
        )
    raw_ops = doc.get("operators")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ChannelFormatError('"operators" must be a non-empty array')

    ops = []
    for n, raw in enumerate(raw_ops):
        where = f"operators[{n}]"
        if not isinstance(raw, list) or len(raw) != 2:
            raise ChannelFormatError(f"{where}: expected 2 rows")
        mat = np.empty((2, 2), dtype=complex)
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != 2:
                raise ChannelFormatError(f"{where}: row {i} must have 2 entries")
            for j, cell in enumerate(row):
                mat[i, j] = _entry(cell, f"{where}[{i}][{j}]")
        ops.append(mat)

    try:
        return KrausChannel(tuple(ops), label=label)
    except ValueError as exc:
        raise ChannelFormatError(str(exc)) from exc


def load_channel(path: str | Path) -> KrausChannel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ChannelFormatError(f"not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_channel(text)


def channel_to_json(ch: KrausChannel) -> str:
    ops = [
        [[[op[i, j].real, op[i, j].imag] for j in range(2)] for i in range(2)]
        for op in ch.operators
    ]
    return json.dumps({"label": ch.label, "operators": ops}, indent=2)


def save_channel(ch: KrausChannel, path: str | Path) -> None:
    Path(path).write_text(channel_to_json(ch) + "\n")
