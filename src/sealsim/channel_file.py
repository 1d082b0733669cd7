"""Read and write Kraus channels as JSON documents.

Layout: ``{"label": str, "operators": [M, ...]}`` where each M is a 2x2
nested array of ``[re, im]`` pairs, row-major.  The label may not contain
control characters (below U+0020, or U+007F) or lone surrogates, and
:func:`channel_to_json` refuses such a label before anything is written.  Files
are UTF-8, as JSON requires; every malformed document, including one too
deeply nested or with a number too large to read, raises
:class:`ChannelFormatError`.
"""

from __future__ import annotations

import json
import re
import reprlib
from pathlib import Path

from sealsim.qubit import KrausChannel

# Labels are printed into line-based outputs (reports, transcript comments),
# so no character of one may end or rewrite a line: C0 controls and DEL.
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
# A JSON escape such as "\ud800" with no partner decodes to a lone surrogate,
# which no output stream can encode.
_SURROGATE = re.compile("[\ud800-\udfff]")
_NUMBER = (int, float)


class ChannelFormatError(ValueError):
    """Raised for malformed channel documents; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def _entry(value, n: int, i: int, j: int) -> complex:
    """Cell (i, j) of operator n as a complex number."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re_part, im_part = value
        # bool is a subclass of int, but true and false are not numbers here
        if (
            isinstance(re_part, _NUMBER)
            and isinstance(im_part, _NUMBER)
            and not (isinstance(re_part, bool) or isinstance(im_part, bool))
        ):
            try:
                return complex(re_part, im_part)
            except OverflowError as exc:
                raise ChannelFormatError(f"operators[{n}][{i}][{j}]: number out of range") from exc
    # reprlib cuts a long or deeply nested value down to a few dozen characters
    raise ChannelFormatError(
        f"operators[{n}][{i}][{j}]: expected an [re, im] number pair, got {reprlib.repr(value)}"
    )


def _check_label(label) -> None:
    """Raise :class:`ChannelFormatError` unless ``label`` is a string a document may hold."""
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
    _check_label(label)
    raw_ops = doc.get("operators")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ChannelFormatError('"operators" must be a non-empty array')

    # nested lists of complex entries, made into one (m, 2, 2) array by KrausChannel
    ops = []
    for n, raw in enumerate(raw_ops):
        if not isinstance(raw, list) or len(raw) != 2:
            raise ChannelFormatError(f"operators[{n}]: expected 2 rows")
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != 2:
                raise ChannelFormatError(f"operators[{n}]: row {i} must have 2 entries")
            rows.append((_entry(row[0], n, i, 0), _entry(row[1], n, i, 1)))
        ops.append(rows)

    try:
        return KrausChannel(ops, label=label)
    except ValueError as exc:
        raise ChannelFormatError(str(exc)) from exc


def load_channel(path: str | Path) -> KrausChannel:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as exc:
        raise ChannelFormatError(f"not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_channel(text)


def channel_to_json(ch: KrausChannel) -> str:
    """The channel as a document; raises :class:`ChannelFormatError` for a label no load accepts."""
    _check_label(ch.label)
    ops = [
        [[[op[i, j].real, op[i, j].imag] for j in range(2)] for i in range(2)]
        for op in ch.operators
    ]
    return json.dumps({"label": ch.label, "operators": ops}, indent=2)


def save_channel(ch: KrausChannel, path: str | Path) -> None:
    Path(path).write_text(channel_to_json(ch) + "\n")
