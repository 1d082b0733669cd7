import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kraus_channel
from sealsim.channel_file import (
    ChannelFormatError,
    channel_to_json,
    load_channel,
    parse_channel,
    save_channel,
)
from sealsim.qubit import KrausChannel, seal_channel, validate_channel

SEAL_036 = """
{
  "label": "seal(x=0.36)",
  "operators": [
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.0]]],
    [[[0.0, 0.0], [0.6, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
  ]
}
"""


def test_parse_seal_document():
    ch = parse_channel(SEAL_036)
    assert ch.label == "seal(x=0.36)"
    reference = seal_channel(0.36)
    for got, want in zip(ch.operators, reference.operators):
        assert np.abs(got - want).max() <= 1e-12
    assert validate_channel(ch).passes


def test_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    for ch in (seal_channel(0.7), random_kraus_channel(rng, 3)):
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        back = load_channel(path)
        assert back.label == ch.label
        assert len(back.operators) == len(ch.operators)
        for got, want in zip(back.operators, ch.operators):
            assert np.abs(got - want).max() <= 1e-15


def test_json_error_carries_position():
    with pytest.raises(ChannelFormatError) as err:
        parse_channel('{"label": "x", operators: []}')
    assert err.value.line == 1
    assert err.value.column is not None


# Each malformed document and the exact message it is rejected with.
MALFORMED = {
    "[]": "top level must be an object",
    '{"label": "x"}': '"operators" must be a non-empty array',
    '{"label": "x", "operators": []}': '"operators" must be a non-empty array',
    '{"label": 3, "operators": [[[[1,0],[0,0]],[[0,0],[1,0]]]]}': '"label" must be a string',
    '{"label": "x", "operators": [[[[1,0],[0,0]]]]}': "operators[0]: expected 2 rows",
    '{"label": "x", "operators": [[[[1,0],[0,0]],[[0,0],["a",0]]]]}': (
        "operators[0][1][1]: expected an [re, im] number pair, got ['a', 0]"
    ),
    '{"label": "x", "operators": [[[[1,0],[0,0]],[[0,0],[true,0]]]]}': (
        "operators[0][1][1]: expected an [re, im] number pair, got [True, 0]"
    ),
    '{"label": "x", "operators": [[[[0,0],[0,0]],[[0,0],[0,0]]]]}': (
        "a channel needs at least one non-zero Kraus operator"
    ),
    # json reads 1e999 as inf
    '{"label": "x", "operators": [[[[1,0],[0,0]],[[0,0],[1e999,0]]]]}': "entries must be finite",
    # 401 digits: within int's digit limit, beyond a float's range
    '{"label": "x", "operators": [[[[1,0],[0,0]],[[0,0],[0,1%s]]]]}' % ("0" * 400): (
        "operators[0][1][1]: number out of range"
    ),
}


@pytest.mark.parametrize(
    "text", list(MALFORMED), ids=lambda text: "integer-beyond-float" if len(text) > 400 else None
)
def test_malformed_documents_rejected(text):
    with pytest.raises(ChannelFormatError) as err:
        parse_channel(text)
    assert str(err.value) == MALFORMED[text]


def test_entries_keep_their_operator_and_cell():
    doc = '{"operators": [[[[1,2],[3,4]],[[5,6],[7,8]]], [[[0,1],[0,0]],[[0,0],[0,-1]]]]}'
    stack = parse_channel(doc).stack
    assert stack.shape == (2, 2, 2)
    assert stack[0].tolist() == [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]]
    assert stack[1].tolist() == [[1j, 0], [0, -1j]]


@settings(max_examples=200, deadline=None)
@given(
    st.text(st.characters(exclude_categories=()), max_size=8),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_a_saved_channel_loads_back_or_is_refused_unwritten(label, operators, seed):
    """Any label, lone surrogates and control characters included, is either
    refused before a file is written, with the message a load would give,
    or loads back with the same label and the same operator bytes."""
    stack = random_kraus_channel(np.random.default_rng(seed), operators).stack
    channel = KrausChannel(stack, label)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "channel.json"
        try:
            save_channel(channel, path)
        except ChannelFormatError as refused:
            assert not path.exists()
            identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
            with pytest.raises(ChannelFormatError) as loaded:
                parse_channel(json.dumps({"label": label, "operators": [identity]}))
            assert str(refused) == str(loaded.value)
            return
        back = load_channel(path)
    assert back.label == label
    assert back.stack.tobytes() == channel.stack.tobytes()


@pytest.mark.parametrize(
    "label, message",
    [
        ("a\nb", '"label" has control character U+000A at index 1'),
        ("ok\x7f", '"label" has control character U+007F at index 2'),
        ("\ud800", '"label" has lone surrogate U+D800 at index 0'),
    ],
)
def test_save_channel_refuses_a_label_load_channel_refuses(tmp_path, label, message):
    path = tmp_path / "channel.json"
    with pytest.raises(ChannelFormatError, match=f"^{re.escape(message)}$"):
        save_channel(KrausChannel((np.eye(2),), label), path)
    assert not path.exists()


def test_channel_to_json_is_plain_text():
    doc = channel_to_json(seal_channel(0.5))
    assert '"label"' in doc and '"operators"' in doc
