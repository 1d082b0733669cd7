import numpy as np
import pytest

from conftest import random_kraus_channel
from sealsim.channel_file import (
    ChannelFormatError,
    channel_to_json,
    load_channel,
    parse_channel,
    save_channel,
)
from sealsim.qubit import seal_channel, validate_channel

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


def test_channel_to_json_is_plain_text():
    doc = channel_to_json(seal_channel(0.5))
    assert '"label"' in doc and '"operators"' in doc
