import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import public_line_records, random_kraus_channel, rotated_channel
from oracles import (
    _draw,
    born_table_by_matmul,
    born_table_by_state,
    mismatch_by_state,
    tally_by_loop,
    transcript_lines_by_record,
)
from sealsim import analysis, protocol, qubit
from sealsim.analysis import bit_announcement_probs, mismatch_probability
from sealsim.channel_file import channel_to_json, parse_channel
from sealsim.protocol import (
    BIT_ANNOUNCEMENT_ALPHABET,
    BitAnnouncement,
    ProtocolParams,
    PublicTranscript,
    ResultAnnouncement,
    RunOutcome,
    ShotRecord,
    ShotSampler,
    bob_decode,
    export_transcript,
    information_density,
    matching_basis,
    monte_carlo,
    predicted_result,
    public_transcript,
    run_protocol,
    run_keys,
    tally_mismatches,
    transcript_lines,
)
from sealsim.qubit import (
    KrausChannel,
    MeasurementBasis,
    MeasurementResult,
    ProtocolPureState,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    seal_channel,
)
from sealsim.textfile import write_atomic

ZERO, ONE = ProtocolPureState.ZERO, ProtocolPureState.ONE
PLUS, MINUS = ProtocolPureState.PLUS, ProtocolPureState.MINUS
S1, S3 = MeasurementBasis.SIGMA1, MeasurementBasis.SIGMA3
UP, DOWN = MeasurementResult.PLUS, MeasurementResult.MINUS

PARAMS = ProtocolParams(n_shots=119, p_announce=0.05, message_bit=0, seed=20240917)


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(0, 0.5, 0, 1)
    with pytest.raises(ValueError):
        ProtocolParams(10, 1.2, 0, 1)
    with pytest.raises(ValueError):
        ProtocolParams(10, 0.5, 2, 1)
    with pytest.raises(ValueError):
        ProtocolParams(10, 0.5, 0, 2**64)


def test_matching_basis_and_prediction():
    assert matching_basis(ZERO, S3) and matching_basis(PLUS, S1)
    assert not matching_basis(ZERO, S1) and not matching_basis(MINUS, S3)
    assert predicted_result(ZERO) is UP and predicted_result(PLUS) is UP
    assert predicted_result(ONE) is DOWN and predicted_result(MINUS) is DOWN


# ---------------------------------------------------------------------------
# Single shots: integer thresholds on raw words
# ---------------------------------------------------------------------------

# 53-bit variates: Generator.random gives m * 2**-53
M_MAX = 2**53 - 1


def _shot(sampler, prep, basis, result_word, announce_word=2**64 - 1, bit=0, pa=0.05):
    """The record of one shot from its preparation and basis indices and the
    raw words of its result and announcement variates."""
    columns = (
        np.array([prep], dtype=np.uint32),
        np.array([basis], dtype=np.uint32),
        protocol._variates(np.array([result_word], dtype=np.uint64)),
        protocol._variates(np.array([announce_word], dtype=np.uint64)),
    )
    return protocol._RECORDS[sampler.keys(columns, protocol._threshold(pa), bit)[0]]


def _word(m, low=0):
    """A raw word whose 53-bit variate is m; its low 11 bits are discarded."""
    return m << 11 | low


def test_sampler_born_table_identity():
    sampler = ShotSampler(identity_channel())
    # eigenstates are deterministic on the matched basis, even at the largest variate
    assert _shot(sampler, 0, 1, _word(M_MAX, 0x7FF)).result is UP  # |0>, sigma3
    assert _shot(sampler, 1, 1, _word(0)).result is DOWN  # |1>, sigma3
    assert _shot(sampler, 2, 0, _word(M_MAX, 0x7FF)).result is UP  # |+>, sigma1
    # unmatched basis splits evenly: the threshold sits exactly at 1/2
    assert _shot(sampler, 2, 1, _word(2**52 - 1, 0x7FF)).result is UP
    assert _shot(sampler, 2, 1, _word(2**52)).result is DOWN


def test_sampler_born_table_seal():
    x = 0.37
    sampler = ShotSampler(seal_channel(x))
    # |1> measured in sigma3 flips to +1 with probability exactly x: words
    # whose variates lie 1e-9 on either side of it, and the two variates
    # next to the threshold
    below, above = math.floor((x - 1e-9) * 2**53), math.ceil((x + 1e-9) * 2**53)
    assert _shot(sampler, 1, 1, _word(below, 0x7FF)).result is UP
    assert _shot(sampler, 1, 1, _word(above)).result is DOWN
    threshold = int(sampler._result_thresholds[1 * 2 + 1])
    assert below < threshold < above
    assert _shot(sampler, 1, 1, _word(threshold - 1, 0x7FF)).result is UP
    assert _shot(sampler, 1, 1, _word(threshold)).result is DOWN


def test_announcement_threshold_on_words():
    sampler = ShotSampler(identity_channel())
    threshold = int(protocol._threshold(0.05))
    for bit in (0, 1):
        below = _shot(sampler, 0, 1, 0, _word(threshold - 1, 0x7FF), bit, 0.05)
        assert below.announcement == BitAnnouncement(bit)
        at = _shot(sampler, 0, 1, 0, _word(threshold), bit, 0.05)
        assert at.announcement == ResultAnnouncement(UP)
    # p_announce 0 never announces a bit and 1 always does
    assert isinstance(_shot(sampler, 0, 1, 0, 0, 0, 0.0).announcement, ResultAnnouncement)
    assert isinstance(_shot(sampler, 0, 1, 0, 2**64 - 1, 0, 1.0).announcement, BitAnnouncement)


# Doubles where a threshold could slip: the smallest subnormal, one variate
# step, either side of 1/2 and just below 1.
THRESHOLD_EDGES = [
    0.0,
    5e-324,
    2.0**-53,
    float(np.nextafter(0.5, 0.0)),
    0.5,
    float(np.nextafter(0.5, 1.0)),
    float(np.nextafter(1.0, 0.0)),
    1.0,
]


def _assert_threshold_is_the_double_comparison(m, p):
    threshold = int(protocol._threshold(p))
    assert 0 <= threshold <= 2**53
    for variate in (m, threshold - 1, threshold, threshold + 1, 0, M_MAX):
        if 0 <= variate <= M_MAX:
            assert (variate < threshold) == (variate * 2.0**-53 < p)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=M_MAX), st.floats(min_value=0.0, max_value=1.0))
@example(0, 0.0)
@example(1, 5e-324)
@example(1, 2.0**-53)
@example(2**52, float(np.nextafter(0.5, 0.0)))
@example(2**52, float(np.nextafter(0.5, 1.0)))
@example(M_MAX, float(np.nextafter(1.0, 0.0)))
@example(M_MAX, 1.0)
def test_integer_threshold_is_the_double_comparison(m, p):
    """A 53-bit variate m lies below T(p) exactly when m * 2**-53 < p,
    checked at m and at T - 1, T and T + 1."""
    _assert_threshold_is_the_double_comparison(m, p)


def test_integer_thresholds_at_the_edges():
    for p in THRESHOLD_EDGES:
        _assert_threshold_is_the_double_comparison(0, p)
    thresholds = protocol._threshold(np.array(THRESHOLD_EDGES))
    assert thresholds.dtype == np.uint64
    assert thresholds.tolist() == [int(protocol._threshold(p)) for p in THRESHOLD_EDGES]
    assert thresholds.tolist() == [0, 1, 1, 2**52, 2**52, 2**52 + 1, 2**53 - 1, 2**53]


def test_sampler_validates_the_channel_once(monkeypatch):
    calls = []
    validate = qubit.validate_channel
    monkeypatch.setattr(qubit, "validate_channel", lambda ch: calls.append(ch) or validate(ch))
    channel = random_kraus_channel(np.random.default_rng(4), 3)
    ShotSampler(channel)
    assert calls == [channel]
    half = KrausChannel((np.diag([1.0, 0.5]),), label="half")
    with pytest.raises(ValueError, match=r"channel 'half' fails completeness \(deviation 7.500e-01\)"):
        ShotSampler(half)


@st.composite
def channels(draw):
    """A builtin channel at a drawn strength, or a random channel of 1 to 4 operators."""
    kind = draw(st.sampled_from(["seal", "depolarizing", "dephasing", "identity", "random"]))
    strength = draw(st.floats(min_value=0.0, max_value=1.0))
    if kind == "seal":
        return seal_channel(strength)
    if kind == "depolarizing":
        return depolarizing_channel(strength)
    if kind == "dephasing":
        return dephasing_channel()
    if kind == "identity":
        return identity_channel()
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_kraus_channel(np.random.default_rng(seed), draw(st.integers(1, 4)))


# Every (preparation, basis, result) cell of a Born table, in C order.
BORN_CELLS = list(np.ndindex(4, 2, 2))


@settings(max_examples=300, deadline=None)
@given(channels())
def test_born_table_is_the_per_state_path(channel):
    """The stacked Born table is the per-state one bit for bit: the Monte
    Carlo compares its variates against the thresholds of these very floats."""
    want = born_table_by_state(channel)
    thresholds = ShotSampler(channel)._result_thresholds
    assert thresholds.tobytes() == protocol._threshold(want[:, :, 0].ravel()).tobytes()
    assert qubit.born_table(channel).tobytes() == want.tobytes()
    assert qubit.validate_channel(channel).born.tobytes() == want.tobytes()
    stacked = np.stack([channel.stack, channel.stack[::-1]])
    assert qubit.born_cells(stacked, BORN_CELLS)[0].tobytes() == want.tobytes()
    assert abs(mismatch_probability(channel).per_shot - mismatch_by_state(channel)) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(channels())
def test_born_table_is_measurement_prob_on_each_image(channel):
    """born_table's promise: each cell is, bit for bit, the float that
    measurement_prob gives on the matching preparation image alone."""
    table = qubit.born_table(channel)
    images = qubit.preparation_images(channel)
    for s, b, m in BORN_CELLS:
        state = list(ProtocolPureState)[s]
        basis, result = list(MeasurementBasis)[b], list(MeasurementResult)[m]
        want = qubit.measurement_prob(images[state], basis, result)
        assert table[s, b, m].tobytes() == np.float64(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 4))
def test_entrywise_born_cells_are_within_rounding_of_matmul(seed, operators):
    """The entrywise products round differently from np.matmul's, by at
    most 1e-15 in any Born cell."""
    channel = random_kraus_channel(np.random.default_rng(seed), operators)
    assert np.abs(qubit.born_table(channel) - born_table_by_matmul(channel)).max() <= 1e-15


def test_born_cells_of_stacked_channels_are_each_channels_table():
    """Channels with the same number of operators, stacked, each get the
    floats of their own per-state table, in any choice and order of cells."""
    rng = np.random.default_rng(1)
    by_count = [
        [seal_channel(0.0), identity_channel()],
        [seal_channel(0.3), dephasing_channel(), seal_channel(1.0), random_kraus_channel(rng, 2)],
        [random_kraus_channel(rng, 3)],
        [depolarizing_channel(0.2), random_kraus_channel(rng, 4)],
    ]
    picked = [(3, 1, 0), (0, 0, 1), (3, 1, 0)]
    for channels in by_count:
        stacks = np.stack([channel.stack for channel in channels])
        cells = qubit.born_cells(stacks, BORN_CELLS)
        assert cells.shape == (len(channels), 16)
        for channel, row in zip(channels, cells):
            assert row.tobytes() == born_table_by_state(channel).tobytes()
        some = qubit.born_cells(stacks, picked)
        assert some.tobytes() == cells[:, [14, 1, 14]].tobytes()
        assert qubit.born_cells(stacks[:0], BORN_CELLS).shape == (0, 16)


def test_born_table_rejects_an_incomplete_channel_as_before():
    half = KrausChannel((np.diag([1.0, 0.5]),), label="half")
    message = r"channel 'half' fails completeness \(deviation 7.500e-01\)"
    for call in (
        lambda: born_table_by_state(half),
        lambda: ShotSampler(half),
        lambda: mismatch_probability(half),
        lambda: qubit.born_table(half),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_the_stacked_damping_gate_rejects_with_born_tables_message(monkeypatch):
    """The mismatch grid checks one completeness deviation per stacked row
    and raises born_table's message for the first row that fails.  No
    damping channel fails the gate, so the tolerance is lowered below all
    of their deviations."""
    channel = seal_channel(0.25)
    monkeypatch.setattr(qubit, "COMPLETENESS_TOL", -1.0)
    message = r"channel 'seal\(x=0.25\)' fails completeness \(deviation \d\.\d{3}e[+-]\d+\)"
    for call in (
        lambda: qubit.born_table(channel),
        lambda: qubit.damping_stack([0.25, 0.5]),
        lambda: analysis.seal_mismatch_probability_grid([0.25, 0.5]),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_coding_rule_in_run_keys():
    """At p_announce 1 every shot announces c = b xor (result = -1)."""
    for b in (0, 1):
        keys, _ = run_keys(ProtocolParams(600, 1.0, b, 5), seal_channel(0.6))
        results = set()
        for rec in protocol._RECORDS[keys]:
            assert isinstance(rec.announcement, BitAnnouncement)
            assert rec.announcement.c == b ^ (rec.result is DOWN)
            results.add(rec.result)
        assert results == {UP, DOWN}


def test_runs_reject_an_incomplete_channel_like_the_sampler():
    half = KrausChannel((np.diag([1.0, 0.5]),), label="half")
    message = r"channel 'half' fails completeness \(deviation 7.500e-01\)"
    for call in (
        lambda: ShotSampler(half),
        lambda: run_keys(PARAMS, half),
        lambda: run_protocol(PARAMS, half),
        lambda: monte_carlo(PARAMS, half, 3),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_shot_frequencies_uniform():
    n = 20000
    keys, _ = run_keys(ProtocolParams(n, 0.5, 0, 99), identity_channel())
    shots = protocol._RECORDS[keys].tolist()
    se = 5 * math.sqrt(0.25 * 0.75 / n)
    for s in ProtocolPureState:
        assert abs(sum(r.prep is s for r in shots) / n - 0.25) <= se
    se_basis = 5 * math.sqrt(0.25 / n)
    assert abs(sum(r.basis is S1 for r in shots) / n - 0.5) <= se_basis
    matched = sum(matching_basis(r.prep, r.basis) for r in shots) / n
    assert abs(matched - 0.5) <= se_basis
    announced = sum(isinstance(r.announcement, BitAnnouncement) for r in shots) / n
    assert abs(announced - 0.5) <= se_basis


# ---------------------------------------------------------------------------
# Decoding and mismatch accounting
# ---------------------------------------------------------------------------


def test_bob_decode_examples():
    assert bob_decode([ShotRecord(PLUS, S1, UP, BitAnnouncement(1))]) == 1
    assert bob_decode([ShotRecord(ONE, S3, DOWN, BitAnnouncement(0))]) == 1
    assert bob_decode([ShotRecord(ZERO, S3, UP, BitAnnouncement(0))]) == 0
    assert bob_decode([ShotRecord(MINUS, S1, DOWN, BitAnnouncement(1))]) == 0


def test_bob_decode_tie_and_empty():
    tie = [
        ShotRecord(PLUS, S1, UP, BitAnnouncement(0)),
        ShotRecord(PLUS, S1, UP, BitAnnouncement(1)),
    ]
    assert bob_decode(tie) is None
    assert bob_decode([]) is None
    # unmatched bases and result-announcements contribute no votes
    silent = [
        ShotRecord(PLUS, S3, UP, BitAnnouncement(1)),
        ShotRecord(ZERO, S3, UP, ResultAnnouncement(UP)),
    ]
    assert bob_decode(silent) is None


def test_bob_decode_majority():
    shots = [
        ShotRecord(ZERO, S3, UP, BitAnnouncement(1)),
        ShotRecord(PLUS, S1, UP, BitAnnouncement(1)),
        ShotRecord(ONE, S3, UP, BitAnnouncement(0)),  # decodes to 1 as well
        ShotRecord(MINUS, S1, UP, BitAnnouncement(0)),  # decodes to 1
        ShotRecord(ZERO, S3, UP, BitAnnouncement(0)),  # lone vote for 0
    ]
    assert bob_decode(shots) == 1


_RECORD_FIELDS = (
    st.sampled_from(list(ProtocolPureState)),
    st.sampled_from(list(MeasurementBasis)),
    st.sampled_from(list(MeasurementResult)),
)


@st.composite
def shot_records(draw):
    """Any record, including coded bits that disagree with each other and
    announced results that disagree with the result."""
    prep, basis, result = (draw(field) for field in _RECORD_FIELDS)
    if draw(st.booleans()):
        return ShotRecord(prep, basis, result, BitAnnouncement(draw(st.integers(0, 1))))
    return ShotRecord(prep, basis, result, ResultAnnouncement(draw(_RECORD_FIELDS[2])))


@settings(max_examples=200, deadline=None)
@given(st.lists(shot_records(), max_size=40))
def test_record_tally_matches_loop_reference(shots):
    decoded, _, mismatches, matched = tally_by_loop(shots)
    assert bob_decode(shots) == decoded
    assert tally_mismatches(shots) == (mismatches, matched)


def test_tally_mismatch_table():
    mismatch_rows = [
        ShotRecord(PLUS, S1, DOWN, ResultAnnouncement(DOWN)),
        ShotRecord(MINUS, S1, UP, ResultAnnouncement(UP)),
        ShotRecord(ZERO, S3, DOWN, ResultAnnouncement(DOWN)),
        ShotRecord(ONE, S3, UP, ResultAnnouncement(UP)),
    ]
    assert tally_mismatches(mismatch_rows) == (4, 4)
    clean_rows = [
        ShotRecord(PLUS, S1, UP, ResultAnnouncement(UP)),
        ShotRecord(ZERO, S1, DOWN, ResultAnnouncement(DOWN)),  # basis not matched
        ShotRecord(ZERO, S3, DOWN, BitAnnouncement(1)),  # not a result-announcement
    ]
    assert tally_mismatches(clean_rows) == (0, 1)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_run_protocol_identity_clean():
    for seed in (1, 2, 3, 4, 5):
        params = ProtocolParams(119, 0.05, 1, seed)
        shots, transcript, outcome = run_protocol(params, identity_channel())
        assert len(shots) == 119 and len(transcript) == 119
        assert outcome.mismatch_count == 0
        assert outcome.mismatch_count <= outcome.matched_result_announcements
        if outcome.decoded_bit is not None:
            assert outcome.decoded_bit == 1


def test_run_protocol_full_damping_pins_sigma3():
    params = ProtocolParams(500, 0.05, 0, 7)
    shots, _, _ = run_protocol(params, seal_channel(1.0))
    for rec in shots:
        if rec.basis is S3:
            assert rec.result is UP


def test_run_protocol_deterministic():
    a = run_protocol(PARAMS, seal_channel(0.4))
    b = run_protocol(PARAMS, seal_channel(0.4))
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]
    other_stream = run_protocol(PARAMS, seal_channel(0.4), stream=1)
    assert other_stream[0] != a[0]


def test_announcement_coding_holds_in_runs():
    params = ProtocolParams(400, 0.3, 1, 11)
    shots, _, _ = run_protocol(params, seal_channel(0.5))
    saw_bit = False
    for rec in shots:
        if isinstance(rec.announcement, BitAnnouncement):
            saw_bit = True
            assert rec.announcement.c == params.message_bit ^ (rec.result is DOWN)
    assert saw_bit


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=1),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**63),
)
def test_announcement_coding_property(bit, p_announce, x, seed):
    params = ProtocolParams(40, p_announce, bit, seed)
    shots, _, outcome = run_protocol(params, seal_channel(x))
    bit_count = 0
    for rec in shots:
        if isinstance(rec.announcement, BitAnnouncement):
            bit_count += 1
            assert rec.announcement.c == bit ^ (rec.result is DOWN)
    assert outcome.matched_bit_announcements <= bit_count
    assert outcome.mismatch_count <= outcome.matched_result_announcements


def test_transcript_is_projection_without_private_fields():
    shots, transcript, _ = run_protocol(PARAMS, seal_channel(0.3))
    assert isinstance(transcript, PublicTranscript)
    assert len(transcript.entries) == len(shots)
    for (basis, ann), rec in zip(transcript.entries, shots):
        assert basis is rec.basis
        assert ann == rec.announcement
        # nothing in an entry names the preparation, and a coded-bit entry
        # carries no measurement result
        assert not isinstance(ann, ProtocolPureState)
        if isinstance(ann, BitAnnouncement):
            assert not hasattr(ann, "m")


def _file_channel(channel: KrausChannel) -> KrausChannel:
    """The channel as ``simulate --channel-file`` reads it back from a saved file."""
    return parse_channel(channel_to_json(channel))


# The settings of tests/test_cli.py::PINNED_TRANSCRIPTS, as the CLI runs them
# (defaults: N=119, p_announce 0.05, message bit 0, seed 0).
TRANSCRIPT_SETTINGS = [
    pytest.param(ProtocolParams(1, 1.0, 0, 3), seal_channel(0.5), id="n1-pa1"),
    pytest.param(ProtocolParams(119, 0.0, 1, 5), depolarizing_channel(0.3), id="pa0-bit1"),
    pytest.param(
        ProtocolParams(119, 0.2, 0, 99),
        _file_channel(random_kraus_channel(np.random.default_rng(123), 3)),
        id="random3op",
    ),
    pytest.param(ProtocolParams(50000, 0.5, 0, 7), seal_channel(0.5), id="n50000"),
]


@pytest.mark.parametrize("params, channel", TRANSCRIPT_SETTINGS)
def test_public_entries_are_the_projection_of_the_records(params, channel):
    """The stream-0 run behind each pinned transcript: its public entries
    are the projection of its records."""
    shots, public, _ = run_protocol(params, channel, stream=0)
    assert public == public_transcript(shots)


RUN_KEY_CHANNELS = [
    pytest.param(identity_channel(), id="identity"),
    pytest.param(seal_channel(0.3), id="seal0.3"),
    pytest.param(depolarizing_channel(0.4), id="depolarizing0.4"),
    pytest.param(dephasing_channel(), id="dephasing"),
    pytest.param(random_kraus_channel(np.random.default_rng(5), 3), id="random3op"),
]


@pytest.mark.parametrize("channel", RUN_KEY_CHANNELS)
@pytest.mark.parametrize(
    "params",
    [
        ProtocolParams(1, 1.0, 0, 3),
        ProtocolParams(119, 0.3, 1, 8),
        ProtocolParams(9000, 0.05, 0, 2),
    ],
    ids=["n1", "n119-bit1", "n9000"],
)
def test_run_keys_are_the_keys_and_outcome_of_run_protocol(params, channel):
    for stream in (0, 1, 17, 2**32, 2**64 - 1):
        keys, outcome = protocol.run_keys(params, channel, stream)
        shots, _, want = run_protocol(params, channel, stream)
        assert keys.shape == (params.n_shots,)
        assert np.array_equal(keys, protocol._record_keys(shots))
        assert outcome == want


def _generator_keys(params, channel, stream):
    """Shot keys by the contract's definition: numpy's Generator draws, whose
    doubles are compared with the per-state Born floats and p_announce."""
    preps, bases, u_result, u_announce = _draw(params, stream)
    cell = preps * 2 + bases
    minus = u_result >= born_table_by_state(channel)[:, :, 0].ravel()[cell]
    is_bit = u_announce < params.p_announce
    return cell * 8 + minus * 4 + is_bit * (2 + params.message_bit)


@settings(max_examples=60, deadline=None)
@given(
    channels(),
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**40 - 1),
)
def test_run_keys_are_the_generator_keys(channel, n, p_announce, bit, seed, stream):
    """Integer thresholds on raw words key every shot as the doubles do."""
    params = ProtocolParams(n, p_announce, bit, seed)
    keys, _ = run_keys(params, channel, stream)
    assert np.array_equal(keys, _generator_keys(params, channel, stream))


def test_run_keys_in_chunks_are_the_run_and_trial_0():
    """At the real block size a 20000-shot run is keyed in three chunks, the
    last one short, and its keys and counts are those of the whole run."""
    params = ProtocolParams(20000, 0.5, 1, 41)
    channel = random_kraus_channel(np.random.default_rng(41), 3)
    assert 2 * protocol._BLOCK_CELLS < params.n_shots < 3 * protocol._BLOCK_CELLS
    keys, outcome = run_keys(params, channel)
    shots, _, want = run_protocol(params, channel)
    assert np.array_equal(keys, protocol._record_keys(shots))
    assert outcome == want
    assert np.array_equal(keys, _generator_keys(params, channel, 0))
    column = np.full(params.n_shots, -1, dtype=np.int64)
    stats = monte_carlo(params, channel, 1, keys=column)
    assert np.array_equal(column, keys)
    assert stats == monte_carlo(params, channel, 1)
    tally = protocol._tally_records(shots)
    assert stats.bit_announcement_counts == tuple(tally.bit_announcements[0].tolist())
    assert stats.matched_result_announcements == outcome.matched_result_announcements
    assert stats.mismatch_count == outcome.mismatch_count
    assert stats.decode_success_count == (outcome.decoded_bit is not None)
    assert stats.decode_correct_count == (outcome.decoded_bit == params.message_bit)


@pytest.mark.parametrize("n, trials", [(1, 9000), (119, 3), (119, 200), (9000, 2)])
def test_monte_carlo_writes_trial_0_keys(n, trials):
    """Whole-run blocks and chunked runs hand back stream 0's keys, and the
    counts do not change."""
    params = ProtocolParams(n, 0.3, 1, n)
    channel = seal_channel(0.4)
    column = np.full(n, -1, dtype=np.int64)
    stats = monte_carlo(params, channel, trials, keys=column)
    assert stats == monte_carlo(params, channel, trials)
    assert np.array_equal(column, run_keys(params, channel, 0)[0])


def test_monte_carlo_rejects_a_key_column_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"keys must have shape \(119,\), got \(118,\)"):
        monte_carlo(PARAMS, identity_channel(), 2, keys=np.empty(118, dtype=np.int64))


@pytest.mark.parametrize("n", [1, 9, 10, 11, 100, 101, 50000])
def test_write_transcripts_files_are_export_transcript_of_the_records(tmp_path, n):
    channel = random_kraus_channel(np.random.default_rng(n), 3)
    keys, _ = protocol.run_keys(ProtocolParams(n, 0.5, n % 2, n), channel)
    shots = protocol._RECORDS[keys].tolist()
    comments = ("sealsim transcript (stream 0)", f"n_shots = {n}")
    export_transcript(shots, tmp_path / "want.csv", public=False, comments=comments)
    export_transcript(shots, tmp_path / "want.csv.public", public=True, comments=comments)
    protocol.write_transcripts(keys, str(tmp_path / "got.csv"), comments=comments)
    for suffix in ("csv", "csv.public"):
        got, want = (tmp_path / f"{side}.{suffix}" for side in ("got", "want"))
        assert got.read_bytes() == want.read_bytes()


def test_write_transcripts_takes_a_path_and_an_empty_key_column(tmp_path):
    protocol.write_transcripts(np.empty(0, dtype=np.intp), tmp_path / "empty.csv", comments=("c",))
    assert (tmp_path / "empty.csv").read_bytes() == (
        b"# c\nshot_index,prep,basis,result,announcement_kind,announced_value\n"
    )
    assert (tmp_path / "empty.csv.public").read_bytes() == (
        b"# c\nshot_index,basis,announcement_kind,announced_value\n"
    )


@pytest.mark.parametrize("bad", [64, 255, -1])
def test_write_transcripts_refuses_a_key_outside_0_63(tmp_path, bad):
    """A key no record has is refused before either file is opened; the
    line records are taken with a mode that would clip it silently."""
    keys = np.array([0, 63, bad, 5], dtype=np.int64)
    with pytest.raises(ValueError, match=r"shot keys must lie in \[0, 64\)"):
        protocol.write_transcripts(keys, tmp_path / "run.csv")
    assert list(tmp_path.iterdir()) == []


def test_write_transcripts_stops_the_public_file_once_the_full_one_fails(tmp_path, monkeypatch):
    """The full file is written first: when its second chunk fails, no
    public chunk is built, and neither old file is replaced."""
    keys = np.zeros(3 * protocol._BLOCK_CELLS, dtype=np.uint8)
    transcript_body = protocol._transcript_body
    public_chunks = []

    def fail_second_full(keys, start, records):
        if public_line_records(records):
            public_chunks.append(len(keys))
        elif start != 0:
            raise RuntimeError("full body failed")
        return transcript_body(keys, start, records)

    for name in ("run.csv", "run.csv.public"):
        (tmp_path / name).write_bytes(b"old " + name.encode())
    monkeypatch.setattr(protocol, "_transcript_body", fail_second_full)
    with pytest.raises(RuntimeError, match="full body failed"):
        protocol.write_transcripts(keys, tmp_path / "run.csv")
    assert public_chunks == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.public"]
    for name in ("run.csv", "run.csv.public"):
        assert (tmp_path / name).read_bytes() == b"old " + name.encode()


@pytest.mark.parametrize("block", [7, 10, 100])
def test_transcripts_in_small_chunks_are_the_records_export(tmp_path, monkeypatch, block):
    """Chunk edges across the 9/10, 99/100 and 999/1000 digit steps change
    no byte of either file, written from a key column or from records."""
    params = ProtocolParams(1001, 0.5, 1, 1001)
    channel = random_kraus_channel(np.random.default_rng(1001), 3)
    shots, _, _ = run_protocol(params, channel)
    comments = ("sealsim transcript (stream 0)", "n_shots = 1001")
    assert params.n_shots <= protocol._BLOCK_CELLS  # one chunk
    for side in ("want", "chunked"):
        if side == "chunked":
            monkeypatch.setattr(protocol, "_BLOCK_CELLS", block)
        export_transcript(shots, tmp_path / f"{side}.csv", comments=comments)
        export_transcript(shots, tmp_path / f"{side}.csv.public", public=True, comments=comments)
    protocol.write_transcripts(run_keys(params, channel)[0], tmp_path / "got.csv", comments=comments)
    for suffix in ("csv", "csv.public"):
        want = (tmp_path / f"want.{suffix}").read_bytes()
        assert (tmp_path / f"chunked.{suffix}").read_bytes() == want
        assert (tmp_path / f"got.{suffix}").read_bytes() == want


@pytest.mark.parametrize(
    "start, stop",
    [
        (0, 0),
        (0, 1),
        (0, 11),
        (7, 101),
        (995, 1010),
        (9990, 10010),
        (0, 25000),
        (99_998, 100_003),
        (123_456_780, 123_456_800),
        (10**10 - 2, 10**10 + 2),
    ],
)
def test_index_digits_are_the_decimal_indices(start, stop):
    """The digit fields of a range's line records, in a file of ``stop``
    lines, hold each index's decimal digits, NUL-padded on the left, also
    where the range crosses a digit step or a run of 10**4 indices."""
    records = protocol._line_records(stop, public=False)
    lines = np.zeros(stop - start, dtype=records.dtype)
    protocol._write_indices(lines, start)
    width = records.dtype.fields["fields"][1]
    digits = lines.view(np.uint8).reshape(len(lines), records.itemsize)[:, :width]
    assert [bytes(d).lstrip(b"\0") for d in digits] == [b"%d" % i for i in range(start, stop)]


def test_transcript_lines_formats():
    shots, _, _ = run_protocol(ProtocolParams(20, 0.5, 0, 3), identity_channel())
    private = list(transcript_lines(shots))
    public = list(transcript_lines(shots, public=True))
    assert private[0] == "shot_index,prep,basis,result,announcement_kind,announced_value"
    assert public[0] == "shot_index,basis,announcement_kind,announced_value"
    assert len(private) == len(public) == 21
    for line in public[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        assert fields[1] in ("sigma1", "sigma3")
        assert fields[2] in ("bit", "result")


def test_export_transcript_keeps_the_old_file_when_the_write_fails(tmp_path, monkeypatch):
    shots, _, _ = run_protocol(PARAMS, seal_channel(0.3))
    path = tmp_path / "run.csv"
    path.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        export_transcript(shots, path, comments=("new",))
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_write_atomic_keeps_the_old_file_when_a_bytes_write_fails(tmp_path, monkeypatch, kind):
    """Every bytes-like object is written as it is, never in text mode."""
    path = tmp_path / "run.csv"
    write_atomic(path, kind(b"old\r\n\x00"))
    assert path.read_bytes() == b"old\r\n\x00"
    path.write_bytes(b"old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_atomic(path, kind(b"new\n"))
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


def test_write_atomic_writes_bytes_as_they_are(tmp_path):
    data = b"a,b\r\nc\x00\xff\n"
    write_atomic(tmp_path / "raw", data)
    assert (tmp_path / "raw").read_bytes() == data
    write_atomic(tmp_path / "text", "a,b\nc\n")
    assert (tmp_path / "text").read_bytes() == b"a,b\nc\n"


@pytest.mark.parametrize("data", ["new\n", b"new\n"], ids=["str", "bytes"])
def test_write_atomic_keeps_the_mode_of_a_file_it_replaces(tmp_path, data):
    path = tmp_path / "run.csv"
    path.write_text("old\n")
    path.chmod(0o640)
    write_atomic(path, data)
    assert path.read_bytes() == b"new\n"
    assert oct(path.stat().st_mode & 0o7777) == oct(0o640)
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


def test_write_atomic_streams_chunks_and_keeps_the_old_file_when_they_fail(tmp_path):
    path = tmp_path / "run.csv"
    write_atomic(path, iter([b"a,", bytearray(b"b\r\n"), memoryview(b"c\x00\n")]))
    assert path.read_bytes() == b"a,b\r\nc\x00\n"

    def failing():
        yield b"new\n"
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError, match="build failed"):
        write_atomic(path, failing())
    assert path.read_bytes() == b"a,b\r\nc\x00\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_write_atomic_writes_through_a_symlink(tmp_path, relative):
    """The file a link points to gets the bytes and keeps its mode; the
    temporary file is made beside it, and the link stays a link."""
    real = tmp_path / "real"
    real.mkdir()
    (real / "run.csv").write_text("old\n")
    (real / "run.csv").chmod(0o640)
    link = tmp_path / "run.csv"
    link.symlink_to(Path("real", "run.csv") if relative else real / "run.csv")
    write_atomic(link, b"new\n")
    assert link.is_symlink()
    assert (real / "run.csv").read_bytes() == b"new\n"
    assert oct((real / "run.csv").stat().st_mode & 0o7777) == oct(0o640)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["real", "run.csv", "run.csv"]


def test_write_atomic_creates_the_target_of_a_dangling_symlink(tmp_path):
    link = tmp_path / "run.csv"
    link.symlink_to(tmp_path / "new.csv")
    write_atomic(link, "new\n")
    assert link.is_symlink() and (tmp_path / "new.csv").read_text() == "new\n"


def test_importing_the_cli_imports_no_secrets_module():
    """Temporary names come from ``os.urandom``, so ``import sealsim.cli``
    does not load ``secrets`` and the ``hmac``/``hashlib`` modules behind it."""
    src = str(Path(protocol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, sealsim.cli; print(sorted({'secrets', 'hmac'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# the 64 record values, indexed by key; run_protocol and ShotSampler return
# these objects
_INTERNED_RECORDS = list(protocol._RECORDS)


def test_every_key_round_trips_through_its_record():
    assert len(set(_INTERNED_RECORDS)) == 64
    for key, rec in enumerate(_INTERNED_RECORDS):
        assert rec._key == key
        fields = {f.name: getattr(rec, f.name) for f in dataclasses.fields(ShotRecord)}
        rebuilt = ShotRecord(**fields)
        assert rebuilt._key == key
        assert rebuilt == rec and hash(rebuilt) == hash(rec) and repr(rebuilt) == repr(rec)


def test_shot_record_key_is_not_a_field():
    assert [f.name for f in dataclasses.fields(ShotRecord)] == [
        "prep",
        "basis",
        "result",
        "announcement",
    ]
    rec = ShotRecord(ZERO, S3, DOWN, BitAnnouncement(1))
    assert repr(rec) == (
        "ShotRecord(prep=<ProtocolPureState.ZERO: '0'>, basis=<MeasurementBasis.SIGMA3: 'sigma3'>, "
        "result=<MeasurementResult.MINUS: -1>, announcement=BitAnnouncement(c=1))"
    )


def test_shot_record_rejects_a_coded_bit_outside_0_1():
    with pytest.raises(ValueError, match="coded bit"):
        ShotRecord(ZERO, S3, UP, BitAnnouncement(2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(shot_records(), st.sampled_from(_INTERNED_RECORDS)), max_size=40))
def test_transcript_lines_match_record_oracle(shots):
    """Interned or hand-built (inconsistent coded bits included), the lines
    are those of a literal per-record formatter."""
    for public in (False, True):
        want = list(transcript_lines_by_record(shots, public=public))
        assert list(transcript_lines(shots, public=public)) == want


# run lengths on either side of each change in the shot index's digit count
_RUN_LENGTHS = (0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 10001)

# every record value, hand-built rather than interned: the announcement is
# any of the four, so coded bits disagree with each other and announced
# results with the result
_HAND_BUILT_RECORDS = [
    ShotRecord(prep, basis, result, announcement)
    for prep in ProtocolPureState
    for basis in (S1, S3)
    for result in (UP, DOWN)
    for announcement in (
        BitAnnouncement(0),
        BitAnnouncement(1),
        ResultAnnouncement(UP),
        ResultAnnouncement(DOWN),
    )
]


def _mixed_run(n: int) -> list[ShotRecord]:
    pool = _INTERNED_RECORDS + _HAND_BUILT_RECORDS
    return [pool[i] for i in np.random.default_rng(n).integers(len(pool), size=n)]


@pytest.mark.parametrize("n", _RUN_LENGTHS)
def test_transcript_lines_match_record_oracle_across_digit_widths(n):
    shots = _mixed_run(n)
    for public in (False, True):
        want = list(transcript_lines_by_record(shots, public=public))
        assert list(transcript_lines(shots, public=public)) == want


@pytest.mark.parametrize("n", _RUN_LENGTHS)
def test_export_transcript_bytes_are_comments_then_oracle_lines(tmp_path, n):
    shots = _mixed_run(n)
    comments = ("sealsim transcript", f"n_shots = {n}")
    for public in (False, True):
        path = tmp_path / f"run-{public}.csv"
        export_transcript(shots, path, public=public, comments=comments)
        lines = [f"# {c}" for c in comments]
        lines.extend(transcript_lines_by_record(shots, public=public))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_transcripts_with_wide_indices_are_comments_then_oracle_lines(tmp_path, monkeypatch):
    """Chunks of 7919 lines straddle runs of 10**4 indices, and one chunk
    the 99999/100000 step, in a file of 6-digit indices: both files, written
    from a byte key column, are the literal formatter's lines."""
    n = 123457
    monkeypatch.setattr(protocol, "_BLOCK_CELLS", 7919)
    shots = _mixed_run(n)
    comments = ("sealsim transcript (stream 0)", f"n_shots = {n}")
    keys = protocol._record_keys(shots).astype(np.uint8)
    protocol.write_transcripts(keys, tmp_path / "run.csv", comments=comments)
    for name, public in (("run.csv", False), ("run.csv.public", True)):
        lines = [f"# {c}" for c in comments]
        lines.extend(transcript_lines_by_record(shots, public=public))
        assert (tmp_path / name).read_bytes() == ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_identity_uniform_announcements():
    stats = monte_carlo(PARAMS, identity_channel(), trials=600)
    assert stats.shots == 600 * 119
    assert stats.mismatch_count == 0
    assert stats.decode_correct_count == stats.decode_success_count
    total = stats.bit_announcement_total
    assert total == sum(stats.bit_announcement_counts)
    for freq in stats.bit_announcement_freqs:
        se = math.sqrt(0.25 * 0.75 / total)
        assert abs(freq - 0.25) <= 5 * se


def _assert_within_5se(empirical, se, analytic):
    if se == 0.0 or math.isnan(se):
        assert empirical == analytic
    else:
        assert abs(empirical - analytic) <= 5 * se


@pytest.mark.parametrize(
    "channel",
    [
        seal_channel(0.5),
        depolarizing_channel(0.4),
        dephasing_channel(),
        random_kraus_channel(np.random.default_rng(123), 3),
        rotated_channel(seal_channel(0.7), 1.1),
    ],
    ids=["seal05", "depol04", "dephasing", "random", "tilted"],
)
def test_monte_carlo_agrees_with_analysis(channel):
    params = ProtocolParams(n_shots=119, p_announce=0.2, message_bit=0, seed=99)
    stats = monte_carlo(params, channel, trials=1500)
    dist = bit_announcement_probs(channel)
    predicted = dist.probs_given_b[params.message_bit]
    for freq, se, want in zip(
        stats.bit_announcement_freqs, stats.bit_announcement_errs, predicted
    ):
        _assert_within_5se(freq, se, want)
    _assert_within_5se(
        stats.mismatch_rate,
        stats.mismatch_rate_err,
        mismatch_probability(channel).matched_basis_conditional,
    )


def test_monte_carlo_deterministic_and_order_independent():
    stats1 = monte_carlo(PARAMS, seal_channel(0.5), trials=50)
    stats2 = monte_carlo(PARAMS, seal_channel(0.5), trials=50)
    assert stats1 == stats2
    # aggregation equals the sum over individually executed streams
    mism = 0
    for t in range(50):
        _, _, outcome = run_protocol(PARAMS, seal_channel(0.5), stream=t)
        mism += outcome.mismatch_count
    assert mism == stats1.mismatch_count


# Exact counts under the randomness contract, as (trials, shots,
# bit-announcement counts, matched result-announcements, mismatches, decode
# successes, correct decodes).  Any change to the draws, their order, the
# Born sampling or the tally shows here.  The cases cover one shot per run,
# p_announce 0 and 1, message bit 1, trial counts that are not a multiple of
# the Monte Carlo block and runs longer than the block.
GOLDEN_RUNS = [
    pytest.param(
        ProtocolParams(1, 0.5, 0, 11), seal_channel(0.5), 300,
        (300, 300, (35, 30, 58, 19), 76, 22, 72, 53), id="n1",
    ),
    pytest.param(
        ProtocolParams(119, 0.0, 1, 3), identity_channel(), 97,
        (97, 11543, (0, 0, 0, 0), 5774, 0, 0, 0), id="pa0-bit1-identity",
    ),
    pytest.param(
        ProtocolParams(119, 1.0, 1, 5), seal_channel(1.0), 100,
        (100, 11900, (3028, 2921, 0, 5951), 0, 0, 98, 54), id="pa1-bit1-seal1",
    ),
    pytest.param(
        ProtocolParams(119, 0.2, 0, 99), random_kraus_channel(np.random.default_rng(123), 3), 101,
        (101, 12019, (584, 590, 609, 573), 4826, 1856, 92, 75), id="random3op",
    ),
    pytest.param(
        ProtocolParams(40, 0.3, 1, 2024), depolarizing_channel(0.4), 205,
        (205, 8200, (649, 652, 610, 588), 2881, 608, 199, 197), id="depolarizing-bit1",
    ),
    pytest.param(
        ProtocolParams(50000, 0.05, 0, 7), seal_channel(0.5), 2,
        (2, 100000, (1270, 1253, 1838, 601), 47466, 9291, 2, 2), id="n50000",
    ),
]


def _stats_tuple(stats):
    return (
        stats.trials,
        stats.shots,
        stats.bit_announcement_counts,
        stats.matched_result_announcements,
        stats.mismatch_count,
        stats.decode_success_count,
        stats.decode_correct_count,
    )


@pytest.mark.parametrize("params, channel, trials, want", GOLDEN_RUNS)
def test_monte_carlo_counts_are_pinned(params, channel, trials, want):
    assert _stats_tuple(monte_carlo(params, channel, trials)) == want


@pytest.mark.parametrize("params, channel, trials, want", GOLDEN_RUNS)
def test_runs_on_each_stream_add_up_to_monte_carlo(params, channel, trials, want):
    """Trial t is run_protocol on stream t, tallied from its records."""
    ba = [0, 0, 0, 0]
    matched = mismatches = successes = correct = 0
    for t in range(trials):
        shots, _, outcome = run_protocol(params, channel, stream=t)
        decoded, votes, bad, usable = tally_by_loop(shots)
        assert outcome == RunOutcome(decoded, votes, usable, bad)
        assert outcome.decoded_bit == bob_decode(shots)
        assert (outcome.mismatch_count, outcome.matched_result_announcements) == tally_mismatches(
            shots
        )
        for rec in shots:
            if isinstance(rec.announcement, BitAnnouncement):
                ba[BIT_ANNOUNCEMENT_ALPHABET.index((rec.basis, rec.announcement.c))] += 1
        matched += usable
        mismatches += bad
        successes += decoded is not None
        correct += decoded == params.message_bit
    shots = trials * params.n_shots
    assert (trials, shots, tuple(ba), matched, mismatches, successes, correct) == want


def test_monte_carlo_memory_does_not_grow_with_trials():
    """Peak traced memory is one block of trials, however many trials run."""
    channel = seal_channel(0.5)
    monte_carlo(PARAMS, channel, 50)  # first-call allocations out of the way

    def peak(trials):
        tracemalloc.start()
        try:
            monte_carlo(PARAMS, channel, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2000), peak(20000)
    # slack for allocator noise; one leaked object per block or per trial
    # (530 or 18000 more of them) would exceed it
    assert large <= small + 16 * 1024


@pytest.mark.parametrize("make", [monte_carlo, information_density])
def test_one_trial_memory_does_not_grow_with_n(make):
    """A long run is tallied in fixed-size chunks of shots."""
    channel = seal_channel(0.5)
    probs = bit_announcement_probs(channel).probs_given_b

    def peak(n):
        params = ProtocolParams(n_shots=n, p_announce=0.5, message_bit=0, seed=3)
        args = (params, channel, 1) if make is monte_carlo else (params, channel, 1, probs)
        tracemalloc.start()
        try:
            make(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10**4)  # first-call allocations out of the way
    small, large = peak(10**4), peak(10**6)
    # slack for allocator noise; holding one column of the run (8 MB) or
    # one chunk per chunk (a hundred of them) would exceed it
    assert large <= small + 32 * 1024


def test_run_keys_memory_is_its_key_column():
    """A run is keyed in chunks into its key column: at N = 10**6 the peak
    is the 1 MB column of byte keys and less than 1 MiB more."""
    channel = seal_channel(0.5)
    run_keys(ProtocolParams(10**4, 0.5, 0, 3), channel)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        keys, _ = run_keys(ProtocolParams(10**6, 0.5, 0, 3), channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.dtype == np.uint8 and keys.nbytes == 10**6
    assert peak <= keys.nbytes + 2**20


def _source_columns(params, stream):
    """One run's integer columns as the package's raw-word source reads them."""
    streams = protocol._Streams(params.seed)
    (state,) = streams.states(stream, stream + 1)
    words = streams.generator(state, 0).random_raw(3 * params.n_shots)[None]
    return [column[0] for column in protocol._run_columns(words, params.n_shots)]


def _assert_same_columns(got, want):
    """The indices are the Generator's integers, and the 53-bit variates
    times 2**-53 are its doubles, byte for byte."""
    preps, bases, *variates = got
    want_preps, want_bases, *doubles = want
    for ours, theirs in ((preps, want_preps), (bases, want_bases)):
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)
    for ours, theirs in zip(variates, doubles, strict=True):
        assert ours.dtype == np.uint64 and ours.shape == theirs.shape
        assert (ours * 2.0**-53).tobytes() == theirs.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 119, 120, 1001])
@pytest.mark.parametrize("seed", [0, 2**32 + 7, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 2**32 + 5, 2**40])
def test_raw_word_columns_are_the_generator_draws(n, seed, stream):
    """The column layout and stream seeding equal numpy's Generator, bit for bit.

    The result and announcement columns are 53-bit integers, whose doubles
    over 2**53 must be the Generator's own.  Streams from 2**32 on take a
    two-word spawn key.  A numpy release that
    changed ``Generator.integers`` or ``Generator.random`` would fail here.
    """
    params = ProtocolParams(n_shots=n, p_announce=0.5, message_bit=0, seed=seed)
    _assert_same_columns(_source_columns(params, stream), _draw(params, stream))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**40 - 1),
    st.integers(min_value=1, max_value=300),
)
def test_raw_word_columns_property(seed, stream, n):
    params = ProtocolParams(n_shots=n, p_announce=0.5, message_bit=0, seed=seed)
    _assert_same_columns(_source_columns(params, stream), _draw(params, stream))


def test_stream_states_across_the_two_word_boundary():
    """A chunk of streams with one- and two-word spawn keys seeds each right."""
    params = ProtocolParams(n_shots=5, p_announce=0.5, message_bit=0, seed=2**32 + 7)
    streams = protocol._Streams(params.seed)
    first = 2**32 - 2
    for stream, state in enumerate(streams.states(first, first + 4), start=first):
        reference = np.random.PCG64(np.random.SeedSequence(entropy=params.seed, spawn_key=(stream,)))
        words = streams.generator(state, 0).random_raw(15)
        assert np.array_equal(words, reference.random_raw(15))


@pytest.mark.parametrize("first", [0, 7, 2**32 - protocol._SEED_CHUNK])
def test_stream_seeds_across_the_chunk_edge(first):
    """Streams on either side of a chunk of seed words, from any first
    stream, are numpy's own.  From 2**32 - _SEED_CHUNK the chunk edge is
    also where the spawn key grows from one word to two."""
    seed = 2**64 - 1
    chunk = protocol._SEED_CHUNK
    streams = list(protocol._Streams(seed).states(first, first + chunk + 2))
    for offset in (0, chunk - 1, chunk, chunk + 1):
        stream = first + offset
        reference = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
        assert np.random.PCG64(streams[offset]).state == reference.state
        words = protocol._Streams.generator(streams[offset], 0).random_raw(4)
        assert np.array_equal(words, reference.random_raw(4))


def _seed_rows(count):
    pool = protocol._seed_pool(2**32 + 7)
    return protocol._stream_seeds(pool, np.arange(count, dtype=np.uint64))


def test_seed_words_answer_only_pcg64s_request():
    row = _seed_rows(1)[0]
    words = protocol._SeedWords(row)
    assert words.generate_state(4, np.uint64) is row
    assert words.generate_state(4, "u8") is row
    for n_words, dtype in [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)]:
        with pytest.raises(ValueError):
            words.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        words.generate_state(4)


def test_a_non_contiguous_row_cannot_reach_pcg64():
    """PCG64 reads its seed words through the array's data pointer, so a
    row must be contiguous: the seed rows are, and any other row is refused."""
    seeds = _seed_rows(protocol._SEED_CHUNK)
    assert seeds.flags.c_contiguous and seeds.dtype == np.uint64
    column_major = np.asfortranarray(seeds)
    rows = (column_major[3], seeds[3, ::-1], seeds[3, :3], seeds[3:5].ravel(), seeds[3].view("u4"))
    for row in rows:
        with pytest.raises(ValueError):
            protocol._SeedWords(row)
    assert np.random.PCG64(protocol._SeedWords(np.ascontiguousarray(column_major[3]))).state == (
        np.random.PCG64(protocol._SeedWords(seeds[3])).state
    )


@pytest.mark.parametrize(
    "bad",
    [
        lambda seeds: np.asfortranarray(seeds),
        lambda seeds: seeds.astype(seeds.dtype.newbyteorder()),
        lambda seeds: np.concatenate((seeds, seeds), axis=1)[:, :4],
        lambda seeds: seeds[::-1],
        lambda seeds: np.ascontiguousarray(seeds[:, :3]),
        lambda seeds: seeds.astype(np.int64),
    ],
    ids=["fortran", "byteswapped", "strided-rows", "reversed", "three-columns", "int64"],
)
def test_a_bad_seed_chunk_is_refused_before_any_pcg64(monkeypatch, bad):
    """Each chunk of seed words is checked once, as a whole, before any of
    its rows reaches PCG64, whose seeding reads the row's data pointer."""
    stream_seeds = protocol._stream_seeds
    built = []

    class SpyPCG64(np.random.PCG64):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(protocol, "_stream_seeds", lambda *args: bad(stream_seeds(*args)))
    monkeypatch.setattr(np.random, "PCG64", SpyPCG64)
    with pytest.raises(ValueError, match="C-contiguous rows of 4 uint64"):
        next(protocol._Streams(7).states(0, 3))
    with pytest.raises(ValueError, match="C-contiguous rows of 4 uint64"):
        monte_carlo(PARAMS, identity_channel(), 3)
    assert built == []


def _reference_keys(sampler, columns, announce_threshold, message_bit):
    """Shot keys as int64 arithmetic on the indices: ``cell*8 + minus*4 + is_bit*(2 + bit)``."""
    preps, bases, results, announces = columns
    cell = preps.astype(np.int64) * 2 + bases
    minus = results >= sampler._result_thresholds[cell]
    is_bit = announces < announce_threshold
    return cell * 8 + minus * 4 + is_bit * (2 + np.asarray(message_bit, dtype=np.int64))


@pytest.mark.parametrize("result_thresholds", ["zero", "full", "mixed"])
@pytest.mark.parametrize("pa", [0.0, 0.5, 1.0])
def test_byte_keys_are_the_int64_formula(result_thresholds, pa):
    """Every cell, with result thresholds at 0 and 2**53 (and between), and
    variates at both ends and in the middle, keys as the int64 formula
    does, for a scalar message bit and for a per-run column of bits."""
    sampler = ShotSampler(seal_channel(0.37))
    sampler._result_thresholds = {
        "zero": np.zeros(8, dtype=np.uint64),
        "full": np.full(8, 2**53, dtype=np.uint64),
        "mixed": np.array([0, 2**53, 1, 2**53 - 1, 2**52, 3, 2**53, 0], dtype=np.uint64),
    }[result_thresholds]
    variates = np.array([0, 1, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    grid = np.meshgrid(np.arange(4), np.arange(2), variates, variates, indexing="ij")
    preps, bases, results, announces = (axis.ravel() for axis in grid)
    # two runs of the same shots: as a block of _run_columns gives them
    columns = (
        np.tile(preps.astype(np.uint8), (2, 1)),
        np.tile(bases.astype(np.uint8), (2, 1)),
        np.tile(results, (2, 1)),
        np.tile(announces, (2, 1)),
    )
    announce = protocol._threshold(pa)
    for bit in (0, 1, np.array([[0], [1]], dtype=np.uint8)):
        got = sampler.keys(columns, announce, bit)
        assert got.dtype == np.uint8 and got.shape == columns[0].shape
        assert np.array_equal(got, _reference_keys(sampler, columns, announce, bit))


@pytest.mark.parametrize("extra", [0, 1])
def test_run_keys_and_monte_carlo_keys_agree_at_the_block_edge(extra):
    """At N = _BLOCK_CELLS a run is one row of a block; one shot more and it
    is keyed in chunks.  Either way run_keys and monte_carlo's keys= give
    the same byte column for stream 0: the int64 formula's keys of the
    Generator's own draws."""
    n = protocol._BLOCK_CELLS + extra
    params = ProtocolParams(n_shots=n, p_announce=0.5, message_bit=1, seed=2**40 + 3)
    channel = random_kraus_channel(np.random.default_rng(n), 3)
    keys, _ = run_keys(params, channel)
    written = np.zeros(n, dtype=np.uint8)
    monte_carlo(params, channel, 2, keys=written)
    assert keys.dtype == np.uint8 and np.array_equal(written, keys)
    preps, bases, *doubles = _draw(params, 0)
    # the doubles are 53-bit integers over 2**53, so scaling back is exact
    variates = [(d * 2.0**53).astype(np.uint64) for d in doubles]
    announce = protocol._threshold(params.p_announce)
    want = _reference_keys(ShotSampler(channel), (preps, bases, *variates), announce, 1)
    assert np.array_equal(keys, want)


@pytest.mark.parametrize(
    "block, n",
    [
        (protocol._BLOCK_CELLS, 2 * protocol._BLOCK_CELLS + 1),
        (protocol._BLOCK_CELLS, 3 * protocol._BLOCK_CELLS - 1),
        (7, 1001),
        (50, 1001),
    ],
)
def test_odd_runs_read_in_chunks_are_the_generator_keys(monkeypatch, block, n):
    """At odd N a run's basis halves start in the middle of a word, and
    with an odd block every other chunk also ends in the middle of one; the
    reader carries the half over, and run_keys and monte_carlo's keys= are
    the keys of the Generator's own draws."""
    monkeypatch.setattr(protocol, "_BLOCK_CELLS", block)
    params = ProtocolParams(n_shots=n, p_announce=0.5, message_bit=1, seed=2**40 + 3)
    channel = random_kraus_channel(np.random.default_rng(n), 3)
    assert n > protocol._BLOCK_CELLS
    for stream in (0, 2**32 + 5):
        keys, _ = run_keys(params, channel, stream)
        assert np.array_equal(keys, _generator_keys(params, channel, stream))
    written = np.zeros(n, dtype=np.uint8)
    monte_carlo(params, channel, 2, keys=written)
    assert np.array_equal(written, _generator_keys(params, channel, 0))


@pytest.mark.parametrize("n, stream", [(1001, 0), (1001, 2**32 + 5), (2, 7)])
def test_chunk_columns_are_slices_of_the_run(monkeypatch, n, stream):
    """A run's reader, read in chunks of _BLOCK_CELLS shots, gives each
    column's shots from their own offsets in the stream; at odd N the basis
    halves start mid-word and every chunk carries a half to the next."""
    monkeypatch.setattr(protocol, "_BLOCK_CELLS", 7)
    params = ProtocolParams(n_shots=n, p_announce=0.5, message_bit=0, seed=2**64 - 1)
    (state,) = protocol._Streams(params.seed).states(stream, stream + 1)
    reader = protocol._RunReader(state, n)
    block = protocol._BLOCK_CELLS
    chunks = [reader.read(min(block, n - first)) for first in range(0, n, block)]
    _assert_same_columns([np.concatenate(c) for c in zip(*chunks)], _draw(params, stream))


@pytest.mark.parametrize("block", [7, 50])
def test_counts_do_not_depend_on_the_block_size(monkeypatch, block):
    """Runs tallied in chunks of shots give the pinned counts and densities,
    and a run keyed in chunks its keys and outcome."""
    params, channel, trials, want = GOLDEN_RUNS[3].values
    probs = bit_announcement_probs(channel).probs_given_b
    densities = information_density(params, channel, trials, probs)
    keys = run_keys(params, channel, 5)
    monkeypatch.setattr(protocol, "_BLOCK_CELLS", block)
    assert _stats_tuple(monte_carlo(params, channel, trials)) == want
    assert np.array_equal(information_density(params, channel, trials, probs), densities)
    chunked = run_keys(params, channel, 5)
    assert np.array_equal(chunked[0], keys[0]) and chunked[1] == keys[1]


@pytest.mark.parametrize("stream", [-1, 1.5])
def test_run_protocol_rejects_a_bad_stream_as_seed_sequence_does(stream):
    with pytest.raises((TypeError, ValueError)) as numpy_error:
        np.random.SeedSequence(entropy=PARAMS.seed, spawn_key=(stream,))
    with pytest.raises(numpy_error.type):
        run_protocol(PARAMS, identity_channel(), stream=stream)


def test_monte_carlo_rejects_bad_trials():
    with pytest.raises(ValueError):
        monte_carlo(PARAMS, identity_channel(), trials=0)


def test_alphabet_order_is_documented_contract():
    assert BIT_ANNOUNCEMENT_ALPHABET == (
        (S1, 0),
        (S1, 1),
        (S3, 0),
        (S3, 1),
    )
