import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kraus_channel, rotated_channel
from oracles import (
    _draw,
    born_table_by_state,
    mismatch_by_state,
    tally_by_loop,
    transcript_lines_by_record,
)
from sealsim import analysis, protocol, qubit
from sealsim.analysis import bit_announcement_probs, mismatch_probability
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
    run_shot,
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
# Single shots
# ---------------------------------------------------------------------------


def test_sampler_born_table_identity():
    sampler = ShotSampler(identity_channel())
    # eigenstates are deterministic on the matched basis
    assert sampler.from_variates(0, 1, 0.999999, 0.9, 0, 0.05).result is UP  # |0>, sigma3
    assert sampler.from_variates(1, 1, 0.999999, 0.9, 0, 0.05).result is DOWN  # |1>, sigma3
    assert sampler.from_variates(2, 0, 0.999999, 0.9, 0, 0.05).result is UP  # |+>, sigma1
    # unmatched basis splits evenly: the threshold sits exactly at 1/2
    assert sampler.from_variates(2, 1, 0.4999, 0.9, 0, 0.05).result is UP
    assert sampler.from_variates(2, 1, 0.5001, 0.9, 0, 0.05).result is DOWN


def test_sampler_born_table_seal():
    x = 0.37
    sampler = ShotSampler(seal_channel(x))
    # |1> measured in sigma3 flips to +1 with probability exactly x
    assert sampler.from_variates(1, 1, x - 1e-9, 0.9, 0, 0.05).result is UP
    assert sampler.from_variates(1, 1, x + 1e-9, 0.9, 0, 0.05).result is DOWN


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
    Carlo compares its variates against these very floats."""
    want = born_table_by_state(channel)
    assert ShotSampler(channel)._p_plus.tobytes() == np.ascontiguousarray(want[:, :, 0]).tobytes()
    assert qubit.born_table(channel).tobytes() == want.tobytes()
    stacked = np.stack([channel.stack, channel.stack[::-1]])
    assert qubit.born_cells(stacked, BORN_CELLS)[0].tobytes() == want.tobytes()
    assert abs(mismatch_probability(channel).per_shot - mismatch_by_state(channel)) <= 1e-15


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


def test_run_shot_coding_rule():
    rng = np.random.default_rng(5)
    for b in (0, 1):
        for _ in range(300):
            rec = run_shot(rng, b, 1.0, seal_channel(0.6))
            assert isinstance(rec.announcement, BitAnnouncement)
            assert rec.announcement.c == b ^ (rec.result is DOWN)


def test_run_shot_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        run_shot(rng, 2, 0.5, identity_channel())
    with pytest.raises(ValueError):
        run_shot(rng, 0, 1.5, identity_channel())


@pytest.mark.parametrize(
    "channel", [seal_channel(0.6), depolarizing_channel(0.3)], ids=["seal06", "depolarizing03"]
)
@pytest.mark.parametrize("bit", [0, 1])
def test_run_shot_is_the_sampler_shot(channel, bit):
    """On twin generators run_shot returns the very record the sampler does."""
    ours, twin = np.random.default_rng(31), np.random.default_rng(31)
    sampler = ShotSampler(channel)
    for _ in range(400):
        assert run_shot(ours, bit, 0.5, channel) is sampler.sample(twin, bit, 0.5)
    assert ours.random() == twin.random()  # both drew the same four variates per shot


def test_run_shot_rejects_incomplete_channel_like_the_sampler():
    half = KrausChannel((np.diag([1.0, 0.5]),), label="half")
    message = r"channel 'half' fails completeness \(deviation 7.500e-01\)"
    with pytest.raises(ValueError, match=message):
        ShotSampler(half)
    with pytest.raises(ValueError, match=message):
        run_shot(np.random.default_rng(0), 0, 0.5, half)


def test_shot_frequencies_uniform():
    rng = np.random.default_rng(99)
    n = 20000
    sampler = ShotSampler(identity_channel())
    shots = [sampler.sample(rng, 0, 0.5) for _ in range(n)]
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


def test_write_atomic_keeps_the_old_file_when_a_bytes_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "run.csv"
    path.write_bytes(b"old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_atomic(path, b"new\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


def test_write_atomic_writes_bytes_as_they_are(tmp_path):
    data = b"a,b\r\nc\x00\xff\n"
    write_atomic(tmp_path / "raw", data)
    assert (tmp_path / "raw").read_bytes() == data
    write_atomic(tmp_path / "text", "a,b\nc\n")
    assert (tmp_path / "text").read_bytes() == b"a,b\nc\n"


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


def _source_columns(params, stream):
    """One run's variate columns as the package's raw-word source reads them."""
    streams = protocol._Streams(params.seed)
    (state,) = streams.states(stream, stream + 1)
    words = streams.words(state, 0, 3 * params.n_shots)[None]
    return [column[0] for column in protocol._run_columns(words, params.n_shots)]


def _assert_same_columns(got, want):
    for ours, theirs in zip(got, want, strict=True):
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("n", [1, 2, 3, 119, 120, 1001])
@pytest.mark.parametrize("seed", [0, 2**32 + 7, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 2**32 + 5, 2**40])
def test_raw_word_columns_are_the_generator_draws(n, seed, stream):
    """The column layout and stream seeding equal numpy's Generator, bit for bit.

    Streams from 2**32 on take a two-word spawn key.  A numpy release that
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
        assert np.array_equal(streams.words(state, 0, 15), reference.random_raw(15))


@pytest.mark.parametrize("n, stream", [(1001, 0), (1001, 2**32 + 5), (2, 7)])
def test_chunk_columns_are_slices_of_the_run(monkeypatch, n, stream):
    """Each chunk reads its shots from their own offsets in the stream."""
    monkeypatch.setattr(protocol, "_BLOCK_CELLS", 7)
    params = ProtocolParams(n_shots=n, p_announce=0.5, message_bit=0, seed=2**64 - 1)
    streams = protocol._Streams(params.seed)
    (state,) = streams.states(stream, stream + 1)
    chunks = [streams.chunk_columns(state, n, first) for first in range(0, n, 7)]
    _assert_same_columns([np.concatenate(c) for c in zip(*chunks)], _draw(params, stream))


@pytest.mark.parametrize("block", [7, 50])
def test_counts_do_not_depend_on_the_block_size(monkeypatch, block):
    """Runs tallied in chunks of shots give the pinned counts and densities."""
    params, channel, trials, want = GOLDEN_RUNS[3].values
    probs = bit_announcement_probs(channel).probs_given_b
    densities = information_density(params, channel, trials, probs)
    monkeypatch.setattr(protocol, "_BLOCK_CELLS", block)
    assert _stats_tuple(monte_carlo(params, channel, trials)) == want
    assert np.array_equal(information_density(params, channel, trials, probs), densities)


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
