import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from conftest import (
    FIRST_KEPT_STRENGTH,
    LAST_DROPPED_STRENGTH,
    random_kraus_channel,
    rotated_channel,
)
from oracles import (
    mi_bruteforce,
    mi_by_length_stepwise,
    seal_expected_mi_by_classes,
    seal_mi_by_classes,
)
from sealsim import analysis, qubit
from sealsim.analysis import (
    AnnouncementDistribution,
    MIResult,
    StringCountClass,
    bit_announcement_probs,
    decode_success_probability,
    expected_mutual_information,
    mismatch_probability,
    mutual_information_k,
    seal_class_masses,
    seal_expected_mutual_information,
    seal_expected_mutual_information_grid,
    seal_mismatch_probability_grid,
    seal_mutual_information_k,
)
from sealsim.qubit import (
    KrausChannel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    seal_channel,
)

N_DEFAULT = 119
PA_DEFAULT = 0.05


def literal_single_announcement_mi(p0, p1):
    """Literal single-announcement evaluation of the mutual information."""
    total = 0.0
    for a, b in zip(p0, p1):
        avg = 0.5 * (a + b)
        if avg > 0:
            total -= avg * math.log2(avg)
        if a > 0:
            total += 0.5 * a * math.log2(a)
        if b > 0:
            total += 0.5 * b * math.log2(b)
    return total


# ---------------------------------------------------------------------------
# Announcement distribution
# ---------------------------------------------------------------------------


def test_bit_announcement_probs_identity():
    dist = bit_announcement_probs(identity_channel())
    assert dist.probs_given_b[0] == (0.25, 0.25, 0.25, 0.25)
    assert dist.probs_given_b[1] == (0.25, 0.25, 0.25, 0.25)


@pytest.mark.parametrize("x", [0.0, 0.2, 0.5, 0.9, 1.0])
def test_bit_announcement_probs_seal(x):
    dist = bit_announcement_probs(seal_channel(x))
    expected_b0 = (0.25, 0.25, (1 + x) / 4, (1 - x) / 4)
    expected_b1 = (0.25, 0.25, (1 - x) / 4, (1 + x) / 4)
    assert np.abs(np.array(dist.probs_given_b[0]) - expected_b0).max() <= 1e-12
    assert np.abs(np.array(dist.probs_given_b[1]) - expected_b1).max() <= 1e-12


def test_bit_announcement_probs_unital_channels():
    for ch in (depolarizing_channel(0.4), depolarizing_channel(1.0), dephasing_channel()):
        dist = bit_announcement_probs(ch)
        assert dist.probs_given_b[0] == (0.25, 0.25, 0.25, 0.25)


def test_bit_announcement_probs_rejects_incomplete():
    with pytest.raises(ValueError):
        bit_announcement_probs(KrausChannel((np.diag([1.0, 0.5]),)))


def test_distribution_validation():
    with pytest.raises(ValueError):
        AnnouncementDistribution(((0.3, 0.3, 0.3, 0.3), (0.3, 0.3, 0.3, 0.3)))
    with pytest.raises(ValueError):
        # sums fine but not a c-swap of each other
        AnnouncementDistribution(((0.4, 0.1, 0.4, 0.1), (0.4, 0.1, 0.4, 0.1)))


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**31))
def test_random_channels_yield_valid_distributions(seed):
    rng = np.random.default_rng(seed)
    dist = bit_announcement_probs(random_kraus_channel(rng, 3))
    for row in dist.probs_given_b:
        assert abs(sum(row) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Per-length mutual information
# ---------------------------------------------------------------------------


def test_mutual_information_k_zero_and_negative():
    dist = bit_announcement_probs(seal_channel(0.5))
    assert mutual_information_k(dist, 0) == 0.0
    with pytest.raises(ValueError):
        mutual_information_k(dist, -1)


def test_mutual_information_k1_full_damping():
    # oracle first: literal four-outcome sum gives exactly 1/2 bit
    dist = bit_announcement_probs(seal_channel(1.0))
    oracle = literal_single_announcement_mi(dist.probs_given_b[0], dist.probs_given_b[1])
    assert abs(oracle - 0.5) <= 1e-12
    assert abs(mutual_information_k(dist, 1) - oracle) <= 1e-12


def test_mutual_information_k1_half_damping():
    dist = bit_announcement_probs(seal_channel(0.5))
    oracle = literal_single_announcement_mi(dist.probs_given_b[0], dist.probs_given_b[1])
    expected = 2.0 - (1.0 + 0.375 * math.log2(4 / 1.5) + 0.125 * math.log2(8.0))
    assert abs(oracle - expected) <= 1e-12
    assert abs(oracle - 0.0943609) <= 1e-6
    assert abs(mutual_information_k(dist, 1) - oracle) <= 1e-12


@pytest.mark.parametrize(
    "channel",
    [
        seal_channel(0.3),
        seal_channel(0.8),
        seal_channel(1.0),
        rotated_channel(seal_channel(0.5), 0.7),
        rotated_channel(seal_channel(0.9), 2.0),
    ],
    ids=["seal03", "seal08", "seal10", "tilted05", "tilted09"],
)
def test_count_class_matches_bruteforce(channel):
    dist = bit_announcement_probs(channel)
    assert abs(dist.probs_given_b[0][0] - dist.probs_given_b[0][1]) > 1e-3 or "rot" not in channel.label
    for k in range(8):
        brute = mi_bruteforce(dist.probs_given_b[0], dist.probs_given_b[1], k)
        assert abs(mutual_information_k(dist, k) - brute) <= 1e-10


def test_count_class_matches_bruteforce_random_channel():
    rng = np.random.default_rng(77)
    ch = random_kraus_channel(rng, 3)
    dist = bit_announcement_probs(ch)
    assert max(abs(p - 0.25) for p in dist.probs_given_b[0]) > 1e-3  # non-unital draw
    for k in range(7):
        brute = mi_bruteforce(dist.probs_given_b[0], dist.probs_given_b[1], k)
        assert abs(mutual_information_k(dist, k) - brute) <= 1e-10


def test_mutual_information_monotone_in_k():
    for x in (0.15, 0.5, 0.95):
        dist = bit_announcement_probs(seal_channel(x))
        previous = 0.0
        for k in range(21):
            current = mutual_information_k(dist, k)
            assert current >= previous - 1e-12
            assert 0.0 <= current <= min(1.0, 2.0 * k) + 1e-12
            previous = current


# ---------------------------------------------------------------------------
# Binomially weighted expectation
# ---------------------------------------------------------------------------


def test_binomial_weights_match_scipy():
    from sealsim.analysis import _binomial_pmf

    for n, p in ((119, 0.05), (119, 0.01), (40, 0.5), (7, 0.0), (7, 1.0)):
        ours = _binomial_pmf(n, p)
        reference = binom.pmf(np.arange(n + 1), n, p)
        assert np.abs(ours - reference).max() <= 1e-13


@pytest.mark.parametrize("n, p", [(2000, 0.5), (3000, 0.5)])
def test_binomial_weights_are_normalised_at_large_n(n, p):
    from sealsim.analysis import _binomial_pmf

    assert abs(math.fsum(_binomial_pmf(n, p)) - 1.0) <= 1e-15
    res = seal_expected_mutual_information(1.0, n, p)
    assert res.truncation_mass < 1e-12
    assert res.k_terms_used < n + 1
    assert 0.0 <= res.mi_bits <= 1.0


def test_kept_string_lengths_at_default_n():
    assert seal_expected_mutual_information(0.5, N_DEFAULT, PA_DEFAULT).k_terms_used == 29
    assert seal_expected_mutual_information(0.5, N_DEFAULT, 0.5).k_terms_used == 76


def test_expected_mi_identity_is_exact_zero():
    dist = bit_announcement_probs(identity_channel())
    res = expected_mutual_information(dist, N_DEFAULT, PA_DEFAULT)
    assert res.mi_bits == 0.0
    assert res.truncation_mass <= 1e-12


def test_expected_mi_full_damping_anchor():
    # closed form: only a string with no sigma3 announcement hides the bit
    anchor = 1.0 - (1.0 - PA_DEFAULT / 2.0) ** N_DEFAULT
    assert abs(anchor - 0.950847) <= 1e-6
    dist = bit_announcement_probs(seal_channel(1.0))
    generic = expected_mutual_information(dist, N_DEFAULT, PA_DEFAULT)
    grouped = seal_expected_mutual_information(1.0, N_DEFAULT, PA_DEFAULT)
    assert abs(generic.mi_bits - anchor) <= 1e-9
    assert abs(grouped.mi_bits - anchor) <= 1e-9


def test_expected_mi_zero_damping():
    res = seal_expected_mutual_information(0.0, N_DEFAULT, PA_DEFAULT)
    assert res.mi_bits == 0.0
    generic = expected_mutual_information(
        bit_announcement_probs(seal_channel(0.0)), N_DEFAULT, PA_DEFAULT
    )
    assert generic.mi_bits == 0.0


def test_expected_mi_unital_channels_leak_nothing():
    for ch in (depolarizing_channel(0.3), depolarizing_channel(1.0), dephasing_channel()):
        res = expected_mutual_information(bit_announcement_probs(ch), N_DEFAULT, PA_DEFAULT)
        assert res.mi_bits == 0.0


def test_expected_mi_edge_announce_probs():
    dist = bit_announcement_probs(seal_channel(0.8))
    assert expected_mutual_information(dist, 20, 0.0).mi_bits == 0.0
    full = expected_mutual_information(dist, 20, 1.0)
    assert abs(full.mi_bits - mutual_information_k(dist, 20)) <= 1e-12
    assert full.k_terms_used == 1


def test_expected_mi_rejects_bad_inputs():
    dist = bit_announcement_probs(seal_channel(0.5))
    with pytest.raises(ValueError):
        expected_mutual_information(dist, N_DEFAULT, 1.5)
    with pytest.raises(ValueError):
        expected_mutual_information(dist, N_DEFAULT, -0.1)
    with pytest.raises(ValueError):
        expected_mutual_information(dist, N_DEFAULT, PA_DEFAULT, tail_tol=0.0)
    with pytest.raises(ValueError):
        expected_mutual_information(dist, N_DEFAULT, PA_DEFAULT, tail_tol=1e-3)
    with pytest.raises(ValueError):
        expected_mutual_information(dist, 0, PA_DEFAULT)


def test_expected_mi_single_shot_hand_formula():
    # with one shot the expectation is just pa * I(single announcement)
    dist = bit_announcement_probs(seal_channel(0.7))
    res = expected_mutual_information(dist, 1, 0.3)
    assert abs(res.mi_bits - 0.3 * mutual_information_k(dist, 1)) <= 1e-15


def test_grouped_matches_generic_at_large_k():
    # high announcement rate pushes the binomial mass to k ~ 30..60
    oracle = seal_expected_mi_by_classes(0.6, 60, 0.5)
    grouped = seal_expected_mutual_information(0.6, 60, 0.5)
    generic = expected_mutual_information(bit_announcement_probs(seal_channel(0.6)), 60, 0.5)
    assert abs(grouped.mi_bits - oracle) <= 1e-9
    assert abs(generic.mi_bits - oracle) <= 1e-9
    assert grouped.k_terms_used == generic.k_terms_used


def test_truncation_mass_respects_tolerance():
    dist = bit_announcement_probs(seal_channel(0.6))
    for tol in (1e-7, 1e-9, 1e-12):
        res = expected_mutual_information(dist, N_DEFAULT, PA_DEFAULT, tail_tol=tol)
        assert res.truncation_mass < tol
        assert res.k_terms_used <= N_DEFAULT + 1


def test_mi_result_bounds():
    with pytest.raises(ValueError):
        MIResult(1.5, 3, 0.0)
    with pytest.raises(ValueError):
        MIResult(-0.5, 3, 0.0)


# ---------------------------------------------------------------------------
# Damping-family specialization
# ---------------------------------------------------------------------------


def test_seal_class_masses_normalize():
    for x in (0.0, 0.31, 0.77, 1.0):
        for k in range(31):
            masses = seal_class_masses(x, k)
            assert abs(sum(m[1] for m in masses) - 1.0) <= 1e-12
            assert abs(sum(m[2] for m in masses) - 1.0) <= 1e-12


def test_string_count_class():
    cls = StringCountClass(5, 2, 1)
    assert cls.sigma1_count == 2
    # multinomial 5!/(2!1!2!) = 30, times 2^2 sigma1 choices
    assert cls.string_count() == 120
    with pytest.raises(ValueError):
        StringCountClass(3, 2, 2)


def test_class_string_counts_cover_all_strings():
    for k in range(7):
        total = sum(cls.string_count() for cls, _, _ in seal_class_masses(0.4, k))
        assert total == 4**k


def test_grouped_matches_generic_per_k():
    for x in (0.0, 0.3, 0.7, 1.0):
        dist = bit_announcement_probs(seal_channel(x))
        for k in (1, 2, 5, 9):
            oracle = seal_mi_by_classes(x, k)
            assert abs(seal_mutual_information_k(x, k) - oracle) <= 1e-12
            assert abs(mutual_information_k(dist, k) - oracle) <= 1e-12


def test_seal_mutual_information_long_string_stays_finite():
    # most string probabilities at k = 800 lie below the smallest double
    mi = seal_mutual_information_k(0.5, 800)
    assert math.isfinite(mi)
    assert 0.0 <= mi <= 1.0


def test_grouped_matches_generic_expectation():
    for x in np.linspace(0.0, 1.0, 11):
        oracle = seal_expected_mi_by_classes(float(x), N_DEFAULT, PA_DEFAULT)
        grouped = seal_expected_mutual_information(float(x), N_DEFAULT, PA_DEFAULT)
        generic = expected_mutual_information(
            bit_announcement_probs(seal_channel(float(x))), N_DEFAULT, PA_DEFAULT
        )
        assert abs(grouped.mi_bits - oracle) <= 1e-9
        assert abs(generic.mi_bits - oracle) <= 1e-9


# ---------------------------------------------------------------------------
# Mismatch probability
# ---------------------------------------------------------------------------


def test_mismatch_identity():
    res = mismatch_probability(identity_channel())
    assert res.per_shot == 0.0 and res.matched_basis_conditional == 0.0


@pytest.mark.parametrize("x", np.arange(0.0, 1.0001, 0.05))
def test_mismatch_seal_closed_form(x):
    res = mismatch_probability(seal_channel(x))
    expected = 0.25 * (1.0 + x - math.sqrt(1.0 - x))
    assert abs(res.matched_basis_conditional - expected) <= 1e-12
    assert abs(res.per_shot - 0.5 * expected) <= 1e-12


def test_mismatch_dephasing():
    res = mismatch_probability(dephasing_channel())
    assert abs(res.matched_basis_conditional - 0.25) <= 1e-12


@pytest.mark.parametrize("p", [0.0, 0.3, 0.8, 1.0])
def test_mismatch_depolarizing(p):
    res = mismatch_probability(depolarizing_channel(p))
    assert abs(res.matched_basis_conditional - p / 2.0) <= 1e-12


def test_mismatch_validates_the_channel_once(monkeypatch):
    calls = []
    validate = qubit.validate_channel
    monkeypatch.setattr(qubit, "validate_channel", lambda ch: calls.append(ch) or validate(ch))
    channel = random_kraus_channel(np.random.default_rng(6), 3)
    mismatch_probability(channel)
    assert calls == [channel]
    half = KrausChannel((np.diag([1.0, 0.5]),), label="half")
    with pytest.raises(ValueError, match=r"channel 'half' fails completeness \(deviation 7.500e-01\)"):
        mismatch_probability(half)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**31))
def test_mismatch_bounds_random_channels(seed):
    res = mismatch_probability(random_kraus_channel(np.random.default_rng(seed), 3))
    assert 0.0 <= res.per_shot <= 0.5
    assert 0.0 <= res.matched_basis_conditional <= 1.0
    assert abs(res.matched_basis_conditional - 2 * res.per_shot) <= 1e-15


# ---------------------------------------------------------------------------
# Decode success
# ---------------------------------------------------------------------------


def test_decode_success_values():
    assert abs(decode_success_probability(N_DEFAULT, PA_DEFAULT) - 0.9509) <= 1e-4
    assert decode_success_probability(N_DEFAULT, 0.0) == 0.0
    assert decode_success_probability(1, 1.0) == 0.5
    with pytest.raises(ValueError):
        decode_success_probability(0, 0.5)
    with pytest.raises(ValueError):
        decode_success_probability(10, 1.5)


# ---------------------------------------------------------------------------
# Curve shape on the default grid
# ---------------------------------------------------------------------------


def test_curves_start_at_zero_and_never_decrease():
    grid = np.arange(0.0, 1.0001, 0.05)
    mi_values = [
        seal_expected_mutual_information(float(x), N_DEFAULT, PA_DEFAULT).mi_bits for x in grid
    ]
    mm_values = [
        mismatch_probability(seal_channel(float(x))).matched_basis_conditional for x in grid
    ]
    assert mi_values[0] == 0.0 and mm_values[0] == 0.0
    assert all(b >= a - 1e-12 for a, b in zip(mi_values, mi_values[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(mm_values, mm_values[1:]))


# ---------------------------------------------------------------------------
# Whole input range
# ---------------------------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=2000), unit, unit, unit)
def test_damping_mi_is_valid_and_monotone_in_x(n, pa, x_a, x_b):
    low, high = (
        seal_expected_mutual_information(x, n, pa).mi_bits for x in sorted((x_a, x_b))
    )
    for mi in (low, high):
        assert math.isfinite(mi)
        assert 0.0 <= mi <= 1.0
    assert high >= low - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=2000), unit)
def test_damping_full_strength_anchor(n, pa):
    anchor = 1.0 - (1.0 - pa / 2.0) ** n
    assert abs(seal_expected_mutual_information(1.0, n, pa).mi_bits - anchor) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=2000), unit, unit)
def test_unital_channels_leak_exactly_nothing(n, pa, p):
    for ch in (identity_channel(), depolarizing_channel(p), dephasing_channel()):
        assert expected_mutual_information(bit_announcement_probs(ch), n, pa).mi_bits == 0.0


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=150),
    unit,
    st.integers(min_value=0, max_value=2**31),
)
def test_general_channel_mi_is_valid(n, pa, seed):
    rng = np.random.default_rng(seed)
    for ch in (
        rotated_channel(seal_channel(float(rng.random())), float(rng.uniform(0.1, 3.0))),
        random_kraus_channel(rng, 3),
    ):
        mi = expected_mutual_information(bit_announcement_probs(ch), n, pa).mi_bits
        assert math.isfinite(mi)
        assert 0.0 <= mi <= 1.0


# ---------------------------------------------------------------------------
# Whole-grid evaluation
# ---------------------------------------------------------------------------


@st.composite
def damping_grids(draw):
    """Sorted strengths from 0 to 1, repeats allowed, tiny ones included."""
    return sorted([0.0, 1.0, *draw(st.lists(unit, max_size=8))])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300), unit, damping_grids())
def test_grid_is_the_per_point_evaluation(n, pa, grid):
    curve = seal_expected_mutual_information_grid(grid, n, pa)
    assert len(curve) == len(grid)
    for x, got in zip(grid, curve):
        want = seal_expected_mutual_information(x, n, pa)
        assert got.mi_bits.hex() == want.mi_bits.hex()
        assert got.k_terms_used == want.k_terms_used
        assert got.truncation_mass == want.truncation_mass
    assert curve[0].mi_bits.hex() == (0.0).hex()  # x = 0 leaks exactly nothing
    assert abs(curve[-1].mi_bits - (1.0 - (1.0 - pa / 2.0) ** n)) <= 1e-9
    for x, got in zip(grid, seal_mismatch_probability_grid(grid)):
        want = mismatch_probability(seal_channel(x))
        assert got.per_shot.hex() == want.per_shot.hex()
        assert got.matched_basis_conditional.hex() == want.matched_basis_conditional.hex()


# Strengths where the stacked mismatch column could part from the
# per-channel one: the ends, the smallest subnormal, and the two sides of
# the second operator's drop, one ulp apart.
EDGE_STRENGTHS = [0.0, 1.0, 5e-324, LAST_DROPPED_STRENGTH, FIRST_KEPT_STRENGTH]


@st.composite
def mismatch_grids(draw):
    """Strengths in [0, 1], edge strengths mixed in, some of them repeated, in any order."""
    points = draw(st.lists(st.one_of(unit, st.sampled_from(EDGE_STRENGTHS)), max_size=12))
    return points + draw(st.lists(st.sampled_from(points), max_size=4)) if points else points


@settings(max_examples=150, deadline=None)
@given(mismatch_grids())
@example(EDGE_STRENGTHS + [1e-30, 1e-16, 1.0 - 1e-16, 0.5, 0.5, 0.0])
def test_mismatch_grid_is_the_per_point_evaluation(grid):
    got = seal_mismatch_probability_grid(grid)
    assert len(got) == len(grid)
    for x, point in zip(grid, got):
        want = mismatch_probability(seal_channel(x))
        assert point.per_shot.hex() == want.per_shot.hex()
        assert point.matched_basis_conditional.hex() == want.matched_basis_conditional.hex()


@pytest.mark.parametrize("x", [-0.1, 1.5, math.nan])
def test_mismatch_grid_rejects_a_strength_outside_0_1(x):
    with pytest.raises(ValueError, match="damping strength"):
        seal_mismatch_probability_grid([0.0, 0.5, x])
    assert seal_mismatch_probability_grid([]) == []


@pytest.mark.parametrize("block_cells", [1, 100])
def test_grid_blocks_do_not_change_the_numbers(monkeypatch, block_cells):
    grid = [0.0, 1e-300, 0.05, 0.3, 0.3, 0.75, 1.0]
    want = [seal_expected_mutual_information(x, 60, 0.5) for x in grid]
    mismatch = [mismatch_probability(seal_channel(x)) for x in grid]
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", block_cells)
    assert seal_expected_mutual_information_grid(grid, 60, 0.5) == want
    assert seal_mismatch_probability_grid(grid) == mismatch


def test_rows_of_a_general_channel_walk_as_they_walk_alone():
    rng = np.random.default_rng(11)
    rows = analysis._unit_rows(
        [bit_announcement_probs(random_kraus_channel(rng, 3)).probs_given_b[0] for _ in range(5)]
    )
    lengths = [0, 1, 5, 17, 30]
    together = analysis._mi_by_length(rows, lengths)
    assert together.shape == (5, 5)
    for row, got in zip(rows, together):
        assert got.tobytes() == analysis._mi_by_length(row[None], lengths)[0].tobytes()
    with pytest.raises(ValueError, match="collapse pattern"):
        analysis._mi_by_length(np.vstack([rows[:1], analysis._damping_rows([0.5])]), lengths)


def test_a_single_cell_reads_as_the_general_formula():
    """A unital channel's lattice is one cell a row, read as 1 - p0(0).

    Rows whose bases both collapse keep one cell, which each step multiplies
    by the row's total weight; the totals here make the cell 1, 0.75, 0.3,
    1e-300, a subnormal and 0 at the walked lengths.
    """
    rows = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.375, 0.375, 0.0, 0.0],
            [0.15, 0.15, 0.0, 0.0],
            [5e-151, 5e-151, 0.0, 0.0],
            [5e-324, 5e-324, 0.0, 0.0],
        ]
    )
    lengths = [0, 1, 2, 3]
    p = np.empty((len(rows), len(lengths)))
    cell = np.ones(len(rows))
    for k in range(lengths[-1] + 1):
        p[:, k] = cell
        cell = rows.sum(axis=1) * cell
    assert {0.75, 0.3, 1e-300, 1e-323, 0.0} <= set(p.ravel().tolist())
    ratio = np.divide(p, p + p, out=np.ones_like(p), where=p > 0.0)
    want = 1.0 + p * np.log2(ratio)
    assert analysis._mi_by_length(rows, lengths).tobytes() == want.tobytes()


def test_a_line_with_one_move_is_the_stepwise_walk():
    """A row with one symbol of positive weight walks the line by copying its only product."""
    lengths = [0, 1, 5, 9]
    for row in ([0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]):
        rows = np.array([row, row])
        got = analysis._mi_by_length(rows, lengths)
        assert got.tobytes() == mi_by_length_stepwise(rows, lengths).tobytes()
        assert got[:, 1:].tolist() == [[1.0, 1.0, 1.0]] * 2


@st.composite
def collapse_stacks(draw):
    """(rows, lengths): announcement distributions of one collapse pattern and kept lengths.

    The pattern is drawn first: a collapsed basis has r = 0, a moving one a
    drawn r, with +-1 (a symbol of zero weight, so empty lattice cells) and
    1e-300 (a basis that collapses in floating point) among the choices.
    Lines (one moving axis, or a damping strength x) walk up to N = 2000,
    the plane up to N = 300, with fewer rows as N grows.
    """
    moving1, moving3 = draw(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
    damping = moving3 and not moving1 and draw(st.booleans())
    n_cap = 300 if moving1 and moving3 else 2000
    n_shots = draw(st.integers(min_value=1, max_value=n_cap))
    walk = n_shots**3 // 30 if moving1 and moving3 else 20 * n_shots
    count = draw(st.integers(min_value=1, max_value=max(1, min(40, 2_000_000 // max(walk, 1)))))
    strength = st.one_of(
        st.sampled_from([1.0, -1.0, 1e-300, 0.5]), st.floats(min_value=-1.0, max_value=1.0)
    )
    if damping:
        xs = draw(
            st.lists(
                st.one_of(st.sampled_from([1.0, 1e-300]), st.floats(min_value=0.0, max_value=1.0)),
                min_size=count,
                max_size=count,
            )
        )
        rows = analysis._damping_rows(xs)
    else:
        probs = []
        for _ in range(count):
            r1 = draw(strength) if moving1 else 0.0
            r3 = draw(strength) if moving3 else 0.0
            probs.append((0.25 * (1 + r1), 0.25 * (1 - r1), 0.25 * (1 + r3), 0.25 * (1 - r3)))
        rows = analysis._unit_rows(probs)
    pa = draw(st.floats(min_value=0.0, max_value=1.0))
    _, lengths, _ = analysis._kept_lengths(n_shots, pa, 1e-12)
    return rows, lengths


@pytest.mark.parametrize("block_cells", [None, 1, 100])
@settings(max_examples=40, deadline=None)
@given(collapse_stacks())
def test_mi_by_length_is_the_stepwise_walk(block_cells, stack):
    """Every row of every collapse pattern reads, bit for bit, as the walk one step at a time.

    With ``_BLOCK_CELLS`` at 1 each length is read in place; at 100 the
    store of kept lengths fills and is read out many times a walk.
    """
    rows, lengths = stack
    moving = rows[:, ::2] != rows[:, 1::2]
    pattern = moving[:, 0] + 2 * moving[:, 1]
    with pytest.MonkeyPatch.context() as patch:
        if block_cells is not None:
            patch.setattr(analysis, "_BLOCK_CELLS", block_cells)
        for value in set(pattern.tolist()):
            group = rows[pattern == value]
            got = analysis._mi_by_length(group, lengths)
            assert got.tobytes() == mi_by_length_stepwise(group, lengths).tobytes()


def test_grid_rejects_a_strength_outside_0_1():
    with pytest.raises(ValueError, match="damping strength"):
        seal_expected_mutual_information_grid([0.0, 1.5], N_DEFAULT, PA_DEFAULT)
    with pytest.raises(ValueError, match="announcement probability"):
        seal_expected_mutual_information_grid([0.0, 0.5], N_DEFAULT, 1.5)
    assert seal_expected_mutual_information_grid([], N_DEFAULT, PA_DEFAULT) == []


def _grid_peak_bytes(points: int) -> int:
    grid = [i / (points - 1) for i in range(points)]
    tracemalloc.start()
    try:
        curve = seal_expected_mutual_information_grid(grid, N_DEFAULT, PA_DEFAULT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == points
    return peak


def test_grid_memory_does_not_grow_with_the_grid():
    """The rows walk in blocks: a grid of 10001 points peaks at the memory of
    a 101-point one plus its own results and input rows (about 200 bytes a
    point); walked all at once, its lattices alone would take over 20 MB."""
    assert _grid_peak_bytes(10_001) <= _grid_peak_bytes(101) + 3 * 2**20


def _mismatch_grid_peak_bytes(points: int) -> int:
    grid = [i / (points - 1) for i in range(points)]
    tracemalloc.start()
    try:
        column = seal_mismatch_probability_grid(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(column) == points
    return peak


def test_mismatch_grid_memory_does_not_grow_with_the_grid():
    """The strengths' operators are stacked and evaluated in blocks: a grid of
    10001 points peaks at the memory of a 101-point one plus its own results
    and input (about 130 bytes a point); stacked all at once, its operator
    products alone would take over 10 MB."""
    assert _mismatch_grid_peak_bytes(10_001) <= _mismatch_grid_peak_bytes(101) + 2 * 2**20
