import math
import tracemalloc
import warnings

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
    line_expected_mi_exact,
    line_expected_mi_stepwise,
    mi_bruteforce,
    mi_by_length_stepwise,
    plane_expectation_by_tables,
    plane_expected_mi_exact,
    plane_tables_by_row,
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
    born_cells,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    seal_channel,
    validate_channel,
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
    """With the born table's and the mismatch's message, word for word, with or
    without the channel's report."""
    half = KrausChannel((np.diag([1.0, 0.5]),), label="half")
    report = validate_channel(half)
    messages = set()
    for call in (bit_announcement_probs, qubit.born_table, mismatch_probability):
        for args in ((half,), (half, report)):
            with pytest.raises(ValueError) as raised:
                call(*args)
            messages.add(str(raised.value))
    assert messages == {"channel 'half' fails completeness (deviation 7.500e-01)"}


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


def assert_cells_near_the_mode_match_scipy(cells, n: int, p: float):
    """Cells i within 8 sigma of the mode of Bin(n, p) match ``binom.pmf`` to a relative
    bound that grows with n: 5e-13 up to n = 119, 5e-11 up to 2000 and 2e-10 up to 1e4.

    Each log-binomial is a difference of numbers near n log n, so its
    rounding error grows with n.
    """
    bound = next(b for most, b in ((119, 5e-13), (2000, 5e-11), (10_000, 2e-10)) if n <= most)
    spread = 8.0 * math.sqrt(n * p * (1.0 - p))
    i = np.arange(max(0, math.ceil(n * p - spread)), min(n, math.floor(n * p + spread)) + 1)
    assert np.abs(cells[i] / binom.pmf(i, n, p) - 1.0).max() <= bound


@pytest.mark.parametrize("n", [119, 2000, 10_000])
@pytest.mark.parametrize("p", [0.025, 0.05, 0.3, 0.5])
def test_length_weights_near_the_mode_match_scipy(n, p):
    assert_cells_near_the_mode_match_scipy(analysis._binomial_pmf(n, p), n, p)


@pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
def test_plane_table_rows_near_the_mode_match_scipy(a):
    """Rows of the plane's tables at the longest length the plane admits, 1447."""
    log_factorials = analysis._log_factorials(analysis._PLANE_TOP)
    for low in (0, 100, 700, analysis._PLANE_TOP - 7):
        rows = analysis._binomial_rows(low, low + 8, log_factorials, math.log(a), math.log1p(-a))
        for n, row in enumerate(rows, start=low):
            assert_cells_near_the_mode_match_scipy(row, n, a)


def test_a_line_block_near_the_mode_matches_scipy():
    """The last (rows, counts, cells) block of a line at N = 2000, pa = 0.5, each
    count's cells over their own sum as the line takes them."""
    js = np.array(analysis._kept_lengths(2000, 0.25, 1e-12)[1])[-20:]
    a = np.array([0.75, 0.5005, 0.99])
    cells = analysis._binomial_cells(
        js[:, None],
        np.log(a)[:, None, None],
        np.log1p(-a)[:, None, None],
        analysis._log_factorials(int(js[-1])),
    )
    cells /= np.add.reduce(cells, axis=-1)[..., None]
    for row, share in enumerate(a.tolist()):
        for column, j in enumerate(js.tolist()):
            assert_cells_near_the_mode_match_scipy(cells[row, column], j, share)


@pytest.mark.parametrize("n, p", [(2000, 0.5), (3000, 0.5)])
def test_binomial_weights_are_normalised_at_large_n(n, p):
    from sealsim.analysis import _binomial_pmf

    assert abs(math.fsum(_binomial_pmf(n, p)) - 1.0) <= 1e-15
    res = seal_expected_mutual_information(1.0, n, p)
    assert res.truncation_mass < 1e-12
    assert res.k_terms_used < n + 1
    assert 0.0 <= res.mi_bits <= 1.0


def test_kept_string_lengths_at_default_n():
    """A line keeps counts of sigma3 announcements, Bin(N, pa/2); the plane keeps
    string lengths, Bin(N, pa)."""
    assert seal_expected_mutual_information(0.5, N_DEFAULT, PA_DEFAULT).k_terms_used == 22
    assert seal_expected_mutual_information(0.5, N_DEFAULT, 0.5).k_terms_used == 65
    plane = bit_announcement_probs(random_kraus_channel(np.random.default_rng(77), 3))
    assert expected_mutual_information(plane, N_DEFAULT, PA_DEFAULT).k_terms_used == 29
    assert expected_mutual_information(plane, N_DEFAULT, 0.5).k_terms_used == 76


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
    # every announcement is made, and its sigma3 count is Bin(20, 1/2): all 21 counts are kept
    assert full.k_terms_used == 21


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
    """MIResult checks and clamps its one float as _checked_bits does a column: NaN, or
    a value more than _MI_TOL outside [0, 1], raises the same message; a value within
    _MI_TOL of [0, 1] is clamped, and -0.0 is kept."""
    tol = analysis._MI_TOL
    for bad in (1.5, -0.5, math.nan, math.inf, 1.0 + 2 * tol, -2 * tol):
        with pytest.raises(ValueError) as point:
            MIResult(bad, 3, 0.0)
        with pytest.raises(ValueError) as column:
            analysis._checked_bits([0.5, bad])
        assert str(point.value) == str(column.value) == f"mutual information out of [0, 1]: {bad}"
    for value, want in ((1.0 + tol, 1.0), (1.0 + tol / 2, 1.0), (-tol, 0.0), (-tol / 2, 0.0),
                        (-0.0, -0.0), (0.0, 0.0), (0.25, 0.25), (1.0, 1.0)):
        got = MIResult(np.float64(value), 3, 0.0).mi_bits
        assert type(got) is float and got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got.hex() == float(analysis._checked_bits([value])[0]).hex()


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
@given(st.integers(min_value=0, max_value=2**31), st.integers(1, 4))
def test_mismatch_bounds_random_channels(seed, operators):
    """Bounded, and the same float whether read from the channel's report
    or from the Born cells the sweep's mismatch column forms."""
    channel = random_kraus_channel(np.random.default_rng(seed), operators)
    res = mismatch_probability(channel, validate_channel(channel))
    assert 0.0 <= res.per_shot <= 0.5
    assert 0.0 <= res.matched_basis_conditional <= 1.0
    assert abs(res.matched_basis_conditional - 2 * res.per_shot) <= 1e-15
    cells = born_cells(channel.stack[None], analysis._MISMATCH_CELLS)
    by_cells = analysis._mismatch_per_shot(cells)[0]
    assert np.float64(res.per_shot).tobytes() == by_cells.tobytes()
    assert mismatch_probability(channel) == res


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
    mi, terms, truncation = seal_expected_mutual_information_grid(grid, n, pa)
    assert len(mi) == len(terms) == len(truncation) == len(grid)
    for x, got in zip(grid, zip(mi.tolist(), terms.tolist(), truncation.tolist())):
        want = seal_expected_mutual_information(x, n, pa)
        assert got[0].hex() == want.mi_bits.hex()
        assert got[1] == want.k_terms_used
        assert got[2] == want.truncation_mass
    assert mi[0].hex() == (0.0).hex()  # x = 0 leaks exactly nothing
    assert abs(mi[-1] - (1.0 - (1.0 - pa / 2.0) ** n)) <= 1e-9
    per_shot, conditional = seal_mismatch_probability_grid(grid)
    for x, got in zip(grid, zip(per_shot.tolist(), conditional.tolist())):
        want = mismatch_probability(seal_channel(x))
        assert got[0].hex() == want.per_shot.hex()
        assert got[1].hex() == want.matched_basis_conditional.hex()


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
    per_shot, conditional = seal_mismatch_probability_grid(grid)
    assert len(per_shot) == len(conditional) == len(grid)
    for x, got in zip(grid, zip(per_shot.tolist(), conditional.tolist())):
        want = mismatch_probability(seal_channel(x))
        assert got[0].hex() == want.per_shot.hex()
        assert got[1].hex() == want.matched_basis_conditional.hex()


@pytest.mark.parametrize("x", [-0.1, 1.5, math.nan])
def test_mismatch_grid_rejects_a_strength_outside_0_1(x):
    with pytest.raises(ValueError, match="damping strength"):
        seal_mismatch_probability_grid([0.0, 0.5, x])


@pytest.mark.parametrize("block_cells", [1, 100])
def test_grid_blocks_do_not_change_the_numbers(monkeypatch, block_cells):
    grid = [0.0, 1e-300, 0.05, 0.3, 0.3, 0.75, 1.0]
    want = [seal_expected_mutual_information(x, 60, 0.5) for x in grid]
    mismatch = [mismatch_probability(seal_channel(x)) for x in grid]
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", block_cells)
    mi, terms, truncation = seal_expected_mutual_information_grid(grid, 60, 0.5)
    assert mi.tolist() == [point.mi_bits for point in want]
    assert terms.tolist() == [point.k_terms_used for point in want]
    assert truncation.tolist() == [point.truncation_mass for point in want]
    per_shot, conditional = seal_mismatch_probability_grid(grid)
    assert per_shot.tolist() == [point.per_shot for point in mismatch]
    assert conditional.tolist() == [point.matched_basis_conditional for point in mismatch]


def test_no_moving_axis_leaks_exactly_nothing():
    """Equal symbols within each basis give both message values one string
    distribution, so every length reads exactly 0 bits, also when the two
    bases carry unequal mass and the row's rounded total is not 1."""
    dist = AnnouncementDistribution(((0.15, 0.15, 0.35, 0.35), (0.15, 0.15, 0.35, 0.35)))
    assert mutual_information_k(dist, 100_000) == 0.0
    assert expected_mutual_information(dist, 100_000, 1.0).mi_bits == 0.0
    assert expected_mutual_information(dist, N_DEFAULT, 1.0).mi_bits == 0.0
    lengths = [0, 1, 7, 500]
    for row in analysis._unit_rows([dist.probs_given_b[0], (0.5, 0.5, 0.0, 0.0)]):
        got = [analysis._mi_at_length(row[None], k) for k in lengths]
        assert np.array(got).tobytes() == mi_by_length_stepwise(row[None], lengths)[0].tobytes()
        assert got == [0.0] * 4
    with pytest.raises(ValueError, match="non-negative"):
        mutual_information_k(dist, -1)


def test_no_moving_axis_keeps_no_term_and_truncates_nothing(monkeypatch):
    """A row with no moving axis reads exactly 0 bits with no kept term and
    no truncation, and no string lengths are kept for it; its arguments are
    still checked."""

    def no_lengths(*args):
        raise AssertionError("string lengths kept for a row with no moving axis")

    monkeypatch.setattr(analysis, "_kept_lengths", no_lengths)
    dist = bit_announcement_probs(depolarizing_channel(0.3))
    for pa in (0.05, 0.5, 1.0):
        want = MIResult(0.0, 0, 0.0)
        assert expected_mutual_information(dist, N_DEFAULT, pa) == want
        assert seal_expected_mutual_information(0.0, 500, pa) == want
        mi, terms, truncation = seal_expected_mutual_information_grid([0.0, 0.0], N_DEFAULT, pa)
        assert [MIResult(*row) for row in zip(mi, terms, truncation)] == [want] * 2
    with pytest.raises(ValueError, match="tail tolerance"):
        expected_mutual_information(dist, N_DEFAULT, 0.5, tail_tol=1e-3)


def test_a_line_with_one_move_is_the_stepwise_sum():
    """A row with one symbol of positive weight has c = 0: every count j >= 1 reveals the message."""
    for row in ([0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]):
        rows = np.array([row, row])
        dist = AnnouncementDistribution((row, (row[1], row[0], row[3], row[2])))
        for k, want in zip([0, 1, 5, 9], [0.0, 1.0, 1.0, 1.0]):
            got = analysis._line_expectation(rows, k, 1.0, None)
            stepwise = line_expected_mi_stepwise(rows, k, 1.0, None)
            assert got[0].tobytes() == np.array([mi for mi, _, _ in stepwise]).tobytes()
            assert got[1].tolist() == [terms for _, terms, _ in stepwise] == [k + 1] * 2
            assert got[2].tolist() == [0.0, 0.0]
            assert got[0].tolist() == [want] * 2
            assert abs(line_expected_mi_exact(row, k, 1.0) - want) <= 1e-14
            assert mutual_information_k(dist, k) == want


@st.composite
def collapse_stacks(draw, patterns):
    """(rows, n_shots, pa): announcement distributions of one of the collapse ``patterns``.

    The pattern (moving1, moving3) is drawn first: a collapsed basis has
    r = 0, a moving one a drawn r, with +-1 (a symbol of zero weight, so
    empty cells) and 1e-300 (a basis that collapses in floating point, so a
    row of another pattern) among the choices.  Each row's sigma1 basis
    carries a drawn mass m and its sigma3 basis 1 - m, so the two bases need
    not be equally likely.  Lines (one moving axis, or a damping strength x)
    go up to N = 2000, the plane up to N = 300, with fewer rows as N grows.
    """
    moving1, moving3 = draw(st.sampled_from(patterns))
    damping = moving3 and not moving1 and draw(st.booleans())
    plane = moving1 and moving3
    n_shots = draw(st.integers(min_value=1, max_value=300 if plane else 2000))
    cost = n_shots**3 // 30 if plane else 100 * n_shots
    count = draw(st.integers(min_value=1, max_value=max(1, min(40, 2_000_000 // max(cost, 1)))))
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
        mass = st.one_of(st.sampled_from([0.5, 0.3]), st.floats(min_value=0.01, max_value=0.99))
        probs = []
        for _ in range(count):
            m = draw(mass)
            a, b = 0.5 * m, 0.5 * (1.0 - m)
            r1 = draw(strength) if moving1 else 0.0
            r3 = draw(strength) if moving3 else 0.0
            probs.append((a * (1 + r1), a * (1 - r1), b * (1 + r3), b * (1 - r3)))
        rows = analysis._unit_rows(probs)
    return rows, n_shots, draw(st.floats(min_value=0.0, max_value=1.0))


def kernel_plane_tables(row, lengths, weights):
    """The package's (W, A, B, x1, x3) of a plane row, from its one stacked table build;
    the buffers start as NaN, so a cell the build leaves unwritten shows."""
    top = lengths[-1]
    spare, b = np.full((top + 1) * (2 * top + 3), np.nan), np.full((top + 1) * (2 * top + 1), np.nan)
    w, rows_a = analysis._plane_tables(spare, b, row, lengths, weights)
    a = np.zeros_like(b)
    analysis._vote_cells(a, 0, rows_a)
    return (
        w,
        a.reshape(top + 1, 2 * top + 1),
        b.reshape(top + 1, 2 * top + 1),
        analysis._log_ratios(row, 0, top),
        analysis._log_ratios(row, 2, top),
    )


@pytest.mark.parametrize("n_shots", [119, 500])
def test_the_plane_tables_are_three_binomial_rows_calls(n_shots):
    """The one stacked builder call per block gives, by .tobytes(), the rows of
    three _binomial_rows calls, one per table: the length rows times their
    weights in W, B's net votes and A's rows.  At N = 119 the three tables
    are one block, at N = 500 several."""
    row = bit_announcement_probs(random_kraus_channel(np.random.default_rng(77), 3)).probs_given_b[0]
    row = analysis._unit_rows(row)[0]
    pmf, lengths, _ = analysis._kept_lengths(n_shots, 0.5, 1e-12)
    top, weights = lengths[-1], pmf[lengths]
    assert (3 * (top + 1) ** 2 > analysis._PLANE_BLOCK_CELLS) == (n_shots == 500)
    w, a, b, _, _ = kernel_plane_tables(row, lengths, weights)
    log_factorials = analysis._log_factorials(top)
    n, i = np.tril_indices(top + 1)  # count n, cell i <= n
    for table, first in ((a, 0), (b, 2)):
        mass = row[first] + row[first + 1]
        logs = (analysis._log_weight(row[first] / mass), analysis._log_weight(row[first + 1] / mass))
        want = analysis._binomial_rows(0, top + 1, log_factorials, *logs)
        assert table[n, 2 * i - n + top].tobytes() == want[n, i].tobytes()
    assert lengths == list(range(lengths[0], top + 1))
    logs = (analysis._log_weight(row[0] + row[1]), analysis._log_weight(row[2] + row[3]))
    want = analysis._binomial_rows(lengths[0], top + 1, log_factorials, *logs) * weights[:, None]
    k, m = np.tril_indices(top + 1)  # length k, cell m <= k
    k, m = k[k >= lengths[0]], m[k >= lengths[0]]
    assert w[m, k - m].tobytes() == want[k - lengths[0], m].tobytes()


def assert_plane_is_its_tables(row, lengths, weights):
    """A plane row's tables, and its sum over them, equal the row-by-row oracle's bit for bit.

    The sum also lies within 1e-14 of the walk one step at a time.
    """
    got = analysis._plane_expectation(row, lengths, weights)
    kernel = kernel_plane_tables(row, lengths, weights)
    for table, want in zip(kernel, plane_tables_by_row(row, lengths, weights)):
        assert table.tobytes() == want.tobytes()
    assert got.hex() == plane_expectation_by_tables(row, lengths, weights).hex()
    walked = np.add.accumulate(mi_by_length_stepwise(row[None], lengths)[0] * weights)[-1]
    assert abs(got - walked) <= 1e-14


def assert_stepwise(block_cells, rows, n_shots, pa):
    """Every row reads, bit for bit, as its reference one step at a time.

    Rows are grouped by collapse pattern.  Each plane row is its contraction
    of tables built one row at a time, at the lengths that Bin(n_shots, pa)
    keeps, and lies within 1e-14 of the walk one step at a time; a row with
    no moving axis reads exactly 0; a line is its sum over the moving
    basis' count, one row and one count at a time, and at n_shots <= 120
    lies within its truncation bound of the exact sum.
    """
    moving = rows[:, ::2] != rows[:, 1::2]
    pattern = moving[:, 0] + 2 * moving[:, 1]
    pmf, lengths, _ = analysis._kept_lengths(n_shots, pa, 1e-12)
    with pytest.MonkeyPatch.context() as patch:
        if block_cells is not None:
            patch.setattr(analysis, "_BLOCK_CELLS", block_cells)
            patch.setattr(analysis, "_PLANE_BLOCK_CELLS", block_cells)
        for value in set(pattern.tolist()):
            group = rows[pattern == value]
            if value in (1, 2):
                mi, terms, truncation = analysis._line_expectation(group, n_shots, pa, 1e-12)
                want = line_expected_mi_stepwise(group, n_shots, pa, 1e-12)
                assert mi.tobytes() == np.array([w for w, _, _ in want]).tobytes()
                assert terms.tolist() == [w for _, w, _ in want]
                assert truncation.tolist() == [w for _, _, w in want]
                if n_shots <= 120:
                    exact = line_expected_mi_exact(group[0], n_shots, pa)
                    assert abs(mi[0] - exact) <= truncation[0] + 1e-14
            elif value == 3:
                for row in group:
                    assert_plane_is_its_tables(row, lengths, pmf[lengths])
            else:
                mi, terms, truncation = analysis._expected_mi_rows(group, n_shots, pa, 1e-12)
                assert mi.tobytes() == np.zeros(len(group)).tobytes()
                assert terms.tolist() == [0] * len(group)
                assert truncation.tobytes() == np.zeros(len(group)).tobytes()


@pytest.mark.parametrize("block_cells", [None, 1, 100])
@settings(max_examples=40, deadline=None)
@given(collapse_stacks([(0, 0), (1, 1)]))
@example(
    (
        np.array(
            [[float.fromhex(v) for v in ("0x1.4666666666666p-3", "0x1.2p-3", "0x1.7ccccccccccccp-2", "0x1.5p-2")]]
        ),
        210,
        0.875,
    )
)
def test_the_plane_is_its_contraction_by_tables(block_cells, stack):
    """The plane reads bit for bit as its tables built one row at a time, contracted
    the same way, and within 1e-14 of the walk one step at a time; rows with no
    moving axis read exactly 0.

    With the block sizes at 1 every vote table row and every column of Q is a
    block of its own; at 100 a few are.  The explicit row sums to 1 - 2^-54:
    the walk reads it scaled to sum to 1, as the plane does, and both lie
    within 5e-15 of that row's information; read with a mass of 1, the walk
    was 6.3e-15 off and the two were 1.02e-14 apart.
    """
    assert_stepwise(block_cells, *stack)


@pytest.mark.parametrize("block_cells", [None, 1, 100])
@settings(max_examples=40, deadline=None)
@given(collapse_stacks([(0, 1), (1, 0)]))
def test_a_line_is_its_stepwise_sum(block_cells, stack):
    """A line reads bit for bit as its sum over the moving basis' count, one count at a time.

    With ``_BLOCK_CELLS`` at 1 each count is a block of its own and the rows
    are evaluated one at a time; at 100 a line's counts and rows are cut
    into many blocks.
    """
    assert_stepwise(block_cells, *stack)


@st.composite
def line_distributions(draw):
    """A distribution with one tilted basis, sigma1 or sigma3, of either sign; the bases' masses differ."""
    m = draw(st.one_of(st.just(0.5), st.floats(min_value=0.05, max_value=0.95)))
    r = draw(
        st.one_of(
            st.sampled_from([1.0, -1.0, 0.999, -0.9973, 0.5, 1e-3]),
            st.floats(min_value=-1.0, max_value=1.0).filter(lambda r: abs(r) > 1e-6),
        )
    )
    tilted = (0.5 * m * (1 + r), 0.5 * m * (1 - r))
    flat = (0.5 * (1 - m), 0.5 * (1 - m))
    given_0 = tilted + flat if draw(st.booleans()) else flat + tilted
    return AnnouncementDistribution((given_0, (given_0[1], given_0[0], given_0[3], given_0[2])))


@settings(max_examples=60, deadline=None)
@given(line_distributions(), st.integers(min_value=1, max_value=120), unit)
@example(AnnouncementDistribution(((0.25, 0.25, 0.5, 0.0), (0.25, 0.25, 0.0, 0.5))), 120, 1.0)
def test_line_is_within_its_bound_of_the_exact_sum(dist, n, pa):
    got = expected_mutual_information(dist, n, pa)
    exact = line_expected_mi_exact(dist.probs_given_b[0], n, pa)
    assert 0.0 <= got.mi_bits <= 1.0
    assert abs(got.mi_bits - exact) <= got.truncation_mass + 1e-14


def announcement_distribution(given_0) -> AnnouncementDistribution:
    return AnnouncementDistribution((given_0, (given_0[1], given_0[0], given_0[3], given_0[2])))


@st.composite
def plane_distributions(draw):
    """A distribution with both bases tilted: a random Kraus channel's, or one drawn directly.

    A drawn one takes sigma1 mass m and tilts r1, r3 of either sign, with +-1
    (a symbol of zero weight) among the choices.
    """
    if draw(st.booleans()):
        seed = draw(st.integers(min_value=0, max_value=2**31))
        return bit_announcement_probs(random_kraus_channel(np.random.default_rng(seed), 3))
    m = draw(st.one_of(st.just(0.5), st.floats(min_value=0.05, max_value=0.95)))
    tilt = st.one_of(
        st.sampled_from([1.0, -1.0, 0.5, -0.9973]),
        st.floats(min_value=-1.0, max_value=1.0).filter(lambda r: abs(r) > 1e-6),
    )
    r1, r3 = draw(tilt), draw(tilt)
    return announcement_distribution(
        (0.5 * m * (1 + r1), 0.5 * m * (1 - r1), 0.5 * (1 - m) * (1 + r3), 0.5 * (1 - m) * (1 - r3))
    )


@settings(max_examples=40, deadline=None)
@given(plane_distributions(), st.integers(min_value=1, max_value=20), unit)
@example(announcement_distribution((0.5, 0.0, 0.3, 0.2)), 20, 1.0)
@example(announcement_distribution((0.0, 0.5, 0.5, 0.0)), 20, 0.5)
def test_plane_is_within_its_bound_of_the_exact_sum(dist, n, pa):
    """Expected MI on the plane, and the MI at one length (N = k, pa = 1), lie within
    their bounds of the exact sum over the basis counts."""
    got = expected_mutual_information(dist, n, pa)
    row = dist.probs_given_b[0]
    assert 0.0 <= got.mi_bits <= 1.0
    assert abs(got.mi_bits - plane_expected_mi_exact(row, n, pa)) <= got.truncation_mass + 1e-14
    at_length = mutual_information_k(dist, n)
    assert 0.0 <= at_length <= 1.0
    assert abs(at_length - plane_expected_mi_exact(row, n, 1.0)) <= 1e-14


@pytest.mark.parametrize("given_0", [(0.5, 0.0, 0.3, 0.2), (0.3, 0.2, 0.5, 0.0)])
def test_a_plane_with_a_zero_weight_symbol_warns_nothing_and_is_exact(given_0):
    """A symbol of zero weight makes rho 0 or infinite: log2(1 + rho^s) would form inf * 0
    at s = 0 and inf - inf between the bases, whatever the warning filters say."""
    dist = announcement_distribution(given_0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, pa in ((1, 0.5), (12, 0.3), (20, 1.0)):
            got = expected_mutual_information(dist, n, pa)
            exact = plane_expected_mi_exact(given_0, n, pa)
            assert abs(got.mi_bits - exact) <= got.truncation_mass + 1e-14
            at_length = plane_expected_mi_exact(given_0, n, 1.0)
            assert abs(mutual_information_k(dist, n) - at_length) <= 1e-14
        got = expected_mutual_information(dist, N_DEFAULT, 0.5)
        pmf, lengths, _ = analysis._kept_lengths(N_DEFAULT, 0.5, 1e-12)
        walk = mi_by_length_stepwise(analysis._unit_rows(given_0), lengths)[0]
        walked = np.add.accumulate(walk * pmf[lengths])[-1]
        assert abs(got.mi_bits - walked) <= 1e-14
        assert abs(mutual_information_k(dist, 200) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [1, 7, 20])
@pytest.mark.parametrize("pa", [0.05, 0.5, 1.0])
def test_the_exact_sum_meets_the_north_star_invariants(n, pa):
    """Unital channels leak exactly 0, x = 1 is the anchor 1 - (1 - pa/2)^N, and the
    damping family's mismatch is (1 + x - sqrt(1 - x))/4: from the exact sum and the package."""
    for ch in (identity_channel(), depolarizing_channel(0.3), dephasing_channel()):
        dist = bit_announcement_probs(ch)
        assert plane_expected_mi_exact(dist.probs_given_b[0], n, pa) == 0.0
        assert expected_mutual_information(dist, n, pa).mi_bits == 0.0
    anchor = 1.0 - (1.0 - pa / 2.0) ** n
    full = bit_announcement_probs(seal_channel(1.0))
    assert abs(plane_expected_mi_exact(full.probs_given_b[0], n, pa) - anchor) <= 1e-15
    got = expected_mutual_information(full, n, pa)
    assert abs(got.mi_bits - anchor) <= got.truncation_mass + 1e-14
    for x in (0.0, 0.3, 0.9, 1.0):
        want = (1.0 + x - math.sqrt(1.0 - x)) / 4.0
        assert abs(mismatch_probability(seal_channel(x)).matched_basis_conditional - want) <= 1e-12


def test_plane_memory_at_n1000():
    """At N = 1000, pa = 0.5 the plane's tables and block buffers are one buffer of
    about 2.07M cells (15.8 MiB) for the longest kept length 612; the peak
    stays under 20 MiB (the walk it replaced peaked at 20.5 MiB)."""
    dist = bit_announcement_probs(random_kraus_channel(np.random.default_rng(77), 3))
    assert analysis._kept_lengths(1000, 0.5, 1e-12)[1][-1] == 612
    tracemalloc.start()
    try:
        result = expected_mutual_information(dist, 1000, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= result.mi_bits <= 1.0
    assert peak <= 20 * 2**20


def test_plane_memory_at_n119_pa05():
    """At N = 119, pa = 0.5 (longest kept length 97, heavy's validate-channel) W and
    A's rows wait in the block buffers, and Q takes two of those: the call peaks at
    1,533,466 bytes with numpy 2.4, against 1,616,882 when W had a region of its
    own, Q three buffers and each table a builder call."""
    dist = bit_announcement_probs(random_kraus_channel(np.random.default_rng(77), 3))
    assert analysis._kept_lengths(119, 0.5, 1e-12)[1][-1] == 97
    tracemalloc.start()
    try:
        result = expected_mutual_information(dist, 119, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= result.mi_bits <= 1.0
    assert peak <= 1_616_882


def test_the_plane_refuses_tables_over_its_budget_before_building_them(monkeypatch):
    """Past the longest string length whose tables fit ``_PLANE_CELLS``, the plane raises
    ValueError naming the limit, before any table is built; a line is not limited."""
    top = analysis._PLANE_TOP
    assert (top + 1) * (2 * top + 1) <= analysis._PLANE_CELLS < (top + 2) * (2 * top + 3)
    assert analysis._kept_lengths(2000, 0.5, 1e-12)[1][-1] <= top  # N = 2000, pa = 0.5 fits

    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(analysis, "_binomial_rows", no_tables)
    dist = bit_announcement_probs(random_kraus_channel(np.random.default_rng(77), 3))
    limit = rf"over the limit of {analysis._PLANE_CELLS} \(string length {top}\)"
    with pytest.raises(ValueError, match=limit):
        mutual_information_k(dist, top + 1)
    with pytest.raises(ValueError, match=limit):
        expected_mutual_information(dist, 100_000, 0.5)
    assert seal_expected_mutual_information(0.5, 100_000, 0.5).mi_bits > 1.0 - 1e-12


@pytest.mark.parametrize("x", [0.99, 0.9973, 0.9999])
@pytest.mark.parametrize("pa", [0.05, 0.5])
def test_strong_damping_at_n300_is_within_its_bound_of_the_exact_sum(x, pa):
    """Near x = 1 the cells of tiny weight carry log terms of about |s| log2(a/c),
    so a cut on the weight alone would lose information here."""
    got = seal_expected_mutual_information(x, 300, pa)
    exact = line_expected_mi_exact(analysis._damping_rows([x])[0], 300, pa)
    assert abs(got.mi_bits - exact) <= got.truncation_mass + 1e-14
    assert got.truncation_mass <= analysis._kept_lengths(300, pa / 2, 1e-12)[2] + 1e-12


def test_the_saturation_stop_adds_its_bound():
    """At x = 0.9, N = 119, pa = 0.5, J comes within 1e-12 of 1 inside the
    kept counts: later counts use 1, and the bound on that joins the
    omitted mass."""
    got = seal_expected_mutual_information(0.9, N_DEFAULT, 0.5)
    omitted = analysis._kept_lengths(N_DEFAULT, 0.25, 1e-12)[2]
    assert omitted < got.truncation_mass <= omitted + 1e-12
    exact = line_expected_mi_exact(analysis._damping_rows([0.9])[0], N_DEFAULT, 0.5)
    assert abs(got.mi_bits - exact) <= got.truncation_mass + 1e-14


@pytest.mark.parametrize("r", [0.3, -0.3, 1.0, -1.0, 0.9973])
def test_a_sigma1_line_is_its_sigma3_mirror_and_either_sign(r):
    """Mirroring the bases, or flipping the tilt's sign, gives the same numbers bit for bit."""

    def dist(row):
        return AnnouncementDistribution((row, (row[1], row[0], row[3], row[2])))

    sigma3 = (0.3, 0.3, 0.2 * (1 + r), 0.2 * (1 - r))
    variants = [
        sigma3,
        (sigma3[2], sigma3[3], sigma3[0], sigma3[1]),
        (sigma3[0], sigma3[1], sigma3[3], sigma3[2]),
        (sigma3[3], sigma3[2], sigma3[0], sigma3[1]),
    ]
    for n, pa in ((119, 0.05), (119, 0.5), (300, 1.0)):
        results = [expected_mutual_information(dist(row), n, pa) for row in variants]
        assert all(result == results[0] for result in results)
        per_length = [mutual_information_k(dist(row), 40) for row in variants]
        assert all(value.hex() == per_length[0].hex() for value in per_length)


@pytest.mark.parametrize("pa", [0.0, 0.05, 0.5, 1.0])
def test_full_damping_is_exact_and_warns_nothing(pa):
    """x = 1 (c = 0) never forms 0 * log 0 or inf * 0, whatever the warning filters say."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 119, 800):
            anchor = 1.0 - (1.0 - pa / 2.0) ** n
            point = seal_expected_mutual_information(1.0, n, pa)
            assert abs(point.mi_bits - anchor) <= 1e-9
            assert point.truncation_mass <= 1e-12
            mi, terms, truncation = seal_expected_mutual_information_grid([0.5, 1.0], n, pa)
            assert MIResult(mi[1], terms[1], truncation[1]) == point
        # a string of 7 announcements hides the message only if none is in sigma3
        assert seal_mutual_information_k(1.0, 0) == 0.0
        assert seal_mutual_information_k(1.0, 7) == 1.0 - 0.5**7


def test_line_memory_is_flat_in_n():
    """A line at N = 4e4 holds the binomial weights over N and one block of
    counts, not every kept count's cells: about 1400 x 20000 cells (224 MB)
    uncut."""
    tracemalloc.start()
    try:
        result = seal_expected_mutual_information(0.5, 40_000, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.mi_bits > 1.0 - 2e-12
    assert peak <= 3 * 2**20


def test_grid_rejects_a_strength_outside_0_1():
    with pytest.raises(ValueError, match="damping strength"):
        seal_expected_mutual_information_grid([0.0, 1.5], N_DEFAULT, PA_DEFAULT)
    with pytest.raises(ValueError, match="announcement probability"):
        seal_expected_mutual_information_grid([0.0, 0.5], N_DEFAULT, 1.5)


def test_an_empty_grid_gives_empty_columns():
    mi, terms, truncation = seal_expected_mutual_information_grid([], N_DEFAULT, PA_DEFAULT)
    assert (mi.shape, terms.shape, truncation.shape) == ((0,), (0,), (0,))
    assert mi.dtype == truncation.dtype == np.float64
    assert np.issubdtype(terms.dtype, np.integer)
    per_shot, conditional = seal_mismatch_probability_grid([])
    assert (per_shot.shape, conditional.shape) == ((0,), (0,))
    assert per_shot.dtype == conditional.dtype == np.float64


@pytest.mark.parametrize("bad", [1.0 + 2e-12, -2e-12, math.nan])
def test_a_grid_value_outside_0_1_still_raises(monkeypatch, bad):
    """The column gets MIResult's check: a value more than 1e-12 outside
    [0, 1], or NaN, raises, and one within 1e-12 is clamped."""
    line = analysis._line_expectation

    def off_by(value):
        def patched(*args):
            mi, terms, truncation = line(*args)
            mi[-1] = value
            return mi, terms, truncation

        return patched

    monkeypatch.setattr(analysis, "_line_expectation", off_by(bad))
    with pytest.raises(ValueError, match=r"mutual information out of \[0, 1\]: "):
        seal_expected_mutual_information_grid([0.0, 0.25, 0.5], N_DEFAULT, PA_DEFAULT)
    with pytest.raises(ValueError, match=r"mutual information out of \[0, 1\]: "):
        seal_expected_mutual_information(0.25, N_DEFAULT, PA_DEFAULT)
    monkeypatch.setattr(analysis, "_line_expectation", off_by(1.0 + 1e-12))
    assert seal_expected_mutual_information_grid([0.25, 0.5], N_DEFAULT, PA_DEFAULT)[0][-1] == 1.0
    assert seal_expected_mutual_information(0.5, N_DEFAULT, PA_DEFAULT).mi_bits == 1.0


def _grid_peak_bytes(points: int) -> int:
    grid = [i / (points - 1) for i in range(points)]
    tracemalloc.start()
    try:
        mi, _, _ = seal_expected_mutual_information_grid(grid, N_DEFAULT, PA_DEFAULT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mi) == points
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
        per_shot, _ = seal_mismatch_probability_grid(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(per_shot) == points
    return peak


def test_mismatch_grid_memory_does_not_grow_with_the_grid():
    """The strengths' operators are stacked and evaluated in blocks: a grid of
    10001 points peaks at the memory of a 101-point one plus its own results
    and input (about 130 bytes a point); stacked all at once, its operator
    products alone would take over 10 MB."""
    assert _mismatch_grid_peak_bytes(10_001) <= _mismatch_grid_peak_bytes(101) + 2 * 2**20
