import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIRST_KEPT_STRENGTH,
    LAST_DROPPED_STRENGTH,
    bloch_vectors,
    density_matrices,
    random_density,
    random_kraus_channel,
)
from oracles import apply_coupling, coupling_unitary
from sealsim import qubit
from sealsim.qubit import (
    IDENTITY,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    ZERO_OPERATOR_TOL,
    BlochVector,
    DensityMatrix,
    KrausChannel,
    MeasurementBasis,
    MeasurementResult,
    ProtocolPureState,
    apply_channel,
    bloch_from_density,
    damping_stack,
    density_from_bloch,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    maximally_mixed,
    measurement_prob,
    preparation_images,
    seal_channel,
    state_density,
    state_vector,
    validate_channel,
)

STATES = list(ProtocolPureState)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)


def assert_density_invariants(m: np.ndarray):
    assert np.abs(m - m.conj().T).max() <= 1e-12
    assert abs(np.trace(m).real - 1.0) <= 1e-12
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() >= -1e-12


# ---------------------------------------------------------------------------
# States and Bloch coordinates
# ---------------------------------------------------------------------------


def test_protocol_states_are_pure():
    for s in STATES:
        rho = state_density(s).matrix
        assert_density_invariants(rho)
        # rank one: rho^2 == rho
        assert np.abs(rho @ rho - rho).max() <= 1e-12
        vec = state_vector(s)
        assert np.abs(np.outer(vec, vec.conj()) - rho).max() <= 1e-12


def test_protocol_states_mix_to_maximally_mixed_exactly():
    mix = sum(state_density(s).matrix for s in STATES) / 4.0
    assert np.array_equal(mix, maximally_mixed().matrix)


def test_density_from_bloch_endpoints():
    assert np.array_equal(
        density_from_bloch(BlochVector(0.0, (0.0, 0.0, 1.0))).matrix, 0.5 * IDENTITY
    )
    north = density_from_bloch(BlochVector(1.0, (0.0, 0.0, 1.0)))
    assert np.abs(north.matrix - KET0).max() <= 1e-12


def test_density_from_bloch_partial_z():
    x = 0.4
    rho = density_from_bloch(BlochVector(x, (0.0, 0.0, 1.0)))
    expected = 0.5 * ((1 + x) * KET0 + (1 - x) * KET1)
    assert np.abs(rho.matrix - expected).max() <= 1e-12


def test_bloch_vector_rejects_bad_inputs():
    with pytest.raises(ValueError):
        BlochVector(1.5, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        BlochVector(-0.2, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        BlochVector(0.5, (1.0, 1.0, 0.0))


def test_bloch_zero_radius_canonical_direction():
    b = BlochVector(0.0, (0.3, 0.4, 0.5))
    assert b.v == (0.0, 0.0, 1.0)
    assert bloch_from_density(maximally_mixed()) == BlochVector(0.0, (0.0, 0.0, 1.0))


def test_bloch_from_density_examples():
    plus = bloch_from_density(state_density(ProtocolPureState.PLUS))
    assert abs(plus.lam - 1.0) <= 1e-12
    assert np.abs(np.array(plus.v) - (1.0, 0.0, 0.0)).max() <= 1e-12

    # oracle: read the coordinates straight off Tr(sigma_j rho)
    x = 0.4
    rho = DensityMatrix(0.5 * ((1 + x) * KET0 + (1 - x) * KET1))
    expected = [np.trace(s @ rho.matrix).real for s in (SIGMA_1, SIGMA_2, SIGMA_3)]
    got = bloch_from_density(rho)
    assert abs(got.lam - np.linalg.norm(expected)) <= 1e-12
    assert np.abs(got.lam * np.array(got.v) - expected).max() <= 1e-12


@given(density_matrices())
def test_bloch_round_trip(rho):
    back = density_from_bloch(bloch_from_density(rho))
    assert np.abs(back.matrix - rho.matrix).max() <= 1e-12


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.8, 0.0], [0.0, 0.8]]))  # trace 1.6
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


def test_identity_channel_fixes_everything():
    ch = identity_channel()
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(rng)
        assert np.abs(apply_channel(ch, rho).matrix - rho.matrix).max() <= 1e-12


@pytest.mark.parametrize("x", np.linspace(0.0, 1.0, 21))
def test_seal_channel_state_maps(x):
    ch = seal_channel(x)
    one = apply_channel(ch, state_density(ProtocolPureState.ONE)).matrix
    assert np.abs(one - (x * KET0 + (1 - x) * KET1)).max() <= 1e-12

    off = np.array([[0, 1], [1, 0]], dtype=complex)
    plus = apply_channel(ch, state_density(ProtocolPureState.PLUS)).matrix
    expected_plus = 0.5 * ((1 + x) * KET0 + (1 - x) * KET1 + math.sqrt(1 - x) * off)
    assert np.abs(plus - expected_plus).max() <= 1e-12

    minus = apply_channel(ch, state_density(ProtocolPureState.MINUS)).matrix
    expected_minus = 0.5 * ((1 + x) * KET0 + (1 - x) * KET1 - math.sqrt(1 - x) * off)
    assert np.abs(minus - expected_minus).max() <= 1e-12

    zero = apply_channel(ch, state_density(ProtocolPureState.ZERO)).matrix
    assert np.abs(zero - KET0).max() <= 1e-12

    mixed = apply_channel(ch, maximally_mixed()).matrix
    assert np.abs(mixed - 0.5 * (IDENTITY + x * SIGMA_3)).max() <= 1e-12


@pytest.mark.parametrize("x", np.linspace(0.0, 1.0, 21))
def test_seal_channel_complete(x):
    report = validate_channel(seal_channel(x))
    assert report.passes
    assert report.deviation <= 1e-14


def test_seal_channel_endpoints():
    assert len(seal_channel(0.0).operators) == 1  # zero operator dropped
    full = seal_channel(1.0)
    for s in STATES:
        out = apply_channel(full, state_density(s)).matrix
        assert np.abs(out - KET0).max() <= 1e-12
    with pytest.raises(ValueError):
        seal_channel(1.2)
    with pytest.raises(ValueError):
        seal_channel(-0.1)


def test_seal_channel_drops_its_second_operator_up_to_the_zero_operator_tolerance():
    assert len(seal_channel(LAST_DROPPED_STRENGTH).operators) == 1
    assert len(seal_channel(FIRST_KEPT_STRENGTH).operators) == 2


def test_damping_stack_rows_are_the_seal_channels():
    """Each row holds the channel's kept operators, then zeros for a dropped one."""
    xs = [0.0, -0.0, 5e-324, 1e-30, LAST_DROPPED_STRENGTH, FIRST_KEPT_STRENGTH, 1e-16, 0.5, 1.0]
    stack = damping_stack(xs)
    assert stack.shape == (len(xs), 2, 2, 2) and not stack.flags.writeable
    for x, row in zip(xs, stack):
        kept = seal_channel(x).stack
        assert row[: len(kept)].tobytes() == kept.tobytes()
        assert not row[len(kept) :].any()
    assert damping_stack([]).shape == (0, 2, 2, 2)


@pytest.mark.parametrize("x", [-0.1, 1.5, math.nan, -math.inf])
def test_damping_stack_rejects_a_strength_outside_0_1(x):
    for call in (lambda: damping_stack([0.5, x, 2.0]), lambda: seal_channel(x)):
        with pytest.raises(ValueError, match=f"damping strength must lie in \\[0, 1\\], got {x}"):
            call()


def test_seal_channel_matches_coupling_oracle():
    rng = np.random.default_rng(5)
    extra = [random_density(rng).matrix for _ in range(3)]
    for x in (0.0, 0.25, 0.36, 0.8, 1.0):
        ch = seal_channel(x)
        for completion in (0, 1):
            u = coupling_unitary(x, completion)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
            inputs = [state_density(s).matrix for s in STATES]
            inputs.append(maximally_mixed().matrix)
            inputs.extend(extra)
            for rho in inputs:
                via_kraus = apply_channel(ch, DensityMatrix(rho)).matrix
                via_coupling = apply_coupling(x, rho, completion)
                assert np.abs(via_kraus - via_coupling).max() <= 1e-12


def test_two_completions_are_distinct_unitaries():
    u0 = coupling_unitary(0.5, 0)
    u1 = coupling_unitary(0.5, 1)
    assert np.abs(u0 - u1).max() > 0.1


def test_validate_channel_reports():
    ok = validate_channel(identity_channel())
    assert ok.passes and ok.deviation == 0.0 and ok.unital
    assert ok.chaotic_image.lam == 0.0

    bad = validate_channel(KrausChannel((np.diag([1.0, 0.5]),), label="incomplete"))
    assert not bad.passes
    assert abs(bad.deviation - 0.75) <= 1e-15
    assert bad.chaotic_image is None and not bad.unital and bad.born is None

    # finite entries whose products overflow: inf, where the norm of nan - nan was nan
    for entry in (1e308, 1e160j, 1e100):
        huge = validate_channel(KrausChannel((np.diag([entry, 1.0]),), label="huge"))
        assert huge.deviation == math.inf and not huge.passes and huge.born is None

    seal = validate_channel(seal_channel(0.36))
    assert seal.passes and not seal.unital
    assert seal.born.shape == (4, 2, 2) and not seal.born.flags.writeable
    assert abs(seal.chaotic_image.lam - 0.36) <= 1e-12
    assert np.abs(np.array(seal.chaotic_image.v) - (0.0, 0.0, 1.0)).max() <= 1e-12


@settings(max_examples=200)
@given(
    st.one_of(
        st.sampled_from(
            [
                identity_channel(),
                seal_channel(0.36),
                seal_channel(1.0),
                depolarizing_channel(0.6),
                dephasing_channel(),
            ]
        ),
        st.builds(
            lambda seed, n_ops: random_kraus_channel(np.random.default_rng(seed), n_ops),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=1, max_value=4),
        ),
    )
)
def test_the_chaotic_image_is_bloch_from_density_of_the_normalized_image(channel):
    """validate_channel reads (lam, v) from the normalized image of I/2 with no
    DensityMatrix; field by field they are the floats bloch_from_density gives on a
    DensityMatrix of that image, whose checks the image passes."""
    image = qubit._operator_sum(channel.stack, maximally_mixed().matrix)
    want = bloch_from_density(DensityMatrix(image / (image[0, 0].real + image[1, 1].real)))
    got = validate_channel(channel).chaotic_image
    assert [got.lam.hex(), *(c.hex() for c in got.v)] == [want.lam.hex(), *(c.hex() for c in want.v)]


@pytest.mark.parametrize("scale", [1.0 + 3e-11, 1.0 - 3e-11])
def test_validate_channel_reports_a_channel_complete_within_the_gate(scale):
    """The image of I/2 is normalized, so a trace off by the channel's
    deviation gets a report instead of a DensityMatrix error."""
    scaled = validate_channel(KrausChannel((scale * IDENTITY,), label="scaled"))
    assert scaled.passes and 5e-11 < scaled.deviation <= 1e-10
    assert scaled.unital and scaled.chaotic_image.lam == 0.0

    reset = KrausChannel((scale * np.diag([1.0, 0.0]), scale * np.array([[0.0, 1.0], [0.0, 0.0]])))
    report = validate_channel(reset)
    assert report.passes and not report.unital
    assert abs(report.chaotic_image.lam - 1.0) <= 1e-15
    assert report.chaotic_image.v == (0.0, 0.0, 1.0)


def test_apply_channel_rejects_incomplete_set():
    with pytest.raises(ValueError):
        apply_channel(KrausChannel((np.diag([1.0, 0.5]),)), maximally_mixed())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_preparation_images_equal_apply_channel(seed):
    ch = random_kraus_channel(np.random.default_rng(seed), 3)
    images = preparation_images(ch)
    assert list(images) == list(ProtocolPureState)
    for s, image in images.items():
        assert np.array_equal(image.matrix, apply_channel(ch, state_density(s)).matrix)


def test_preparation_images_reject_incomplete_set_like_apply_channel():
    half = KrausChannel((np.diag([1.0, 0.5]),), label="half")
    message = r"channel 'half' fails completeness \(deviation 7.500e-01\)"
    for call in (lambda: preparation_images(half), lambda: apply_channel(half, maximally_mixed())):
        with pytest.raises(ValueError, match=message):
            call()


def test_kraus_channel_construction():
    ch = KrausChannel((IDENTITY, 1e-16 * IDENTITY))
    assert len(ch.operators) == 1
    with pytest.raises(ValueError, match=r"^a channel needs at least one non-zero Kraus operator$"):
        KrausChannel((np.zeros((2, 2)), 1e-16 * IDENTITY))
    with pytest.raises(ValueError, match=r"^expected a \(2, 2\) array, got shape \(3, 3\)$"):
        KrausChannel((np.eye(3),))
    with pytest.raises(ValueError, match=r"^entries must be finite$"):
        KrausChannel((np.array([[np.inf, 0], [0, 1]]),))
    with pytest.raises(ValueError, match=r"^entries must be finite$"):
        KrausChannel((IDENTITY, np.array([[0, 0], [1j * np.nan, 0]])))


def test_kraus_channel_reports_the_first_operator_that_is_not_2x2():
    """Operators of mixed shapes cannot form one array; the message names
    the first one that is not 2x2, and a non-finite operator before it
    is reported first, as each operator is checked in order."""
    message = r"^expected a \(2, 2\) array, got shape \(3, 3\)$"
    three = np.eye(3)
    for operators in [(IDENTITY, three), (three, IDENTITY), (IDENTITY, three, np.eye(4))]:
        with pytest.raises(ValueError, match=message):
            KrausChannel(operators)
    with pytest.raises(ValueError, match=r"^expected a \(2, 2\) array, got shape \(2, 3\)$"):
        KrausChannel((IDENTITY, np.ones((2, 3))))
    with pytest.raises(ValueError, match=r"^entries must be finite$"):
        KrausChannel((np.array([[np.nan, 0], [0, 1]]), np.eye(3)))


@pytest.mark.parametrize("part", [1.0, 1j])
def test_kraus_channel_drops_operators_at_or_below_the_zero_operator_tolerance(part):
    """An operator is kept when its Frobenius norm exceeds ZERO_OPERATOR_TOL,
    whether its entries are real or imaginary and however they are spread."""
    spread = np.array([[1.0, 1.0], [1.0, 1.0]]) / 2.0  # Frobenius norm 1
    for shape in (np.diag([1.0, 0.0]), spread):
        below = (1.0 - 1e-9) * ZERO_OPERATOR_TOL * part * shape
        above = (1.0 + 1e-9) * ZERO_OPERATOR_TOL * part * shape
        assert KrausChannel((IDENTITY, below)).stack.shape == (1, 2, 2)
        kept = KrausChannel((IDENTITY, above, below)).stack
        assert kept.shape == (2, 2, 2) and np.array_equal(kept[1], above)
        with pytest.raises(ValueError, match=r"^a channel needs at least one non-zero"):
            KrausChannel((below, below))


def test_kraus_channel_keeps_one_read_only_stack():
    ch = random_kraus_channel(np.random.default_rng(2), 3)
    assert ch.stack.shape == (3, 2, 2) and not ch.stack.flags.writeable
    for op, row in zip(ch.operators, ch.stack):
        assert np.array_equal(op, row) and not op.flags.writeable
    with pytest.raises(ValueError):
        ch.stack[0, 0, 0] = 2.0
    assert seal_channel(0.0).stack.shape == (1, 2, 2)  # zero operator dropped
    assert "stack" not in repr(ch)
    source = np.array(ch.stack)  # a writable (m, 2, 2) array is copied, not kept
    copied = KrausChannel(source)
    source[0, 0, 0] = 5.0
    assert copied.stack.tobytes() == ch.stack.tobytes() and not copied.stack.flags.writeable


def test_depolarizing_channel():
    assert np.abs(
        apply_channel(depolarizing_channel(1.0), state_density(ProtocolPureState.PLUS)).matrix
        - 0.5 * IDENTITY
    ).max() <= 1e-12
    for p in (0.0, 0.3, 0.7, 1.0):
        report = validate_channel(depolarizing_channel(p))
        assert report.passes and report.unital
        assert report.chaotic_image.lam == 0.0
    rng = np.random.default_rng(3)
    rho = random_density(rng)
    p = 0.43
    out = apply_channel(depolarizing_channel(p), rho).matrix
    assert np.abs(out - ((1 - p) * rho.matrix + (p / 2) * IDENTITY)).max() <= 1e-12
    with pytest.raises(ValueError):
        depolarizing_channel(1.01)


def test_dephasing_channel():
    ch = dephasing_channel()
    assert np.abs(
        apply_channel(ch, state_density(ProtocolPureState.PLUS)).matrix - 0.5 * IDENTITY
    ).max() <= 1e-12
    zero = state_density(ProtocolPureState.ZERO)
    assert np.abs(apply_channel(ch, zero).matrix - zero.matrix).max() <= 1e-12
    assert validate_channel(ch).unital


def test_cptp_closure_randomized():
    rng = np.random.default_rng(2024)
    channels = [
        identity_channel(),
        seal_channel(0.37),
        seal_channel(1.0),
        depolarizing_channel(0.6),
        dephasing_channel(),
        random_kraus_channel(rng, 2),
        random_kraus_channel(rng, 4),
    ]
    for _ in range(1000):
        rho = random_density(rng)
        ch = channels[rng.integers(len(channels))]
        assert_density_invariants(apply_channel(ch, rho).matrix)


@settings(max_examples=60)
@given(
    density_matrices(),
    density_matrices(),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_convex_linearity(rho1, rho2, p, seed):
    ch = random_kraus_channel(np.random.default_rng(seed), 3)
    mixed = DensityMatrix(p * rho1.matrix + (1 - p) * rho2.matrix)
    lhs = apply_channel(ch, mixed).matrix
    rhs = p * apply_channel(ch, rho1).matrix + (1 - p) * apply_channel(ch, rho2).matrix
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_pure_image_rigidity():
    # channels that send the maximally mixed state to a pure state must send
    # every input there
    rng = np.random.default_rng(7)
    targets = [seal_channel(1.0)]
    for _ in range(5):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        targets.append(
            KrausChannel((np.outer(vec, [1, 0]), np.outer(vec, [0, 1])), label="replace")
        )
    for ch in targets:
        report = validate_channel(ch)
        assert report.passes
        assert report.chaotic_image.lam >= 1.0 - 1e-12
        image = apply_channel(ch, maximally_mixed()).matrix
        for s in STATES:
            assert np.abs(apply_channel(ch, state_density(s)).matrix - image).max() <= 1e-10


# ---------------------------------------------------------------------------
# Born rule
# ---------------------------------------------------------------------------


def test_measurement_prob_examples():
    half = maximally_mixed()
    assert measurement_prob(half, MeasurementBasis.SIGMA1, MeasurementResult.PLUS) == 0.5
    plus = state_density(ProtocolPureState.PLUS)
    assert abs(measurement_prob(plus, MeasurementBasis.SIGMA1, MeasurementResult.PLUS) - 1.0) <= 1e-12

    # oracle: literal trace of the projector against the evolved state
    x = 0.75
    rho = apply_channel(seal_channel(x), plus)
    expected = np.trace(0.5 * (IDENTITY - SIGMA_1) @ rho.matrix).real
    got = measurement_prob(rho, MeasurementBasis.SIGMA1, MeasurementResult.MINUS)
    assert abs(got - expected) <= 1e-15
    assert abs(got - 0.25) <= 1e-12


@given(density_matrices(), st.sampled_from(list(MeasurementBasis)))
def test_born_normalization(rho, basis):
    total = measurement_prob(rho, basis, MeasurementResult.PLUS) + measurement_prob(
        rho, basis, MeasurementResult.MINUS
    )
    assert abs(total - 1.0) <= 1e-12
    for m in MeasurementResult:
        p = measurement_prob(rho, basis, m)
        assert 0.0 <= p <= 1.0


def test_sigma2_consistency():
    assert np.array_equal(1j * SIGMA_1 @ SIGMA_3, SIGMA_2)
