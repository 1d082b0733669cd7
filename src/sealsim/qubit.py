"""Exact two-level state and channel arithmetic.

Density matrices, Bloch-vector coordinates, Kraus-operator channels, and
Born-rule probabilities for the two measurement observables used by the
sealed-message protocol, plus the builtin channel families (identity,
seal damping, depolarizing, dephasing).

A channel keeps its Kraus operators as one read-only (m, 2, 2) array, and
the channel algebra works on stacks: completeness, the images of the four
preparation states and the Born table of every (preparation, basis,
result) cell each take a few array calls over that array, in the same
order of operations as mapping one state at a time, so the numbers agree
bit for bit.  The Born table builds no ``DensityMatrix``; the functions
that return density matrices still validate each one.  The damping
family's operators are written once, as a stack for any number of
strengths (``damping_stack``), and ``born_cells`` evaluates chosen Born
cells of many stacks at once.

All values are immutable after construction and every function is pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

# Tolerance for exact algebraic identities (hermiticity, trace, round trips).
ALGEBRAIC_TOL = 1e-12
# Completeness of a Kraus set accumulates float error across operator sums,
# so it gets a looser gate.
COMPLETENESS_TOL = 1e-10
# Kraus operators below this Frobenius norm carry no amplitude and are dropped.
ZERO_OPERATOR_TOL = 1e-14
# Bloch radii at or below this are treated as the maximally mixed state.
_BLOCH_ZERO_TOL = 1e-15

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class ProtocolPureState(enum.Enum):
    """The four preparation states: sigma3 eigenstates and sigma1 eigenstates."""

    ZERO = "0"
    ONE = "1"
    PLUS = "+"
    MINUS = "-"


class MeasurementBasis(enum.Enum):
    SIGMA1 = "sigma1"
    SIGMA3 = "sigma3"


class MeasurementResult(enum.IntEnum):
    PLUS = 1
    MINUS = -1


# Entries written out exactly so that mixing the four states reproduces the
# maximally mixed state with no rounding at all.
_STATE_MATRICES = {
    ProtocolPureState.ZERO: np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    ProtocolPureState.ONE: np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    ProtocolPureState.PLUS: np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    ProtocolPureState.MINUS: np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
}

_STATE_VECTORS = {
    ProtocolPureState.ZERO: np.array([1.0, 0.0], dtype=complex),
    ProtocolPureState.ONE: np.array([0.0, 1.0], dtype=complex),
    ProtocolPureState.PLUS: np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex),
    ProtocolPureState.MINUS: np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex),
}

_BASIS_MATRICES = {
    MeasurementBasis.SIGMA1: SIGMA_1,
    MeasurementBasis.SIGMA3: SIGMA_3,
}

# The four preparation states stacked in ProtocolPureState order.
_STATE_STACK = np.array([_STATE_MATRICES[s] for s in ProtocolPureState])
# I + m*sigma for each basis (MeasurementBasis order) and result
# (MeasurementResult order: +1, then -1); Pr(m | basis) is half its trace
# against the state.
_BORN_OPERATORS = np.array(
    [[IDENTITY + int(m) * _BASIS_MATRICES[b] for m in MeasurementResult] for b in MeasurementBasis]
)


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected a {shape} array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("entries must be finite")
    arr.setflags(write=False)
    return arr


def _hermitian_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian matrix from the closed-form quadratic."""
    tr = m[0, 0].real + m[1, 1].real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = max(tr * tr - 4.0 * det, 0.0)
    root = math.sqrt(disc)
    return 0.5 * (tr - root), 0.5 * (tr + root)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A 2x2 Hermitian, trace-one, positive-semidefinite matrix.

    Equality is identity; compare contents via the ``matrix`` field.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_array(self.matrix, (2, 2))
        if np.abs(m - m.conj().T).max() > ALGEBRAIC_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(m[0, 0].real + m[1, 1].real - 1.0) > ALGEBRAIC_TOL:
            raise ValueError("density matrix must have unit trace")
        low, _ = _hermitian_eigenvalues(m)
        if low < -ALGEBRAIC_TOL:
            raise ValueError(f"density matrix must be positive semidefinite (eigenvalue {low})")
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None):
        return self.matrix if dtype is None else self.matrix.astype(dtype)


@dataclass(frozen=True)
class BlochVector:
    """Polar Bloch coordinates (radius ``lam`` in [0, 1], unit direction ``v``).

    A radius of zero means the maximally mixed state; its direction is
    meaningless and is canonicalized to (0, 0, 1).
    """

    lam: float
    v: tuple[float, float, float]

    def __post_init__(self):
        lam = float(self.lam)
        if not math.isfinite(lam) or lam < -ALGEBRAIC_TOL or lam > 1.0 + ALGEBRAIC_TOL:
            raise ValueError(f"Bloch radius must lie in [0, 1], got {lam}")
        lam = min(max(lam, 0.0), 1.0)
        if lam <= _BLOCH_ZERO_TOL:
            lam = 0.0
            v = (0.0, 0.0, 1.0)
        else:
            v = tuple(float(c) for c in self.v)
            if len(v) != 3 or not all(math.isfinite(c) for c in v):
                raise ValueError("direction must be a finite 3-vector")
            if abs(v[0] * v[0] + v[1] * v[1] + v[2] * v[2] - 1.0) > ALGEBRAIC_TOL:
                raise ValueError("direction must be a unit vector")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel given by 2x2 Kraus operators {E_i}.

    Construction checks shape and finiteness and silently drops operators of
    negligible Frobenius norm; completeness (sum of E_i^dag E_i equal to the
    identity) is the job of :func:`validate_channel`.  ``stack`` holds the
    kept operators as one read-only (m, 2, 2) array, and ``operators`` are
    views of its rows.
    """

    operators: tuple[np.ndarray, ...]
    label: str = ""
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = []
        for op in self.operators:
            arr = _frozen_array(op, (2, 2))
            if np.linalg.norm(arr) > ZERO_OPERATOR_TOL:
                ops.append(arr)
        if not ops:
            raise ValueError("a channel needs at least one non-zero Kraus operator")
        stack = np.array(ops)
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "operators", tuple(stack))
        object.__setattr__(self, "label", str(self.label))


@dataclass(frozen=True)
class ChannelValidation:
    """Completeness report for a Kraus set.

    ``deviation`` is the Frobenius norm of (sum E_i^dag E_i - I).  The Bloch
    image of the maximally mixed state and the unitality flag are only
    meaningful for complete sets; ``chaotic_image`` is None otherwise.
    """

    deviation: float
    passes: bool
    chaotic_image: BlochVector | None
    unital: bool


def state_density(state: ProtocolPureState) -> DensityMatrix:
    """Density matrix of one of the four preparation states."""
    return DensityMatrix(_STATE_MATRICES[state])


def state_vector(state: ProtocolPureState) -> np.ndarray:
    """Ket of one of the four preparation states, as a length-2 array."""
    return _STATE_VECTORS[state].copy()


def maximally_mixed() -> DensityMatrix:
    """The chaotic state I/2: what the particle looks like to an outsider."""
    return DensityMatrix(0.5 * IDENTITY)


def basis_matrix(basis: MeasurementBasis) -> np.ndarray:
    return _BASIS_MATRICES[basis]


def density_from_bloch(b: BlochVector) -> DensityMatrix:
    """Build rho = (I + lam * (v1 s1 + v2 s2 + v3 s3)) / 2."""
    v1, v2, v3 = b.v
    m = 0.5 * (IDENTITY + b.lam * (v1 * SIGMA_1 + v2 * SIGMA_2 + v3 * SIGMA_3))
    return DensityMatrix(m)


def bloch_from_density(rho: DensityMatrix) -> BlochVector:
    """Invert the Pauli expansion: lam * v_j = Tr(sigma_j rho)."""
    m = rho.matrix
    r1 = (m[0, 1] + m[1, 0]).real
    r2 = (1.0j * (m[0, 1] - m[1, 0])).real
    r3 = (m[0, 0] - m[1, 1]).real
    lam = math.sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    if lam <= _BLOCH_ZERO_TOL:
        return BlochVector(0.0, (0.0, 0.0, 1.0))
    return BlochVector(lam, (r1 / lam, r2 / lam, r3 / lam))


def _operator_sum(stacks: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_i E_i rho E_i^dag for each stack (..., m, 2, 2) and each rho of ``states``.

    ``states`` is one (2, 2) matrix or a (4, 2, 2) stack of them.  The terms
    are added in operator order, as a loop over the operators would add them.
    """
    extra = states.ndim - 2
    ops = stacks[(..., slice(None)) + (None,) * extra + (slice(None), slice(None))]
    return (ops @ states @ ops.conj().swapaxes(-1, -2)).sum(axis=-3 - extra)


def _completeness_error(stacks: np.ndarray) -> np.ndarray:
    """sum_i E_i^dag E_i - I for each (..., m, 2, 2) operator stack."""
    return (stacks.conj().swapaxes(-1, -2) @ stacks).sum(axis=-3) - IDENTITY


def validate_channel(ch: KrausChannel) -> ChannelValidation:
    """Report on completeness and on the image of the maximally mixed state.

    Never raises for finite inputs.  The unitality flag is True when the
    channel fixes the maximally mixed state (zero Bloch radius of the image
    up to the completeness tolerance).
    """
    deviation = float(np.linalg.norm(_completeness_error(ch.stack)))
    passes = deviation <= COMPLETENESS_TOL
    if not passes:
        return ChannelValidation(deviation, False, None, False)
    # a channel within the gate may scale the trace by up to about 1e-10,
    # beyond DensityMatrix's tolerance, so the image is normalized
    image = _operator_sum(ch.stack, 0.5 * IDENTITY)
    image /= image[0, 0].real + image[1, 1].real
    bloch = bloch_from_density(DensityMatrix(image))
    return ChannelValidation(deviation, True, bloch, bloch.lam <= COMPLETENESS_TOL)


def _incomplete(label: str, deviation: float) -> ValueError:
    return ValueError(f"channel {label!r} fails completeness (deviation {deviation:.3e})")


def require_complete(ch: KrausChannel, report: ChannelValidation | None = None) -> None:
    """Raise unless ``ch`` is complete; ``report``, when given, is its :func:`validate_channel`."""
    if report is None:
        report = validate_channel(ch)
    if not report.passes:
        raise _incomplete(ch.label, report.deviation)


def _map_states(stacks: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The operator sum of each state, re-hermitized and trace-normalized."""
    out = _operator_sum(stacks, states)
    out = 0.5 * (out + out.conj().swapaxes(-1, -2))
    out /= (out[..., 0, 0].real + out[..., 1, 1].real)[..., None, None]
    return out


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Map rho through the channel: sum_i E_i rho E_i^dag.

    The result is re-hermitized and trace-normalized, which only moves
    entries at the scale of the channel's completeness deviation.
    """
    require_complete(ch)
    return DensityMatrix(_map_states(ch.stack, rho.matrix))


def preparation_images(ch: KrausChannel) -> dict[ProtocolPureState, DensityMatrix]:
    """The channel's images of the four preparation states.

    Equal to :func:`apply_channel` on each state, but the channel is
    validated once for all four.
    """
    require_complete(ch)
    images = _map_states(ch.stack, _STATE_STACK)
    return {s: DensityMatrix(image) for s, image in zip(ProtocolPureState, images)}


def measurement_prob(
    rho: DensityMatrix, basis: MeasurementBasis, m: MeasurementResult
) -> float:
    """Born rule Pr(m | basis) = Tr((I + m*sigma) rho / 2)."""
    sigma = _BASIS_MATRICES[basis]
    p = float((0.5 * np.trace((IDENTITY + int(m) * sigma) @ rho.matrix)).real)
    return min(max(p, 0.0), 1.0)


def _born_probabilities(operators: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Half the trace of each Born operator times its image, clamped to [0, 1]."""
    probs = (0.5 * np.trace(operators @ images, axis1=-2, axis2=-1)).real
    # clamped as measurement_prob's min(max(p, 0.0), 1.0), which keeps -0.0 and NaN
    probs = np.where(probs < 0.0, 0.0, probs)
    return np.where(probs > 1.0, 1.0, probs)


def _born(stacks: np.ndarray) -> np.ndarray:
    """The (..., 4, 2, 2) Born tables of complete (..., m, 2, 2) operator stacks."""
    images = _map_states(stacks, _STATE_STACK)[..., None, None, :, :]
    return _born_probabilities(_BORN_OPERATORS, images)


def born_table(ch: KrausChannel, report: ChannelValidation | None = None) -> np.ndarray:
    """Pr(result | basis) on the channel's image of each preparation state.

    A read-only (4, 2, 2) array indexed by preparation (ProtocolPureState
    order), basis (MeasurementBasis order) and result (+1, then -1).  Each
    entry is the float that :func:`measurement_prob` gives on the matching
    :func:`preparation_images` entry.  The channel is validated once, or
    not at all when the caller passes its :func:`validate_channel` report.
    """
    require_complete(ch, report)
    table = _born(ch.stack)
    table.setflags(write=False)
    return table


def born_cells(stacks: np.ndarray, cells) -> np.ndarray:
    """Chosen cells of the Born tables of complete (..., m, 2, 2) operator stacks.

    ``cells`` are (preparation, basis, result) indices of :func:`born_table`;
    the result is a (..., len(cells)) array whose entries are the floats
    that :func:`born_table` holds in those cells.  Only the cells'
    preparation states are mapped, and only their Born products formed.
    The stacks are not validated.
    """
    prep, basis, result = np.array(cells).T
    images = _map_states(stacks, _STATE_STACK[prep])
    return _born_probabilities(_BORN_OPERATORS[basis, result], images)


def identity_channel() -> KrausChannel:
    return KrausChannel((IDENTITY,), label="identity")


def damping_stack(xs) -> np.ndarray:
    """Kraus operators of the damping family at each strength of ``xs``.

    A read-only (P, 2, 2, 2) array of {diag(1, sqrt(1-x)), sqrt(x)|0><1|}
    per strength.  An e1 that :class:`KrausChannel` would drop (Frobenius
    norm at most ``ZERO_OPERATOR_TOL``, so x up to about 1e-28) is zero, so
    it adds exact zeros to every operator sum.  Raises for a strength
    outside [0, 1] (NaN included) and, with :func:`born_table`'s message,
    for a stack that fails the completeness gate.
    """
    xs = np.asarray(xs, dtype=float)
    outside = ~((xs >= 0.0) & (xs <= 1.0))
    if outside.any():
        raise ValueError(f"damping strength must lie in [0, 1], got {float(xs[outside][0])}")
    stack = np.zeros((len(xs), 2, 2, 2), dtype=complex)
    stack[:, 0, 0, 0] = 1.0
    stack[:, 0, 1, 1] = np.sqrt(1.0 - xs)
    stack[:, 1, 0, 1] = np.sqrt(xs)
    dropped = np.linalg.norm(stack[:, 1], axis=(-2, -1)) <= ZERO_OPERATOR_TOL
    stack[dropped, 1] = 0.0
    deviation = np.linalg.norm(_completeness_error(stack), axis=(-2, -1))
    failed = np.flatnonzero(~(deviation <= COMPLETENESS_TOL))
    if failed.size:
        first = failed[0]
        raise _incomplete(f"seal(x={xs[first]:g})", deviation[first])
    stack.setflags(write=False)
    return stack


def seal_channel(x: float) -> KrausChannel:
    """The one-parameter damping family used as the worked eavesdropper.

    Kraus operators {diag(1, sqrt(1-x)), sqrt(x)|0><1|} (:func:`damping_stack`):
    strength x=0 is the identity (a purely passive listener) and x=1 sends
    every input to |0><0|.
    """
    x = float(x)
    return KrausChannel(tuple(damping_stack([x])[0]), label=f"seal(x={x:g})")


def depolarizing_channel(p: float) -> KrausChannel:
    """rho -> (1-p) rho + (p/2) I, via the four-Pauli Kraus set."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {p}")
    ops = (
        math.sqrt(1.0 - 0.75 * p) * IDENTITY,
        math.sqrt(0.25 * p) * SIGMA_1,
        math.sqrt(0.25 * p) * SIGMA_2,
        math.sqrt(0.25 * p) * SIGMA_3,
    )
    return KrausChannel(ops, label=f"depolarizing(p={p:g})")


def dephasing_channel() -> KrausChannel:
    """Projects onto the sigma3 basis, zeroing the off-diagonal entries."""
    ops = (
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    )
    return KrausChannel(ops, label="dephasing")
