"""Independent reference implementations used only to check the package.

These deliberately avoid the code paths under test: the damping family is
rebuilt from its system-plus-auxiliary unitary coupling and a partial trace,
string mutual information is computed by literal enumeration of every
announcement string, and the damping family's mutual information is also
summed over the paper's explicit symbol-count classes, which no evaluator
in the package uses.  A run's records are tallied by a literal loop, not by
the package's code table, and formatted as transcript lines one f-string per
record, not through the package's table of interned records.  A run's
variate columns are drawn through numpy's own ``SeedSequence`` and
``Generator``, which the package's raw-word column source must match.  A
channel's Born table is built one preparation state at a time, looping over
the Kraus operators, as the package did before it stacked them.  The
mutual information of a stack of announcement distributions at each kept
string length is walked one lattice step at a time, each step a freshly
allocated lattice and each length read out on its own, as the package did
before it walked in fixed buffers and read the kept lengths in batches.
"""

import itertools
import math

import numpy as np
from scipy.special import rel_entr
from scipy.stats import binom

from sealsim.analysis import seal_class_masses
from sealsim.protocol import BitAnnouncement
from sealsim.qubit import (
    DensityMatrix,
    MeasurementBasis,
    MeasurementResult,
    ProtocolPureState,
    measurement_prob,
    state_density,
    validate_channel,
)

_LN2 = math.log(2.0)

# Deterministic seed-vector pools for completing the coupling unitary on the
# subspace its definition leaves free; the first two that survive projection
# are used.  The two pools differ so the two completions really are different
# unitaries.
_COMPLETION_CANDIDATES = {
    0: (
        np.array([0.0, 1.0, 0.0, 0.0], dtype=complex),
        np.array([0.0, 0.0, 0.0, 1.0], dtype=complex),
        np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
        np.array([0.0, 0.0, 1.0, 0.0], dtype=complex),
    ),
    1: (
        np.array([0.3 + 0.4j, -0.1, 0.8, 0.2 - 0.6j], dtype=complex),
        np.array([-0.5, 0.2 + 0.9j, 0.1j, 0.7], dtype=complex),
        np.array([0.9, 0.1j, -0.3, 0.4 + 0.2j], dtype=complex),
        np.array([0.2j, 0.6, 0.5 - 0.1j, -0.8], dtype=complex),
    ),
}

# (F, G) choices for the auxiliary memory states; orthonormal pairs.
_FG_CHOICES = {
    0: (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    1: (
        np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
        np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    ),
}


def coupling_unitary(x: float, completion: int = 0) -> np.ndarray:
    """4x4 unitary coupling particle and auxiliary for damping strength x.

    Sends |0>|phi> to |0>|F> and |1>|phi> to sqrt(x)|0>|G> + sqrt(1-x)|1>|F>
    with <F|G> = 0, with the auxiliary prepared in phi = first basis vector.
    The action on the remaining two dimensions is an arbitrary orthonormal
    completion; ``completion`` selects between two distinct ones.
    """
    f, g = _FG_CHOICES[completion]
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    gamma0 = np.kron(e0, f)
    gamma1 = math.sqrt(x) * np.kron(e0, g) + math.sqrt(1.0 - x) * np.kron(e1, f)

    cols = [gamma0, gamma1]
    for cand in _COMPLETION_CANDIDATES[completion]:
        if len(cols) == 4:
            break
        v = cand.copy()
        for _ in range(2):  # twice for numerical orthogonality
            for u in cols:
                v = v - u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            cols.append(v / norm)
    assert len(cols) == 4, "could not complete the unitary"

    # Input product-basis columns: |j>|a> sits at index 2j + a, and phi is
    # auxiliary index 0, so |0>|phi> is column 0 and |1>|phi> is column 2.
    u_mat = np.zeros((4, 4), dtype=complex)
    u_mat[:, 0] = cols[0]
    u_mat[:, 2] = cols[1]
    u_mat[:, 1] = cols[2]
    u_mat[:, 3] = cols[3]
    return u_mat


def apply_coupling(x: float, rho: np.ndarray, completion: int = 0) -> np.ndarray:
    """Channel action computed as Tr_aux(U (rho x |phi><phi|) U^dag)."""
    u_mat = coupling_unitary(x, completion)
    phi_proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    big = u_mat @ np.kron(np.asarray(rho, dtype=complex), phi_proj) @ u_mat.conj().T
    out = np.empty((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[i, j] = big[2 * i, 2 * j] + big[2 * i + 1, 2 * j + 1]
    return out


def mi_bruteforce(probs_b0, probs_b1, k: int, block: int = 10) -> float:
    """I(string : message) in bits by summing over all 4**k strings.

    Per-string probabilities are literal products of single-announcement
    probabilities; no count-class grouping anywhere.
    """
    a0 = np.asarray(probs_b0, dtype=float)
    a1 = np.asarray(probs_b1, dtype=float)
    if k == 0:
        return 0.0
    kb = min(k, block)
    v0, v1 = a0, a1
    for _ in range(kb - 1):
        v0 = np.kron(v0, a0)
        v1 = np.kron(v1, a1)
    total = 0.0
    for prefix in itertools.product(range(4), repeat=k - kb):
        f0 = math.prod(a0[i] for i in prefix)
        f1 = math.prod(a1[i] for i in prefix)
        p0 = f0 * v0
        p1 = f1 * v1
        mid = 0.5 * (p0 + p1)
        total += 0.5 * float(rel_entr(p0, mid).sum() + rel_entr(p1, mid).sum())
    return total / _LN2


def seal_mi_by_classes(x: float, k: int) -> float:
    """I(string of length k : message) in bits for the damping family.

    Sums the class-total masses of ``seal_class_masses`` (strings grouped by
    their sigma3 symbol counts) with a Jensen-Shannon divergence of its own.
    """
    masses = seal_class_masses(x, k)
    p0 = np.array([m[1] for m in masses])
    p1 = np.array([m[2] for m in masses])
    mid = 0.5 * (p0 + p1)
    return 0.5 * float(rel_entr(p0, mid).sum() + rel_entr(p1, mid).sum()) / _LN2


def seal_expected_mi_by_classes(x: float, n_shots: int, p_announce: float) -> float:
    """Binomially weighted :func:`seal_mi_by_classes` over string lengths.

    Lengths whose binomial weight is below 1e-18 are skipped; at most
    n_shots + 1 of them, so the omitted mass is far below any tolerance this
    oracle is used at.
    """
    weights = binom.pmf(np.arange(n_shots + 1), n_shots, p_announce)
    return math.fsum(
        float(w) * seal_mi_by_classes(x, k) for k, w in enumerate(weights) if k and w >= 1e-18
    )


_PREP_LABEL = {
    ProtocolPureState.ZERO: "0",
    ProtocolPureState.ONE: "1",
    ProtocolPureState.PLUS: "+",
    ProtocolPureState.MINUS: "-",
}


def transcript_lines_by_record(shots, public: bool = False):
    """CSV lines for a run's records (full, or the public projection)."""
    if public:
        yield "shot_index,basis,announcement_kind,announced_value"
    else:
        yield "shot_index,prep,basis,result,announcement_kind,announced_value"
    for idx, rec in enumerate(shots):
        ann = rec.announcement
        if isinstance(ann, BitAnnouncement):
            kind, value = "bit", str(ann.c)
        else:
            kind, value = "result", f"{int(ann.m):+d}"
        if public:
            yield f"{idx},{rec.basis.value},{kind},{value}"
        else:
            yield (
                f"{idx},{_PREP_LABEL[rec.prep]},{rec.basis.value},"
                f"{int(rec.result):+d},{kind},{value}"
            )


def tally_by_loop(shots):
    """(decoded bit or None, votes, mismatches, matched result-announcements).

    A literal walk over one run's records with the receiver's rules written
    out: sigma3 matches |0> and |1>, sigma1 matches |+> and |->, and an
    undisturbed particle gives -1 exactly for |1> and |->.
    """
    sigma3_states = (ProtocolPureState.ZERO, ProtocolPureState.ONE)
    minus_states = (ProtocolPureState.ONE, ProtocolPureState.MINUS)
    ones = votes = mismatches = matched = 0
    for rec in shots:
        if (rec.basis is MeasurementBasis.SIGMA3) != (rec.prep in sigma3_states):
            continue
        expected_minus = rec.prep in minus_states
        if isinstance(rec.announcement, BitAnnouncement):
            votes += 1
            ones += rec.announcement.c ^ expected_minus
        else:
            matched += 1
            mismatches += (rec.result is MeasurementResult.MINUS) != expected_minus
    decoded = None if 2 * ones == votes else int(2 * ones > votes)
    return decoded, votes, mismatches, matched


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Stream ``stream`` of root seed ``seed``: the randomness contract's generator."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _draw(params, stream: int):
    """The four variate columns of one run, drawn through numpy's Generator.

    The order is the contract: preparations, bases, result variates,
    announcement-type variates.  The integer columns keep numpy's default
    int64: asking for another dtype would draw a different stream.
    """
    n = params.n_shots
    rng = _stream_rng(params.seed, stream)
    return rng.integers(0, 4, n), rng.integers(0, 2, n), rng.random(n), rng.random(n)


def _map_state(ch, rho):
    """The operator sum of one state, re-hermitized and trace-normalized."""
    out = np.zeros((2, 2), dtype=complex)
    for op in ch.operators:
        out += op @ rho.matrix @ op.conj().T
    out = 0.5 * (out + out.conj().T)
    out /= out[0, 0].real + out[1, 1].real
    return DensityMatrix(out)


def born_table_by_state(ch) -> np.ndarray:
    """Pr(result | basis) per preparation state, as a (4, 2, 2) array.

    Indexed by preparation, basis and result in enum order; each image is a
    validated ``DensityMatrix`` and each entry a ``measurement_prob`` call.
    """
    report = validate_channel(ch)
    if not report.passes:
        raise ValueError(
            f"channel {ch.label!r} fails completeness (deviation {report.deviation:.3e})"
        )
    images = {s: _map_state(ch, state_density(s)) for s in ProtocolPureState}
    return np.array(
        [
            [
                [measurement_prob(images[s], b, m) for m in MeasurementResult]
                for b in MeasurementBasis
            ]
            for s in ProtocolPureState
        ]
    )


def mismatch_by_state(ch) -> float:
    """Per-shot mismatch: the four contradicting (state, basis, result) events, 1/8 each."""
    table = born_table_by_state(ch)
    events = ((2, 0, 1), (3, 0, 0), (0, 1, 1), (1, 1, 0))  # +|-1, -|+1, 0|-1, 1|+1
    per_shot = 0.0
    for cell in events:
        per_shot += 0.125 * float(table[cell])
    return per_shot


def lattice_mi_stepwise(lattice: np.ndarray) -> np.ndarray:
    """I(s : message) in bits per row of net-vote distributions given b = 0.

    Flipping the message negates every net vote, so p1(s) = p0(-s), and the
    information is 1 - H(message | s) with
    H = sum_s p0(s) log2((p0(s) + p0(-s)) / p0(s)).  The ratio inside the log
    never has an underflowed divisor, and each term is non-negative, so the
    result never exceeds 1.  (Writing 1 as sum_s p0(s) gives the
    Jensen-Shannon form sum_s p0(s) log2(2 p0(s) / (p0(s) + p0(-s))); using
    the exact 1 keeps the lattice's rounded mass out of the result.)  Cells
    with p0(s) = 0 add an exact 0 to their row's sum.
    """
    rows = len(lattice)
    if lattice.size == rows:
        # one cell, s = 0: p0(s) / (p0(s) + p0(-s)) is exactly 1/2, so a
        # row's information is exactly 1 - p0(0)
        return 1.0 - lattice.reshape(rows)
    p = lattice.reshape(rows, -1)
    q = lattice[:, ::-1, ::-1].reshape(rows, -1)
    seen = p > 0.0
    ratio = p + q
    if seen.all():
        np.divide(p, ratio, out=ratio)
        np.log2(ratio, out=ratio)
    else:
        # a cell with p0(s) = 0 keeps its finite p0(-s), and its term is 0
        np.divide(p, ratio, out=ratio, where=seen)
        np.log2(ratio, out=ratio, where=seen)
    ratio *= p
    return 1.0 + np.add.reduce(ratio, axis=1)


def lattice_steps_stepwise(moving1: int, moving3: int):
    """(grow, offsets): the lattice growth per step and each symbol's offset.

    Each of the four symbols moves the walk by a fixed offset while the
    lattice grows by ``grow`` per step.  A basis whose two symbols are
    equally likely has a collapsed axis: it never grows, and its
    announcements are "stay" steps.  When neither axis collapses, s1 + s3
    has the parity of k, and the lattice is kept in the coordinates
    u = (k + s1 + s3)/2, v = (k + s1 - s3)/2 so that no cell of the wrong
    parity is stored.
    """
    if moving1 and moving3:
        return (1, 1), ((1, 1), (0, 0), (1, 0), (0, 1))
    # cell [i, j] is (s1, s3) = (i - k, j - k) on a moving axis, 0 on a collapsed one
    grow = (2 * moving1, 2 * moving3)
    return grow, ((2 * moving1, moving3), (0, moving3), (moving1, 2 * moving3), (moving1, 0))


def mi_by_length_stepwise(probs: np.ndarray, lengths: list[int]) -> np.ndarray:
    """I(announcement string : message) in bits at each of the ascending ``lengths``.

    ``probs`` is a (rows, 4) array of single-announcement distributions given
    b = 0 (from :func:`_unit_rows`) that share one collapse pattern; the
    result is (rows, len(lengths)), and each row's numbers are the ones it
    gets walking alone.  Walks k = 0, 1, ... up to the largest length on the
    lattice of net votes (s1, s3) of every row at once, convolving it at
    each step with the single-announcement distribution (see
    :func:`lattice_steps_stepwise`); negating (s1, s3) reverses both lattice axes.
    Memory is rows times the lattice at the largest length.
    """
    if lengths[0] < 0:
        raise ValueError("string length must be non-negative")
    moving = probs[:, ::2] != probs[:, 1::2]
    if (moving != moving[0]).any():
        raise ValueError("rows must share one collapse pattern")
    grow, offsets = lattice_steps_stepwise(*moving[0].tolist())
    # a symbol without positive weight adds exact zeros, in every row
    weights = np.maximum(probs, 0.0)
    taken = (weights > 0.0).any(axis=0).tolist()
    # a lone row steps with floats, which numpy multiplies faster
    columns = weights.T[:, :, None, None] if len(weights) > 1 else weights[0].tolist()
    moves: dict[tuple[int, int], np.ndarray | float] = {}
    for column, offset in enumerate(offsets):
        if taken[column]:
            weight = columns[column]
            moves[offset] = moves[offset] + weight if offset in moves else weight

    rows = len(probs)
    lattice = np.ones((rows, 1, 1))
    out = np.empty((rows, len(lengths)))
    k = 0
    for column, target in enumerate(lengths):
        while k < target:
            _, n1, n3 = lattice.shape
            step = np.zeros((rows, n1 + grow[0], n3 + grow[1]))
            for (o1, o3), weight in moves.items():
                step[:, o1 : o1 + n1, o3 : o3 + n3] += weight * lattice
            lattice = step
            k += 1
        out[:, column] = lattice_mi_stepwise(lattice)
    return out
