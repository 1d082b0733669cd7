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
the Kraus operators, as the package did before it stacked them, and each
2x2 product and Born trace entry by entry on one-element arrays, in the
order in which the package's stacked products add the terms.  The
mutual information of a stack of announcement distributions on the plane
at each kept string length is walked one lattice step at a time, each step
a freshly allocated lattice and each length read out on its own, as the
package did before it contracted the basis counts' tables.  Those tables
are also built here one row at a time and placed cell by cell, where the
package builds them in blocks and places them by strided copies.  A
line's expected information is summed one row and one count of
moving-basis announcements at a time, as the package sums it in blocks.
Both a line's and a plane's expected information are summed once more
exactly, in ``decimal`` arithmetic, from the ancillarity of the basis
counts, with no truncation.
"""

import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import rel_entr
from scipy.stats import binom

from sealsim.analysis import (
    _CAPPED_BITS,
    _LN2,
    _LOG_TINY,
    _binomial_pmf,
    _kept_lengths,
    _log_factorials,
    _log_weight,
    _plane_blocks,
    seal_class_masses,
)
from sealsim.protocol import BitAnnouncement
from sealsim.qubit import (
    IDENTITY,
    SIGMA_1,
    SIGMA_3,
    DensityMatrix,
    MeasurementBasis,
    MeasurementResult,
    ProtocolPureState,
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


# Every product below is of one-element numpy arrays, never of Python or
# numpy complex scalars: numpy's complex array multiply may fuse a multiply
# and an add (FMA), so it rounds differently from scalar arithmetic, and
# the package's whole-stack products are numpy array multiplies.


def _entry(a, i, j):
    return a[i, j : j + 1]


def _product_by_entry(a, b):
    """a @ b of two 2x2 arrays, entry (i, k) as a[i, 0] b[0, k] + a[i, 1] b[1, k]."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for k in range(2):
            out[i, k] = (_entry(a, i, 0) * _entry(b, 0, k) + _entry(a, i, 1) * _entry(b, 1, k))[0]
    return out


def _map_state(ch, rho):
    """The operator sum (E rho) E^dag of one state, re-hermitized and trace-normalized."""
    out = np.zeros((2, 2), dtype=complex)
    for op in ch.operators:
        out += _product_by_entry(_product_by_entry(op, rho.matrix), op.conj().T)
    out = 0.5 * (out + out.conj().T)
    out /= out[0, 0].real + out[1, 1].real
    return DensityMatrix(out)


def _born_prob_by_entry(rho, basis, m) -> float:
    """Half the real part of Tr((I + m sigma) rho), clamped to [0, 1].

    The trace adds the product's two diagonal entries, each formed as in
    :func:`_product_by_entry`.
    """
    sigma = {MeasurementBasis.SIGMA1: SIGMA_1, MeasurementBasis.SIGMA3: SIGMA_3}[basis]
    op, image = IDENTITY + int(m) * sigma, rho.matrix
    diagonal = [
        _entry(op, i, 0) * _entry(image, 0, i) + _entry(op, i, 1) * _entry(image, 1, i)
        for i in range(2)
    ]
    p = float(0.5 * (diagonal[0] + diagonal[1]).real[0])
    return min(max(p, 0.0), 1.0)


def born_table_by_state(ch) -> np.ndarray:
    """Pr(result | basis) per preparation state, as a (4, 2, 2) array.

    Indexed by preparation, basis and result in enum order; each image is a
    validated ``DensityMatrix``, and each entry is computed from it alone.
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
                [_born_prob_by_entry(images[s], b, m) for m in MeasurementResult]
                for b in MeasurementBasis
            ]
            for s in ProtocolPureState
        ]
    )


def born_table_by_matmul(ch) -> np.ndarray:
    """The (4, 2, 2) Born table with every 2x2 product and the trace through ``np.matmul``/``np.trace``.

    BLAS rounds these products differently from the package's entrywise
    ones, so this bounds their rounding; it is not a bit-for-bit reference.
    """
    ops = ch.stack[:, None]
    states = np.array([state_density(s).matrix for s in ProtocolPureState])
    images = (ops @ states @ ops.conj().swapaxes(-1, -2)).sum(axis=0)
    images = 0.5 * (images + images.conj().swapaxes(-1, -2))
    images /= (images[..., 0, 0].real + images[..., 1, 1].real)[..., None, None]
    operators = np.array(
        [[IDENTITY + int(m) * sigma for m in MeasurementResult] for sigma in (SIGMA_1, SIGMA_3)]
    )
    probs = (0.5 * np.trace(operators @ images[:, None, None], axis1=-2, axis2=-1)).real
    return np.clip(probs, 0.0, 1.0)


def mismatch_by_state(ch) -> float:
    """Per-shot mismatch: the four contradicting (state, basis, result) events, 1/8 each."""
    table = born_table_by_state(ch)
    events = ((2, 0, 1), (3, 0, 0), (0, 1, 1), (1, 1, 0))  # +|-1, -|+1, 0|-1, 1|+1
    per_shot = 0.0
    for cell in events:
        per_shot += 0.125 * float(table[cell])
    return per_shot


def lattice_mi_stepwise(lattice: np.ndarray, mass=1.0) -> np.ndarray:
    """I(s : message) in bits per row of net-vote distributions given b = 0.

    Flipping the message negates every net vote, so p1(s) = p0(-s), and the
    information is 1 - H(message | s) with
    H = sum_s p0(s) log2((p0(s) + p0(-s)) / p0(s)).  The ratio inside the log
    never has an underflowed divisor, and each term is non-negative, so the
    result never exceeds 1.  (Writing 1 as sum_s p0(s) gives the
    Jensen-Shannon form sum_s p0(s) log2(2 p0(s) / (p0(s) + p0(-s))); using
    the exact 1 keeps the lattice's rounded mass out of the result.)  Cells
    with p0(s) = 0 add an exact 0 to their row's sum.  ``mass`` is each
    row's exact total, a float or a (rows,) array: p0 is the lattice divided
    by it, and H, whose ratio does not change, is the lattice's sum divided
    by it (exact for a total of 1).
    """
    rows = len(lattice)
    if lattice.size == rows:
        # one cell: no axis moves, so both message values give one string
        # distribution, and a row's information is exactly 0
        return np.zeros(rows)
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
    return 1.0 + np.add.reduce(ratio, axis=1) / mass


# Each symbol's offset on the plane, kept in the coordinates
# u = (k + s1 + s3)/2, v = (k + s1 - s3)/2: s1 + s3 has the parity of k, so no
# cell of the wrong parity is stored, and the lattice grows by one a step on
# each axis.
PLANE_OFFSETS = ((1, 1), (0, 0), (1, 0), (0, 1))


def mi_by_length_stepwise(probs: np.ndarray, lengths: list[int]) -> np.ndarray:
    """I(announcement string : message) in bits at each of the ascending ``lengths``, on the plane.

    ``probs`` is a (rows, 4) array of single-announcement distributions given
    b = 0 (from :func:`_unit_rows`) whose bases all move, or none of them;
    the result is (rows, len(lengths)), and each row's numbers are the ones
    it gets walking alone.  Walks k = 0, 1, ... up to the largest length on
    the lattice of net votes of every row at once, convolving it at each
    step with the single-announcement distribution (see ``PLANE_OFFSETS``);
    negating (s1, s3) reverses both lattice axes.  Memory is rows times the
    lattice at the largest length.

    A row is read as its distribution scaled to sum to 1, as the package
    reads it: a row whose rounded symbols sum to T != 1 walks a lattice of
    mass T^k at length k, and its information is read with that exact mass
    (T^k rounded once, from ``fractions``), not with 1.  A row of total 1
    reads as it did without the scaling, bit for bit.
    """
    if lengths[0] < 0:
        raise ValueError("string length must be non-negative")
    moving = probs[:, ::2] != probs[:, 1::2]
    if (moving != moving[0]).any():
        raise ValueError("rows must share one collapse pattern")
    if not moving[0].any():
        return np.zeros((len(probs), len(lengths)))
    assert moving[0].all(), "a line is summed over its count, not walked"
    # a symbol without positive weight adds exact zeros, in every row
    weights = np.maximum(probs, 0.0)
    taken = (weights > 0.0).any(axis=0).tolist()
    # a lone row steps with floats, which numpy multiplies faster
    columns = weights.T[:, :, None, None] if len(weights) > 1 else weights[0].tolist()
    moves = {offset: columns[col] for col, offset in enumerate(PLANE_OFFSETS) if taken[col]}

    rows = len(probs)
    totals = [sum(map(Fraction, row)) for row in weights.tolist()]
    lattice = np.ones((rows, 1, 1))
    out = np.empty((rows, len(lengths)))
    k = 0
    for column, target in enumerate(lengths):
        while k < target:
            _, n1, n3 = lattice.shape
            step = np.zeros((rows, n1 + 1, n3 + 1))
            for (o1, o3), weight in moves.items():
                step[:, o1 : o1 + n1, o3 : o3 + n3] += weight * lattice
            lattice = step
            k += 1
        mass = np.array([float(total**target) for total in totals])
        out[:, column] = lattice_mi_stepwise(lattice, mass)
    return out


def _binomial_row(n: int, top: int, log_a: float, log_c: float) -> np.ndarray:
    """Bin(i; n, a) at cells i = 0..top by the package's cell formula, scaled to sum to 1.

    A cell is exp((log n! - log i!) - log (n - i)! + i log a + (n - i) log c),
    summed in that order one cell at a time; cells past n, or below the
    smallest normal double, are 0.
    """
    log_factorials = _log_factorials(top)
    cells = np.zeros(top + 1)
    for i in range(n + 1):
        value = log_factorials[n] - log_factorials[i] - log_factorials[n - i] + i * log_a
        value += (n - i) * log_c
        if value >= _LOG_TINY:
            cells[i] = np.exp(value)
    return cells / np.add.reduce(cells)


def _log2_one_plus_exp2(x):
    """log2(1 + 2^x) as max(x, 0) + log2(1 + 2^-min(|x|, ``_CAPPED_BITS``)), in one expression."""
    return np.maximum(x, 0.0) + np.log1p(np.exp2(-np.minimum(np.abs(x), _CAPPED_BITS))) / _LN2


def plane_tables_by_row(row, lengths, weights):
    """(W, A, B, x1, x3) of a plane row, one table row at a time and one cell at a time.

    W[m, k - m] is the length-k row of Bin(m; k, mu) times w_k, for k from the
    shortest kept length to the longest (w_k = 0 for one not kept); A and B
    hold each basis' Bin(i; n, a) at (n, 2i - n + top); x1 and x3 are
    s log2(p(c=1) / p(c=0)) at s = -top..top.
    """
    top, shortest = lengths[-1], lengths[0]
    w_of = dict(zip(lengths, weights))
    log_mu, log_nu = _log_weight(row[0] + row[1]), _log_weight(row[2] + row[3])
    w = np.zeros((top + 1, top + 1))
    for k in range(shortest, top + 1):
        cells = _binomial_row(k, top, log_mu, log_nu) * w_of.get(k, 0.0)
        for m in range(k + 1):
            w[m, k - m] = cells[m]
    tables = [w]
    for first in (0, 2):
        mass = row[first] + row[first + 1]
        log_a, log_c = _log_weight(row[first] / mass), _log_weight(row[first + 1] / mass)
        table = np.zeros((top + 1, 2 * top + 1))
        for n in range(top + 1):
            cells = _binomial_row(n, top, log_a, log_c)
            for i in range(n + 1):
                table[n, 2 * i - n + top] = cells[i]
        tables.append(table)
    for first in (0, 2):
        ratio = (_log_weight(row[first + 1]) - _log_weight(row[first])) / _LN2
        tables.append(np.array([float(s) * ratio for s in range(-top, top + 1)]))
    return tuple(tables)


def plane_expectation_by_tables(row, lengths, weights) -> float:
    """sum_k w_k I_k of a plane row from :func:`plane_tables_by_row`, as the package contracts them.

    R = W B, then for each block (low, high, u) of ``analysis._plane_blocks``
    Q = A[u:, low:high]^T R[u:, u:2 top + 1 - u], each by one ``np.matmul``,
    and the block adds sum Q h, with h = :func:`_log2_one_plus_exp2` at
    x = x1 + x3, in one ``np.add.reduce``; the blocks
    are added in order and the total is taken from the sum of the weights.
    """
    w, a, b, x1, x3 = plane_tables_by_row(row, lengths, weights)
    top = lengths[-1]
    width = 2 * top + 1
    r = np.matmul(w, b)
    total = 0.0
    for low, high, u in _plane_blocks(top):
        q = np.matmul(a[u:, low:high].T, r[u:, u : width - u])
        x = x1[low:high, None] + x3[u : width - u]
        total += float(np.add.reduce(_log2_one_plus_exp2(x) * q, axis=None))
    return float(np.add.reduce(np.asarray(weights))) - total


def _line_symbols(row):
    """(m, a, c): the moving basis' mass and its two symbols over it, the larger first."""
    pair = row[:2] if row[0] != row[1] else row[2:]
    mass = pair[0] + pair[1]
    return mass, max(pair) / mass, min(pair) / mass


def line_expected_mi_stepwise(probs, n_shots: int, p_announce: float, tail_tol):
    """(mi_bits, k_terms_used, truncation_mass) of each row, one row and one count at a time.

    Each row of the (rows, 4) array ``probs`` (from ``_unit_rows``) has one
    moving basis, of mass m and symbols a >= c over m.  The count j of its
    announcements is Bin(n_shots, p_announce m); the kept counts are those
    ``_kept_lengths`` keeps (every count when ``tail_tol`` is None).  At each
    kept count in turn, J(j) = 1 - H(j): H(j) is the sum of the binomial
    cells exp((log j! - log i!) - log (j - i)! + i ln a + (j - i) ln c), 0
    below the smallest normal double, times :func:`_log2_one_plus_exp2` at
    (2i - j) log2(c/a), over the same cells' sum, each sum one
    ``np.add.reduce`` over i = 0..max kept count, with exact zeros past j;
    J(j) = [j > 0] when c = 0.  The first count whose J comes within
    ``tail_tol`` of 1 is the last one evaluated: every later count uses 1,
    and the bound (1 - J) times the kept mass past it, summed from the last
    count down, joins the omitted mass.  The information is the weighted
    sum of the counts' J in one ``np.add.reduce``.
    """
    out = []
    for row in probs:
        mass, a, c = _line_symbols(row)
        if tail_tol is None:
            weights = _binomial_pmf(n_shots, p_announce * mass)
            counts, omitted, stop = list(range(n_shots + 1)), 0.0, 0.0
        else:
            weights, counts, omitted = _kept_lengths(n_shots, p_announce * mass, tail_tol)
            stop = tail_tol
        log_factorials = _log_factorials(counts[-1])
        width = counts[-1] + 1
        info, bound = [], 0.0
        for t, j in enumerate(counts):
            if not c:
                info.append(float(j > 0))
                continue
            i = np.arange(j + 1)
            log_p = log_factorials[j] - log_factorials[i] - log_factorials[j - i] + i * np.log(a)
            log_p += (j - i) * np.log(c)
            p = np.zeros(width)
            p[: j + 1] = np.where(log_p >= _LOG_TINY, np.exp(log_p), 0.0)
            terms = np.zeros(width)
            terms[: j + 1] = p[: j + 1] * _log2_one_plus_exp2((2 * i - j) * np.log2(c / a))
            info.append(1.0 - np.add.reduce(terms) / np.add.reduce(p))
            if info[-1] >= 1.0 - stop:
                past = 0.0
                for u in range(len(counts) - 1, t, -1):
                    past += weights[counts[u]]
                bound = (1.0 - info[-1]) * past
                info += [1.0] * (len(counts) - 1 - t)
                break
        weighted = np.array(info) * weights[counts]
        out.append((float(np.add.reduce(weighted)), len(counts), omitted + bound))
    return out


def _power(base, exponent: int):
    """base**exponent with 0**0 = 1, which ``decimal`` leaves undefined."""
    return base**exponent if exponent else decimal.Decimal(1)


def line_expected_mi_exact(row, n_shots: int, p_announce: float, digits: int = 40) -> float:
    """Expected information in bits of a distribution with one moving basis, exactly.

    ``row`` is the distribution of one announcement given b = 0, read
    exactly and scaled to sum to 1.  An announcement is in the moving basis
    (mass m) with probability m whatever the message is, so the count j of
    such announcements is ancillary: E[I] = sum_j Bin(j; N, p_announce m)
    J(j), with J(j) = 1 - sum_i C(j, i) a^i c^(j-i) log2(1 + (c/a)^(2i-j)) for
    the basis' symbols a and c over m.  c = 0 gives J(j) = 1 for every
    j >= 1.  Every sum is taken in ``digits``-digit ``decimal`` arithmetic with
    no truncation, except counts whose binomial weight is below
    10^-(digits + 5), at most n_shots + 1 of them.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        probs = [D(float(v)) for v in row]
        total = sum(probs, D(0))
        probs = [v / total for v in probs]
        pair = probs[:2] if probs[0] != probs[1] else probs[2:]
        mass = pair[0] + pair[1]
        a, c = max(pair) / mass, min(pair) / mass
        q = D(float(p_announce)) * mass
        weights = [
            math.comb(n_shots, j) * _power(q, j) * _power(1 - q, n_shots - j)
            for j in range(n_shots + 1)
        ]
        floor = D(10) ** -(digits + 5)
        counts = [j for j, w in enumerate(weights) if w >= floor]
        if c == 0:
            return float(sum((weights[j] for j in counts if j > 0), D(0)))
        top = counts[-1]
        ratio, ln2 = c / a, D(2).ln()
        logs = {s: (1 + ratio**s).ln() / ln2 for s in range(-top, top + 1)}
        a_pow = [_power(a, i) for i in range(top + 1)]
        c_pow = [_power(c, i) for i in range(top + 1)]
        total = D(0)
        for j in counts:
            h = sum(
                (math.comb(j, i) * a_pow[i] * c_pow[j - i] * logs[2 * i - j] for i in range(j + 1)),
                D(0),
            )
            total += weights[j] * (1 - h)
        return float(total)


def plane_expected_mi_exact(row, n_shots: int, p_announce: float, digits: int = 40) -> float:
    """Expected information in bits of any announcement distribution, exactly.

    ``row`` is the distribution of one announcement given b = 0, read
    exactly and scaled to sum to 1.  Each shot announces a bit in sigma1 or
    sigma3 with probability p_announce times that basis' mass, whatever the
    message is, so the counts (m, j) of such announcements are ancillary:
    E[I] = sum_{m,j} Mult(m, j; N) I(m, j).  Given the counts, the net votes
    s1 = 2 i1 - m and s3 = 2 i3 - j are independent, and flipping the
    message negates both, so I(m, j) = 1 - sum p(s) log2(1 + p(-s) / p(s))
    over the cells of positive p(s) = C(m, i1) a1^i1 c1^(m-i1) C(j, i3)
    a3^i3 c3^(j-i3), where p(-s) / p(s) = (c1/a1)^s1 (c3/a3)^s3 for each
    basis' symbols a (c = 0) and c (c = 1) over its mass.  Every sum is
    taken in ``digits``-digit ``decimal`` arithmetic with no truncation,
    except count pairs whose weight is below 10^-(digits + 5).
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        probs = [D(float(v)) for v in row]
        total = sum(probs, D(0))
        probs = [v / total for v in probs]
        q = D(float(p_announce))
        shares, symbols, cells = [], [], []
        for first in (0, 2):
            mass = probs[first] + probs[first + 1]
            a, c = (probs[first] / mass, probs[first + 1] / mass) if mass else (D(1), D(0))
            shares.append(q * mass)
            symbols.append((a, c))
            cells.append(
                [
                    [math.comb(n, i) * _power(a, i) * _power(c, n - i) for i in range(n + 1)]
                    for n in range(n_shots + 1)
                ]
            )

        def vote_ratio(basis, s):
            # (c/a)^s: a vote s > 0 of positive weight needs a > 0, one below 0 needs c > 0
            a, c = symbols[basis]
            if s == 0:
                return D(1)
            return _power(c / a, s) if s > 0 else _power(a / c, -s)

        ln2, floor = D(2).ln(), D(10) ** -(digits + 5)
        rest = 1 - shares[0] - shares[1]
        logs = {}
        expected = D(0)
        for m in range(n_shots + 1):
            for j in range(n_shots - m + 1):
                weight = (
                    math.comb(n_shots, m)
                    * math.comb(n_shots - m, j)
                    * _power(shares[0], m)
                    * _power(shares[1], j)
                    * _power(rest, n_shots - m - j)
                )
                if weight < floor:
                    continue
                h = D(0)
                for i1, p1 in enumerate(cells[0][m]):
                    for i3, p3 in enumerate(cells[1][j]):
                        if not (p1 and p3):
                            continue
                        s = (2 * i1 - m, 2 * i3 - j)
                        if s not in logs:
                            ratio = vote_ratio(0, s[0]) * vote_ratio(1, s[1])
                            logs[s] = (1 + ratio).ln() / ln2
                        h += p1 * p3 * logs[s]
                expected += weight * (1 - h)
        return float(expected)
