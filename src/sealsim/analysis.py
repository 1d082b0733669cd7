"""Closed-form eavesdropping analysis.

Computes what an eavesdropper's channel leaks about the message bit
(Shannon mutual information between the message and the string of coded
bit-announcements, averaged over string lengths with binomial weights) and
how much disturbance it causes (probability of a mismatch in the receiver's
channel check), for arbitrary Kraus channels and for the builtin damping
family.

A string's likelihood ratio between the two message values depends only on
its net vote per basis, s_i = #(sigma_i, c=0) - #(sigma_i, c=1), so the
string carries exactly as much information as the pair (s1, s3).  A basis
whose two symbols are equally likely carries no information, and its axis
collapses.  With both axes collapsed (a unital channel) the two message
values give the same string distribution, so every length carries exactly
0 bits, nothing is summed, and no term is kept or truncated.

A line (one moving axis, such as the damping family's sigma3) is a sum in
closed form.  An announcement lands in the moving basis with probability
m, that basis' mass, whatever the message is, so the count j of such
announcements is Bin(N, p_announce m) and says nothing by itself; given j,
the string carries J(j) bits, a sum over the j + 1 values of its net vote.
So E[I] = sum_j Bin(j; N, p_announce m) J(j) over the counts the binomial
keeps, evaluated in blocks of at most ``_BLOCK_CELLS`` cells.  J never
decreases in j and never exceeds 1, so once J comes within ``tail_tol`` of
1 every larger count uses 1.  On a line ``k_terms_used`` counts the kept
counts j, and ``truncation_mass`` is their omitted binomial mass plus the
bound on that stop's error.

The plane (both axes moving) is a closed form too.  Given the counts
(m, j) of sigma1 and sigma3 announcements, which say nothing by
themselves, the two net votes are independent, and a string's likelihood
ratio is rho1^s1 rho3^s3 at every length, rho = p(c=1) / p(c=0) of each
basis.  So the sum over the kept lengths is sum_k w_k - <Q, h>, where
h(s) = log2(1 + rho1^s1 rho3^s3) and Q = A^T W B is the kept-length mixture
of (s1, s3): W[m, j] = w_{m+j} Bin(m; m+j, mu) (mu the sigma1 mass), and A
and B hold each basis' net-vote binomial given its count.  That is one
stacked build of the three tables, two matrix products and one pass of
logarithms, with no walk over lengths; ``k_terms_used`` counts the kept lengths and
``truncation_mass`` is their omitted mass.  Q is formed in blocks of
bounded size, each taking only the counts and votes that the diamond
|s1| + |s3| <= k leaves it.  The tables of the longest kept length k hold
(k+1)(2k+1) cells each, and a k past ``_PLANE_TOP`` (1447) raises
ValueError before any table is built.

The line evaluator takes a stack of distributions at once, each row with
the numbers it would get alone: a sweep of the damping family computes
the binomial weights and kept counts once and evaluates its whole x grid
in blocks of bounded size.  Its mismatch column takes the grid's Kraus
operators as one stacked array (``qubit.damping_stack``), in blocks of
bounded size, and forms only the four Born cells a mismatch reads
(``qubit.born_cells``, entrywise 2x2 products over the whole block), the
floats that :func:`mismatch_probability` reads from a single channel's
Born table; both add them in one sum (``_mismatch_per_shot``).
Both grid functions return their columns as arrays, with no
:class:`MIResult` or :class:`MismatchProbability` per point.

Every binomial cell (the length weights, a line's cells given its count,
the plane's tables) is :func:`_binomial_cells`, normalised by its caller,
and every log2(1 + 2^x) (a line's table of log2(1 + rho^s), the plane's
h) is :func:`_log2_one_plus_exp2`.  The weights over 0..N, of the string
lengths or of a line's counts, are one table of N + 1 cells: an N past
``_LENGTH_CELLS - 1`` (16777215) raises ValueError before any table is
built.  A row with no moving axis builds no table, at any N.

All logarithms are base 2, so information is in bits and the one-bit
message bounds every result by 1.  0 * log 0 is 0 throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from sealsim.qubit import (
    ChannelValidation,
    KrausChannel,
    MeasurementBasis,
    MeasurementResult,
    ProtocolPureState,
    born_cells,
    born_table,
    damping_stack,
    damping_strengths,
    require_complete,
)

_DISTRIBUTION_TOL = 1e-12
# How far a computed mutual information may stray outside [0, 1] before it is an error.
_MI_TOL = 1e-12
DEFAULT_TAIL_TOL = 1e-12
# Cells of a line's block of (row, count, symbol count) cells, about
# 128 KiB; a block of the sweep's mismatch column holds as many operator
# entries.
_BLOCK_CELLS = 1 << 14
# Cells of one block of the plane's tables, about 512 KiB.
_PLANE_BLOCK_CELLS = 1 << 16
# Cells of one of the plane's whole tables, 32 MiB: the longest kept string
# length top has tables of (top + 1)(2 top + 1) cells, so top <= _PLANE_TOP.
_PLANE_CELLS = 1 << 22
_PLANE_TOP = (math.isqrt(8 * _PLANE_CELLS + 1) - 3) // 4
# Cells of a binomial table over 0..N (the string lengths' weights, or a
# line's counts), 128 MiB of doubles: N <= _LENGTH_CELLS - 1, which admits
# N = 10**7 and refuses 10**8.
_LENGTH_CELLS = 1 << 24
# The log of a zero weight: a finite stand-in for -inf past anything a
# table adds to it, so a cell that shows the symbol is an exact 0 and no
# cell forms inf - inf or 0 * inf.
_LOG_ZERO = -(2.0**64)
# The log of the smallest normal double: np.exp is about 100 times slower
# on a subnormal result, and 15 times on one that underflows.
_LOG_TINY = math.log(sys.float_info.min)
# |x| past this many bits is taken as this many in log2(1 + 2^-|x|): 2^-1000
# is still a normal double, and the term is then at most 1.4e-301 too large.
_CAPPED_BITS = 1000.0
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class AnnouncementDistribution:
    """Per-announcement probabilities over the four-symbol alphabet.

    ``probs_given_b[b]`` is the distribution of a single bit-announcement
    conditioned on message bit b, ordered as
    [(sigma1, c=0), (sigma1, c=1), (sigma3, c=0), (sigma3, c=1)].
    Flipping the message swaps the two c-values within each basis.
    """

    probs_given_b: tuple[tuple[float, float, float, float], tuple[float, float, float, float]]

    def __post_init__(self):
        rows = tuple(tuple(float(p) for p in row) for row in self.probs_given_b)
        if len(rows) != 2 or any(len(r) != 4 for r in rows):
            raise ValueError("expected two 4-vectors of probabilities")
        for row in rows:
            if any(p < -_DISTRIBUTION_TOL or p > 1.0 + _DISTRIBUTION_TOL for p in row):
                raise ValueError(f"probabilities out of range: {row}")
            if abs(sum(row) - 1.0) > _DISTRIBUTION_TOL:
                raise ValueError(f"probabilities must sum to 1: {row}")
        swapped = (rows[1][1], rows[1][0], rows[1][3], rows[1][2])
        if any(abs(a - b) > _DISTRIBUTION_TOL for a, b in zip(rows[0], swapped)):
            raise ValueError("distributions for the two message values must be c-swaps")
        object.__setattr__(self, "probs_given_b", rows)


@dataclass(frozen=True)
class MIResult:
    """Expected mutual information plus truncation diagnostics.

    ``mi_bits`` gets :func:`_checked_bits`' range check, message and clamp, in floats.
    """

    mi_bits: float
    k_terms_used: int
    truncation_mass: float

    def __post_init__(self):
        mi = float(self.mi_bits)
        if not -_MI_TOL <= mi <= 1.0 + _MI_TOL:
            raise _out_of_range(mi)
        object.__setattr__(self, "mi_bits", min(max(mi, 0.0), 1.0))


def _out_of_range(mi: float) -> ValueError:
    return ValueError(f"mutual information out of [0, 1]: {mi}")


def _checked_bits(mi) -> np.ndarray:
    """A column of mutual information, checked and clamped to [0, 1] as :class:`MIResult` does.

    Raises ValueError for the first value more than ``_MI_TOL`` outside
    [0, 1] (or NaN), and clamps each of the others as
    ``min(max(mi, 0.0), 1.0)`` does, which keeps -0.0.
    """
    mi = np.asarray(mi, dtype=float)
    inside = (mi >= -_MI_TOL) & (mi <= 1.0 + _MI_TOL)
    if not inside.all():
        raise _out_of_range(float(mi[~inside][0]))
    return np.where(mi < 0.0, 0.0, np.where(mi > 1.0, 1.0, mi))


@dataclass(frozen=True)
class StringCountClass:
    """Strings of k bit-announcements grouped by their sigma3 symbol counts.

    ``d3`` and ``d4`` count (sigma3, c=0) and (sigma3, c=1).  The two sigma1
    symbols are interchangeable for the damping family (equal probability 1/4
    under either message value), so only their total k - d3 - d4 matters.
    """

    k: int
    d3: int
    d4: int

    def __post_init__(self):
        if self.d3 < 0 or self.d4 < 0 or self.d3 + self.d4 > self.k:
            raise ValueError(f"invalid counts ({self.d3}, {self.d4}) for k={self.k}")

    @property
    def sigma1_count(self) -> int:
        return self.k - self.d3 - self.d4

    def string_count(self) -> int:
        """Number of distinct strings in this class.

        Multinomial placement of the symbol groups times 2 per sigma1 slot
        (either c-value).
        """
        n = math.factorial(self.k) // (
            math.factorial(self.d3) * math.factorial(self.d4) * math.factorial(self.sigma1_count)
        )
        return n * 2**self.sigma1_count


class MismatchProbability(NamedTuple):
    per_shot: float
    matched_basis_conditional: float


def _log_factorials(n: int) -> np.ndarray:
    table = np.zeros(n + 1)
    if n >= 2:
        table[2:] = np.cumsum(np.log(np.arange(2.0, n + 1.0)))
    return table


def bit_announcement_probs(
    eve: KrausChannel, report: ChannelValidation | None = None
) -> AnnouncementDistribution:
    """Single-announcement probabilities induced by the channel.

    Only the image of the maximally mixed state matters: with Bloch
    coordinates (lam, v) of that image,
    Pr(sigma_i, c=b | b) = (1 + lam*v_i)/4 and
    Pr(sigma_i, c!=b | b) = (1 - lam*v_i)/4 for i in {1, 3}.  ``report`` is
    the channel's :func:`validate_channel` report, when the caller has it.
    """
    bloch = require_complete(eve, report).chaotic_image
    r1 = bloch.lam * bloch.v[0]
    r3 = bloch.lam * bloch.v[2]
    given_0 = (0.25 * (1 + r1), 0.25 * (1 - r1), 0.25 * (1 + r3), 0.25 * (1 - r3))
    given_1 = (given_0[1], given_0[0], given_0[3], given_0[2])
    return AnnouncementDistribution((given_0, given_1))


def _unit_rows(probs) -> np.ndarray:
    """Distributions as a (rows, 4) array, each row divided by its exactly rounded sum."""
    probs = np.asarray(probs, dtype=float).reshape(-1, 4)
    return probs / np.fromiter(map(math.fsum, probs.tolist()), float, len(probs))[:, None]


def _log_weight(value: float) -> float:
    """The natural log of a non-negative weight, with ``_LOG_ZERO`` for a zero."""
    return math.log(value) if value > 0.0 else _LOG_ZERO


def _binomial_cells(n, log_a, log_c, log_factorials: np.ndarray) -> np.ndarray:
    """The binomial cells C(n, i) a^i c^(n-i) at i = 0..top, unnormalised, for counts ``n``.

    ``log_factorials`` holds log i! for i = 0..top, and ``n`` (at most top),
    ``log_a`` and ``log_c`` broadcast against the cell axis, which is last.
    A cell is exp((log n! - log i!) - log (n - i)! + i log a + (n - i) log c),
    summed in that order: an exact 0 past n, where log (n - i)! reads +inf,
    and wherever it would fall below the smallest normal double (where
    ``np.exp`` is slow).  A share of zero weight has the log ``_LOG_ZERO``,
    so every cell that shows it is an exact 0, and a cell of the other
    symbol alone (exponent 0 on the zero share) is exactly 1 when that
    share's log is 0.
    """
    top = len(log_factorials) - 1
    i = np.arange(top + 1)
    rest = n - i
    # log (n - i)! at index n - i, which wraps to a +inf past the end where i > n
    remainders = np.concatenate((log_factorials, np.full(top, np.inf)))
    # one expression, so numpy adds into its temporaries where the shapes allow
    cells = log_factorials[n] - log_factorials - remainders[rest] + i * log_a
    cells += rest * log_c
    normal = cells >= _LOG_TINY
    np.exp(cells, out=cells, where=normal)
    np.copyto(cells, 0.0, where=~normal)
    return cells


def _binomial_rows(
    low: int, high: int, log_factorials: np.ndarray, log_a, log_c
) -> np.ndarray:
    """Bin(i; n, a) at cells i = 0..top of each count n = low..high-1, each row scaled to sum to 1.

    ``log_a`` and ``log_c`` are floats or (t, 1, 1) arrays of t stacked
    binomials.  The cells are :func:`_binomial_cells`, and each row is
    divided by its own sum, one ``np.add.reduce`` for the stack, so the
    rounding of a + c and of log n! cancels.
    """
    cells = _binomial_cells(np.arange(low, high)[:, None], log_a, log_c, log_factorials)
    cells /= np.add.reduce(cells, axis=-1)[..., None]
    return cells


def _vote_cells(out: np.ndarray, low: int, rows: np.ndarray) -> None:
    """Write rows Bin(i; n, a), i = 0..top, of counts n = low.. into the net-vote table ``out``.

    ``out``, filled with 0 by the caller, is the flat (top+1)(2 top+1) cells
    of Pr(s | n), the net vote s = 2i - n at column s + top.  Cell (n, s)
    sits at index top + 2 top n + 2i, so the cells i = 0..top-1 go in as one
    strided copy, and a row's exact zeros past i = n land on cells that are
    0 anyway.  The one cell with i = top is (top, top).
    """
    top = rows.shape[1] - 1
    high = low + len(rows)
    out[top : top + 2 * top * (top + 1)].reshape(top + 1, 2 * top)[low:high, ::2] = rows[:, :top]
    if high == top + 1:
        out[-1] = rows[-1, top]


def _plane_tables(
    spare: np.ndarray, votes: np.ndarray, probs: np.ndarray, lengths: list[int], weights
) -> tuple[np.ndarray, np.ndarray]:
    """The plane's W at the start of ``spare``, B in ``votes`` and A's rows after W.

    W[m, j] = w_k Bin(m; k, mu) at k = m + j, mu the sigma1 mass and w_k = 0
    for a length not kept; B and A hold the sigma3 and sigma1 Bin(i; n, a),
    a the c = 0 share, B as a net-vote table (:func:`_vote_cells`).  Each
    block of counts, at most ``_PLANE_BLOCK_CELLS`` cells, takes its rows of
    all three from one stacked :func:`_binomial_rows`.  W is a (top+1, top+2)
    table without its last column: cell (m, k - m) sits at index
    k + m (top + 1), so a block's lengths go in as one strided copy, and a
    row's exact zeros past m = k land on cells with m + j > top.
    """
    top = lengths[-1]
    log_factorials, scale = _log_factorials(top), np.zeros(top + 1)
    scale[lengths] = weights
    sigma1, sigma3 = probs[0] + probs[1], probs[2] + probs[3]
    shares = ((sigma1, sigma3), probs[2:] / sigma3, probs[:2] / sigma1)
    log_a, log_c = (np.array([[[_log_weight(pair[side])]] for pair in shares]) for side in (0, 1))
    cells_w = (top + 1) * (top + 2)
    by_length = spare[: (top + 1) ** 2].reshape(top + 1, top + 1)
    spare[(top + 1) ** 2 : cells_w] = 0.0  # W's last row past m = top
    rows_a = spare[cells_w : cells_w + (top + 1) ** 2].reshape(top + 1, top + 1)
    votes.fill(0.0)
    step = max(1, _PLANE_BLOCK_CELLS // (3 * (top + 1)))
    for low in range(0, top + 1, step):
        high = min(low + step, top + 1)
        w, b, rows_a[low:high] = _binomial_rows(low, high, log_factorials, log_a, log_c)
        w *= scale[low:high, None]
        by_length[:, low:high] = w.T
        _vote_cells(votes, low, b)
    return spare[:cells_w].reshape(top + 1, top + 2)[:, : top + 1], rows_a


def _log_ratios(probs: np.ndarray, first: int, top: int) -> np.ndarray:
    """s log2(p(c=1) / p(c=0)) of one basis at each net vote s = -top..top.

    A symbol of zero weight gives a log ratio of about ``_LOG_ZERO`` / ln 2,
    so a vote it decides is far below any finite one.
    """
    ratio = (_log_weight(probs[first + 1]) - _log_weight(probs[first])) / _LN2
    return np.arange(-top, top + 1.0) * ratio


def _log2_one_plus_exp2(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """log2(1 + 2^x) in place of ``x``, which it returns; ``g`` is a buffer of x's shape.

    It is max(x, 0) + log2(1 + 2^-|x|), which never overflows, with |x|
    capped at ``_CAPPED_BITS``.  It is about 0 where x is about
    ``_LOG_ZERO`` and exactly 1 where x = 0.
    """
    np.abs(x, out=g)
    np.minimum(g, _CAPPED_BITS, out=g)
    np.negative(g, out=g)
    np.exp2(g, out=g)
    np.log1p(g, out=g)
    g /= _LN2
    np.maximum(x, 0.0, out=x)
    x += g
    return x


def _check_plane(top: int) -> None:
    """Raise ValueError when the plane's tables at longest string length ``top`` are over budget."""
    cells = (top + 1) * (2 * top + 1)
    if cells > _PLANE_CELLS:
        raise ValueError(
            f"expected MI with both bases tilted at string length {top} needs tables of "
            f"{cells} cells, over the limit of {_PLANE_CELLS} (string length {_PLANE_TOP}); "
            "lower N or p_announce"
        )


def _plane_blocks(top: int):
    """The blocks of Q's s1 columns: (low, high, u) with u the smallest |s1| of columns low..high-1.

    Each block holds at most ``_PLANE_BLOCK_CELLS`` cells of Q, or one column.
    """
    width = 2 * top + 1
    step = min(width, max(1, _PLANE_BLOCK_CELLS // width))
    for low in range(0, width, step):
        high = min(low + step, width)
        yield low, high, max(low - top, top + 1 - high, 0)


def _plane_expectation(probs: np.ndarray, lengths: list[int], weights: np.ndarray) -> float:
    """sum over the kept ``lengths`` of w_k I_k, in bits, for a row whose two bases both move.

    A basis is announced with probability its mass whatever the message is,
    so given the counts (m, j) of sigma1 and sigma3 announcements the net
    votes s1 and s3 are independent, and a string's likelihood ratio
    p0(-s) / p0(s) is rho1^s1 rho3^s3 = 2^x(s) at every length, with
    rho = p(c=1) / p(c=0) of each basis (:func:`_log_ratios`).  Flipping the
    message negates s, so I_k = 1 - sum_s P_k(s) h(s) with
    h(s) = log2(1 + 2^x(s)), and the sum over the kept lengths is
    sum_k w_k - <Q, h>, where the kept-length mixture of (s1, s3) is
    Q = A^T W B: W is the kept-length table, and A and B are the sigma1 and
    sigma3 net-vote tables (:func:`_plane_tables`).

    W, B and A's rows come from one stacked builder (:func:`_plane_tables`);
    R = W B is one product, and A is then written where B was.  Q is formed
    in the blocks of :func:`_plane_blocks`: a block whose smallest |s1| is u
    takes only the counts m >= u and the votes |s3| <= top - u, since
    A[m, s1] = 0 for m < |s1| and R[m, s3] = 0 for |s3| > top - m.  Each
    block's h (:func:`_log2_one_plus_exp2`) is formed first, in the buffer
    its Q then takes, and its <Q, h> is one ``np.add.reduce``; the blocks
    are added in order.

    Every table and block buffer of the call is a view of one buffer (W and
    A's rows wait in the block buffers).  The heap then keeps that memory
    from one call to the next; with a separate array each, the heap was
    trimmed after every call, and at (N, p_announce) = (119, 0.5) each call
    took about 280 page faults.
    """
    top = lengths[-1]
    _check_plane(top)
    width = 2 * top + 1
    blocks = list(_plane_blocks(top))
    block = max(high - low for low, high, _ in blocks) * width
    table = (top + 1) * width
    work = np.empty(2 * table + max(2 * block, (top + 1) * (2 * top + 3)))
    r, votes = work[:table].reshape(top + 1, width), work[table : 2 * table]
    spare = work[2 * table :]
    w, rows_a = _plane_tables(spare, votes, probs, lengths, weights)
    np.matmul(w, votes.reshape(top + 1, width), out=r)
    votes.fill(0.0)
    _vote_cells(votes, 0, rows_a)
    a = votes.reshape(top + 1, width)
    x1, x3 = _log_ratios(probs, 0, top), _log_ratios(probs, 2, top)
    buffers = spare[: 2 * block].reshape(2, block)
    total = 0.0
    for low, high, u in blocks:
        shape = (high - low, width - 2 * u)
        q, x = (v[: shape[0] * shape[1]].reshape(shape) for v in buffers)
        np.add(x1[low:high, None], x3[u : width - u], out=x)
        h = _log2_one_plus_exp2(x, q)
        np.matmul(a[u:, low:high].T, r[u:, u : width - u], out=q)
        q *= h
        total += float(np.add.reduce(q, axis=None))
    return float(np.add.reduce(weights)) - total


def _line_pairs(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, a, c) of each row with one moving basis: that basis' mass m and its two symbols over m.

    a is the larger symbol: flipping the sign of a basis' tilt swaps its two
    symbols, which leaves the information unchanged.
    """
    sigma1 = probs[:, 0] != probs[:, 1]
    pair = np.where(sigma1[:, None], probs[:, :2], probs[:, 2:])
    mass = pair[:, 0] + pair[:, 1]
    return mass, pair.max(axis=1) / mass, pair.min(axis=1) / mass


def _line_information(
    a: np.ndarray, c: np.ndarray, js: np.ndarray, stop: float
) -> tuple[np.ndarray, np.ndarray]:
    """J(j) in bits of each row at each of the ascending counts ``js``, and where each row stopped.

    J(j) = I(message : s) for the net vote s = 2i - j of j announcements in
    the moving basis, i of them the symbol of probability a given b = 0
    (a >= c, a + c = 1 up to rounding).  Flipping the message negates s, so
    J(j) = 1 - H(j) with H(j) = sum_i Bin(i; j, a) log2(1 + rho^(2i - j)) and
    rho = c / a.  The binomial cells are :func:`_binomial_cells`, and H is
    their weighted sum over their own sum, so the rounding of a + c and of
    log j! cancels.  log2(1 + rho^s) is :func:`_log2_one_plus_exp2` at
    s log2 rho, tabled once per row.  c = 0 is exact and never forms a
    cell: one announcement of the moving basis reveals the message, so
    J(j) = 1 for every j >= 1 (and J(0) = 0 in every row).

    Every count has the cells i = 0..max(js), those past j empty (an exact
    0), and each of its two sums is one ``np.add.reduce`` over them, so the
    blocks of counts, at most ``_BLOCK_CELLS`` cells each (at least one
    count), change no bit of J.

    J never decreases in j and never exceeds 1.  A row whose J reaches
    1 - ``stop`` at index t stops there: it reads 1 at every later index,
    and ``stops`` holds t (``len(js)`` for a row that never stops).
    """
    rows, count = len(a), len(js)
    info = np.empty((rows, count))
    stops = np.full(rows, count)
    exact = c == 0.0
    info[exact] = js > 0
    live = np.flatnonzero(~exact)
    if not live.size:
        return info, stops
    top = int(js[-1])
    i = np.arange(top + 1)
    log_factorials = _log_factorials(top)
    log_a, log_c = np.log(a[live]), np.log(c[live])
    # log2(1 + rho^s) at index s + top, for every s = 2i - j of a cell
    table = np.arange(-top, 2 * top + 1.0) * np.log2(c[live] / a[live])[:, None]
    _log2_one_plus_exp2(table, np.empty_like(table))
    first = 0
    while live.size and first < count:
        last = first + max(1, _BLOCK_CELLS // (live.size * (top + 1)))
        j = js[first:last, None]
        p = _binomial_cells(j, log_a[:, None, None], log_c[:, None, None], log_factorials)
        total = np.add.reduce(p, axis=-1)
        p *= np.take(table, 2 * i + (top - j), axis=1)
        block = 1.0 - np.add.reduce(p, axis=-1) / total
        info[live, first:last] = block
        reached = block >= 1.0 - stop
        done = reached.any(axis=1)
        if done.any():
            stops[live[done]] = first + reached[done].argmax(axis=1)
            live, log_a, log_c, table = (v[~done] for v in (live, log_a, log_c, table))
        first = last
    info[np.arange(count) > stops[:, None]] = 1.0
    return info, stops


def _line_expectation(
    probs: np.ndarray, n_shots: int, p_announce: float, tail_tol: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mi_bits, k_terms_used, truncation_mass) of each row of ``probs``, which has one moving basis.

    Each announcement is in the moving basis with probability m, that
    basis' mass, whatever the message is, so the count j of such
    announcements among N shots is Bin(N, p_announce m) and is ancillary;
    given j, the string carries J(j) bits (:func:`_line_information`).
    Hence E[I] = sum_j Bin(j; N, p_announce m) J(j), summed over the kept
    counts (the most likely, until the omitted mass drops below
    ``tail_tol``; ``k_terms_used`` is their number).  A row stops once its J
    comes within ``tail_tol`` of 1 and uses 1 at every larger count; the
    stop's error is at most (1 - J) at the stop times the kept mass past
    it, and ``truncation_mass`` is that bound plus the omitted mass.  With
    ``tail_tol`` None every count is kept and nothing stops short of J = 1.

    Rows of one m share the weights and are evaluated together in blocks of
    rows whose (rows, counts) information and tables fit ``_BLOCK_CELLS``;
    each row's sum over its counts is one ``np.add.reduce``, so a row's
    numbers do not depend on the other rows.
    """
    mass, a, c = _line_pairs(probs)
    mi, truncation = np.empty(len(probs)), np.empty(len(probs))
    terms = np.empty(len(probs), dtype=int)
    for value in sorted(set(mass.tolist())):
        group = np.flatnonzero(mass == value)
        if tail_tol is None:
            weights = _binomial_pmf(n_shots, p_announce * value)
            js, omitted, stop = np.arange(n_shots + 1), 0.0, 0.0
        else:
            weights, kept, omitted = _kept_lengths(n_shots, p_announce * value, tail_tol)
            js, stop = np.array(kept), tail_tol
        weights = weights[js]
        past = np.append(np.cumsum(weights[:0:-1])[::-1], 0.0)  # kept mass past each count
        block = max(1, _BLOCK_CELLS // max(len(js), 3 * int(js[-1]) + 1))
        for first in range(0, len(group), block):
            rows = group[first : first + block]
            info, stops = _line_information(a[rows], c[rows], js, stop)
            mi[rows] = np.add.reduce(info * weights, axis=1)
            bound = np.zeros(len(rows))
            cut = stops < len(js)
            bound[cut] = (1.0 - info[cut, stops[cut]]) * past[stops[cut]]
            truncation[rows] = omitted + bound
        terms[group] = len(js)
    return mi, terms, truncation


def _mi_at_length(probs: np.ndarray, k: int) -> float:
    """I(announcement string : message) in bits at length k of the one row of ``probs``.

    Both sums at N = k, p_announce = 1, with no truncation: a plane is its
    contraction at the one length k, a line its sum over the moving basis'
    count; a row with no moving axis reads exactly 0.
    """
    if k < 0:
        raise ValueError("string length must be non-negative")
    axes = int((probs[0, ::2] != probs[0, 1::2]).sum())
    if axes == 1:
        _check_lengths(k, string=True)
        return float(_line_expectation(probs, k, 1.0, None)[0][0])
    if axes == 2:
        return _plane_expectation(probs[0], [k], np.ones(1))
    return 0.0


def mutual_information_k(dist: AnnouncementDistribution, k: int) -> float:
    """I(announcement string : message) in bits for strings of length k.

    Evaluated on the net votes (s1, s3), which carry all of the string's
    information about the message.
    """
    return _mi_at_length(_unit_rows(dist.probs_given_b[0]), k)


def _check_lengths(n: int, string: bool = False) -> None:
    """Raise ValueError when a binomial table over 0..n is past ``_LENGTH_CELLS``.

    n is N, or with ``string`` the string length k of MI at one length, and
    the message names it so.
    """
    if n + 1 > _LENGTH_CELLS:
        name = "string length " if string else "N = "
        raise ValueError(
            f"{name}{n} needs a binomial table of {n + 1} cells, over the limit of "
            f"{_LENGTH_CELLS} ({name}{_LENGTH_CELLS - 1}); lower {'k' if string else 'N'}"
        )


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial weights for k = 0..n (:func:`_binomial_cells`), normalised to sum to 1.

    An n past the length table's cap raises ValueError before anything is allocated.
    """
    _check_lengths(n)
    log_q = math.log1p(-p) if p < 1.0 else _LOG_ZERO
    pmf = _binomial_cells(n, _log_weight(p), log_q, _log_factorials(n))
    return pmf / math.fsum(pmf.tolist())


def check_expectation(
    n_shots: int, p_announce: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> None:
    """Raise ValueError for arguments no binomially weighted sum accepts."""
    if n_shots < 1:
        raise ValueError("need at least one shot")
    if not 0.0 <= p_announce <= 1.0:
        raise ValueError(f"announcement probability must lie in [0, 1], got {p_announce}")
    if not 0.0 < tail_tol <= 1e-6:
        raise ValueError(f"tail tolerance must lie in (0, 1e-6], got {tail_tol}")


def _kept_lengths(
    n_shots: int, p_announce: float, tail_tol: float
) -> tuple[np.ndarray, list[int], float]:
    """Binomial weights, the ascending kept string lengths and the omitted mass.

    Keeps the most likely string lengths until the omitted mass drops below
    ``tail_tol``; depends on nothing but its three arguments.  An N past the
    length table's cap raises ValueError (:func:`_binomial_pmf`) before
    anything is allocated.
    """
    check_expectation(n_shots, p_announce, tail_tol)
    pmf = _binomial_pmf(n_shots, p_announce)
    order = np.argsort(-pmf, kind="stable")
    mass = np.cumsum(pmf[order])
    done = np.flatnonzero(1.0 - mass < tail_tol)
    kept = int(done[0]) + 1 if done.size else mass.size
    lengths = sorted(order[:kept].tolist())
    return pmf, lengths, float(max(1.0 - mass[kept - 1], 0.0))


def _expected_mi_rows(
    probs: np.ndarray, n_shots: int, p_announce: float, tail_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mi_bits, k_terms_used, truncation_mass) arrays of the rows of ``probs``.

    A line (one moving basis) is summed over its moving basis' count
    (:func:`_line_expectation`).  A plane row is summed over the string
    lengths that Bin(n_shots, p_announce) keeps (:func:`_plane_expectation`).
    A row with no moving axis leaks exactly 0 bits, keeps no term and
    truncates nothing.  ``mi_bits`` is not yet checked or clamped: a caller
    makes an :class:`MIResult` of a row or calls :func:`_checked_bits` on
    the column.
    """
    check_expectation(n_shots, p_announce, tail_tol)
    axes = (probs[:, ::2] != probs[:, 1::2]).sum(axis=1)
    mi, truncation = np.zeros(len(probs)), np.zeros(len(probs))
    terms = np.zeros(len(probs), dtype=int)
    line = np.flatnonzero(axes == 1)
    if line.size:
        mi[line], terms[line], truncation[line] = _line_expectation(
            probs[line], n_shots, p_announce, tail_tol
        )
    plane = np.flatnonzero(axes == 2)
    if plane.size:
        pmf, lengths, omitted = _kept_lengths(n_shots, p_announce, tail_tol)
        terms[plane], truncation[plane] = len(lengths), omitted
        for row in plane:
            mi[row] = _plane_expectation(probs[row], lengths, pmf[lengths])
    return mi, terms, truncation


def _mi_result(columns: tuple[np.ndarray, np.ndarray, np.ndarray]) -> MIResult:
    """The :class:`MIResult` of the one row of :func:`_expected_mi_rows`' columns."""
    mi, terms, truncation = (column.item() for column in columns)
    return MIResult(mi, terms, truncation)


def expected_mutual_information(
    dist: AnnouncementDistribution,
    n_shots: int,
    p_announce: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> MIResult:
    """Binomially weighted mutual information over announcement-string lengths.

    Returns sum_k Pr(k bit-announcements) * I(string of length k : message).
    On the plane (both bases tilted) it keeps string lengths in
    decreasing-probability order until the omitted binomial mass drops
    below ``tail_tol``, and sums them in closed form over the basis counts
    (:func:`_plane_expectation`); a longest kept length past
    ``_PLANE_TOP`` raises ValueError.  A line
    (one tilted basis) is the same sum over the count of announcements in
    that basis, with a saturation stop (:func:`_line_expectation`).
    ``truncation_mass`` bounds what is left out.
    """
    rows = _unit_rows(dist.probs_given_b[0])
    return _mi_result(_expected_mi_rows(rows, n_shots, p_announce, tail_tol))


def _damping_rows(xs) -> np.ndarray:
    """Announcement distributions given b = 0 of the damping family: r1 = 0, r3 = x.

    Raises for a strength outside [0, 1] (:func:`qubit.damping_strengths`).
    """
    xs = damping_strengths(xs)
    probs = np.full((len(xs), 4), 0.25)
    probs[:, 2] *= 1 + xs
    probs[:, 3] *= 1 - xs
    return _unit_rows(probs)


def seal_class_masses(
    x: float, k: int
) -> list[tuple[StringCountClass, float, float]]:
    """Class-total string probabilities for the damping family.

    The paper's explicit enumeration of symbol-count classes, kept as a
    reference; the evaluators work on net votes and do not call it.  For
    each symbol-count class, returns the total probability of all its
    strings conditioned on each message value: the class string count times
    (1/4)^k (1 +/- x)^d3 (1 -/+ x)^d4.  Summed over classes each column is 1.
    """
    damping_strengths([x])
    if k < 0:
        raise ValueError("string length must be non-negative")
    lf = _log_factorials(k)
    log_quarter = math.log(0.25)
    log_plus = math.log1p(x)
    log_minus = math.log1p(-x) if x < 1.0 else -math.inf
    log2 = math.log(2.0)

    out = []
    for d3 in range(k + 1):
        for d4 in range(k - d3 + 1):
            cls = StringCountClass(k, d3, d4)
            m = cls.sigma1_count
            log_mult = lf[k] - lf[d3] - lf[d4] - lf[m] + m * log2
            base = log_mult + k * log_quarter
            lp = base + (d3 * log_plus if d3 else 0.0) + (d4 * log_minus if d4 else 0.0)
            lq = base + (d3 * log_minus if d3 else 0.0) + (d4 * log_plus if d4 else 0.0)
            out.append((cls, math.exp(lp), math.exp(lq)))
    return out


def seal_mutual_information_k(x: float, k: int) -> float:
    """:func:`mutual_information_k` for the damping family at strength x.

    The sigma1 symbols are equally likely under both message values, so
    the information is a sum over the count of sigma3 announcements alone.
    """
    return _mi_at_length(_damping_rows([x]), k)


def seal_expected_mutual_information(
    x: float,
    n_shots: int,
    p_announce: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> MIResult:
    """:func:`expected_mutual_information` for the damping family at strength x."""
    return _mi_result(_expected_mi_rows(_damping_rows([x]), n_shots, p_announce, tail_tol))


def seal_expected_mutual_information_grid(
    x_grid,
    n_shots: int,
    p_announce: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`seal_expected_mutual_information` at every strength of ``x_grid``, as columns.

    Returns the arrays ``(mi_bits, k_terms_used, truncation_mass)``, one
    entry per strength (float, integer, float), and builds no
    :class:`MIResult`: ``mi_bits`` gets its range check and clamp as a
    whole column (:func:`_checked_bits`).  Every strength x > 0 tilts sigma3 alone, whose
    mass is 1/2, so the binomial weights and the kept counts of sigma3
    announcements are computed once, and the strengths are summed together
    in blocks of bounded size; x = 0 is the identity channel and sums
    nothing.  Each entry equals, bit for bit, the field the single-strength
    function gives.
    """
    mi, terms, truncation = _expected_mi_rows(_damping_rows(x_grid), n_shots, p_announce, tail_tol)
    return _checked_bits(mi), terms, truncation


_MISMATCH_EVENTS = (
    (ProtocolPureState.PLUS, MeasurementBasis.SIGMA1, MeasurementResult.MINUS),
    (ProtocolPureState.MINUS, MeasurementBasis.SIGMA1, MeasurementResult.PLUS),
    (ProtocolPureState.ZERO, MeasurementBasis.SIGMA3, MeasurementResult.MINUS),
    (ProtocolPureState.ONE, MeasurementBasis.SIGMA3, MeasurementResult.PLUS),
)
# The same events as (preparation, basis, result) indices of born_table, and
# as one index into it.
_MISMATCH_CELLS = tuple(
    tuple(list(type(member)).index(member) for member in event) for event in _MISMATCH_EVENTS
)
_MISMATCH_INDEX = tuple(np.array(_MISMATCH_CELLS).T)
# Complex entries of one two-operator channel's operator products over the
# four preparation states: a block of the mismatch grid takes
# _BLOCK_CELLS // _MISMATCH_ROW_CELLS channels.
_MISMATCH_ROW_CELLS = 32


def _mismatch_per_shot(probs: np.ndarray) -> np.ndarray:
    """The per-shot mismatch from Born cells of ``_MISMATCH_CELLS`` (last axis), in event order."""
    per_shot = np.zeros(probs.shape[:-1])
    for event in range(len(_MISMATCH_CELLS)):
        per_shot += 0.125 * probs[..., event]
    return per_shot


def mismatch_probability(
    eve: KrausChannel, report: ChannelValidation | None = None
) -> MismatchProbability:
    """Probability that a shot contradicts the receiver's preparation.

    ``per_shot`` averages the four contradiction events over the uniform
    preparation (1/4) and measurement (1/2) choices;
    ``matched_basis_conditional`` conditions on the basis having matched,
    which removes one factor of 1/2.  Unlike the announcement distribution,
    this depends on the channel's action on each pure state separately, not
    just on its action on the maximally mixed state.  ``report`` is the
    channel's :func:`validate_channel` report, when the caller has it; its
    Born table holds the cells read here, so no state is mapped again.
    """
    per_shot = float(_mismatch_per_shot(born_table(eve, report)[_MISMATCH_INDEX]))
    return MismatchProbability(per_shot, 2.0 * per_shot)


def seal_mismatch_probability_grid(x_grid) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mismatch_probability` of the damping channel at every strength of ``x_grid``, as columns.

    Returns the float arrays ``(per_shot, matched_basis_conditional)``, one
    entry per strength, and builds no :class:`MismatchProbability`.  The
    strengths' Kraus operators are built as one stack per block of at most
    ``_BLOCK_CELLS // _MISMATCH_ROW_CELLS`` strengths, and their Born cells
    go through the single-channel sum.  A strength whose channel keeps one
    operator has a zero second operator in the stack, which adds exact
    zeros, so each entry equals, bit for bit, the single-channel field.
    """
    xs = np.asarray(x_grid, dtype=float)
    per_shot = np.empty(len(xs))
    block = max(1, _BLOCK_CELLS // _MISMATCH_ROW_CELLS)
    for first in range(0, len(xs), block):
        rows = slice(first, first + block)
        per_shot[rows] = _mismatch_per_shot(born_cells(damping_stack(xs[rows]), _MISMATCH_CELLS))
    return per_shot, 2.0 * per_shot


def decode_success_probability(n_shots: int, p_announce: float) -> float:
    """Chance the receiver gets at least one usable announcement.

    A shot contributes a decoding vote when it is a bit-announcement (prob
    p_announce) on a matched basis (prob 1/2), so over an undisturbed run of
    N shots the receiver can decode with probability 1 - (1 - p_announce/2)^N.
    Read as the per-run decode probability; a per-shot reading would conflict
    with the matched-basis rate being exactly 1/2.
    """
    check_expectation(n_shots, p_announce)
    return 1.0 - (1.0 - 0.5 * p_announce) ** n_shots
