"""Closed-form eavesdropping analysis.

Computes what an eavesdropper's channel leaks about the message bit
(Shannon mutual information between the message and the string of coded
bit-announcements, averaged over string lengths with binomial weights) and
how much disturbance it causes (probability of a mismatch in the receiver's
channel check), for arbitrary Kraus channels and for the builtin damping
family.

A string's likelihood ratio between the two message values depends only on
its net vote per basis, s_i = #(sigma_i, c=0) - #(sigma_i, c=1), so the
string carries exactly as much information as the pair (s1, s3).  One
evaluator serves every channel: it walks string lengths upward on the
(s1, s3) lattice, convolving with the single-announcement distribution at
each step, and reads off the per-length information at the lengths the
binomial weighting keeps.  A basis whose two symbols are equally likely
carries no information, and its axis collapses: the damping family walks a
line, unital channels a single cell.

The walk allocates nothing per step.  The lattice lives in one flat buffer
sized for the longest kept length, with a buffer of products beside it: a
step is one multiply of the lattice's window by every move's weight and
one add per further move, each on a contiguous range (a line of the
damping family is three numpy calls a step), and a single cell's walk is
one ``np.multiply.accumulate``.  The lattice at each kept length is copied
into a store of at most ``_BLOCK_CELLS`` cells, and the logarithms of a
whole store are taken in one pass; each length's sum is still one
``np.add.reduce`` over its own cells.  Every result is, bit for bit, that
of the walk on growing arrays, one step and one length at a time.  Memory
is the lattice at the longest length k, about k^2 cells (2k + 1 on a line),
once for the lattice, once per move for its products (and, for a stack of
rows, per move for its weights), plus the store.

The evaluator walks a stack of distributions that share a collapse
pattern at once, each row with the numbers it would get alone.  A sweep
of the damping family computes the binomial weights and kept lengths once
and walks its whole x grid in blocks of bounded size.  Its mismatch
column takes the grid's Kraus operators as one stacked array
(``qubit.damping_stack``), in blocks of bounded size, and forms only the
four Born cells a mismatch reads (``qubit.born_cells``), the same
evaluator :func:`mismatch_probability` runs on a single channel.

All logarithms are base 2, so information is in bits and the one-bit
message bounds every result by 1.  0 * log 0 is 0 throughout.
"""

from __future__ import annotations

import bisect
import math
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
    damping_stack,
    require_complete,
    validate_channel,
)

_DISTRIBUTION_TOL = 1e-12
_DEFAULT_TAIL_TOL = 1e-12
# Lattice cells, at the longest kept length, of one block of rows walked
# together, and the cells of the store that kept lengths are read out from:
# a block's lattice, and each move's slab of products, take about 128 KiB.
_BLOCK_CELLS = 1 << 14
# Cells of arithmetic a walk step may spend beyond its lattice, so that a
# narrow walk re-slices its views every few steps: slicing a step's views
# costs about as much as a step's arithmetic on a few hundred cells.
_AHEAD_CELLS = 256


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
    """Expected mutual information plus truncation diagnostics."""

    mi_bits: float
    k_terms_used: int
    truncation_mass: float

    def __post_init__(self):
        if not -1e-12 <= self.mi_bits <= 1.0 + 1e-12:
            raise ValueError(f"mutual information out of [0, 1]: {self.mi_bits}")
        object.__setattr__(self, "mi_bits", min(max(self.mi_bits, 0.0), 1.0))


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
    if report is None:
        report = validate_channel(eve)
    if not report.passes:
        raise ValueError(
            f"channel {eve.label!r} fails completeness (deviation {report.deviation:.3e})"
        )
    bloch = report.chaotic_image
    r1 = bloch.lam * bloch.v[0]
    r3 = bloch.lam * bloch.v[2]
    given_0 = (0.25 * (1 + r1), 0.25 * (1 - r1), 0.25 * (1 + r3), 0.25 * (1 - r3))
    given_1 = (given_0[1], given_0[0], given_0[3], given_0[2])
    return AnnouncementDistribution((given_0, given_1))


def _unit_rows(probs) -> np.ndarray:
    """Distributions as a (rows, 4) array, each row divided by its exactly rounded sum."""
    probs = np.asarray(probs, dtype=float).reshape(-1, 4)
    return probs / np.fromiter(map(math.fsum, probs), float, len(probs))[:, None]


def _walk_moves(moving1: bool, moving3: bool) -> tuple[tuple[int, ...], ...]:
    """Each symbol's move on the lattice's moving axes, in symbol order.

    A basis whose two symbols are equally likely has a collapsed axis: it
    never grows, and its announcements are "stay" moves.  On a line (one
    moving axis) a symbol moves the net vote by +1, -1 or 0.  When neither
    axis collapses, s1 + s3 has the parity of k, and the lattice is kept in
    the coordinates u = (k + s1 + s3)/2, v = (k + s1 - s3)/2 so that no cell
    of the wrong parity is stored; a symbol moves (u, v) by 0 or 1 on each.
    With both axes collapsed the lattice is one cell, and every move stays.
    """
    if moving1 and moving3:
        return ((1, 1), (0, 0), (1, 0), (0, 1))
    if moving1:
        return ((1,), (-1,), (0,), (0,))
    if moving3:
        return ((0,), (0,), (1,), (-1,))
    return ((),) * 4


def _cells(axes: int, k: int) -> int:
    """Lattice cells of one row at length k, with ``axes`` moving axes."""
    return (2 * k + 1, (k + 1) ** 2)[axes - 1] if axes else 1


def _read_out(p: np.ndarray, ratio: np.ndarray, segments, out: np.ndarray) -> None:
    """I(s : message) in bits, less 1, of each segment of net-vote distributions given b = 0.

    ``ratio`` holds p0(s) + p0(-s) at the cells of ``p``, which holds p0(s);
    each (column, cells) segment is a (rows..., cells) view into ``ratio``
    whose sums go to that column of ``out``.  Flipping the message negates
    every net vote, so p1(s) = p0(-s), and the information is
    1 - H(message | s) with H = sum_s p0(s) log2((p0(s) + p0(-s)) / p0(s)).
    The ratio inside the log never has an underflowed divisor, and each
    term is non-negative, so the result never exceeds 1.  (Writing 1 as
    sum_s p0(s) gives the Jensen-Shannon form
    sum_s p0(s) log2(2 p0(s) / (p0(s) + p0(-s))); using the exact 1 keeps
    the lattice's rounded mass out of the result.)  Cells with p0(s) = 0
    add an exact 0 to their segment's sum, and each segment is one
    ``np.add.reduce``, so its summation order is that of its cells alone.
    """
    seen = p > 0.0
    if seen.all():
        np.divide(p, ratio, out=ratio)
        np.log2(ratio, out=ratio)
    else:
        # a cell with p0(s) = 0 keeps its finite p0(-s), and its term is 0
        np.divide(p, ratio, out=ratio, where=seen)
        np.log2(ratio, out=ratio, where=seen)
    ratio *= p
    by_column = out.T if len(out) > 1 else out[0]
    for column, cells in segments:
        by_column[column] = np.add.reduce(cells, axis=-1)


def _walk_cell(weight: np.ndarray, lengths: list[int], out: np.ndarray) -> None:
    """:func:`_mi_by_length` when both axes collapse: the lattice is one cell a row.

    Every move stays, so a step multiplies the cell by the row's total
    weight, and ``np.multiply.accumulate`` forms those products in the
    walk's order, in runs of at most ``_BLOCK_CELLS`` cells.  At s = 0,
    p0(s) / (p0(s) + p0(-s)) is exactly 1/2, so a row's information is
    exactly 1 - p0(0).
    """
    rows = len(weight)
    run = max(1, _BLOCK_CELLS // rows)
    cell = np.ones(rows)
    first = column = 0  # the length ``cell`` holds, and the next column to fill
    while column < len(lengths):
        steps = min(lengths[-1] - first, run)
        walked = np.empty((rows, steps + 1))
        walked[:, 0] = cell
        walked[:, 1:] = weight[:, None]
        np.multiply.accumulate(walked, axis=1, out=walked)
        stop = bisect.bisect_right(lengths, first + steps, column)
        out[:, column:stop] = walked[:, [k - first for k in lengths[column:stop]]]
        cell, first, column = walked[:, -1], first + steps, stop
    np.subtract(1.0, out, out=out)


def _walk_lattice(moves: dict, lengths: list[int], out: np.ndarray) -> None:
    """:func:`_mi_by_length` on a line or on the plane of (u, v).

    The lattice lives in one flat buffer, cells first and rows last, that
    holds the cells of the longest length and one empty cell on each side a
    move comes from: a line is centred on s = 0, and the plane is stored
    row by row, u = v = -1 first, so a move is a fixed shift of the flat
    index.  A step multiplies a window of the buffer by every move's weight
    at once, into one buffer of products (one slab per move), then adds the
    products shifted by their moves, in the order of ``moves``.  These are
    exactly the sums of a walk on growing arrays: a move that misses a cell
    adds w * 0 = +0 to a non-negative value, and a cell outside the lattice
    (on the plane, also the cells between its rows) only ever sums such
    zeros.  The window covers the lattice after the step and runs ahead of
    it by at most about ``_AHEAD_CELLS`` cells of arithmetic, so a narrow
    walk re-slices its views every few steps and a wide one every step.

    Each kept length's cells p0(s) and the sums p0(s) + p0(-s) are copied,
    row by row, into a store of at most ``_BLOCK_CELLS`` cells and read out
    a store at a time (:func:`_read_out`); a length whose cells alone
    overfill the store is read where it lies.
    """
    rows, top = out.shape[0], lengths[-1]
    axes = len(next(iter(moves)))
    lead = (rows,) if rows > 1 else ()  # a lone row walks without a row axis
    if axes == 1:
        size, growth = 2 * top + 3, 2
        shifts = [d for (d,) in moves]
    else:
        width = top + 2  # cells in a row of the plane
        size, growth = width * width, width + 1
        shifts = [du * width + dv for du, dv in moves]
    lattice = np.zeros((size,) + lead)
    # span(k): the flat range that holds the lattice at length k; cells(k): that lattice
    if axes == 1:

        def span(k: int) -> tuple[int, int]:
            return top + 1 - k, top + 2 + k

        def cells(k: int) -> np.ndarray:
            return lattice[top + 1 - k : top + 2 + k]
    else:
        plane = lattice.reshape((width, width) + lead)

        def span(k: int) -> tuple[int, int]:
            return width + 1, (k + 1) * width + k + 2

        def cells(k: int) -> np.ndarray:
            return plane[1 : k + 2, 1 : k + 2]

    lattice[span(0)[0]] = 1.0
    products = np.zeros((len(moves),) + lattice.shape)
    factors = np.array(list(moves.values())).reshape((len(moves), 1) + lead)
    if lead:  # one weight per cell, so no operand of the product broadcasts
        factors = np.repeat(factors, size, axis=1)
    rows_first = (axes, *range(axes))

    def views(k: int):
        """The step's views, for lattices that fit the window of length k."""
        lo, hi = span(k)
        scale = factors[:, lo:hi] if lead else factors
        shifted = [products[m, lo - d : hi - d] for m, d in enumerate(shifts)]
        return lattice[lo:hi], products[:, lo:hi], scale, shifted[0], shifted[1:]

    flip = (slice(None),) * len(lead) + (slice(None, None, -1),) * axes
    capacity = _BLOCK_CELLS // rows
    held = np.empty(lead + (capacity,))
    sums = np.empty(lead + (capacity,))
    pending: list = []
    used = 0
    k = reach = 0  # the length the lattice holds, and the one its window fits
    for column, target in enumerate(lengths):
        while k < target:
            if k == reach:
                reach = min(top, k + max(1, _AHEAD_CELLS // (rows * growth)))
                grown, made, scale, first, rest = views(reach)
            np.multiply(scale, grown, out=made)
            if rest:
                np.add(first, rest[0], out=grown)
                for more in rest[1:]:
                    np.add(grown, more, out=grown)
            else:
                np.copyto(grown, first)
            k += 1
        p = cells(k).transpose(rows_first) if lead else cells(k)
        count = p.size // rows
        if count > capacity:
            ratio = np.add(p, p[flip], order="C")
            _read_out(p, ratio, [(column, ratio.reshape(lead + (count,)))], out)
            continue
        if used + count > capacity:
            _read_out(held[..., :used], sums[..., :used], pending, out)
            pending.clear()
            used = 0
        kept, summed = held[..., used : used + count], sums[..., used : used + count]
        pending.append((column, summed))
        if axes == 2:
            kept, summed = kept.reshape(p.shape), summed.reshape(p.shape)
        kept[...] = p
        np.add(p, p[flip], out=summed)
        used += count
    if pending:
        _read_out(held[..., :used], sums[..., :used], pending, out)
    out += 1.0


def _mi_by_length(probs: np.ndarray, lengths: list[int]) -> np.ndarray:
    """I(announcement string : message) in bits at each of the ascending ``lengths``.

    ``probs`` is a (rows, 4) array of single-announcement distributions given
    b = 0 (from :func:`_unit_rows`) that share one collapse pattern; the
    result is (rows, len(lengths)), and each row's numbers are the ones it
    gets walking alone.  Walks k = 0, 1, ... up to the largest length on the
    lattice of net votes (s1, s3) of every row at once, convolving it at
    each step with the single-announcement distribution (see
    :func:`_walk_moves`); negating (s1, s3) reverses both lattice axes.
    Memory is rows times the lattice at the largest length, plus a store of
    ``_BLOCK_CELLS`` cells for the read-out.
    """
    if lengths[0] < 0:
        raise ValueError("string length must be non-negative")
    moving = probs[:, ::2] != probs[:, 1::2]
    if (moving != moving[0]).any():
        raise ValueError("rows must share one collapse pattern")
    symbol_moves = _walk_moves(*moving[0].tolist())
    # a symbol without positive weight adds exact zeros, in every row
    weights = np.maximum(probs, 0.0)
    taken = (weights > 0.0).any(axis=0).tolist()
    moves: dict[tuple[int, ...], np.ndarray] = {}
    for column, move in enumerate(symbol_moves):
        if taken[column]:
            weight = weights[:, column]
            moves[move] = moves[move] + weight if move in moves else weight

    out = np.empty((len(probs), len(lengths)))
    if not symbol_moves[0]:
        _walk_cell(moves.get((), np.zeros(len(probs))), lengths, out)
    else:
        _walk_lattice(moves, lengths, out)
    return out


def mutual_information_k(dist: AnnouncementDistribution, k: int) -> float:
    """I(announcement string : message) in bits for strings of length k.

    Evaluated on the net votes (s1, s3), which carry all of the string's
    information about the message.
    """
    return float(_mi_by_length(_unit_rows(dist.probs_given_b[0]), [k])[0, 0])


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial weights for k = 0..n via log factorials, normalised to sum to 1."""
    if p == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    k = np.arange(n + 1.0)
    lf = _log_factorials(n)
    log_pmf = lf[n] - lf[: n + 1] - lf[::-1] + k * math.log(p) + (n - k) * math.log1p(-p)
    pmf = np.exp(log_pmf)
    return pmf / math.fsum(pmf.tolist())


def _kept_lengths(
    n_shots: int, p_announce: float, tail_tol: float
) -> tuple[np.ndarray, list[int], float]:
    """Binomial weights, the ascending kept string lengths and the omitted mass.

    Keeps the most likely string lengths until the omitted mass drops below
    ``tail_tol``; depends on nothing but its three arguments.
    """
    if n_shots < 1:
        raise ValueError("need at least one shot")
    if not 0.0 <= p_announce <= 1.0:
        raise ValueError(f"announcement probability must lie in [0, 1], got {p_announce}")
    if not 0.0 < tail_tol <= 1e-6:
        raise ValueError(f"tail tolerance must lie in (0, 1e-6], got {tail_tol}")

    pmf = _binomial_pmf(n_shots, p_announce)
    order = np.argsort(-pmf, kind="stable")
    mass = np.cumsum(pmf[order])
    done = np.flatnonzero(1.0 - mass < tail_tol)
    kept = int(done[0]) + 1 if done.size else mass.size
    lengths = sorted(order[:kept].tolist())
    return pmf, lengths, float(max(1.0 - mass[kept - 1], 0.0))


def _expected_mi_rows(
    probs: np.ndarray, pmf: np.ndarray, lengths: list[int], truncation_mass: float
) -> list[MIResult]:
    """The binomially weighted information of each row of ``probs``.

    Rows of one collapse pattern walk together, in blocks of at most
    ``_BLOCK_CELLS`` lattice cells at the longest length (and at least one
    row), so memory does not grow with the number of rows.  Each row's sum
    runs over the kept lengths in ascending order, so a row's result does
    not depend on the other rows.
    """
    mi = np.empty(len(probs))
    moving = probs[:, ::2] != probs[:, 1::2]
    pattern = moving[:, 0] + 2 * moving[:, 1]
    for value in set(pattern.tolist()):
        rows = np.flatnonzero(pattern == value)
        cells = _cells(bool(value & 1) + bool(value & 2), lengths[-1])
        block = max(1, _BLOCK_CELLS // cells)
        for first in range(0, len(rows), block):
            chunk = rows[first : first + block]
            weighted = _mi_by_length(probs[chunk], lengths) * pmf[lengths]
            # accumulate adds the lengths one at a time, in ascending order
            mi[chunk] = np.add.accumulate(weighted, axis=1)[:, -1]
    return [MIResult(value, len(lengths), truncation_mass) for value in mi.tolist()]


def expected_mutual_information(
    dist: AnnouncementDistribution,
    n_shots: int,
    p_announce: float,
    tail_tol: float = _DEFAULT_TAIL_TOL,
) -> MIResult:
    """Binomially weighted mutual information over announcement-string lengths.

    Returns sum_k Pr(k bit-announcements) * I(string of length k : message),
    summing string lengths in decreasing-probability order until the omitted
    binomial mass drops below ``tail_tol`` (recorded as ``truncation_mass``).
    All kept lengths come from one walk up to the longest of them.
    """
    kept = _kept_lengths(n_shots, p_announce, tail_tol)
    return _expected_mi_rows(_unit_rows(dist.probs_given_b[0]), *kept)[0]


def _check_damping(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"damping strength must lie in [0, 1], got {x}")


def _damping_rows(xs) -> np.ndarray:
    """Announcement distributions given b = 0 of the damping family: r1 = 0, r3 = x."""
    xs = np.asarray(xs, dtype=float)
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
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"damping strength must lie in [0, 1], got {x}")
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
    the walk runs on the sigma3 net vote alone.
    """
    _check_damping(x)
    return float(_mi_by_length(_damping_rows([x]), [k])[0, 0])


def seal_expected_mutual_information(
    x: float,
    n_shots: int,
    p_announce: float,
    tail_tol: float = _DEFAULT_TAIL_TOL,
) -> MIResult:
    """:func:`expected_mutual_information` for the damping family at strength x."""
    _check_damping(x)
    kept = _kept_lengths(n_shots, p_announce, tail_tol)
    return _expected_mi_rows(_damping_rows([x]), *kept)[0]


def seal_expected_mutual_information_grid(
    x_grid,
    n_shots: int,
    p_announce: float,
    tail_tol: float = _DEFAULT_TAIL_TOL,
) -> list[MIResult]:
    """:func:`seal_expected_mutual_information` at every strength of ``x_grid``.

    The binomial weights and the kept lengths depend only on
    (n_shots, p_announce, tail_tol), so they are computed once, and the
    strengths x > 0 walk the sigma3 line together in blocks of bounded
    size.  x = 0 is the identity channel and leaks exactly 0 bits.  Each
    result equals, bit for bit, the one the single-strength function gives.
    """
    xs = [float(x) for x in x_grid]
    for x in xs:
        _check_damping(x)
    kept = _kept_lengths(n_shots, p_announce, tail_tol)
    _, lengths, truncation_mass = kept
    moving = [x for x in xs if x > 0.0]
    walked = iter(_expected_mi_rows(_damping_rows(moving), *kept) if moving else [])
    still = MIResult(0.0, len(lengths), truncation_mass)
    return [next(walked) if x > 0.0 else still for x in xs]


_MISMATCH_EVENTS = (
    (ProtocolPureState.PLUS, MeasurementBasis.SIGMA1, MeasurementResult.MINUS),
    (ProtocolPureState.MINUS, MeasurementBasis.SIGMA1, MeasurementResult.PLUS),
    (ProtocolPureState.ZERO, MeasurementBasis.SIGMA3, MeasurementResult.MINUS),
    (ProtocolPureState.ONE, MeasurementBasis.SIGMA3, MeasurementResult.PLUS),
)
# The same events as (preparation, basis, result) indices of born_table.
_MISMATCH_CELLS = tuple(
    tuple(list(type(member)).index(member) for member in event) for event in _MISMATCH_EVENTS
)
# Complex entries of one two-operator channel's operator products over the
# four preparation states: a block of the mismatch grid takes
# _BLOCK_CELLS // _MISMATCH_ROW_CELLS channels.
_MISMATCH_ROW_CELLS = 32


def _mismatch_per_shot(stacks: np.ndarray) -> np.ndarray:
    """The per-shot mismatch of each complete (..., m, 2, 2) operator stack, events summed in order."""
    probs = born_cells(stacks, _MISMATCH_CELLS)
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
    channel's :func:`validate_channel` report, when the caller has it.
    """
    require_complete(eve, report)
    per_shot = float(_mismatch_per_shot(eve.stack[None])[0])
    return MismatchProbability(per_shot, 2.0 * per_shot)


def seal_mismatch_probability_grid(x_grid) -> list[MismatchProbability]:
    """:func:`mismatch_probability` of the damping channel at every strength of ``x_grid``.

    The strengths' Kraus operators are built as one stack per block of at
    most ``_BLOCK_CELLS // _MISMATCH_ROW_CELLS`` strengths and go through
    the single-channel evaluator together.  A strength whose channel keeps
    one operator has a zero second operator in the stack, which adds exact
    zeros, so each result equals, bit for bit, the single-channel one.
    """
    xs = np.asarray(x_grid, dtype=float)
    per_shot = np.empty(len(xs))
    block = max(1, _BLOCK_CELLS // _MISMATCH_ROW_CELLS)
    for first in range(0, len(xs), block):
        rows = slice(first, first + block)
        per_shot[rows] = _mismatch_per_shot(damping_stack(xs[rows]))
    return [MismatchProbability(p, 2.0 * p) for p in per_shot.tolist()]


def decode_success_probability(n_shots: int, p_announce: float) -> float:
    """Chance the receiver gets at least one usable announcement.

    A shot contributes a decoding vote when it is a bit-announcement (prob
    p_announce) on a matched basis (prob 1/2), so over an undisturbed run of
    N shots the receiver can decode with probability 1 - (1 - p_announce/2)^N.
    Read as the per-run decode probability; a per-shot reading would conflict
    with the matched-basis rate being exactly 1/2.
    """
    if n_shots < 1:
        raise ValueError("need at least one shot")
    if not 0.0 <= p_announce <= 1.0:
        raise ValueError(f"announcement probability must lie in [0, 1], got {p_announce}")
    return 1.0 - (1.0 - 0.5 * p_announce) ** n_shots
