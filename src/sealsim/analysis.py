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

The plane (both axes moving) is walked: string lengths upward on the
(s1, s3) lattice, convolving with the single-announcement distribution at
each step, and reading off the per-length information at the lengths the
binomial weighting keeps; ``k_terms_used`` counts those lengths and
``truncation_mass`` is their omitted mass.  The walk takes one
distribution and allocates nothing per step.  The lattice lives in one
flat buffer sized for the longest kept length, with a buffer of products
beside it: a step is one multiply of the lattice's window by every move's
weight and one add per further move, each on a contiguous range.  The
lattice at each kept length is copied into a store of at most
``_BLOCK_CELLS`` cells, and the logarithms of a whole store are taken in
one pass; each length's sum is still one ``np.add.reduce`` over its own
cells.  Every result is, bit for bit, that of the walk on growing arrays,
one step and one length at a time.  Memory is the lattice at the longest
length k, about k^2 cells, once for the lattice and once per move for its
products, plus the store.

The line evaluator takes a stack of distributions at once, each row with
the numbers it would get alone: a sweep of the damping family computes
the binomial weights and kept counts once and evaluates its whole x grid
in blocks of bounded size.  Its mismatch column takes the grid's Kraus
operators as one stacked array (``qubit.damping_stack``), in blocks of
bounded size, and forms only the four Born cells a mismatch reads
(``qubit.born_cells``), the same evaluator :func:`mismatch_probability`
runs on a single channel.

All logarithms are base 2, so information is in bits and the one-bit
message bounds every result by 1.  0 * log 0 is 0 throughout.
"""

from __future__ import annotations

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
    damping_strengths,
    require_complete,
    validate_channel,
)

_DISTRIBUTION_TOL = 1e-12
DEFAULT_TAIL_TOL = 1e-12
# Cells of the store that a walk's kept lengths are read out from, about
# 128 KiB.  A line's block of counts holds as many (row, count, symbol
# count) cells, and the sweep's mismatch column as many operator entries.
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


# The plane's moves, in symbol order, in the coordinates u = (k + s1 + s3)/2,
# v = (k + s1 - s3)/2: s1 + s3 has the parity of k, so no cell of the wrong
# parity is stored, and a symbol moves (u, v) by 0 or 1 on each.
_PLANE_MOVES = ((1, 1), (0, 0), (1, 0), (0, 1))


def _read_out(p: np.ndarray, ratio: np.ndarray, segments, out: np.ndarray) -> None:
    """I(s : message) in bits, less 1, of each segment of net-vote distributions given b = 0.

    ``ratio`` holds p0(s) + p0(-s) at the cells of ``p``, which holds p0(s);
    each (index, cells) segment is a view into ``ratio`` whose sum goes to
    that index of ``out``.  Flipping the message negates every net vote, so
    p1(s) = p0(-s), and the information is 1 - H(message | s) with
    H = sum_s p0(s) log2((p0(s) + p0(-s)) / p0(s)).  The ratio inside the
    log never has an underflowed divisor, and each term is non-negative, so
    the result never exceeds 1.  (Writing 1 as sum_s p0(s) gives the
    Jensen-Shannon form sum_s p0(s) log2(2 p0(s) / (p0(s) + p0(-s))); using
    the exact 1 keeps the lattice's rounded mass out of the result.)  Cells
    with p0(s) = 0 add an exact 0 to their segment's sum, and each segment
    is one ``np.add.reduce``, so its summation order is that of its cells
    alone.
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
    for index, cells in segments:
        out[index] = np.add.reduce(cells)


def _walk_lattice(moves: dict, lengths: list[int], out: np.ndarray) -> None:
    """:func:`_mi_by_length` of one distribution on the plane of (u, v).

    The lattice lives in one flat buffer that holds the cells of the
    longest length and one empty cell on each side a move comes from: the
    plane is stored row by row, u = v = -1 first, so a move is a fixed
    shift of the flat index.  A step multiplies a window of the buffer by
    every move's weight at once, into one buffer of products (one slab per
    move), then adds the products shifted by their moves, in the order of
    ``moves``.  These are exactly the sums of a walk on growing arrays: a
    move that misses a cell adds w * 0 = +0 to a non-negative value, and a
    cell outside the lattice (also the cells between its rows) only ever
    sums such zeros.  The window covers the lattice after the step and runs
    ahead of it by at most about ``_AHEAD_CELLS`` cells of arithmetic, so a
    narrow walk re-slices its views every few steps and a wide one every
    step.

    Each kept length's cells p0(s) and the sums p0(s) + p0(-s) are copied
    into a store of at most ``_BLOCK_CELLS`` cells and read out a store at
    a time (:func:`_read_out`); a length whose cells alone overfill the
    store is read where it lies.
    """
    top = lengths[-1]
    width = top + 2  # cells in a row of the plane
    shifts = [du * width + dv for du, dv in moves]
    lattice = np.zeros(width * width)
    plane = lattice.reshape(width, width)

    def span(k: int) -> tuple[int, int]:
        """The flat range that holds the lattice at length k."""
        return width + 1, (k + 1) * width + k + 2

    lattice[span(0)[0]] = 1.0
    products = np.zeros((len(moves),) + lattice.shape)
    factors = np.array(list(moves.values())).reshape(len(moves), 1)

    def views(k: int):
        """The step's views, for lattices that fit the window of length k."""
        lo, hi = span(k)
        shifted = [products[m, lo - d : hi - d] for m, d in enumerate(shifts)]
        return lattice[lo:hi], products[:, lo:hi], shifted[0], shifted[1:]

    held = np.empty(_BLOCK_CELLS)
    sums = np.empty(_BLOCK_CELLS)
    pending: list = []
    used = 0
    k = reach = 0  # the length the lattice holds, and the one its window fits
    for index, target in enumerate(lengths):
        while k < target:
            if k == reach:
                reach = min(top, k + max(1, _AHEAD_CELLS // (width + 1)))
                grown, made, first, rest = views(reach)
            np.multiply(factors, grown, out=made)
            np.add(first, rest[0], out=grown)
            for more in rest[1:]:
                np.add(grown, more, out=grown)
            k += 1
        p = plane[1 : k + 2, 1 : k + 2]
        if p.size > _BLOCK_CELLS:
            ratio = np.add(p, p[::-1, ::-1], order="C")
            _read_out(p, ratio, [(index, ratio.ravel())], out)
            continue
        if used + p.size > _BLOCK_CELLS:
            _read_out(held[:used], sums[:used], pending, out)
            pending.clear()
            used = 0
        kept, summed = held[used : used + p.size], sums[used : used + p.size]
        pending.append((index, summed))
        kept.reshape(p.shape)[...] = p
        np.add(p, p[::-1, ::-1], out=summed.reshape(p.shape))
        used += p.size
    if pending:
        _read_out(held[:used], sums[:used], pending, out)
    out += 1.0


def _mi_by_length(probs: np.ndarray, lengths: list[int]) -> np.ndarray:
    """I(announcement string : message) in bits at each of the ascending ``lengths``, on the plane.

    ``probs`` is one single-announcement distribution given b = 0, a row of
    :func:`_unit_rows`, whose bases both move, or neither.  Walks
    k = 0, 1, ... up to the largest length on the lattice of net votes
    (s1, s3), convolving it at each step with the single-announcement
    distribution (see ``_PLANE_MOVES``); negating (s1, s3) reverses both
    lattice axes.  Memory is the lattice at the largest length, plus a store
    of ``_BLOCK_CELLS`` cells for the read-out.  A distribution with no
    moving axis gives both message values one string distribution, so it
    reads exactly 0.  A line (one moving axis) is not walked: see
    :func:`_line_expectation`.
    """
    if lengths[0] < 0:
        raise ValueError("string length must be non-negative")
    moving = probs[::2] != probs[1::2]
    out = np.zeros(len(lengths))
    if not moving.any():
        return out
    if not moving.all():
        raise ValueError("a line is summed over its moving basis' count, not walked")
    # a symbol without positive weight adds exact zeros
    moves = {move: w for move, w in zip(_PLANE_MOVES, probs.tolist()) if w > 0.0}
    _walk_lattice(moves, lengths, out)
    return out


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
    rho = c / a.  The binomial cells are exp((log j! - log i!) - log (j - i)!
    + i ln a + (j - i) ln c), and H is their weighted sum over their own
    sum, so the rounding of a + c and of log j! cancels.
    log2(1 + rho^s) is np.logaddexp2(0, s log2 rho), which never overflows,
    tabled once per row.  c = 0 is exact: one announcement of the moving
    basis reveals the message, so J(j) = 1 for every j >= 1 (and J(0) = 0
    in every row).

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
    # log (j - i)! at index j - i + top: +inf where i > j, so that cell is empty
    log_remainders = np.concatenate((np.full(top, np.inf), log_factorials))
    log_a, log_c = np.log(a[live]), np.log(c[live])
    # log2(1 + rho^s) at index s + top, for every s = 2i - j of a cell
    table = np.logaddexp2(0.0, np.arange(-top, 2 * top + 1.0) * np.log2(c[live] / a[live])[:, None])
    first = 0
    while live.size and first < count:
        last = first + max(1, _BLOCK_CELLS // (live.size * (top + 1)))
        j = js[first:last, None]
        k = j - i
        p = log_factorials[j] - log_factorials[i] - log_remainders[k + top]
        p = p + i * log_a[:, None, None]
        p += k * log_c[:, None, None]
        np.exp(p, out=p)
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

    The plane is walked; a line is its sum over the moving basis' count at
    N = k, p_announce = 1, with no truncation; a row with no moving axis
    reads exactly 0.
    """
    if k < 0:
        raise ValueError("string length must be non-negative")
    axes = int((probs[0, ::2] != probs[0, 1::2]).sum())
    if axes == 1:
        return float(_line_expectation(probs, k, 1.0, None)[0][0])
    return float(_mi_by_length(probs[0], [k])[0])


def mutual_information_k(dist: AnnouncementDistribution, k: int) -> float:
    """I(announcement string : message) in bits for strings of length k.

    Evaluated on the net votes (s1, s3), which carry all of the string's
    information about the message.
    """
    return _mi_at_length(_unit_rows(dist.probs_given_b[0]), k)


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
    ``tail_tol``; depends on nothing but its three arguments.
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
) -> list[MIResult]:
    """The binomially weighted information of each row of ``probs``.

    A line (one moving basis) is summed over its moving basis' count
    (:func:`_line_expectation`).  A plane row walks the string lengths that
    Bin(n_shots, p_announce) keeps, and its sum runs over them in ascending
    order.  A row with no moving axis leaks exactly 0 bits, keeps no term
    and truncates nothing.
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
            # accumulate adds the lengths one at a time, in ascending order
            mi[row] = np.add.accumulate(_mi_by_length(probs[row], lengths) * pmf[lengths])[-1]
    return [MIResult(*row) for row in zip(mi.tolist(), terms.tolist(), truncation.tolist())]


def expected_mutual_information(
    dist: AnnouncementDistribution,
    n_shots: int,
    p_announce: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> MIResult:
    """Binomially weighted mutual information over announcement-string lengths.

    Returns sum_k Pr(k bit-announcements) * I(string of length k : message).
    On the plane (both bases tilted) it sums string lengths in
    decreasing-probability order until the omitted binomial mass drops
    below ``tail_tol``, all from one walk up to the longest of them.  A line
    (one tilted basis) is the same sum over the count of announcements in
    that basis, with a saturation stop (:func:`_line_expectation`).
    ``truncation_mass`` bounds what is left out.
    """
    return _expected_mi_rows(_unit_rows(dist.probs_given_b[0]), n_shots, p_announce, tail_tol)[0]


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
    return _expected_mi_rows(_damping_rows([x]), n_shots, p_announce, tail_tol)[0]


def seal_expected_mutual_information_grid(
    x_grid,
    n_shots: int,
    p_announce: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> list[MIResult]:
    """:func:`seal_expected_mutual_information` at every strength of ``x_grid``.

    Every strength x > 0 tilts sigma3 alone, whose mass is 1/2, so the
    binomial weights and the kept counts of sigma3 announcements are
    computed once, and the strengths are summed together in blocks of
    bounded size; x = 0 is the identity channel and sums nothing.  Each
    result equals, bit for bit, the one the single-strength function gives.
    """
    return _expected_mi_rows(_damping_rows(x_grid), n_shots, p_announce, tail_tol)


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
    check_expectation(n_shots, p_announce)
    return 1.0 - (1.0 - 0.5 * p_announce) ** n_shots
