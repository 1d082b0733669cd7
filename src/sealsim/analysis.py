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
line, unital channels a single cell.  Memory is O(k^2) at length k (O(k)
on a line).

All logarithms are base 2, so information is in bits and the one-bit
message bounds every result by 1.  0 * log 0 is 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from sealsim.qubit import (
    KrausChannel,
    MeasurementBasis,
    MeasurementResult,
    ProtocolPureState,
    measurement_prob,
    preparation_images,
    validate_channel,
)

_DISTRIBUTION_TOL = 1e-12
_DEFAULT_TAIL_TOL = 1e-12


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


def bit_announcement_probs(eve: KrausChannel) -> AnnouncementDistribution:
    """Single-announcement probabilities induced by the channel.

    Only the image of the maximally mixed state matters: with Bloch
    coordinates (lam, v) of that image,
    Pr(sigma_i, c=b | b) = (1 + lam*v_i)/4 and
    Pr(sigma_i, c!=b | b) = (1 - lam*v_i)/4 for i in {1, 3}.
    """
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


def _lattice_mi(p0: np.ndarray) -> float:
    """I(s : message) in bits from the net-vote distribution given b = 0.

    Flipping the message negates every net vote, so p1(s) = p0(-s), and the
    information is 1 - H(message | s) with
    H = sum_s p0(s) log2((p0(s) + p0(-s)) / p0(s)).  The ratio inside the log
    never has an underflowed divisor, and each term is non-negative, so the
    result never exceeds 1.  (Writing 1 as sum_s p0(s) gives the
    Jensen-Shannon form sum_s p0(s) log2(2 p0(s) / (p0(s) + p0(-s))); using
    the exact 1 keeps the lattice's rounded mass out of the result.)
    """
    seen = p0 > 0.0
    p = p0[seen]
    q = p0[::-1, ::-1][seen]
    return 1.0 + float(np.sum(p * np.log2(p / (p + q))))


def _mi_by_length(dist: AnnouncementDistribution, lengths: list[int]) -> list[float]:
    """I(announcement string : message) in bits at each of the ascending ``lengths``.

    Walks k = 0, 1, ... up to the largest length on the lattice of net votes
    (s1, s3), convolving it at each step with the single-announcement
    distribution.  Each of the four symbols moves the walk by a fixed offset
    while the lattice grows by ``grow`` per step, and negating (s1, s3)
    reverses both lattice axes.  A basis whose two symbols are equally likely
    has a collapsed axis: it never grows, and its announcements are "stay"
    steps.  When neither axis collapses, s1 + s3 has the parity of k, and the
    lattice is kept in the coordinates u = (k + s1 + s3)/2, v = (k + s1 - s3)/2
    so that no cell of the wrong parity is stored.
    """
    if lengths[0] < 0:
        raise ValueError("string length must be non-negative")
    probs = np.array(dist.probs_given_b[0]) / math.fsum(dist.probs_given_b[0])
    moving1, moving3 = int(probs[0] != probs[1]), int(probs[2] != probs[3])
    if moving1 and moving3:
        grow, offsets = (1, 1), ((1, 1), (0, 0), (1, 0), (0, 1))
    else:
        # cell [i, j] is (s1, s3) = (i - k, j - k) on a moving axis, 0 on a collapsed one
        grow = (2 * moving1, 2 * moving3)
        offsets = ((2 * moving1, moving3), (0, moving3), (moving1, 2 * moving3), (moving1, 0))
    moves: dict[tuple[int, int], float] = {}
    for weight, offset in zip(probs, offsets):
        if weight > 0.0:
            moves[offset] = moves.get(offset, 0.0) + float(weight)

    lattice = np.ones((1, 1))
    out = []
    k = 0
    for target in lengths:
        while k < target:
            n1, n3 = lattice.shape
            step = np.zeros((n1 + grow[0], n3 + grow[1]))
            for (o1, o3), weight in moves.items():
                step[o1 : o1 + n1, o3 : o3 + n3] += weight * lattice
            lattice = step
            k += 1
        out.append(_lattice_mi(lattice))
    return out


def mutual_information_k(dist: AnnouncementDistribution, k: int) -> float:
    """I(announcement string : message) in bits for strings of length k.

    Evaluated on the net votes (s1, s3), which carry all of the string's
    information about the message.
    """
    return _mi_by_length(dist, [k])[0]


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
    return pmf / math.fsum(pmf)


def _expected_mi(
    dist: AnnouncementDistribution, n_shots: int, p_announce: float, tail_tol: float
) -> MIResult:
    if n_shots < 1:
        raise ValueError("need at least one shot")
    if not 0.0 <= p_announce <= 1.0:
        raise ValueError(f"announcement probability must lie in [0, 1], got {p_announce}")
    if not 0.0 < tail_tol <= 1e-6:
        raise ValueError(f"tail tolerance must lie in (0, 1e-6], got {tail_tol}")

    pmf = _binomial_pmf(n_shots, p_announce)
    # keep the most likely string lengths until the omitted mass is negligible
    order = np.argsort(-pmf, kind="stable")
    mass = np.cumsum(pmf[order])
    done = np.flatnonzero(1.0 - mass < tail_tol)
    kept = int(done[0]) + 1 if done.size else mass.size
    lengths = sorted(int(k) for k in order[:kept])
    # fixed ascending-k summation order for bitwise reproducibility
    mi = 0.0
    for k, mi_k in zip(lengths, _mi_by_length(dist, lengths)):
        mi += float(pmf[k]) * mi_k
    return MIResult(mi, kept, float(max(1.0 - mass[kept - 1], 0.0)))


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
    return _expected_mi(dist, n_shots, p_announce, tail_tol)


def _damping_distribution(x: float) -> AnnouncementDistribution:
    """Announcement distribution of the damping family: r1 = 0, r3 = x."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"damping strength must lie in [0, 1], got {x}")
    given_0 = (0.25, 0.25, 0.25 * (1 + x), 0.25 * (1 - x))
    return AnnouncementDistribution((given_0, (given_0[1], given_0[0], given_0[3], given_0[2])))


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
    return _mi_by_length(_damping_distribution(x), [k])[0]


def seal_expected_mutual_information(
    x: float,
    n_shots: int,
    p_announce: float,
    tail_tol: float = _DEFAULT_TAIL_TOL,
) -> MIResult:
    """:func:`expected_mutual_information` for the damping family at strength x."""
    return _expected_mi(_damping_distribution(x), n_shots, p_announce, tail_tol)


_MISMATCH_EVENTS = (
    (ProtocolPureState.PLUS, MeasurementBasis.SIGMA1, MeasurementResult.MINUS),
    (ProtocolPureState.MINUS, MeasurementBasis.SIGMA1, MeasurementResult.PLUS),
    (ProtocolPureState.ZERO, MeasurementBasis.SIGMA3, MeasurementResult.MINUS),
    (ProtocolPureState.ONE, MeasurementBasis.SIGMA3, MeasurementResult.PLUS),
)


def mismatch_probability(eve: KrausChannel) -> MismatchProbability:
    """Probability that a shot contradicts the receiver's preparation.

    ``per_shot`` averages the four contradiction events over the uniform
    preparation (1/4) and measurement (1/2) choices;
    ``matched_basis_conditional`` conditions on the basis having matched,
    which removes one factor of 1/2.  Unlike the announcement distribution,
    this depends on the channel's action on each pure state separately, not
    just on its action on the maximally mixed state.
    """
    images = preparation_images(eve)
    per_shot = 0.0
    for prep, basis, result in _MISMATCH_EVENTS:
        per_shot += 0.125 * measurement_prob(images[prep], basis, result)
    return MismatchProbability(per_shot, 2.0 * per_shot)


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
