"""Shot-level state machine of the sealed-message protocol.

One shot: the message receiver prepares one of four pure states uniformly at
random and sends the particle; an eavesdropper's channel may act in transit;
the message sender measures sigma1 or sigma3 uniformly at random, announces
the basis, then with probability ``p_announce`` announces a coded bit (the
message bit, flipped when her result was -1) and otherwise announces the raw
result.  Roles are fixed: the particle flows from the message receiver to
the message sender, and only announcements flow back.

The module also provides the receiver's decoding and mismatch accounting and
a seeded Monte Carlo harness.  Randomness contract: a run is a pure function
of (params, channel, stream); Monte Carlo trial t uses stream t, which is
numpy's PCG64 seeded by ``SeedSequence(entropy=seed, spawn_key=(t,))`` and
read through a ``Generator``, so trials can run in any order or in parallel
without changing anything.  A run draws its four variate columns from its
stream in one fixed order: preparations, bases, result variates,
announcement-type variates, N of each.

One column source computes those columns from the stream's raw 64-bit
words, with no ``Generator``: the first N words hold 2N uint32 halves, low
half first, whose top two bits (halves [0, N)) are the preparations and top
bit (halves [N, 2N)) the bases; words [N, 2N) and [2N, 3N) give the result
and announcement variates, whose ``Generator`` doubles are
``(word >> 11) * 2**-53``.  The preparations and bases are read as bytes,
from the top byte of each little-endian half.  Each stream's
``SeedSequence`` words are derived for a chunk of streams at a time in
uint32 array operations; the chunk's array is checked once, and each row
is handed to numpy's ``PCG64``, which forms its state from them in C as it
does from the ``SeedSequence`` itself.  The tests compare the source with
the columns numpy's own ``Generator`` draws.

No variate is turned into a double.  A shot's result is +1 when its
variate falls below Pr(+1), and it is a bit-announcement when its other
variate falls below ``p_announce``; both compare the 53-bit integer
``word >> 11`` with the integer threshold ``ceil(p * 2**53)``, which for
every double p in [0, 1] is true exactly when ``(word >> 11) * 2**-53 < p``
is.

The engine is columnar.  A shot becomes one of 64 keys, a byte each, one
for each value a ``ShotRecord`` can take: preparation, basis, whether the
result was -1, announcement kind and announced value.  Only the two
variate compares read 64-bit words; the rest of the key is built in
bytes.  One tally turns a block of runs -- one row of keys per run --
into per-run counts of bit-announcements, votes, usable
result-announcements and mismatches, with a histogram per row and a table
of what each key contributes.  One engine reads and keys every run: it
fills a reused block of about ``_BLOCK_CELLS`` shots with consecutive
runs, each from its own stream, and tallies it.  A run longer
than the block is keyed and tallied in chunks of shots, each read from its
offset in the stream, and its counts are summed before it is decoded, so
memory grows with neither the trial count nor N.  Blocking only batches
the tally, so counts do not depend on the block size; ``monte_carlo``
adds each block's count columns once and counts its decodes from the
tally's one decode rule.

A run's shots leave the engine as one key column, a byte a shot, written
chunk by chunk when the caller asks for it.  ``run_keys`` returns a run's keys and its
outcome; ``monte_carlo`` writes trial 0's keys into an array the caller
passes, so ``simulate --transcript`` reads and keys stream 0 once, in the
pass that tallies it.  ``write_transcripts`` writes both transcript files,
the full one and its public projection, from that column, so the command
builds no per-shot object and reads no key back.  Every record carries its
key, computed once when it is made, and the 64 records, their public
(basis, announcement) entries and their transcript fields are tables
indexed by key.  ``run_protocol`` picks a run's records and public
entries from those tables by its key column; ``bob_decode``,
``tally_mismatches``, ``export_transcript`` and ``transcript_lines`` read
the keys of the records they are given, so a hand-built record counts and
prints like any other.

A transcript is built as bytes with no Python work per line, and streamed
in chunks of ``_BLOCK_CELLS`` lines, so its memory does not grow with N.
A chunk's shot indices are fixed-width byte strings, NUL-padded on the
left: the last four digits are rows of a table of 0 .. 9999, the ones
before them the digits of ``index // 10**4``.  A table of 64 fixed-width
byte strings holds each key's ``",<fields>\n"``, padded with NUL.  Each
line is one (index, fields) record over a byte buffer, and the padding is
deleted from the buffer.  A file is the comments and the header, then its
chunks, written atomically, and ``transcript_lines`` is the header
followed by their lines.  ``write_transcripts`` writes the full file, then
the public one, so the public file is renamed only once the full one is
in place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from sealsim.qubit import (
    ChannelValidation,
    KrausChannel,
    MeasurementBasis,
    MeasurementResult,
    ProtocolPureState,
    born_table,
)
from sealsim.textfile import write_atomic

# Fixed ordering of the four bit-announcement symbols used everywhere
# frequencies or probabilities are reported as 4-vectors.
BIT_ANNOUNCEMENT_ALPHABET: tuple[tuple[MeasurementBasis, int], ...] = (
    (MeasurementBasis.SIGMA1, 0),
    (MeasurementBasis.SIGMA1, 1),
    (MeasurementBasis.SIGMA3, 0),
    (MeasurementBasis.SIGMA3, 1),
)

# Shots per block of the Monte Carlo: whole runs, at least one, or a chunk
# of a longer run; also lines per chunk of a transcript file.  Each block
# costs a few dozen array calls whatever its size, which a block of this
# size makes a small part of a trial's cost next to reading its stream.
_BLOCK_CELLS = 1 << 13

_STATES = tuple(ProtocolPureState)
_BASES = (MeasurementBasis.SIGMA1, MeasurementBasis.SIGMA3)
_RESULTS = (MeasurementResult.PLUS, MeasurementResult.MINUS)
_STATE_INDEX = {s: i for i, s in enumerate(_STATES)}
_BASIS_INDEX = {b: i for i, b in enumerate(_BASES)}

# the basis whose eigenstates include the preparation
_MATCHING_BASIS = {
    ProtocolPureState.ZERO: MeasurementBasis.SIGMA3,
    ProtocolPureState.ONE: MeasurementBasis.SIGMA3,
    ProtocolPureState.PLUS: MeasurementBasis.SIGMA1,
    ProtocolPureState.MINUS: MeasurementBasis.SIGMA1,
}

# result the receiver expects on a matched basis from an undisturbed particle
_PREDICTED_RESULT = {
    ProtocolPureState.ZERO: MeasurementResult.PLUS,
    ProtocolPureState.PLUS: MeasurementResult.PLUS,
    ProtocolPureState.ONE: MeasurementResult.MINUS,
    ProtocolPureState.MINUS: MeasurementResult.MINUS,
}


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs of a run: shot count N, bit-announcement probability, message, seed."""

    n_shots: int
    p_announce: float
    message_bit: int
    seed: int

    def __post_init__(self):
        if self.n_shots < 1:
            raise ValueError("need at least one shot")
        if not 0.0 <= self.p_announce <= 1.0:
            raise ValueError(f"announcement probability must lie in [0, 1], got {self.p_announce}")
        if self.message_bit not in (0, 1):
            raise ValueError("message bit must be 0 or 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, slots=True)
class BitAnnouncement:
    """Coded bit c: equals the message bit iff the measurement gave +1."""

    c: int


@dataclass(frozen=True, slots=True)
class ResultAnnouncement:
    """Raw measurement result; carries nothing about the message."""

    m: MeasurementResult


Announcement = BitAnnouncement | ResultAnnouncement


@dataclass(frozen=True)
class ShotRecord:
    """One shot: the private preparation and result, the public basis and announcement.

    ``_key`` packs the four fields into one of 64 integers:
    ``cell * 8 + minus * 4 + is_bit * 2 + twist``, where ``cell`` is
    2 * preparation index + basis index in ``_STATES``/``_BASES``, ``minus``
    says the result was -1, and ``twist`` is the announced value (the coded
    bit c, or 1 for an announced result of -1) xor ``minus``.  For a
    bit-announcement that is the message bit it carries; for a
    result-announcement it says the announced result is not the result,
    which no run produces.
    """

    prep: ProtocolPureState
    basis: MeasurementBasis
    result: MeasurementResult
    announcement: Announcement

    def __post_init__(self):
        ann = self.announcement
        if isinstance(ann, BitAnnouncement):
            if ann.c not in (0, 1):
                raise ValueError(f"coded bit must be 0 or 1, got {ann.c!r}")
            is_bit, value = 1, ann.c
        else:
            is_bit, value = 0, int(ann.m is MeasurementResult.MINUS)
        minus = int(self.result is MeasurementResult.MINUS)
        cell = 2 * _STATE_INDEX[self.prep] + _BASIS_INDEX[self.basis]
        object.__setattr__(self, "_key", cell * 8 + minus * 4 + is_bit * 2 + (value ^ minus))


@dataclass(frozen=True)
class PublicTranscript:
    """What everyone hears: per shot, the basis and the announcement only."""

    entries: tuple[tuple[MeasurementBasis, Announcement], ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RunOutcome:
    """The receiver's view of one run: decode result and noise check."""

    decoded_bit: int | None
    matched_bit_announcements: int
    matched_result_announcements: int
    mismatch_count: int


def matching_basis(prep: ProtocolPureState, basis: MeasurementBasis) -> bool:
    return _MATCHING_BASIS[prep] is basis


def predicted_result(prep: ProtocolPureState) -> MeasurementResult:
    return _PREDICTED_RESULT[prep]


# one key per ShotRecord value (see ShotRecord for the packing)
_KEYS = 64


def _record(key: int) -> ShotRecord:
    """The record whose ``_key`` is ``key``."""
    cell, minus, is_bit = key >> 3, (key >> 2) & 1, (key >> 1) & 1
    value = (key & 1) ^ minus
    announcement = BitAnnouncement(value) if is_bit else ResultAnnouncement(_RESULTS[value])
    return ShotRecord(_STATES[cell >> 1], _BASES[cell & 1], _RESULTS[minus], announcement)


# _RECORDS[key]: every record value, built once, and _PUBLIC_ENTRIES[key] its
# public (basis, announcement) pair.  Both are object arrays, so indexing one
# with an array of keys picks a run's objects in one C loop.
_RECORDS = np.fromiter(map(_record, range(_KEYS)), dtype=object)
_PUBLIC_ENTRIES = np.fromiter(((rec.basis, rec.announcement) for rec in _RECORDS), dtype=object)

_PREP_LABEL = {
    ProtocolPureState.ZERO: "0",
    ProtocolPureState.ONE: "1",
    ProtocolPureState.PLUS: "+",
    ProtocolPureState.MINUS: "-",
}


def _line_fields(rec: ShotRecord) -> tuple[str, str]:
    """A record's transcript fields after the shot index: (full, public)."""
    ann = rec.announcement
    if isinstance(ann, BitAnnouncement):
        kind, value = "bit", str(ann.c)
    else:
        kind, value = "result", f"{int(ann.m):+d}"
    public = f"{rec.basis.value},{kind},{value}"
    return f"{_PREP_LABEL[rec.prep]},{rec.basis.value},{int(rec.result):+d},{kind},{value}", public


# _LINE_FIELDS[public][key]: the full (public=False) or public transcript
# fields of each record.
_LINE_FIELDS = tuple(zip(*map(_line_fields, _RECORDS)))

_HEADERS = (
    "shot_index,prep,basis,result,announcement_kind,announced_value",
    "shot_index,basis,announcement_kind,announced_value",
)


def _line_table(fields) -> np.ndarray:
    """A table of fixed-width byte strings: item k is ``",<fields[k]>\n"``, NUL-padded."""
    rows = [f",{f}\n".encode() for f in fields]
    width = max(map(len, rows))
    return np.frombuffer(b"".join(row.ljust(width, b"\0") for row in rows), dtype=f"V{width}")


# _LINE_TABLES[public][key]: _LINE_FIELDS as padded bytes, one item per key
_LINE_TABLES = tuple(map(_line_table, _LINE_FIELDS))
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


# Columns of a tally after the four bit-announcement counts.
_MATCHED_RA, _MISMATCH, _VOTE, _VOTE_ONE = 4, 5, 6, 7


def _tally_table() -> np.ndarray:
    """What one shot of each key adds to each column of a tally.

    A result-announcement counts by the record's result; the announced
    value can differ from it only in a hand-built record.
    """
    table = np.zeros((_KEYS, 8))
    for key, rec in enumerate(_RECORDS):
        matched = matching_basis(rec.prep, rec.basis)
        flip = int(predicted_result(rec.prep) is MeasurementResult.MINUS)
        if isinstance(rec.announcement, BitAnnouncement):
            c = rec.announcement.c
            table[key, 2 * _BASIS_INDEX[rec.basis] + c] = 1
            table[key, _VOTE] = matched
            table[key, _VOTE_ONE] = matched and c ^ flip
        else:
            table[key, _MATCHED_RA] = matched
            table[key, _MISMATCH] = matched and (rec.result is MeasurementResult.MINUS) != flip
    return table


_TALLY_TABLE = _tally_table()


class _Tally(NamedTuple):
    """Per-run counts of a block of runs; every field has one row per run."""

    bit_announcements: np.ndarray  # (runs, 4), in BIT_ANNOUNCEMENT_ALPHABET order
    matched_result_announcements: np.ndarray
    mismatches: np.ndarray
    votes: np.ndarray  # matched-basis bit-announcements
    decoded: np.ndarray  # the majority bit, or -1 when the votes tie or there are none


def _counts(keys: np.ndarray) -> np.ndarray:
    """The tally columns of a (runs, shots) block of shot keys, one row per run.

    Each row's histogram of keys times the per-key contributions gives
    that run's counts, so the whole block costs a handful of array calls.
    Every column adds up, so the counts of a run's chunks of shots sum to
    the counts of the run.
    """
    runs = keys.shape[0]
    offsets = np.arange(0, runs * _KEYS, _KEYS)[:, None]
    hist = np.bincount((keys + offsets).ravel(), minlength=runs * _KEYS)
    # a float product runs in BLAS and is exact: every count is below 2**53
    return (hist.reshape(runs, _KEYS) @ _TALLY_TABLE).astype(np.int64)


def _tally(counts: np.ndarray) -> _Tally:
    """Name the columns of whole runs' counts and decode each run."""
    votes, ones = counts[:, _VOTE], counts[:, _VOTE_ONE]
    decoded = np.where(2 * ones == votes, -1, 2 * ones > votes)
    return _Tally(counts[:, :4], counts[:, _MATCHED_RA], counts[:, _MISMATCH], votes, decoded)


def _record_keys(shots) -> np.ndarray:
    """The keys of the records ``shots``, in order, as one intp array."""
    return np.fromiter(map(operator.attrgetter("_key"), shots), dtype=np.intp)


def _tally_records(shots) -> _Tally:
    return _tally(_counts(_record_keys(shots).reshape(1, -1)))


# The Generator's doubles are 53-bit integers over 2**53.
_VARIATE_BITS = 53


def _threshold(p):
    """``ceil(p * 2**53)`` clipped to [0, 2**53], as uint64 (an array or a scalar).

    For a 53-bit integer m and a double p in [0, 1], ``m < _threshold(p)``
    exactly when ``m * 2**-53 < p``: scaling by a power of two is exact, and
    an integer lies below a real number exactly when it lies below its
    ceiling.
    """
    scaled = np.ceil(np.multiply(p, 2.0**_VARIATE_BITS))
    return np.clip(scaled, 0.0, 2.0**_VARIATE_BITS).astype(np.uint64)


class ShotSampler:
    """Per-channel sampler: the eight Born Pr(+1) as integer thresholds on variates."""

    def __init__(self, eve: KrausChannel, report: ChannelValidation | None = None):
        self.channel = eve
        # threshold of Pr(+1) indexed by cell = 2 * preparation index + basis
        # index, in _STATES and _BASES order
        self._result_thresholds = _threshold(born_table(eve, report)[:, :, 0].ravel())

    def keys(self, columns, announce_threshold, message_bit) -> np.ndarray:
        """Shot keys (uint8) from integer variate columns of one shape.

        ``columns`` are the preparation and basis indices and the 53-bit
        result and announcement variates, as :func:`_run_columns` gives
        them.  A shot's result is -1 when its result variate reaches its
        cell's threshold, and it is a bit-announcement when its
        announcement variate falls below ``announce_threshold``, the
        threshold of ``p_announce``.  ``message_bit`` may be a uint8 array
        that broadcasts against the columns.  Only the two variate compares
        read uint64; the key is built in place over the bytes of the result
        compare, with no int64 temporary.
        """
        preps, bases, results, announces = columns
        cell = preps * 2
        cell += bases
        key = (results >= self._result_thresholds.take(cell)).view(np.uint8)
        key += cell << 1
        key <<= 2
        # the twist bit is the message bit on a bit-announcement and 0 otherwise
        twist = (announces < announce_threshold).view(np.uint8)
        twist *= 2 + message_bit
        key += twist
        return key


def _decoded_bit(decoded) -> int | None:
    return None if decoded < 0 else int(decoded)


def bob_decode(shots) -> int | None:
    """Majority vote over matched-basis bit-announcements.

    Each such shot contributes the announced bit, flipped when the
    preparation was |1> or |->.  Returns None when there are no votes or the
    vote ties.
    """
    return _decoded_bit(_tally_records(shots).decoded[0])


def tally_mismatches(shots) -> tuple[int, int]:
    """(mismatches, matched-basis result-announcements) for one run.

    Only result-announcements on a matched basis are usable for the noise
    check; a mismatch is one whose result contradicts the preparation.
    """
    tally = _tally_records(shots)
    return int(tally.mismatches[0]), int(tally.matched_result_announcements[0])


def public_transcript(shots) -> PublicTranscript:
    return PublicTranscript(tuple((rec.basis, rec.announcement) for rec in shots))


# The stream contract, computed from raw words.  Stream t of a root seed is
# numpy's PCG64 seeded by SeedSequence(entropy=seed, spawn_key=(t,)), read
# through a Generator.  The constants are SeedSequence's hash constants,
# which numpy keeps fixed so that seeded streams stay reproducible across
# releases; tests/oracles.py draws the same columns through numpy's own
# classes, and the tests compare the two.
_M32 = 0xFFFFFFFF
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Streams whose seed words are derived by one set of array calls.  Numpy
# calls cost about the same at any size up to here, so this is what keeps
# the derivation cheap per stream; it does not depend on the trial count,
# so neither does the memory of a Monte Carlo.
_SEED_CHUNK = 1 << 10


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """``init * mult**i mod 2**32`` for i in [0, calls].

    Call i of a SeedSequence hash xors its value with entry i and multiplies
    it by entry i + 1.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts, dtype=np.uint32)


# hashmix calls 0-15 mix the seed into the pool and calls 16-19 and 20-23
# the two words of a spawn key; generate_state's 8 words are calls 0-7 of
# the second hash
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 24)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# generate_state cycles through the 4 pool words
_POOL_CYCLE = np.arange(8) % 4


def _mix(x, y):
    """SeedSequence's mix of two uint32 values (Python ints or uint32 arrays)."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ r >> 16


def _seed_pool(seed: int) -> np.ndarray:
    """The SeedSequence pool of every stream of ``seed``, before its spawn key.

    The entropy is the seed's uint32 words, little-endian, zero-padded to
    the pool size of 4: a seed below 2**32 has one word, which the padding
    makes the same as two.
    """
    seed = int(seed)
    calls = zip(_HASH_A[:-1].tolist(), _HASH_A[1:].tolist())

    def hashmix(value: int) -> int:
        xor, mul = next(calls)
        value = (value ^ xor) * mul & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (seed & _M32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    return np.array(pool, dtype=np.uint32)


def _mix_key_word(pool: np.ndarray, words: np.ndarray, first_call: int) -> np.ndarray:
    """Mix a (streams, 1) column of spawn-key words into each stream's pool."""
    h = (words ^ _HASH_A[first_call : first_call + 4]) * _HASH_A[first_call + 1 : first_call + 5]
    return _mix(pool, h ^ h >> 16)


def _stream_seeds(pool: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each stream's SeedSequence, one C-contiguous row each.

    The spawn key is the stream index's uint32 words, little-endian: one
    below 2**32 and two from there on.
    """
    high = streams >> 32
    mixed = _mix_key_word(pool, (streams & _M32).astype(np.uint32)[:, None], 16)
    if high.any():
        two_words = _mix_key_word(mixed, high.astype(np.uint32)[:, None], 20)
        mixed = np.where(high[:, None] != 0, two_words, mixed)
    state = (mixed[:, _POOL_CYCLE] ^ _HASH_B[:-1]) * _HASH_B[1:]
    state = (state ^ state >> 16).astype(np.uint64)
    return np.ascontiguousarray(state[:, 0::2] | state[:, 1::2] << 32)


def _top_bytes(words: np.ndarray) -> np.ndarray:
    """The top byte of each uint32 half of uint64 words along the last axis, low half first.

    The halves are little-endian, so a half's top byte is its byte 3; the
    result is a strided view of the words' bytes.
    """
    return words.astype("<u8", copy=False).view(np.uint8)[..., 3::4]


def _variates(words: np.ndarray) -> np.ndarray:
    """The 53-bit variates of raw words: ``Generator.random`` gives ``m * 2**-53``."""
    return words >> (64 - _VARIATE_BITS)


def _run_columns(words: np.ndarray, n: int):
    """The four integer variate columns of whole n-shot runs, one run per row.

    ``words`` is a block of each run's first 3n raw words.  The first n
    words hold 2n uint32 halves: the preparation is the top two bits of
    halves [0, n) and the basis the top bit of halves [n, 2n), which is
    what ``Generator.integers`` gives for 4 and 2 outcomes; both are read
    as uint8 from the halves' top bytes (:func:`_top_bytes`).  The 53-bit
    result and announcement variates (:func:`_variates`) come from words
    [n, 2n) and [2n, 3n).
    """
    top = _top_bytes(words[:, :n])
    return (
        top[:, :n] >> 6,
        top[:, n:] >> 7,
        _variates(words[:, n : 2 * n]),
        _variates(words[:, 2 * n :]),
    )


_U64 = np.dtype(np.uint64)


def _check_seed_chunk(seeds: np.ndarray) -> None:
    """Raise ValueError unless ``seeds`` is a C-contiguous (streams, 4) array of native uint64."""
    shape, contiguous = seeds.shape, seeds.flags.c_contiguous
    if len(shape) != 2 or shape[1] != 4 or not contiguous or seeds.dtype is not _U64:
        raise ValueError("seed words must be C-contiguous rows of 4 uint64")


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A stream's 4 seed words, the seed sequence its ``PCG64`` is built from.

    ``PCG64`` forms its state in C from ``generate_state(4, np.uint64)``,
    read through the array's data pointer, so only a contiguous row of 4
    native uint64 is accepted, and only that request is answered.
    ``_Streams.states`` checks a chunk of rows at once
    (:func:`_check_seed_chunk`) and wraps each row without this check.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        if words.shape != (4,) or words.strides != (8,) or words.dtype is not _U64:
            raise ValueError("seed words must be one C-contiguous row of 4 uint64")
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != _U64:
            raise ValueError(f"a stream has 4 uint64 seed words, not {n_words} {np.dtype(dtype)}")
        return self._words


class _Streams:
    """The raw PCG64 words of the streams of one root seed.

    The seed is mixed into the SeedSequence pool once.  The spawn-key steps
    and the seed words are array operations over chunks of streams, and each
    stream's ``PCG64`` is built from its seed words (:class:`_SeedWords`)
    and reads its words with ``random_raw``.
    """

    def __init__(self, seed: int):
        self._pool = _seed_pool(seed)

    def states(self, start: int, stop: int):
        """Yield the seed words of streams [start, stop) in order, as :class:`_SeedWords`.

        Each chunk's array of seed words is checked once, as ``_SeedWords``
        checks a row, and its rows are then wrapped with no check of their own.
        """
        new = object.__new__
        for first in range(start, stop, _SEED_CHUNK):
            streams = np.arange(first, min(first + _SEED_CHUNK, stop), dtype=np.uint64)
            seeds = _stream_seeds(self._pool, streams)
            _check_seed_chunk(seeds)
            for row in seeds:
                words = new(_SeedWords)
                words._words = row
                yield words

    @staticmethod
    def words(state: _SeedWords, first: int, count: int) -> np.ndarray:
        """Raw words [first, first + count) of the stream seeded by ``state``."""
        bitgen = np.random.PCG64(state)
        if first:
            bitgen.advance(first)
        return bitgen.random_raw(count)

    def _read_top_bytes(self, state: _SeedWords, first: int, count: int) -> np.ndarray:
        """Top bytes of uint32 halves [first, first + count) of the stream with ``state``."""
        word = first // 2
        top = _top_bytes(self.words(state, word, (first + count + 1) // 2 - word))
        return top[first % 2 : first % 2 + count]

    def chunk_columns(self, state: _SeedWords, n: int, first: int):
        """The integer columns of the ``_BLOCK_CELLS`` shots of an n-shot run from ``first``.

        The last chunk of a run may be shorter.  Each column is read from its
        own offset in the stream, as laid out in :func:`_run_columns`.
        """
        count = min(_BLOCK_CELLS, n - first)
        return (
            self._read_top_bytes(state, first, count) >> 6,
            self._read_top_bytes(state, n + first, count) >> 7,
            _variates(self.words(state, n + first, count)),
            _variates(self.words(state, 2 * n + first, count)),
        )


def _run_counts(
    params: ProtocolParams,
    sampler: ShotSampler,
    trials: int,
    parity: int = 0,
    first_stream: int = 0,
    keys: np.ndarray | None = None,
):
    """Yield (trial indices, counts): the tally columns of whole runs, one row each.

    Trial t runs stream ``first_stream + t`` and sends message bit
    ``params.message_bit ^ (t & parity)``.  Runs of up to ``_BLOCK_CELLS``
    shots come in blocks of whole runs, read into one reused array.  A
    longer run is keyed and tallied in chunks of ``_BLOCK_CELLS`` shots and
    its chunks' counts are summed, so memory grows with neither the trial
    count nor N.  When ``keys`` is given, trial 0's keys are written into
    it as they are computed.
    """
    n = params.n_shots
    announce = _threshold(params.p_announce)
    streams = _Streams(params.seed)
    states = streams.states(first_stream, first_stream + trials)
    if n > _BLOCK_CELLS:

        def chunk_counts(state, first, bit, out):
            chunk = sampler.keys(streams.chunk_columns(state, n, first), announce, bit)
            if out is not None:
                out[first : first + len(chunk)] = chunk
            return _counts(chunk[None])

        for t, state in enumerate(states):
            bit = params.message_bit ^ (t & parity)
            out = keys if t == 0 else None
            yield np.array([t]), sum(
                chunk_counts(state, first, bit, out) for first in range(0, n, _BLOCK_CELLS)
            )
        return
    rows = min(_BLOCK_CELLS // n, trials)
    words = np.empty((rows, 3 * n), dtype=np.uint64)
    for start in range(0, trials, rows):
        t = np.arange(start, min(start + rows, trials))
        for row, state in zip(words[: len(t)], states):
            row[:] = np.random.PCG64(state).random_raw(3 * n)
        bits = (params.message_bit ^ (t & parity)).astype(np.uint8)
        block = sampler.keys(_run_columns(words[: len(t)], n), announce, bits[:, None])
        if keys is not None and start == 0:
            keys[:] = block[0]
        yield t, _counts(block)


def run_keys(
    params: ProtocolParams, eve: KrausChannel, stream: int = 0
) -> tuple[np.ndarray, RunOutcome]:
    """The key column of one run of ``params.n_shots`` shots, and its outcome.

    Deterministic in (params, eve, stream): the run's four variate columns
    are read from its stream's raw words in one fixed layout, so shot s
    always sees the same four variates no matter how the run is scheduled.
    ``stream`` selects a substream of the root seed, a non-negative integer
    below 2**64; Monte Carlo trial t uses stream t.  Key s is the ``_key``
    of shot s's record, as ``uint8``.  The run is read and keyed by the Monte Carlo's
    engine, in the same chunks, so its memory beside the key column does
    not grow with N.
    """
    stream = operator.index(stream)
    if not 0 <= stream < 2**64:
        raise ValueError(f"stream must be a non-negative integer below 2**64, got {stream}")
    keys = np.empty(params.n_shots, dtype=np.uint8)
    ((_, counts),) = _run_counts(params, ShotSampler(eve), 1, first_stream=stream, keys=keys)
    tally = _tally(counts)
    outcome = RunOutcome(
        _decoded_bit(tally.decoded[0]),
        int(tally.votes[0]),
        int(tally.matched_result_announcements[0]),
        int(tally.mismatches[0]),
    )
    return keys, outcome


def run_protocol(
    params: ProtocolParams, eve: KrausChannel, stream: int = 0
) -> tuple[list[ShotRecord], PublicTranscript, RunOutcome]:
    """One full run: :func:`run_keys` as records, public entries and outcome."""
    keys, outcome = run_keys(params, eve, stream)
    return _RECORDS[keys].tolist(), PublicTranscript(tuple(_PUBLIC_ENTRIES[keys].tolist())), outcome


def _freq_and_se(count: int, total: int) -> tuple[float, float]:
    if total == 0:
        return math.nan, math.nan
    f = count / total
    return f, math.sqrt(f * (1.0 - f) / total)


@dataclass(frozen=True)
class SimStats:
    """Aggregated Monte Carlo counts with frequency and standard-error views.

    Bit-announcement counts follow :data:`BIT_ANNOUNCEMENT_ALPHABET` order and
    frequencies are conditioned on the shot being a bit-announcement, which
    is what the single-announcement probabilities predict.
    """

    trials: int
    shots: int
    bit_announcement_counts: tuple[int, int, int, int]
    matched_result_announcements: int
    mismatch_count: int
    decode_success_count: int
    decode_correct_count: int

    @property
    def bit_announcement_total(self) -> int:
        return sum(self.bit_announcement_counts)

    @property
    def bit_announcement_freqs(self) -> tuple[float, float, float, float]:
        total = self.bit_announcement_total
        return tuple(_freq_and_se(c, total)[0] for c in self.bit_announcement_counts)

    @property
    def bit_announcement_errs(self) -> tuple[float, float, float, float]:
        total = self.bit_announcement_total
        return tuple(_freq_and_se(c, total)[1] for c in self.bit_announcement_counts)

    @property
    def mismatch_rate(self) -> float:
        return _freq_and_se(self.mismatch_count, self.matched_result_announcements)[0]

    @property
    def mismatch_rate_err(self) -> float:
        return _freq_and_se(self.mismatch_count, self.matched_result_announcements)[1]

    @property
    def decode_success_rate(self) -> float:
        return _freq_and_se(self.decode_success_count, self.trials)[0]

    @property
    def decode_success_err(self) -> float:
        return _freq_and_se(self.decode_success_count, self.trials)[1]

    @property
    def decode_correct_rate(self) -> float:
        """Fraction of successful decodes that recovered the true bit."""
        return _freq_and_se(self.decode_correct_count, self.decode_success_count)[0]

    @property
    def decode_correct_err(self) -> float:
        return _freq_and_se(self.decode_correct_count, self.decode_success_count)[1]


def monte_carlo(
    params: ProtocolParams,
    eve: KrausChannel,
    trials: int,
    *,
    keys: np.ndarray | None = None,
    report: ChannelValidation | None = None,
) -> SimStats:
    """Run ``trials`` independent runs and aggregate order-independent counts.

    ``keys``, when given, is an array of ``params.n_shots`` integers that
    receives trial 0's key column, the one :func:`run_keys` gives for stream
    0, from the same pass that tallies it.  ``report``, the caller's
    :func:`~sealsim.qubit.validate_channel` report, spares validating again.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if keys is not None and keys.shape != (params.n_shots,):
        raise ValueError(f"keys must have shape ({params.n_shots},), got {keys.shape}")
    totals = np.zeros(8, dtype=np.int64)
    # decoded values -1, 0 and 1 over every run: ties, zeros and ones
    decodes = np.zeros(3, dtype=np.int64)
    for _, counts in _run_counts(params, ShotSampler(eve, report), trials, keys=keys):
        totals += counts.sum(axis=0)
        decodes += np.bincount(_tally(counts).decoded + 1, minlength=3)
    return SimStats(
        trials=trials,
        shots=trials * params.n_shots,
        bit_announcement_counts=tuple(totals[:4].tolist()),
        matched_result_announcements=int(totals[_MATCHED_RA]),
        mismatch_count=int(totals[_MISMATCH]),
        decode_success_count=int(decodes[1:].sum()),
        decode_correct_count=int(decodes[1 + params.message_bit]),
    )


def information_density(
    params: ProtocolParams, eve: KrausChannel, trials: int, probs_given_b
) -> np.ndarray:
    """Per-trial log2 of Pr(string | sent bit) / Pr(string), in bits.

    The string is a run's sequence of bit-announcements and ``probs_given_b``
    gives a single bit-announcement's probabilities under message bit 0 and
    1, in :data:`BIT_ANNOUNCEMENT_ALPHABET` order.  Trial t runs stream t and
    sends message bit ``params.message_bit ^ (t % 2)``, so the two messages
    are equally likely, and the mean over trials is an unbiased estimate of
    the mutual information between the message and the string.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    with np.errstate(divide="ignore"):
        log_probs = np.log2(np.asarray(probs_given_b, dtype=float))
    values = np.empty(trials)
    for t, run_counts in _run_counts(params, ShotSampler(eve), trials, parity=1):
        bits = params.message_bit ^ (t & 1)
        counts = run_counts[:, None, :4]
        # log-likelihood of each run's string under either message; a symbol
        # that never occurs adds nothing even where its probability is 0
        terms = np.zeros((len(t), *log_probs.shape))
        ll = np.multiply(counts, log_probs, out=terms, where=counts > 0).sum(axis=2)
        ll_sent = ll[np.arange(len(t)), bits]
        values[t] = ll_sent - (np.logaddexp2(ll[:, 0], ll[:, 1]) - 1.0)
    return values


def _digit_table(places: int) -> np.ndarray:
    """The digits of 0 .. 10**places - 1, NUL-padded on the left.

    A (10**places, places) array of ASCII bytes: byte j of row i is the
    digit of place ``places - 1 - j``, or NUL where i has no digit there.
    """
    rows = np.arange(10**places)[:, None]
    scale = 10 ** np.arange(places - 1, -1, -1)
    return np.where((rows >= scale) | (scale == 1), _DIGITS[rows // scale % 10], 0).astype(np.uint8)


# An index's last _LOW_PLACES digits are its row of _LOW_DIGITS, zero-padded;
# an index below 10**_LOW_PLACES is its row of _FIRST_DIGITS, NUL-padded.
_LOW_PLACES = 4
_FIRST_DIGITS = _digit_table(_LOW_PLACES)
_LOW_DIGITS = np.maximum(_FIRST_DIGITS, _DIGITS[0])


def _index_digits(start: int, stop: int) -> np.ndarray:
    """The digits of start .. stop-1, NUL-padded on the left, as fixed-width byte strings.

    An index's last ``_LOW_PLACES`` digits are copied from a table, and the
    digits before them are those of ``index // 10**_LOW_PLACES``, which is
    the same over each run of ``10**_LOW_PLACES`` indices: a range costs a
    few slice copies per run it meets, wherever it starts.
    """
    width = max(len(str(max(stop - 1, 0))), _LOW_PLACES)
    low = width - _LOW_PLACES
    block = np.zeros((stop - start, width), dtype=np.uint8)
    run = 10**_LOW_PLACES
    for high in range(start // run, -(-stop // run)):
        first, last = max(start, high * run), min(stop, (high + 1) * run)
        rows = block[first - start : last - start]
        if high:
            rows[:, low:] = _LOW_DIGITS[first - high * run : last - high * run]
            prefix = np.frombuffer(str(high).encode(), dtype=np.uint8)
            rows[:, low - len(prefix) : low] = prefix
        else:
            rows[:, low:] = _FIRST_DIGITS[first:last]
    return block.view(f"V{width}")[:, 0]


def _transcript_body(keys: np.ndarray, index: np.ndarray, public: bool) -> bytearray:
    """The CSV lines of ``keys``, each ending in a newline, as one buffer.

    A line is its shot's item of ``index`` (:func:`_index_digits`) followed
    by its key's item of ``_LINE_TABLES``.  Both are written, NUL-padded,
    into one record per line over the buffer, and the padding is deleted.
    """
    table = _LINE_TABLES[public]
    buffer = bytearray(len(index) * (index.itemsize + table.itemsize))
    lines = np.frombuffer(buffer, dtype=[("index", index.dtype), ("fields", table.dtype)])
    lines["index"] = index
    lines["fields"] = table.take(keys)
    return buffer.translate(None, b"\0")


def _transcript_chunks(keys: np.ndarray, public: bool, comments):
    """Yield a transcript file's bytes in order.

    First the ``#`` comment lines and the header, then the body in chunks of
    ``_BLOCK_CELLS`` lines, each with the shot-index digits of its rows.
    """
    yield ("".join(f"# {c}\n" for c in comments) + _HEADERS[public] + "\n").encode()
    for start in range(0, len(keys), _BLOCK_CELLS):
        stop = min(start + _BLOCK_CELLS, len(keys))
        yield _transcript_body(keys[start:stop], _index_digits(start, stop), public)


def transcript_lines(shots, public: bool = False) -> list[str]:
    """CSV lines for a run's records (full, or the public projection).

    The header, then the lines of the bytes :func:`export_transcript` writes.
    """
    chunks = _transcript_chunks(_record_keys(shots), public, ())
    return b"".join(chunks).decode().splitlines()


def export_transcript(shots, path: str | Path, public: bool = False, comments=()) -> None:
    """Write ``#`` comment lines, then :func:`transcript_lines`, atomically.

    The file is written in chunks of ``_BLOCK_CELLS`` lines, so beside the
    records only a chunk's bytes are held at a time.
    """
    write_atomic(path, _transcript_chunks(_record_keys(shots), public, comments))


def write_transcripts(keys: np.ndarray, path: str | Path, comments=()) -> None:
    """Write a key column's full transcript to ``path`` and its public one to ``path + ".public"``.

    The files are the ones :func:`export_transcript` writes for the records
    of those keys, streamed in the same chunks, so memory beside ``keys``
    does not grow with their length.  The full file is written first: if it
    cannot be written, the public file is not built, and an existing public
    file keeps its old bytes.
    """
    write_atomic(path, _transcript_chunks(keys, False, comments))
    write_atomic(f"{path}.public", _transcript_chunks(keys, True, comments))
