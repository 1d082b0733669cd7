"""Seeded inputs, CLI invocations and output checks of the sealsim benchmark.

A workload is a round of steps that the runner repeats until the run's time
is up.  A step is one or more invocations of one CLI command and gives one
sample of that command's rate; the steps of different commands alternate
within a round, so every command is sampled across the whole run and a slow
spell of the machine lands in a minority of each command's samples.

Every input the program receives -- channel files and the ``--seed`` values
of ``simulate`` -- is generated here from the benchmark seed, so one seed
always gives the same inputs.  The channel operators are written out here
rather than taken from ``sealsim.qubit``, so a change to the program cannot
change its own inputs.  Each check reads only what the invocation printed or
wrote and raises :class:`CheckFailed` when the output is wrong.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_N = 119
DEFAULT_PA = 0.05
DEFAULT_GRID_STEP = 0.05
# Empirical frequencies must sit this many standard errors from the analytic
# prediction at most.
SIGMAS = 5.0
# Half a unit in the last place of the CLI's 6-decimal and 12-digit output.
PRINTED_6DP = 5e-7 + 1e-12
MISMATCH_TOL = 1e-12
ANCHOR_TOL = 1e-9
SEAL_CROSS_TOL = 1e-9

WORKLOADS = ("defaults", "heavy")


class CheckFailed(Exception):
    """An invocation's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Invocation:
    """One ``sealsim`` command line with the work it does and its output check.

    ``work`` is what the end-to-end rate counts: sweep x-points, simulated
    shots (trials x N) or channel files.  ``check`` receives the captured
    standard output.  ``outputs`` are the files the command writes.
    """

    argv: list[str]
    work: int
    expect_exit: int = 0
    check: Callable[[str], None] | None = None
    outputs: tuple[Path, ...] = ()


@dataclass
class Step:
    """Invocations of one command whose summed work and time give one rate sample."""

    command: str
    invocations: list[Invocation]


@dataclass(frozen=True)
class SimulateConfig:
    """A ``simulate`` setting whose stream contract is checked on a prefix."""

    argv: list[str]
    n_shots: int
    p_announce: float
    seed: int
    channel_file: Path | None
    seal_x: float | None
    prefix_trials: int


@dataclass
class Workload:
    round: list[Step]
    simulate_configs: list[SimulateConfig] = field(default_factory=list)


# ---------------------------------------------------------------- channels


@dataclass(frozen=True)
class ChannelFile:
    path: Path
    label: str
    n_operators: int
    kind: str  # "seal", "unital", "general" or "incomplete"
    x: float | None = None  # seal files: the damping strength, a point of the sweep grid
    grid_index: int | None = None


def _seal_ops(x: float) -> list[np.ndarray]:
    return [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - x)]], dtype=complex),
        np.array([[0.0, math.sqrt(x)], [0.0, 0.0]], dtype=complex),
    ]


def _depolarizing_ops(p: float) -> list[np.ndarray]:
    paulis = (
        np.eye(2, dtype=complex),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )
    weights = (1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p)
    return [math.sqrt(w) * s for w, s in zip(weights, paulis)]


def _dephasing_ops() -> list[np.ndarray]:
    return [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def _rotated(ops: list[np.ndarray], theta: float) -> list[np.ndarray]:
    """A y-rotation after the channel tilts its Bloch image off the z axis (r1 != 0)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return [rot @ op for op in ops]


def _random_kraus(rng: np.random.Generator, n_ops: int) -> list[np.ndarray]:
    """Slice a random 2n x 2 isometry into n Kraus operators."""
    g = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    q, _ = np.linalg.qr(g)
    return [q[2 * i : 2 * i + 2, :] for i in range(n_ops)]


def _write_channel(path: Path, label: str, ops: list[np.ndarray]) -> None:
    doc = {
        "label": label,
        "operators": [
            [[[float(op[i, j].real), float(op[i, j].imag)] for j in range(2)] for i in range(2)]
            for op in ops
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def make_channel_set(
    rng: np.random.Generator, directory: Path, grid_step: float
) -> dict[str, ChannelFile]:
    """Write the seeded channel files and describe what each must report.

    The two seal files take distinct points x > 0 of the sweep grid of
    ``grid_step``.
    """
    files: dict[str, ChannelFile] = {}

    def add(name, label, ops, kind, x=None, grid_index=None):
        path = directory / f"{name}.json"
        _write_channel(path, label, ops)
        files[name] = ChannelFile(path, label, len(ops), kind, x, grid_index)

    grid = _grid(grid_step)
    for name, i in zip(("seal_a", "seal_b"), sorted(rng.choice(len(grid) - 1, 2, replace=False) + 1)):
        x = grid[i]
        add(name, f"seal(x={x:g})", _seal_ops(x), "seal", x, int(i))
    p = float(rng.uniform(0.05, 0.95))
    add("depolarizing", f"depolarizing(p={p:g})", _depolarizing_ops(p), "unital")
    add("dephasing", "dephasing", _dephasing_ops(), "unital")
    x, theta = float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.3, 1.2))
    add("rotated", f"seal(x={x:g})+rot({theta:g})", _rotated(_seal_ops(x), theta), "general")
    add("random_a", "random-3op-a", _random_kraus(rng, 3), "general")
    add("random_b", "random-3op-b", _random_kraus(rng, 3), "general")
    scale = float(rng.uniform(0.6, 0.95))
    x = float(rng.uniform(0.2, 0.9))
    add("incomplete", f"incomplete(x={x:g})", [scale * op for op in _seal_ops(x)], "incomplete")
    return files


# ------------------------------------------------------------------ checks


def _grid(step: float) -> list[float]:
    """The x grid ``sealsim sweep --grid-step`` documents: 0, step, ..., then 1."""
    values = []
    i = 0
    while i * step < 1.0 - 1e-12:
        values.append(i * step)
        i += 1
    values.append(1.0)
    return values


def _mismatch_conditional(x: float) -> float:
    return (1.0 + x - math.sqrt(1.0 - x)) / 4.0


# MI column of the latest sweep at each (N, pa), for checking seal channel files
SweepRows = dict[tuple[int, float], list[float]]


def check_sweep(out_path: Path, n: int, pa: float, step: float, seen: SweepRows):
    grid = _grid(step)

    def check(stdout: str) -> None:
        lines = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
        _require(
            lines[0] == "x,mi_bits,mismatch_conditional,mismatch_per_shot,truncation_mass",
            f"unexpected sweep header {lines[0]!r}",
        )
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        _require(len(rows) == len(grid), f"{len(rows)} sweep rows for a {len(grid)}-point grid")
        mis = []
        for (x, mi, mm_cond, mm_shot, _), want_x in zip(rows, grid):
            _require(abs(x - want_x) <= 1e-12, f"sweep row x={x} where the grid has {want_x}")
            _require(math.isfinite(mi) and 0.0 <= mi <= 1.0, f"MI {mi} at x={x} is not in [0, 1]")
            want = _mismatch_conditional(want_x)
            _require(abs(mm_cond - want) <= MISMATCH_TOL, f"mismatch {mm_cond} != {want} at x={x}")
            _require(abs(mm_shot - want / 2.0) <= MISMATCH_TOL, f"per-shot mismatch {mm_shot} at x={x}")
            mis.append(mi)
        anchor = 1.0 - (1.0 - pa / 2.0) ** n
        _require(abs(mis[-1] - anchor) <= ANCHOR_TOL, f"x=1 MI {mis[-1]} != anchor {anchor}")
        seen[(n, pa)] = mis

    return check


def _key_values(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        if " = " in line and not line.startswith("#"):
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


def check_validate(spec: ChannelFile, n: int, pa: float, seen: SweepRows):
    def check(stdout: str) -> None:
        kv = _key_values(stdout)
        _require(kv.get("label") == spec.label, f"label {kv.get('label')!r} != {spec.label!r}")
        _require(kv.get("operators") == str(spec.n_operators), f"operator count {kv.get('operators')}")
        if spec.kind == "incomplete":
            _require(kv.get("verdict") == "FAIL", f"incomplete channel got verdict {kv.get('verdict')}")
            _require("expected_mi_bits" not in kv, "incomplete channel reported an MI")
            return
        _require(kv.get("verdict") == "PASS", f"{spec.label} got verdict {kv.get('verdict')}")
        mi = float(kv["expected_mi_bits"].split(" (", 1)[0])
        _require(
            kv["expected_mi_bits"].endswith(f"(n_shots={n}, p_announce={pa:.12g})"),
            f"MI reported for other parameters: {kv['expected_mi_bits']}",
        )
        _require(math.isfinite(mi) and 0.0 <= mi <= 1.0, f"MI {mi} is not in [0, 1]")
        _require(kv.get("unital") == ("yes" if spec.kind == "unital" else "no"), "wrong unital flag")
        if spec.kind == "unital":
            _require(mi == 0.0, f"unital channel leaks {mi} bits")
        if spec.kind == "seal":
            want = seen[(n, pa)][spec.grid_index]
            _require(abs(mi - want) <= SEAL_CROSS_TOL, f"seal file MI {mi} != sweep row {want}")
            mm = float(kv["mismatch_matched_basis"])
            _require(abs(mm - _mismatch_conditional(spec.x)) <= MISMATCH_TOL, f"seal mismatch {mm}")

    return check


def _simulate_table(stdout: str) -> tuple[dict[str, str], dict[str, tuple[float, float, float]]]:
    header = {}
    rows = {}
    for line in stdout.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            header[key] = value
        elif line and not line.startswith("#") and not line.startswith("statistic"):
            name, emp, err, analytic = line.split()
            rows[name] = (float(emp), float(err), math.nan if analytic == "n/a" else float(analytic))
    return header, rows


def check_simulate(n: int, trials: int, transcript: Path | None):
    def check(stdout: str) -> None:
        header, rows = _simulate_table(stdout)
        _require(int(header["shots"]) == n * trials, f"{header['shots']} shots for {trials}x{n}")
        for name, (emp, err, analytic) in rows.items():
            if name.startswith("freq(") or name == "mismatch_conditional":
                _require(
                    abs(emp - analytic) <= SIGMAS * err + PRINTED_6DP,
                    f"{name} = {emp} is more than {SIGMAS} sigma ({err}) from {analytic}",
                )
        # The analytic decode_success is the undisturbed baseline: ties and
        # contradicting votes under a channel can only lower the empirical rate.
        emp, err, baseline = rows["decode_success"]
        _require(emp <= baseline + SIGMAS * err + PRINTED_6DP, f"decode_success {emp} > {baseline}")
        if transcript is not None:
            _check_transcript(transcript, n)

    return check


def _check_transcript(path: Path, n: int) -> None:
    with path.open() as full, Path(f"{path}.public").open() as public:
        full_rows = (ln.rstrip("\n") for ln in full if not ln.startswith("#"))
        public_rows = (ln.rstrip("\n") for ln in public if not ln.startswith("#"))
        _require(
            next(full_rows) == "shot_index,prep,basis,result,announcement_kind,announced_value",
            "unexpected transcript header",
        )
        _require(
            next(public_rows) == "shot_index,basis,announcement_kind,announced_value",
            "public transcript header keeps prep or result",
        )
        count = 0
        for count, (row, pub) in enumerate(zip(full_rows, public_rows, strict=True), start=1):
            idx, _prep, basis, _result, kind, value = row.split(",")
            _require(pub == f"{idx},{basis},{kind},{value}", f"public row {pub!r} != {row!r}")
        _require(count == n, f"transcript has {count} rows for {n} shots")


def check_stream_contract(config: SimulateConfig, stdout: str) -> None:
    """Counts of a ``--trials prefix`` run equal the tally of the public API.

    Trial t uses stream t, so the first ``prefix_trials`` trials of any run are
    ``run_protocol(..., stream=t)`` for t below that, tallied with the public
    ``bob_decode`` and ``tally_mismatches``.
    """
    from sealsim import channel_file, protocol, qubit

    channel = (
        channel_file.load_channel(config.channel_file)
        if config.channel_file is not None
        else qubit.seal_channel(config.seal_x)
    )
    params = protocol.ProtocolParams(config.n_shots, config.p_announce, 0, config.seed)
    ba = [0, 0, 0, 0]
    matched = mismatches = successes = correct = 0
    for t in range(config.prefix_trials):
        shots, _, _ = protocol.run_protocol(params, channel, stream=t)
        for rec in shots:
            if isinstance(rec.announcement, protocol.BitAnnouncement):
                sigma3 = rec.basis is qubit.MeasurementBasis.SIGMA3
                ba[2 * sigma3 + rec.announcement.c] += 1
        bad, usable = protocol.tally_mismatches(shots)
        mismatches += bad
        matched += usable
        decoded = protocol.bob_decode(shots)
        if decoded is not None:
            successes += 1
            correct += decoded == params.message_bit
    header, rows = _simulate_table(stdout)
    _require(int(header["bit_announcements"]) == sum(ba), "bit-announcement count differs")
    _require(int(header["matched_result_announcements"]) == matched, "matched count differs")
    want = {
        "decode_success": successes / config.prefix_trials,
        "decode_correct|success": correct / successes if successes else math.nan,
        "mismatch_conditional": mismatches / matched if matched else math.nan,
    }
    labels = ("freq(sigma1,c=0)", "freq(sigma1,c=1)", "freq(sigma3,c=0)", "freq(sigma3,c=1)")
    for label, count in zip(labels, ba):
        want[label] = count / sum(ba) if sum(ba) else math.nan
    for name, value in want.items():
        got = rows[name][0]
        same = (math.isnan(got) and math.isnan(value)) or abs(got - value) <= PRINTED_6DP
        _require(same, f"prefix {name} = {got}, public API tally gives {value}")


# --------------------------------------------------------------- workloads


def build(name: str, seed: int, directory: Path) -> Workload:
    """The round of one workload, with inputs generated from ``seed``.

    Sizes are chosen so that one round takes seconds, not minutes, and a run
    holds several rounds (see README.md for the reasons behind each).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    # heavy sweeps a coarser grid, so its seal files sit on that grid
    grid_step = 0.5 if name == "heavy" else DEFAULT_GRID_STEP
    channels = make_channel_set(rng, directory, grid_step)
    sim_seeds = [int(s) for s in rng.integers(0, 2**63, 3)]
    seen: SweepRows = {}
    configs: list[SimulateConfig] = []

    def options(n, pa):
        return (["--n", str(n)] if n != DEFAULT_N else []) + (
            ["--pa", repr(pa)] if pa != DEFAULT_PA else []
        )

    def sweep(n, pa, step):
        out = directory / f"sweep-n{n}-pa{pa:g}.csv"
        argv = ["sweep", "--out", str(out), *options(n, pa)]
        if step != DEFAULT_GRID_STEP:
            argv += ["--grid-step", repr(step)]
        check = check_sweep(out, n, pa, step, seen)
        return Step("sweep", [Invocation(argv, len(_grid(step)), 0, check, (out,))])

    def validate(names, n, pa):
        invocations = []
        for key in names:
            spec = channels[key]
            argv = ["validate-channel", str(spec.path), *options(n, pa)]
            expect = 1 if spec.kind == "incomplete" else 0
            check = check_validate(spec, n, pa, seen)
            invocations.append(Invocation(argv, 1, expect, check))
        return Step("validate-channel", invocations)

    def simulate(source, n, pa, trials, seed, prefix, transcript=None):
        from_file = source in channels
        argv = ["simulate"]
        argv += ["--channel-file", str(channels[source].path)] if from_file else [
            "--channel", "seal", "--x", repr(source)
        ]
        argv += ["--seed", str(seed), *options(n, pa)]
        configs.append(
            SimulateConfig(
                argv + ["--trials", str(prefix)],
                n,
                pa,
                seed,
                channels[source].path if from_file else None,
                None if from_file else source,
                prefix,
            )
        )
        argv += ["--trials", str(trials)]
        outputs: tuple[Path, ...] = ()
        if transcript is not None:
            path = directory / transcript
            argv += ["--transcript", str(path)]
            outputs = (path, Path(f"{path}.public"))
        check = check_simulate(n, trials, outputs[0] if outputs else None)
        return Step("simulate", [Invocation(argv, trials * n, 0, check, outputs)])

    every_file = list(channels)
    if name == "defaults":
        steps = [
            sweep(DEFAULT_N, DEFAULT_PA, DEFAULT_GRID_STEP),
            validate(every_file, DEFAULT_N, DEFAULT_PA),
            simulate(0.5, DEFAULT_N, DEFAULT_PA, 2000, sim_seeds[0], 200),
            sweep(DEFAULT_N, DEFAULT_PA, DEFAULT_GRID_STEP),
            validate(every_file, DEFAULT_N, DEFAULT_PA),
            simulate("random_a", DEFAULT_N, DEFAULT_PA, 2000, sim_seeds[1], 200, "transcript.csv"),
        ]
    else:
        # One step per complete channel file, each about a third of a second.
        # The incomplete file stops before any analysis, so a step of its own
        # would be a rate sample of different work; defaults covers it.  The
        # sweep and the simulation, whose steps are longest, run three times a
        # round, so that each gives a dozen samples in a 50-second run.
        files = [validate([key], DEFAULT_N, 0.5) for key in every_file if key != "incomplete"]
        sim = simulate(0.5, 50000, 0.5, 2, sim_seeds[0], 1, transcript="transcript.csv")
        swept = sweep(DEFAULT_N, 0.5, grid_step)
        steps = [swept, *files[:3], sim, swept, *files[3:5], sim, swept, *files[5:], sim]
    return Workload(steps, configs)
