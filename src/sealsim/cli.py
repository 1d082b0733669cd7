"""Command-line front end.

Subcommands: ``sweep`` writes curve data for the damping family to CSV,
``simulate`` runs the seeded Monte Carlo and prints empirical statistics next
to the analytic predictions, ``validate-channel`` checks a channel document.

Exit codes are part of the interface: 0 success, 1 channel failed
validation, 2 bad arguments or unparseable channel file, 3 output I/O
failure (an output file that cannot be written, or standard output closed
by its reader, as by ``| head``).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from sealsim import analysis
from sealsim.qubit import (
    KrausChannel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    seal_channel,
    validate_channel,
)
from sealsim.textfile import write_atomic

# protocol.py and channel_file.py are imported where a command first needs
# them, so sweep and validate-channel start without the Monte Carlo engine,
# and sweep without json.
if TYPE_CHECKING:
    from sealsim import protocol

DEFAULT_N = 119
DEFAULT_PA = 0.05
DEFAULT_GRID_STEP = 0.05
# The most x points a sweep evaluates, a grid step of 1e-4.  The grid is
# evaluated in blocks of bounded memory, but its time grows with every point.
MAX_GRID_POINTS = 10_001

_BUILTIN_CHANNELS = ("identity", "seal", "depolarizing", "dephasing")
# The builtin channels that take --x; every other channel source refuses it.
_PARAMETRIC_CHANNELS = ("seal", "depolarizing")


@dataclass(frozen=True)
class SweepConfig:
    x_grid: tuple[float, ...]
    n_shots: int
    p_announce: float
    tail_tol: float
    output_path: str

    def __post_init__(self):
        grid = tuple(float(x) for x in self.x_grid)
        if not grid or any(not 0.0 <= x <= 1.0 for x in grid) or list(grid) != sorted(grid):
            raise ValueError("grid must be sorted values within [0, 1]")
        object.__setattr__(self, "x_grid", grid)


def _default_grid(step: float) -> tuple[float, ...]:
    """0, step, 2 step, ... below 1, then 1: at most ``MAX_GRID_POINTS`` points."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"grid step must lie in (0, 1], got {step}")
    values = []
    i = 0
    while i * step < 1.0 - 1e-12:
        if i + 2 > MAX_GRID_POINTS:  # the points so far, this one and 1.0
            raise ValueError(
                f"grid step {step} gives more than {MAX_GRID_POINTS} points; "
                f"the smallest step is {1.0 / (MAX_GRID_POINTS - 1):g}"
            )
        values.append(i * step)
        i += 1
    values.append(1.0)
    return tuple(values)


# format(value, ".12g") as a bound method, with no Python frame per value:
# a 10001-point sweep formats 50005 of them
_fmt = "{:.12g}".format


def cmd_sweep(config: SweepConfig) -> int:
    mi, _, truncation = analysis.seal_expected_mutual_information_grid(
        config.x_grid, config.n_shots, config.p_announce, config.tail_tol
    )
    per_shot, conditional = analysis.seal_mismatch_probability_grid(config.x_grid)
    columns = zip(
        config.x_grid, mi.tolist(), conditional.tolist(), per_shot.tolist(), truncation.tolist()
    )
    rows = [",".join(map(_fmt, row)) for row in columns]
    header = [
        "# sealsim sweep",
        f"# n_shots = {config.n_shots}",
        f"# p_announce = {_fmt(config.p_announce)}",
        f"# tail_tol = {_fmt(config.tail_tol)}",
        "x,mi_bits,mismatch_conditional,mismatch_per_shot,truncation_mass",
    ]
    try:
        write_atomic(config.output_path, "\n".join(header + rows) + "\n")
    except OSError as exc:
        print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
        return 3
    return 0


def _build_builtin(name: str, parameter: float | None, parser: argparse.ArgumentParser):
    if name in _PARAMETRIC_CHANNELS:
        if parameter is None:
            parser.error(f"--channel {name} requires --x")
        try:
            return seal_channel(parameter) if name == "seal" else depolarizing_channel(parameter)
        except ValueError as exc:
            parser.error(str(exc))
    if name == "identity":
        return identity_channel()
    return dephasing_channel()


def _report_line(name: str, empirical: float, err: float, analytic: float | None) -> str:
    right = f"{analytic:.6f}" if analytic is not None else "n/a"
    return f"{name:<24} {empirical:>12.6f} {err:>12.6f} {right:>12}"


def cmd_simulate(
    params: protocol.ProtocolParams,
    channel: KrausChannel,
    trials: int,
    transcript_path: str | None,
) -> int:
    report = validate_channel(channel)
    if not report.passes:
        print(
            f"error: channel {channel.label!r} fails completeness "
            f"(deviation {report.deviation:.6e})",
            file=sys.stderr,
        )
        return 1

    from sealsim import protocol

    # stream 0's key column comes from the pass that tallies trial 0; all 64
    # keys fit in a byte
    keys = None if transcript_path is None else np.empty(params.n_shots, dtype=np.uint8)
    stats = protocol.monte_carlo(params, channel, trials, keys=keys, report=report)
    dist = analysis.bit_announcement_probs(channel, report)
    predicted = dist.probs_given_b[params.message_bit]
    mismatch = analysis.mismatch_probability(channel, report)
    decode_baseline = analysis.decode_success_probability(params.n_shots, params.p_announce)

    lines = [
        "# sealsim simulate",
        f"# channel = {channel.label}",
        f"# n_shots = {params.n_shots}",
        f"# p_announce = {_fmt(params.p_announce)}",
        f"# message_bit = {params.message_bit}",
        f"# seed = {params.seed}",
        f"# trials = {trials}",
        f"# shots = {stats.shots}",
        f"# bit_announcements = {stats.bit_announcement_total}",
        f"# matched_result_announcements = {stats.matched_result_announcements}",
        "# analytic decode_success is the undisturbed-channel baseline",
        f"{'statistic':<24} {'empirical':>12} {'std_err':>12} {'analytic':>12}",
        _report_line(
            "decode_success", stats.decode_success_rate, stats.decode_success_err, decode_baseline
        ),
        _report_line(
            "decode_correct|success", stats.decode_correct_rate, stats.decode_correct_err, None
        ),
        _report_line(
            "mismatch_conditional",
            stats.mismatch_rate,
            stats.mismatch_rate_err,
            mismatch.matched_basis_conditional,
        ),
    ]
    labels = ("freq(sigma1,c=0)", "freq(sigma1,c=1)", "freq(sigma3,c=0)", "freq(sigma3,c=1)")
    for label, freq, err, want in zip(
        labels, stats.bit_announcement_freqs, stats.bit_announcement_errs, predicted
    ):
        lines.append(_report_line(label, freq, err, want))
    print("\n".join(lines))

    if transcript_path is not None:
        comments = (
            "sealsim transcript (stream 0)",
            f"channel = {channel.label}",
            f"n_shots = {params.n_shots}",
            f"p_announce = {_fmt(params.p_announce)}",
            f"message_bit = {params.message_bit}",
            f"seed = {params.seed}",
        )
        try:
            protocol.write_transcripts(keys, transcript_path, comments=comments)
        except OSError as exc:
            print(f"error: cannot write transcript: {exc}", file=sys.stderr)
            return 3
    return 0


def _read_channel_file(path: str) -> KrausChannel | None:
    """The channel in ``path``, or None after saying on stderr why it cannot be read."""
    from sealsim.channel_file import ChannelFormatError, load_channel

    try:
        return load_channel(path)
    except ChannelFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    return None


def cmd_validate_channel(path: str, n_shots: int, p_announce: float) -> int:
    channel = _read_channel_file(path)
    if channel is None:
        return 2

    report = validate_channel(channel)
    lines = [
        "# sealsim validate-channel",
        f"# file = {path}",
        f"label = {channel.label}",
        f"operators = {len(channel.operators)}",
        f"completeness_deviation = {report.deviation:.6e}",
        f"verdict = {'PASS' if report.passes else 'FAIL'}",
    ]
    if report.passes:
        bloch = report.chaotic_image
        lines.append(f"chaotic_image_lambda = {_fmt(bloch.lam)}")
        lines.append(
            "chaotic_image_v = "
            f"({_fmt(bloch.v[0])}, {_fmt(bloch.v[1])}, {_fmt(bloch.v[2])})"
        )
        lines.append(f"unital = {'yes' if report.unital else 'no'}")
        try:
            mi = analysis.expected_mutual_information(
                analysis.bit_announcement_probs(channel, report), n_shots, p_announce
            )
        except ValueError as exc:  # the plane's table budget (--n and --pa are checked before)
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        mismatch = analysis.mismatch_probability(channel, report)
        lines.append(f"expected_mi_bits = {_fmt(mi.mi_bits)} (n_shots={n_shots}, p_announce={_fmt(p_announce)})")
        lines.append(f"mi_truncation_mass = {mi.truncation_mass:.3e}")
        lines.append(f"mismatch_per_shot = {_fmt(mismatch.per_shot)}")
        lines.append(f"mismatch_matched_basis = {_fmt(mismatch.matched_basis_conditional)}")
    print("\n".join(lines))
    return 0 if report.passes else 1


# Built once per process: parse_args keeps no state in the parser, and
# in-process callers of main would otherwise pay for the build every call.
# Returns the top-level parser and each subcommand's parser by name, which
# reports that subcommand's argument errors under its own usage line.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="sealsim",
        description="Sealed-message protocol simulator and eavesdropping analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="write damping-family curve data to CSV")
    sweep.add_argument("--n", type=int, default=DEFAULT_N, help="shots per run")
    sweep.add_argument("--pa", type=float, default=DEFAULT_PA, help="bit-announcement probability")
    sweep.add_argument(
        "--grid-step",
        type=float,
        default=DEFAULT_GRID_STEP,
        help=f"x grid spacing in (0, 1]; at most {MAX_GRID_POINTS} points",
    )
    sweep.add_argument("--tail-tol", type=float, default=analysis.DEFAULT_TAIL_TOL)
    sweep.add_argument("--out", required=True, help="output CSV path")

    sim = sub.add_parser("simulate", help="run the seeded Monte Carlo against a channel")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--channel", choices=_BUILTIN_CHANNELS)
    source.add_argument("--channel-file", help="JSON channel document")
    sim.add_argument("--x", type=float, default=None, help="builtin channel parameter")
    sim.add_argument("--n", type=int, default=DEFAULT_N)
    sim.add_argument("--pa", type=float, default=DEFAULT_PA)
    sim.add_argument("--bit", type=int, choices=(0, 1), default=0, help="message bit")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--transcript", default=None, help="also export stream-0 transcript files")

    val = sub.add_parser("validate-channel", help="check a channel document")
    val.add_argument("file")
    val.add_argument("--n", type=int, default=DEFAULT_N)
    val.add_argument("--pa", type=float, default=DEFAULT_PA)

    return parser, {"sweep": sweep, "simulate": sim, "validate-channel": val}


def main(argv=None) -> int:
    """Run one command; a reader that closes standard output early gives exit 3."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
        print("error: cannot write standard output: broken pipe", file=sys.stderr)
        return 3
    return code


def _drop_stdout() -> None:
    """Point standard output at the null device, so the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file descriptor: nothing is left to flush to the closed pipe
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _run(argv) -> int:
    top, commands = _build_parser()
    args = top.parse_args(argv)
    parser = commands[args.command]

    if args.command == "sweep":
        try:
            analysis.check_expectation(args.n, args.pa, args.tail_tol)
            config = SweepConfig(
                x_grid=_default_grid(args.grid_step),
                n_shots=args.n,
                p_announce=args.pa,
                tail_tol=args.tail_tol,
                output_path=args.out,
            )
        except ValueError as exc:
            parser.error(str(exc))
        return cmd_sweep(config)

    if args.command == "simulate":
        from sealsim import protocol

        try:
            params = protocol.ProtocolParams(
                n_shots=args.n, p_announce=args.pa, message_bit=args.bit, seed=args.seed
            )
            if args.trials < 1:
                raise ValueError("need at least one trial")
        except ValueError as exc:
            parser.error(str(exc))
        if args.x is not None and args.channel not in _PARAMETRIC_CHANNELS:
            source = "--channel-file" if args.channel is None else f"--channel {args.channel}"
            parser.error(f"--x applies only to --channel seal or depolarizing, not {source}")
        if args.channel_file is not None:
            channel = _read_channel_file(args.channel_file)
            if channel is None:
                return 2
        else:
            channel = _build_builtin(args.channel, args.x, parser)
        return cmd_simulate(params, channel, args.trials, args.transcript)

    try:
        analysis.check_expectation(args.n, args.pa)
    except ValueError as exc:
        parser.error(str(exc))
    return cmd_validate_channel(args.file, args.n, args.pa)


if __name__ == "__main__":
    sys.exit(main())
