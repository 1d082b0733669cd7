#!/usr/bin/env python3
"""Benchmark of the sealsim command line, end to end and by module.

Usage, from the repository root:

    python3 benchmarks/run.py --workload defaults --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50

One run measures one workload (see ``workloads.py`` and README.md) in this
process, so ``peak_rss_mb`` belongs to that workload alone; ``--workload all``
runs each workload in a fresh process of its own, then the known-defect
probe.  A single client calls ``sealsim.cli.main(argv)`` in a closed loop:
each invocation starts when the previous one returns.  Output checks run
outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with rates
in reference seconds: each step's rate divided by the host speed that
``calibrate()`` measures on either side of it, so that contention from
neighbours on a shared host cancels out (README.md gives the measurements
behind this); the table shows the wall-clock rates beside them.
``--trace 1`` runs a warm-up round, then alternates untraced and traced
passes (one round of the workload each) and reports the per-layer metrics
of the first traced pass.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when ``correct`` is false.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Import times taken before the first round; during the run, one more after
# each round that ends at least SETUP_EVERY_S after the previous import.
SETUP_BEFORE = 5
SETUP_EVERY_S = 4.0
# Invocations the CLI should answer but, at the time of writing, crash on.
# They are kept at their original sizes and run by ``--workload all``.
KNOWN_DEFECTS = (["sweep", "--n", "800", "--pa", "1.0", "--grid-step", "0.5"],)
# Runs of calibrate() per second that define host speed 1.0: the median of
# the per-run medians over seven runs of ``defaults`` (five of 50 s, two of
# 20 s) on a shared 2-core Xeon VM (Python 3.11.7, numpy 2.4.6), whose runs
# ranged 36-43.  A rate in reference seconds is what that host gives at its
# typical speed.
CALIBRATION_REF_PER_S = 38.0
# Share of a traced pass's wall time that may fall outside the cli.main spans.
SELF_SLACK = 0.01
METRIC_OF = {
    "sweep": "sweep_points_per_s",
    "validate-channel": "channels_per_s",
    "simulate": "shots_per_s",
}


@dataclass
class Outcome:
    invocation: workloads.Invocation
    seconds: float
    ok: bool


class Runner:
    """Runs invocations in-process, checks them and counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.tracer: tracing.Tracer | None = None

    def call(self, argv: list[str]) -> tuple[int | None, str, float, str | None]:
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the loop must go on; the failure is counted and shown
            code, error = None, traceback.format_exc()
        seconds = perf_counter() - start
        return code, stdout.getvalue(), seconds, error or stderr.getvalue() or None

    def invoke(self, inv: workloads.Invocation) -> Outcome:
        self.attempted += 1
        code, stdout, seconds, error = self.call(inv.argv)
        ok = code == inv.expect_exit
        if not ok:
            print(f"# FAILED {' '.join(inv.argv)}: exit {code}\n{error}", file=sys.stderr)
        elif inv.check is not None:
            try:
                inv.check(stdout)
            except Exception as exc:  # any error in the check means the output is wrong
                ok = False
                print(f"# WRONG OUTPUT {' '.join(inv.argv)}: {exc!r}", file=sys.stderr)
        self.failed += not ok
        written = len(stdout.encode()) + sum(p.stat().st_size for p in inv.outputs if p.exists())
        if self.tracer is not None:
            self.tracer.counts["cli.bytes_written"] += written
        return Outcome(inv, seconds, ok)

    def check_stream_contract(self, config: workloads.SimulateConfig) -> None:
        self.attempted += 1
        code, stdout, _, error = self.call(config.argv)
        try:
            if code != 0:
                raise workloads.CheckFailed(f"exit {code}: {error}")
            workloads.check_stream_contract(config, stdout)
        except Exception as exc:  # any error in the check means the output is wrong
            self.failed += 1
            print(f"# STREAM CONTRACT {' '.join(config.argv)}: {exc!r}", file=sys.stderr)


def calibrate() -> float:
    """Fixed interpreter-bound work, timed to gauge the host's current speed.

    Its mix (tuples, dict iteration, float math and small numpy calls)
    resembles the program's, so contention slows both alike.  The cyclic
    garbage collector is off while it runs, so the objects the program has
    left on the heap cannot change its cost.  Changing it rescales every
    reported rate: do so only in a change that re-measures
    CALIBRATION_REF_PER_S.  Returns the time taken.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0.0
        a = np.arange(64.0)
        for _ in range(24):
            items = {i: (i, i * 0.5, -i) for i in range(2000)}
            for i, x, y in items.values():
                acc += math.sqrt(x) + y * 1e-9
            for _ in range(60):
                acc += float(np.where(a > 3.0, a * 0.5, 0.0).sum())
        seconds = perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if not math.isfinite(acc):
        raise RuntimeError("calibration arithmetic failed")
    return seconds


def _rate(outcomes: list[Outcome]) -> float | None:
    good = [o for o in outcomes if o.ok]
    seconds = sum(o.seconds for o in good)
    return sum(o.invocation.work for o in good) / seconds if good else None


def _another_round(elapsed: float, rounds: int, seconds: float) -> bool:
    """Start another round if the run would end nearer ``seconds`` with it than without."""
    return elapsed + 0.5 * elapsed / rounds <= seconds


def host_speed() -> float:
    """The host's current speed: calibrate() runs per second over the reference."""
    return 1.0 / calibrate() / CALIBRATION_REF_PER_S


def measure(runner: Runner, workload: workloads.Workload, seconds: float):
    """Repeat the workload's round; each step is one sample of its command's rate.

    A calibration follows every step.  Each step's rate is divided by the
    mean host speed of the calibrations just before and after it, giving a
    rate in reference seconds.  Import times are not scaled: they run in a
    child process, and varied far less with the host speed than the speed
    itself did.  Returns the median of each metric (scaled for rates), the
    median wall-clock rates, the median host speed, and every sample (a
    rate as [wall-clock rate, host speed]).
    """
    setup = [measure_setup() for _ in range(SETUP_BEFORE)]
    rates: dict[str, list[list[float]]] = {}
    before = host_speed()
    start = last_setup = perf_counter()
    rounds = 0
    while True:
        for step in workload.round:
            rate = _rate([runner.invoke(inv) for inv in step.invocations])
            after = host_speed()
            if rate is not None:
                rates.setdefault(METRIC_OF[step.command], []).append([rate, (before + after) / 2.0])
            before = after
        rounds += 1
        if perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(measure_setup())
            last_setup = perf_counter()
        if not _another_round(perf_counter() - start, rounds, seconds):
            break
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update(
        (name, (statistics.median(rate / speed for rate, speed in pairs), "1/s"))
        for name, pairs in rates.items()
    )
    raw = {name: (statistics.median(rate for rate, _ in pairs), "1/s") for name, pairs in rates.items()}
    speed = statistics.median(speed for pairs in rates.values() for _, speed in pairs)
    return metrics, raw, speed, dict(rates, setup_s=setup)


def trace_passes(runner: Runner, workload: workloads.Workload, seconds: float):
    """Untraced and traced passes in turn; the first traced pass gives the layers.

    A pass's wall time is the runner's own timing of its invocations.  The
    module self times must cover all but SELF_SLACK of the traced one: the
    rest is the runner's call overhead outside ``cli.main``, so a larger gap
    means calls went untraced.
    """
    start = perf_counter()
    for step in workload.round:  # warm-up, so the first untraced pass is not the cold one
        for inv in step.invocations:
            runner.invoke(inv)
    first = None
    overheads = []
    while True:
        untraced = math.fsum(runner.invoke(i).seconds for step in workload.round for i in step.invocations)
        runner.tracer = tracing.Tracer()
        with runner.tracer:
            traced = math.fsum(
                runner.invoke(i).seconds for step in workload.round for i in step.invocations
            )
        tracer, runner.tracer = runner.tracer, None
        overheads.append(traced - untraced)
        if first is None:
            first = (tracer, traced, untraced)
        if not _another_round(perf_counter() - start, len(overheads), seconds):
            break
    tracer, traced, untraced = first
    metrics = tracer.metrics(traced, untraced)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    self_total = math.fsum(metrics[f"{m}.self_s"][0] for m in tracing.MODULES)
    if not 0.0 <= traced - self_total <= SELF_SLACK * traced:
        raise RuntimeError(f"module self times sum to {self_total} s of a {traced} s traced pass")
    return metrics, tracer.spans


def measure_setup() -> float:
    """Time to import sealsim.cli in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import sealsim.cli; "
        "print(time.perf_counter() - t); print(sealsim.cli.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    seconds, path = done.stdout.split()
    if Path(path).resolve() != (SRC / "sealsim" / "cli.py").resolve():
        raise RuntimeError(f"fresh interpreter imported sealsim from {path}")
    return float(seconds)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record() -> dict:
    import sealsim

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sealsim": sealsim.__version__,
        "commit": _git_commit(),
        "process": "each workload runs in its own fresh process; peak_rss_mb is that workload's alone",
        "client": "one client, closed loop, no threads",
    }


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _print_table(metrics, raw, attempted: int, failed: int) -> None:
    """Metric, value and unit; with ``raw``, also the wall-clock value."""
    width = max(len(n) for n in metrics) + 2
    if raw:
        print(f"{'# metric':<{width}} {'reference':>16} {'wall-clock':>16} unit")
    for name, (value, unit) in metrics.items():
        wall = f" {raw[name][0]:>16.6g}" if name in raw else ""
        print(f"{name:<{width}} {value:>16.6g}{wall} {unit}")
    print(f"{'failed_frac':<{width}} {failed / attempted:>16.6g} ({failed}/{attempted})")


def run_workload(args, cli) -> int:
    runner = Runner(cli)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    print("# " + json.dumps(record))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    spans = None
    raw: dict[str, tuple[float, str]] = {}
    try:
        workload = workloads.build(args.workload, args.seed, work)
        if args.trace:
            metrics, spans = trace_passes(runner, workload, args.seconds)
            kind = "per_layer"
        else:
            metrics, raw, speed, samples = measure(runner, workload, args.seconds)
            record.update(host_speed=speed, raw=raw, samples=samples)
            print(f"# median host speed {speed:.4f}")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            kind = "end_to_end"
        for config in workload.simulate_configs:
            runner.check_stream_contract(config)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Any failed invocation, missing metric or wrong unit makes the run incorrect.
    problems = []
    if runner.failed:
        problems.append(f"{runner.failed} of {runner.attempted} invocations failed")
    declared = _declared(kind)
    if set(metrics) != set(declared):
        problems.append(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    problems += [
        f"{name} is in {unit}, BENCHMARK.json says {declared[name]}"
        for name, (_, unit) in metrics.items()
        if name in declared and declared[name] != unit
    ]
    _print_table(metrics, raw, runner.attempted, runner.failed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(attempted=runner.attempted, failed=runner.failed, problems=problems, metrics=metrics)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for problem in problems:
        print(f"# ERROR {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


def run_defects(cli) -> tuple[int, int]:
    runner = Runner(cli)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        for argv in KNOWN_DEFECTS:
            inv = workloads.Invocation(argv + ["--out", str(Path(work) / "defect.csv")], 0)
            runner.invoke(inv)
    return runner.attempted, runner.failed


def run_all(args, cli) -> int:
    """Each workload in a fresh process, then the known-defect probe."""
    OUT.mkdir(exist_ok=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not done.stdout.strip():
            print(f"# workload {name} exited {done.returncode} without a result", file=sys.stderr)
            return done.returncode or 1
        *lines, last = done.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines))
        result = json.loads(last)
        correct &= result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print("## known defects (not in BENCHMARK.json, whose workloads must not fail)")
    probe_attempted, probe_failed = run_defects(cli)
    print(f"failed_frac {probe_failed / probe_attempted:.6g} ({probe_failed}/{probe_attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted + probe_attempted,
                      "failed": failed + probe_failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sealsim" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no sealsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sealsim import cli

    if Path(cli.__file__).resolve() != (SRC / "sealsim" / "cli.py").resolve():
        print(f"error: imported sealsim from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, cli)
    return run_workload(args, cli)


if __name__ == "__main__":
    sys.exit(main())
