import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import public_line_records, random_kraus_channel
import sealsim
from sealsim import analysis, protocol, qubit
from sealsim.channel_file import save_channel
from sealsim.cli import MAX_GRID_POINTS, SweepConfig, _default_grid, main
from sealsim.qubit import KrausChannel, depolarizing_channel, seal_channel


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_default_grid(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    assert any("n_shots = 119" in c for c in comments)
    assert any("p_announce = 0.05" in c for c in comments)
    assert header == "x,mi_bits,mismatch_conditional,mismatch_per_shot,truncation_mass"
    assert len(rows) == 21

    xs = [r[0] for r in rows]
    assert xs[0] == 0.0 and xs[-1] == 1.0
    mi = [r[1] for r in rows]
    mm = [r[2] for r in rows]
    assert rows[0][1] == 0.0 and rows[0][2] == 0.0 and rows[0][3] == 0.0
    assert all(0.0 <= v <= 1.0 for v in mi)
    assert all(0.0 <= v <= 0.5 for v in mm)
    assert all(b >= a - 1e-12 for a, b in zip(mi, mi[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(mm, mm[1:]))

    anchor = 1.0 - (1.0 - 0.025) ** 119
    assert abs(mi[-1] - anchor) <= 1e-9
    assert mm[-1] == 0.5
    x_half = next(r for r in rows if abs(r[0] - 0.5) < 1e-9)
    assert abs(x_half[2] - 0.25 * (1.5 - math.sqrt(0.5))) <= 1e-9
    assert all(r[4] < 1e-12 for r in rows)


def test_sweep_custom_step_and_pa(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["sweep", "--grid-step", "0.25", "--pa", "0.01", "--out", str(out)]) == 0
    comments, _, rows = read_csv(out)
    assert any("p_announce = 0.01" in c for c in comments)
    assert [r[0] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("n, pa", [(1000, 0.5), (800, 1.0)])
def test_sweep_at_large_n(tmp_path, n, pa):
    out = tmp_path / "large.csv"
    argv = ["sweep", "--n", str(n), "--pa", str(pa), "--grid-step", "0.5", "--out", str(out)]
    assert main(argv) == 0
    _, _, rows = read_csv(out)
    assert [r[0] for r in rows] == [0.0, 0.5, 1.0]
    assert all(0.0 <= r[1] <= 1.0 for r in rows)
    assert abs(rows[-1][1] - (1.0 - (1.0 - pa / 2.0) ** n)) <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--out", "x.csv", "--grid-step", "0"],
        ["sweep", "--out", "x.csv", "--grid-step", "1.5"],
        ["sweep", "--out", "x.csv", "--pa", "1.5"],
        ["sweep", "--out", "x.csv", "--tail-tol", "0.1"],
        ["sweep", "--out", "x.csv", "--n", "0"],
        ["sweep"],
    ],
)
def test_sweep_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("step", ["1e-6", "9.9999e-5"])
def test_sweep_grid_above_the_point_limit_exits_2(tmp_path, capsys, step):
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--grid-step", step, "--out", str(out)])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"more than {MAX_GRID_POINTS} points" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, command",
    [
        (["sweep", "--grid-step", "1e-6", "--out", "x.csv"], "sweep"),
        (["sweep", "--tail-tol", "0.1", "--out", "x.csv"], "sweep"),
        (["simulate", "--channel", "seal", "--x", "0.5", "--trials", "0"], "simulate"),
        (["simulate", "--channel", "seal"], "simulate"),
        (["simulate", "--channel", "depolarizing", "--x", "2"], "simulate"),
        (["validate-channel", "channel.json", "--pa", "2"], "validate-channel"),
    ],
    ids=[
        "sweep-grid-step",
        "sweep-tail-tol",
        "simulate-trials",
        "simulate-no-x",
        "simulate-bad-x",
        "validate-pa",
    ],
)
def test_argument_errors_show_the_subcommand_usage(tmp_path, monkeypatch, capsys, argv, command):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.splitlines()[0].startswith(f"usage: sealsim {command} ")
    assert f"sealsim {command}: error: " in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "source",
    [["--channel", "identity"], ["--channel", "dephasing"], ["--channel-file", "channel.json"]],
    ids=["identity", "dephasing", "channel-file"],
)
def test_simulate_refuses_x_for_a_channel_that_takes_none(tmp_path, monkeypatch, capsys, source):
    """Only seal and depolarizing take a parameter; --x elsewhere is an argument error."""
    monkeypatch.chdir(tmp_path)
    save_channel(seal_channel(0.5), tmp_path / "channel.json")
    with pytest.raises(SystemExit) as err:
        main(["simulate", *source, "--x", "0.3", "--trials", "2"])
    assert err.value.code == 2
    out, stderr = capsys.readouterr()
    assert out == ""
    want = f"--x applies only to --channel seal or depolarizing, not {source[0]}"
    assert f"sealsim simulate: error: {want}" in stderr


def test_sweep_grid_at_the_point_limit_is_accepted():
    grid = _default_grid(1e-4)
    assert len(grid) == MAX_GRID_POINTS
    assert grid[0] == 0.0 and grid[-1] == 1.0


def test_sweep_io_failure_exit_3(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["sweep", "--out", str(missing)]) == 3
    assert not missing.exists()


def test_sweep_config_rejects_bad_grids():
    with pytest.raises(ValueError):
        SweepConfig((0.5, 0.2), 119, 0.05, 1e-12, "out.csv")  # unsorted
    with pytest.raises(ValueError):
        SweepConfig((0.0, 1.2), 119, 0.05, 1e-12, "out.csv")  # out of range
    with pytest.raises(ValueError):
        SweepConfig((), 119, 0.05, 1e-12, "out.csv")  # empty


# The sha256 of the sweep CSV as the per-point evaluation wrote it; any
# changed digit of any column shows here.
PINNED_SWEEPS = [
    pytest.param(
        [],
        "9a03bb6ef45f07ba6bb15219d85d8558833d1ad44ca7ea03ac6c4de5e7cb980d",
        id="defaults",
    ),
    pytest.param(
        ["--pa", "0.5", "--grid-step", "0.5"],
        "c26b8273ace00696579fb6d31e2968266e7c3bba808e28da7d488c5f0f62b6b4",
        id="pa0.5-step0.5",
    ),
    pytest.param(
        ["--n", "500", "--pa", "0.5"],
        "d026c427e398782cc309da9d59da9730ba39c6922c5a9cc7a53419bd91caae93",
        id="n500-pa0.5",
    ),
    pytest.param(
        ["--n", "800", "--pa", "1.0", "--grid-step", "0.5"],
        "0ea1a5a9bdce5d990f16dc74abb4b0fea25c7642580cb2aea2c3980375df9751",
        id="n800-pa1",
    ),
    pytest.param(
        ["--grid-step", "1e-4"],
        "90c6ef913d41843ce515d8da69b5cad10856e7261d4b7e97307965ac898f9e78",
        id="step1e-4",
    ),
]


@pytest.mark.parametrize("options, want", PINNED_SWEEPS)
def test_sweep_csv_is_pinned(tmp_path, options, want):
    out = tmp_path / "curve.csv"
    assert main(["sweep", *options, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_the_benchmark_known_defect_probe_exits_0(tmp_path):
    """``sweep --n 800 --pa 1.0 --grid-step 0.5``, which the benchmark runs as
    a known-defect probe, writes every row with finite MI inside [0, 1]."""
    out = tmp_path / "probe.csv"
    probe = ["sweep", "--n", "800", "--pa", "1.0", "--grid-step", "0.5", "--out", str(out)]
    assert main(probe) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    assert [float(row[0]) for row in rows] == [0.0, 0.5, 1.0]
    assert all(0.0 <= float(row[1]) <= 1.0 for row in rows)
    assert abs(float(rows[-1][1]) - (1.0 - 0.5**800)) <= 1e-9


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_identity_report(capsys):
    code = main(
        ["simulate", "--channel", "identity", "--trials", "400", "--seed", "21"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "# channel = identity" in out
    mismatch_line = next(l for l in out.splitlines() if l.startswith("mismatch_conditional"))
    assert float(mismatch_line.split()[1]) == 0.0
    decode_line = next(l for l in out.splitlines() if l.startswith("decode_success"))
    empirical, err = float(decode_line.split()[1]), float(decode_line.split()[2])
    assert abs(empirical - 0.950847) <= 5 * max(err, 1e-6)


def test_simulate_deterministic_output(capsys):
    argv = ["simulate", "--channel", "seal", "--x", "0.5", "--trials", "200", "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def _report_table(text):
    """Map statistic name to (empirical, std_err, analytic-or-None)."""
    table = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and not line.startswith("#") and parts[0] != "statistic":
            analytic = None if parts[3] == "n/a" else float(parts[3])
            table[parts[0]] = (float(parts[1]), float(parts[2]), analytic)
    return table


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--channel", "seal", "--x", "0.5"],
        ["simulate", "--channel", "depolarizing", "--x", "0.4"],
        ["simulate", "--channel", "dephasing"],
    ],
    ids=["seal05", "depol04", "dephasing"],
)
def test_simulate_report_agrees_with_analytic_columns(argv, capsys):
    # >= 10^5 shots: 900 trials of 119 shots
    assert main(argv + ["--trials", "900", "--seed", "12", "--pa", "0.2"]) == 0
    table = _report_table(capsys.readouterr().out)
    assert len(table) == 7
    for name, (empirical, err, analytic) in table.items():
        if analytic is None or name == "decode_success":  # baseline assumes no disturbance
            continue
        if err == 0.0:
            assert empirical == analytic
        else:
            assert abs(empirical - analytic) <= 5 * err, name


@pytest.mark.parametrize(
    "pa, undefined",
    [
        ("0", {"decode_correct|success", *(f"freq(sigma{b},c={c})" for b in (1, 3) for c in (0, 1))}),
        ("1", {"mismatch_conditional"}),
    ],
    ids=["pa0", "pa1"],
)
def test_simulate_prints_nan_for_rows_with_no_events(pa, undefined, capsys):
    """At --pa 0 no shot announces a bit, so the decode and announcement-frequency
    rows have no events; at --pa 1 no shot announces a result, so the mismatch
    row has none.  Those rows print nan with exit 0, and only those."""
    argv = ["simulate", "--channel", "seal", "--x", "0.5", "--pa", pa, "--trials", "50"]
    assert main(argv) == 0
    table = _report_table(capsys.readouterr().out)
    assert len(table) == 7
    assert {name for name, (empirical, _, _) in table.items() if math.isnan(empirical)} == undefined
    assert all(math.isnan(table[name][1]) for name in undefined)


def test_simulate_requires_channel_parameter():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--channel", "seal"])
    assert err.value.code == 2


def test_simulate_rejects_bad_params():
    for argv in (
        ["simulate", "--channel", "identity", "--pa", "2"],
        ["simulate", "--channel", "identity", "--trials", "0"],
        ["simulate", "--channel", "identity", "--bit", "3"],
        ["simulate"],
        ["simulate", "--channel", "seal", "--x", "1.5"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_simulate_channel_file_and_transcripts(tmp_path, capsys):
    channel_path = tmp_path / "seal05.json"
    save_channel(seal_channel(0.5), channel_path)
    transcript = tmp_path / "run.csv"
    code = main(
        [
            "simulate",
            "--channel-file",
            str(channel_path),
            "--trials",
            "50",
            "--seed",
            "3",
            "--transcript",
            str(transcript),
        ]
    )
    assert code == 0
    capsys.readouterr()

    private = transcript.read_text().splitlines()
    public = (tmp_path / "run.csv.public").read_text().splitlines()
    private_header = next(l for l in private if not l.startswith("#"))
    public_header = next(l for l in public if not l.startswith("#"))
    assert private_header == "shot_index,prep,basis,result,announcement_kind,announced_value"
    assert public_header == "shot_index,basis,announcement_kind,announced_value"
    assert any(l.startswith("# seed = 3") for l in private)
    n_private = sum(1 for l in private if not l.startswith("#")) - 1
    n_public = sum(1 for l in public if not l.startswith("#")) - 1
    assert n_private == n_public == 119


def test_transcript_files_are_deterministic(tmp_path, capsys):
    argv_base = ["simulate", "--channel", "seal", "--x", "0.3", "--trials", "20", "--seed", "9"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv_base + ["--transcript", str(first)]) == 0
    assert main(argv_base + ["--transcript", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.csv.public").read_bytes() == (tmp_path / "b.csv.public").read_bytes()


# The sha256 of both transcript files (full, public) as a per-record
# formatter wrote them; any change to a field, the line layout or the
# comments shows here.  RANDOM_3OP stands for a random 3-operator channel file.
RANDOM_3OP = "<random 3-op channel file>"
PINNED_TRANSCRIPTS = [
    pytest.param(
        ["--channel", "seal", "--x", "0.5", "--n", "1", "--pa", "1", "--seed", "3"],
        (
            "1703b7f7da7502ec85e1a261502be3c1dfdf8bf018ffa4fdfa97a29220c1bfb2",
            "0e290357e6d39b5df85003b098febb23d9406daeccc1a047eae664a61e4346a6",
        ),
        id="n1-pa1",
    ),
    pytest.param(
        ["--channel", "depolarizing", "--x", "0.3", "--pa", "0", "--bit", "1", "--seed", "5"],
        (
            "edfae8b3bd67fcfb5636002647242d61f3b205504f1f433591d7a83f42a1870e",
            "ef985b1fdcf1a674ad99cb458b363182e51cc37ec6dfc758fd7ec1850254146e",
        ),
        id="pa0-bit1",
    ),
    pytest.param(
        ["--channel-file", RANDOM_3OP, "--pa", "0.2", "--seed", "99"],
        (
            "285fca193b947be03c096c98617df9e2844d1de94283f58b8cac64086b4cfcda",
            "3b9fb53402d6f11726c0f59d84cfd0c11ff95ad7e133faa62c277425eec26dcd",
        ),
        id="random3op",
    ),
    pytest.param(
        ["--channel", "seal", "--x", "0.5", "--n", "50000", "--pa", "0.5", "--seed", "7"],
        (
            "71d61e14f00fa79e6d188f51d806941803e9b61884f60b0494059aad465830d4",
            "b5d857afb40c0ebce635aa21fc5d3042a7d5dae825c0c45a6b590bc6f1084adc",
        ),
        id="n50000",
    ),
]


@pytest.mark.parametrize("options, want", PINNED_TRANSCRIPTS)
def test_transcript_files_are_pinned(tmp_path, capsys, options, want):
    """Both files keep their bytes.  (That the run's public entries are the
    projection of its records is checked in tests/test_protocol.py, over
    these settings.)"""
    if RANDOM_3OP in options:
        channel_path = tmp_path / "random3.json"
        save_channel(random_kraus_channel(np.random.default_rng(123), 3), channel_path)
        options = [str(channel_path) if o == RANDOM_3OP else o for o in options]
    transcript = tmp_path / "run.csv"
    assert main(["simulate", *options, "--trials", "10", "--transcript", str(transcript)]) == 0
    capsys.readouterr()
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (transcript, tmp_path / "run.csv.public")
    )
    assert digests == want


def test_simulate_transcript_builds_no_records_and_reads_no_keys_back(
    tmp_path, monkeypatch, capsys
):
    """The CLI writes both files from one key column: it never runs the
    record-building ``run_protocol`` nor reads keys out of records."""

    def refuse(*args, **kwargs):
        raise AssertionError("simulate --transcript went through the per-shot records")

    monkeypatch.setattr(protocol, "run_protocol", refuse)
    monkeypatch.setattr(protocol, "_record_keys", refuse)
    options, want = PINNED_TRANSCRIPTS[-1].values
    transcript = tmp_path / "run.csv"
    assert main(["simulate", *options, "--trials", "2", "--transcript", str(transcript)]) == 0
    capsys.readouterr()
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (transcript, tmp_path / "run.csv.public")
    )
    assert digests == want


def test_simulate_transcript_io_failure_exit_3(tmp_path, capsys):
    transcript = tmp_path / "no" / "such" / "dir" / "run.csv"
    argv = ["simulate", "--channel", "identity", "--trials", "5", "--transcript", str(transcript)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write transcript:")
    assert "Traceback" not in err
    assert not transcript.exists()
    assert list(tmp_path.rglob(".sealsim-*.tmp")) == []


def _refuse_replace_onto(monkeypatch, target):
    """Make ``os.replace`` fail for renames onto ``target`` only."""
    replace = os.replace

    def refuse(src, dst):
        if os.fspath(dst) == os.fspath(target):
            raise OSError(f"rename onto {os.path.basename(dst)} refused")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)


def test_simulate_transcript_memory_is_flat_in_n(tmp_path, capsys):
    """Both files are streamed in chunks: at N = 10**6 the peak is the
    1 MB key column and at most 1 MiB more."""
    argv = ["simulate", "--channel", "seal", "--x", "0.5", "--pa", "0.5", "--trials", "1"]
    transcript = tmp_path / "run.csv"
    assert main(argv + ["--n", "50000", "--transcript", str(transcript)]) == 0  # first calls
    tracemalloc.start()
    try:
        assert main(argv + ["--n", str(10**6), "--transcript", str(transcript)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 10**6 + 2**20
    for path, last in ((transcript, b"\n999999,"), (tmp_path / "run.csv.public", b"\n999999,")):
        with path.open("rb") as handle:
            handle.seek(-40, os.SEEK_END)
            assert last in handle.read()


def test_simulate_transcript_full_file_failure_keeps_the_public_file(tmp_path, monkeypatch, capsys):
    """The full file's error reaches the CLI unchanged, and the public file
    is not renamed into place before the full one is."""
    options, _ = PINNED_TRANSCRIPTS[-1].values
    transcript = tmp_path / "run.csv"
    public = tmp_path / "run.csv.public"
    public.write_bytes(b"old public\n")
    _refuse_replace_onto(monkeypatch, transcript)
    threads = threading.active_count()
    assert main(["simulate", *options, "--trials", "2", "--transcript", str(transcript)]) == 3
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert err == "error: cannot write transcript: rename onto run.csv refused\n"
    assert not transcript.exists()
    assert public.read_bytes() == b"old public\n"
    assert list(tmp_path.glob(".sealsim-*.tmp")) == []


def test_simulate_transcript_public_file_failure_keeps_the_full_file(tmp_path, monkeypatch, capsys):
    options, (full, _) = PINNED_TRANSCRIPTS[-1].values
    transcript = tmp_path / "run.csv"
    public = tmp_path / "run.csv.public"
    _refuse_replace_onto(monkeypatch, public)
    threads = threading.active_count()
    assert main(["simulate", *options, "--trials", "2", "--transcript", str(transcript)]) == 3
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert err == "error: cannot write transcript: rename onto run.csv.public refused\n"
    assert hashlib.sha256(transcript.read_bytes()).hexdigest() == full
    assert not public.exists()
    assert list(tmp_path.glob(".sealsim-*.tmp")) == []


class _DiskFullAfterOneChunk(io.BufferedWriter):
    """A binary file whose third write, the one after the header and the
    first chunk of lines, fails as a full disk does."""

    writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


def test_simulate_transcript_write_failure_after_a_chunk_exit_3(tmp_path, monkeypatch, capsys):
    """A write that fails mid-file stops the command, with no temporary
    file left, no thread left behind and the old files' bytes kept."""
    options, _ = PINNED_TRANSCRIPTS[-1].values
    transcript, public = tmp_path / "run.csv", tmp_path / "run.csv.public"
    transcript.write_bytes(b"old full\n")
    public.write_bytes(b"old public\n")
    fdopen = os.fdopen

    def disk_full_fdopen(fd, mode="r", *args, **kwargs):
        if mode == "wb":
            return _DiskFullAfterOneChunk(io.FileIO(fd, "w"))
        return fdopen(fd, mode, *args, **kwargs)

    monkeypatch.setattr(os, "fdopen", disk_full_fdopen)
    threads = threading.active_count()
    argv = ["simulate", *options, "--trials", "2", "--transcript", str(transcript)]
    assert main(argv) == 3
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert err == "error: cannot write transcript: [Errno 28] No space left on device\n"
    assert transcript.read_bytes() == b"old full\n"
    assert public.read_bytes() == b"old public\n"
    assert list(tmp_path.glob(".sealsim-*.tmp")) == []


def test_simulate_transcript_public_build_failure_keeps_the_full_file(
    tmp_path, monkeypatch, capsys
):
    """An error while building the public file's chunks propagates after
    the full file has been renamed into place, and the public file is not."""
    options, (full, _) = PINNED_TRANSCRIPTS[-1].values
    transcript = tmp_path / "run.csv"
    written = []
    write_atomic = protocol.write_atomic
    transcript_body = protocol._transcript_body

    def recorded_write(path, data):
        write_atomic(path, data)
        written.append(os.fspath(path))

    def fail_public(keys, start, records):
        if public_line_records(records):
            raise RuntimeError("public body failed")
        return transcript_body(keys, start, records)

    monkeypatch.setattr(protocol, "write_atomic", recorded_write)
    monkeypatch.setattr(protocol, "_transcript_body", fail_public)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="public body failed"):
        main(["simulate", *options, "--trials", "2", "--transcript", str(transcript)])
    assert written == [str(transcript)]
    assert threading.active_count() == threads
    capsys.readouterr()
    assert hashlib.sha256(transcript.read_bytes()).hexdigest() == full
    assert not (tmp_path / "run.csv.public").exists()
    assert list(tmp_path.glob(".sealsim-*.tmp")) == []


def test_simulate_transcript_full_build_failure_renames_neither_file(tmp_path, monkeypatch, capsys):
    """An error while building the full file's chunks reaches the caller
    unchanged, and neither file is renamed into place."""
    options, _ = PINNED_TRANSCRIPTS[-1].values
    transcript, public = tmp_path / "run.csv", tmp_path / "run.csv.public"
    transcript.write_bytes(b"old full\n")
    public.write_bytes(b"old public\n")
    transcript_body = protocol._transcript_body
    built = []

    def fail_third_full(keys, start, records):
        if not public_line_records(records):
            if len(built) == 2:
                raise RuntimeError("full body failed")
            built.append(len(keys))
        return transcript_body(keys, start, records)

    monkeypatch.setattr(protocol, "_transcript_body", fail_third_full)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="full body failed"):
        main(["simulate", *options, "--trials", "2", "--transcript", str(transcript)])
    assert built == [protocol._BLOCK_CELLS] * 2
    assert threading.active_count() == threads
    capsys.readouterr()
    assert transcript.read_bytes() == b"old full\n"
    assert public.read_bytes() == b"old public\n"
    assert list(tmp_path.glob(".sealsim-*.tmp")) == []


def test_outputs_are_written_through_a_symlink(tmp_path, capsys):
    """As with ``open(path, "w")``, an output path that is a symlink is
    followed: the file it points to gets the new bytes and keeps its mode,
    and the link stays a link."""
    real = tmp_path / "real"
    real.mkdir()
    names = ("curves.csv", "run.csv", "run.csv.public")
    for name in names:
        (real / name).write_text("old\n")
        (real / name).chmod(0o640)
        (tmp_path / name).symlink_to(real / name)
    assert main(["sweep", "--out", str(tmp_path / "curves.csv")]) == 0
    options, want = PINNED_TRANSCRIPTS[-1].values
    argv = ["simulate", *options, "--trials", "2", "--transcript", str(tmp_path / "run.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    for name in names:
        link = tmp_path / name
        assert link.is_symlink() and os.readlink(link) == str(real / name)
        assert oct((real / name).stat().st_mode & 0o7777) == oct(0o640)
    assert (real / "curves.csv").read_text().startswith("# sealsim sweep")
    digests = tuple(hashlib.sha256((real / name).read_bytes()).hexdigest() for name in names[1:])
    assert digests == want
    assert list(tmp_path.rglob(".sealsim-*.tmp")) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_output_files_get_the_mode_the_umask_gives(tmp_path, capsys, umask, mode):
    """The sweep CSV and both transcripts are created as ``open(path, "w")``
    would create them: 0o666 less the umask."""
    curves, transcript = tmp_path / "curves.csv", tmp_path / "run.csv"
    old = os.umask(umask)
    try:
        assert main(["sweep", "--out", str(curves)]) == 0
        argv = ["simulate", "--channel", "seal", "--x", "0.3", "--trials", "2"]
        assert main(argv + ["--transcript", str(transcript)]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    for path in (curves, transcript, tmp_path / "run.csv.public"):
        assert oct(path.stat().st_mode & 0o7777) == oct(mode), path.name


def test_simulate_invalid_channel_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "incomplete.json"
    bad.write_text(
        '{"label": "half", "operators": [[[[1,0],[0,0]],[[0,0],[0.5,0]]]]}'
    )
    assert main(["simulate", "--channel-file", str(bad)]) == 1
    assert "completeness" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "validate-channel"])
def test_an_entry_near_the_top_of_the_double_range_fails_with_an_inf_deviation(
    tmp_path, capsys, command
):
    """1e308 is finite, but its completeness products overflow: the
    deviation reads inf, with no numpy warning (the suite turns one into an
    error), and the channel fails with exit 1."""
    path = tmp_path / "big.json"
    path.write_text('{"label": "big", "operators": [[[[1e308,0],[0,0]],[[0,0],[1,0]]]]}')
    option = ["--channel-file"] if command == "simulate" else []
    assert main([command, *option, str(path)]) == 1
    captured = capsys.readouterr()
    if command == "simulate":
        assert captured.err == "error: channel 'big' fails completeness (deviation inf)\n"
        assert captured.out == ""
    else:
        assert captured.out.endswith(
            "\nlabel = big\noperators = 1\ncompleteness_deviation = inf\nverdict = FAIL\n"
        )
        assert captured.err == ""


def test_simulate_unparseable_channel_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main(["simulate", "--channel-file", str(bad)]) == 2
    assert "line" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert main(["simulate", "--channel-file", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


# ---------------------------------------------------------------------------
# validate-channel
# ---------------------------------------------------------------------------


def test_validate_channel_pass(tmp_path, capsys):
    path = tmp_path / "seal036.json"
    save_channel(seal_channel(0.36), path)
    assert main(["validate-channel", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict = PASS" in out
    assert "chaotic_image_lambda = 0.36" in out
    assert "unital = no" in out
    assert "expected_mi_bits" in out
    assert "mismatch_matched_basis = 0.14" in out


def test_validate_channel_identity_unital(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(
        '{"label": "identity", "operators": [[[[1,0],[0,0]],[[0,0],[1,0]]]]}'
    )
    assert main(["validate-channel", str(path)]) == 0
    out = capsys.readouterr().out
    assert "unital = yes" in out
    assert "expected_mi_bits = 0 " in out
    assert "mismatch_matched_basis = 0" in out


def test_validate_channel_honors_n_and_pa_flags(tmp_path, capsys):
    path = tmp_path / "seal05.json"
    save_channel(seal_channel(0.5), path)
    assert main(["validate-channel", str(path), "--n", "50", "--pa", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "(n_shots=50, p_announce=0.1)" in out
    mi_line = next(l for l in out.splitlines() if l.startswith("expected_mi_bits"))
    from sealsim.analysis import bit_announcement_probs, expected_mutual_information

    want = expected_mutual_information(bit_announcement_probs(seal_channel(0.5)), 50, 0.1)
    assert abs(float(mi_line.split()[2]) - want.mi_bits) <= 1e-9


@pytest.mark.parametrize(
    "channel, want",
    [(seal_channel(1.0), 1.0 - 0.75**2000), (depolarizing_channel(0.3), 0.0)],
    ids=["seal10", "depolarizing"],
)
def test_validate_channel_at_large_n(tmp_path, capsys, channel, want):
    path = tmp_path / "channel.json"
    save_channel(channel, path)
    assert main(["validate-channel", str(path), "--n", "2000", "--pa", "0.5"]) == 0
    out = capsys.readouterr().out
    mi = float(next(l for l in out.splitlines() if l.startswith("expected_mi_bits")).split()[2])
    if want == 0.0:
        assert mi == 0.0  # a unital channel leaks nothing at any N
    else:
        assert abs(mi - want) <= 1e-9  # the x=1 anchor 1-(1-pa/2)^N


@pytest.mark.parametrize(
    "flags",
    [["--n", "0"], ["--pa", "2"], ["--pa", "nan"], ["--pa", "-0.1"]],
    ids=["n0", "pa2", "pa-nan", "pa-negative"],
)
def test_validate_channel_bad_arguments_exit_2(tmp_path, flags):
    path = tmp_path / "seal05.json"
    save_channel(seal_channel(0.5), path)
    for target in (path, tmp_path / "missing.json"):  # checked before the file is read
        with pytest.raises(SystemExit) as err:
            main(["validate-channel", str(target), *flags])
        assert err.value.code == 2


def test_validate_channel_past_the_plane_limit_exits_2(tmp_path, capsys):
    """A general channel at --n 100000 --pa 0.5 would need tables of about 5e9
    cells: the command names the limit and exits 2 without building any, and
    prints no report."""
    path = tmp_path / "random.json"
    save_channel(random_kraus_channel(np.random.default_rng(123), 3), path)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(["validate-channel", str(path), "--n", "100000", "--pa", "0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: expected MI with both bases tilted at ")
    limit = f"over the limit of {analysis._PLANE_CELLS} (string length {analysis._PLANE_TOP})"
    assert limit in captured.err
    assert captured.err.count("\n") == 1
    assert peak <= 8 * 2**20  # the binomial weights over N, not a table
    assert elapsed < 5.0


LENGTH_LIMIT = (
    f"over the limit of {analysis._LENGTH_CELLS} (N = {analysis._LENGTH_CELLS - 1}); lower N"
)


def _run_without_tables(monkeypatch, argv):
    """``main(argv)``'s exit code and its tracemalloc peak, failing on any
    log-factorial table: each is an array over 0..N."""

    def no_table(n):
        raise AssertionError(f"a table over 0..{n} was built")

    monkeypatch.setattr(analysis, "_log_factorials", no_table)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.mark.parametrize("n", ["100000000", "1000000000000"])
def test_sweep_past_the_length_limit_exits_2(tmp_path, capsys, monkeypatch, n):
    """An N whose binomial table over 0..N is past its cap is refused with
    exit 2 and one line naming the limit, before anything of size N is
    allocated, and no CSV is written."""
    out = tmp_path / "curves.csv"
    code, peak = _run_without_tables(monkeypatch, ["sweep", "--n", n, "--pa", "0.5", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: N = {n} needs a binomial table of {int(n) + 1} cells, {LENGTH_LIMIT}\n"
    assert not out.exists()
    assert peak < 2**20


@pytest.mark.parametrize(
    "channel, code",
    [
        (seal_channel(0.5), 2),
        (random_kraus_channel(np.random.default_rng(123), 3), 2),
        (qubit.dephasing_channel(), 0),
    ],
    ids=["line", "plane", "unital"],
)
def test_validate_channel_past_the_length_limit(tmp_path, capsys, monkeypatch, channel, code):
    """At N = 10**8 a line or a plane file exits 2 naming the length limit
    (the plane's own limit is never reached), with no report and no table
    built; a unital file builds no table and reports 0 bits."""
    path = tmp_path / "channel.json"
    save_channel(channel, path)
    got, peak = _run_without_tables(monkeypatch, ["validate-channel", str(path), "--n", "100000000"])
    assert got == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: N = 100000000 needs a binomial table")
        assert captured.err.endswith(f"{LENGTH_LIMIT}\n") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""
        assert "expected_mi_bits = 0 (n_shots=100000000, p_announce=0.05)" in captured.out
    assert peak < 2**20


# The sha256 of the validate-channel report for a file named channel.json in
# the working directory; RANDOM_3OP is the seeded random 3-operator channel
# of the transcript pins.
PINNED_REPORTS = [
    pytest.param(
        seal_channel(0.5), [],
        "2770fd5f5c07970ce269f4f56dfac479fd191929be8e951dc4ef0443d813fa78",
        id="seal0.5",
    ),
    pytest.param(
        seal_channel(0.5), ["--pa", "0.5"],
        "4993bfaa211a0f5fe61d78d83374e5c3f00767bb297f43ce5d61aedcb7d82ef5",
        id="seal0.5-pa0.5",
    ),
    pytest.param(
        depolarizing_channel(0.3), [],
        "cd2ba7fecf49078060f7f29dbb424214b1dccb7dad78bc1408810a1ff9887d68",
        id="depolarizing0.3",
    ),
    pytest.param(
        depolarizing_channel(0.3), ["--pa", "0.5"],
        "49a5230ad2683e4ff3ee5f022f01ea0c3bf188c8a0a739925b88bc357b90e783",
        id="depolarizing0.3-pa0.5",
    ),
    pytest.param(
        RANDOM_3OP, [],
        "a4ef7f4d3ec2a41ad80ada18e36a97c3148535c26a0de0c3e997d6d4a73de86a",
        id="random3op",
    ),
    pytest.param(
        RANDOM_3OP, ["--pa", "0.5"],
        "4f98ad93ce517da15134de112a83abec63ae78d000d0bada9c2d5f1800106ccb",
        id="random3op-pa0.5",
    ),
]


@pytest.mark.parametrize("channel, options, want", PINNED_REPORTS)
def test_validate_channel_report_is_pinned(tmp_path, monkeypatch, capsys, channel, options, want):
    if channel is RANDOM_3OP:
        channel = random_kraus_channel(np.random.default_rng(123), 3)
    monkeypatch.chdir(tmp_path)
    save_channel(channel, "channel.json")
    assert main(["validate-channel", "channel.json", *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_validate_channel_incomplete_exit_1(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text('{"label": "half", "operators": [[[[1,0],[0,0]],[[0,0],[0.5,0]]]]}')
    assert main(["validate-channel", str(path)]) == 1
    out = capsys.readouterr().out
    assert "verdict = FAIL" in out
    assert "completeness_deviation = 7.5" in out


def test_validate_channel_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"label": "x", "operators": [')
    assert main(["validate-channel", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err

    missing = tmp_path / "missing.json"
    assert main(["validate-channel", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


# Channels whose completeness deviation lies just inside or just outside the
# gate (1e-10).  A scaled identity leaves the maximally mixed state mixed; a
# scaled reset to |0> takes it to a pure state, whose unnormalized image has
# a Bloch radius above 1.
_SCALE_INSIDE, _SCALE_OUTSIDE = "1.00000000003", "1.00000000004"


def _scaled_identity(scale: str) -> str:
    return f'{{"label": "scaled", "operators": [[[[{scale},0],[0,0]],[[0,0],[{scale},0]]]]}}'


def _scaled_reset(scale: str) -> str:
    return (
        f'{{"label": "reset", "operators": [[[[{scale},0],[0,0]],[[0,0],[0,0]]], '
        f'[[[0,0],[{scale},0]],[[0,0],[0,0]]]]}}'
    )


@pytest.mark.parametrize("document", [_scaled_identity, _scaled_reset])
def test_validate_channel_within_the_gate_passes(tmp_path, capsys, document):
    path = tmp_path / "near.json"
    path.write_text(document(_SCALE_INSIDE))
    assert main(["validate-channel", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict = PASS" in out
    values = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert 5e-11 < float(values["completeness_deviation"]) <= 1e-10
    assert float(values["chaotic_image_lambda"]) == (0.0 if document is _scaled_identity else 1.0)


@pytest.mark.parametrize("document", [_scaled_identity, _scaled_reset])
def test_validate_channel_just_above_the_gate_fails(tmp_path, capsys, document):
    path = tmp_path / "above.json"
    path.write_text(document(_SCALE_OUTSIDE))
    assert main(["validate-channel", str(path)]) == 1
    out = capsys.readouterr().out
    assert "verdict = FAIL" in out
    assert "chaotic_image_lambda" not in out


@pytest.mark.parametrize("document", [_scaled_identity, _scaled_reset])
def test_simulate_channel_at_the_gate(tmp_path, capsys, document):
    path = tmp_path / "near.json"
    path.write_text(document(_SCALE_INSIDE))
    assert main(["simulate", "--channel-file", str(path), "--trials", "20"]) == 0
    assert "mismatch_conditional" in capsys.readouterr().out
    path.write_text(document(_SCALE_OUTSIDE))
    assert main(["simulate", "--channel-file", str(path), "--trials", "20"]) == 1
    assert "fails completeness" in capsys.readouterr().err


def test_python_dash_m_sealsim_runs_from_a_source_tree(tmp_path):
    """``python -m sealsim`` works with only the source tree on the path, and
    keeps the documented exit codes without a traceback."""
    good, incomplete = tmp_path / "good.json", tmp_path / "half.json"
    save_channel(seal_channel(0.5), good)
    incomplete.write_text('{"label": "half", "operators": [[[[1,0],[0,0]],[[0,0],[0.5,0]]]]}')
    src = str(Path(sealsim.__file__).resolve().parents[1])
    path_entries = (src, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    for path, code, verdict in (
        (good, 0, "verdict = PASS"),
        (incomplete, 1, "verdict = FAIL"),
        (tmp_path / "missing.json", 2, ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "sealsim", "validate-channel", str(path)],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert verdict in proc.stdout
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["validate-channel", "{path}"],
        ["simulate", "--channel-file", "{path}", "--trials", "2", "--n", "3"],
    ],
)
def test_a_reader_that_closes_the_pipe_gives_exit_3(tmp_path, command):
    """The reader takes one line and closes the pipe, as ``| head -1`` does.

    The label is longer than a pipe's buffer, so the command is still
    writing when the reader leaves, whatever the timing: exit 3 and one
    line on stderr, with no traceback and nothing from the flush at exit.
    """
    path = tmp_path / "long.json"
    save_channel(KrausChannel((np.eye(2),), label="x" * 300_000), path)
    src = str(Path(sealsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [arg.format(path=path) for arg in command]
    # leaving the block closes both pipes, so no file object is left to the collector
    with subprocess.Popen(
        [sys.executable, "-m", "sealsim", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=tmp_path,
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 3, stderr
        finally:
            proc.kill()
            proc.wait()
    assert first == f"# sealsim {command[0]}\n".encode()
    assert stderr.splitlines() == ["error: cannot write standard output: broken pipe"]


def _label_document(label: str) -> str:
    return json.dumps({"label": label, "operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]})


@pytest.mark.parametrize("character", ["\n", "\r", "\t", "\x00", "\x1b", "\x1f", "\x7f"])
@pytest.mark.parametrize("command", [["validate-channel"], ["simulate", "--channel-file"]])
def test_a_label_with_a_control_character_exits_2(tmp_path, capsys, character, command):
    path = tmp_path / "labelled.json"
    path.write_text(_label_document(f"a{character}b"))
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f'error: {path}: "label" has control character U+{ord(character):04X} at index 1\n'
    )


def _cell_document(cell: str) -> str:
    """A channel document whose top-left entry is the given JSON text."""
    return '{"label": "c", "operators": [[[%s, [0, 0]], [[0, 0], [1, 0]]]]}' % cell


# Malformed channel files that the JSON reader, the number conversion or the
# output encoding would otherwise end in a traceback, as bytes on disk.
MALFORMED_FILES = [
    pytest.param(_cell_document("[1" + "0" * 400 + ", 0]").encode(), id="integer-beyond-float"),
    pytest.param(_cell_document("[1" + "0" * 5000 + ", 0]").encode(), id="integer-of-5001-digits"),
    pytest.param(b"[" * 100_000, id="nested-100000-deep"),
    pytest.param(_cell_document("[1, 0]").encode().replace(b'"c"', b'"caf\xe9"'), id="not-utf-8"),
    pytest.param(_label_document("a\ud800b").encode(), id="lone-surrogate-label"),
]


def _run_sealsim(args, cwd) -> subprocess.CompletedProcess:
    """``python -m sealsim ARGS`` in a fresh interpreter, importing this checkout's sources."""
    src = str(Path(sealsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "sealsim", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


@pytest.mark.parametrize("document", MALFORMED_FILES)
@pytest.mark.parametrize("command", [["validate-channel"], ["simulate", "--trials", "2", "--channel-file"]])
def test_a_malformed_channel_file_exits_2_without_a_traceback(tmp_path, document, command):
    path = tmp_path / "malformed.json"
    path.write_bytes(document)
    proc = _run_sealsim([*command, str(path)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "cell, shown",
    [
        pytest.param("[" * 980 + "]" * 980, "[[[[[[[...]]]]]]]", id="980-nested-arrays"),
        pytest.param(json.dumps(list(range(10_000))), "[0, 1, 2, 3, 4, 5, ...]", id="10000-ints"),
        pytest.param(json.dumps("x" * 10_000), "'xxxxxxxxxxxx...xxxxxxxxxxxxx'", id="10000-chars"),
    ],
)
@pytest.mark.parametrize("command", [["validate-channel"], ["simulate", "--trials", "2", "--channel-file"]])
def test_a_large_malformed_cell_is_shown_cut_short(tmp_path, cell, shown, command):
    path = tmp_path / "large-cell.json"
    path.write_text(_cell_document(cell))
    proc = _run_sealsim([*command, str(path)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: {path}: operators[0][0][0]: expected an [re, im] number pair, got {shown}\n"
    )


@pytest.mark.parametrize("label", ["a b", "seal(x=0.5) éè → \U0001f600", "\x80\x9f", ""])
def test_printable_labels_are_kept(tmp_path, capsys, label):
    path = tmp_path / "labelled.json"
    path.write_text(_label_document(label))
    assert main(["validate-channel", str(path)]) == 0
    assert f"\nlabel = {label}\n" in capsys.readouterr().out


def _count_validations(monkeypatch) -> list:
    """Replace ``validate_channel`` in every sealsim module that binds it by a counting wrapper."""
    calls = []
    validate = qubit.validate_channel

    def counting(ch):
        calls.append(ch)
        return validate(ch)

    for name, module in list(sys.modules.items()):
        if name.startswith("sealsim") and getattr(module, "validate_channel", None) is validate:
            monkeypatch.setattr(module, "validate_channel", counting)
    return calls


@pytest.mark.parametrize("channel", [seal_channel(0.5), random_kraus_channel(np.random.default_rng(8), 3)])
def test_validate_channel_validates_the_channel_once(tmp_path, monkeypatch, capsys, channel):
    """One validation, and one operator sum: the report's Born table serves
    the mismatch."""
    path = tmp_path / "channel.json"
    save_channel(channel, path)
    calls = _count_validations(monkeypatch)
    sums = []
    operator_sum = qubit._operator_sum
    monkeypatch.setattr(
        qubit, "_operator_sum", lambda *args: sums.append(args) or operator_sum(*args)
    )
    assert main(["validate-channel", str(path), "--pa", "0.5"]) == 0
    assert len(calls) == 1 and len(sums) == 1
    assert "expected_mi_bits = " in capsys.readouterr().out


def test_simulate_validates_the_channel_once(monkeypatch, capsys):
    """The report's validation serves the shot sampler and the analytic rows."""
    calls = _count_validations(monkeypatch)
    assert main(["simulate", "--channel", "seal", "--x", "0.5", "--trials", "3"]) == 0
    assert len(calls) == 1
    assert "mismatch_conditional" in capsys.readouterr().out


def test_simulate_transcript_validates_the_channel_once(tmp_path, monkeypatch, capsys):
    """The transcript's keys come from the Monte Carlo's own sampler, built
    from the report's Born table."""
    calls = _count_validations(monkeypatch)
    transcript = tmp_path / "run.csv"
    argv = ["simulate", "--channel", "seal", "--x", "0.5", "--trials", "3"]
    assert main([*argv, "--transcript", str(transcript)]) == 0
    assert len(calls) == 1
    assert "mismatch_conditional" in capsys.readouterr().out
    assert transcript.exists()


@pytest.mark.parametrize("case", [-1, 1], ids=["n50000", "random3op"])
def test_simulate_transcript_reads_stream_0_once(tmp_path, monkeypatch, capsys, case):
    """Stream 0 is read and keyed once, in the Monte Carlo pass that
    tallies trial 0, whether its run is keyed in chunks (N = 50000) or as
    a row of a block of whole runs (N = 119), and both files keep their
    pinned bytes."""
    options, want = PINNED_TRANSCRIPTS[case].values
    if RANDOM_3OP in options:
        channel_path = tmp_path / "random3.json"
        save_channel(random_kraus_channel(np.random.default_rng(123), 3), channel_path)
        options = [str(channel_path) if o == RANDOM_3OP else o for o in options]
    read = []
    states = protocol._Streams.states

    def spy(self, start, stop):
        read.append((start, stop))
        return states(self, start, stop)

    monkeypatch.setattr(protocol._Streams, "states", spy)
    transcript = tmp_path / "run.csv"
    assert main(["simulate", *options, "--trials", "3", "--transcript", str(transcript)]) == 0
    capsys.readouterr()
    assert read == [(0, 3)]
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (transcript, tmp_path / "run.csv.public")
    )
    assert digests == want
