"""Each command starts with only the modules it runs.

``import sealsim.cli`` loads neither the Monte Carlo engine (``protocol``)
nor the channel-file reader (``channel_file``, and with it ``json``); a
command imports them where it first needs them.  The package itself
resolves its public names and submodules on first use.  Module loading is
checked in a fresh interpreter, since this one has loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sealsim

SRC = Path(sealsim.__file__).resolve().parents[1]
SUBMODULES = sorted(
    path.stem for path in (SRC / "sealsim").glob("*.py") if not path.stem.startswith("__")
)
# The modules whose loading the checks report.
WATCHED = ["json", *(f"sealsim.{name}" for name in SUBMODULES)]


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's sources; it ends by
    printing one JSON object, which is returned."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_each_command_loads_only_what_it_runs(tmp_path):
    channel = tmp_path / "seal.json"
    sealsim.save_channel(sealsim.seal_channel(0.5), channel)
    code = f"""
import contextlib, io, sys
watched = {WATCHED!r}
loaded = lambda: sorted(name for name in watched if name in sys.modules)
import sealsim.cli
steps = {{"import": loaded()}}
commands = {{
    "sweep": ["sweep", "--out", {str(tmp_path / "curves.csv")!r}],
    "validate-channel": ["validate-channel", {str(channel)!r}],
    "simulate": ["simulate", "--channel", "identity", "--trials", "2"],
}}
with contextlib.redirect_stdout(io.StringIO()):
    for name, argv in commands.items():
        steps[name] = [sealsim.cli.main(argv), loaded()]
import json  # only now, so the steps above see whether sealsim loaded it
print(json.dumps(steps))
"""
    steps = _fresh(code)
    started = ["sealsim.analysis", "sealsim.cli", "sealsim.qubit", "sealsim.textfile"]
    assert steps["import"] == started
    assert steps["sweep"] == [0, started]
    assert steps["validate-channel"] == [0, sorted([*started, "json", "sealsim.channel_file"])]
    assert steps["simulate"][0] == 0 and "sealsim.protocol" in steps["simulate"][1]


def test_import_sealsim_loads_no_submodule_until_a_name_is_used():
    code = f"""
import sys
watched = {WATCHED!r}
loaded = lambda: sorted(name for name in watched if name in sys.modules)
import sealsim
steps = {{"import": loaded()}}
sealsim.seal_channel
steps["seal_channel"] = loaded()
steps["cached"] = "seal_channel" in vars(sealsim)
steps["resolved"] = [getattr(sealsim, name).__name__ for name in {SUBMODULES!r}]
import json  # only now, so the steps above see whether sealsim loaded it
print(json.dumps(steps))
"""
    steps = _fresh(code)
    assert steps["import"] == []
    assert steps["seal_channel"] == ["sealsim.qubit"]
    assert steps["cached"]
    assert steps["resolved"] == [f"sealsim.{name}" for name in SUBMODULES]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sealsim import *", namespace)
    missing = [name for name in sealsim.__all__ if name not in namespace]
    assert missing == []
    modules = [getattr(sealsim, name) for name in SUBMODULES]
    for name in sealsim.__all__:
        assert any(getattr(module, name, None) is namespace[name] for module in modules), name


def test_every_submodule_resolves_on_the_package():
    for name in SUBMODULES:
        assert getattr(sealsim, name) is sys.modules[f"sealsim.{name}"]


def test_dir_lists_the_public_names_and_an_unknown_name_raises():
    assert set(sealsim.__all__) <= set(dir(sealsim))
    assert set(SUBMODULES) <= set(dir(sealsim))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sealsim.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from sealsim import no_such_name", {})
