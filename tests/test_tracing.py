"""The benchmark tracer can still patch every function it names.

``benchmarks/tracing.py`` wraps sealsim's functions by name; a function it
names that no longer exists breaks ``benchmarks/run.py --trace 1``.  The
tracer is loaded from its file, as the harness uses it.
"""

import importlib
import importlib.util
from pathlib import Path

import sealsim.cli  # noqa: F401  (the tracer finds the modules it patches in sys.modules)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("sealsim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name: str):
    module_name, attr = name.split(".")
    return getattr(importlib.import_module(f"sealsim.{module_name}"), attr, None)


def test_every_traced_name_resolves_and_the_tracer_enters_and_exits():
    tracing = _load_tracing()
    assert [name for name in tracing.SPAN_NAMES if not callable(_resolve(name))] == []
    before = {name: _resolve(name) for name in tracing.SPAN_NAMES}
    init = _resolve(tracing.SAMPLER).__init__
    with tracing.Tracer() as tracer:
        for name in tracing.SPAN_NAMES:
            if name != tracing.SAMPLER:
                assert _resolve(name) is not before[name], name
        assert _resolve(tracing.SAMPLER).__init__ is not init
    assert tracer.spans == []
    assert {name: _resolve(name) for name in tracing.SPAN_NAMES} == before
    assert _resolve(tracing.SAMPLER).__init__ is init
