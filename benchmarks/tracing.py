"""Spans around calls into sealsim's public functions, recorded from outside.

:class:`Tracer` replaces each traced function by a timing wrapper in every
``sealsim`` module that binds it, because ``cli``, ``protocol`` and
``analysis`` import functions by name (``from sealsim.qubit import ...``):
patching only the defining module would miss those calls.  Spans are kept in
memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

MODULES = ("cli", "channel_file", "qubit", "protocol", "analysis")

TRACED = {
    "cli": ("main",),
    "channel_file": ("load_channel",),
    "qubit": ("validate_channel", "apply_channel", "measurement_prob"),
    "protocol": ("run_protocol", "monte_carlo", "export_transcript"),
    "analysis": (
        "seal_expected_mutual_information",
        "expected_mutual_information",
        "seal_mutual_information_k",
        "mutual_information_k",
        "seal_class_masses",
        "bit_announcement_probs",
        "mismatch_probability",
    ),
}
# Construction of the per-channel sampler is traced through ShotSampler.__init__.
SAMPLER = "protocol.ShotSampler"

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs) + (SAMPLER,)

COUNTERS = (
    "protocol.monte_carlo.trials",
    "protocol.monte_carlo.shots",
    "analysis.k_terms_used",
    "analysis.seal_class_masses.classes",
    "qubit.validate_channel.repeat_calls",
    "cli.bytes_written",
)

# Percentile statistics need this many calls in a pass.
MIN_CALLS_FOR_PERCENTILES = 20
# The functions that reach that many calls in one pass of some workload, and
# so get percentile metrics; on a workload where one has fewer, they read 0.
PERCENTILE_SPANS = (
    "cli.main",  # 20 a pass on defaults
    "qubit.validate_channel",
    "qubit.apply_channel",
    "qubit.measurement_prob",
    "analysis.seal_expected_mutual_information",  # 42 a pass on defaults
    "analysis.seal_mutual_information_k",
    "analysis.mutual_information_k",
    "analysis.seal_class_masses",
    "analysis.mismatch_probability",  # 58 a pass on defaults
)
# The tail percentile reported is the highest of these with at least
# TAIL_SAMPLES samples above it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_SAMPLES = 10


def _nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]


class Tracer:
    """Records spans ``[name, parent index, start, end]`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._open: list[int] = []
        self._channels: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, perf_counter(), math.nan]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _on_result(self, name: str):
        counts = self.counts
        if name == "protocol.monte_carlo":
            def hook(args, stats):
                counts["protocol.monte_carlo.trials"] += stats.trials
                counts["protocol.monte_carlo.shots"] += stats.shots
        elif name.endswith("expected_mutual_information"):
            def hook(args, mi):
                counts["analysis.k_terms_used"] += mi.k_terms_used
        elif name == "analysis.seal_class_masses":
            def hook(args, classes):
                counts["analysis.seal_class_masses.classes"] += len(classes)
        elif name == "qubit.validate_channel":
            def hook(args, report):
                # holding the channel keeps its id from being reused
                self._channels[id(args[0])] = args[0]
        else:
            hook = None
        return hook

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        loaded = [m for n, m in list(sys.modules.items()) if n == "sealsim" or n.startswith("sealsim.")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"sealsim.{module_name}"]
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original, self._on_result(name))
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        sampler = sys.modules["sealsim.protocol"].ShotSampler
        self._patch(sampler, "__init__", self._wrap(SAMPLER, sampler.__init__))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the pass, as name -> (value, unit)."""
        durations: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            durations[name].append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(MODULES, 0.0)
        for (name, _, start, end), children in zip(self.spans, child_time):
            self_s[name.split(".", 1)[0]] += (end - start) - children

        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            times = sorted(durations[name])
            out[f"{name}.calls"] = (len(times), "count")
            out[f"{name}.busy_s"] = (math.fsum(times), "s")
            if name not in PERCENTILE_SPANS:
                continue
            n = len(times) if len(times) >= MIN_CALLS_FOR_PERCENTILES else 0
            p50 = tail = pct = 0.0
            if n:
                pct = next(p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= TAIL_SAMPLES)
                p50, tail = (_nearest_rank(times, p) * 1e3 for p in (50.0, pct))
            out[f"{name}.n"] = (n, "count")
            out[f"{name}.p50_ms"] = (p50, "ms")
            out[f"{name}.tail_ms"] = (tail, "ms")
            out[f"{name}.tail_pct"] = (pct, "pct")
        for module in MODULES:
            out[f"{module}.self_s"] = (self_s[module], "s")
        counts = dict(self.counts)
        counts["qubit.validate_channel.repeat_calls"] = len(durations["qubit.validate_channel"]) - len(
            self._channels
        )
        for name in COUNTERS:
            out[name] = (counts[name], "B" if name == "cli.bytes_written" else "count")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
        out["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
        return out
