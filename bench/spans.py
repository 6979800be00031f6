"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of ``abugida`` modules with thin
wrappers, under the names the *calling* module binds: ``metrics.msd``
and ``msd.align_symbols`` are separate bindings, because ``from .msd
import msd`` copies the function into the caller's namespace.  Each call
records one span (layer, start, end, parent span) in flat arrays and
bumps the layer's counters; nothing is aggregated until the run ends.
A layer's self time is its span's duration minus its child spans.

A binding that is missing (the function was renamed) or never fired on
a command that should reach it is reported, so a refactor cannot
silently zero a layer.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from typing import Callable

ANALYZE, COMPARE, VALIDATE = "analyze", "compare-naive", "validate-log"
ALL = frozenset({ANALYZE, COMPARE, VALIDATE})
ALIGNING = frozenset({ANALYZE, COMPARE})

Counter = Callable[[dict, tuple, dict, object], None]


def _count_align(c: dict, args: tuple, kwargs: dict, result: object) -> None:
    a, b = args[0], args[1]
    c["msd.dp_cells"] += (len(a) + 1) * (len(b) + 1)
    units = list(args[2:4]) + [kwargs.get("units_a"), kwargs.get("units_b")]
    c["msd.unit_ends"] += sum(len(u) for u in units if u)


def _count_parse(c: dict, args: tuple, kwargs: dict, result: object) -> None:
    c["sessionio.bytes_in"] += len(args[0])
    c["sessionio.sessions"] += len(result)


def _count_report(c: dict, args: tuple, kwargs: dict, result: object) -> None:
    c["sessionio.report_bytes"] += len(result)


def _count_replay(c: dict, args: tuple, kwargs: dict, result: object) -> None:
    c["streams.events_replayed"] += len(args[0])
    c["streams.atoms_erased"] += len(result.erased)


def _count_session(c: dict, args: tuple, kwargs: dict, result: object) -> None:
    # Out-of-model sessions (C < 0) are counted, never skipped.
    c["metrics.sessions_c_negative"] += result.intermediates.correct < 0


COUNTERS = ("msd.dp_cells", "msd.unit_ends", "sessionio.bytes_in",
            "sessionio.sessions", "sessionio.report_bytes",
            "streams.events_replayed", "streams.atoms_erased",
            "metrics.sessions_c_negative")

# (binding module, attribute, layer, commands that must reach it, counter)
BINDINGS: tuple[tuple[str, str, str, frozenset, Counter | None], ...] = (
    ("cli", "parse_technique_profile", "sessionio.parse_technique_profile", ALL, None),
    ("cli", "parse_session_log", "sessionio.parse_session_log", ALL, _count_parse),
    ("cli", "analyze_session", "metrics.analyze_session", ALIGNING, _count_session),
    ("cli", "naive_metrics", "metrics.naive_metrics", frozenset({COMPARE}), None),
    ("cli", "aggregate", "metrics.aggregate", ALIGNING, None),
    ("cli", "write_analysis_report", "sessionio.write_analysis_report",
     frozenset({ANALYZE}), _count_report),
    ("cli", "write_compare_report", "sessionio.write_compare_report",
     frozenset({COMPARE}), _count_report),
    ("cli", "replay_transcription", "streams.replay_transcription",
     frozenset({VALIDATE}), None),
    ("sessionio", "normalize", "bengali.normalize", ALL, None),
    ("sessionio", "to_output_stream", "bengali.to_output_stream", ALL, None),
    ("metrics", "to_output_stream", "bengali.to_output_stream", ALIGNING, None),
    ("metrics", "segment_graphemes", "bengali.segment_graphemes",
     frozenset({COMPARE}), None),
    ("metrics", "msd", "msd.msd", ALIGNING, None),
    ("metrics", "align_symbols", "msd.align_symbols", frozenset({COMPARE}), _count_align),
    ("metrics", "build_input_stream", "streams.build_input_stream", ALIGNING, None),
    ("metrics", "replay_events", "streams.replay_events", ALIGNING, _count_replay),
    ("msd", "to_output_stream", "bengali.to_output_stream", ALIGNING, None),
    ("msd", "align_symbols", "msd.align_symbols", ALIGNING, _count_align),
    ("streams", "normalize", "bengali.normalize", ALL, None),
    ("streams", "to_output_stream", "bengali.to_output_stream", ALL, None),
    ("streams", "replay_events", "streams.replay_events",
     frozenset({VALIDATE}), _count_replay),
    ("bengali", "normalize", "bengali.normalize", ALL, None),
)

ROOT = "cli.main"
LAYERS = tuple(dict.fromkeys([ROOT] + [b[2] for b in BINDINGS]))
# Layers whose per-call latency is worth a distribution.
TIMED_CALLS = ("msd.align_symbols", "metrics.analyze_session")


def binding_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self, bindings=BINDINGS) -> None:
        self.bindings = bindings
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.fired: dict[str, int] = {}
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, key: str, counter: Counter | None):
        lid = self.layer_ids[layer]
        layer_of, parent, start, end = self.layer_of, self.parent, self.start, self.end
        stack, fired, counters = self.stack, self.fired, self.counters
        clock = time.perf_counter_ns
        fired[key] = 0

        def wrapper(*args, **kwargs):
            idx = len(layer_of)
            layer_of.append(lid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            fired[key] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, layer, _, counter in self.bindings:
            mod = importlib.import_module(f"abugida.{module}")
            key = binding_name(module, attr)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(key)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer, key, counter))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def span(self, layer: str, fn, *args):
        """Call ``fn(*args)`` inside a span of ``layer`` (the root span)."""
        return self._wrap(fn, layer, layer, None)(*args)

    def unfired(self, command: str) -> list[str]:
        """Bindings the command should reach that are missing or silent."""
        expected = [binding_name(m, a) for m, a, _, cmds, _ in self.bindings
                    if command in cmds]
        return sorted(k for k in expected
                      if k in self.missing or self.fired.get(k, 0) == 0)

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self time, latency and counters."""
        n = len(self.layer_of)
        child = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        names = list(self.layer_ids)
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        samples: dict[str, list[int]] = {k: [] for k in TIMED_CALLS}
        for i in range(n):
            name = names[self.layer_of[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
            if name in samples:
                samples[name].append(dur[i])
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for name, values in samples.items():
            p50, p99 = percentiles(values, (50, 99))
            out[f"{name}.p50_ms"] = p50 / 1e6
            out[f"{name}.p99_ms"] = p99 / 1e6
        out.update(self.counters)
        out["trace.negative_self_spans"] = sum(
            1 for i in range(n) if dur[i] < child[i])
        return out


def percentiles(values: list[int], ps: tuple[int, ...]) -> list[float]:
    """Percentiles by linear interpolation; 0 for no samples."""
    if not values:
        return [0.0 for _ in ps]
    if len(values) == 1:
        return [float(values[0]) for _ in ps]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return [cuts[p - 1] for p in ps]
