"""Layered benchmark of the ``abugida`` command line tool.

Generates seeded synthetic session logs and technique profiles, runs the
real CLI on them in fresh processes, checks every report against the
generator's ground truth, and prints the metrics by name with units.

One workload; the last stdout line is one JSON object:

    python3 bench/run.py --workload study --seed 1 --seconds 15 --trace 0

Every workload untraced, then every workload traced, with both tables
and a result file carrying the run context:

    python3 bench/run.py --seed 1 [--seconds 15] [--out FILE]

End-to-end metrics come from untraced runs only: a fresh process per
sample, timed from launch until ``abugida.cli`` is imported and around
``cli.main``, with the process's own peak RSS.  Both times are also
rescaled against reference work that never runs beside the measured
process (see END_TO_END and ``ref.py``).
The traced run wraps the package's public functions from the
benchmark's files (see ``spans.py``) and adds an alignment scaling
probe.  Exit status is 1 when any output check fails, 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen
import ref
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "abugida"
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
REF = Path(__file__).resolve().parent / "ref.py"

STUDY_SESSIONS = 2000
STUDY_SYMBOLS = (20, 60)
# Nine sessions just above 400 symbols and one of 1600: a full 400-1600
# spread would take minutes per run, because alignment is quadratic.
LONGTEXT_SYMBOLS = tuple(range(400, 481, 10)) + (1600,)

SETUP_PER_RUN = 4      # set-up samples before each CLI run, until there
SETUP_SAMPLES = 8      # are this many; later runs of short workloads go faster
MIN_RUNS = 2           # CLI runs per untraced measurement, whatever --seconds says
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    log: str                      # "study" or "longtext"
    argv: tuple[str, ...]         # subcommand first, then its flags
    check: Callable[[bytes, list[dict]], list[str]]
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("study", "study", ("analyze", "--per-session", "--format", "json"),
             checks.check_study,
             "thousands of short sessions: alignment leads, ingest, replay and "
             "per-session report writing show beside it"),
    Workload("longtext", "longtext", ("analyze",), checks.check_summary_csv,
             "long sessions: quadratic alignment dominates time and its table "
             "sets peak memory"),
    Workload("naive", "study", ("compare-naive",), checks.check_compare_csv,
             "both pipelines on the study log: the only glyph-level path"),
    Workload("validate", "study", ("validate-log",), checks.check_validate,
             "ingest and strict replay without alignment: alignment changes "
             "must not move it"),
)}

# Gated end-to-end metrics.  Raw wall times swing by a third between
# runs on a shared virtual machine, so both times are rescaled against
# reference work that never runs beside the measured process (ref.py):
# set-up time by a reference start just before it, run time by chunks of
# work timed while the run is stopped, on the vCPU it runs on.  Samples
# taken before and after each run instead left spreads of 0.22-0.30.
# The raw figures are still printed and kept in result files.
END_TO_END = {"run_ref_s": "s", "sessions_per_ref_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s"}
RAW = {"run_s": "s", "sessions_per_s": "1/s", "setup_wall_s": "s"}

# Reference start and chunk time at which a rescaled time equals its
# wall time; near their typical values on the 2-vCPU machine where the
# baseline was recorded, so that rescaled figures still read as seconds.
REF_START_S = 0.09
REF_CHUNK_S = 450e-6


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in spans.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer in spans.TIMED_CALLS:
        units[f"{layer}.p50_ms"] = "ms"
        units[f"{layer}.p99_ms"] = "ms"
    for name in spans.COUNTERS:
        units[name] = "bytes" if "bytes" in name else "count"
    for n in (40, 400, 1600):
        units[f"msd.align_symbols.s_at_{n}"] = "s"
    units["msd.align_symbols.peak_rss_growth_mb_at_1600"] = "MB"
    units["msd.align_symbols.peak_alloc_mb_at_400"] = "MB"
    units["trace.run_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------- inputs

@dataclass
class Inputs:
    log: Path
    profiles: Path
    truth: list[dict]

    def size(self) -> dict[str, int]:
        return {"sessions": len(self.truth),
                "symbols_presented": sum(t["os_p_length"] for t in self.truth),
                "symbols_transcribed": sum(t["os_t_length"] for t in self.truth),
                "events": sum(t["is_length"] for t in self.truth)}


def lengths_for(log: str, seed: int) -> list[int]:
    if log == "longtext":
        return list(LONGTEXT_SYMBOLS)
    rng = random.Random(seed)
    return [rng.randint(*STUDY_SYMBOLS) for _ in range(STUDY_SESSIONS)]


def prepare(log: str, seed: int) -> Inputs:
    """Write the seed's log and profiles under the work directory."""
    base = WORK / f"seed{seed}"
    profiles = base / "profiles"
    profiles.mkdir(parents=True, exist_ok=True)
    for name, data in gen.profile_bytes().items():
        (profiles / name).write_bytes(data)
    data, truth = gen.make_sessions(seed, lengths_for(log, seed))
    path = base / f"{log}.jsonl"
    path.write_bytes(data)
    return Inputs(path, profiles, truth)


# ---------------------------------------------------------------- processes

class ChildFailed(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ABUGIDA_TABLE"}
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Finished:
    returncode: int
    result: dict | None       # the last stdout line, parsed
    stderr: str
    wall_s: float
    sampler: ref.StopSampler | None


def run_process(command: Callable[[float], list[str]], sampled: bool) -> Finished:
    """Run ``command(launch)`` to its end, under a :class:`ref.StopSampler`
    if ``sampled``; ``launch`` is ``time.monotonic()`` just before the
    start.  The process leads its own process group, which is killed if
    it outlives ``CHILD_TIMEOUT_S``."""
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        launch = time.monotonic()
        cmd = command(launch)
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=_child_env(), process_group=0)
        sampler = ref.StopSampler(proc.pid) if sampled else None
        try:
            if sampler is None:
                proc.wait(CHILD_TIMEOUT_S)
            else:
                # The sampler ends when the process exits; only then is
                # it reaped, so its group id cannot be reused while
                # being signalled.
                sampler.start()
                sampler.join(CHILD_TIMEOUT_S)
                if sampler.error is not None:
                    raise ChildFailed(f"speed sampler failed: {sampler.error}")
                proc.wait(1.0)
        except (subprocess.TimeoutExpired, ChildFailed) as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            if sampler is not None and sampler.is_alive():
                sampler.join()
            proc.wait()
            if isinstance(exc, ChildFailed):
                raise
            raise ChildFailed(f"{cmd[1:4]} timed out after {CHILD_TIMEOUT_S} s") from exc
        returncode = proc.wait()
        wall_s = time.monotonic() - launch
        out.seek(0)
        lines = out.read().decode("utf-8", "replace").splitlines()
        err.seek(0)
        stderr = err.read()[-1500:].decode("utf-8", "replace")
    result = json.loads(lines[-1]) if returncode == 0 and lines else None
    return Finished(returncode, result, stderr, wall_s, sampler)


def spawn(mode: str, argv: tuple[str, ...] = (), seed: int = 0) -> dict:
    """Run child.py once and return its JSON line.

    A CLI run (``run`` or ``trace``) is sampled; its result gains
    ``run_s``, the run without the sampler's stops, and ``run_ref_s``,
    the same rescaled to the reference chunk time.
    """
    def command(launch: float) -> list[str]:
        return [sys.executable, str(CHILD), "--mode", mode, "--seed", str(seed),
                "--launch", repr(launch), "--", *argv]

    done = run_process(command, sampled=mode in ("run", "trace"))
    if done.result is None:
        raise ChildFailed(f"{mode} exited {done.returncode}: {done.stderr}")
    result = done.result
    result["wall_s"] = done.wall_s
    if not Path(result["abugida"]).resolve().is_relative_to(SRC):
        raise ChildFailed(f"imported abugida from {result['abugida']}, not {SRC}")
    if done.sampler is not None:
        result.update(rescaled_run(result, done.sampler))
    return result


def rescaled_run(result: dict, sampler: ref.StopSampler) -> dict:
    """A run's time without the sampler's stops, and rescaled by its chunks."""
    run_s = (result["run_end"] - result["run_start"]
             - sampler.stopped_s(result["run_start"], result["run_end"]))
    chunk_s = sampler.chunk_s()
    return {"run_s": run_s, "ref_chunk_s": chunk_s,
            "run_ref_s": run_s * REF_CHUNK_S / chunk_s}


def reference_start() -> float:
    """Start time of one reference process (ref.py)."""
    done = run_process(lambda launch: [sys.executable, str(REF), "--launch",
                                       repr(launch)], sampled=False)
    if done.result is None:
        raise ChildFailed(f"reference exited {done.returncode}: {done.stderr}")
    return done.result["start_s"]


def setup_sample() -> tuple[float, float]:
    """Set-up wall time, and the same rescaled by the reference start before it."""
    start_s = reference_start()
    wall = spawn("setup")["setup_s"]
    return wall, wall * REF_START_S / start_s


# ---------------------------------------------------------------- measuring

@dataclass
class Measurement:
    workload: str
    seed: int
    trace: bool
    size: dict
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    samples: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems and bool(self.metrics)

    @property
    def failed_share(self) -> float:
        return len(self.failures) / max(self.attempted, 1)

    def rows(self) -> dict[str, tuple[float, str]]:
        """Every printed figure with its unit: metrics, raw times, failures."""
        units = per_layer_units() if self.trace else END_TO_END
        rows = {k: (v, units[k]) for k, v in self.metrics.items()}
        if not self.trace:
            rows.update((k, (v, RAW[k])) for k, v in self.extra.get("raw", {}).items())
            rows["failed_share"] = (self.failed_share, "share")
        return rows

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


class Runner:
    """Runs one workload's CLI command and checks the reports it writes.

    Every run must write the same bytes as the first; the first report
    is checked against the ground truth once measuring is over, so the
    check takes no time from the measured window.
    """

    def __init__(self, wl: Workload, inputs: Inputs, m: Measurement):
        self.wl, self.inputs, self.m = wl, inputs, m
        self.report = inputs.log.parent / f"report-{wl.name}.out"
        self.first: bytes | None = None
        self.passed = 0   # runs that exited 0 and wrote the first run's bytes

    def argv(self) -> tuple[str, ...]:
        cmd, *flags = self.wl.argv
        return (cmd, str(self.inputs.log), "--profiles", str(self.inputs.profiles),
                *flags, "--out", str(self.report))

    def run(self, mode: str) -> dict | None:
        """One CLI run in a fresh process; None if it failed."""
        self.m.attempted += 1
        self.report.unlink(missing_ok=True)
        try:
            out = spawn(mode, self.argv())
        except ChildFailed as err:
            self.m.failures.append(str(err))
            return None
        if out["rc"] != 0:
            self.m.failures.append(f"CLI run ({mode}) exited {out['rc']}")
            return None
        data = self.report.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.first is None:
            self.m.digest, self.first = digest, data
        elif digest != self.m.digest:
            self.m.failures.append(f"CLI run ({mode}) wrote different report bytes")
            return None
        self.passed += 1
        return out

    def check(self) -> None:
        """Check the first report; if it is wrong, every run that wrote it failed."""
        if self.first is None:
            return
        self.m.problems.extend(self.wl.check(self.first, self.inputs.truth)[:20])
        if self.m.problems:
            self.m.failures.extend(["CLI run failed the output check"] * self.passed)


def _keep_going(m: Measurement, started: float, seconds: float,
                min_runs: int, key: str) -> bool:
    done = len(m.samples.get(key, []))
    if done < min_runs:
        return True
    typical = statistics.median(m.samples[key])
    return time.monotonic() - started + typical <= seconds


def measure(wl: Workload, seed: int, seconds: float) -> Measurement:
    """Untraced samples for ``seconds``; end-to-end metrics are medians."""
    inputs = prepare(wl.log, seed)
    m = Measurement(wl.name, seed, False, inputs.size())
    runner = Runner(wl, inputs, m)
    started = time.monotonic()
    while _keep_going(m, started, seconds, MIN_RUNS, "wall_s") and not m.failures:
        try:
            if not m.samples:
                spawn("setup")  # first import writes bytecode caches
            taken = len(m.samples.get("setup_s", ()))
            for _ in range(SETUP_PER_RUN if taken < SETUP_SAMPLES else 0):
                wall, scaled = setup_sample()
                m.add("setup_wall_s", wall)
                m.add("setup_s", scaled)
        except ChildFailed as err:
            m.attempted += 1
            m.failures.append(str(err))
            break
        out = runner.run("run")
        if out is None:
            continue
        for key in ("run_s", "run_ref_s", "ref_chunk_s", "peak_rss_mb", "wall_s"):
            m.add(key, out[key])
    runner.check()
    if "run_s" in m.samples:
        sessions = len(inputs.truth)
        run_s = statistics.median(m.samples["run_s"])
        run_ref_s = statistics.median(m.samples["run_ref_s"])
        m.metrics = {
            "run_ref_s": run_ref_s,
            "sessions_per_ref_s": sessions / run_ref_s,
            "peak_rss_mb": statistics.median(m.samples["peak_rss_mb"]),
            "setup_s": statistics.median(m.samples["setup_s"]),
        }
        m.extra["raw"] = {"run_s": run_s, "sessions_per_s": sessions / run_s,
                          "setup_wall_s": statistics.median(m.samples["setup_wall_s"])}
    return m


def measure_traced(wl: Workload, seed: int, seconds: float) -> Measurement:
    """Untraced and traced runs in pairs, then the alignment probe."""
    inputs = prepare(wl.log, seed)
    m = Measurement(wl.name, seed, True, inputs.size())
    runner = Runner(wl, inputs, m)
    started = time.monotonic()
    layers: list[dict] = []
    unfired: set[str] = set()
    while _keep_going(m, started, seconds, 1, "pair_s") and not m.failures:
        plain = runner.run("run")
        traced = runner.run("trace")
        if plain is None or traced is None:
            break
        m.add("run_ref_s", plain["run_ref_s"])
        m.add("traced_run_ref_s", traced["run_ref_s"])
        m.add("traced_run_s", traced["run_s"])
        m.add("pair_s", plain["wall_s"] + traced["wall_s"])
        layers.append(traced["layers"])
        unfired.update(traced["unfired"])
    runner.check()
    if not layers:
        return m
    merged = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    traced_s = statistics.median(m.samples["traced_run_s"])
    # Rescaled, so that a change of machine speed between the two runs of
    # a pair does not read as tracing cost.
    overhead = (statistics.median(m.samples["traced_run_ref_s"])
                - statistics.median(m.samples["run_ref_s"]))
    m.problems.extend(checks.check_trace(merged, sorted(unfired), traced_s, overhead))
    m.extra["trace.negative_self_spans"] = merged["trace.negative_self_spans"]
    m.attempted += 1
    try:
        probe = spawn("probe", seed=seed)
    except ChildFailed as err:
        m.failures.append(str(err))
        return m
    m.extra["probe_lengths"] = probe.pop("lengths")
    merged.update(probe)
    merged["trace.run_s"] = traced_s
    merged["trace.overhead_s"] = overhead
    m.metrics = {k: merged[k] for k in per_layer_units()}
    return m


# ---------------------------------------------------------------- reporting

def _git_commit() -> str | None:
    try:
        # The ceiling keeps git from searching above the checkout.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_context(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        # Source size, tracked beside speed; informational, not a gated metric.
        "src_loc": sum(len(p.read_bytes().splitlines()) for p in SRC.glob("*.py")),
    }


def _record(m: Measurement) -> dict:
    units = per_layer_units() if m.trace else END_TO_END
    return {
        "workload": m.workload,
        "why": WORKLOADS[m.workload].why,
        "trace": m.trace,
        "size": m.size,
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "failed_share": m.failed_share,
        "failures": m.failures,
        "problems": m.problems,
        "report_sha256": m.digest,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in m.metrics.items()},
        "samples": m.samples,
        **m.extra,
    }


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")


def _print_problems(m: Measurement) -> None:
    for line in m.failures + m.problems:
        print(f"{m.workload}: {line}", file=sys.stderr)


def one_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    m = (measure_traced if trace else measure)(wl, seed, seconds)
    _print_problems(m)
    record = _record(m)
    _write_json(WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json",
                {"context": run_context(seed), **record})
    for key, (value, unit) in m.rows().items():
        print(f"{name}\t{key}\t{value:.6g}\t{unit}")
    print(json.dumps({"correct": m.correct, "attempted": m.attempted,
                      "failed": len(m.failures), "metrics": record["metrics"]}))
    return 0 if m.correct else 1


def _print_table(title: str, ms: list[Measurement]) -> None:
    rows = [m.rows() for m in ms]
    keys = dict.fromkeys(k for r in rows for k in r)
    width = max(map(len, keys)) + 2
    print(title)
    print("metric".ljust(width) + "".join(m.workload.rjust(12) for m in ms) + "  unit")
    for key in keys:
        unit = next(r[key][1] for r in rows if key in r)
        cells = "".join(f"{r.get(key, (float('nan'),))[0]:12.4g}" for r in rows)
        print(key.ljust(width) + cells + f"  {unit}")


def all_workloads(seed: int, seconds: float, out: Path) -> int:
    plain = [measure(wl, seed, seconds) for wl in WORKLOADS.values()]
    traced = [measure_traced(wl, seed, seconds) for wl in WORKLOADS.values()]
    for m in plain + traced:
        _print_problems(m)
    for p, t in zip(plain, traced):
        if p.digest != t.digest:
            p.problems.append("traced and untraced passes wrote different reports")
    _print_table("end to end (untraced, medians)", plain)
    _print_table("\nper layer (traced)", traced)
    ok = all(m.correct for m in plain + traced)
    _write_json(out, {"context": run_context(seed),
                      "correct": ok,
                      "untraced": [_record(m) for m in plain],
                      "traced": [_record(m) for m in traced]})
    print(f"\n{'all checks passed' if ok else 'CHECKS FAILED'}; wrote {out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload (default: all, then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="result file of a full run (default under .bench_work)")
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: program source {SRC} not found; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload:
        return one_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return all_workloads(args.seed, args.seconds,
                         args.out or WORK / f"bench-seed{args.seed}.json")


if __name__ == "__main__":
    sys.exit(main())
