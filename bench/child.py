"""One measured process: set-up, then one CLI run, a traced run or a probe.

Started fresh for every sample by ``run.py``, so set-up time and peak
RSS belong to exactly one run.  ``--launch`` is the parent's
``time.monotonic()`` just before it started this process; set-up time
runs from there until ``abugida.cli`` is imported, which also builds the
built-in classification table.  A CLI run reports when it started and
ended; ``run.py`` subtracts the stops it made to sample the machine's
speed (see ``ref.py``).

    python3 bench/child.py --launch T --mode setup
    python3 bench/child.py --launch T --mode run   -- analyze LOG ...
    python3 bench/child.py --launch T --mode trace -- analyze LOG ...
    python3 bench/child.py --launch T --mode probe --seed N

Prints one JSON object on its last stdout line.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import abugida.cli  # noqa: E402

SETUP_END = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402

PROBE_SIZES = (40, 400, 1600)
PROBE_REPEATS = {40: 51, 400: 3}


def _peak_rss_mb() -> float:
    """Peak RSS of this process image.

    Not ``getrusage``: its ``ru_maxrss`` keeps the parent's peak across
    fork and exec, so the benchmark's own footprint would show through.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run(argv: list[str], tracer=None) -> dict:
    """One ``cli.main`` call, inside the root span when traced."""
    start = time.monotonic()
    if tracer is None:
        rc = abugida.cli.main(argv)
    else:
        rc = tracer.span("cli.main", abugida.cli.main, argv)
    end = time.monotonic()
    return {"rc": rc, "run_start": start, "run_end": end, "peak_rss_mb": _peak_rss_mb()}


def _trace(argv: list[str]) -> dict:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        out = _run(argv, tracer)
    finally:
        tracer.uninstall()
    out["layers"] = tracer.summary()
    out["unfired"] = tracer.unfired(argv[0])
    return out


def _probe_pair(rng: random.Random, n: int, profile):
    """A typed unit-bearing pair of about ``n`` symbols, as msd() builds it."""
    import gen
    from abugida.bengali import to_output_stream
    from abugida.msd import atomic_unit_segment

    phrase = gen.make_phrase(rng, n)
    typed = gen.type_phrase(rng, phrase, True, True)
    streams = [to_output_stream(t) for t in (typed.transcribed, phrase)]
    symbols = [tuple(c.char for c in s) for s in streams]
    units = [{seg.end: seg.end - seg.start
              for seg in atomic_unit_segment(s, profile) if seg.is_unit}
             for s in streams]
    return symbols[0], symbols[1], units[0], units[1]


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _probe(seed: int) -> dict:
    """Alignment time against length, and the memory of the full table."""
    import gen
    from abugida.msd import align_symbols
    from abugida.sessionio import parse_technique_profile

    profile = parse_technique_profile(gen.profile_bytes()["conj-unit.json"])
    rng = random.Random(seed)
    pairs = {n: _probe_pair(rng, n, profile) for n in PROBE_SIZES}
    out: dict = {"lengths": {n: [len(p[0]), len(p[1])] for n, p in pairs.items()}}

    # Largest first, so the RSS growth is this call's table alone.
    before = _peak_rss_mb()
    out["msd.align_symbols.s_at_1600"] = _timed(lambda: align_symbols(*pairs[1600]))
    out["msd.align_symbols.peak_rss_growth_mb_at_1600"] = _peak_rss_mb() - before
    for n, repeats in PROBE_REPEATS.items():
        out[f"msd.align_symbols.s_at_{n}"] = statistics.median(
            _timed(lambda: align_symbols(*pairs[n])) for _ in range(repeats))
    tracemalloc.start()
    try:
        align_symbols(*pairs[400])
        out["msd.align_symbols.peak_alloc_mb_at_400"] = (
            tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "probe"),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    out = {"setup_s": SETUP_END - args.launch, "abugida": abugida.__file__}
    if args.mode == "run":
        out.update(_run(args.argv))
    elif args.mode == "trace":
        out.update(_trace(args.argv))
    elif args.mode == "probe":
        out.update(_probe(args.seed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
