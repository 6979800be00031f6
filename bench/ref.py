"""Reference measurements of how fast this machine runs Python right now.

On a shared virtual machine the same pure-Python work takes up to 1.7
times longer from one second to the next, and the two vCPUs drift apart,
so ``run.py`` rescales its times against a fixed reference.  The
reference never runs while a measured process runs, so nothing the
program does (its threads, worker processes or memory) moves it.

Set-up time is rescaled by a reference start, launched just before each
set-up sample: a process that imports the standard-library modules the
package imports and nothing of the package.

    python3 bench/ref.py --launch T

``--launch`` is the parent's ``time.monotonic()`` just before it started
this process; it prints ``{"start_s": ...}``.

Run time is rescaled by :class:`StopSampler`, a thread of the parent
that every ``PERIOD_S`` stops the measured process group, times one
:func:`chunk` of pure-Python work on the vCPU that process was running
on, and lets it continue.  The stops are subtracted from the run.
"""

import sys
import time

import argparse
import concurrent.futures  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import io  # noqa: F401
import json
import logging  # noqa: F401
import functools
import os
import random
import signal
import statistics
import threading
import typing  # noqa: F401
import unicodedata  # noqa: F401

START_END = time.monotonic()

_A = tuple(range(0x0995, 0x0995 + 24))
_B = tuple(range(0x0996, 0x0996 + 24))
HEAP_OBJECTS = 100_000
WALK_STEPS = 900


@functools.cache
def _heap() -> tuple[list, list[int]]:
    """Small objects scattered over about 25 MB, and a fixed walk order."""
    rng = random.Random(0)
    heap = [(i, str(i), [i, i + 1]) for i in range(HEAP_OBJECTS)]
    rng.shuffle(heap)
    return heap, rng.sample(range(HEAP_OBJECTS), WALK_STEPS)


def chunk() -> int:
    """Nanoseconds taken by fixed pure-Python work in two parts.

    One is a 24 x 24 edit-distance table over two short rows, the same
    kind of work as the program's hot loop.  It runs from the caches,
    and when other tenants of the host crowd the shared caches and
    memory it slows about half as much as the program does.  The other
    reads objects scattered over a heap, which slows more than the
    program; together they slow about as much as ``analyze`` on the
    study workload (measured over 12 runs whose wall time spread 1.4x).
    """
    heap, walk = _heap()
    start = time.perf_counter_ns()
    prev, cur = [0.0] * (len(_B) + 1), [0.0] * (len(_B) + 1)
    for j in range(len(prev)):
        prev[j] = float(j)
    for i, x in enumerate(_A, 1):
        cur[0] = float(i)
        for j, y in enumerate(_B, 1):
            v = prev[j - 1] + (x != y)
            d = prev[j] + 1.0
            if d < v:
                v = d
            d = cur[j - 1] + 1.0
            if d < v:
                v = d
            cur[j] = v
        prev, cur = cur, prev
    acc = 0
    for k in walk:
        obj = heap[k]
        acc += obj[2][1] + len(obj[1])
    return time.perf_counter_ns() - start


def _state_and_cpu(pid: int) -> tuple[str, int]:
    """Scheduler state letter and last vCPU of a process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return fields[0], int(fields[36])


class StopSampler(threading.Thread):
    """Samples the machine's speed while a measured process group is stopped.

    ``pid`` must lead its own process group and must not be reaped
    before :meth:`join` returns; the thread ends by itself when the
    process exits, or on an error, which it keeps in ``error``.
    ``chunks`` holds chunk times in nanoseconds and ``stops`` each stop
    as a (start, end) pair of ``time.monotonic()``.
    """

    PERIOD_S = 0.02
    STOP_WAIT_S = 0.02

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.chunks: list[int] = []
        self.stops: list[tuple[float, float]] = []
        self.error: OSError | None = None
        _heap()  # built once, before the first stop

    def _exited(self) -> bool:
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        return os.waitid(os.P_PID, self.pid, flags) is not None

    def run(self) -> None:
        try:
            while not self._exited():
                time.sleep(self.PERIOD_S)
                self._sample()
        except OSError as err:
            self.error = err

    def _sample(self) -> None:
        start = time.monotonic()
        os.killpg(self.pid, signal.SIGSTOP)
        try:
            while True:
                state, cpu = _state_and_cpu(self.pid)
                if state in "Tt":
                    break
                if state in "ZX" or time.monotonic() - start > self.STOP_WAIT_S:
                    return
            os.sched_setaffinity(0, {cpu})
            chunk()  # refills the caches the measured process evicted
            self.chunks.append(chunk())
        finally:
            os.killpg(self.pid, signal.SIGCONT)
            self.stops.append((start, time.monotonic()))

    def stopped_s(self, start: float, end: float) -> float:
        """Time stopped between ``start`` and ``end``."""
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.stops)

    def chunk_s(self) -> float:
        """Harmonic mean chunk time: the mean speed, so a slow outlier
        counts little.  One chunk is taken here if the run had none."""
        return statistics.harmonic_mean(self.chunks or [chunk()]) / 1e9


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--launch", type=float, required=True)
    args = parser.parse_args()
    print(json.dumps({"start_s": START_END - args.launch}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
