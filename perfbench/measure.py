"""Small measurement helpers: order statistics, process CPU and memory, calibrated timing."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(values) -> tuple[float, float]:
    """(p, value) for the highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies and the maximum is
    reported as p100.
    """
    n = len(values)
    for p in _TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND:
            return p, percentile(values, p)
    return 100.0, max(values) if values else 0.0


def process_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The host's speed drifts by tens of percent over seconds and minutes (other
# tenants, frequency changes), and CPU-bound timings drift with it. A fixed
# reference task run around every timed operation measures the host's speed
# during the run; dividing by it leaves the program's own cost. A reference
# returns its "slowness": its wall time over its nominal time.
PYTHON_REFERENCE_ITERATIONS = 4000
PYTHON_REFERENCE_NOMINAL_S = 1e-3
SETUP_REPEATS = 5


def python_slowness() -> float:
    """Slowness of a fixed pure-Python loop (dict and float work, about 1 ms)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    x = 0.0
    for i in range(PYTHON_REFERENCE_ITERATIONS):
        table[i & 255] = table.get(i & 255, 0) + i
        x += (i * 0.5) ** 0.5
    return (time.perf_counter() - start) / PYTHON_REFERENCE_NOMINAL_S


class Stopwatch:
    """Raw wall and process-CPU seconds of the enclosed block.

    The workload's reference runs just before and just after the block, and
    both slowness readings are appended to ``readings``. A run divides its
    timings by the median of all its readings: the run's cost on a host
    where the reference takes exactly its nominal time.
    """

    def __init__(self, slowness: Callable[[], float], readings: list[float]):
        self._slowness = slowness
        self._readings = readings

    def __enter__(self) -> "Stopwatch":
        self._readings.append(self._slowness())
        self._cpu0 = process_cpu_s()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = time.perf_counter() - self._t0
        self.cpu = process_cpu_s() - self._cpu0
        self._readings.append(self._slowness())
        return False


def time_setup(root: Path, code: str, args: list[str],
               slowness: Callable[[], float]) -> tuple[list[float], list[float]]:
    """Raw wall seconds of ``SETUP_REPEATS`` fresh interpreters running ``code``,
    and the reference's slowness readings around them."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", code, *args]
    times: list[float] = []
    readings: list[float] = []
    for _ in range(SETUP_REPEATS):
        with Stopwatch(slowness, readings) as watch:
            subprocess.run(cmd, cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(watch.wall)
    return times, readings
