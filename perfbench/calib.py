"""Machine-speed calibration for the benchmark's time metrics.

The shared host the benchmark runs on switches, every second or so, between
a fast state and one in which co-tenants take about a third of its CPU
throughput, so the same deterministic pass can take 1.5x longer from one
moment to the next and a whole run's median by 25%.  A fixed kernel that
never calls cubicobs is timed every 0.2 s of each pass (``worker.py``); an
operation's wall time is then scaled by ``REF_S / mean kernel time`` over
its pass.  The result is in *reference seconds*: seconds on a machine where
the kernel takes ``REF_S``.  A slower machine slows the kernel and the
program alike and cancels; a slower program leaves the kernel alone and
shows in full.

The kernel parses and compiles a fixed piece of Python source: branchy,
allocation-heavy interpreter work.  Timed side by side with cubicobs
operations on that host, it slowed by the same factor as they did in the
slow state (1.45-1.5x for simulation, the equilibrium falsifier and the
gain design alike), where tight float loops, small numpy products and small
eigenvalue problems slowed by 1.6-1.75x and would over-correct.
"""

from __future__ import annotations

import ast
import statistics
import time

REF_S = 0.002  # kernel time on the reference machine, in its fast state
REPS = 3  # kernel runs per sample; the sample is their median

_SOURCE = "\n".join(
    f"def f{i}(x, y, scale={i}.5):\n"
    f"    acc = {{'n': 0, 'sum': 0.0}}\n"
    f"    for a, b in zip(x, y):\n"
    f"        if a > b * scale:\n"
    f"            acc['sum'] += math.sin(a) * b - {i} / (1.0 + a * a)\n"
    f"        acc['n'] += 1\n"
    f"    return [v ** 2 for v in (acc['sum'], acc['n']) if v]\n"
    for i in range(12))


def kernel() -> None:
    compile(ast.parse(_SOURCE), "<calib>", "exec")


def sample() -> float:
    """Median wall time of ``REPS`` kernel runs, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(seconds: float, samples) -> float:
    """``seconds`` of wall time in reference seconds, given the kernel
    ``samples`` taken around and during it."""
    return seconds * REF_S / statistics.fmean(samples)
