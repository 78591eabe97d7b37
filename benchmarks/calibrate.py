"""A fixed reference computation that tells how fast the host runs right now.

On a shared host the speed of one CPU drifts as its neighbours' load
changes: a fixed pure-Python loop, timed over one minute on a 2-vCPU
guest, took between 0.49 and 0.71 s, and its CPU time moved with its wall
time, so CPU time does not remove the drift.  The benchmark therefore
times this kernel between its operations and reports each operation's
time rescaled to a host on which the kernel takes ``REFERENCE_S``.  The
kernel uses nothing from solarmkt, so a change to the program moves the
rescaled times exactly as it moves the raw ones.

The kernel mixes what the program spends its time on: interpreted float
arithmetic and calls (bisection), dictionary work, and numpy calls on
arrays of a thousand elements.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: The kernel's time on the nominal host that rescaled times refer to.
REFERENCE_S = 0.008
#: Kernel runs per probe; the probe reports their median.
REPEATS = 3

_rng = np.random.default_rng(0)
#: Keys for dictionary and sorting work: 8k floats, past a core's L2.
_KEYS = [float(v) for v in _rng.random(8_000)]
#: A tabulated density and the nodes it is read at, as a quadrature does.
_GRID = np.linspace(0.0, 2.0, 1025)
_DENSITY = np.exp(-0.5 * ((_GRID - 1.0) / 0.4) ** 2)
_CUMULATIVE = np.concatenate(([0.0], np.cumsum(0.5 * (_DENSITY[1:] + _DENSITY[:-1])
                                               * np.diff(_GRID))))
_NODES = np.linspace(0.01, 1.99, 1536)


def _interpreted() -> float:
    """Float arithmetic, calls and small-dictionary updates."""
    total = 0.0
    for j in range(60):
        lo, hi = 0.0, 10.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if (mid * mid + 0.01 * j) / (1.0 + mid) > 3.0:
                hi = mid
            else:
                lo = mid
        total += lo
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i & 127] = counts.get(i & 127, 0) + i
    return total + len(counts)


def _memory() -> float:
    """A dictionary and a sort over more data than a core's L2 holds."""
    table = {key: math.sqrt(key) + 1.0 for key in _KEYS}
    return len(table) + sorted(_KEYS)[5]


def _arrays() -> float:
    """A bisection whose steps are numpy calls on 1.5k-element arrays."""
    total = 0.0
    for j in range(10):
        lo, hi = 0.0, 5.0
        for _ in range(4):
            mid = 0.5 * (lo + hi)
            x = np.clip(_NODES * mid, _GRID[0], _GRID[-1])
            cell = np.clip(np.searchsorted(_GRID, x, side="right") - 1, 0, _GRID.size - 2)
            with np.errstate(divide="ignore"):
                cut = np.where(x > 0.0, 1.0 / np.maximum(x, 1e-300), np.inf)
            value = float(np.sum(_CUMULATIVE[cell] * np.interp(x, _GRID, _DENSITY))
                          + np.sum(np.minimum(cut, 3.0)))
            if value > 100.0 * (1.0 + 0.01 * j):
                hi = mid
            else:
                lo = mid
        total += lo
    return total


def kernel() -> float:
    return _interpreted() + _memory() + _arrays()


def probe() -> float:
    """Seconds the kernel takes now (median of ``REPEATS`` runs)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)

