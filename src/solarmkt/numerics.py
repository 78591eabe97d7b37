"""Shared numerical kernels: Gauss-Legendre rules and one level-set search.

Everything here is deterministic: fixed-order quadrature and a
bracketed search with a fixed relative tolerance, so repeated
evaluations are bit-identical and smooth in their parameters (no
adaptive subdivision that could jitter).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: Relative argument tolerance of the level-set search.
X_RTOL = 1.0e-13

#: Eightfold growths of the upper end before the search gives up:
#: 8**20 ~ 1e18 times the starting end, which callers set to the
#: problem's own scale.
MAX_GROWTHS = 20

#: ITP step constants: regula falsi is truncated towards the midpoint by
#: ``ITP_K1 * width**2`` over the starting width, and the bracket may
#: trail bisection's by at most ``ITP_N0`` steps.
ITP_K1 = 0.2
ITP_N0 = 1

#: Fraction of the tolerance ``X_RTOL * hi`` that every step keeps from
#: either end of the bracket.
END_GAP = 0.25


class ConvergenceError(RuntimeError):
    """A bracketed solve failed to converge or to bracket a sign change."""


class NoEquilibriumError(ValueError):
    """No market-clearing price exists for the requested quantity."""


@lru_cache(maxsize=32)
def _leggauss(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre_rule(lo: float, hi: float, order: int = 64):
    """Nodes and weights integrating exactly polynomials of degree < 2*order on [lo, hi]."""
    if hi <= lo:
        return np.empty(0), np.empty(0)
    x, w = _leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def gauss_legendre_panels(edges, order: int):
    """Composite Gauss-Legendre nodes and weights, one panel per cell of ``edges``."""
    x, w = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def sup_level_set(fn, targets, lo: float, hi: float):
    """Largest x >= lo with fn(x) >= target, for a non-increasing fn.

    ``targets`` may be a scalar or an array; ``fn`` is called with an
    array of its shape, or with a float for a scalar target.  Callers
    guarantee fn(lo) >= target, so fn is never evaluated at lo.  Where
    fn(hi) >= target the upper end grows eightfold, at most
    ``MAX_GROWTHS`` times, and then raises ConvergenceError rather than
    truncating.  The search stops once hi - lo <= X_RTOL * hi for every
    element, or when no float lies between the ends, so the tolerance
    is relative to each root and free of units.

    Each step is an ITP step (Oliveira & Takahashi, ACM TOMS 47(1),
    2020): regula falsi on the values at the two ends (those of the
    growth included), truncated towards the midpoint and projected
    into a ball about it.  The ball's radius halves with every step,
    so after j steps the bracket is no wider than bisection's after
    j - ``ITP_N0``: steps and flat tops cost at most ``ITP_N0`` more
    evaluations than bisection, while a smooth crossing converges
    superlinearly.  Until fn is known at the lower end the step is the
    midpoint.  Every step keeps ``END_GAP`` times the tolerance from
    either end, so an iterate that lands exactly on the target, where
    regula falsi returns the lower end, still closes the bracket.

    Returns (root, grown upper end, evaluations of fn).
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 0:
        return _sup_level_set_scalar(fn, float(targets), float(lo), float(hi))
    return _sup_level_set_array(fn, targets, float(lo), float(hi))


def _unbounded(lo) -> ConvergenceError:
    return ConvergenceError(
        f"level set still unbounded at {lo:g} after {MAX_GROWTHS} "
        "eightfold growths of the search bracket")


def _sup_level_set_scalar(fn, target: float, lo: float, hi: float):
    """``sup_level_set`` for one target, in plain floats.

    The arithmetic is the array path's, operation for operation, so the
    two give the same iterates.
    """
    evals = 0
    g_lo = math.nan  # fn(lo) - target, unknown until lo moves
    for _ in range(MAX_GROWTHS + 1):
        g_hi = float(fn(hi)) - target
        evals += 1
        if not g_hi >= 0.0:
            break
        lo, g_lo, hi = hi, g_hi, 8.0 * hi
    else:
        raise _unbounded(lo)
    grown = hi
    k1 = ITP_K1 / (hi - lo)
    rad = 2.0 ** (ITP_N0 - 1) * (hi - lo)
    while True:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        tol = X_RTOL * hi
        if not (width > tol and lo < mid < hi):
            return mid, grown, evals
        half = 0.5 * width
        reach = min(rad - half, half - END_GAP * tol)
        d = width * (0.5 - g_lo / (g_lo - g_hi))  # midpoint - regula falsi
        step = min(max(0.0, abs(d) - k1 * width * width), reach)
        x = mid - math.copysign(step, d)
        g = float(fn(x)) - target
        evals += 1
        if g >= 0.0:
            lo, g_lo = x, g
        else:
            hi, g_hi = x, g
        rad *= 0.5


def _sup_level_set_array(fn, targets, lo: float, hi: float):
    """``sup_level_set`` for an array of targets, element by element."""
    x_lo = np.full(targets.shape, lo)
    x_hi = np.full(targets.shape, hi)
    g_lo = np.full(targets.shape, np.nan)
    evals = 0
    for _ in range(MAX_GROWTHS + 1):
        g_hi = fn(x_hi) - targets
        evals += 1
        above = g_hi >= 0.0
        if not above.any():
            break
        np.copyto(x_lo, x_hi, where=above)
        np.copyto(g_lo, g_hi, where=above)
        x_hi = np.where(above, 8.0 * x_hi, x_hi)
    else:
        raise _unbounded(float(np.max(x_lo)))
    grown = x_hi.copy()
    k1 = ITP_K1 / (x_hi - x_lo)
    rad = 2.0 ** (ITP_N0 - 1) * (x_hi - x_lo)
    while True:
        width = x_hi - x_lo
        mid = 0.5 * (x_lo + x_hi)
        tol = X_RTOL * x_hi
        open_ = (width > tol) & (mid > x_lo) & (mid < x_hi)
        if not open_.any():
            return mid, grown, evals
        half = 0.5 * width
        reach = np.minimum(rad - half, half - END_GAP * tol)
        d = width * (0.5 - g_lo / (g_lo - g_hi))
        step = np.fmin(np.fmax(np.abs(d) - k1 * width * width, 0.0), reach)
        x = mid - np.copysign(step, d)
        g = fn(x) - targets
        evals += 1
        above = g >= 0.0
        up, down = open_ & above, open_ & ~above
        np.copyto(x_lo, x, where=up)
        np.copyto(g_lo, g, where=up)
        np.copyto(x_hi, x, where=down)
        np.copyto(g_hi, g, where=down)
        rad *= 0.5
