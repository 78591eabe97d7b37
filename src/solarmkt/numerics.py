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

#: Fraction by which the ITP ball starts short of its exact radius.
#: Rounding moves each iterate, and bisection's own midpoints, by up to
#: an ulp; at the stopping width (some 450 ulps) this margin keeps the
#: bracket within ``ITP_N0`` steps of bisection's in floating point too.
BALL_SLACK = 2.0 ** -5

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


@lru_cache(maxsize=32)
def _leggauss_shifted(order: int):
    """The Gauss-Legendre nodes plus 1, on [0, 2], and the weights."""
    nodes, weights = _leggauss(order)
    shifted = nodes + 1.0
    shifted.setflags(write=False)
    return shifted, weights


def gauss_legendre_rule(lo: float, hi: float, order: int = 64):
    """Nodes and weights integrating exactly polynomials of degree < 2*order on [lo, hi]."""
    if hi <= lo:
        return np.empty(0), np.empty(0)
    x1, w = _leggauss_shifted(order)
    half = 0.5 * (hi - lo)
    return lo + half * x1, half * w


def gauss_legendre_panels(edges, order: int):
    """Composite Gauss-Legendre nodes and weights, one panel per cell of ``edges``."""
    x, w = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def sup_level_set(fn, targets, lo: float, hi: float, *, g_lo=None,
                  g_hi=None):
    """Largest x >= lo with fn(x) >= target, for a non-increasing fn.

    ``targets`` may be a scalar or an array; ``fn`` is called with an
    array of its shape, or with a float for a scalar target.  The search
    reuses the arrays it hands fn, so fn must not keep them.  Callers
    guarantee fn(lo) >= target, so fn is never evaluated at lo.  A
    caller that already holds fn - target at either end hands it in as
    ``g_lo`` or ``g_hi``, and the search starts from it instead of
    evaluating or guessing.  Where fn(hi) >= target the upper end grows
    eightfold, at most ``MAX_GROWTHS`` times, and then raises
    ConvergenceError rather than truncating.  The search stops once
    hi - lo <= X_RTOL * hi for every element, or when no float lies
    between the ends, so the tolerance is relative to each root and free
    of units; a bracket handed in that narrow, with its value at hi,
    costs no evaluation at all.

    Each step is an ITP step (Oliveira & Takahashi, ACM TOMS 47(1),
    2020): regula falsi on the values at the two ends (those of the
    growth and those handed in included), truncated towards the midpoint
    and projected into a ball about it.  The ball's radius starts
    ``BALL_SLACK`` short and halves with every step, so after j steps
    the bracket is no wider than bisection's after j - ``ITP_N0``: steps
    and flat tops cost at most ``ITP_N0`` more evaluations than
    bisection, while a smooth crossing converges superlinearly.  Until
    fn is known at the lower end the step is the midpoint.  Every step
    keeps ``END_GAP`` times the tolerance from either end, so an iterate
    that lands exactly on the target, where regula falsi returns the
    lower end, still closes the bracket.  A point bracket (lo == hi)
    whose value at hi falls short of the target, which only rounding in
    fn can cause, is closed at once: its root is lo.

    Returns (root, final (lo, hi), fn evaluations, fn - target at the
    final (lo, hi)): fn(hi) < target <= fn(lo), with NaN at lo where lo
    is the untried start.  The root is the midpoint of the final
    bracket, or lo where fn(hi) is -inf: an infinite fall has no
    crossing to interpolate, and the midpoint may lie past it.
    """
    targets = np.asarray(targets, dtype=float)
    g_lo = math.nan if g_lo is None else g_lo
    if targets.ndim == 0:
        return _sup_level_set_scalar(fn, float(targets), float(lo), float(hi),
                                     float(g_lo),
                                     None if g_hi is None else float(g_hi))
    return _sup_level_set_array(fn, targets, float(lo), float(hi), g_lo, g_hi)


def _unbounded(lo) -> ConvergenceError:
    return ConvergenceError(
        f"level set still unbounded at {lo:g} after {MAX_GROWTHS} "
        "eightfold growths of the search bracket")


def _sup_level_set_scalar(fn, target: float, lo: float, hi: float,
                          g_lo: float, g_hi: float | None):
    """``sup_level_set`` for one target, in plain floats.

    The arithmetic is the array path's, operation for operation, so the
    two give the same iterates.  ``g_lo`` is NaN until fn is known at
    lo, and ``g_hi`` None until it is known at hi.
    """
    evals = 0
    for _ in range(MAX_GROWTHS + 1):
        if g_hi is None:
            g_hi = float(fn(hi)) - target
            evals += 1
        if not g_hi >= 0.0:
            break
        lo, g_lo, hi, g_hi = hi, g_hi, 8.0 * hi, None
    else:
        raise _unbounded(lo)
    k1 = ITP_K1 / (hi - lo) if hi > lo else 0.0
    rad = (1.0 - BALL_SLACK) * 2.0 ** (ITP_N0 - 1) * (hi - lo)
    while True:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        tol = X_RTOL * hi
        if not (width > tol and lo < mid < hi):
            return ((lo if g_hi == -math.inf else mid), (lo, hi), evals,
                    (g_lo, g_hi))
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


def _sup_level_set_array(fn, targets, lo: float, hi: float, g_lo, g_hi):
    """``sup_level_set`` for an array of targets, element by element.

    Each end, and the new iterate, is a pair of rows: its position and
    fn - target there.  So one masked copy moves both, and fn is handed
    the same buffer at every step.
    """
    low = np.empty((2,) + targets.shape)
    high = np.empty_like(low)
    new = np.empty_like(low)
    low[0], low[1], high[0] = lo, g_lo, hi
    known = g_hi is not None
    if known:
        high[1] = g_hi
    (x_lo, g_lo), (x_hi, g_hi), (x, g) = low, high, new
    evals = 0
    for _ in range(MAX_GROWTHS + 1):
        if not known:
            np.subtract(fn(x_hi), targets, out=g_hi)
            evals += 1
        known = False
        above = g_hi >= 0.0
        if not np.count_nonzero(above):
            break
        np.copyto(low, high, where=above)
        np.multiply(x_hi, 8.0, out=x_hi, where=above)
    else:
        raise _unbounded(float(np.max(x_lo)))
    k1 = np.divide(ITP_K1, x_hi - x_lo, out=np.zeros_like(x_hi),
                   where=x_hi > x_lo)
    rad = (1.0 - BALL_SLACK) * 2.0 ** (ITP_N0 - 1) * (x_hi - x_lo)
    while True:
        width = x_hi - x_lo
        mid = 0.5 * (x_lo + x_hi)
        tol = X_RTOL * x_hi
        open_ = (width > tol) & (mid > x_lo) & (mid < x_hi)
        if not np.count_nonzero(open_):
            return (np.where(g_hi == -np.inf, x_lo, mid), (x_lo, x_hi), evals,
                    (g_lo, g_hi))
        half = 0.5 * width
        reach = np.minimum(rad - half, half - END_GAP * tol)
        d = width * (0.5 - g_lo / (g_lo - g_hi))
        step = np.fmin(np.fmax(np.abs(d) - k1 * width * width, 0.0), reach)
        np.subtract(mid, np.copysign(step, d), out=x)
        np.subtract(fn(x), targets, out=g)
        evals += 1
        up = open_ & (g >= 0.0)
        np.copyto(low, new, where=up)
        np.copyto(high, new, where=open_ ^ up)
        rad *= 0.5
