"""Shared numerical kernels: Gauss-Legendre rules and one level-set search.

Everything here is deterministic: fixed-order quadrature and a
bisection with a fixed relative tolerance, so repeated evaluations are
bit-identical and smooth in their parameters (no adaptive subdivision
that could jitter).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Relative argument tolerance of the level-set search.
X_RTOL = 1.0e-13

#: Eightfold growths of the upper end before the search gives up:
#: 8**20 ~ 1e18 times the starting end, which callers set to the
#: problem's own scale.
MAX_GROWTHS = 20


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
    array of its shape (0-d for a scalar).  Callers guarantee
    fn(lo) >= target, so fn is never evaluated at lo.  Where
    fn(hi) >= target the upper end grows eightfold, at most
    ``MAX_GROWTHS`` times, and then raises ConvergenceError rather than
    truncating.  Bisection stops once hi - lo <= X_RTOL * hi for every
    element, or when no float lies between the ends, so the tolerance
    is relative to each root and free of units.

    Returns (root, grown upper end, evaluations of fn).
    """
    targets = np.asarray(targets, dtype=float)
    x_lo = np.full(targets.shape, float(lo))
    x_hi = np.full(targets.shape, float(hi))
    evals = 0
    for _ in range(MAX_GROWTHS + 1):
        above = fn(x_hi) >= targets
        evals += 1
        if not above.any():
            break
        x_lo = np.where(above, x_hi, x_lo)
        x_hi = np.where(above, 8.0 * x_hi, x_hi)
    else:
        raise ConvergenceError(
            f"level set still unbounded at {float(np.max(x_lo)):g} after "
            f"{MAX_GROWTHS} eightfold growths of the search bracket")
    grown = x_hi.copy()
    while True:
        mid = 0.5 * (x_lo + x_hi)
        open_ = (x_hi - x_lo > X_RTOL * x_hi) & (mid > x_lo) & (mid < x_hi)
        if not np.count_nonzero(open_):
            return mid, grown, evals
        above = fn(mid) >= targets
        evals += 1
        np.copyto(x_lo, mid, where=open_ & above)
        np.copyto(x_hi, mid, where=open_ & ~above)
