"""Shared numerical kernels: Gauss-Legendre rules and monotone bisection.

Everything here is deterministic: fixed-order quadrature and fixed
tolerance bisection, so repeated evaluations are bit-identical and smooth
in their parameters (no adaptive subdivision that could jitter).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Hard cap on capacity search brackets.  Flat regions of the demand
#: inverses are unbounded in theory; results are capped here.
DEFAULT_D_MAX = 1.0e6

#: Capacity cap for zero-profit bracket growth.
BRACKET_CAP = 1.0e9

#: Relative argument tolerance for all bisections.
X_RTOL = 1.0e-13

MAX_BISECT_ITER = 200


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


def fixed_quad(fn, lo: float, hi: float, order: int = 64) -> float:
    """Single-panel Gauss-Legendre integral of a vectorized callable."""
    x, w = gauss_legendre_rule(lo, hi, order)
    if x.size == 0:
        return 0.0
    return float(w @ np.asarray(fn(x), dtype=float))


def bisect_decreasing(fn, lo: float, hi: float, *, f_lo: float | None = None,
                      f_hi: float | None = None, x_rtol: float = X_RTOL,
                      max_iter: int = MAX_BISECT_ITER):
    """Root of a non-increasing scalar function with fn(lo) >= 0 >= fn(hi).

    Returns (root, iterations).  Raises ConvergenceError when the bracket
    does not actually straddle a sign change.
    """
    f_lo = fn(lo) if f_lo is None else f_lo
    f_hi = fn(hi) if f_hi is None else f_hi
    if f_lo < 0.0 or f_hi > 0.0:
        raise ConvergenceError(
            f"bracket [{lo:g}, {hi:g}] does not straddle a root "
            f"(f(lo)={f_lo:g}, f(hi)={f_hi:g})")
    iters = 0
    while iters < max_iter and (hi - lo) > x_rtol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), iters


def grow_bracket(fn, lo: float, hi: float, *, cap: float = BRACKET_CAP,
                 factor: float = 8.0):
    """Geometrically expand hi until fn(hi) < 0 for a non-increasing fn.

    Returns (hi, f_hi).  Raises ConvergenceError when no sign change is
    found below the cap (reporting the residual there for diagnosis).
    """
    f_hi = fn(hi)
    while f_hi >= 0.0:
        if hi >= cap:
            raise ConvergenceError(
                f"no sign change up to bracket cap {cap:g} "
                f"(residual there {f_hi:g})")
        hi = min(hi * factor, cap)
        f_hi = fn(hi)
    return hi, f_hi


def sup_level_set(fn, targets, lo: float, hi: float, *,
                  x_rtol: float = X_RTOL, max_iter: int = MAX_BISECT_ITER):
    """Largest d in [lo, hi] with fn(d) >= target, for non-increasing fn.

    ``fn`` must accept and return arrays; ``targets`` may be scalar or an
    array.  Callers guarantee fn(lo) >= target for every target.  Where
    fn stays above the target on the whole bracket, hi is returned (the
    supremum is truncated at the search cap).
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    lo_a = np.full(targets.shape, float(lo))
    hi_a = np.full(targets.shape, float(hi))
    at_cap = np.asarray(fn(hi_a)) >= targets
    for _ in range(max_iter):
        mid = 0.5 * (lo_a + hi_a)
        above = np.asarray(fn(mid)) >= targets
        lo_a = np.where(above, mid, lo_a)
        hi_a = np.where(above, hi_a, mid)
        if np.all(hi_a - lo_a <= x_rtol * np.maximum(1.0, np.abs(hi_a))):
            break
    out = np.where(at_cap, hi, 0.5 * (lo_a + hi_a))
    return out
