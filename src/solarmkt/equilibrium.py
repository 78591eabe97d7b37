"""Long-run investment equilibria and the social-welfare benchmark.

Aggregate capacity settles where the marginal investor's expected
lifetime revenue per unit equals the installation cost, so each
real-time design reduces to a one-dimensional root of a monotone
function.  The contract-based capacity follows directly from aggregate
rental demand at the cost-recovering price.  The welfare optimum shares
its first-order condition with the product-differentiated market, and is
deliberately solved by the very same routine so the equality holds
exactly rather than to solver tolerance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .markets import (Scenario, aggregate_demand_cb, clear_cb, revenue_rt,
                      unit_revenue_rt)
from .numerics import (BRACKET_CAP, DEFAULT_D_MAX, bisect_decreasing,
                       grow_bracket)

__all__ = [
    "EquilibriumResult",
    "AllocationRule",
    "solve_ne",
    "solve_social_optimum",
    "optimal_allocation",
    "welfare",
    "check_viability",
    "zero_profit_residual",
]

logger = logging.getLogger(__name__)

SOLVE_MECHANISMS = ("srt", "prt", "cb", "opt")


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved aggregate capacity for one mechanism (or the welfare optimum).

    ``residual`` is the lifetime zero-profit gap (revenue minus capital
    cost) at the returned capacity; when the mechanism is not viable the
    capacity is zero and the residual reports the per-unit profit gap.
    ``monotone`` records a coarse-grid sanity check of the per-unit
    revenue curve used for bisection.
    """

    mechanism: str
    capacity: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    viable: bool
    monotone: bool = True


@dataclass(frozen=True)
class AllocationRule:
    """Welfare-optimal rationing of scarce solar within one period.

    Buyers above ``threshold_premium`` are served first;
    ``max_avg_premium`` is the resulting population-average premium
    collected, which tops out at the mean premium under abundance.
    """

    threshold_premium: float
    max_avg_premium: float


def _monotone_on_grid(fn, lo: float, hi: float, points: int = 9) -> bool:
    grid = np.linspace(lo, hi, points)
    vals = np.array([fn(c) for c in grid])
    slack = 1e-9 * max(1.0, float(np.abs(vals).max()))
    return bool(np.all(np.diff(vals) <= slack))


def _solve_characteristic(scenario: Scenario, mechanism: str,
                          label: str) -> EquilibriumResult:
    """Bisect the per-unit zero-profit condition for a real-time design."""
    pi0 = scenario.pi0

    def residual(c: float) -> float:
        return unit_revenue_rt(scenario, mechanism, c) - pi0

    scale = scenario.capacity_scale
    lo = 1e-9 * scale
    r_lo = residual(lo)
    if r_lo < 0.0:
        # Upfront cost unattractive even for the first unit: no investment.
        return EquilibriumResult(mechanism=label, capacity=0.0, residual=r_lo,
                                 bracket=(0.0, lo), iterations=0, viable=False)
    hi, r_hi = grow_bracket(residual, lo, scale, cap=BRACKET_CAP)
    root, iters = bisect_decreasing(residual, lo, hi, f_lo=r_lo, f_hi=r_hi)
    monotone = _monotone_on_grid(
        lambda c: unit_revenue_rt(scenario, mechanism, c), lo, hi)
    if not monotone:
        logger.warning("per-unit revenue for %s is not monotone on the "
                       "bracket [%g, %g]; returning the bisection root",
                       label, lo, hi)
    return EquilibriumResult(
        mechanism=label, capacity=root,
        residual=revenue_rt(scenario, mechanism, root) - pi0 * root,
        bracket=(lo, hi), iterations=iters, viable=True, monotone=monotone)


def _solve_cb(scenario: Scenario, d_max: float) -> EquilibriumResult:
    """Capacity demanded at the rental price that just recovers capital cost.

    A unit rented at pi0 * horizon / t_tilde per planning window earns
    exactly pi0 over the panel lifetime, so the capacity is one
    evaluation of aggregate rental demand at that price and its
    zero-profit residual is zero by construction.  No clearing solve is
    needed; ``clear_cb`` serves verification and the library API.
    """
    target_price = scenario.pi0 * scenario.horizon / scenario.t_tilde
    capacity = aggregate_demand_cb(scenario, target_price, d_max=d_max)
    if capacity <= 0.0:
        return EquilibriumResult(mechanism="cb", capacity=0.0,
                                 residual=-scenario.pi0, bracket=(0.0, 0.0),
                                 iterations=0, viable=False)
    return EquilibriumResult(mechanism="cb", capacity=capacity, residual=0.0,
                             bracket=(0.0, d_max), iterations=0, viable=True)


def solve_ne(scenario: Scenario, mechanism: str, *,
             d_max: float = DEFAULT_D_MAX) -> EquilibriumResult:
    """Nash-equilibrium aggregate capacity under the given market design.

    ``opt`` solves the welfare optimum, which shares the differentiated
    market's characterizing equation.
    """
    if mechanism not in SOLVE_MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}; "
                         f"expected one of {SOLVE_MECHANISMS}")
    if mechanism == "cb":
        return _solve_cb(scenario, d_max)
    if mechanism == "opt":
        return _solve_characteristic(scenario, "prt", "opt")
    return _solve_characteristic(scenario, mechanism, mechanism)


def solve_social_optimum(scenario: Scenario) -> EquilibriumResult:
    """Welfare-maximizing capacity (identical equation to the prt design)."""
    return solve_ne(scenario, "opt")


def optimal_allocation(scenario: Scenario, period_index: int, c: float,
                       g: float) -> AllocationRule:
    """Welfare-optimal rationing rule for one realized output.

    Scarce solar goes to the buyers with the highest premiums; the
    marginal served type sits at the complementary quantile of the
    served fraction.
    """
    if not 0 <= period_index < len(scenario.periods):
        raise ValueError(f"invalid period index {period_index}")
    if c < 0.0 or g < 0.0:
        raise ValueError("capacity and realization must be non-negative")
    period = scenario.periods[period_index]
    prem = scenario.premium
    served = c * g / period.load
    if served > 1.0:
        return AllocationRule(threshold_premium=0.0, max_avg_premium=prem.mean)
    return AllocationRule(
        threshold_premium=float(prem.complementary_quantile(served)),
        max_avg_premium=float(prem.integrated_complementary_quantile(served)))


def welfare(scenario: Scenario, c: float) -> float:
    """Expected consumer-plus-investor surplus per planning window, lifetime-scaled.

    Sums, per period, the best collectable premium value minus backstop
    purchases, then subtracts the capital bill.  Concave in c, with its
    maximizer characterized by the same condition as the prt capacity.
    """
    if c < 0.0 or not math.isfinite(c):
        raise ValueError(f"capacity must be finite and non-negative, got {c}")
    prem = scenario.premium
    mean_v = prem.mean
    total = 0.0
    for period in scenario.periods:
        gen, load = period.generation, period.load
        if c > 0.0:
            cut = load / c
            nodes, weights = gen.quad_nodes(0.0, min(cut, gen.support_hi),
                                            order=64)
            premium_value = 0.0
            if nodes.size:
                frac = np.clip(c * nodes / load, 0.0, 1.0)
                premium_value = load * float(
                    weights @ prem.integrated_complementary_quantile(frac))
            # abundance region collects the full mean premium
            premium_value += load * mean_v * (1.0 - float(gen.cdf(cut)))
            shortfall = load * float(gen.cdf(cut)) \
                - c * float(gen.partial_first_moment(cut))
        else:
            premium_value = 0.0
            shortfall = load
        total += period.weight * (premium_value
                                  - period.utility_price * shortfall)
    return scenario.period_scale * total - scenario.pi0 * c


def check_viability(scenario: Scenario) -> tuple[bool, float]:
    """Whether selling all output at the backstop price recovers capital cost.

    Returns the flag and the per-unit margin (lifetime backstop revenue
    per capacity unit minus pi0); the boundary counts as viable.
    """
    revenue = scenario.period_scale * sum(
        p.weight * p.utility_price * p.generation.mean for p in scenario.periods)
    margin = revenue - scenario.pi0
    return margin >= 0.0, margin


def zero_profit_residual(scenario: Scenario, mechanism: str, c: float) -> float:
    """Lifetime revenue minus capital bill at capacity c (zero at equilibrium)."""
    if c <= 0.0:
        raise ValueError(f"capacity must be positive, got {c}")
    if mechanism == "cb":
        clearing = clear_cb(scenario, c)
        return scenario.period_scale * c * clearing.price - scenario.pi0 * c
    mech = "prt" if mechanism == "opt" else mechanism
    return revenue_rt(scenario, mech, c) - scenario.pi0 * c
