"""Long-run investment equilibria and the social-welfare benchmark.

Aggregate capacity settles where the marginal investor's expected
lifetime revenue per unit equals the installation cost, so each
real-time design reduces to a one-dimensional root of a monotone
function.  The contract-based capacity follows directly from aggregate
rental demand at the cost-recovering price.  The welfare optimum shares
its first-order condition with the product-differentiated market, so its
result is the differentiated market's search, relabelled: the equality
holds exactly rather than to solver tolerance.

A scenario is immutable, so each design is solved at most once per
scenario instance: ``solve_ne`` keeps its results on the scenario,
``opt`` reads ``prt``'s, and at premium scale 0 both read ``srt``'s.  A
sweep (``_solve_sweep``) stores the results
its points share before solving them.  Only this module touches that
store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .markets import (Scenario, _capacity_search, _cb_demands,
                      _check_mechanism, _check_nonneg, _rt_window_value,
                      _scarcity_integral, _scarcity_moments,
                      aggregate_demand_cb, revenue_rt)

__all__ = [
    "EquilibriumResult",
    "AllocationRule",
    "solve_ne",
    "solve_all",
    "optimal_allocation",
    "welfare",
    "check_viability",
    "zero_profit_residual",
]

SOLVE_MECHANISMS = ("srt", "prt", "cb", "opt")


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved aggregate capacity for one mechanism (or the welfare optimum).

    ``residual`` is the lifetime zero-profit gap (revenue minus capital
    cost) at the returned capacity; when the mechanism is not viable the
    capacity is zero and the residual reports the per-unit profit gap.
    ``bracket`` is the search's final bracket: the per-unit value reaches
    the cost-recovering price at its lower end and not at its upper end,
    so the exact level-set top, a revenue jump included, lies between.
    ``iterations`` counts the search's evaluations.  ``cb`` needs no
    search (both ends are its capacity); a non-viable result has (0, 0).
    """

    mechanism: str
    capacity: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    viable: bool


@dataclass(frozen=True)
class AllocationRule:
    """Welfare-optimal rationing of scarce solar within one period.

    Buyers above ``threshold_premium`` are served first;
    ``max_avg_premium`` is the resulting population-average premium
    collected, which tops out at the mean premium under abundance.
    """

    threshold_premium: float
    max_avg_premium: float


def _viability(scenario: Scenario, mechanism: str) -> tuple[bool, float]:
    """Whether the first unit's window value reaches pi*, and its
    lifetime margin over pi0.  The flag is the test a ``cb`` buyer
    applies to its choke value, in the same price units, so at scale 0
    every design agrees on it bit for bit; the boundary is viable."""
    top = _rt_window_value(scenario, mechanism, 0.0)
    return (scenario.cost_recovering_price <= top,
            scenario.period_scale * top - scenario.pi0)


def _solve_characteristic(scenario: Scenario,
                          mechanism: str) -> EquilibriumResult:
    """Largest capacity whose window value, A(c) plus eps R1(c) under
    ``prt``, still reaches pi*: a ``cb`` buyer's demand search (at scale
    0 it is the zero-premium buyer's demand, bit for bit)."""
    viable, margin = _viability(scenario, mechanism)
    if not viable:
        return EquilibriumResult(mechanism=mechanism, capacity=0.0,
                                 residual=margin, bracket=(0.0, 0.0),
                                 iterations=0, viable=False)
    capacity, bracket, iters = _capacity_search(
        scenario, lambda c: _rt_window_value(scenario, mechanism, c),
        scenario.cost_recovering_price)
    return EquilibriumResult(
        mechanism=mechanism, capacity=capacity,
        residual=zero_profit_residual(scenario, mechanism, capacity),
        bracket=bracket, iterations=iters, viable=True)


def _solve_cb(scenario: Scenario) -> EquilibriumResult:
    """Capacity demanded at the rental price that just recovers capital cost.

    The capacity is one evaluation of aggregate rental demand at pi*
    (``Scenario.cost_recovering_price``), so its zero-profit residual is
    zero by construction.  No clearing solve is needed; ``clear_cb``
    serves verification and the library API, and at this capacity it
    certifies pi* as the clearing price.
    """
    return _cb_result(scenario, aggregate_demand_cb(
        scenario, scenario.cost_recovering_price))


def _cb_result(scenario: Scenario, capacity: float) -> EquilibriumResult:
    """The ``cb`` result for the demand at pi*, ``capacity``."""
    if capacity <= 0.0:
        return EquilibriumResult(mechanism="cb", capacity=0.0,
                                 residual=-scenario.pi0, bracket=(0.0, 0.0),
                                 iterations=0, viable=False)
    return EquilibriumResult(mechanism="cb", capacity=capacity, residual=0.0,
                             bracket=(capacity, capacity), iterations=0,
                             viable=True)


def solve_ne(scenario: Scenario, mechanism: str) -> EquilibriumResult:
    """Nash-equilibrium aggregate capacity under the given market design.

    Each of ``srt``, ``prt`` and ``cb`` is solved at most once per
    scenario instance; a repeat call returns the stored result.  ``opt``
    is the welfare optimum, which shares the differentiated market's
    characterizing equation: it is the ``prt`` result relabelled, so it
    makes no search of its own.  At premium scale 0 the differentiated
    window value reads no premium, so its search is ``srt``'s, and
    ``prt`` and ``opt`` are the ``srt`` result relabelled.
    """
    _check_mechanism(mechanism, SOLVE_MECHANISMS)
    design = "prt" if mechanism == "opt" else mechanism
    if design == "prt" and scenario.premium.epsilon == 0.0:
        design = "srt"
    solved = scenario._solved
    if design not in solved:
        solved[design] = (_solve_cb(scenario) if design == "cb"
                          else _solve_characteristic(scenario, design))
    result = solved[design]
    if design != mechanism:
        result = replace(result, mechanism=mechanism)
    return result


def solve_all(scenario: Scenario,
              mechanisms=SOLVE_MECHANISMS) -> dict[str, EquilibriumResult]:
    """``solve_ne`` for the requested mechanisms, in ``SOLVE_MECHANISMS``
    order.  Every name is checked before anything is solved."""
    for m in mechanisms:
        _check_mechanism(m, SOLVE_MECHANISMS)
    return {m: solve_ne(scenario, m) for m in SOLVE_MECHANISMS
            if m in mechanisms}


def _solve_sweep(scenario: Scenario, param: str, values,
                 mechanisms=SOLVE_MECHANISMS
                 ) -> list[dict[str, EquilibriumResult]]:
    """``solve_all`` at ``scenario.with_epsilon(v)`` (``param``
    "epsilon") or ``scenario.with_pi0(v)`` (``param`` "pi0") for each
    value v, in order.

    The points share the scenario's periods, so the contract market's
    demands at every point's pi* come from one breakpoint search
    (``markets._cb_demands``) and are stored on the points first.  An
    epsilon point differs from the scenario only in its premium, which
    ``srt`` does not read, so it stores the scenario's own ``srt``
    result: one search for the whole sweep.  A point at scale 0 stores
    it even when ``srt`` is not requested, for its ``prt`` and ``opt``
    are that search (``solve_ne``).  Every result is the same bits as a
    fresh ``solve_all`` of its point.
    """
    for m in mechanisms:
        _check_mechanism(m, SOLVE_MECHANISMS)
    derive = {"epsilon": scenario.with_epsilon, "pi0": scenario.with_pi0}
    if param not in derive:
        raise ValueError(f"unknown sweep parameter {param!r}")
    points = [derive[param](v) for v in values]
    if "cb" in mechanisms:
        demands = _cb_demands(scenario, [(p.premium, p.cost_recovering_price)
                                         for p in points])
        for point, capacity in zip(points, demands):
            point._solved["cb"] = _cb_result(point, capacity)
    if param == "epsilon":
        reads_srt = "srt" in mechanisms
        at_zero = "prt" in mechanisms or "opt" in mechanisms
        takers = [p for p in points
                  if reads_srt or (at_zero and p.premium.epsilon == 0.0)]
        if takers:
            srt = solve_ne(scenario, "srt")
            for point in takers:
                point._solved["srt"] = srt
    return [solve_all(point, mechanisms) for point in points]


def optimal_allocation(scenario: Scenario, period_index: int, c: float,
                       g: float) -> AllocationRule:
    """Welfare-optimal rationing rule for one realized output.

    Scarce solar goes to the buyers with the highest premiums; the
    marginal served type sits at the complementary quantile of the
    served fraction.
    """
    if not 0 <= period_index < len(scenario.periods):
        raise ValueError(f"invalid period index {period_index}")
    c, g = _check_nonneg("capacity", c), _check_nonneg("realization", g)
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
    c = _check_nonneg("capacity", c)
    prem = scenario.premium
    premium_value = _scarcity_integral(
        scenario, c, prem.integrated_complementary_quantile,
        lambda period, value, g: period.load * value)
    total = 0.0
    for period in scenario.periods:
        scarce, energy = map(float, _scarcity_moments(period, c))
        # the abundance region collects the full mean premium
        abundance_value = period.load * prem.mean * (1.0 - scarce)
        shortfall = period.load * scarce - c * energy
        total += period.weight * (abundance_value
                                  - period.utility_price * shortfall)
    return scenario.period_scale * (premium_value + total) - scenario.pi0 * c


def check_viability(scenario: Scenario) -> tuple[bool, float]:
    """Whether selling all output at the backstop price recovers capital cost.

    Returns the flag and the per-unit margin (the ``srt`` unit revenue of
    the first unit, A(0) lifetime-scaled, minus pi0).  The flag is
    ``solve_ne``'s: pi* <= A(0) in price units, so the boundary counts
    as viable; within rounding of it the margin may have either sign.
    """
    return _viability(scenario, "srt")


def zero_profit_residual(scenario: Scenario, mechanism: str, c: float) -> float:
    """Lifetime revenue minus capital bill at capacity c (zero at equilibrium).

    Real-time designs and the optimum only: ``solve_ne`` reads the
    contract-based capacity off aggregate demand at the cost-recovering
    rental price, where this residual is 0 by construction.
    """
    if mechanism == "cb":
        raise ValueError("the cb zero-profit residual is 0 by construction "
                         "in solve_ne; it is defined for srt, prt and opt")
    if c <= 0.0:
        raise ValueError(f"capacity must be positive, got {c}")
    mech = "prt" if mechanism == "opt" else mechanism
    return revenue_rt(scenario, mech, c) - scenario.pi0 * c
