"""Short-term clearing of the three solar market designs.

Real-time mechanisms clear each operation period after the output
realization: the single-product market (``srt``) pools solar with grid
energy at the backstop price, the product-differentiated market
(``prt``) lets scarce solar command a premium over it.  The
contract-based market (``cb``) clears once, ex ante, by renting panel
capacity for the whole planning window.

Sellers are homogeneous and both sides are non-atomic, so buyer
allocations under scarcity are carried as a premium threshold (the
marginal served type) rather than per-agent records, and expected
revenues reduce to one-dimensional integrals against the generation
densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping

import numpy as np

from .distributions import PeriodProfile, PremiumDistribution
from .numerics import (X_RTOL, ConvergenceError, NoEquilibriumError,
                       gauss_legendre_panels, sup_level_set)

__all__ = [
    "RT_MECHANISMS",
    "MECHANISMS",
    "Scenario",
    "ClearingOutcome",
    "CbClearing",
    "CeVerification",
    "clear_rt",
    "unit_revenue_rt",
    "revenue_rt",
    "cb_unit_value",
    "individual_demand_cb",
    "aggregate_demand_cb",
    "clear_cb",
    "buyer_payoff_cb",
    "verify_ce",
]

RT_MECHANISMS = ("srt", "prt")
MECHANISMS = ("srt", "prt", "cb")

#: Gauss-Legendre order of each panel of the contract-demand quadrature.
CB_PANEL_ORDER = 8

#: Equal-width panels the contract-demand quadrature lays over its
#: support, on top of the breakpoints and generation knots.
CB_MIN_PANELS = 32

#: Largest demand residual, relative to the capacity, at which
#: ``clear_cb`` counts a price as clearing.
CB_CLEARING_RTOL = 1e-7


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: operation periods plus investment economics.

    ``pi0`` is the capital-plus-installation cost per unit capacity and
    ``t_tilde`` scales one planning window's expected revenue up to the
    panel lifetime.  ``_solved`` holds the equilibria ``equilibrium``
    has found for this instance (``solve_ne``, or a sweep's shared
    searches); a scenario is immutable, so they never go stale, and a
    derived scenario (``replace``, ``with_epsilon``, ``with_pi0``)
    starts with none.
    """

    periods: tuple[PeriodProfile, ...]
    premium: PremiumDistribution
    pi0: float
    t_tilde: float
    provenance: Mapping[str, str] = field(default_factory=dict, compare=False,
                                          repr=False)
    _solved: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(self.periods))
        if not self.periods:
            raise ValueError("scenario needs at least one operation period")
        for name, v in (("pi0", self.pi0), ("t_tilde", self.t_tilde)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.horizon <= 0.0:
            raise ValueError("total period weight must be positive")

    @property
    def horizon(self) -> float:
        """Total number of operation periods one planning window covers."""
        return sum(p.weight for p in self.periods)

    @property
    def period_scale(self) -> float:
        """Lifetime-per-period scaling: t_tilde / total weight."""
        return self.t_tilde / self.horizon

    @property
    def cost_recovering_price(self) -> float:
        """pi*: the window price at which a unit earns pi0 over its
        lifetime, pi0 horizon / t_tilde."""
        return self.pi0 * self.horizon / self.t_tilde

    @cached_property
    def _output_cuts(self) -> np.ndarray:
        """The capacities L/g of every period's positive output knots, in
        increasing order: where a unit's covered energy kinks or, past an
        atom, jumps.  Computed once per scenario object."""
        return np.sort(np.concatenate([
            p.load / p.generation.knots[p.generation.knots > 0.0]
            for p in self.periods]))

    @cached_property
    def _tabled_periods(self) -> tuple[PeriodProfile, ...]:
        """The lit periods whose premium revenue has no closed form
        (``GenerationDistribution._premium_moment`` is None), in order:
        ``_premium_revenue`` integrates them on Gauss nodes."""
        return tuple(p for p in self.periods if p.generation.support_hi > 0.0
                     and p.generation._premium_moment(self.premium, math.inf)
                     is None)

    @property
    def capacity_scale(self) -> float:
        """Largest per-period L / E[G]: the capacity that covers mean load."""
        scales = [p.load / p.generation.mean for p in self.periods
                  if p.generation.mean > 0.0]
        return max(scales) if scales else 1.0

    def with_epsilon(self, epsilon: float) -> "Scenario":
        return replace(self, premium=self.premium.with_epsilon(epsilon))

    def with_pi0(self, pi0: float) -> "Scenario":
        return replace(self, pi0=float(pi0))


@dataclass(frozen=True)
class ClearingOutcome:
    """One period's competitive equilibrium under a real-time mechanism.

    ``buyer_threshold`` is the smallest premium served under scarcity in
    the product-differentiated market and None otherwise (allocations
    are then flat across buyer types).
    """

    mechanism: str
    regime: str  # "abundant" | "limited"
    price: float
    seller_quantity: float
    buyer_threshold: float | None
    served_fraction: float


@dataclass(frozen=True)
class CbClearing:
    """Ex-ante clearing of the capacity rental market."""

    price: float
    seller_quantity: float
    demand_residual: float


def _check_mechanism(mechanism: str, allowed=MECHANISMS):
    if mechanism not in allowed:
        raise ValueError(f"unknown mechanism {mechanism!r}; expected one of {allowed}")


def _check_nonneg(name: str, x):
    """x as a float, or as a float array if it has dimensions, once every
    value is checked finite and non-negative, with -0.0 read as +0.0.  A
    float is checked with no numpy call: ``aggregate_demand_cb`` checks
    one in ``clear_cb``'s search."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            if not np.all(np.isfinite(x) & (x >= 0.0)):
                raise ValueError(f"{name} must be finite and non-negative")
            return x + 0.0
        x = float(x)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be finite and non-negative, got {x}")
    return x + 0.0


def _clear_rt_draws(scenario: Scenario, period: PeriodProfile,
                    mechanism: str, c: float, g: np.ndarray):
    """Real-time clearing of one period for an array of realizations g.

    Returns (abundant, price, seller_quantity, served_fraction,
    threshold) as arrays shaped like g.  ``threshold`` is None for
    ``srt`` and NaN on abundant draws for ``prt``; the prt thresholds
    come from one complementary-quantile call.  Supply equal to the
    load (c*g == L) counts as limited.
    """
    load = period.load
    supply = c * g
    abundant = supply > load
    served = np.where(abundant, 1.0, supply / load)
    quantity = np.where(abundant, load, supply)
    if mechanism == "srt":
        return (abundant, np.where(abundant, 0.0, period.utility_price),
                quantity, served, None)
    quantile = scenario.premium.complementary_quantile(served)
    threshold = np.where(abundant, np.nan, quantile)
    price = np.where(abundant, 0.0, period.utility_price + threshold)
    return abundant, price, quantity, served, threshold


def clear_rt(scenario: Scenario, period_index: int, mechanism: str,
             c: float, g: float) -> ClearingOutcome:
    """Competitive equilibrium of one period given the realized output g.

    Abundant supply (c*g > L) clears at price zero under both designs.
    Under scarcity the single-product price is the backstop price, while
    the differentiated price adds the premium of the marginal served
    buyer, found from the complementary quantile at the served fraction.
    """
    _check_mechanism(mechanism, RT_MECHANISMS)
    if not 0 <= period_index < len(scenario.periods):
        raise ValueError(f"invalid period index {period_index}")
    c = _check_nonneg("capacity", c)
    g = _check_nonneg("realization", g)

    abundant, price, quantity, served, threshold = _clear_rt_draws(
        scenario, scenario.periods[period_index], mechanism, c, np.array([g]))
    limited = not abundant[0]
    return ClearingOutcome(
        mechanism, "limited" if limited else "abundant", float(price[0]),
        float(quantity[0]),
        float(threshold[0]) if limited and threshold is not None else None,
        float(served[0]))


def _covered_energy(scenario: Scenario, d):
    """(A(d), B(d)) = (sum w u E[G; d G <= L], sum w E[G; d G <= L]).

    The only code that takes these sums of the energy a unit covers
    under scarcity: A is the backstop part of the real-time unit revenue
    and of viability, B the energy term of the contract slope, and
    A(d) + v B(d) a rented unit's value.  Both are non-increasing in d;
    at d = 0 the truncated means are the full means.  A float d is
    summed in plain floats, in the numpy path's arithmetic at a 0-d d.
    """
    a = b = 0.0
    if isinstance(d, float):
        for period in scenario.periods:
            cut = period.load / d if d else math.inf
            mu = period.generation._partial_first_moment_float(cut)
            a = a + period.weight * period.utility_price * mu
            b = b + period.weight * mu
        return a, b
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        for period in scenario.periods:
            mu = period.generation.partial_first_moment(period.load / d)
            a = a + period.weight * period.utility_price * mu
            b = b + period.weight * mu
    return a, b


def _scarcity_integral(scenario: Scenario, c: float, kernel, integrand,
                       periods=None) -> float:
    """Weighted sum over periods of
    E[integrand(period, kernel(frac), G); c G <= L], on Gauss nodes.

    ``frac = c G / L`` is the served fraction of the load, capped at 1
    (it is never negative).  The premium value of welfare and, on output
    with no closed form, the premium revenue (``_premium_revenue``) are
    this one integral with different premium kernels and integrands.
    The periods are the scenario's, or ``periods`` (a subset, in order).
    The kernel is called once, on the nodes of every lit period
    together; dark periods, with no output, add 0.
    """
    lit, fracs = [], []
    for period in scenario.periods if periods is None else periods:
        gen, load = period.generation, period.load
        if gen.support_hi <= 0.0:
            continue
        upper = load / c if c > 0.0 else math.inf
        g, weights = gen.quad_nodes(upper)
        if g.size:
            lit.append((period, g, weights))
            fracs.append(np.minimum(c * g / load, 1.0))
    if not lit:
        return 0.0
    values = kernel(fracs[0] if len(fracs) == 1 else np.concatenate(fracs))
    total, start = 0.0, 0
    for period, g, weights in lit:
        stop = start + g.size
        total += period.weight * float(
            weights @ integrand(period, values[start:stop], g))
        start = stop
    return total


def _premium_revenue(scenario: Scenario, c: float) -> float:
    """R1(c) = sum w E[q(c G / L) G; c G <= L]: premium revenue per unit
    capacity and planning window at premium scale 1, before the lifetime
    scaling, for q the base complementary quantile.

    A period with uniform output adds its closed form
    (``GenerationDistribution._premium_moment``), with no quadrature.
    The others (``Scenario._tabled_periods``) are one
    ``_scarcity_integral``, added last; its served fractions lie in
    [0, 1], so the premium kernel takes them unchecked.
    """
    prem = scenario.premium
    total = 0.0
    for period in scenario.periods:
        term = period.generation._premium_moment(
            prem, period.load / c if c else math.inf)
        if term is not None:
            total += period.weight * term
    tabled = scenario._tabled_periods
    if tabled:
        total += _scarcity_integral(scenario, c, prem._base_cq,
                                    lambda period, q, g: q * g, tabled)
    return total


def _rt_window_value(scenario: Scenario, mechanism: str, c: float) -> float:
    """A(c) (``_covered_energy``), plus eps R1(c) under ``prt``: a unit's
    expected revenue per planning window at a float capacity c."""
    total = _covered_energy(scenario, c)[0]
    prem = scenario.premium
    if mechanism == "prt" and prem.epsilon > 0.0:
        total += prem.epsilon * _premium_revenue(scenario, c)
    return total


def unit_revenue_rt(scenario: Scenario, mechanism: str, c: float) -> float:
    """Expected lifetime revenue per unit capacity under a real-time design.

    This is the left-hand side of the zero-profit condition; it is
    non-increasing in c because added capacity is only paid for up to
    the load in each realization: t_tilde / horizon times the window
    value ``_rt_window_value``."""
    _check_mechanism(mechanism, RT_MECHANISMS)
    c = _check_nonneg("capacity", c)
    return scenario.period_scale * _rt_window_value(scenario, mechanism, c)


def revenue_rt(scenario: Scenario, mechanism: str, c: float) -> float:
    """Expected lifetime seller revenue at aggregate capacity c."""
    c = _check_nonneg("capacity", c)
    return c * unit_revenue_rt(scenario, mechanism, c)


def cb_unit_value(scenario: Scenario, v, d):
    """Whole-window expected value of one rented capacity unit, w(d).

    For a buyer with premium v this sums, across periods, the avoided
    backstop cost plus the premium on energy the rented unit actually
    covers.  Non-increasing in d; its extended inverse is the buyer's
    demand curve.
    """
    v = _check_nonneg("premium", v)
    a, b = _covered_energy(scenario, _check_nonneg("capacity", d))
    return a + v * b


def _linearized(y):
    """-1/sqrt(y), the coordinates in which covered-energy values are searched.

    ``E[G; d G <= L]``, and with it ``A + v B`` and the real-time window
    value, falls as ``d**-2`` once d exceeds the load at the top output,
    for any output density flat near zero; on that convex tail regula
    falsi creeps up on a root from one side.  Mapped through this
    strictly increasing transform the tail is linear in d (exactly so
    for uniform output on [0, hi] and sums of such periods), so the
    search's steps land on the root.  Level sets keep their tops, up to
    ties within an ulp of the target.  Values at or below 0 map to -inf.
    """
    if isinstance(y, float):
        return -1.0 / math.sqrt(y) if y > 0.0 else -math.inf
    with np.errstate(divide="ignore"):
        return -1.0 / np.sqrt(np.maximum(y, 0.0))


def _cb_demand_profile(scenario: Scenario, v, pi):
    """Capacity a buyer with premium v rents at rental price pi: the
    largest d with A(d) + v B(d) >= pi (``_capacity_search``).

    Floats v and pi are one buyer, searched in plain floats, and give a
    float; anything else broadcasts to an array of (premium, price)
    pairs, searched together in one array search, and gives an array.
    Both take the same steps in the same arithmetic, and the search
    moves each element on its own, so a buyer's demand is the same bits
    either way.  At price 0 every unit is worth renting, so demand is
    unbounded; a buyer whose choke value A(0) + v B(0) is below pi rents
    nothing.
    """
    a0, b0 = _covered_energy(scenario, 0.0)
    scalar = isinstance(v, float) and isinstance(pi, float)
    if scalar:
        if pi == 0.0:
            return math.inf
        if not pi <= a0 + v * b0:
            return 0.0
    else:
        v, pi = np.broadcast_arrays(np.atleast_1d(np.asarray(v, dtype=float)),
                                    np.asarray(pi, dtype=float))
        out = np.where(pi == 0.0, np.inf, 0.0)
        live = (pi > 0.0) & (pi <= a0 + v * b0)
        if not live.any():
            return out
        v, pi = v[live], pi[live]

    def value(d):
        a, b = _covered_energy(scenario, d)
        return a + v * b

    demand = _capacity_search(scenario, value, pi)[0]
    if scalar:
        return demand
    out[live] = demand
    return out


def _capacity_search(scenario: Scenario, value, target):
    """Largest capacity c with value(c) >= target, for a non-increasing
    covered-energy value and targets at most value(0), searched in units
    of the capacity scale from [0, 1] with growth, in ``_linearized``
    coordinates.  Returns (capacity, (lo, hi), evaluations): value(lo)
    reaches the target and value(hi) does not.

    The capacity is the final bracket's midpoint, unless the bracket
    holds an output cut (``Scenario._output_cuts``) where the value
    still reaches the target: the value may jump down there, and the
    midpoint lie past the jump, while the cut is in the level set.  The
    largest cut in ``[lo, hi)`` is tried, at the cost of one more
    evaluation unless it is lo itself.
    """
    scale = scenario.capacity_scale
    level = _linearized(target)
    mid, (lo, hi), evals, _ = sup_level_set(
        lambda s: _linearized(value(s * scale)), level, 0.0, 1.0)
    capacity, lo, hi = mid * scale, lo * scale, hi * scale
    cuts = scenario._output_cuts
    i = cuts.searchsorted(hi) - 1  # the largest cut below hi
    if isinstance(level, float):
        if i >= 0 and cuts[i] >= lo:
            cut = float(cuts[i])
            if cut == lo or _linearized(value(cut)) >= level:
                capacity = cut
        return capacity, (lo, hi), evals
    cut = cuts.take(i, mode="clip") if cuts.size else lo
    inside = (i >= 0) & (cut >= lo)
    if inside.any():
        reach = (cut == lo) | (_linearized(value(np.where(inside, cut, lo)))
                               >= level)
        capacity = np.where(inside & reach, cut, capacity)
    return capacity, (lo, hi), evals


def individual_demand_cb(scenario: Scenario, v_i: float, pi: float) -> float:
    """Capacity a buyer with premium v_i rents at price pi (0 when priced out)."""
    return _cb_demand_profile(scenario, _check_nonneg("premium", v_i),
                              _check_nonneg("price", pi))


def aggregate_demand_cb(scenario: Scenario, pi: float) -> float:
    """Total rented capacity at price pi, integrated over buyer types.

    A buyer's rented-unit value is affine in its premium,
    w_v(t) = A(t) + v B(t), so it rents at least t exactly when v is at
    least v*(t) = (pi - A(t)) / B(t).  The layer-cake identity then
    gives the demand as one integral over capacity, with no inner root
    per buyer type:

        D(pi) = t1 + integral over [t1, t2] of P(V >= v*(t)) dt,

    where t1 and t2 are the demands of the zero-premium and the
    top-premium buyer.  This is the one-point case of ``_cb_demands``,
    with t1 searched as the zero knot.  At price 0 every unit is worth
    renting and the demand is infinite.
    """
    return _cb_demands(scenario, [(scenario.premium,
                                   _check_nonneg("price", pi), None)])[0]


def _cb_demands(scenario: Scenario, points) -> list[float]:
    """Aggregate rental demand at several (premium, price, t1) points on
    the scenario's periods, such as the points of a premium-scale or
    capital-cost sweep at their cost-recovering prices: the demands of
    their premium knots (``_cb_demand_breaks``) are searched together,
    and each point's integral (``_cb_layer_cake``) is its own.  t1 is
    the zero-premium buyer's demand at the point's price when the
    caller holds it (at pi* it is the ``srt`` capacity: the largest d
    with A(d) >= pi*), or None to search it.  A point's demand is the
    same bits as ``aggregate_demand_cb`` of its scenario."""
    return [_cb_layer_cake(scenario, prem, pi, breaks)
            for (prem, pi, _), breaks in zip(
                points, _cb_demand_breaks(scenario, points))]


def _cb_demand_breaks(scenario: Scenario, points) -> list:
    """The demand of every premium knot, epsilon * knots, at each
    (premium, price, t1) point on the scenario's periods, in knot order:
    a list of floats, or an array for a table premium.

    The zero knot's demand is t1, searched only when t1 is None; the
    positive knots, epsilon * knots[1:], are searched (scale 0 has
    none).  A point with at most two knots to search searches each in
    plain floats.  The knots of every other point are one array call of
    ``_cb_demand_profile``, each with its own price.
    """
    breaks, tables, vs, pis = [], [], [], []
    for prem, pi, t1 in points:
        known, levels = ([], [0.0]) if t1 is None else ([t1], [])
        if prem.epsilon:
            levels += (prem.epsilon * prem.knots[1:]).tolist()
        if len(levels) <= 2:
            breaks.append(known + [_cb_demand_profile(scenario, v, pi)
                                   for v in levels])
        else:
            tables.append((len(breaks), known, len(levels)))
            breaks.append(None)
            vs += levels
            pis += [pi] * len(levels)
    if tables:
        demands = _cb_demand_profile(scenario, vs, pis)
        start = 0
        for i, known, n in tables:
            breaks[i] = np.concatenate((known, demands[start:start + n]))
            start += n
    return breaks


def _cb_layer_cake(scenario: Scenario, prem: PremiumDistribution, pi: float,
                   breaks) -> float:
    """D(pi) from the knots' demands ``breaks``: the layer-cake integral
    of ``aggregate_demand_cb`` for premium ``prem`` on the scenario's
    periods.  Gauss panels break at the demand of every premium knot,
    where the integrand kinks, and at the capacities L/g of the output
    knots, where it kinks or jumps."""
    t1, t2 = float(breaks[0]), float(breaks[-1])
    if t2 <= t1:
        return t1
    cuts = scenario._output_cuts
    edges = np.unique(np.concatenate((
        np.clip(breaks, t1, t2),
        cuts[cuts.searchsorted(t1, "right"):cuts.searchsorted(t2)],
        np.linspace(t1, t2, CB_MIN_PANELS + 1))))
    t, w = gauss_legendre_panels(edges, CB_PANEL_ORDER)
    a, b = _covered_energy(scenario, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_star = np.where(b > 0.0, (pi - a) / b, np.inf)
    return t1 + float(w @ prem.survival(v_star, weak=True))


def clear_cb(scenario: Scenario, c: float) -> CbClearing:
    """Price at which aggregate rental demand equals the capacity c.

    Aggregate demand is non-increasing in the price and infinite at 0,
    so the clearing price is the top of its level set at c.  It lies
    between the values of unit c to the zero-premium buyer, A(c), and
    to the top buyer, A(c) + epsilon v_bar B(c) (``_covered_energy``):
    at the first every buyer rents at least c, above the second every
    buyer rents at most c.  Where B(c) is 0, unit c covers no energy in
    any period, so no buyer values it and no positive price draws it:
    NoEquilibriumError.

    Before its one search, demand is tried at the cost-recovering price
    pi* (``Scenario.cost_recovering_price``) clamped into that bracket,
    and then at the zero-premium buyer's choke value A(0), where demand
    kinks, if it still lies inside the narrowed bracket.  A try whose
    demand reaches c by at most ``CB_CLEARING_RTOL`` c is followed by
    one more at X_RTOL / 2 above it, so a price that clears, as pi* does
    at the long-run capacity, is certified in two evaluations.  The
    search starts from the demands tried at the ends of the bracket
    they leave; it grows past the top only where demand there still
    reaches c.  The price is the end of the final bracket where demand
    is nearer c, with its residual (demand minus c): at a jump of demand
    past c a midpoint could miss c by all of the jump.  A residual above
    ``CB_CLEARING_RTOL`` c raises rather than returning a silently bad
    price.
    """
    c = _check_nonneg("capacity", c)
    if c == 0.0:
        raise ValueError("contract-based clearing needs positive capacity")
    a, b = _covered_energy(scenario, c)
    if not b > 0.0:
        raise NoEquilibriumError(
            f"capacity {c:g} covers no energy in any period; no positive "
            "rental price draws it, so no market-clearing price exists")
    top = a + scenario.premium.epsilon * scenario.premium.v_bar * b
    tried = {}  # demand minus c at each price tried

    def bracket():
        lo = max((pi for pi, res in tried.items() if res >= 0.0), default=a)
        hi = min((pi for pi, res in tried.items() if res < 0.0 and pi >= lo),
                 default=max(lo, top))
        return lo, hi

    for first in (min(max(scenario.cost_recovering_price, a), top),
                  _covered_energy(scenario, 0.0)[0]):
        lo, hi = bracket()
        if first in tried or not lo <= first <= hi:
            continue
        for pi in (first, first * (1.0 + 0.5 * X_RTOL)):
            tried[pi] = res = aggregate_demand_cb(scenario, pi) - c
            if not 0.0 <= res <= CB_CLEARING_RTOL * c:
                break
    lo, hi = bracket()
    _, (lo, hi), _, (res_lo, res_hi) = sup_level_set(
        lambda pi: aggregate_demand_cb(scenario, pi), c, lo, hi,
        g_lo=tried.get(lo, math.nan), g_hi=tried.get(hi))
    if math.isnan(res_lo):  # lo is A(c), never tried
        res_lo = aggregate_demand_cb(scenario, lo) - c
    price, res = (lo, res_lo) if res_lo <= -res_hi else (hi, res_hi)
    if abs(res) > CB_CLEARING_RTOL * c:
        raise ConvergenceError(
            f"contract-based clearing left demand residual {res:g} at price {price:g}")
    return CbClearing(price=price, seller_quantity=c, demand_residual=res)


def _scarcity_moments(period: PeriodProfile, q):
    """(P(q G <= L), E[G; q G <= L]) at capacities q: the chance that
    output falls short of the load, and the output counted then.  At
    q = 0 every output falls short, and they are 1 and the mean exactly,
    whatever a tabulated density's total mass rounds to."""
    gen = period.generation
    with np.errstate(divide="ignore", over="ignore"):
        cut = period.load / np.asarray(q, dtype=float)
    return (np.where(np.isfinite(cut), gen.cdf(cut), 1.0),
            gen.partial_first_moment(cut))


def buyer_payoff_cb(scenario: Scenario, v_i, q, pi: float):
    """Expected planning-window payoff of renting capacity q at price pi.

    Premium value on solar-covered load, minus the rental bill, minus
    backstop purchases for the uncovered remainder.  Concave in q; its
    maximizer is the buyer's demand.  ``v_i`` broadcasts against ``q``.
    """
    v_i = _check_nonneg("premium", v_i)
    q = _check_nonneg("rented capacity", q)
    total = -_check_nonneg("price", pi) * q
    for period in scenario.periods:
        scarce, energy = _scarcity_moments(period, q)
        emin = q * energy + period.load * (1.0 - scarce)  # E min(q G, L)
        eshort = period.load * scarce - q * energy  # E (L - q G)+
        total = total + period.weight * (v_i * emin
                                         - period.utility_price * eshort)
    return total if total.ndim else float(total)


# ----------------------------------------------------------------------
# Monte-Carlo verification of the equilibrium conditions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CeVerification:
    """Deviation and clearing diagnostics for a claimed equilibrium.

    ``max_deviation_gain`` is the largest payoff improvement any buyer
    type or seller could get by moving to another grid point of its
    feasible set, as a fraction of the backstop bill: the period's
    load times utility price in real time, the window's weighted sum
    of those in ``cb``.  ``max_clearing_violation`` is the largest
    supply/demand mismatch as a fraction of the load (real time) or of
    the capacity (``cb``).  Both are free of units, and so is the
    ``tolerance`` they are held to.  Flat payoff regions (price-zero
    sellers, pooled-market buyers) count as ties, not violations.
    """

    mechanism: str
    capacity: float
    sample_count: int
    deviation_grid_size: int
    seed: int
    max_deviation_gain: float
    max_clearing_violation: float
    tolerance: float
    passed: bool
    details: Mapping[str, float] = field(default_factory=dict)


def _buyer_grid(scenario: Scenario, grid_size: int) -> np.ndarray:
    """Premium quantiles at grid_size even levels of [0, 1], increasing."""
    return np.sort(np.asarray(scenario.premium.quantile(
        np.linspace(0.0, 1.0, grid_size)), dtype=float))


def _verify_rt(scenario, mechanism, c, sample_count, grid_size, rng,
               price_perturbation):
    """Deviation gains and clearing violations of a real-time mechanism,
    one array pass per period over its ``sample_count`` draws.

    A buyer's payoff (v - p) q - u (L - q) is affine in q, so its best
    point of the deviation grid linspace(0, L, grid_size) is an end
    point, q = 0 or q = L (both exact grid points), where the payoff is
    -u L or (v - p) L.  Served buyers hold q = L, so their gain
    max(0, -(v - p + u) L) is non-increasing in v; unserved buyers hold
    q = 0, so theirs, max(0, (v - p + u) L), is non-decreasing.
    Over the sorted buyer grid only the two types next to the threshold
    can attain the largest gain: the lowest served and the highest
    unserved.  Abundant draws serve everyone, so the lowest type decides
    there, and in ``srt`` every type values solar at zero, so one type
    stands for all.
    """
    prem = scenario.premium
    buyer_vs = _buyer_grid(scenario, grid_size)
    gains, clears = [], []
    for period in scenario.periods:
        load, u = period.load, period.utility_price
        draws = period.generation.sample(rng, sample_count)
        abundant, price, quantity, _, thr = _clear_rt_draws(
            scenario, period, mechanism, c, draws)
        price = price * (1.0 + price_perturbation)
        supply = c * draws
        if thr is None:  # srt
            v, assigned = 0.0, quantity
        else:
            j = np.searchsorted(buyer_vs, np.where(abundant, -np.inf, thr))
            v = buyer_vs[np.clip(np.stack((j - 1, j)), 0, grid_size - 1)]
            assigned = np.where(abundant | (v >= thr), load, 0.0)
            limited = ~abundant
            t, s = thr[limited], supply[limited]
            served_lo = load * prem.survival(t, weak=False)
            served_hi = load * prem.survival(t, weak=True)
            clears.append(np.maximum(served_lo - s, s - served_hi) / load)
        # the grid's payoffs at q = 0 and at q = L
        dev_lo = -u * load
        dev_hi = (v - price) * load
        held = (v - price) * assigned - u * (load - assigned)
        buyer_gain = np.maximum(dev_lo, dev_hi) - held
        # sellers: payoff price * q on [0, supply]
        seller_gain = np.where(price > 0.0, price * supply, 0.0) - price * quantity
        gains += [buyer_gain / (load * u), seller_gain / (load * u)]
    return gains, clears, {}


#: Payoffs within this fraction of the backstop bill of a buyer's best
#: grid payoff tie with it, as over a flat top: rounding, not a loss.
CB_TIE_RTOL = 1e-12


def _verify_cb(scenario, c, grid_size, price_perturbation):
    """Buyers' deviation gains and the clearing violation of the contract
    market; a seller holds all of c, its best point at a positive price."""
    clearing = clear_cb(scenario, c)
    price = clearing.price * (1.0 + price_perturbation)
    buyer_vs = _buyer_grid(scenario, grid_size)
    assigned = _cb_demand_profile(scenario, buyer_vs, clearing.price)
    q_hi = 2.0 * max(float(assigned.max()), 1e-6 * scenario.capacity_scale)
    q_dev = np.linspace(0.0, q_hi, grid_size)

    rental = buyer_payoff_cb(scenario, buyer_vs[:, None], q_dev, price)
    held = buyer_payoff_cb(scenario, buyer_vs, assigned, price)
    bill = sum(p.weight * p.load * p.utility_price for p in scenario.periods)
    # The distance from each buyer's demand to its nearest best grid
    # point.  The payoff is concave in q, so the points that tie the first
    # maximizer j form an interval about it: only where a neighbour of j
    # ties is there more than j to search.
    j = rental.argmax(axis=1)
    rows = np.arange(j.size)
    near = rental[rows, j] - CB_TIE_RTOL * bill
    gaps = np.abs(q_dev[j] - assigned)
    left, right = np.maximum(j - 1, 0), np.minimum(j + 1, grid_size - 1)
    flat = (((left < j) & (rental[rows, left] >= near))
            | ((right > j) & (rental[rows, right] >= near)))
    if flat.any():
        gaps[flat] = np.where(rental[flat] >= near[flat, None],
                              np.abs(q_dev - assigned[flat, None]),
                              np.inf).min(axis=1)
    # clear_cb already measured the demand at its own price
    residual = (clearing.demand_residual if price_perturbation == 0.0
                else aggregate_demand_cb(scenario, price) - c)
    details = {"cb_price": clearing.price,
               "cb_argmax_gap": float(gaps.max()),
               "cb_grid_step": float(q_dev[1] - q_dev[0])}
    return ([(rental.max(axis=1) - held) / bill], [abs(residual) / c],
            details)


def _floored_max(parts) -> float:
    """The largest value in the arrays parts, at least 0.0; NaN if any
    is NaN, so a corrupted gain fails rather than dropping out."""
    top = float(np.max(np.concatenate([[0.0], *map(np.ravel, parts)])))
    return top if not top <= 0.0 else 0.0  # +0.0 for -0.0


def verify_ce(scenario: Scenario, mechanism: str, c: float, sample_count: int,
              deviation_grid_size: int = 201, seed: int = 0, *,
              price_perturbation: float = 0.0,
              tolerance: float = 1e-6) -> CeVerification:
    """Check the claimed equilibrium against grid deviations.

    Real-time mechanisms are checked on ``sample_count`` seeded output
    realizations per period, all draws of a period in one array pass.
    Every buyer's payoff there is affine in its quantity, so the best
    grid deviation is an end point of the grid, and the threshold
    allocation makes the gain monotone in the premium on each side of
    the threshold; the two buyer types next to it therefore attain the
    largest gain of the whole grid (see ``_verify_rt``).  The check's
    result is that of every buyer type against every grid point, up to
    rounding.  The contract-based market trades ex ante
    on expectations, so its check is a single deterministic pass (the
    sample count does not enter).  ``price_perturbation`` corrupts the
    clearing price on purpose, to confirm the checker catches broken
    equilibria.  ``tolerance`` is relative: gains are measured against
    the backstop bill and clearing violations against the load or the
    capacity (see ``CeVerification``), so the verdict does not depend
    on the units of loads or prices.  Each of the two is the largest of
    its raw values floored at 0 (``_floored_max``), so a NaN fails.
    """
    _check_mechanism(mechanism)
    c = _check_nonneg("capacity", c)
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if deviation_grid_size < 2:
        raise ValueError("deviation_grid_size must be at least 2")
    if not math.isfinite(price_perturbation):
        raise ValueError("price_perturbation must be finite, "
                         f"got {price_perturbation}")
    tolerance = _check_nonneg("tolerance", tolerance)
    if mechanism == "cb":
        gains, clears, details = _verify_cb(scenario, c, deviation_grid_size,
                                            price_perturbation)
    else:
        gains, clears, details = _verify_rt(
            scenario, mechanism, c, sample_count, deviation_grid_size,
            np.random.default_rng(seed), price_perturbation)
    gain, clear = _floored_max(gains), _floored_max(clears)
    return CeVerification(
        mechanism=mechanism, capacity=c, sample_count=sample_count,
        deviation_grid_size=deviation_grid_size, seed=seed,
        max_deviation_gain=gain, max_clearing_violation=clear,
        tolerance=tolerance,
        passed=bool(gain <= tolerance and clear <= tolerance),
        details={k: float(v) for k, v in details.items()})
