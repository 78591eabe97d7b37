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
from typing import Mapping

import numpy as np

from .distributions import PeriodProfile, PremiumDistribution
from .numerics import (ConvergenceError, NoEquilibriumError,
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

#: Gauss-Legendre order for revenue integrals against analytic densities.
REVENUE_QUAD_ORDER = 64

#: Gauss-Legendre order of each panel of the contract-demand quadrature.
CB_PANEL_ORDER = 8

#: Equal-width panels the contract-demand quadrature lays over its
#: support, on top of the breakpoints and generation knots.
CB_MIN_PANELS = 32


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: operation periods plus investment economics.

    ``pi0`` is the capital-plus-installation cost per unit capacity and
    ``t_tilde`` scales one planning window's expected revenue up to the
    panel lifetime.  ``c_bar`` (the individual panel size) is recorded
    for completeness; in the non-atomic limit it never enters the
    equilibrium conditions.
    """

    periods: tuple[PeriodProfile, ...]
    premium: PremiumDistribution
    pi0: float
    t_tilde: float
    c_bar: float = 1.0
    provenance: Mapping[str, str] = field(default_factory=dict, compare=False,
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


def _check_capacity(c: float) -> float:
    c = float(c)
    if not math.isfinite(c) or c < 0.0:
        raise ValueError(f"capacity must be finite and non-negative, got {c}")
    return c


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
    c = _check_capacity(c)
    g = float(g)
    if not math.isfinite(g) or g < 0.0:
        raise ValueError(f"realization must be finite and non-negative, got {g}")

    abundant, price, quantity, served, threshold = _clear_rt_draws(
        scenario, scenario.periods[period_index], mechanism, c, np.array([g]))
    limited = not abundant[0]
    return ClearingOutcome(
        mechanism, "limited" if limited else "abundant", float(price[0]),
        float(quantity[0]),
        float(threshold[0]) if limited and threshold is not None else None,
        float(served[0]))


def unit_revenue_rt(scenario: Scenario, mechanism: str, c: float) -> float:
    """Expected lifetime revenue per unit capacity under a real-time design.

    This is the left-hand side of the zero-profit condition; it is
    non-increasing in c because added capacity is only paid for up to
    the load in each realization.
    """
    _check_mechanism(mechanism, RT_MECHANISMS)
    c = _check_capacity(c)
    prem = scenario.premium
    with_premium = (mechanism == "prt"
                    and prem.epsilon > 0.0 and prem.v_bar > 0.0)
    total = 0.0
    for period in scenario.periods:
        gen, load = period.generation, period.load
        term = period.utility_price * float(gen.truncated_mean(c, load))
        if with_premium:
            upper = load / c if c > 0.0 else gen.support_hi
            nodes, weights = gen.quad_nodes(0.0, upper, order=REVENUE_QUAD_ORDER)
            if nodes.size and gen.support_hi > 0.0:  # dark: no premium
                frac = np.clip(c * nodes / load, 0.0, 1.0)
                term += float(weights @ (prem.complementary_quantile(frac) * nodes))
        total += period.weight * term
    return scenario.period_scale * total


def revenue_rt(scenario: Scenario, mechanism: str, c: float) -> float:
    """Expected lifetime seller revenue at aggregate capacity c."""
    c = _check_capacity(c)
    if c == 0.0:
        return 0.0
    return c * unit_revenue_rt(scenario, mechanism, c)


def _cb_value_terms(scenario: Scenario, d):
    """(A(d), B(d)) with w_v(d) = A(d) + v B(d), the rented-unit value.

    A sums the avoided backstop cost on the energy a unit covers and B
    the energy itself; both are non-increasing in d.  At d = 0 the cut
    L/d is infinite and the truncated means are the full means.
    """
    d = np.asarray(d, dtype=float)
    a = b = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        for period in scenario.periods:
            mu = period.generation.partial_first_moment(period.load / d)
            a = a + period.weight * period.utility_price * mu
            b = b + period.weight * mu
    return a, b


def cb_unit_value(scenario: Scenario, v, d):
    """Whole-window expected value of one rented capacity unit, w(d).

    For a buyer with premium v this sums, across periods, the avoided
    backstop cost plus the premium on energy the rented unit actually
    covers.  Non-increasing in d; its extended inverse is the buyer's
    demand curve.
    """
    v = np.asarray(v, dtype=float)
    d = np.asarray(d, dtype=float)
    if np.any(~np.isfinite(d)) or np.any(d < 0.0):
        raise ValueError("capacity must be finite and non-negative")
    a, b = _cb_value_terms(scenario, d)
    return a + v * b


def _cb_demand_profile(scenario: Scenario, vs, pi: float) -> np.ndarray:
    """Demanded capacity per buyer type at rental price pi (vectorized).

    At price 0 every unit is worth renting, so demand is unbounded.
    Otherwise the level sets are searched in units of the capacity
    scale, from [0, 1] with growth, so the tolerance is relative to the
    capacities involved.
    """
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    if pi == 0.0:
        return np.full(vs.shape, np.inf)
    scale = scenario.capacity_scale
    a0, b0 = _cb_value_terms(scenario, 0.0)
    choke = a0 + vs * b0
    live = pi <= choke * (1.0 + 1e-12)
    out = np.zeros(vs.shape)
    if live.any():
        v = vs[live]

        def value(s):
            a, b = _cb_value_terms(scenario, s * scale)
            return a + v * b

        sup, _, _ = sup_level_set(value, np.minimum(pi, choke[live]), 0.0, 1.0)
        out[live] = sup * scale
    return out


def individual_demand_cb(scenario: Scenario, v_i: float, pi: float) -> float:
    """Capacity a buyer with premium v_i rents at price pi (0 when priced out)."""
    if pi < 0.0 or not math.isfinite(pi):
        raise ValueError(f"price must be finite and non-negative, got {pi}")
    if v_i < 0.0 or not math.isfinite(v_i):
        raise ValueError(f"premium must be finite and non-negative, got {v_i}")
    return float(_cb_demand_profile(scenario, [v_i], pi)[0])


def _generation_knots(scenario: Scenario) -> np.ndarray:
    """Capacities L/g where some period's truncated mean has a kink or jump.

    These are the tabulated grid nodes, the ends of a uniform support
    and the atom of a point mass, each mapped through d = L/g.
    """
    knots = []
    for period in scenario.periods:
        gen = period.generation
        if gen.kind == "tabulated":
            g = gen.grid
        elif gen.kind == "uniform":
            g = np.array([gen.lo, gen.hi])
        else:
            g = np.array([gen.value])
        knots.append(period.load / g[g > 0.0])
    return np.concatenate(knots)


def aggregate_demand_cb(scenario: Scenario, pi: float) -> float:
    """Total rented capacity at price pi, integrated over buyer types.

    A buyer's rented-unit value is affine in its premium,
    w_v(t) = A(t) + v B(t), so it rents at least t exactly when v is at
    least v*(t) = (pi - A(t)) / B(t).  The layer-cake identity then
    gives the demand as one integral over capacity, with no inner root
    per buyer type:

        D(pi) = t1 + integral over [t1, t2] of P(V >= v*(t)) dt,

    where t1 and t2 are the demands of the zero-premium and the
    top-premium buyer.  Those two, and for an empirical premium the
    demands of every interior table value, come from one vectorized
    level-set search; Gauss panels break there and at the generation
    knots, where the integrand has kinks or jumps.  At price 0 every
    unit is worth renting and the demand is infinite.
    """
    if pi < 0.0 or not math.isfinite(pi):
        raise ValueError(f"price must be finite and non-negative, got {pi}")
    prem = scenario.premium
    levels = [0.0, prem.epsilon * prem.v_bar]
    if prem.kind == "empirical":  # the table runs from 0 to v_bar
        levels = np.unique(prem.epsilon * prem.quantiles)
    breaks = _cb_demand_profile(scenario, levels, pi)
    t1, t2 = float(breaks[0]), float(breaks[-1])
    if t2 <= t1:
        return t1
    knots = _generation_knots(scenario)
    edges = np.unique(np.concatenate((
        np.clip(breaks, t1, t2), knots[(knots > t1) & (knots < t2)],
        np.linspace(t1, t2, CB_MIN_PANELS + 1))))
    t, w = gauss_legendre_panels(edges, CB_PANEL_ORDER)
    a, b = _cb_value_terms(scenario, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_star = np.where(b > 0.0, (pi - a) / b, np.inf)
    return t1 + float(w @ prem.survival(v_star, weak=True))


def _cb_demand_bound(scenario: Scenario) -> float:
    """Supremum of aggregate rental demand over positive prices.

    As the price falls to 0 every buyer rents up to the largest L/g0
    over the lit periods, with g0 the lowest output above which a
    period has mass (infinite when g0 is 0).
    """
    bound = 0.0
    for period in scenario.periods:
        gen = period.generation
        if period.weight > 0.0 and gen.mean > 0.0:
            floor = gen.support[0]
            if gen.kind == "tabulated":  # skip leading cells without mass
                floor = gen.grid[max(int(np.argmax(gen.density > 0.0)) - 1, 0)]
            bound = max(bound, period.load / floor if floor > 0.0 else math.inf)
    return bound


def clear_cb(scenario: Scenario, c: float) -> CbClearing:
    """Price at which aggregate rental demand equals the capacity c.

    Aggregate demand is non-increasing in the price and infinite at 0,
    so the clearing price is the top of its level set at c, searched on
    (0, choke] with choke the top buyer's value of a first unit.  A
    capacity that no positive price draws (at or above the demand
    bound, see ``_cb_demand_bound``) raises NoEquilibriumError, and a
    demand residual above 1e-7 c raises rather than returning a
    silently bad price.
    """
    c = _check_capacity(c)
    if c == 0.0:
        raise ValueError("contract-based clearing needs positive capacity")
    bound = _cb_demand_bound(scenario)
    if c >= bound:
        raise NoEquilibriumError(
            f"capacity {c:g} is not below the demand bound {bound:g} "
            "of positive prices; no market-clearing rental price exists")
    top = float(scenario.premium.complementary_quantile(0.0))
    choke = float(cb_unit_value(scenario, top, 0.0))
    price, _, _ = sup_level_set(
        lambda pi: aggregate_demand_cb(scenario, float(pi)), c, 0.0, choke)
    price = float(price)
    res = aggregate_demand_cb(scenario, price) - c
    if abs(res) > 1e-7 * c:
        raise ConvergenceError(
            f"contract-based clearing left demand residual {res:g} at price {price:g}")
    return CbClearing(price=price, seller_quantity=c, demand_residual=res)


def _expected_min_and_shortfall(period: PeriodProfile, q):
    """(E min(q G, L), E (L - q G)+) for an array of capacities q."""
    gen, load = period.generation, period.load
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        cut = load / q  # infinite at q = 0, where m1 is the mean
    m0 = np.where(np.isfinite(cut), gen.cdf(cut), 1.0)
    m1 = gen.partial_first_moment(cut)
    emin = q * m1 + load * (1.0 - m0)
    eshort = load * m0 - q * m1
    return emin, eshort


def buyer_payoff_cb(scenario: Scenario, v_i: float, q, pi: float):
    """Expected planning-window payoff of renting capacity q at price pi.

    Premium value on solar-covered load, minus the rental bill, minus
    backstop purchases for the uncovered remainder.  Concave in q; its
    maximizer is the buyer's demand.
    """
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 0.0) or not np.all(np.isfinite(q_arr)):
        raise ValueError("rented capacity must be finite and non-negative")
    total = -pi * q_arr
    for period in scenario.periods:
        emin, eshort = _expected_min_and_shortfall(period, q_arr)
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


def _verify_rt(scenario, mechanism, c, sample_count, grid_size, rng,
               price_perturbation):
    """Deviation and clearing check of a real-time mechanism, one array
    pass per period over its ``sample_count`` draws.

    A buyer's payoff (v - p) q - u (L - q) is affine in q, so its best
    point of the deviation grid linspace(0, L, grid_size) is an end
    point, q = 0 or q = L; both are exact grid points and are evaluated
    with the grid's own expressions.  Served buyers hold q = L, so their
    gain max(0, -(v - p + u) L) is non-increasing in v; unserved buyers
    hold q = 0, so theirs, max(0, (v - p + u) L), is non-decreasing.
    Over the sorted buyer grid only the two types next to the threshold
    can attain the largest gain: the lowest served and the highest
    unserved.  Abundant draws serve everyone, so the lowest type decides
    there, and in ``srt`` every type values solar at zero, so one type
    stands for all.
    """
    prem = scenario.premium
    buyer_vs = np.sort(np.asarray(
        prem.quantile(np.linspace(0.0, 1.0, grid_size)), dtype=float))
    max_gain = 0.0
    max_clear = 0.0
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
            clear = np.maximum(served_lo - s, s - served_hi) / load
            max_clear = max(max_clear, float(clear.max(initial=0.0)))
        # the grid's own payoff expressions at q = 0 and at q = L
        dev_lo = (v - price) * 0.0 - u * (load - 0.0)
        dev_hi = (v - price) * load - u * (load - load)
        held = (v - price) * assigned - u * (load - assigned)
        buyer_gain = np.maximum(dev_lo, dev_hi) - held
        # sellers: payoff price * q on [0, supply]
        seller_gain = np.where(price > 0.0, price * supply, 0.0) - price * quantity
        max_gain = max(max_gain, float(buyer_gain.max()) / (load * u),
                       float(seller_gain.max()) / (load * u))
    return max_gain, max_clear, {}


def _verify_cb(scenario, c, grid_size, price_perturbation):
    prem = scenario.premium
    clearing = clear_cb(scenario, c)
    price = clearing.price * (1.0 + price_perturbation)
    p_grid = np.linspace(0.0, 1.0, grid_size)
    buyer_vs = np.asarray(prem.quantile(p_grid), dtype=float)
    assigned = _cb_demand_profile(scenario, buyer_vs, clearing.price)
    q_hi = 2.0 * max(float(assigned.max()), 1e-6 * scenario.capacity_scale)
    q_dev = np.linspace(0.0, q_hi, grid_size)

    rental = -price * q_dev[None, :]
    held = -price * assigned
    for period in scenario.periods:
        emin_dev, eshort_dev = _expected_min_and_shortfall(period, q_dev)
        emin_held, eshort_held = _expected_min_and_shortfall(period, assigned)
        rental = rental + period.weight * (buyer_vs[:, None] * emin_dev[None, :]
                                           - period.utility_price * eshort_dev[None, :])
        held = held + period.weight * (buyer_vs * emin_held
                                       - period.utility_price * eshort_held)
    bill = sum(p.weight * p.load * p.utility_price for p in scenario.periods)
    buyer_gain = float((rental.max(axis=1) - held).max()) / bill
    argmax_gap = float(np.abs(q_dev[rental.argmax(axis=1)] - assigned).max())
    # sellers: payoff price * q on [0, c], maximized at q = c
    seller_gain = max(0.0, price * c - price * clearing.seller_quantity) / bill
    clear_violation = abs(aggregate_demand_cb(scenario, price) - c) / c
    details = {"cb_price": clearing.price,
               "cb_argmax_gap": argmax_gap,
               "cb_grid_step": float(q_dev[1] - q_dev[0])}
    return max(buyer_gain, seller_gain), clear_violation, details


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
    on the units of loads or prices.
    """
    _check_mechanism(mechanism)
    c = _check_capacity(c)
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if deviation_grid_size < 2:
        raise ValueError("deviation_grid_size must be at least 2")
    rng = np.random.default_rng(seed)
    if mechanism == "cb":
        gain, clear, details = _verify_cb(scenario, c, deviation_grid_size,
                                          price_perturbation)
    else:
        gain, clear, details = _verify_rt(scenario, mechanism, c, sample_count,
                                          deviation_grid_size, rng,
                                          price_perturbation)
    gain, clear = float(gain), float(clear)
    return CeVerification(
        mechanism=mechanism, capacity=c, sample_count=sample_count,
        deviation_grid_size=deviation_grid_size, seed=seed,
        max_deviation_gain=gain, max_clearing_violation=clear,
        tolerance=tolerance,
        passed=bool(gain <= tolerance and clear <= tolerance),
        details={k: float(v) for k, v in details.items()})
