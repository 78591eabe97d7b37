"""Small-premium expansions and capacity-ordering diagnostics.

Near a vanishing premium scale all mechanisms share the pooled-market
capacity ``c0``; the differentiated and contract-based capacities move
away from it at first-order rates that have closed forms in the
truncated mean, its derivative, and the unscaled premium quantile.  The
gap between those rates is what drives contract-market over-investment,
with a strictly positive floor ``beta`` whenever the generation density
is flat enough over the scarcity region.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .distributions import GenerationDistribution, PremiumDistribution
from .equilibrium import solve_ne
from .markets import Scenario
from .numerics import gauss_legendre_rule

__all__ = [
    "ExpansionCoefficients",
    "FlatnessReport",
    "OrderingRow",
    "OrderingReport",
    "DerivativeSingularError",
    "prt_slope_at_zero",
    "cb_slope_at_zero",
    "lambda_ratio",
    "beta_constant",
    "flatness_fit",
    "expansion_coefficients",
    "ordering_report",
]

logger = logging.getLogger(__name__)

_FLATNESS_SCAN_POINTS = 4097


class DerivativeSingularError(ValueError):
    """The truncated-mean derivative vanishes at the base capacity."""


@dataclass(frozen=True)
class ExpansionCoefficients:
    """First-order behavior of the solved capacities in the premium scale.

    ``c0`` is the common capacity at scale zero; the slopes give
    d(capacity)/d(scale) for the differentiated and contract markets.
    ``lam`` weighs how top-heavy the premium distribution is (always in
    (0, 1)) and ``beta`` is the guaranteed first-order over-investment
    floor of the contract design.
    """

    c0: float
    prt_slope: float
    cb_slope: float
    lam: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {self.lam}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")


@dataclass(frozen=True)
class FlatnessReport:
    """How close each generation density is to constant on the scarcity region.

    ``r0`` holds the per-period midpoint density level (None for point
    masses, which have no density and are excluded); ``delta`` is the
    smallest uniform relative band containing every scanned density, so
    0 means exactly flat.
    """

    r0: tuple[float | None, ...]
    delta: float
    per_period_delta: tuple[float | None, ...]


def _density_range(gen: GenerationDistribution, upper: float):
    xs = np.linspace(0.0, upper, _FLATNESS_SCAN_POINTS)[1:]
    vals = np.asarray(gen.pdf(xs), dtype=float)
    return float(vals.min()), float(vals.max())


def flatness_fit(scenario: Scenario, c_srt: float) -> FlatnessReport:
    """Fit the tightest flat-density band on (0, L/c_srt] per period."""
    if c_srt <= 0.0 or not math.isfinite(c_srt):
        raise ValueError(f"c_srt must be positive and finite, got {c_srt}")
    levels: list[float | None] = []
    deltas: list[float | None] = []
    for index, period in enumerate(scenario.periods):
        gen = period.generation
        if gen.kind == "point_mass":
            logger.warning("period %d has a point-mass output model; "
                           "excluded from the flatness fit", index)
            levels.append(None)
            deltas.append(None)
            continue
        f_min, f_max = _density_range(gen, period.load / c_srt)
        levels.append(0.5 * (f_min + f_max))
        deltas.append((f_max - f_min) / (f_max + f_min) if f_max > 0.0 else 1.0)
    fitted = [d for d in deltas if d is not None]
    return FlatnessReport(r0=tuple(levels),
                          delta=max(fitted) if fitted else math.nan,
                          per_period_delta=tuple(deltas))


def _base_capacity(scenario: Scenario) -> float:
    result = solve_ne(scenario, "srt")
    if not result.viable or result.capacity <= 0.0:
        raise ValueError("scenario is not viable: the zero-premium base "
                         "capacity is zero, so no expansion point exists")
    return result.capacity


def _slope_terms(scenario: Scenario, c0: float):
    """Premium-revenue numerator and truncated-mean-derivative denominator.

    The numerator integrates the *unscaled* premium quantile against the
    scarcity-weighted output; the denominator is the per-period exact
    derivative -(L^2/c0^3) f(L/c0) of the truncated mean, price-weighted.
    """
    prem = scenario.premium
    numerator = 0.0
    denominator = 0.0
    mu_sum = 0.0
    for period in scenario.periods:
        gen, load = period.generation, period.load
        cut = load / c0
        nodes, weights = gen.quad_nodes(0.0, min(cut, gen.support_hi), order=64)
        if nodes.size and gen.support_hi > 0.0:  # dark: no premium
            frac = np.clip(c0 * nodes / load, 0.0, 1.0)
            numerator += period.weight * float(
                weights @ (prem.base_complementary_quantile(frac) * nodes))
        density = float(gen.pdf(cut))
        denominator += period.weight * period.utility_price * (
            -(load ** 2) / c0 ** 3 * density)
        mu_sum += period.weight * float(gen.truncated_mean(c0, load))
    if denominator == 0.0:
        raise DerivativeSingularError(
            "no generation density at the scarcity boundary load/c0; "
            "the first-order expansion is singular")
    return numerator, denominator, mu_sum


def _first_order(scenario: Scenario) -> tuple[float, float, float]:
    """(c0, prt slope, cb slope): the expansion up to the premium shape.

    Defined for a degenerate premium too, where both slopes are zero;
    ``expansion_coefficients`` adds the shape terms lambda and beta.
    """
    c0 = _base_capacity(scenario)
    numerator, denominator, mu_sum = _slope_terms(scenario, c0)
    return (c0, -numerator / denominator,
            -scenario.premium.base_mean * mu_sum / denominator)


def prt_slope_at_zero(scenario: Scenario) -> float:
    """d c_prt / d(premium scale) at scale zero."""
    return _first_order(scenario)[1]


def cb_slope_at_zero(scenario: Scenario) -> float:
    """d c_cb / d(premium scale) at scale zero."""
    return _first_order(scenario)[2]


def lambda_ratio(prem: PremiumDistribution) -> float:
    """Quantile-shape ratio of the premium distribution, in (0, 1).

    Ratio of the second to the first moment of the served fraction under
    the quantile-slope weighting; invariant under the premium scale.
    Empirical tables are differentiated by central differences on a
    2001-point grid and integrated on that same grid, since their
    quantile curve is only piecewise smooth.
    """
    if prem.v_bar <= 0.0:
        raise ValueError("lambda is undefined for a degenerate premium "
                         "distribution (v_bar must be positive)")
    if prem.kind == "empirical":
        p = np.linspace(0.0, 1.0, 2001)
        q = np.asarray(prem.base_complementary_quantile(p))
        slope = -np.gradient(q, p)
        num = float(np.trapezoid(slope * p * p, p))
        den = float(np.trapezoid(slope * p, p))
    else:
        p, w = gauss_legendre_rule(0.0, 1.0, 128)
        slope = -np.asarray(prem.base_complementary_quantile_derivative(p))
        num = float(w @ (slope * p * p))
        den = float(w @ (slope * p))
    if den <= 0.0:
        raise ValueError("premium quantile is not strictly decreasing")
    return num / den


def beta_constant(scenario: Scenario) -> float:
    """Guaranteed first-order over-investment rate of the contract market."""
    return expansion_coefficients(scenario).beta


def expansion_coefficients(scenario: Scenario) -> ExpansionCoefficients:
    """All small-scale expansion constants in one pass."""
    c0, prt_slope, cb_slope = _first_order(scenario)
    lam = lambda_ratio(scenario.premium)
    return ExpansionCoefficients(
        c0=c0, prt_slope=prt_slope, cb_slope=cb_slope, lam=lam,
        beta=(1.0 - lam) / (1.0 + lam) * prt_slope)


# ----------------------------------------------------------------------
# Ordering report across a premium-scale grid
# ----------------------------------------------------------------------

#: Relative slack when comparing independently solved capacities.
ORDER_RTOL = 1e-7

#: Tolerance for the scale-zero collapse of all four capacities.
EPS0_RTOL = 1e-6

#: Slack of the first-order gap check, relative to the prt capacity, for
#: the search tolerance in the two capacities whose difference it checks.
GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class OrderingRow:
    epsilon: float
    c_srt: float
    c_prt: float
    c_cb: float
    c_opt: float
    srt_le_prt: bool
    prt_eq_opt: bool
    prt_le_cb: bool
    prt_le_cb_informational: bool
    eps0_all_equal: bool | None
    gap_abs_err: float | None
    gap_check: bool | None


@dataclass(frozen=True)
class OrderingReport:
    """Capacity orderings across premium scales, with first-order gap checks.

    Hard checks (pooled below differentiated, differentiated equal to
    the optimum, full collapse at scale zero) drive ``passed``.  The
    over-investment comparison is downgraded to informational whenever
    the flatness band is too wide for the guarantee, i.e. when delta
    exceeds (1 - lambda) / (1 + 3 lambda).
    """

    rows: tuple[OrderingRow, ...]
    coefficients: ExpansionCoefficients | None
    flatness: FlatnessReport | None
    gap_k: float | None
    passed: bool


def ordering_report(scenario: Scenario, epsilon_grid) -> OrderingReport:
    grid = [float(e) for e in epsilon_grid]
    if any(e < 0.0 for e in grid):
        raise ValueError("premium scales must be non-negative")

    solved = {}
    for eps in grid:
        scn = scenario.with_epsilon(eps)
        solved[eps] = {m: solve_ne(scn, m) for m in ("srt", "prt", "cb", "opt")}

    coeffs = None
    flatness = None
    informational = True
    try:
        coeffs = expansion_coefficients(scenario)
        flatness = flatness_fit(scenario, coeffs.c0)
        if math.isfinite(flatness.delta):
            delta_bound = (1.0 - coeffs.lam) / (1.0 + 3.0 * coeffs.lam)
            informational = flatness.delta > delta_bound
    except (ValueError, DerivativeSingularError) as exc:
        logger.info("expansion coefficients unavailable: %s", exc)

    gap_k = None
    positive = [e for e in grid if e > 0.0]
    if coeffs is not None and positive:
        # The second-order constant is fitted on two scales below the grid,
        # which the check does not test, so every row tests whether the
        # small-scale constant still bounds |gap error| / eps^2 there.
        slope_gap = coeffs.cb_slope - coeffs.prt_slope
        errs = []
        for eps in (0.25 * min(positive), 0.5 * min(positive)):
            scn = scenario.with_epsilon(eps)
            gap = solve_ne(scn, "cb").capacity - solve_ne(scn, "prt").capacity
            errs.append(abs(gap - slope_gap * eps) / eps ** 2)
        gap_k = max(errs)

    rows = []
    passed = True
    for eps in grid:
        res = solved[eps]
        c_srt, c_prt = res["srt"].capacity, res["prt"].capacity
        c_cb, c_opt = res["cb"].capacity, res["opt"].capacity
        srt_le_prt = c_srt <= c_prt + ORDER_RTOL * c_prt
        prt_eq_opt = abs(c_prt - c_opt) <= 1e-12 * c_prt
        prt_le_cb = c_prt <= c_cb + ORDER_RTOL * c_prt
        eps0_equal = None
        if eps == 0.0:
            caps = (c_srt, c_prt, c_cb, c_opt)
            eps0_equal = (max(caps) - min(caps)) <= EPS0_RTOL * max(caps)
            passed = passed and eps0_equal
        gap_err = None
        gap_ok = None
        if eps > 0.0 and gap_k is not None:
            gap_err = abs((c_cb - c_prt)
                          - (coeffs.cb_slope - coeffs.prt_slope) * eps)
            gap_ok = gap_err <= gap_k * eps ** 2 * (1.0 + 1e-9) + GAP_FLOOR * c_prt
        passed = passed and srt_le_prt and prt_eq_opt
        rows.append(OrderingRow(
            epsilon=eps, c_srt=c_srt, c_prt=c_prt, c_cb=c_cb, c_opt=c_opt,
            srt_le_prt=srt_le_prt, prt_eq_opt=prt_eq_opt, prt_le_cb=prt_le_cb,
            prt_le_cb_informational=informational,
            eps0_all_equal=eps0_equal, gap_abs_err=gap_err, gap_check=gap_ok))
    return OrderingReport(rows=tuple(rows), coefficients=coeffs,
                          flatness=flatness, gap_k=gap_k, passed=passed)
