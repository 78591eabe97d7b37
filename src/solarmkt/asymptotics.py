"""Small-premium expansions and capacity-ordering diagnostics.

Near a vanishing premium scale all mechanisms share the pooled-market
capacity ``c0``, which the expansion and the flatness fit read off the
scenario's own ``srt`` solve.  The differentiated and contract-based
capacities move away from it at first-order rates that have closed
forms in the truncated mean, its derivative, and the unscaled premium
quantile.  The gap between those rates is what drives contract-market
over-investment, with a strictly positive floor ``beta`` whenever the
generation density is flat enough over the scarcity region.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .distributions import GenerationDistribution, lambda_ratio
from .equilibrium import _solve_sweep, solve_ne
from .markets import Scenario, _covered_energy, _premium_revenue

__all__ = [
    "ExpansionCoefficients",
    "FlatnessReport",
    "OrderingRow",
    "OrderingReport",
    "DerivativeSingularError",
    "flatness_fit",
    "expansion_coefficients",
    "ordering_report",
]

logger = logging.getLogger(__name__)

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
    smallest uniform relative band containing every density value on
    the window, so 0 means exactly flat.
    """

    r0: tuple[float | None, ...]
    delta: float
    per_period_delta: tuple[float | None, ...]


def _density_range(gen: GenerationDistribution, upper: float):
    """Least and greatest density on (0, upper].

    The density is linear between knots and may jump at one, so its
    extremes on the window are among its values at 0, at the knots
    inside, at the upper end, and at the midpoints between these.
    """
    knots = gen.knots
    ends = np.concatenate(([0.0], knots[(knots > 0.0) & (knots < upper)],
                           [upper]))
    vals = gen.pdf(np.concatenate((ends, 0.5 * (ends[1:] + ends[:-1]))))
    return float(vals.min()), float(vals.max())


def _expansion_point(scenario: Scenario) -> float:
    """c0, the scenario's ``srt`` capacity: the ``srt`` search reads no
    premium, so this is every design's capacity at premium scale 0."""
    c0 = solve_ne(scenario, "srt").capacity
    if not c0 > 0.0:
        raise ValueError("scenario is not viable: the zero-premium base "
                         "capacity is zero, so no expansion point exists")
    return c0


def flatness_fit(scenario: Scenario) -> FlatnessReport:
    """Fit the tightest flat-density band on (0, L/c0] per period, c0
    the expansion point (``_expansion_point``).

    The band is exact (see ``_density_range``).  A period whose output
    has a single knot, an atom, has no density and is left out.
    """
    c0 = _expansion_point(scenario)
    levels: list[float | None] = []
    deltas: list[float | None] = []
    for index, period in enumerate(scenario.periods):
        gen = period.generation
        if gen.knots.size == 1:
            logger.info("period %d has a point-mass output model; "
                        "excluded from the flatness fit", index)
            levels.append(None)
            deltas.append(None)
            continue
        f_min, f_max = _density_range(gen, period.load / c0)
        levels.append(0.5 * (f_min + f_max))
        deltas.append((f_max - f_min) / (f_max + f_min) if f_max > 0.0 else 1.0)
    fitted = [d for d in deltas if d is not None]
    return FlatnessReport(r0=tuple(levels),
                          delta=max(fitted) if fitted else math.nan,
                          per_period_delta=tuple(deltas))


def expansion_coefficients(scenario: Scenario) -> ExpansionCoefficients:
    """All small-scale expansion constants at the expansion point c0
    (``_expansion_point``).

    Both slopes divide by the price-weighted exact derivative of the
    truncated means, sum w u (-(L^2/c0^3) f(L/c0)): the prt slope
    negates the premium revenue R1(c0) at premium scale 1, the cb slope
    the mean base premium times the covered energy B(c0).
    """
    c0 = _expansion_point(scenario)
    denominator = 0.0
    for period in scenario.periods:
        gen, load = period.generation, period.load
        density = float(gen.pdf(load / c0))
        denominator += period.weight * period.utility_price * (
            -(load ** 2) / c0 ** 3 * density)
    if denominator == 0.0:
        raise DerivativeSingularError(
            "no generation density at the scarcity boundary load/c0; "
            "the first-order expansion is singular")
    mu_sum = float(_covered_energy(scenario, c0)[1])
    prt_slope = -_premium_revenue(scenario, c0) / denominator
    lam = lambda_ratio(scenario.premium)
    return ExpansionCoefficients(
        c0=c0, prt_slope=prt_slope,
        cb_slope=-scenario.premium.base_mean * mu_sum / denominator, lam=lam,
        beta=(1.0 - lam) / (1.0 + lam) * prt_slope)


# ----------------------------------------------------------------------
# Ordering report across a premium-scale grid
# ----------------------------------------------------------------------

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
    """Solve every design across the premium scales and check their order.

    ``srt`` is solved once, on the scenario as given, and ``prt``, ``cb``
    and ``opt`` per scale, ``opt`` sharing ``prt``'s search and both
    reading ``srt``'s at scale 0.  ``gap_k``
    solves ``prt`` and ``cb`` at two scales below the grid, and the
    expansion reads that same ``srt`` result.  The grid's scales and
    the two of ``gap_k`` are one sweep (``equilibrium._solve_sweep``),
    so the contract market's breakpoints at all of them are searched
    together.
    ``prt_eq_opt`` holds by construction; the independent check that
    ``prt`` maximizes ``welfare`` is a test in ``tests/test_equilibrium.py``.
    The orderings compare the certified brackets without slack:
    ``srt_le_prt`` is srt.lo <= prt.hi, ``prt_le_cb`` is prt.lo <= c_cb,
    and ``eps0_all_equal`` needs all four capacities in srt's bracket.
    """
    grid = [float(e) for e in epsilon_grid]
    if any(e < 0.0 for e in grid):
        raise ValueError("premium scales must be non-negative")

    # The srt search reads no premium: one solve serves every row, bit for bit.
    srt = solve_ne(scenario, "srt")

    coeffs = None
    flatness = None
    informational = True
    try:
        coeffs = expansion_coefficients(scenario)
        flatness = flatness_fit(scenario)
        if math.isfinite(flatness.delta):
            delta_bound = (1.0 - coeffs.lam) / (1.0 + 3.0 * coeffs.lam)
            informational = flatness.delta > delta_bound
    except ValueError as exc:  # DerivativeSingularError among them
        logger.info("expansion coefficients unavailable: %s", exc)

    # The second-order constant is fitted on two scales below the grid,
    # which the check does not test, so every row tests whether the
    # small-scale constant still bounds |gap error| / eps^2 there.
    positive = [e for e in grid if e > 0.0]
    gap_scales = ([0.25 * min(positive), 0.5 * min(positive)]
                  if coeffs is not None and positive else [])
    scales = list(dict.fromkeys(grid)) + gap_scales
    solved = dict(zip(scales, _solve_sweep(scenario, "epsilon", scales,
                                           ("prt", "cb", "opt"))))

    gap_k = None
    if gap_scales:
        slope_gap = coeffs.cb_slope - coeffs.prt_slope
        gap_k = max(abs(solved[eps]["cb"].capacity - solved[eps]["prt"].capacity
                        - slope_gap * eps) / eps ** 2 for eps in gap_scales)

    rows = []
    passed = True
    for eps in grid:
        res = solved[eps]
        c_prt, c_cb, c_opt = (res[m].capacity for m in ("prt", "cb", "opt"))
        srt_le_prt = srt.bracket[0] <= res["prt"].bracket[1]
        prt_eq_opt = abs(c_prt - c_opt) <= 1e-12 * c_prt
        prt_le_cb = res["prt"].bracket[0] <= c_cb
        eps0_equal = None
        if eps == 0.0:
            eps0_equal = all(srt.bracket[0] <= c <= srt.bracket[1]
                             for c in (srt.capacity, c_prt, c_cb, c_opt))
            passed = passed and eps0_equal
        gap_err = None
        gap_ok = None
        if eps > 0.0 and gap_k is not None:
            gap_err = abs((c_cb - c_prt) - slope_gap * eps)
            gap_ok = gap_err <= gap_k * eps ** 2 * (1.0 + 1e-9) + GAP_FLOOR * c_prt
        passed = passed and srt_le_prt and prt_eq_opt
        rows.append(OrderingRow(
            epsilon=eps, c_srt=srt.capacity, c_prt=c_prt, c_cb=c_cb,
            c_opt=c_opt, srt_le_prt=srt_le_prt, prt_eq_opt=prt_eq_opt,
            prt_le_cb=prt_le_cb, prt_le_cb_informational=informational,
            eps0_all_equal=eps0_equal, gap_abs_err=gap_err, gap_check=gap_ok))
    return OrderingReport(rows=tuple(rows), coefficients=coeffs,
                          flatness=flatness, gap_k=gap_k, passed=passed)
