"""Shared fixtures: the analytic desk scenario and random instance factories.

The desk scenario (output uniform on [0, 1], unit load and backstop
price, capital cost 0.125, base premiums uniform on [0, 0.6]) has closed
forms for everything, worked out by hand and frozen in DESK below before
the library was written.
"""

from collections import Counter

import numpy as np
import pytest

from solarmkt import (GenerationDistribution, PeriodProfile,
                      PremiumDistribution, Scenario, check_viability, markets)

# Hand-derived desk values (independent of the library):
#   truncated mean mu(d) = 1/(2 d^2) for d >= 1, else 1/2
#   c_srt:  mu(c) = 0.125            -> c = 2
#   c_prt:  0.6/c^2 = 0.125          -> c = sqrt(4.8)
#   c_cb :  (4/1.8) (1.6^1.5 - 1)    -> 2.2752393389061403
#   slopes: A = 0.025, mu'(2) = -1/8 -> 0.2 and 0.3
#   lambda = (1/3)/(1/2) = 2/3,  beta = (1/3*A)/((5/3)*1/8) = 0.04
DESK = {
    "c_srt": 2.0,
    "c_prt": 2.1908902300206643,   # sqrt(4.8)
    "c_cb": 2.2752393389061403,    # (4/3)(1.6^1.5 - 1)/0.6
    "prt_slope": 0.2,
    "cb_slope": 0.3,
    "lambda": 2.0 / 3.0,
    "beta": 0.04,
}


def desk_scenario(epsilon: float = 1.0) -> Scenario:
    period = PeriodProfile(load=1.0, utility_price=1.0,
                           generation=GenerationDistribution.uniform(0.0, 1.0))
    return Scenario(periods=(period,),
                    premium=PremiumDistribution.uniform(0.6, epsilon=epsilon),
                    pi0=0.125, t_tilde=1.0)


@pytest.fixture
def desk() -> Scenario:
    return desk_scenario()


@pytest.fixture
def search_calls(monkeypatch) -> Counter:
    """Counts the level-set searches of the capacity and cb demand layers
    (``markets.sup_level_set``) by kind: "float" for one target, searched
    in plain floats, and "array" for an array of targets."""
    calls = Counter()
    search = markets.sup_level_set

    def counted(fn, targets, *args, **kwargs):
        calls["array" if np.ndim(targets) else "float"] += 1
        return search(fn, targets, *args, **kwargs)

    monkeypatch.setattr(markets, "sup_level_set", counted)
    return calls


def random_tabulated_generation(rng) -> GenerationDistribution:
    """Smooth, strictly positive density on [0, b] from a Gaussian mixture."""
    b = rng.uniform(0.5, 2.5)
    grid = np.linspace(0.0, b, 257)
    centers = rng.uniform(0.0, b, 3)
    widths = rng.uniform(0.15 * b, 0.6 * b, 3)
    dens = 0.25 / b + sum(np.exp(-0.5 * ((grid - c) / w) ** 2)
                          for c, w in zip(centers, widths))
    return GenerationDistribution.from_density_grid(grid, dens, normalize=True)


def random_generation(rng, kind: str) -> GenerationDistribution:
    if kind == "uniform":
        return GenerationDistribution.uniform(0.0, rng.uniform(0.3, 3.0))
    return random_tabulated_generation(rng)


def random_premium(rng, epsilon: float) -> PremiumDistribution:
    if rng.random() < 0.5:
        return PremiumDistribution.uniform(rng.uniform(0.05, 1.2),
                                           epsilon=epsilon)
    return PremiumDistribution.truncated_exponential(
        rng.uniform(1.0, 30.0), rng.uniform(0.05, 1.0), epsilon=epsilon)


def random_empirical_premium(rng, epsilon: float) -> PremiumDistribution:
    """An empirical premium table of 30, 300 or 4,000 exponential samples.

    A factory of its own, so that ``random_premium`` draws what it always
    drew and the scenarios of the tests that use it stay the same.
    """
    n = int(rng.choice((30, 300, 4000)))
    return PremiumDistribution.empirical(
        rng.exponential(rng.uniform(0.05, 0.5), n), epsilon=epsilon)


def random_scenario(rng, epsilon: float, gen_kind: str = "uniform",
                    n_periods: int | None = None) -> Scenario:
    """A viable random instance (capital cost inside the viability margin)."""
    n = int(n_periods if n_periods is not None else rng.integers(1, 3))
    periods = tuple(
        PeriodProfile(load=rng.uniform(0.5, 20.0),
                      utility_price=rng.uniform(0.2, 2.0),
                      generation=random_generation(rng, gen_kind),
                      weight=rng.uniform(0.5, 2.0))
        for _ in range(n))
    base = Scenario(periods=periods, premium=random_premium(rng, epsilon),
                    pi0=1.0, t_tilde=rng.uniform(0.5, 3.0))
    _, margin = check_viability(base)
    return base.with_pi0(rng.uniform(0.15, 0.85) * (margin + 1.0))
