"""Results must not depend on the units of loads or of prices.

Scaling every load by k scales every capacity by k, and scaling every
price and premium by m leaves every capacity unchanged, for k and m
from 1e-9 to 1e9.  The rental price that clears a capacity is the same
at loads times k and scales by m with the prices.  The verdicts of
``verify`` and of the ordering report's gap check are unchanged by
either scaling.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solarmkt import clear_cb, ordering_report, solve_ne, verify_ce
from conftest import desk_scenario, random_scenario
from test_heterogeneous import two_period_scenario


def _scale_loads(scenario, k):
    return replace(scenario, periods=tuple(
        replace(p, load=p.load * k) for p in scenario.periods))


def _scale_prices(scenario, m):
    return replace(
        scenario, pi0=scenario.pi0 * m,
        premium=scenario.premium.with_epsilon(scenario.premium.epsilon * m),
        periods=tuple(replace(p, utility_price=p.utility_price * m)
                      for p in scenario.periods))


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["desk", "two_period", "tabulated"]))
    if kind == "desk":
        return desk_scenario()
    if kind == "two_period":
        return two_period_scenario()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_scenario(rng, 1.0, "tabulated")


@settings(max_examples=25, deadline=None)
@given(scenarios(), st.floats(-9.0, 9.0), st.floats(-9.0, 9.0))
def test_capacities_are_free_of_units(scn, log_k, log_m):
    k, m = 10.0 ** log_k, 10.0 ** log_m
    loads, prices = _scale_loads(scn, k), _scale_prices(scn, m)
    for mech in ("srt", "prt", "cb", "opt"):
        c = solve_ne(scn, mech).capacity
        assert solve_ne(loads, mech).capacity == pytest.approx(k * c, rel=1e-10)
        assert solve_ne(prices, mech).capacity == pytest.approx(c, rel=1e-10)
    # the cb capacity is the demand at the cost-recovering rental price;
    # one clearing with both scalings keeps the test short
    c = solve_ne(scn, "cb").capacity
    price = scn.pi0 * scn.horizon / scn.t_tilde
    both = _scale_prices(loads, m)
    assert clear_cb(both, k * c).price == pytest.approx(m * price, rel=1e-10)


@pytest.mark.parametrize("k", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("m", [1e-9, 1.0, 1e9])
def test_verify_verdict_is_free_of_units(k, m):
    scn = _scale_prices(_scale_loads(desk_scenario(), k), m)
    for mech in ("srt", "prt", "cb"):
        c = solve_ne(scn, mech).capacity
        assert verify_ce(scn, mech, c, 300, 201, seed=3).passed
        corrupted = verify_ce(scn, mech, c, 300, 201, seed=3,
                              price_perturbation=0.01)
        assert not corrupted.passed


def _tabulated_scenario():
    rng = np.random.default_rng(11)
    for _ in range(7):  # its gap error over eps^2 grows with eps
        scn = random_scenario(rng, 1.0, "tabulated")
    return scn


@pytest.mark.parametrize("make", [desk_scenario, _tabulated_scenario])
@pytest.mark.parametrize("k", [1e-9, 1e9])
def test_gap_check_verdict_is_free_of_units(make, k):
    scn = make()
    grid = [0.0, 0.25, 0.5, 1.0]
    base = ordering_report(scn, grid)
    scaled = ordering_report(_scale_loads(scn, k), grid)
    assert scaled.gap_k == pytest.approx(k * base.gap_k, rel=1e-6)
    assert [r.gap_check for r in scaled.rows] == [r.gap_check for r in base.rows]
