"""Property tests of the contract market's aggregate rental demand.

The library integrates demand over capacity with the layer-cake
identity.  The reference here integrates the per-type demands of the
level-set search over the premium distribution instead, so the two
share no quadrature.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solarmkt import PremiumDistribution, Scenario, aggregate_demand_cb
from solarmkt.markets import _cb_demand_profile, cb_unit_value
from conftest import random_scenario

#: Premium-axis midpoint cells of the reference integral.  On 90 random
#: scenarios of the kinds drawn below, 20k cells came within 2e-7 of
#: 200k cells.
REFERENCE_CELLS = 20_000


def _reference_demand(scenario: Scenario, pi: float) -> float:
    """Sum of per-type demands times the exact probability of each cell.

    Cells are equal in premium, not in probability: a steep truncated
    exponential climbs across half its support within its last 1e-5 of
    probability, where equal-probability cells are far too coarse.  An
    empirical premium's density is constant between its table values,
    so those are cell edges too.  The cells start at the premium of the
    buyer who is just priced out, so no cell straddles the jump of
    demand to zero.
    """
    prem = scenario.premium
    a0 = sum(p.weight * p.utility_price * p.generation.mean
             for p in scenario.periods)
    b0 = sum(p.weight * p.generation.mean for p in scenario.periods)
    v_lo, top = max(0.0, (pi - a0) / b0), prem.epsilon * prem.v_bar
    edges = np.linspace(v_lo, top, REFERENCE_CELLS + 1)
    if prem.kind == "empirical":
        table = prem.epsilon * prem.quantiles
        edges = np.union1d(edges, table[(table > v_lo) & (table < top)])
    mass = -np.diff(prem.survival(edges, weak=True))
    demand = _cb_demand_profile(scenario, 0.5 * (edges[1:] + edges[:-1]), pi)
    return float(mass @ demand)


@st.composite
def priced_scenarios(draw):
    """A random 1-3 period scenario and a rental price below its top choke."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gen_kind = draw(st.sampled_from(["uniform", "tabulated"]))
    scn = random_scenario(rng, 1.0, gen_kind,
                          n_periods=draw(st.integers(1, 3)))
    prem_kind = draw(st.sampled_from(["uniform", "steep", "empirical"]))
    if prem_kind == "uniform":
        prem = PremiumDistribution.uniform(rng.uniform(0.05, 1.2))
    elif prem_kind == "steep":
        prem = PremiumDistribution.truncated_exponential(
            rng.uniform(20.0, 60.0), rng.uniform(0.2, 1.0))
    else:
        samples = rng.gamma(rng.uniform(0.5, 3.0), 0.2,
                            int(rng.integers(2, 200)))
        prem = PremiumDistribution.empirical(samples)
    scn = replace(scn, premium=prem)
    choke = float(cb_unit_value(scn, prem.v_bar, 0.0))
    return scn, draw(st.floats(0.1, 0.95)) * choke


@settings(max_examples=25, deadline=None)
@given(priced_scenarios())
def test_aggregate_demand_matches_per_type_integral(case):
    scn, pi = case
    assert aggregate_demand_cb(scn, pi) == pytest.approx(
        _reference_demand(scn, pi), rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(priced_scenarios())
def test_aggregate_demand_scales_with_loads(case):
    scn, pi = case
    base = aggregate_demand_cb(scn, pi)
    for k in (1e-3, 1e3):
        scaled = replace(scn, periods=tuple(replace(p, load=p.load * k)
                                            for p in scn.periods))
        assert aggregate_demand_cb(scaled, pi) / k == pytest.approx(
            base, rel=1e-10)
