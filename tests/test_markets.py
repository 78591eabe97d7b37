"""Per-realization clearing, revenues, and the contract market demand side."""

import numpy as np
import pytest
from scipy.integrate import quad

from solarmkt import (GenerationDistribution, NoEquilibriumError,
                      PeriodProfile, Scenario, aggregate_demand_cb,
                      buyer_payoff_cb, cb_unit_value, clear_cb, clear_rt,
                      individual_demand_cb, revenue_rt,
                      unit_revenue_rt, verify_ce)
from conftest import (desk_scenario, random_scenario,
                      random_tabulated_generation)


# ------------------------------------------------------------------- clear_rt

def test_clear_rt_abundant_supply_clears_at_zero_price(desk):
    out = clear_rt(desk, 0, "prt", 2.0, 0.6)
    assert out.regime == "abundant"
    assert out.price == 0.0
    assert out.seller_quantity == 1.0
    assert out.buyer_threshold is None
    out_srt = clear_rt(desk, 0, "srt", 2.0, 0.6)
    assert (out_srt.price, out_srt.seller_quantity) == (0.0, 1.0)


def test_clear_rt_prt_limited_prices_the_marginal_buyer(desk):
    out = clear_rt(desk, 0, "prt", 2.0, 0.3)
    assert out.regime == "limited"
    assert out.price == pytest.approx(1.24, abs=1e-12)
    assert out.buyer_threshold == pytest.approx(0.24, abs=1e-12)
    assert out.seller_quantity == pytest.approx(0.6, abs=1e-15)
    # market clearing: the mass of buyers above the threshold absorbs c*g
    served = desk.premium.survival(out.buyer_threshold)
    assert served * 1.0 == pytest.approx(0.6, abs=1e-12)


def test_clear_rt_srt_limited_clears_at_backstop_price(desk):
    out = clear_rt(desk, 0, "srt", 2.0, 0.3)
    assert (out.regime, out.price) == ("limited", 1.0)
    assert out.seller_quantity == pytest.approx(0.6)


def test_clear_rt_boundary_counts_as_limited(desk):
    out = clear_rt(desk, 0, "prt", 2.0, 0.5)  # c*g == L exactly
    assert out.regime == "limited"
    assert out.price == pytest.approx(1.0)  # threshold premium is zero there
    assert out.buyer_threshold == pytest.approx(0.0, abs=1e-15)


def test_clear_rt_rejects_bad_period(desk):
    with pytest.raises(ValueError):
        clear_rt(desk, 3, "prt", 1.0, 0.5)
    with pytest.raises(ValueError):
        clear_rt(desk, 0, "cb", 1.0, 0.5)


# ------------------------------------------------------------------- revenues

def test_revenue_srt_desk_value(desk):
    # T~ * c * pi_u * mu(2) = 2 * 0.125, closed form
    assert revenue_rt(desk, "srt", 2.0) == pytest.approx(0.25, abs=1e-12)


def test_revenue_prt_desk_value(desk):
    # adds c * integral of 0.6 (1 - 2g) g over [0, 0.5] = 0.05 by hand
    oracle = 0.25 + 2.0 * quad(lambda g: 0.6 * (1 - 2 * g) * g, 0, 0.5)[0]
    assert revenue_rt(desk, "prt", 2.0) == pytest.approx(oracle, abs=1e-12)
    assert revenue_rt(desk, "prt", 2.0) == pytest.approx(0.30, abs=1e-12)


def test_revenue_zero_capacity_is_zero(desk):
    for mech in ("srt", "prt"):
        assert revenue_rt(desk, mech, 0.0) == 0.0


def test_revenue_prt_dominates_srt():
    rng = np.random.default_rng(4)
    for seed in range(5):
        scn = random_scenario(np.random.default_rng(seed), epsilon=rng.uniform(0.1, 1.0))
        for c in rng.uniform(0.01, 20.0, 6):
            assert revenue_rt(scn, "prt", c) >= revenue_rt(scn, "srt", c) - 1e-12


def test_revenue_prt_equals_srt_exactly_without_premiums():
    scn = desk_scenario(epsilon=0.0)
    for c in (0.3, 1.0, 2.0, 7.5):
        assert revenue_rt(scn, "prt", c) == revenue_rt(scn, "srt", c)


def test_prt_clearing_identity_random_realizations(desk):
    rng = np.random.default_rng(9)
    load = desk.periods[0].load
    for _ in range(40):
        c, g = rng.uniform(0.1, 4.0), rng.uniform(0.0, 1.0)
        if c * g > load:
            continue
        out = clear_rt(desk, 0, "prt", c, g)
        mass = desk.premium.survival(out.buyer_threshold)
        assert load * mass == pytest.approx(c * g, abs=1e-10)


def test_zero_output_period_is_revenue_neutral(desk):
    night = PeriodProfile(load=1.0, utility_price=1.0,
                          generation=GenerationDistribution.point_mass(0.0),
                          weight=1.0)
    doubled = Scenario(periods=desk.periods + (night,), premium=desk.premium,
                       pi0=desk.pi0, t_tilde=2.0 * desk.t_tilde)
    for mech in ("srt", "prt"):
        for c in (0.5, 2.0, 3.3):
            assert revenue_rt(doubled, mech, c) == revenue_rt(desk, mech, c)


# ------------------------------------------------------------ contract market

def test_individual_demand_desk_values(desk):
    # inverse of mu at pi/(pi_u + v): sqrt((1+v)/(2 pi)) by hand
    assert individual_demand_cb(desk, 0.0, 0.125) == pytest.approx(2.0, rel=1e-9)
    assert individual_demand_cb(desk, 0.6, 0.125) == pytest.approx(
        2.0 * np.sqrt(1.6), rel=1e-9)


def test_individual_demand_extension_clause(desk):
    # price above the buyer's whole-window value of the first unit
    choke = (1.0 + 0.6) * 0.5
    assert individual_demand_cb(desk, 0.6, choke * 1.01) == 0.0


def test_demand_at_the_choke_price_is_the_whole_flat_top():
    # a rented unit is worth its full-mean value for every d <= L/g_max,
    # so at exactly that value a buyer rents the whole flat stretch; the
    # search must see the stretch as level in floating point
    for seed in range(40):  # a few of these grids round the top differently
        gen = random_tabulated_generation(np.random.default_rng(seed))
        period = PeriodProfile(load=7.3, utility_price=0.4, generation=gen,
                               weight=1.6)
        scn = Scenario(periods=(period,), premium=desk_scenario().premium,
                       pi0=0.1, t_tilde=1.0)
        for v in (0.0, 0.37):
            choke = float(cb_unit_value(scn, v, 0.0))
            assert individual_demand_cb(scn, v, choke) == pytest.approx(
                7.3 / gen.support_hi, rel=1e-12)


def test_aggregate_demand_desk_value(desk):
    oracle = (4.0 / 3.0) * (1.6 ** 1.5 - 1.0) / 0.6  # hand integral
    assert aggregate_demand_cb(desk, 0.125) == pytest.approx(oracle, rel=1e-9)


def test_aggregate_demand_identical_buyers_collapse():
    scn = desk_scenario(epsilon=0.0)
    agg = aggregate_demand_cb(scn, 0.125)
    ind = individual_demand_cb(scn, 0.0, 0.125)
    assert agg == pytest.approx(ind, rel=1e-12)


def test_aggregate_demand_chokes_at_high_price(desk):
    top_value = (1.0 + 0.6) * 0.5
    assert aggregate_demand_cb(desk, top_value * 1.001) == 0.0


def test_aggregate_demand_non_increasing(desk):
    prices = np.linspace(0.01, 0.9, 25)
    demands = [aggregate_demand_cb(desk, p) for p in prices]
    assert np.all(np.diff(demands) <= 1e-12)


def test_clear_cb_round_trips_aggregate_demand(desk):
    c = aggregate_demand_cb(desk, 0.125)
    clearing = clear_cb(desk, c)
    assert clearing.price == pytest.approx(0.125, rel=1e-8)
    assert clearing.seller_quantity == c
    assert abs(clearing.demand_residual) <= 1e-7 * max(1.0, c)


def test_clear_cb_symmetric_buyers():
    scn = desk_scenario(epsilon=0.0)
    clearing = clear_cb(scn, 2.0)
    assert clearing.price == pytest.approx(0.125, rel=1e-8)


def test_clear_cb_choke_price_limit(desk):
    # as c -> 0+, the price climbs toward the top buyer's choke value;
    # oracle: invert the aggregate demand on a fine price grid
    prices = np.linspace(0.75, 0.8, 201)
    demands = np.array([aggregate_demand_cb(desk, p) for p in prices])
    c_tiny = 1e-4
    oracle = np.interp(-c_tiny, -demands, prices)
    got = clear_cb(desk, c_tiny).price
    assert got == pytest.approx(oracle, abs=1e-3)
    assert got < (1.0 + 0.6) * 0.5  # stays below the choke value


def test_clear_cb_rejects_oversupply(desk):
    # output at least 0.2 per unit: no buyer rents more than L/0.2 at any
    # positive price, so a larger capacity has no clearing price
    period = PeriodProfile(load=1.0, utility_price=1.0,
                           generation=GenerationDistribution.uniform(0.2, 1.0))
    scn = Scenario(periods=(period,), premium=desk.premium, pi0=desk.pi0,
                   t_tilde=desk.t_tilde)
    with pytest.raises(NoEquilibriumError):
        clear_cb(scn, 1.01 / 0.2)


def test_buyer_payoff_zero_rental_pays_full_backstop(desk):
    assert buyer_payoff_cb(desk, 0.3, 0.0, 0.125) == pytest.approx(-1.0)


def test_buyer_payoff_maximized_at_individual_demand(desk):
    for v in (0.0, 0.25, 0.6):
        d_star = individual_demand_cb(desk, v, 0.125)
        grid = np.linspace(0.0, 3.0 * d_star, 1501)
        payoffs = buyer_payoff_cb(desk, v, grid, 0.125)
        assert grid[int(np.argmax(payoffs))] == pytest.approx(
            d_star, abs=grid[1] - grid[0])


def test_buyer_payoff_unbounded_rental_cost_dominates(desk):
    assert buyer_payoff_cb(desk, 0.0, 1e5, 0.125) < -1e3


def test_unit_revenue_non_increasing(desk):
    c = np.linspace(0.05, 8.0, 40)
    for mech in ("srt", "prt"):
        vals = [unit_revenue_rt(desk, mech, x) for x in c]
        assert np.all(np.diff(vals) <= 1e-12)


# ------------------------------------------------------------------- scenario

def test_scenario_validation(desk):
    with pytest.raises(ValueError):
        Scenario(periods=(), premium=desk.premium, pi0=0.1, t_tilde=1.0)
    with pytest.raises(ValueError):
        Scenario(periods=desk.periods, premium=desk.premium, pi0=0.0,
                 t_tilde=1.0)
    with pytest.raises(ValueError):
        Scenario(periods=desk.periods, premium=desk.premium, pi0=0.1,
                 t_tilde=-2.0)


# ------------------------------------------------------------- CE verification

def test_verify_prt_at_table_outcomes(desk):
    report = verify_ce(desk, "prt", 2.0, 1000, 201, seed=3)
    assert report.max_deviation_gain <= 1e-6
    assert report.max_clearing_violation <= 1e-6
    assert report.passed


def test_verify_srt_buyers_tie_everywhere(desk):
    # pooled-market buyers have flat payoffs under scarcity, so every
    # deviation ties and the max gain is exactly zero
    report = verify_ce(desk, "srt", 2.0, 500, 201, seed=5)
    assert report.max_deviation_gain == 0.0
    assert report.passed


def test_verify_cb_buyers_argmax_at_demand(desk):
    c = aggregate_demand_cb(desk, 0.125)
    report = verify_ce(desk, "cb", c, 1, 201, seed=1)
    assert report.passed
    assert report.details["cb_argmax_gap"] <= report.details["cb_grid_step"]


@pytest.mark.parametrize("mechanism,capacity", [
    ("srt", 2.0), ("prt", 2.1908902300206643), ("cb", 2.2752393389061403)])
def test_verify_detects_perturbed_price(desk, mechanism, capacity):
    report = verify_ce(desk, mechanism, capacity, 300, 201, seed=3,
                       price_perturbation=0.01)
    assert not report.passed


def test_verify_input_validation(desk):
    with pytest.raises(ValueError):
        verify_ce(desk, "prt", 2.0, 0)
    with pytest.raises(ValueError):
        verify_ce(desk, "nope", 2.0, 10)
