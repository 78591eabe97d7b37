"""Per-realization clearing, revenues, and the contract market demand side."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from solarmkt import (GenerationDistribution, NoEquilibriumError,
                      PeriodProfile, PremiumDistribution, Scenario,
                      aggregate_demand_cb, buyer_payoff_cb, cb_unit_value,
                      clear_cb, clear_rt, individual_demand_cb, markets,
                      optimal_allocation, revenue_rt, solve_ne,
                      unit_revenue_rt, verify_ce, welfare)
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


#: One capacity, realization, premium or price argument of each call.
INPUT_CALLS = {
    "clear_rt capacity": lambda s, x: clear_rt(s, 0, "prt", x, 0.5),
    "clear_rt realization": lambda s, x: clear_rt(s, 0, "prt", 1.0, x),
    "optimal_allocation capacity": lambda s, x: optimal_allocation(s, 0, x, 0.5),
    "optimal_allocation realization":
        lambda s, x: optimal_allocation(s, 0, 1.0, x),
    "cb_unit_value premium": lambda s, x: cb_unit_value(s, x, 1.0),
    "cb_unit_value capacity": lambda s, x: cb_unit_value(s, 0.3, x),
    "buyer_payoff_cb premium": lambda s, x: buyer_payoff_cb(s, x, 1.0, 0.1),
    "buyer_payoff_cb price": lambda s, x: buyer_payoff_cb(s, 0.3, 1.0, x),
    "buyer_payoff_cb capacity": lambda s, x: buyer_payoff_cb(s, 0.3, x, 0.1),
    "individual_demand_cb premium":
        lambda s, x: individual_demand_cb(s, x, 0.5),
    "individual_demand_cb price": lambda s, x: individual_demand_cb(s, 0.3, x),
    "aggregate_demand_cb price": lambda s, x: aggregate_demand_cb(s, x),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
@pytest.mark.parametrize("call", INPUT_CALLS.values(), ids=INPUT_CALLS.keys())
def test_non_finite_and_negative_inputs_are_rejected(desk, call, bad):
    with pytest.raises(ValueError, match="must be finite and non-negative"):
        call(desk, bad)


#: One capacity argument of each call that reads a capacity of 0 as no
#: panels: the cut L / 0 is +inf, so every output counts as scarce.
ZERO_CAPACITY_CALLS = {
    "unit_revenue_rt srt": lambda s, x: unit_revenue_rt(s, "srt", x),
    "unit_revenue_rt prt": lambda s, x: unit_revenue_rt(s, "prt", x),
    "revenue_rt prt": lambda s, x: revenue_rt(s, "prt", x),
    "cb_unit_value": lambda s, x: cb_unit_value(s, 0.3, x),
    "cb_unit_value array": lambda s, x: cb_unit_value(s, 0.3, np.array([x])),
    "buyer_payoff_cb": lambda s, x: buyer_payoff_cb(s, 0.3, x, 0.125),
    "buyer_payoff_cb array":
        lambda s, x: buyer_payoff_cb(s, 0.3, np.array([x, 1.0]), 0.125),
    "welfare": lambda s, x: welfare(s, x),
}


@pytest.mark.parametrize("call", ZERO_CAPACITY_CALLS.values(),
                         ids=ZERO_CAPACITY_CALLS.keys())
def test_negative_zero_capacity_is_zero(desk, call):
    # -0.0 passed the sign check, and its cut L / -0.0 was -inf: no
    # output counted as scarce, so on desk a unit earned 0 in srt (0.5
    # at +0.0) and a rented one 0 for premium 0.3 (0.65 at +0.0)
    at_zero = np.asarray(call(desk, 0.0))
    at_minus_zero = np.asarray(call(desk, -0.0))
    assert np.array_equal(at_minus_zero, at_zero)
    assert np.array_equal(np.signbit(at_minus_zero), np.signbit(at_zero))


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
    # the mechanism is checked before the capacity is read
    with pytest.raises(ValueError, match="unknown mechanism"):
        revenue_rt(desk, "nope", 0.0)


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


def _lit_point_mass_scenario(pi0=0.8):
    """Output fixed at g0 = 0.5 against load 2 (cut at c = 4), beside a
    uniform period on [0, 1]; every value is exact in binary."""
    fixed = PeriodProfile(load=2.0, utility_price=0.8, weight=1.5,
                          generation=GenerationDistribution.point_mass(0.5))
    spread = PeriodProfile(load=1.0, utility_price=1.0,
                           generation=GenerationDistribution.uniform(0.0, 1.0))
    return Scenario(periods=(fixed, spread),
                    premium=PremiumDistribution.uniform(0.6, epsilon=0.7),
                    pi0=pi0, t_tilde=3.0)


def test_lit_point_mass_prt_revenue_closed_form():
    scn = _lit_point_mass_scenario()
    eps, v_bar = 0.7, 0.6

    def closed_form(c):
        q = v_bar * (1.0 - c * 0.5 / 2.0)  # base premium of the served share
        fixed = 1.5 * (0.8 + eps * q) * 0.5 if c * 0.5 <= 2.0 else 0.0
        m = min(1.0, 1.0 / c)  # uniform output on [0, 1], load 1
        spread = m ** 2 / 2.0 + eps * v_bar * (m ** 2 / 2.0 - c * m ** 3 / 3.0)
        return scn.period_scale * (fixed + spread)

    for c in (0.5, 3.0, 3.999, 4.0, 4.001, 6.0):
        assert unit_revenue_rt(scn, "prt", c) == pytest.approx(
            closed_form(c), rel=1e-12)


def test_lit_point_mass_prt_equilibrium_verifies():
    scn = _lit_point_mass_scenario()
    solved = solve_ne(scn, "prt")
    assert 0.0 < solved.capacity < 4.0
    report = verify_ce(scn, "prt", solved.capacity, 500)
    assert report.passed, report


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


def test_clear_cb_clears_at_the_cut_of_a_lit_atom():
    # output fixed at g0 = 0.5 against load 2: unit c = 4 still covers
    # g0, worth A(4) = 0.5 to every buyer, who all rent 4 at that price;
    # past the cut no unit covers any energy and no price draws it
    period = PeriodProfile(load=2.0, utility_price=1.0,
                           generation=GenerationDistribution.point_mass(0.5))
    scn = Scenario(periods=(period,), premium=PremiumDistribution.uniform(0.6),
                   pi0=0.1, t_tilde=1.0)
    clearing = clear_cb(scn, 4.0)
    assert clearing.price == pytest.approx(0.5, rel=1e-9)
    assert abs(clearing.demand_residual) <= 1e-7 * 4.0
    with pytest.raises(NoEquilibriumError):
        clear_cb(scn, 4.001)


def test_buyer_payoff_zero_rental_pays_full_backstop(desk):
    assert buyer_payoff_cb(desk, 0.3, 0.0, 0.125) == pytest.approx(-1.0)


def test_buyer_payoff_maximized_at_individual_demand(desk):
    vs = np.array([0.0, 0.25, 0.6])
    for i, v in enumerate(vs):
        d_star = individual_demand_cb(desk, v, 0.125)
        grid = np.linspace(0.0, 3.0 * d_star, 1501)
        payoffs = buyer_payoff_cb(desk, v, grid, 0.125)
        assert grid[int(np.argmax(payoffs))] == pytest.approx(
            d_star, abs=grid[1] - grid[0])
        # a column of premiums broadcasts against the grid, row for row
        table = buyer_payoff_cb(desk, vs[:, None], grid, 0.125)
        assert np.array_equal(table[i], buyer_payoff_cb(desk, vs[i], grid, 0.125))


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
    # deviation ties and the max gain is exactly zero; so do prt buyers
    # at premium scale 0, where every type values solar at 0
    for scn, mechanism in ((desk, "srt"), (desk_scenario(0.0), "prt")):
        report = verify_ce(scn, mechanism, 2.0, 500, 201, seed=5)
        assert report.max_deviation_gain == 0.0
        assert report.max_clearing_violation == 0.0
        assert report.passed


def test_verify_cb_buyers_argmax_at_demand(desk):
    c = aggregate_demand_cb(desk, 0.125)
    report = verify_ce(desk, "cb", c, 1, 201, seed=1)
    assert report.passed
    assert report.details["cb_argmax_gap"] <= report.details["cb_grid_step"]


@pytest.mark.parametrize("epsilon,pi0,gap", [(0.0, 0.5, None),
                                             (1.0, 0.125, 0.012649110640667871)])
def test_verify_cb_argmax_gap_reads_a_tie_as_a_hit(epsilon, pi0, gap):
    # At scale 0 and pi0 = 0.5 the price is every buyer's choke value, so
    # the payoff is flat over the whole flat top [0, 1]: the first
    # maximizer of the grid, 0, was read as a miss of the held demand 1.
    # At the desk defaults no grid point ties, and the gap stays the same.
    scn = desk_scenario(epsilon).with_pi0(pi0)
    report = verify_ce(scn, "cb", solve_ne(scn, "cb").capacity, 1)
    assert report.passed
    details = report.details
    if gap is None:
        assert details["cb_argmax_gap"] <= details["cb_grid_step"]
    else:
        assert details["cb_argmax_gap"] == gap


@pytest.mark.parametrize("mechanism,capacity", [
    ("srt", 2.0), ("prt", 2.1908902300206643), ("cb", 2.2752393389061403)])
def test_verify_detects_perturbed_price(desk, mechanism, capacity):
    report = verify_ce(desk, mechanism, capacity, 300, 201, seed=3,
                       price_perturbation=0.01)
    assert not report.passed


@pytest.mark.parametrize("perturbation,extra", [(0.0, 0), (0.01, 1)])
def test_verify_cb_reads_the_clearing_residual(desk, monkeypatch,
                                               perturbation, extra):
    # the clearing violation at the clearing price is clear_cb's own
    # residual; only a perturbed price needs a demand evaluation of its own
    c = aggregate_demand_cb(desk, 0.125)
    calls = []
    demand = markets.aggregate_demand_cb
    monkeypatch.setattr(markets, "aggregate_demand_cb",
                        lambda scn, pi: calls.append(pi) or demand(scn, pi))
    clearing = clear_cb(desk, c)
    cleared = len(calls)
    report = verify_ce(desk, "cb", c, 1, price_perturbation=perturbation)
    assert len(calls) == 2 * cleared + extra
    if not perturbation:
        assert report.max_clearing_violation == \
            abs(clearing.demand_residual) / c
    else:
        assert not report.passed


@pytest.mark.parametrize("mechanism", ["srt", "prt"])
def test_a_nan_price_fails_verification(desk, monkeypatch, mechanism):
    # the running maximum that floored the gains at 0.0 dropped a NaN
    draws = markets._clear_rt_draws

    def corrupted(*args):
        abundant, price, quantity, served, thr = draws(*args)
        price = np.where(abundant, price, np.nan)
        return abundant, price, quantity, served, thr

    monkeypatch.setattr(markets, "_clear_rt_draws", corrupted)
    report = verify_ce(desk, mechanism, 2.0, 50, seed=1)
    assert math.isnan(report.max_deviation_gain)
    assert not report.passed


def test_verify_input_validation(desk):
    with pytest.raises(ValueError):
        verify_ce(desk, "prt", 2.0, 0)
    with pytest.raises(ValueError):
        verify_ce(desk, "nope", 2.0, 10)
    # a NaN or infinite perturbation gave a pass, and a NaN or negative
    # tolerance a FAIL of an equilibrium that holds
    for mechanism in ("srt", "prt", "cb"):
        for name, bad in (("price_perturbation", math.nan),
                          ("price_perturbation", math.inf),
                          ("price_perturbation", -math.inf),
                          ("tolerance", math.nan), ("tolerance", -1.0),
                          ("tolerance", math.inf)):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                verify_ce(desk, mechanism, 2.0, 10, **{name: bad})
