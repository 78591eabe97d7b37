"""Investment equilibria, the welfare benchmark, and their identities."""

from dataclasses import replace

import numpy as np
import pytest

from solarmkt import (PeriodProfile, check_viability, optimal_allocation,
                      solve_all, solve_ne, unit_revenue_rt, welfare,
                      zero_profit_residual)
from solarmkt.equilibrium import SOLVE_MECHANISMS
from solarmkt.numerics import sup_level_set
from solarmkt.pipeline import load_scenario
from conftest import (DESK, desk_scenario, random_scenario,
                      random_tabulated_generation)
from test_acceptance import _write_california_fixtures
from test_heterogeneous import two_period_scenario


# ------------------------------------------------------------------ solve_ne

def test_desk_capacities_match_closed_forms(desk):
    assert solve_ne(desk, "srt").capacity == pytest.approx(DESK["c_srt"], rel=1e-9)
    assert solve_ne(desk, "prt").capacity == pytest.approx(DESK["c_prt"], rel=1e-9)
    assert solve_ne(desk, "cb").capacity == pytest.approx(DESK["c_cb"], rel=1e-8)


def test_solved_results_have_small_residuals(desk):
    for mech in ("srt", "prt", "cb", "opt"):
        res = solve_ne(desk, mech)
        assert res.viable
        assert abs(res.residual) <= 1e-9


def test_social_optimum_equals_prt_exactly(desk):
    # same characterizing equation solved by the same routine
    assert solve_ne(desk, "opt").capacity == solve_ne(desk, "prt").capacity


def test_no_premium_collapses_all_mechanisms():
    scn = desk_scenario(epsilon=0.0)
    caps = [solve_ne(scn, m).capacity for m in ("srt", "prt", "cb", "opt")]
    assert max(caps) - min(caps) <= 1e-6 * max(caps)
    assert caps[0] == pytest.approx(2.0, rel=1e-9)


def test_unknown_mechanism_rejected(desk):
    with pytest.raises(ValueError):
        solve_ne(desk, "vcg")


# ------------------------------------------------------------------ viability

def test_viability_margin_desk(desk):
    viable, margin = check_viability(desk)
    assert viable
    assert margin == pytest.approx(0.375, abs=1e-12)


def test_viability_boundary_is_viable(desk):
    viable, margin = check_viability(desk.with_pi0(0.5))
    assert viable
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_unattractive_cost_zeroes_the_pooled_market(desk):
    scn = desk.with_pi0(0.6)
    viable, margin = check_viability(scn)
    assert not viable
    assert margin == pytest.approx(-0.1, abs=1e-12)
    res = solve_ne(scn, "srt")
    assert res.capacity == 0.0
    assert not res.viable
    assert res.residual == pytest.approx(margin, abs=1e-9)


def test_extreme_cost_zeroes_every_mechanism(desk):
    scn = desk.with_pi0(0.9)  # above even the premium-boosted choke revenue
    for mech in ("srt", "prt", "cb"):
        res = solve_ne(scn, mech)
        assert res.capacity == 0.0
        assert not res.viable


# -------------------------------------------------------------- zero profit

def test_zero_profit_residual_examples(desk):
    # T~ pi_u mu(1) c - pi0 c at c=1, by hand
    assert zero_profit_residual(desk, "srt", 1.0) == pytest.approx(0.375,
                                                                   abs=1e-12)
    c_star = solve_ne(desk, "prt").capacity
    assert abs(zero_profit_residual(desk, "prt", c_star)) <= 1e-9
    assert zero_profit_residual(desk, "srt", 50.0) < 0.0
    with pytest.raises(ValueError):
        zero_profit_residual(desk, "srt", 0.0)


def test_zero_profit_residual_rejects_cb(desk):
    with pytest.raises(ValueError, match="0 by construction in solve_ne"):
        zero_profit_residual(desk, "cb", DESK["c_cb"])


# ------------------------------------------------------------- allocation rule

def test_allocation_limited_supply_desk(desk):
    rule = optimal_allocation(desk, 0, 2.0, 0.3)
    assert rule.threshold_premium == pytest.approx(0.24, abs=1e-12)
    # (0.36 - 0.0576) / (2 * 0.6) by hand
    assert rule.max_avg_premium == pytest.approx(0.252, abs=1e-12)


def test_allocation_abundant_supply_collects_mean_premium(desk):
    rule = optimal_allocation(desk, 0, 2.0, 0.8)
    assert rule.threshold_premium == 0.0
    assert rule.max_avg_premium == pytest.approx(0.3, abs=1e-12)


def test_allocation_no_premium_population():
    rule = optimal_allocation(desk_scenario(epsilon=0.0), 0, 2.0, 0.3)
    assert rule.max_avg_premium == 0.0


def test_allocation_bounds(desk):
    rng = np.random.default_rng(2)
    for _ in range(25):
        rule = optimal_allocation(desk, 0, rng.uniform(0, 4), rng.uniform(0, 1))
        assert 0.0 <= rule.threshold_premium <= 0.6
        assert rule.max_avg_premium <= 0.3 + 1e-12


# --------------------------------------------------------------------- welfare

def test_welfare_without_solar_is_pure_backstop_cost(desk):
    # no capacity: nothing allocated, the whole load buys backstop energy
    assert welfare(desk, 0.0) == pytest.approx(-1.0, abs=1e-12)
    # exactly so on tabulated output too: every output falls short of the
    # load, so P(c G <= L) is 1, not this density's total mass, 1 - 6e-16
    gen = random_tabulated_generation(np.random.default_rng(9))
    assert float(gen.cdf(gen.support_hi)) != 1.0
    scn = replace(desk_scenario(), periods=(
        PeriodProfile(load=2.5, utility_price=0.8, generation=gen),))
    assert welfare(scn, 0.0) == -scn.period_scale * (0.8 * 2.5)


def test_welfare_concave_on_grid(desk):
    grid = np.linspace(0.0, 6.0, 120)
    vals = np.array([welfare(desk, c) for c in grid])
    assert np.diff(vals, 2).max() <= 1e-8


def test_welfare_argmax_matches_social_optimum(desk):
    c_opt = solve_ne(desk, "opt").capacity
    grid = np.linspace(1e-6, 2.5 * c_opt, 400)
    vals = np.array([welfare(desk, c) for c in grid])
    assert abs(grid[int(np.argmax(vals))] - c_opt) <= grid[1] - grid[0]


def _welfare_argmax(scenario, h=1e-5):
    """Largest c with W(c(1+h)) >= W(c(1-h)), from welfare alone.

    Welfare is concave, so that central difference changes sign once,
    at the maximizer up to a bias of about h^2/2 relative.
    """
    scale = scenario.capacity_scale
    root, *_ = sup_level_set(
        lambda c: welfare(scenario, c * (1.0 + h))
        - welfare(scenario, c * (1.0 - h)), 0.0, 1e-9 * scale, scale)
    return float(root)


def test_welfare_maximizer_found_independently_is_the_prt_capacity(tmp_path):
    # welfare's premium term integrates the integrated quantile, revenue's
    # the quantile itself: only the node set is shared, so this catches a
    # fault in either that the identity prt == opt cannot
    rng = np.random.default_rng(8)
    scenarios = [desk_scenario(), two_period_scenario(),
                 load_scenario(_write_california_fixtures(tmp_path))]
    scenarios += [random_scenario(rng, epsilon=float(rng.uniform(0.1, 1.0)),
                                  gen_kind="uniform" if i % 2 else "tabulated")
                  for i in range(6)]
    for scn in scenarios:
        c_prt = solve_ne(scn, "prt").capacity
        assert _welfare_argmax(scn) == pytest.approx(c_prt, rel=1e-9, abs=0.0)


def test_welfare_rejects_negative_capacity(desk):
    with pytest.raises(ValueError):
        welfare(desk, -0.5)


# ----------------------------------------------------- randomized properties

def test_ordering_general_case_random_scenarios():
    rng = np.random.default_rng(21)
    for i in range(12):
        scn = random_scenario(rng, epsilon=float(rng.uniform(0.05, 1.0)),
                              gen_kind="uniform" if i % 2 else "tabulated")
        c_srt = solve_ne(scn, "srt").capacity
        c_prt = solve_ne(scn, "prt").capacity
        c_opt = solve_ne(scn, "opt").capacity
        assert c_srt <= c_prt * (1.0 + 1e-9) + 1e-12
        assert c_prt == c_opt
        # the single-product market never reads the premium, which is
        # why ordering_report solves srt once for every row
        for eps in (0.0, 2.0):
            assert solve_ne(scn.with_epsilon(eps), "srt") == solve_ne(scn, "srt")
        assert list(solve_all(scn).items()) == [(m, solve_ne(scn, m))
                                                for m in SOLVE_MECHANISMS]


def test_unit_revenue_non_increasing_random():
    rng = np.random.default_rng(31)
    for i in range(4):
        scn = random_scenario(rng, epsilon=0.5,
                              gen_kind="uniform" if i % 2 else "tabulated")
        grid = np.linspace(0.05, 20.0, 30)
        for mech in ("srt", "prt"):
            vals = [unit_revenue_rt(scn, mech, c) for c in grid]
            assert np.all(np.diff(vals) <= 1e-10)
