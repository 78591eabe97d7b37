"""Investment equilibria, the welfare benchmark, and their identities."""

import numpy as np
import pytest

from solarmkt import (check_viability, optimal_allocation, solve_ne,
                      solve_social_optimum, unit_revenue_rt, welfare,
                      zero_profit_residual)
from conftest import DESK, desk_scenario, random_scenario


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
    assert solve_social_optimum(desk).capacity == solve_ne(desk, "prt").capacity


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


def test_zero_profit_residual_cb_at_solution(desk):
    c_cb = solve_ne(desk, "cb").capacity
    assert abs(zero_profit_residual(desk, "cb", c_cb)) <= 1e-7


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


def test_welfare_concave_on_grid(desk):
    grid = np.linspace(0.0, 6.0, 120)
    vals = np.array([welfare(desk, c) for c in grid])
    assert np.diff(vals, 2).max() <= 1e-8


def test_welfare_argmax_matches_social_optimum(desk):
    c_opt = solve_social_optimum(desk).capacity
    grid = np.linspace(1e-6, 2.5 * c_opt, 400)
    vals = np.array([welfare(desk, c) for c in grid])
    assert abs(grid[int(np.argmax(vals))] - c_opt) <= grid[1] - grid[0]


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


def test_unit_revenue_non_increasing_random():
    rng = np.random.default_rng(31)
    for i in range(4):
        scn = random_scenario(rng, epsilon=0.5,
                              gen_kind="uniform" if i % 2 else "tabulated")
        grid = np.linspace(0.05, 20.0, 30)
        for mech in ("srt", "prt"):
            vals = [unit_revenue_rt(scn, mech, c) for c in grid]
            assert np.all(np.diff(vals) <= 1e-10)
