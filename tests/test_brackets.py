"""One capacity search for every design, and the brackets it certifies.

The ``srt`` and ``prt`` zero-profit capacities are searched like a
``cb`` buyer's demand: the same search, from the same start, in the
same coordinates.  At premium scale 0 every design is therefore the
zero-premium buyer's demand at the cost-recovering price, bit for bit,
and the final bracket of each search holds the exact level-set top,
which the ordering report compares without slack.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solarmkt import (GenerationDistribution, PeriodProfile,
                      PremiumDistribution, Scenario, cb_unit_value,
                      check_viability, clear_cb, ordering_report, solve_all,
                      solve_ne, unit_revenue_rt, verify_ce)
from solarmkt import asymptotics, markets
from solarmkt.markets import (_cb_demand_profile, _covered_energy,
                              _linearized, _rt_window_value)
from solarmkt.numerics import X_RTOL
from conftest import (desk_scenario, random_empirical_premium,
                      random_premium, random_tabulated_generation)
from test_fast_kernels import _demand_bound
from test_markets import _lit_point_mass_scenario


@st.composite
def scenarios(draw):
    """A viable 1-3 period scenario with uniform, tabulated and lit
    point-mass output, sometimes beside a dark period, and a uniform,
    truncated-exponential or empirical premium."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periods = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["uniform", "tabulated", "point_mass"]))
        if kind == "uniform":
            gen = GenerationDistribution.uniform(0.0, rng.uniform(0.3, 3.0))
        elif kind == "tabulated":
            gen = random_tabulated_generation(rng)
        else:
            gen = GenerationDistribution.point_mass(rng.uniform(0.1, 2.0))
        periods.append(PeriodProfile(load=rng.uniform(0.5, 20.0),
                                     utility_price=rng.uniform(0.2, 2.0),
                                     generation=gen,
                                     weight=rng.uniform(0.5, 2.0)))
    if draw(st.booleans()):
        periods.append(PeriodProfile(
            load=rng.uniform(0.5, 20.0), utility_price=rng.uniform(0.2, 2.0),
            generation=GenerationDistribution.point_mass(0.0),
            weight=rng.uniform(0.5, 2.0)))
    epsilon = rng.uniform(0.05, 1.0)
    if draw(st.booleans()):
        prem = random_premium(rng, epsilon)
    else:
        prem = random_empirical_premium(rng, epsilon)
    scn = Scenario(periods=tuple(periods), premium=prem, pi0=1.0,
                   t_tilde=rng.uniform(0.5, 3.0))
    _, margin = check_viability(scn)
    return scn.with_pi0(rng.uniform(0.15, 0.85) * (margin + 1.0))


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_each_search_certifies_its_capacity_and_scale_0_is_one_search(scn):
    pi_star = scn.cost_recovering_price
    zero = scn.with_epsilon(0.0)
    # srt is the zero-premium buyer's demand at pi*, and at scale 0 so is
    # every other design
    demand = _cb_demand_profile(zero, 0.0, pi_star)
    assert demand > 0.0
    assert [r.capacity for r in solve_all(zero).values()] == [demand] * 4
    for s in (scn, zero):
        for mechanism in ("srt", "prt"):
            res = solve_ne(s, mechanism)
            assert res.viable
            lo, hi = res.bracket
            assert lo <= res.capacity <= hi
            # in the search's coordinates the value reaches its target at
            # lo and falls short of it at hi
            value = lambda c: _linearized(_rt_window_value(s, mechanism, c))
            target = _linearized(min(pi_star, _rt_window_value(s, mechanism,
                                                               0.0)))
            assert value(lo) >= target > value(hi)


def test_desk_flat_top_boundary_is_one_short_search():
    # At pi0 = 0.5 the cost-recovering price is the whole flat top of
    # A(c) = 1/2 on [0, 1]: the level set ends at c = 1 exactly.
    scn = desk_scenario(epsilon=0.0).with_pi0(0.5)
    results = solve_all(scn)
    caps = {r.capacity for r in results.values()}
    assert len(caps) == 1
    assert caps.pop() == pytest.approx(1.0, rel=1e-13)
    srt = results["srt"]
    assert srt.iterations <= 8  # 47 when searched from 1e-9 of the scale
    assert srt.bracket[0] <= 1.0 <= srt.bracket[1]


def test_a_prt_fault_of_1e_9_fails_the_zero_scale_checks(desk, monkeypatch):
    clean = ordering_report(desk, [0.0, 0.5, 1.0])
    assert clean.passed and clean.rows[0].eps0_all_equal
    sweep = asymptotics._solve_sweep

    def faulty(scenario, param, values, mechanisms):
        solved = sweep(scenario, param, values, mechanisms)
        for eps, results in zip(values, solved):
            if eps == 0.0:
                f = 1.0 - 1e-9
                prt = results["prt"]
                prt = replace(prt, capacity=prt.capacity * f,
                              bracket=(prt.bracket[0] * f, prt.bracket[1] * f))
                results["prt"] = prt
                if "opt" in results:
                    results["opt"] = replace(prt, mechanism="opt")
        return solved

    monkeypatch.setattr(asymptotics, "_solve_sweep", faulty)
    report = ordering_report(desk, [0.0, 0.5, 1.0])
    row = report.rows[0]
    assert not row.srt_le_prt and not row.eps0_all_equal
    assert not report.passed
    assert all(r.srt_le_prt for r in report.rows[1:])


def test_brackets_straddle_a_revenue_jump():
    # Output fixed at 0.5 against load 2: unit revenue drops from 0.7575
    # to 0.0375 at c = 4, far past pi0 = 0.3 on both sides.
    scn = _lit_point_mass_scenario(pi0=0.3)
    for mechanism in ("srt", "prt"):
        lo, hi = solve_ne(scn, mechanism).bracket
        assert lo <= 4.0 < hi and hi - lo <= X_RTOL * hi
        assert unit_revenue_rt(scn, mechanism, lo) >= scn.pi0
        assert unit_revenue_rt(scn, mechanism, hi) < scn.pi0


# ------------------------------------------------- the scale-0 viability edge

@settings(max_examples=100, deadline=None)
@given(scenarios(), st.one_of(st.sampled_from((1.0 - 1e-13, 1.0, 1.0 + 1e-13)),
                              st.floats(0.1, 0.9)))
def test_scale_0_designs_agree_at_and_around_the_viability_edge(scn, share):
    # pi0 at the break-even capital cost (pi0 plus the viability margin)
    # times share: just inside, on, and just past the edge, and inside
    zero = scn.with_epsilon(0.0)
    _, margin = check_viability(zero)
    scn = zero.with_pi0(share * (zero.pi0 + margin))
    results = solve_all(scn)
    assert len({(r.capacity.hex(), r.viable) for r in results.values()}) == 1
    assert results["srt"].viable is check_viability(scn)[0]
    assert ordering_report(scn, [0.0]).passed
    c = results["cb"].capacity
    if c > 0.0:
        assert verify_ce(scn, "cb", c, 1).passed


def test_desk_just_past_the_edge_invests_nothing_in_any_design():
    # the contract buyers used to rent up to pi0 (1 + 1e-12) above their
    # choke value, so cb still invested 1 where the others invested 0
    scn = desk_scenario(epsilon=0.0).with_pi0(0.5 * (1.0 + 1e-13))
    results = solve_all(scn)
    assert all(r.capacity == 0.0 and not r.viable for r in results.values())
    assert ordering_report(scn, [0.0]).passed


def test_desk_edge_cb_clearing_verifies():
    # at pi0 = 0.5 the clearing price used to crawl the choke slack for
    # about 50 demand evaluations and then raise on a residual of -1
    scn = desk_scenario(epsilon=0.0).with_pi0(0.5)
    c = solve_ne(scn, "cb").capacity
    report = verify_ce(scn, "cb", c, 1)
    assert report.passed
    assert report.details["cb_price"] <= 0.5


def test_clearing_at_a_choke_price_keeps_the_certified_end():
    # On the flat top of tabulated output the clearing price is the
    # choke price itself, where demand falls from c to 0: the midpoint of
    # the final price bracket can lie past it, its lower end cannot.
    gen = random_tabulated_generation(np.random.default_rng(0))
    scn = Scenario(periods=(PeriodProfile(load=1.0, utility_price=1.0,
                                          generation=gen),),
                   premium=desk_scenario(epsilon=0.0).premium, pi0=1.0,
                   t_tilde=1.0)
    _, margin = check_viability(scn)
    scn = scn.with_pi0(scn.pi0 + margin)
    c = solve_ne(scn, "cb").capacity
    clearing = clear_cb(scn, c)
    assert abs(clearing.demand_residual) <= 1e-12 * c
    assert clearing.price <= float(cb_unit_value(scn, 0.0, 0.0))


@pytest.mark.parametrize("pi0", [0.05, 0.25, 0.5])
def test_a_lone_point_mass_invests_up_to_its_cut(pi0):
    # output fixed at 0.5 against load 2: past c = 4 a unit covers
    # nothing, so no design may return a capacity past the cut
    period = PeriodProfile(load=2.0, utility_price=1.0,
                           generation=GenerationDistribution.point_mass(0.5))
    scn = Scenario(periods=(period,),
                   premium=desk_scenario(epsilon=0.0).premium, pi0=pi0,
                   t_tilde=1.0)
    for mechanism, result in solve_all(scn).items():
        assert result.capacity == 4.0, mechanism
        if mechanism != "cb":
            assert result.residual >= 0.0
    assert verify_ce(scn, "cb", 4.0, 1).passed


def test_a_revenue_jump_returns_its_cut():
    # Beside a uniform period, output fixed at 0.5 against load 2 drops
    # the unit revenue from 0.7575 to 0.0375 at c = 4, across pi0 = 0.3:
    # the level set ends at the cut, which every design returns, with the
    # zero-profit gap of the capacity itself (the midpoint past the jump
    # had -1.05).
    scn = _lit_point_mass_scenario(pi0=0.3)
    for mechanism, result in solve_all(scn).items():
        assert result.capacity == 4.0, mechanism
        assert result.residual >= 0.0
        assert result.bracket[0] <= 4.0 <= result.bracket[1]


# ------------------------------------------------ the clearing certificate

def _clear_recorded(scn, c):
    """``clear_cb(scn, c)`` and the demand at each price it tried."""
    demands = {}
    demand = markets.aggregate_demand_cb

    def recorded(s, pi):
        demands[pi] = demand(s, pi)
        return demands[pi]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(markets, "aggregate_demand_cb", recorded)
        return clear_cb(scn, c), demands


def test_clear_cb_below_its_bracket_starts_from_a_c(monkeypatch):
    # Uniform output on [0, 1.2] with load 6.5 beside output fixed at 1.75
    # with load 5.1: every buyer rents the atom's cut 5.1 / 1.75, and
    # demand is c from pi* = 1.78 up to A(c) = 2.35, below the price
    # bracket.  The search started there with no value at A(c) and
    # bisected in 45 demand evaluations.
    periods = (PeriodProfile(load=6.5, utility_price=1.0,
                             generation=GenerationDistribution.uniform(0.0, 1.2)),
               PeriodProfile(load=5.1, utility_price=1.0,
                             generation=GenerationDistribution.point_mass(1.75)))
    premium = PremiumDistribution.empirical(
        np.random.default_rng(0).uniform(0.0, 1.0, 30), epsilon=0.8)
    scn = Scenario(periods=periods, premium=premium, pi0=1.9, t_tilde=2.13)
    c = solve_ne(scn, "cb").capacity
    assert c == 2.914285714285714
    assert scn.cost_recovering_price < _covered_energy(scn, c)[0] == 2.35
    calls = []
    demand = markets.aggregate_demand_cb
    monkeypatch.setattr(markets, "aggregate_demand_cb",
                        lambda s, pi: calls.append(pi) or demand(s, pi))
    clearing = clear_cb(scn, c)
    assert clearing.price == 2.35 and clearing.demand_residual == 0.0
    assert len(calls) <= 3


@settings(max_examples=50, deadline=None)
@given(scenarios(), st.floats(0.2, 1.5))
def test_clear_cb_certifies_its_price(scn, share):
    # at the long-run capacity, the demand at pi*, two evaluations
    # certify pi* wherever demand falls past it.  Where every buyer rents
    # the cut of an atom, demand is flat from pi* up to A(c) at least, and
    # pi* lies below the price bracket [A(c), A(c) + eps v_bar B(c)].
    c_cb = solve_ne(scn, "cb").capacity
    pi_star = scn.cost_recovering_price
    a, b = _covered_energy(scn, c_cb)
    top = a + scn.premium.epsilon * scn.premium.v_bar * b
    clearing, demands = _clear_recorded(scn, c_cb)
    past = pi_star * (1.0 + 0.5 * X_RTOL)
    if a < pi_star < top and markets.aggregate_demand_cb(scn, past) < c_cb:
        assert list(demands) == [pi_star, past]
        assert clearing.price == pi_star and clearing.demand_residual == 0.0
    # elsewhere the tried prices hold a final bracket no wider than the
    # tolerance, demand reaching c at its lower end and not at its upper
    # end, and the price is the end where demand is nearer c, with its
    # residual (the same demands, so no rounding in between can blur it)
    c = min(share * c_cb, 0.9 * _demand_bound(scn))
    clearing, demands = _clear_recorded(scn, c)
    lo = max(p for p, d in demands.items() if d >= c)
    hi = min(p for p, d in demands.items() if d < c)
    assert lo < hi and (hi - lo <= X_RTOL * hi or np.nextafter(lo, hi) == hi)
    gaps = {p: demands[p] - c for p in (lo, hi)}
    assert clearing.price in gaps
    assert clearing.demand_residual == gaps[clearing.price]
    assert abs(clearing.demand_residual) == min(map(abs, gaps.values()))


def test_clear_cb_tries_the_kink_at_the_zero_premium_choke_value(desk):
    # At half its long-run capacity desk clears at 0.5, the zero-premium
    # buyer's choke value A(0), where demand kinks: bisection took 46
    # demand evaluations there.
    clearing, demands = _clear_recorded(desk, 0.5 * solve_ne(desk, "cb").capacity)
    assert clearing.price == pytest.approx(0.5, rel=1e-13, abs=0.0)
    assert len(demands) <= 3


@pytest.mark.parametrize("share", [0.9, 1.0, 1.1])
def test_clear_cb_at_scale_0_takes_two_evaluations(share):
    # the bracket is the point A(c); growing it eightfold and bisecting
    # back took 7 or 8 demand evaluations
    scn = desk_scenario(epsilon=0.0)
    c = share * solve_ne(scn, "cb").capacity
    clearing, demands = _clear_recorded(scn, c)
    assert len(demands) <= 2
    assert clearing.price == pytest.approx(
        float(cb_unit_value(scn, 0.0, c)), rel=X_RTOL, abs=0.0)


def test_clear_cb_reads_demand_at_its_untried_lower_end():
    # At a tiny premium scale pi* is clamped to the top of the bracket
    # [A(c), A(c) + eps v_bar B(c)], where demand falls short of c; the
    # search then ends at A(c), the one end no try has measured, and
    # clear_cb reads the demand there.
    scn = desk_scenario(epsilon=1e-15)
    c = 2.0 * solve_ne(scn, "cb").capacity
    a, b = _covered_energy(scn, c)
    top = a + scn.premium.epsilon * scn.premium.v_bar * b
    calls = []
    demand = markets.aggregate_demand_cb
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(markets, "aggregate_demand_cb",
                      lambda s, pi: calls.append(pi) or demand(s, pi))
        clearing = clear_cb(scn, c)
    assert len(calls) == 2 and calls[1] == a
    assert a <= clearing.price <= top
    assert abs(clearing.demand_residual) <= markets.CB_CLEARING_RTOL * c
