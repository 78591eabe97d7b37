"""A sweep's points share one contract-market breakpoint search.

``equilibrium._solve_sweep`` solves the points that a premium-scale or
capital-cost sweep derives from one scenario.  The demands of every
point's positive premium knots at its pi* are one search (plain floats
per knot for at most two knots, one array search for all table knots),
an epsilon sweep solves ``srt`` once, and every result is the same bits
as a fresh ``solve_all`` of its point.  The ``srt`` capacity is the
zero-premium buyer's demand at pi*, bit for bit, so ``cb`` reads it for
its zero knot, and at scale 0 ``prt`` and ``opt`` are that search
relabelled.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solarmkt import (PremiumDistribution, check_viability, equilibrium,
                     markets, ordering_report, solve_all, solve_ne)
from solarmkt.cli import DEFAULT_EPSILON_GRID
from solarmkt.equilibrium import _solve_sweep
from conftest import random_empirical_premium, random_scenario
from test_brackets import scenarios

#: The desk workload's epsilon sweep.
DESK_EPSILON_SWEEP = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


@settings(max_examples=30, deadline=None)
@given(scenarios(),
       st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
       st.lists(st.floats(0.2, 1.5), min_size=1, max_size=3))
def test_a_sweep_is_its_fresh_solves_bit_for_bit(scn, scales, shares):
    sweeps = {"epsilon": (scn.with_epsilon, [0.0, *scales]),
              "pi0": (scn.with_pi0, [share * scn.pi0 for share in shares])}
    for param, (derive, values) in sweeps.items():
        got = _solve_sweep(scn, param, values)
        want = [solve_all(derive(v)) for v in values]
        # repr round-trips every float, so equal reprs are equal bits
        assert repr(got) == repr(want), param


@pytest.mark.parametrize("param,mechanisms", [("epsilon", ("cb", "xyz")),
                                              ("xyz", ("cb",))])
def test_a_sweep_checks_its_names_before_solving(desk, search_calls, param,
                                                 mechanisms):
    with pytest.raises(ValueError, match="unknown"):
        _solve_sweep(desk, param, [0.5], mechanisms)
    assert not search_calls


def _empirical():
    rng = np.random.default_rng(4)
    return replace(random_scenario(rng, 0.6),
                   premium=random_empirical_premium(rng, 0.6))


def test_ordering_report_searches_table_breakpoints_once(search_calls):
    # four positive grid scales and the two of gap_k: one array search
    # for all of their table knots (six, one per scale, before)
    report = ordering_report(_empirical(), DEFAULT_EPSILON_GRID)
    assert report.gap_k is not None
    assert search_calls["array"] == 1


def test_analytic_premium_reports_make_no_array_search(desk, search_calls):
    ordering_report(desk, DEFAULT_EPSILON_GRID)
    assert search_calls["float"] and not search_calls["array"]


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_srt_is_the_zero_premium_buyers_demand_at_pi_star(scn):
    # pi0 shares of the viability threshold period_scale A(0); those
    # past 1 leave srt, and the zero-premium buyer, out of the market
    _, margin = check_viability(scn)
    threshold = scn.pi0 + margin
    for share in (0.2, 0.6, 0.95, 1.0, 1.05, 1.5, 3.0):
        point = scn.with_pi0(share * threshold)
        srt = solve_ne(point, "srt")
        demand = markets._cb_demand_profile(point, 0.0,
                                            point.cost_recovering_price)
        # repr round-trips every float, so equal reprs are equal bits
        assert repr(srt.capacity) == repr(demand)
        if share > 1.0:
            assert not srt.viable and repr(srt.capacity) == "0.0"


def _capacity_searches(monkeypatch) -> list:
    """Records each ``markets._capacity_search`` call, the one search of
    the real-time designs (through ``equilibrium``'s import of it) and
    of a ``cb`` buyer's demand."""
    calls = []
    search = markets._capacity_search

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(markets, "_capacity_search", counted)
    monkeypatch.setattr(equilibrium, "_capacity_search", counted)
    return calls


def test_desk_capacity_search_counts(desk, monkeypatch):
    calls = _capacity_searches(monkeypatch)
    # srt, prt and the top premium knot of cb, whose zero knot is srt's
    # search (opt reads prt's)
    solve_all(desk)
    assert len(calls) == 3
    calls.clear()
    # the same three per point of a capital-cost sweep
    _solve_sweep(desk, "pi0", [0.05, 0.075, 0.1, 0.125, 0.15])
    assert len(calls) == 15


def test_an_epsilon_sweep_solves_srt_once(desk, search_calls, monkeypatch):
    solved = Counter()
    solve = equilibrium._solve_characteristic
    monkeypatch.setattr(equilibrium, "_solve_characteristic",
                        lambda scn, m: solved.update([m]) or solve(scn, m))
    _solve_sweep(desk, "epsilon", DESK_EPSILON_SWEEP)
    # one srt search (eight before), which prt reads at scale 0, and prt
    # per positive value
    assert solved == Counter(srt=1, prt=len(DESK_EPSILON_SWEEP) - 1)
    search_calls.clear()
    _solve_sweep(desk.with_pi0(0.1), "epsilon", DESK_EPSILON_SWEEP, ("srt",))
    assert search_calls == Counter(float=1)
    # a capital-cost sweep moves pi*, so srt is its own search per value
    solved.clear()
    _solve_sweep(desk, "pi0", [0.05, 0.1, 0.125], ("srt", "cb"))
    assert solved == Counter(srt=3)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_prt_at_scale_0_is_its_own_search_relabelled(scn):
    searched = equilibrium._solve_characteristic(scn.with_epsilon(0.0), "prt")
    for m in ("prt", "opt"):
        got = solve_ne(scn.with_epsilon(0.0), m)
        assert got.mechanism == m
        # repr round-trips every float, so equal reprs are equal bits
        assert repr(replace(got, mechanism="prt")) == repr(searched)


def test_prt_at_scale_0_reads_the_srt_search(desk, search_calls):
    zero = desk.with_epsilon(0.0)
    srt = solve_ne(zero, "srt")
    search_calls.clear()
    assert solve_ne(zero, "prt") == replace(srt, mechanism="prt")
    assert solve_ne(zero, "opt") == replace(srt, mechanism="opt")
    assert not search_calls


def _knot_searches(monkeypatch):
    """The (premium, price) pairs each ``_cb_demand_profile`` call
    searches, one list per call."""
    calls = []
    profile = markets._cb_demand_profile

    def recorded(scenario, v, pi):
        pairs = np.broadcast_arrays(np.atleast_1d(v), pi)
        calls.append(list(zip(*(a.tolist() for a in pairs))))
        return profile(scenario, v, pi)

    monkeypatch.setattr(markets, "_cb_demand_profile", recorded)
    return calls


@pytest.mark.parametrize("premium", [
    PremiumDistribution.uniform(0.6),
    PremiumDistribution.truncated_exponential(12.0, 0.6)])
def test_a_two_knot_sweep_reads_the_zero_premium_knot_from_srt(
        desk, monkeypatch, premium):
    calls = _knot_searches(monkeypatch)
    scn = replace(desk, premium=premium)
    _solve_sweep(scn, "epsilon", DESK_EPSILON_SWEEP, ("cb",))
    pairs = [pair for call in calls for pair in call]
    pi = scn.cost_recovering_price
    # one float search per call, the top knot of each positive scale: the
    # zero-premium buyer's demand is the sweep's one srt search
    assert all(len(call) == 1 for call in calls)
    assert pairs == [(e * premium.v_bar, pi)
                     for e in DESK_EPSILON_SWEEP if e > 0.0]


def test_a_table_sweep_searches_each_knot_pair_once(monkeypatch):
    calls = _knot_searches(monkeypatch)
    scn = _empirical()
    _solve_sweep(scn, "epsilon", [0.25, 0.5, 1.0], ("cb",))
    (pairs,) = calls
    knots = scn.premium.knots.size
    # the positive knots of each scale; the zero knot is srt's search
    assert len(pairs) == len(set(pairs)) == 3 * (knots - 1)
