"""The covered-energy searches run in linearizing coordinates.

``_cb_demand_profile`` and the real-time zero-profit solve hand the
level-set search ``-1/sqrt(y)`` instead of the values ``y``.  The
property tests hold both to a plain bisection on the untransformed
values; the count guards pin the evaluations the transform saves.
"""

import ast
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solarmkt import (GenerationDistribution, PeriodProfile,
                      PremiumDistribution, Scenario, aggregate_demand_cb,
                      check_viability, clear_cb, cb_unit_value, solve_ne,
                      unit_revenue_rt)
import solarmkt
from solarmkt import markets
from solarmkt.markets import _cb_demand_profile
from solarmkt.numerics import X_RTOL
from conftest import random_tabulated_generation


def _bisect_sup(value, targets, scale: float) -> np.ndarray:
    """Largest x >= 0 with value(x) >= target, by plain bisection.

    The upper end doubles from ``scale`` until every value is below its
    target; the bracket then halves until no float lies between its ends.
    """
    targets = np.asarray(targets, dtype=float)
    lo = np.zeros(targets.shape)
    hi = np.full(targets.shape, scale)
    while np.any(value(hi) >= targets):
        hi *= 2.0
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        open_ = (mid > lo) & (mid < hi)
        if not open_.any():
            break
        above = value(mid) >= targets
        lo = np.where(open_ & above, mid, lo)
        hi = np.where(open_ & ~above, mid, hi)
    return lo


@contextmanager
def _recorded_searches():
    """Wrap the level-set search of markets, which every capacity search
    (the cb demand and the real-time zero-profit solve) goes through.

    Yields a list that collects (target ndim, evaluations) per search,
    and asserts that no NaN reaches a search as a target or a value.
    """
    searches = []

    def recording(search):
        def wrapped(fn, targets, lo, hi, **values):
            assert not np.any(np.isnan(targets))

            def checked(x):
                y = fn(x)
                assert not np.any(np.isnan(y))
                return y

            out = search(checked, targets, lo, hi, **values)
            searches.append((np.ndim(targets), out[2]))
            return out
        return wrapped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(markets, "sup_level_set",
                      recording(markets.sup_level_set))
        yield searches


@st.composite
def scenarios(draw):
    """A viable 1-3 period scenario, with or without a dark period."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periods = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["uniform0", "uniform_lo", "tabulated"]))
        hi = rng.uniform(0.3, 3.0)
        if kind == "uniform0":
            gen = GenerationDistribution.uniform(0.0, hi)
        elif kind == "uniform_lo":
            gen = GenerationDistribution.uniform(rng.uniform(0.05, 0.8) * hi, hi)
        else:
            gen = random_tabulated_generation(rng)
        periods.append(PeriodProfile(load=rng.uniform(0.5, 20.0),
                                     utility_price=rng.uniform(0.2, 2.0),
                                     generation=gen,
                                     weight=rng.uniform(0.5, 2.0)))
    if draw(st.booleans()):
        periods.append(PeriodProfile(
            load=rng.uniform(0.5, 20.0), utility_price=rng.uniform(0.2, 2.0),
            generation=GenerationDistribution.point_mass(0.0),
            weight=rng.uniform(0.5, 2.0)))
    prem_kind = draw(st.sampled_from(["uniform", "exponential", "empirical"]))
    epsilon = rng.uniform(0.05, 1.0)
    if prem_kind == "uniform":
        prem = PremiumDistribution.uniform(rng.uniform(0.05, 1.2), epsilon)
    elif prem_kind == "exponential":
        prem = PremiumDistribution.truncated_exponential(
            rng.uniform(1.0, 30.0), rng.uniform(0.05, 1.0), epsilon)
    else:
        samples = rng.gamma(rng.uniform(0.5, 3.0), 0.2,
                            int(rng.integers(30, 301)))
        prem = PremiumDistribution.empirical(samples, epsilon)
    scn = Scenario(periods=tuple(periods), premium=prem, pi0=1.0,
                   t_tilde=rng.uniform(0.5, 3.0))
    _, margin = check_viability(scn)
    return scn.with_pi0(rng.uniform(0.15, 0.85) * (margin + 1.0))


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.floats(0.1, 0.95))
def test_cb_demands_match_bisection_on_the_values(scn, share):
    prem = scn.premium
    vs = np.unique(np.concatenate((
        prem.quantile(np.linspace(0.0, 1.0, 9)),
        prem.epsilon * prem.quantiles if prem.kind == "empirical" else [])))
    pi = share * float(cb_unit_value(scn, prem.epsilon * prem.v_bar, 0.0))
    with _recorded_searches() as searches:
        got = _cb_demand_profile(scn, vs, pi)
    assert searches

    choke = cb_unit_value(scn, vs, 0.0)
    priced = choke >= pi
    want = np.zeros(vs.shape)
    want[priced] = _bisect_sup(
        lambda d: cb_unit_value(scn, vs[priced], d), np.full(
            int(priced.sum()), pi), scn.capacity_scale)
    assert np.all(got[~priced] == 0.0)
    np.testing.assert_allclose(got[priced], want[priced], rtol=2 * X_RTOL,
                               atol=0.0)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_real_time_capacities_match_bisection_on_the_revenue(scn):
    for mechanism in ("srt", "prt"):
        with _recorded_searches() as searches:
            got = solve_ne(scn, mechanism)
        assert got.viable and len(searches) == 1
        want = _bisect_sup(
            lambda c: unit_revenue_rt(scn, mechanism, float(c)), scn.pi0,
            scn.capacity_scale)
        assert got.capacity == pytest.approx(float(want), rel=2 * X_RTOL,
                                             abs=0.0)


# ------------------------------------------------------------ count guards

def _empirical_desk() -> Scenario:
    """One uniform period on [0, 1] with a 64-sample empirical premium."""
    samples = 0.6 * np.random.default_rng(0).beta(2.0, 2.0, 64)
    period = PeriodProfile(load=1.0, utility_price=1.0,
                           generation=GenerationDistribution.uniform(0.0, 1.0))
    return Scenario(periods=(period,),
                    premium=PremiumDistribution.empirical(samples),
                    pi0=0.125, t_tilde=1.0)


@pytest.mark.parametrize("name", ["desk", "empirical"])
def test_cb_demand_search_takes_at_most_12_evaluations(desk, name):
    # In the value coordinates these searches took 16 (desk) and 49.
    scn = desk if name == "desk" else _empirical_desk()
    with _recorded_searches() as searches:
        aggregate_demand_cb(scn, scn.pi0 * scn.horizon / scn.t_tilde)
    # desk's two premium knots are two plain-float searches; the table's
    # 64 knots share one array search
    assert [ndim for ndim, _ in searches] == ([0, 0] if name == "desk" else [1])
    assert all(evals <= 12 for _, evals in searches)


def test_desk_prt_solve_takes_at_most_10_evaluations(desk):
    # 12 in the value coordinates
    assert solve_ne(desk, "prt").iterations <= 10


def test_cb_clearing_inner_searches_take_at_most_250_evaluations():
    # 548 in the value coordinates
    scn = _empirical_desk()
    c = solve_ne(scn, "cb").capacity
    with _recorded_searches() as searches:
        clear_cb(scn, c)
    inner = [evals for ndim, evals in searches if ndim == 1]
    assert inner and sum(inner) <= 250


def test_a_demand_that_reaches_zero_value_stays_finite():
    # uniform output on [0.5, 1]: a unit beyond L/0.5 covers nothing, so
    # the search meets A + v B == 0, which the transform maps to -inf
    period = PeriodProfile(load=1.0, utility_price=1.0,
                           generation=GenerationDistribution.uniform(0.5, 1.0))
    scn = Scenario(periods=(period,), premium=PremiumDistribution.uniform(0.6),
                   pi0=0.125, t_tilde=1.0)
    vs = np.array([0.0, 0.3, 0.6])
    # the first growth of the search's upper end lands there
    assert np.all(cb_unit_value(scn, vs, 8.0 * scn.capacity_scale) == 0.0)
    got = _cb_demand_profile(scn, vs, 0.01)
    want = _bisect_sup(lambda d: cb_unit_value(scn, vs, d),
                       np.full(3, 0.01), scn.capacity_scale)
    np.testing.assert_allclose(got, want, rtol=2 * X_RTOL, atol=0.0)
    assert np.all(got < 2.0)


# ----------------------------------------------------------------- the guard

def test_capacity_search_has_one_buyer_demand_caller():
    # a cb buyer's demand is searched in one routine, and the real-time
    # zero-profit solve is the same search: no second demand routine
    callers = []
    for path in sorted(Path(solarmkt.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers += [f"{path.stem}.{getattr(top, 'name', '<module>')}"
                        for node in ast.walk(top)
                        if getattr(node, "id", getattr(node, "attr", None))
                        == "_capacity_search"]
    assert sorted(callers) == ["equilibrium._solve_characteristic",
                               "markets._cb_demand_profile"]
