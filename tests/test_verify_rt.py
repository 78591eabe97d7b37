"""Property tests of the real-time equilibrium verification.

The library checks every draw of a period in one array pass and
evaluates each buyer's deviation only at the ends of the deviation
grid, for the two buyer types next to the threshold.  The oracle here
is the direct check: clear each draw with ``clear_rt`` and take the
best point of the full deviation grid for every buyer type.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solarmkt import PremiumDistribution, clear_rt, solve_ne, verify_ce
from solarmkt.markets import _clear_rt_draws
from conftest import desk_scenario, random_scenario


def _oracle_verify_rt(scenario, mechanism, c, sample_count, grid_size, rng,
                      price_perturbation):
    """Per-draw clearing and a full buyers-by-grid deviation matrix.

    Gains are divided by the period's backstop bill, load times utility
    price, and clearing violations by the load, as in ``verify_ce``.
    """
    prem = scenario.premium
    p_grid = np.linspace(0.0, 1.0, grid_size)
    buyer_vs = np.asarray(prem.quantile(p_grid), dtype=float)
    max_gain = 0.0
    max_clear = 0.0
    for index, period in enumerate(scenario.periods):
        load = period.load
        q_dev = np.linspace(0.0, load, grid_size)
        draws = period.generation.sample(rng, sample_count)
        v_eff = buyer_vs if mechanism == "prt" else np.zeros_like(buyer_vs)
        for g in draws:
            outcome = clear_rt(scenario, index, mechanism, c, g)
            price = outcome.price * (1.0 + price_perturbation)
            supply = c * g
            if outcome.regime == "abundant":
                assigned = np.full_like(buyer_vs, load)
                clear_violation = 0.0
            elif mechanism == "srt":
                assigned = np.full_like(buyer_vs, supply)
                clear_violation = 0.0
            else:
                thr = outcome.buyer_threshold
                assigned = np.where(buyer_vs >= thr, load, 0.0)
                served_lo = load * float(prem.survival(thr, weak=False))
                served_hi = load * float(prem.survival(thr, weak=True))
                clear_violation = max(0.0, served_lo - supply,
                                      supply - served_hi) / load
            dev = (v_eff[:, None] - price) * q_dev[None, :] \
                - period.utility_price * (load - q_dev)[None, :]
            held = (v_eff - price) * assigned \
                - period.utility_price * (load - assigned)
            bill = load * period.utility_price
            max_gain = max(max_gain,
                           float((dev.max(axis=1) - held).max()) / bill)
            seller_best = price * supply if price > 0.0 else 0.0
            max_gain = max(max_gain,
                           (seller_best - price * outcome.seller_quantity) / bill)
            max_clear = max(max_clear, clear_violation)
    return max_gain, max_clear


@st.composite
def rt_cases(draw):
    """A random 1-3 period scenario, a real-time mechanism, a capacity at
    or off its equilibrium, a price perturbation and a grid size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scn = random_scenario(rng, 1.0, draw(st.sampled_from(["uniform",
                                                          "tabulated"])),
                          n_periods=draw(st.integers(1, 3)))
    prem_kind = draw(st.sampled_from(["uniform", "texp", "empirical"]))
    if prem_kind == "uniform":
        prem = PremiumDistribution.uniform(rng.uniform(0.05, 1.2))
    elif prem_kind == "texp":
        prem = PremiumDistribution.truncated_exponential(
            rng.uniform(1.0, 60.0), rng.uniform(0.05, 1.0))
    else:
        samples = rng.gamma(rng.uniform(0.5, 3.0), 0.2,
                            int(rng.integers(2, 200)))
        prem = PremiumDistribution.empirical(samples)
    scn = replace(scn, premium=prem)
    mechanism = draw(st.sampled_from(["srt", "prt"]))
    capacity = solve_ne(scn, mechanism).capacity
    capacity *= draw(st.sampled_from([1.0, 0.5, 1.7]))
    perturbation = draw(st.sampled_from([0.0, 0.01, -0.01]))
    grid_size = draw(st.sampled_from([2, 7, 201]))
    return scn, mechanism, capacity, perturbation, grid_size


@settings(max_examples=25, deadline=None)
@given(rt_cases(), st.integers(0, 2**16))
def test_verify_rt_matches_per_draw_grid_oracle(case, seed):
    scn, mechanism, c, perturbation, grid_size = case
    samples = 150
    report = verify_ce(scn, mechanism, c, samples, grid_size, seed=seed,
                       price_perturbation=perturbation)
    gain, clear = _oracle_verify_rt(scn, mechanism, c, samples, grid_size,
                                    np.random.default_rng(seed), perturbation)
    top = scn.premium.epsilon * scn.premium.v_bar
    scale = max([1.0] + [(p.utility_price + top) / p.utility_price
                         for p in scn.periods])
    assert report.max_deviation_gain == pytest.approx(gain, abs=1e-12 * scale)
    assert report.max_clearing_violation == pytest.approx(clear, abs=1e-15)
    assert report.passed == (gain <= report.tolerance
                             and clear <= report.tolerance)


@settings(max_examples=25, deadline=None)
@given(rt_cases(), st.integers(0, 2**16))
def test_draw_kernel_matches_clear_rt_per_draw(case, seed):
    scn, mechanism, c, _, _ = case
    for index, period in enumerate(scn.periods):
        draws = period.generation.sample(np.random.default_rng(seed), 40)
        if c > 0.0:  # a dark draw and one with c*g at the load
            draws = np.append(draws, [0.0, period.load / c])
        abundant, price, quantity, served, thr = _clear_rt_draws(
            scn, period, mechanism, c, draws)
        for k, g in enumerate(draws):
            out = clear_rt(scn, index, mechanism, c, g)
            assert (out.regime == "abundant") == abundant[k]
            assert out.price == price[k]
            assert out.seller_quantity == quantity[k]
            assert out.served_fraction == served[k]
            if out.buyer_threshold is None:
                assert thr is None or np.isnan(thr[k])
            else:
                assert out.buyer_threshold == thr[k]


def test_supply_equal_to_load_counts_as_limited():
    desk = desk_scenario()
    abundant, price, quantity, served, thr = _clear_rt_draws(
        desk, desk.periods[0], "prt", 2.0, np.array([0.5, 0.5000001]))
    assert abundant.tolist() == [False, True]
    assert served.tolist() == [1.0, 1.0]
    assert price.tolist() == [1.0, 0.0]
    assert thr[0] == 0.0 and np.isnan(thr[1])
