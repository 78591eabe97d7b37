"""Two-period oracle scenario, worked fully by hand.

Period 1: load 1, backstop price 1, output U(0, 1), weight 1.
Period 2: load 2, backstop price 0.5, output U(0, 2), weight 1.
Lifetime scale 2 (so the per-period averaging factor is exactly 1),
capital cost 0.0625, base premiums U(0, 0.6).

Hand derivations (for capacities c >= 1 both scarcity cuts are interior):
  mu_1(c) = 1/(2 c^2),  mu_2(c) = 1/c^2
  pooled equation:      1/c^2 = 0.0625          -> c_srt = 4
  premium terms:        0.1/c^2 and 0.2/c^2
  differentiated eq.:   1.3/c^2 = 0.0625        -> c_prt = sqrt(20.8)
  rental value:         w_v(d) = (1 + 1.5 v)/d^2,  price target 0.0625
  per-buyer demand:     4 sqrt(1 + 1.5 v)
  aggregate:            (8/2.7) (1.9^1.5 - 1)   ~= 4.7969460
  slope terms at c0=4:  A = 0.00625 + 0.0125 = 0.01875
                        D = 1*(-1/64) + 0.5*(-1/32) = -0.03125
  slopes:               prt 0.6,  cb 0.3*(1/32 + 1/16)/0.03125 = 0.9
  beta:                 (1/3) A / ((5/3) |D|) = 0.12
Summing per-period slope ratios instead of taking the ratio of sums
would give a cb slope of 1.8; the finite-difference check below pins
the correct value at 0.9.
"""

import numpy as np
import pytest

from solarmkt import (GenerationDistribution, PeriodProfile,
                      PremiumDistribution, Scenario, expansion_coefficients,
                      revenue_rt, solve_ne, verify_ce, welfare)

C_SRT = 4.0
C_PRT = np.sqrt(20.8)
C_CB = (8.0 / 2.7) * (1.9 ** 1.5 - 1.0)


def two_period_scenario(epsilon: float = 1.0) -> Scenario:
    periods = (
        PeriodProfile(load=1.0, utility_price=1.0,
                      generation=GenerationDistribution.uniform(0.0, 1.0)),
        PeriodProfile(load=2.0, utility_price=0.5,
                      generation=GenerationDistribution.uniform(0.0, 2.0)),
    )
    return Scenario(periods=periods,
                    premium=PremiumDistribution.uniform(0.6, epsilon=epsilon),
                    pi0=0.0625, t_tilde=2.0)


@pytest.fixture
def hetero() -> Scenario:
    return two_period_scenario()


def test_revenues_at_base_capacity(hetero):
    assert revenue_rt(hetero, "srt", 4.0) == pytest.approx(0.25, abs=1e-12)
    assert revenue_rt(hetero, "prt", 4.0) == pytest.approx(0.325, abs=1e-12)


def test_capacities_match_hand_values(hetero):
    assert solve_ne(hetero, "srt").capacity == pytest.approx(C_SRT, rel=1e-9)
    assert solve_ne(hetero, "prt").capacity == pytest.approx(C_PRT, rel=1e-9)
    assert solve_ne(hetero, "cb").capacity == pytest.approx(C_CB, rel=1e-8)
    assert solve_ne(hetero, "opt").capacity == \
        solve_ne(hetero, "prt").capacity


def test_orderings(hetero):
    assert C_SRT < C_PRT < C_CB


def test_slopes_match_hand_values(hetero):
    coeffs = expansion_coefficients(hetero)
    assert coeffs.prt_slope == pytest.approx(0.6, abs=1e-9)
    assert coeffs.cb_slope == pytest.approx(0.9, abs=1e-9)
    assert coeffs.beta == pytest.approx(0.12, abs=1e-9)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_slopes_match_finite_differences(hetero, eps):
    c0 = solve_ne(hetero, "srt").capacity
    scaled = two_period_scenario(epsilon=eps)
    fd_prt = (solve_ne(scaled, "prt").capacity - c0) / eps
    fd_cb = (solve_ne(scaled, "cb").capacity - c0) / eps
    coeffs = expansion_coefficients(hetero)
    assert coeffs.prt_slope == pytest.approx(fd_prt, rel=5 * eps)
    assert coeffs.cb_slope == pytest.approx(fd_cb, rel=5 * eps)
    # the per-period ratio sum (1.8) is firmly ruled out
    assert abs(fd_cb - 1.8) > 0.8


def test_no_premium_collapse():
    scn = two_period_scenario(epsilon=0.0)
    caps = [solve_ne(scn, m).capacity for m in ("srt", "prt", "cb", "opt")]
    assert max(caps) - min(caps) <= 1e-9 * max(caps)
    assert caps[0] == pytest.approx(4.0, rel=1e-9)


def test_welfare_argmax_at_differentiated_capacity(hetero):
    grid = np.linspace(1e-6, 2.0 * C_PRT, 500)
    vals = np.array([welfare(hetero, c) for c in grid])
    assert np.diff(vals, 2).max() <= 1e-8
    assert abs(grid[int(np.argmax(vals))] - C_PRT) <= grid[1] - grid[0]


@pytest.mark.parametrize("mechanism", ["srt", "prt", "cb"])
def test_equilibria_verify_across_periods(hetero, mechanism):
    capacity = solve_ne(hetero, mechanism).capacity
    report = verify_ce(hetero, mechanism, capacity, 300, 201, seed=19)
    assert report.passed
