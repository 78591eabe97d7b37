"""Expansion constants, flatness fits, and the ordering report."""

import logging

import numpy as np
import pytest

from solarmkt import (DerivativeSingularError, ExpansionCoefficients,
                      GenerationDistribution, PeriodProfile,
                      PremiumDistribution, Scenario, expansion_coefficients,
                      flatness_fit, lambda_ratio, ordering_report, solve_ne)
from conftest import DESK, desk_scenario, random_scenario


# --------------------------------------------------------------------- slopes

def test_prt_slope_desk_closed_form(desk):
    coeffs = expansion_coefficients(desk)
    assert coeffs.prt_slope == pytest.approx(DESK["prt_slope"], abs=1e-9)


def test_cb_slope_desk_closed_form(desk):
    coeffs = expansion_coefficients(desk)
    assert coeffs.cb_slope == pytest.approx(DESK["cb_slope"], abs=1e-9)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_slopes_match_finite_differences(desk, eps):
    # oracle: forward difference of the actually solved capacities
    c0 = solve_ne(desk, "srt").capacity
    fd_prt = (solve_ne(desk.with_epsilon(eps), "prt").capacity - c0) / eps
    fd_cb = (solve_ne(desk.with_epsilon(eps), "cb").capacity - c0) / eps
    coeffs = expansion_coefficients(desk)
    assert coeffs.prt_slope == pytest.approx(fd_prt, rel=5 * eps)
    assert coeffs.cb_slope == pytest.approx(fd_cb, rel=5 * eps)


def test_slopes_vanish_for_degenerate_premiums():
    # a premium without spread cannot be built: scale 0 says "no
    # premium".  There the premium terms, slopes times the scale, vanish
    # and every design solves to the srt capacity, while the slopes, the
    # derivatives in the scale, read only the base premium.
    with pytest.raises(ValueError, match="v_bar must be positive"):
        PremiumDistribution.uniform(0.0)
    period = PeriodProfile(load=1.0, utility_price=1.0,
                           generation=GenerationDistribution.uniform(0.0, 1.0))
    scn = Scenario(periods=(period,),
                   premium=PremiumDistribution.uniform(0.6, epsilon=0.0),
                   pi0=0.125, t_tilde=1.0)
    c0 = solve_ne(scn, "srt").capacity
    for mechanism in ("prt", "cb", "opt"):
        assert solve_ne(scn, mechanism).capacity == pytest.approx(c0, rel=1e-12)
    assert expansion_coefficients(scn) == expansion_coefficients(
        scn.with_epsilon(1.0))


@pytest.mark.parametrize("make", [
    desk_scenario,
    lambda: random_scenario(np.random.default_rng(3), 0.8, "tabulated", 2)],
    ids=["desk", "tabulated"])
def test_expansion_point_is_the_stored_srt_solve(make, search_calls):
    # both read c0 off the scenario's own srt solve: one float search
    # between them on a fresh scenario, none once srt is solved
    fresh = make()
    coeffs, flatness = expansion_coefficients(fresh), flatness_fit(fresh)
    assert search_calls == {"float": 1}
    assert coeffs.c0 == solve_ne(fresh, "srt").capacity
    solved = make()
    solve_ne(solved, "srt")
    search_calls.clear()
    assert expansion_coefficients(solved) == coeffs
    assert flatness_fit(solved) == flatness
    assert not search_calls


def test_slopes_singular_without_boundary_density():
    # a pure point-mass output has no density at the scarcity boundary
    period = PeriodProfile(load=1.0, utility_price=1.0,
                           generation=GenerationDistribution.point_mass(0.5))
    scn = Scenario(periods=(period,),
                   premium=PremiumDistribution.uniform(0.3), pi0=0.2,
                   t_tilde=1.0)
    with pytest.raises(DerivativeSingularError):
        expansion_coefficients(scn)


def test_slope_heterogeneous_zero_period_neutral(desk):
    night = PeriodProfile(load=1.0, utility_price=1.0,
                          generation=GenerationDistribution.point_mass(0.0))
    doubled = Scenario(periods=desk.periods + (night,), premium=desk.premium,
                       pi0=desk.pi0, t_tilde=2.0)
    coeffs = expansion_coefficients(doubled)
    assert coeffs.prt_slope == pytest.approx(DESK["prt_slope"], abs=1e-9)
    assert coeffs.cb_slope == pytest.approx(DESK["cb_slope"], abs=1e-9)


# --------------------------------------------------------------------- lambda

def test_lambda_uniform_premium_exact():
    assert lambda_ratio(PremiumDistribution.uniform(0.6)) == pytest.approx(
        2.0 / 3.0, abs=1e-12)


def test_lambda_in_unit_interval():
    for prem in (PremiumDistribution.truncated_exponential(3.0, 0.5),
                 PremiumDistribution.truncated_exponential(40.0, 0.2),
                 PremiumDistribution.uniform(1.0)):
        lam = lambda_ratio(prem)
        assert 0.0 < lam < 1.0


def test_lambda_scale_invariant():
    base = PremiumDistribution.truncated_exponential(8.0, 0.4, epsilon=1.0)
    for eps in (0.1, 0.5, 2.0):
        assert lambda_ratio(base.with_epsilon(eps)) == pytest.approx(
            lambda_ratio(base), abs=1e-14)


def test_lambda_rejects_degenerate():
    # a premium without spread, where lambda is undefined, is not built
    with pytest.raises(ValueError, match="v_bar must be positive"):
        lambda_ratio(PremiumDistribution.uniform(0.0))


# ----------------------------------------------------------------------- beta

def test_beta_desk_closed_form(desk):
    coeffs = expansion_coefficients(desk)
    assert coeffs.beta == pytest.approx(DESK["beta"], abs=1e-9)


def test_beta_below_slope_gap(desk):
    coeffs = expansion_coefficients(desk)
    assert coeffs.cb_slope - coeffs.prt_slope >= coeffs.beta - 1e-12


def test_beta_positive_and_vanishing_with_premium_cap(desk):
    last = None
    for v_bar in (0.6, 0.1, 0.01, 0.001):
        scn = Scenario(periods=desk.periods,
                       premium=PremiumDistribution.uniform(v_bar),
                       pi0=desk.pi0, t_tilde=1.0)
        beta = expansion_coefficients(scn).beta
        assert beta > 0.0
        if last is not None:
            assert beta < last
        last = beta
    assert last < 1e-4


def test_slope_gap_dominates_beta_for_flat_densities():
    rng = np.random.default_rng(23)
    for _ in range(6):
        scn = random_scenario(rng, epsilon=0.3, gen_kind="uniform",
                              n_periods=1)
        coeffs = expansion_coefficients(scn)
        assert coeffs.cb_slope - coeffs.prt_slope >= coeffs.beta - 1e-10


def test_expansion_coefficient_validation():
    with pytest.raises(ValueError):
        ExpansionCoefficients(c0=1.0, prt_slope=0.1, cb_slope=0.2, lam=1.2,
                              beta=0.1)


# ------------------------------------------------------------------- flatness

def test_flatness_uniform_density_is_exactly_flat(desk):
    report = flatness_fit(desk)
    assert report.delta == 0.0
    assert report.r0 == (1.0,)


def test_flatness_tabulated_grid_scan_oracle():
    # the density is linear between grid nodes, so its band on the
    # window (0, 1/c_srt] is that of the nodes inside and the window's end
    grid = np.linspace(0.0, 2.0, 513)
    dens = 0.4 + 0.1 * np.sin(grid * 3.0)
    gen = GenerationDistribution.from_density_grid(grid, dens, normalize=True)
    period = PeriodProfile(load=1.0, utility_price=1.0, generation=gen)
    scn = Scenario(periods=(period,),
                   premium=PremiumDistribution.uniform(0.2), pi0=0.05,
                   t_tilde=1.0)
    c_srt = solve_ne(scn, "srt").capacity
    report = flatness_fit(scn)
    window = np.append(grid[grid < 1.0 / c_srt], 1.0 / c_srt)
    vals = np.asarray(gen.pdf(window))
    oracle = (vals.max() - vals.min()) / (vals.max() + vals.min())
    assert report.delta == pytest.approx(oracle, rel=0.0, abs=1e-14)
    assert report.r0[0] == pytest.approx(0.5 * (vals.max() + vals.min()),
                                         rel=0.0, abs=1e-14)


def test_flatness_excludes_point_mass_with_warning(desk, caplog):
    night = PeriodProfile(load=1.0, utility_price=1.0,
                          generation=GenerationDistribution.point_mass(0.0))
    scn = Scenario(periods=desk.periods + (night,), premium=desk.premium,
                   pi0=desk.pi0, t_tilde=2.0)
    with caplog.at_level(logging.INFO):
        report = flatness_fit(scn)
    assert report.r0[1] is None
    assert report.per_period_delta[1] is None
    assert report.delta == 0.0
    # night hours are the recommended config: noted, not warned about
    assert any("point-mass" in r.message and r.levelno == logging.INFO
               for r in caplog.records)


# ------------------------------------------------------------ ordering report

def test_ordering_report_desk_grid_passes(desk):
    report = ordering_report(desk, [0.0, 0.25, 0.5, 1.0])
    assert report.passed
    for row in report.rows:
        assert row.srt_le_prt and row.prt_eq_opt and row.prt_le_cb
        assert not row.prt_le_cb_informational
        if row.epsilon == 0.0:
            assert row.eps0_all_equal
        else:
            assert row.gap_check
    assert report.flatness.delta == 0.0
    assert report.coefficients.prt_slope == pytest.approx(0.2, abs=1e-9)


def test_ordering_report_rejects_negative_scales(desk):
    with pytest.raises(ValueError):
        ordering_report(desk, [-0.1, 0.5])


def test_ordering_report_flags_wide_flatness_band_as_informational():
    # two periods with very different loads: the base capacity is
    # sqrt(5), so the large-load scarcity interval (0, 5/sqrt(5)] runs
    # past the uniform support and the density is zero on part of it
    gen = GenerationDistribution.uniform(0.0, 1.0)
    periods = (PeriodProfile(load=1.0, utility_price=1.0, generation=gen),
               PeriodProfile(load=5.0, utility_price=1.0, generation=gen))
    scn = Scenario(periods=periods,
                   premium=PremiumDistribution.uniform(0.4), pi0=0.3,
                   t_tilde=1.0)
    assert solve_ne(scn, "srt").capacity == pytest.approx(np.sqrt(5.0),
                                                          rel=1e-9)
    report = ordering_report(scn, [0.0, 0.5])
    assert report.flatness.delta > 0.5
    for row in report.rows:
        assert row.prt_le_cb_informational
        assert row.srt_le_prt and row.prt_eq_opt
    assert report.passed  # over-investment comparison stays informational
