"""Extreme parameter scales must solve cleanly, with no numerical warnings."""

import warnings

import numpy as np
import pytest

from solarmkt import (GenerationDistribution, PeriodProfile,
                      PremiumDistribution, Scenario, expansion_coefficients,
                      lambda_ratio, solve_ne, verify_ce, welfare)


def _single_period(load, price, gen_hi, premium, pi0):
    period = PeriodProfile(load=load, utility_price=price,
                           generation=GenerationDistribution.uniform(0.0, gen_hi))
    return Scenario(periods=(period,), premium=premium, pi0=pi0, t_tilde=1.0)


EXTREME_CASES = {
    "huge_scale": _single_period(1e6, 500.0, 3.0,
                                 PremiumDistribution.uniform(200.0), 300.0),
    "tiny_epsilon": _single_period(1.0, 1.0, 1.0,
                                   PremiumDistribution.uniform(0.6, 1e-9),
                                   0.125),
    "steep_rate": _single_period(5.0, 0.3, 0.9,
                                 PremiumDistribution.truncated_exponential(
                                     5000.0, 0.4), 0.05),
    "flat_rate": _single_period(5.0, 0.3, 0.9,
                                PremiumDistribution.truncated_exponential(
                                    1e-6, 0.4), 0.05),
    "dense_empirical": _single_period(
        2.0, 1.0, 1.5,
        PremiumDistribution.empirical(
            np.random.default_rng(1).gamma(2.0, 0.1, 5000)), 0.3),
}


@pytest.mark.parametrize("name", sorted(EXTREME_CASES))
def test_extreme_scales_solve_cleanly(name):
    scn = EXTREME_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        caps = {m: solve_ne(scn, m).capacity for m in ("srt", "prt", "cb", "opt")}
        assert caps["prt"] == caps["opt"]
        assert caps["srt"] <= caps["prt"] * (1.0 + 1e-9)
        assert caps["prt"] <= caps["cb"] * (1.0 + 1e-9)
        coeffs = expansion_coefficients(scn)
        assert 0.0 < coeffs.lam < 1.0 and coeffs.beta >= 0.0
        assert welfare(scn, caps["prt"]) >= welfare(scn, 0.0)
        assert verify_ce(scn, "prt", caps["prt"], 100, 101, seed=2).passed


def test_lambda_shape_limits():
    # a truncated exponential interpolates between the pure-exponential
    # quantile shape (lambda 1/2 at steep rates) and the uniform shape
    # (lambda 2/3 in the flat-rate limit)
    steep = PremiumDistribution.truncated_exponential(5000.0, 0.4)
    flat = PremiumDistribution.truncated_exponential(1e-6, 0.4)
    assert lambda_ratio(steep) == pytest.approx(0.5, abs=1e-3)
    assert lambda_ratio(flat) == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_steep_rate_quantile_stays_on_support():
    prem = PremiumDistribution.truncated_exponential(5000.0, 0.4)
    assert float(prem.complementary_quantile(0.0)) == pytest.approx(0.4)
    assert float(prem.complementary_quantile(1.0)) == 0.0
    assert prem.base_mean == pytest.approx(1.0 / 5000.0, rel=1e-9)
    assert float(prem.integrated_complementary_quantile(1.0)) == \
        pytest.approx(prem.base_mean, rel=1e-9)
