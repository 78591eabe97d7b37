"""The input checks of the model layers, each with its exact message.

Every check here guards a constructor or an entry point against a value
the model has no meaning for; the tests pin the message each one gives.
"""

import math
import re

import numpy as np
import pytest

from solarmkt import (GenerationDistribution, PeriodProfile,
                      PremiumDistribution, Scenario, clear_cb,
                      fit_generation_kde, fit_truncated_exponential,
                      optimal_allocation, verify_ce)
from solarmkt.markets import _check_nonneg
from conftest import desk_scenario

UNIFORM = GenerationDistribution.uniform(0.0, 1.0)


def _raises(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


# ------------------------------------------------------------- distributions

@pytest.mark.parametrize("field, value, message", [
    ("load", 0.0, "load must be positive, got 0.0"),
    ("load", -2.0, "load must be positive, got -2.0"),
    ("utility_price", 0.0, "utility price must be positive, got 0.0"),
    ("utility_price", -1.5, "utility price must be positive, got -1.5"),
    ("weight", -1.0, "weight must be non-negative, got -1.0")])
def test_a_period_rejects_a_value_out_of_range(field, value, message):
    settings = dict(load=1.0, utility_price=1.0, generation=UNIFORM)
    with _raises(message):
        PeriodProfile(**{**settings, field: value})


def test_a_point_mass_rejects_a_negative_value():
    with _raises("point mass must be non-negative, got -0.5"):
        GenerationDistribution.point_mass(-0.5)


@pytest.mark.parametrize("grid, density", [
    ([0.0, 1.0, 2.0], [1.0, 1.0]),              # unequal lengths
    ([0.0], [1.0]),                             # one point
    ([[0.0, 1.0]], [[1.0, 1.0]]),               # two dimensions
])
def test_a_density_grid_needs_equal_one_dimensional_arrays(grid, density):
    with _raises("grid and density must be equal-length 1-d arrays "
                 "(>= 2 points)"):
        GenerationDistribution.from_density_grid(grid, density)


@pytest.mark.parametrize("grid, density", [
    ([0.0, math.nan], [1.0, 1.0]),
    ([0.0, math.inf], [1.0, 1.0]),
    ([0.0, 1.0], [1.0, math.nan]),
    ([0.0, 1.0], [-math.inf, 1.0])])
def test_a_density_grid_must_be_finite(grid, density):
    with _raises("grid and density must be finite"):
        GenerationDistribution.from_density_grid(grid, density)


def test_a_density_grid_needs_non_negative_support():
    with _raises("generation support must be non-negative"):
        GenerationDistribution.from_density_grid([-0.5, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_premium_samples_must_be_finite(bad):
    with _raises("premium samples must be finite and non-negative"):
        PremiumDistribution.empirical([0.1, bad, 0.3])


@pytest.mark.parametrize("s", [-0.01, 1.01, [0.5, 1.5]])
def test_the_integrated_quantile_needs_a_fraction_in_0_1(s):
    with _raises("served fraction outside [0, 1]"):
        PremiumDistribution.uniform(0.6).integrated_complementary_quantile(s)


# ------------------------------------------------------------------- markets

def test_a_scenario_needs_positive_total_weight():
    period = PeriodProfile(1.0, 1.0, UNIFORM, weight=0.0)
    with _raises("total period weight must be positive"):
        Scenario(periods=(period, period),
                 premium=PremiumDistribution.uniform(0.6), pi0=0.125,
                 t_tilde=1.0)


@pytest.mark.parametrize("x", [[1.0, -1.0], [0.0, math.nan],
                               np.array([[math.inf]])])
def test_check_nonneg_rejects_a_bad_array(x):
    with _raises("capacity must be finite and non-negative"):
        _check_nonneg("capacity", x)


def test_check_nonneg_accepts_a_python_int():
    checked = _check_nonneg("capacity", 3)
    assert type(checked) is float and checked == 3.0
    with _raises("capacity must be finite and non-negative, got -3.0"):
        _check_nonneg("capacity", -3)


@pytest.mark.parametrize("c", [0.0, -0.0, 0])
def test_clear_cb_needs_positive_capacity(c):
    with _raises("contract-based clearing needs positive capacity"):
        clear_cb(desk_scenario(), c)


@pytest.mark.parametrize("size", [1, 0, -3])
def test_verify_ce_needs_a_deviation_grid_of_two(size):
    with _raises("deviation_grid_size must be at least 2"):
        verify_ce(desk_scenario(), "srt", 2.0, sample_count=4,
                  deviation_grid_size=size)


# --------------------------------------------------------------- equilibrium

@pytest.mark.parametrize("index", [-1, 1, 7])
def test_optimal_allocation_names_a_bad_period_index(index):
    with _raises(f"invalid period index {index}"):
        optimal_allocation(desk_scenario(), index, 2.0, 0.5)


# ---------------------------------------------------------------------- fits

FITS = {"kde": lambda samples: fit_generation_kde(samples, bandwidth=0.1),
        "mle": fit_truncated_exponential}


@pytest.mark.parametrize("fit", sorted(FITS))
@pytest.mark.parametrize("samples", [
    [math.nan, 0.2, 0.5, 0.1],          # NaN first
    [0.3, 0.2, math.nan, 0.1],          # NaN inside
    [0.3, 0.2, 0.5, math.nan],          # NaN last
    [math.nan, math.nan],
    [0.3, math.inf, 0.1],
    [0.3, -math.inf, 0.1],
    [0.3, 0.2, -0.1],                   # negative
    [0.3, math.nan, -0.1, 0.2],         # NaN beside a negative value
    [-0.1, 0.3, 0.2, math.nan]],
    ids=["nan_first", "nan_inside", "nan_last", "all_nan", "inf", "-inf",
         "negative", "nan_and_negative", "negative_and_nan"])
def test_a_fit_rejects_a_sample_that_is_not_finite_and_non_negative(fit,
                                                                   samples):
    with _raises("samples must be finite and non-negative"):
        FITS[fit](samples)


def test_the_kde_rejects_samples_that_are_all_zero():
    with _raises("all samples are zero; use a point mass instead"):
        fit_generation_kde([0.0, 0.0, 0.0], bandwidth=0.1)


def test_the_mle_rejects_samples_that_are_all_zero():
    with _raises("degenerate sample: no positive support"):
        fit_truncated_exponential([0.0, 0.0, 0.0])
