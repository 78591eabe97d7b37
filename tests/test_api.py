"""The package's public surface: what ``solarmkt`` exports and what it does not."""

import importlib

import pytest

import solarmkt

SUBMODULES = ("distributions", "markets", "equilibrium", "asymptotics",
              "pipeline")

#: Forwarding views removed in favour of the methods, the solve and the
#: coefficients they forwarded to, the ordering checks' slack constants,
#: which the certified search brackets replaced, and the per-hour record
#: type, which the irradiance array replaced.
REMOVED = ("truncated_mean", "truncated_mean_inverse", "complementary_quantile",
           "mean_premium", "prt_slope_at_zero", "cb_slope_at_zero",
           "beta_constant", "solve_social_optimum", "ORDER_RTOL", "EPS0_RTOL",
           "IrradiationRecord")


def test_package_exports_the_submodules_lists():
    union = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"solarmkt.{name}")
        for public in module.__all__:
            assert hasattr(module, public), f"{name}.{public} does not resolve"
        union.update(module.__all__)
    # the mechanism tuples stay in markets; the search errors come from
    # numerics, which keeps no list of its own
    expected = (union - {"MECHANISMS", "RT_MECHANISMS"}) | {
        "ConvergenceError", "NoEquilibriumError"}
    assert set(solarmkt.__all__) == expected
    assert len(solarmkt.__all__) == len(expected)
    for public in solarmkt.__all__:
        assert hasattr(solarmkt, public)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_views_are_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from solarmkt import {name}", {})
    for module in SUBMODULES:
        assert not hasattr(importlib.import_module(f"solarmkt.{module}"), name)
