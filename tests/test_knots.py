"""Distribution knots, and the market layers reading only them.

A knot is a point where a distribution's mass starts or ends, or where
its density or survival function has a kink.  The market and analysis
layers build their quadrature panels and bounds from ``knots`` alone;
the guard at the end keeps them from reading a distribution's kind or
tables again.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import solarmkt
from solarmkt import (GenerationDistribution, NoEquilibriumError,
                      PeriodProfile, PremiumDistribution, Scenario,
                      aggregate_demand_cb, clear_cb, distributions)

SRC = Path(solarmkt.__file__).parent


def test_generation_knots_of_each_kind():
    np.testing.assert_array_equal(
        GenerationDistribution.uniform(0.25, 1.5).knots, [0.25, 1.5])
    np.testing.assert_array_equal(
        GenerationDistribution.point_mass(0.7).knots, [0.7])
    gen = GenerationDistribution.from_density_grid(
        [0.0, 0.5, 1.0], [0.5, 1.5, 0.5])
    np.testing.assert_array_equal(gen.knots, gen.grid)
    assert gen.support_hi == 1.0
    with pytest.raises(ValueError):
        gen.knots[0] = 0.1


def test_premium_knots_of_each_kind():
    np.testing.assert_array_equal(
        PremiumDistribution.uniform(0.6, epsilon=2.0).knots, [0.0, 0.6])
    np.testing.assert_array_equal(
        PremiumDistribution.truncated_exponential(3.0, 0.8).knots, [0.0, 0.8])
    prem = PremiumDistribution.empirical([0.3, 0.1, 0.3, 0.5], epsilon=0.5)
    np.testing.assert_array_equal(prem.knots, [0.0, 0.1, 0.3, 0.5])
    with pytest.raises(ValueError):
        prem.knots[0] = 0.1


def test_massless_tabulated_cells_are_outside_the_knots():
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    gen = GenerationDistribution.from_density_grid(
        grid, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0], normalize=True)
    np.testing.assert_array_equal(gen.knots, [0.2, 0.4, 0.6, 0.8])
    assert gen.support_hi == 0.8

    for x in (0.8, 0.9, 1.0, 5.0, np.inf):
        assert gen.partial_first_moment(x) == gen.mean
    nodes, weights = gen.quad_nodes(np.inf)
    assert float(weights @ nodes) == pytest.approx(gen.mean, rel=1e-14, abs=0.0)

    load = 1.0
    scn = Scenario(periods=(PeriodProfile(load=load, utility_price=1.0,
                                          generation=gen),),
                   premium=PremiumDistribution.uniform(0.6), pi0=0.1,
                   t_tilde=1.0)
    with pytest.raises(NoEquilibriumError):
        clear_cb(scn, load / 0.2)
    c = 0.5 * load / 0.2
    cleared = clear_cb(scn, c)
    assert abs(cleared.demand_residual) <= 1e-7 * c
    assert abs(aggregate_demand_cb(scn, cleared.price) - c) <= 1e-7 * c


def test_lambda_ratio_lives_beside_the_premium_tables():
    assert solarmkt.lambda_ratio is distributions.lambda_ratio
    assert "lambda_ratio" in distributions.__all__


# ----------------------------------------------------------------- the guard

#: Fields of a distribution that only ``distributions`` may read.
DISTRIBUTION_FIELDS = {"kind", "grid", "density", "quantiles", "_p_grid",
                       "lo", "hi", "value"}

class _FieldReads(ast.NodeVisitor):
    def __init__(self):
        self.stack = ["<module>"]
        self.reads = []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr in DISTRIBUTION_FIELDS:
            self.reads.append((self.stack[-1], node.attr, node.lineno))
        self.generic_visit(node)


@pytest.mark.parametrize("module", ["markets", "equilibrium", "asymptotics"])
def test_market_layers_read_no_distribution_fields(module):
    visitor = _FieldReads()
    visitor.visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))
    stray = [f"{module}.py:{line} {func} reads .{attr}"
             for func, attr, line in visitor.reads]
    assert not stray, "read the distribution's knots instead: " + "; ".join(stray)
