"""The cheap revenue kernels give the numbers of the numpy kernels.

A revenue evaluation at one capacity sums the covered energy in plain
floats, reads a tabulated density's Gauss cells from a table built once,
and calls the premium kernel once for all lit periods.  The property
tests hold each of these to the numpy formula it replaces, bit for bit;
the guards keep the real-time solves off the numpy paths and the
contract clearing inside its bracket.

The partial moments write their powers as products, so the plain-float
path is held to numpy's 0-d and 1-d evaluations alike; a ``**`` would
round differently in numpy's vector loops than in the C ``pow``.  A
buyer's contract demand searched in plain floats is held to its element
of the array search over many buyers.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solarmkt import (GenerationDistribution, PeriodProfile,
                      PremiumDistribution, Scenario, aggregate_demand_cb,
                      check_viability, clear_cb, distributions, markets,
                      solve_ne)
from solarmkt.markets import (_cb_demand_profile, _covered_energy, _linearized,
                              _scarcity_integral)
from solarmkt.numerics import gauss_legendre_panels
from conftest import (random_empirical_premium, random_premium,
                      random_scenario, random_tabulated_generation)


def _massless_ends_generation(rng) -> GenerationDistribution:
    """A tabulated density whose first and last cells carry no mass."""
    b = rng.uniform(0.5, 2.5)
    grid = np.linspace(0.0, b, int(rng.integers(8, 40)))
    dens = rng.uniform(0.2, 1.0, grid.size)
    dens[:int(rng.integers(1, 3))] = 0.0
    dens[grid.size - int(rng.integers(1, 3)):] = 0.0
    return GenerationDistribution.from_density_grid(grid, dens, normalize=True)


def _generation(rng, kind: str) -> GenerationDistribution:
    hi = rng.uniform(0.3, 3.0)
    if kind == "uniform0":
        return GenerationDistribution.uniform(0.0, hi)
    if kind == "uniform_lo":
        return GenerationDistribution.uniform(rng.uniform(0.05, 0.8) * hi, hi)
    if kind == "tabulated":
        return random_tabulated_generation(rng)
    if kind == "massless_ends":
        return _massless_ends_generation(rng)
    if kind == "lit_point":
        return GenerationDistribution.point_mass(rng.uniform(0.1, 2.0))
    return GenerationDistribution.point_mass(0.0)


GEN_KINDS = ["uniform0", "uniform_lo", "tabulated", "massless_ends",
             "lit_point", "dark_point"]


@st.composite
def scenarios(draw, min_periods=1):
    """1-3 periods of any output kind, with a premium of any kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(GEN_KINDS), min_size=min_periods,
                          max_size=3))
    if all(k == "dark_point" for k in kinds):
        kinds[0] = "uniform0"
    periods = tuple(PeriodProfile(load=rng.uniform(0.5, 20.0),
                                  utility_price=rng.uniform(0.2, 2.0),
                                  generation=_generation(rng, kind),
                                  weight=rng.uniform(0.5, 2.0))
                    for kind in kinds)
    epsilon = rng.uniform(0.05, 1.0)
    prem = (random_empirical_premium(rng, epsilon) if draw(st.booleans())
            else random_premium(rng, epsilon))
    scn = Scenario(periods=periods, premium=prem, pi0=1.0,
                   t_tilde=rng.uniform(0.5, 3.0))
    _, margin = check_viability(scn)
    return scn.with_pi0(rng.uniform(0.15, 0.85) * (margin + 1.0))


def _capacities(scn: Scenario, fractions, most: int = 10**6) -> list[float]:
    """0, the cuts L/knot of every period (at most about ``most`` of
    them), points between them, and capacities so small that every cut
    lies past the support."""
    cuts = sorted({p.load / k for p in scn.periods
                   for k in p.generation.knots.tolist() if k > 0.0})
    cuts = cuts[::max(1, -(-len(cuts) // most))]
    between = [a + f * (b - a) for a, b in zip(cuts, cuts[1:])
               for f in fractions]
    tiny = [1e-9 * scn.capacity_scale, 1e-300]
    past = [cuts[-1] * (1.0 + f) for f in fractions] if cuts else []
    return [0.0, *cuts, *between, *tiny, *past]


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_float_covered_energy_is_the_numpy_sum_bit_for_bit(scn, fractions):
    ds = _capacities(scn, fractions)
    a1, b1 = _covered_energy(scn, np.asarray(ds))
    for d, a1_d, b1_d in zip(ds, a1.tolist(), b1.tolist()):
        a, b = _covered_energy(scn, d)
        a0, b0 = _covered_energy(scn, np.asarray(d))
        assert type(a) is float and type(b) is float
        assert (a, b) == (float(a0), float(b0)) == (a1_d, b1_d)
        assert _linearized(a) == float(_linearized(np.asarray(a0)))
    for period in scn.periods:
        gen = period.generation
        xs = [*gen.knots.tolist(), *fractions, 0.0, math.inf]
        along = gen.partial_first_moment(np.asarray(xs)).tolist()
        for x, want_1d in zip(xs, along):
            want = float(gen.partial_first_moment(np.asarray(x)))
            assert gen._partial_first_moment_float(x) == want == want_1d


def _panel_nodes(gen: GenerationDistribution, hi: float):
    """Tabulated quadrature laid anew: Gauss panels between the knots
    up to hi, weighted by the density."""
    knots = gen.knots
    lo, hi = knots[0], min(hi, knots[-1])
    if hi <= lo:
        return np.empty(0), np.empty(0)
    edges = np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi]))
    xs, ws = gauss_legendre_panels(edges, distributions._CELL_ORDER)
    return xs, ws * np.interp(xs, gen.grid, gen.density)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.floats(-0.2, 1.2), min_size=2, max_size=6))
def test_sliced_cell_nodes_are_the_panel_formula(seed, massless, points):
    rng = np.random.default_rng(seed)
    gen = (_massless_ends_generation(rng) if massless
           else random_tabulated_generation(rng))
    knots = gen.grid.tolist()
    top = gen.grid[-1]
    ends = [0.0, math.inf, *knots[::17], *(top * p for p in points)]
    for hi in ends:
        xs, ws = gen.quad_nodes(hi)
        want_x, want_w = _panel_nodes(gen, hi)
        assert np.array_equal(xs, want_x) and np.array_equal(ws, want_w)


def _per_period_integral(scn: Scenario, c: float, kernel, integrand):
    """The scarcity integral with one kernel call per lit period."""
    total = 0.0
    for period in scn.periods:
        gen, load = period.generation, period.load
        if gen.support_hi <= 0.0:
            continue
        g, weights = gen.quad_nodes(load / c if c > 0.0 else math.inf)
        if g.size:
            frac = np.clip(c * g / load, 0.0, 1.0)
            total += period.weight * float(
                weights @ integrand(period, kernel(frac), g))
    return total


@settings(max_examples=30, deadline=None)
@given(scenarios(min_periods=2),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_stacked_scarcity_integral_is_the_per_period_sum(scn, fractions):
    prem = scn.premium
    kernels = [
        (prem.base_complementary_quantile, lambda period, q, g: q * g),
        (prem.integrated_complementary_quantile,
         lambda period, v, g: period.load * v),
    ]
    for c in _capacities(scn, fractions, most=12):
        for kernel, integrand in kernels:
            assert _scarcity_integral(scn, c, kernel, integrand) == \
                _per_period_integral(scn, c, kernel, integrand)


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.lists(st.floats(0.0, 1.5), min_size=1, max_size=4),
       st.one_of(st.just(0.0), st.floats(1e-6, 1.2)))
def test_float_cb_demand_is_its_element_of_the_array_search(scn, shares,
                                                            level):
    prem = scn.premium
    top = prem.epsilon * prem.v_bar
    vs = [0.0, top, *(share * top for share in shares)]
    a0, b0 = _covered_energy(scn, 0.0)
    pi = level * (a0 + top * b0)
    along = _cb_demand_profile(scn, np.asarray(vs), pi).tolist()
    for v, want in zip(vs, along):
        got = _cb_demand_profile(scn, v, pi)
        assert type(got) is float and got == want


# ------------------------------------------------------------ call guards

def test_real_time_solves_on_tabulated_output_skip_the_numpy_kernels(
        monkeypatch):
    rng = np.random.default_rng(5)
    scn = random_scenario(rng, 0.5, "tabulated", n_periods=2)
    calls = {"partial_first_moment": 0, "gauss_legendre_panels": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(
        GenerationDistribution, "partial_first_moment",
        counted("partial_first_moment",
                GenerationDistribution.partial_first_moment))
    monkeypatch.setattr(
        distributions, "gauss_legendre_panels",
        counted("gauss_legendre_panels", distributions.gauss_legendre_panels))
    for mechanism in ("srt", "prt", "srt", "prt"):
        assert solve_ne(scn, mechanism).viable
    assert calls["partial_first_moment"] == 0
    assert calls["gauss_legendre_panels"] <= len(scn.periods)


@pytest.mark.parametrize("premium", [
    PremiumDistribution.uniform(0.6, epsilon=0.5),
    PremiumDistribution.truncated_exponential(5.0, 0.6, epsilon=0.5),
    PremiumDistribution.uniform(0.6, epsilon=0.0)],
    ids=["uniform", "truncated_exponential", "no_premium"])
def test_analytic_premium_demand_makes_no_array_search(monkeypatch, premium):
    rng = np.random.default_rng(3)
    scn = replace(random_scenario(rng, 0.5, "tabulated", n_periods=2),
                  premium=premium)
    ndims = []
    search = markets.sup_level_set

    def recording(fn, targets, lo, hi, **values):
        ndims.append(np.ndim(targets))
        return search(fn, targets, lo, hi, **values)

    monkeypatch.setattr(markets, "sup_level_set", recording)
    a0, b0 = _covered_energy(scn, 0.0)
    for pi in np.linspace(0.0, 1.1 * (a0 + 0.3 * b0), 7).tolist():
        aggregate_demand_cb(scn, pi)
    clear_cb(scn, solve_ne(scn, "cb").capacity)
    assert ndims and set(ndims) == {0}


def _demand_bound(scn: Scenario) -> float:
    """Largest L/g0 over the lit periods, g0 the first output knot: past
    it no unit covers energy in any period (infinite when g0 is 0)."""
    bound = 0.0
    for p in scn.periods:
        g0 = float(p.generation.knots[0])
        if p.generation.mean > 0.0:
            bound = max(bound, p.load / g0 if g0 > 0.0 else math.inf)
    return bound


@settings(max_examples=20, deadline=None)
@given(scenarios(), st.floats(0.2, 1.5))
def test_cb_clearing_price_lies_between_the_bottom_and_top_values(scn, share):
    c = share * solve_ne(scn, "cb").capacity
    c = min(c, 0.9 * _demand_bound(scn))
    if not c > 0.0:
        return
    a, b = _covered_energy(scn, c)
    top = a + scn.premium.epsilon * scn.premium.v_bar * b
    # at A(c) every buyer rents at least c; above A(c) + top B(c) none
    # rents more than c (up to the demand searches' tolerance)
    assert aggregate_demand_cb(scn, a) >= c * (1.0 - 1e-12)
    assert aggregate_demand_cb(scn, top) <= c * (1.0 + 1e-12)
    assert a <= clear_cb(scn, c).price <= top


@pytest.mark.parametrize("power", [1, 2])
def test_cb_clearing_makes_no_search_at_the_choke_price(monkeypatch, power):
    # Output density (1 - g)**power vanishes at the top of its grid.  At
    # the choke price, the top of the old bracket, the top buyer's demand
    # search met a whole flat top on its target and took 47-48
    # evaluations; the clearing searched 11-49 prices.
    grid = np.linspace(0.0, 1.0, 129)
    gen = GenerationDistribution.from_density_grid(
        grid, (1.0 - grid) ** power, normalize=True)
    scn = Scenario(periods=(PeriodProfile(load=1.0, utility_price=1.0,
                                          generation=gen),),
                   premium=PremiumDistribution.uniform(0.6), pi0=0.1,
                   t_tilde=1.0)
    c = solve_ne(scn, "cb").capacity
    prices = []  # per price clear_cb tries, its demand searches' evaluations
    inside = []
    search, demand = markets.sup_level_set, markets.aggregate_demand_cb

    def recording(fn, targets, lo, hi, **values):
        out = search(fn, targets, lo, hi, **values)
        if inside:
            prices[-1].append(out[2])
        return out

    def demand_at(scenario, pi):
        prices.append([])
        inside.append(pi)
        try:
            return demand(scenario, pi)
        finally:
            inside.pop()

    monkeypatch.setattr(markets, "sup_level_set", recording)
    monkeypatch.setattr(markets, "aggregate_demand_cb", demand_at)
    clear_cb(scn, c)
    assert 0 < len(prices) <= 16
    assert all(0 < len(evals) and max(evals) <= 16 for evals in prices)


# ------------------------------------------------------ the unchecked kernel

#: Fractions every kernel check includes: the ends of [0, 1], their
#: neighbours, and the subnormals and the smallest normal.
EDGE_FRACTIONS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                  0.5, np.nextafter(1.0, 0.0), 1.0]


@st.composite
def premiums(draw):
    """A uniform, empirical or truncated-exponential premium, the last
    also with rates steep enough that every fraction near 0 takes the
    15/16 branch and e^-x rounds to 0."""
    kind = draw(st.sampled_from(["uniform", "empirical", "texp", "steep"]))
    v_bar = draw(st.floats(0.05, 1.2))
    if kind == "uniform":
        return PremiumDistribution.uniform(v_bar)
    if kind == "empirical":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_empirical_premium(rng, 1.0)
    x = draw(st.floats(0.01, 20.0) if kind == "texp"
             else st.floats(3.0, 2000.0))
    return PremiumDistribution.truncated_exponential(x / v_bar, v_bar)


@settings(max_examples=200, deadline=None)
@given(premiums(), st.lists(st.floats(0.0, 1.0), max_size=40))
def test_the_unchecked_premium_kernel_is_the_checked_one_bit_for_bit(
        prem, fractions):
    p = np.array(fractions + EDGE_FRACTIONS)
    checked = prem.base_complementary_quantile(p)
    assert prem._base_cq(p).tobytes() == checked.tobytes()
