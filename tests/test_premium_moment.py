"""The premium revenue on uniform output, in closed form.

With r = L / c, a period with output uniform on [lo, hi] adds
r^2 (M(min(1, hi/r)) - M(min(1, lo/r))) / (hi - lo) to R1, where
M(u) is the integral of y q(y) over [0, u] and q the base complementary
quantile.  ``PremiumDistribution._yq_moment(a, b, 1)`` is
(M(b) - M(a)) / b^2.
Its references here share no code with the package: exact fractions
for the piecewise-linear quantiles, 50-digit mpmath for the truncated
exponential.  R1 and the ``prt`` capacity are held against Gauss panels
broken at every kink of the integrand, and the desk commands make no
quadrature at all.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from solarmkt import (GenerationDistribution, PeriodProfile,
                      PremiumDistribution, Scenario, markets, solve_ne)
from solarmkt.cli import main
from solarmkt.markets import _premium_revenue
from test_acceptance import _write_california_fixtures
from test_cli import DESK_CONFIG


def _rel(got: float, want) -> float:
    """The relative error of got, or its size where want is 0."""
    return abs(got - want) / abs(want) if want else abs(got)


# ----------------------------------------- moments against exact antiderivatives

U_GRID = (1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-10, 1e-6, 1e-4, 1e-3,
          0.01, 0.05, 0.1, 1.0 / 3.0, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-12, 1.0)

#: Windows [a, b] of served fractions, from the head (a < 1/2) and from
#: the tail; the last one is empty.
WINDOWS = ((1e-3, 2e-3), (0.2, 0.25), (0.4, 0.5), (0.3, 1.0), (0.5, 0.6),
           (0.5, 1.0), (0.8, 1.0), (0.9, 0.95), (0.99, 1.0),
           (1.0 - 1e-6, 1.0), (1.0 - 1e-12, 1.0), (1.0, 1.0))


def _cases():
    """(a, b) pairs: every [0, u] of U_GRID, then the windows."""
    return [(0.0, u) for u in U_GRID] + list(WINDOWS)


@pytest.mark.parametrize("v_bar", [0.6, 1.0, 0.037, 123.25])
def test_uniform_moment_is_the_exact_antiderivative(v_bar):
    prem = PremiumDistribution.uniform(v_bar)
    v = Fraction(v_bar)

    def moment(u):
        x = Fraction(u)
        return v * (x * x / 2 - x * x * x / 3)

    for a, b in _cases():
        exact = (moment(b) - moment(a)) / Fraction(b) ** 2
        assert _rel(prem._yq_moment(a, b, 1.0), exact) <= 4e-16, (a, b)


def _empirical_samples(n: int, seed: int) -> list[float]:
    """n exponential samples rounded to two decimals, so many tie, and
    with a run of zeros."""
    rng = np.random.default_rng(seed)
    samples = np.round(rng.exponential(0.3, n), 2)
    samples[:max(2, n // 10)] = 0.0
    return samples.tolist()


class _ExactTable:
    """M of the table [0, *sorted(samples)], read at levels j / n, in
    fractions: q(y) is the table at level 1 - y, linear between levels,
    so its kinks are y_i = i / n with q(y_i) = table[n - i]."""

    def __init__(self, samples):
        self.table = [Fraction(0)] + sorted(Fraction(v) for v in samples)
        self.n = len(self.table) - 1
        self.cum = [Fraction(0)]
        for i in range(self.n):
            self.cum.append(self.cum[-1]
                            + self._cell(i, Fraction(i + 1, self.n)))

    def _cell(self, i: int, b: Fraction) -> Fraction:
        """The integral of y q(y) over [y_i, b], b in the cell i."""
        n, t = self.n, self.table
        y0, q0 = Fraction(i, n), t[n - i]
        slope = (t[n - i - 1] - q0) * n
        return ((q0 - slope * y0) * (b * b - y0 * y0) / 2
                + slope * (b ** 3 - y0 ** 3) / 3)

    def moment(self, u: float) -> Fraction:
        x = Fraction(u)
        i = min(int(x * self.n), self.n - 1)
        return self.cum[i] + self._cell(i, x)


@pytest.mark.parametrize("n", [30, 300, 4000])
def test_empirical_moment_is_the_exact_antiderivative(n):
    samples = _empirical_samples(n, seed=n)
    prem = PremiumDistribution.empirical(samples)
    exact = _ExactTable(samples)
    nodes = [i / n for i in (1, 2, n // 3, n // 2, n - 1)]
    mids = [(i + 0.37) / n for i in (0, 1, n // 7, n // 2, n - 2, n - 1)]
    pairs = _cases() + [(0.0, u) for u in (*nodes, *mids)]
    pairs += [(nodes[1], mids[3]), (mids[2], nodes[3]), (mids[3], mids[4])]
    for a, b in pairs:
        want = (exact.moment(b) - exact.moment(a)) / Fraction(b) ** 2
        assert _rel(prem._yq_moment(a, b, 1.0), want) <= 4e-15, (a, b)


#: Rates (with v_bar = 1, so x = rate) on [1e-8, 800], across the cuts
#: of the series, of the closed form and of the t-space form.
TEXP_X = (1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 1.0, 2.0, 2.66,
          3.9, 4.0, 4.1, 5.0, 8.0, 20.0, 30.0, 100.0, 300.0, 700.0, 745.0,
          800.0)


def _texp_reference(rate: float, v_bar: float, a: float, b: float):
    """The integral of y q(y) over [a, b], divided by b^2, as
    M(u) = (x u^2 / 2 - K(z) / (e^x - 1)^2) / rate with z = u (e^x - 1)
    and K(z) = (z^2 - 1) log1p(z) / 2 - z^2/4 + z/2 the integral of
    w log1p(w) over [0, z]; 50 digits past the cancellations."""
    with mpmath.workdps(60):
        x = mpmath.mpf(rate) * mpmath.mpf(v_bar)
        extra = int(max(0, -2 * mpmath.log10(mpmath.expm1(x) * b))) + 40
    with mpmath.workdps(50 + extra):
        x = mpmath.mpf(rate) * mpmath.mpf(v_bar)
        big = mpmath.expm1(x)

        def moment(u):
            z = big * mpmath.mpf(u)
            k = (z * z - 1) / 2 * mpmath.log1p(z) - z * z / 4 + z / 2
            return (x * mpmath.mpf(u) ** 2 / 2 - k / (big * big)) / rate

        return (moment(b) - (moment(a) if a else 0)) / mpmath.mpf(b) ** 2


@pytest.mark.parametrize("x", TEXP_X)
def test_truncated_exponential_moment_is_the_mpmath_antiderivative(x):
    for v_bar in (1.0, 0.25):
        prem = PremiumDistribution.truncated_exponential(x / v_bar, v_bar)
        for a, b in _cases():
            want = _texp_reference(x / v_bar, v_bar, a, b)
            assert _rel(prem._yq_moment(a, b, 1.0), want) <= 4e-15, (x, v_bar, a,
                                                                 b)


def _premium(kind: str) -> PremiumDistribution:
    if kind == "uniform":
        return PremiumDistribution.uniform(0.6)
    if kind == "empirical":
        return PremiumDistribution.empirical(_empirical_samples(300, seed=1))
    return PremiumDistribution.truncated_exponential(3.0, 0.8)


@pytest.mark.parametrize("kind", ["uniform", "empirical",
                                  "truncated_exponential"])
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.25, 1.5)])
def test_revenue_reaches_v_bar_times_the_mean_as_capacity_vanishes(kind, lo,
                                                                   hi):
    prem = _premium(kind)
    # M(u) = u^2 _yq_moment(0, u, 1): M(0) = 0, and the moment over u^2
    # is q(0) / 2 there
    assert prem._yq_moment(0.0, 0.0, 1.0) == 0.5 * prem.v_bar
    assert 0.0 * 0.0 * prem._yq_moment(0.0, 0.0, 1.0) == 0.0
    gen = GenerationDistribution.uniform(lo, hi)
    load = 2.5
    scn = Scenario(periods=(PeriodProfile(load=load, utility_price=1.0,
                                          generation=gen),),
                   premium=prem, pi0=0.1, t_tilde=1.0)
    limit = prem.v_bar * gen.mean
    assert _premium_revenue(scn, 0.0) == limit
    assert _rel(_premium_revenue(scn, 1e-200 * load / hi), limit) <= 1e-15


# ---------------------------------------------- R1 and the prt capacity, gated

PANEL_X, PANEL_W = np.polynomial.legendre.leggauss(8)


def _reference_quantile(kind: str, params):
    """q of each premium kind written from its definition, as functions of
    the served fraction y and of the level p = 1 - y, and the y and the p
    where a panel breaks: the kinks of an empirical table; for a
    truncated exponential, 2^(-k/4) down to a quarter of the distance
    1 / (e^x - 1) of its log singularity left of y = 0, and eighths of
    [0, 1/2] in p, whose singularity p = 1 / k lies right of p = 1.
    Order 8 is exact to rounding on these panels."""
    if kind == "uniform":
        (v_bar,) = params
        return (lambda y: v_bar * (1.0 - y), lambda p: v_bar * p,
                np.empty(0), np.empty(0))
    if kind == "empirical":
        table = np.concatenate(([0.0], np.sort(params)))
        levels = np.arange(table.size) / (table.size - 1)
        return (lambda y: np.interp(1.0 - y, levels, table),
                lambda p: np.interp(p, levels, table), 1.0 - levels, levels)
    rate, v_bar = params
    x = rate * v_bar
    big, k = math.expm1(x), -math.expm1(-x)
    near = 0.25 / max(big, 1.0)
    steps = int(math.ceil(-4.0 * math.log2(near))) + 1
    return (lambda y: np.log1p(big * (1.0 - y) / (1.0 + big * y)) / rate,
            lambda p: -np.log1p(-p * k) / rate,
            2.0 ** (-np.arange(steps) / 4.0), np.linspace(0.0, 0.5, 9))


def _panels(lo: float, hi: float, breaks: np.ndarray):
    """Order-8 Gauss nodes and weights on [lo, hi], broken at breaks."""
    edges = np.unique(np.clip(np.concatenate(([lo, hi], breaks)), lo, hi))
    half = 0.5 * np.diff(edges)
    return ((edges[:-1] + half)[:, None] + half[:, None] * PANEL_X,
            half[:, None] * PANEL_W)


def _reference_revenue(rows, quantile, c: float) -> float:
    """R1 on order-8 Gauss panels broken at lo, min(hi, L/c) and L y / c
    for every break y, laid in the served fraction y = g c / L below
    y = 1/2 and in the level p = 1 - y, read as (L/c - g) / (L/c), above,
    where y would round away; dark periods add 0."""
    q_of_y, q_of_p, breaks_y, breaks_p = quantile
    total = 0.0
    for load, lo, hi, weight in rows:
        r = load / c
        top = min(hi, r)
        if hi <= 0.0 or top <= lo:
            continue
        a, b = lo / r, top / r
        part = 0.0
        if a < 0.5:
            y, w = _panels(a, min(b, 0.5), breaks_y)
            part += float(np.sum(w * y * q_of_y(y)))
        if b > 0.5:
            p, w = _panels((r - top) / r, min((r - lo) / r, 0.5), breaks_p)
            part += float(np.sum(w * (1.0 - p) * q_of_p(p)))
        total += weight * r * r * part / (hi - lo)
    return total


@st.composite
def uniform_output_cases(draw):
    """1-3 periods of uniform output, some with lo > 0, or dark, under a
    premium of any kind; with the reference's view of the same data."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["zero_lo", "lo", "dark"]),
                          min_size=1, max_size=3))
    if all(k == "dark" for k in kinds):
        kinds[0] = "lo"
    periods, rows = [], []
    for kind in kinds:
        load = rng.uniform(0.5, 20.0)
        weight = rng.uniform(0.5, 2.0)
        if kind == "dark":
            gen, lo, hi = GenerationDistribution.point_mass(0.0), 0.0, 0.0
        else:
            hi = rng.uniform(0.3, 3.0)
            lo = rng.uniform(0.05, 0.8) * hi if kind == "lo" else 0.0
            gen = GenerationDistribution.uniform(lo, hi)
        periods.append(PeriodProfile(load=load,
                                     utility_price=rng.uniform(0.2, 2.0),
                                     generation=gen, weight=weight))
        rows.append((load, lo, hi, weight))
    prem_kind = draw(st.sampled_from(["uniform", "empirical",
                                      "truncated_exponential"]))
    epsilon = rng.uniform(0.05, 1.0)
    if prem_kind == "uniform":
        params = (rng.uniform(0.05, 1.2),)
        prem = PremiumDistribution.uniform(*params, epsilon=epsilon)
    elif prem_kind == "empirical":
        n = int(rng.choice((30, 300)))
        params = np.round(rng.exponential(rng.uniform(0.05, 0.5), n), 3)
        params[0] = params.max() + 0.01
        prem = PremiumDistribution.empirical(params, epsilon=epsilon)
    else:
        params = (rng.uniform(1.0, 30.0), rng.uniform(0.05, 1.0))
        prem = PremiumDistribution.truncated_exponential(*params,
                                                         epsilon=epsilon)
    base = Scenario(periods=tuple(periods), premium=prem, pi0=1.0,
                    t_tilde=rng.uniform(0.5, 3.0))
    margin = base.period_scale * sum(
        p.weight * p.utility_price * p.generation.mean for p in periods)
    scn = base.with_pi0(rng.uniform(0.15, 0.85) * margin)
    return scn, rows, prem_kind, params


def _backstop_value(scn: Scenario, rows, c: float) -> float:
    """A(c) = sum w u E[G; c G <= L] on uniform output."""
    total = 0.0
    for period, (load, lo, hi, weight) in zip(scn.periods, rows):
        if hi <= 0.0:
            continue
        top = min(max(load / c, lo), hi)
        total += (weight * period.utility_price
                  * (top * top - lo * lo) / (2.0 * (hi - lo)))
    return total


@settings(max_examples=40, deadline=None)
@given(uniform_output_cases(), st.lists(st.floats(0.05, 3.0), min_size=1,
                                        max_size=3))
def test_revenue_and_prt_capacity_match_panels_broken_at_every_kink(
        case, shares):
    scn, rows, kind, params = case
    quantile = _reference_quantile(kind, params)

    def revenue(c):
        return _reference_revenue(rows, quantile, c)

    c_prt = solve_ne(scn, "prt").capacity
    for c in (c_prt, *(share * c_prt for share in shares)):
        assert _rel(_premium_revenue(scn, c), revenue(c)) <= 1e-14

    eps, target = scn.premium.epsilon, scn.cost_recovering_price

    def excess(c):
        return _backstop_value(scn, rows, c) + eps * revenue(c) - target

    hi = c_prt
    while excess(hi) >= 0.0:
        hi *= 2.0
    lo = 0.5 * hi
    while excess(lo) < 0.0:
        lo *= 0.5
    want = brentq(excess, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
                  maxiter=500)
    assert _rel(c_prt, want) <= 4e-13


# ---------------------------------------------------------- quadrature count

@pytest.fixture
def quadratures(monkeypatch):
    calls = []
    integral = markets._scarcity_integral

    def counted(*args, **kwargs):
        calls.append(args[1])
        return integral(*args, **kwargs)

    monkeypatch.setattr(markets, "_scarcity_integral", counted)
    return calls


DESK_COMMANDS = {
    "solve": ["solve", "--out", "solve.json"],
    "sweep epsilon": ["sweep", "--param", "epsilon",
                      "--values", "0,0.125,0.25,0.5,0.75,1,1.5,2",
                      "--out", "sweep.csv"],
    "report": ["report", "--out-dir", "report"],
}


@pytest.mark.parametrize("name", DESK_COMMANDS)
def test_desk_commands_make_no_quadrature(name, quadratures, tmp_path,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "desk.json").write_text(json.dumps(DESK_CONFIG),
                                        encoding="utf-8")
    argv = DESK_COMMANDS[name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv[:1] + ["--config", "desk.json"] + argv[1:]) == 0
    assert quadratures == []


#: ``_scarcity_integral`` calls of a California ``solve``: its output is
#: tabulated plus a dark period, so every prt revenue evaluation is one.
CALIFORNIA_SOLVE_QUADRATURES = 14


def test_california_solve_keeps_its_quadratures(quadratures, tmp_path):
    config = _write_california_fixtures(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "solve.json")]) == 0
    assert len(quadratures) == CALIFORNIA_SOLVE_QUADRATURES
