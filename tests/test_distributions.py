"""Generation and premium distribution transforms against brute-force oracles."""

import math
from dataclasses import replace
from decimal import Decimal, localcontext
from functools import cached_property

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from solarmkt import GenerationDistribution, PremiumDistribution


def u01():
    return GenerationDistribution.uniform(0.0, 1.0)


def uniform_premium(v_bar=0.6, epsilon=1.0):
    return PremiumDistribution.uniform(v_bar, epsilon=epsilon)


# ---------------------------------------------------------------- truncated mean

def test_truncated_mean_at_zero_capacity_is_full_mean():
    assert u01().truncated_mean(0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_truncated_mean_quadrature_oracle():
    # oracle: integral of g over [0, L/d] for the unit uniform density
    oracle, _ = quad(lambda g: g, 0.0, 0.5)
    assert u01().truncated_mean(2.0, 1.0) == pytest.approx(oracle, abs=1e-12)
    assert u01().truncated_mean(2.0, 1.0) == pytest.approx(0.125, abs=1e-12)


def test_truncated_mean_point_mass_zero_is_zero_everywhere():
    gen = GenerationDistribution.point_mass(0.0)
    for d in (0.0, 0.5, 3.0, 1e6):
        assert gen.truncated_mean(d, 1.0) == 0.0


def test_truncated_mean_point_mass_positive_steps_at_boundary():
    gen = GenerationDistribution.point_mass(0.5)
    assert gen.truncated_mean(1.0, 1.0) == 0.5
    assert gen.truncated_mean(2.0, 1.0) == 0.5  # d*g == L counts as scarce
    assert gen.truncated_mean(2.1, 1.0) == 0.0


def test_truncated_mean_monotone_in_capacity():
    rng = np.random.default_rng(0)
    for gen in (u01(), GenerationDistribution.uniform(0.2, 1.7)):
        d = np.sort(rng.uniform(0.0, 5.0, 50))
        mu = gen.truncated_mean(d, 1.3)
        assert np.all(np.diff(mu) <= 1e-15)


def test_truncated_mean_rejects_bad_inputs():
    with pytest.raises(ValueError):
        u01().truncated_mean(-1.0, 1.0)
    with pytest.raises(ValueError):
        u01().truncated_mean(math.nan, 1.0)
    with pytest.raises(ValueError):
        u01().truncated_mean(1.0, 0.0)


# ------------------------------------------------------------------- tabulated

def _tab_from_callable(fn, hi, n=2049):
    grid = np.linspace(0.0, hi, n)
    return GenerationDistribution.from_density_grid(grid, fn(grid),
                                                    normalize=True)


def test_tabulated_density_normalizes_and_mean_matches_moment():
    gen = _tab_from_callable(lambda g: np.exp(-0.5 * (g - 1.0) ** 2), 3.0)
    total = np.trapezoid(gen.density, gen.grid)
    assert total == pytest.approx(1.0, abs=1e-8)
    moment = np.trapezoid(gen.grid * gen.density, gen.grid)
    assert gen.mean == pytest.approx(moment, rel=1e-6)


def test_tabulated_partial_moments_match_simpson_oracle():
    gen = _tab_from_callable(lambda g: 0.3 + np.sin(g) ** 2, 2.0)

    def oracle_m1(x):
        xs = np.linspace(0.0, x, 20001)
        return np.trapezoid(xs * np.interp(xs, gen.grid, gen.density), xs)

    for x in (0.3, 0.77, 1.5, 2.0):
        assert float(gen.partial_first_moment(x)) == pytest.approx(
            oracle_m1(x), rel=1e-6)


def test_tabulated_truncated_mean_matches_quadrature_oracle():
    gen = _tab_from_callable(lambda g: 1.0 + 0.5 * g, 1.5)
    d, load = 1.7, 1.0
    cut = load / d
    oracle, _ = quad(lambda g: g * np.interp(g, gen.grid, gen.density), 0.0, cut,
                     limit=200)
    assert float(gen.truncated_mean(d, load)) == pytest.approx(oracle, rel=1e-7)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        GenerationDistribution.from_density_grid([0.0, 1.0], [1.0, -0.1])
    with pytest.raises(ValueError):
        GenerationDistribution.from_density_grid([0.0, 1.0, 0.5], [1, 1, 1])
    with pytest.raises(ValueError):
        GenerationDistribution.from_density_grid([0.0, 1.0], [3.0, 3.0])


def test_error_messages_print_numpy_scalars_as_plain_floats():
    with pytest.raises(ValueError) as info:
        GenerationDistribution.from_density_grid([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])
    assert str(info.value) == "density integrates to 3.0, expected 1 within 1e-08"
    with pytest.raises(ValueError) as info:
        GenerationDistribution.point_mass(np.float64("nan"))
    assert str(info.value) == "point mass must be finite, got nan"
    with pytest.raises(ValueError) as info:
        GenerationDistribution.uniform(np.float64(0.0), np.float64("inf"))
    assert str(info.value) == "uniform bounds must be finite, got inf"


def test_uniform_validation():
    with pytest.raises(ValueError):
        GenerationDistribution.uniform(1.0, 0.5)
    with pytest.raises(ValueError):
        GenerationDistribution.uniform(-0.5, 0.5)
    with pytest.raises(ValueError):
        GenerationDistribution.uniform(0.0, math.inf)


# ---------------------------------------------------------------- premium model

def test_complementary_quantile_uniform_closed_form():
    # 0.6 * (1 - 0.6) by hand
    assert uniform_premium().complementary_quantile(0.6) == pytest.approx(
        0.24, abs=1e-15)


def test_complementary_quantile_exhausted_at_top():
    for prem in (uniform_premium(),
                 PremiumDistribution.truncated_exponential(5.0, 0.4),
                 PremiumDistribution.empirical([0.1, 0.2, 0.5])):
        assert prem.complementary_quantile(1.0) == pytest.approx(0.0, abs=1e-12)
        assert prem.complementary_quantile(0.0) == pytest.approx(
            prem.epsilon * prem.v_bar, rel=1e-12)


@pytest.mark.parametrize("x", [0.5, 5.0, 28.0, 60.0, 300.0])
def test_truncated_exponential_quantile_is_accurate_near_the_top(x):
    # reference: -log(1 - (1 - p) k) / rate in 200-digit decimals, which
    # resolve 1 - k = e^-x even at x = 300
    v_bar = 0.7
    rate = x / v_bar
    prem = PremiumDistribution.truncated_exponential(rate, v_bar)
    p = np.array([0.0, 1e-15, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0])
    got = prem.complementary_quantile(p)
    with localcontext() as ctx:
        ctx.prec = 200
        r = Decimal(rate)
        k = 1 - (-r * Decimal(v_bar)).exp()
        ref = [float(-(1 - (1 - Decimal(q)) * k).ln() / r) for q in p]
    assert got[-1] == 0.0
    assert got[:-1] == pytest.approx(ref[:-1], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x", [1e-6, 1e-3, 0.5, 5.0, 28.0, 60.0, 300.0])
def test_truncated_exponential_integrated_quantile_is_accurate(x):
    # reference: the antiderivative t - t log t of the inverse survival,
    # differenced between t0 = 1 - k = e^-x and t0 + s k in 80-digit
    # decimals, divided by rate * k (80 digits hold 1 - k = e^-300 only
    # when it is taken as e^-x)
    v_bar = 0.7
    rate = x / v_bar
    prem = PremiumDistribution.truncated_exponential(rate, v_bar)
    s = np.array([1e-12, 1e-9, 1e-6, 0.3, 1.0])
    got = prem.integrated_complementary_quantile(s)
    with localcontext() as ctx:
        ctx.prec = 80
        r = Decimal(rate)
        t0 = (-r * Decimal(v_bar)).exp()
        k = 1 - t0

        def anti(t):
            return t - t * t.ln()

        ref = [float((anti(t0 + Decimal(q) * k) - anti(t0)) / (r * k))
               for q in s]
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_complementary_quantile_zero_scale():
    assert uniform_premium(epsilon=0.0).complementary_quantile(0.2) == 0.0


def test_complementary_quantile_rejects_out_of_range():
    with pytest.raises(ValueError):
        uniform_premium().complementary_quantile(1.5)
    with pytest.raises(ValueError):
        uniform_premium().complementary_quantile(-0.2)


def test_complementary_quantile_non_increasing():
    p = np.linspace(0.0, 1.0, 101)
    for prem in (uniform_premium(),
                 PremiumDistribution.truncated_exponential(12.0, 0.8),
                 PremiumDistribution.empirical(np.random.default_rng(3)
                                               .uniform(0.0, 1.0, 40))):
        vals = prem.complementary_quantile(p)
        assert np.all(np.diff(vals) <= 1e-15)


def test_scale_doubling_is_exact():
    p = np.linspace(0.0, 1.0, 57)
    for make in (lambda e: uniform_premium(epsilon=e),
                 lambda e: PremiumDistribution.truncated_exponential(8.0, 0.5, e),
                 lambda e: PremiumDistribution.empirical([0.05, 0.3, 0.31, 0.6],
                                                         epsilon=e)):
        one = np.asarray(make(1.0).complementary_quantile(p))
        two = np.asarray(make(2.0).complementary_quantile(p))
        assert np.array_equal(two, 2.0 * one)


def _bits(value):
    """A value's bits: arrays as dtype, shape and bytes, floats as hex."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return float(value).hex()


def test_with_epsilon_carries_every_cached_table_over():
    names = sorted(name for name, attr in vars(PremiumDistribution).items()
                   if isinstance(attr, cached_property))
    carried = set()
    for make in (lambda e: uniform_premium(epsilon=e),
                 lambda e: PremiumDistribution.truncated_exponential(8.0, 0.5, e),
                 lambda e: PremiumDistribution.empirical(
                     [0.05, 0.3, 0.3, 0.31, 0.6], epsilon=e)):
        base = make(1.0)
        for name in names:  # a table some kind does not have fails to build
            try:
                getattr(base, name)
            except AttributeError:
                pass
        built = [name for name in names if name in vars(base)]
        scaled, fresh = base.with_epsilon(0.25), make(0.25)
        assert scaled == fresh
        for name in built:
            assert name in vars(scaled), name
            assert _bits(vars(scaled)[name]) == _bits(getattr(fresh, name)), name
        carried.update(built)
    assert carried == set(names)


def test_survival_inverts_complementary_quantile():
    p = np.linspace(0.01, 0.99, 41)
    rng = np.random.default_rng(6)
    for prem in (uniform_premium(),
                 PremiumDistribution.truncated_exponential(10.0, 0.3),
                 PremiumDistribution.empirical(rng.uniform(0.01, 0.9, 60))):
        v = prem.complementary_quantile(p)
        assert np.allclose(prem.survival(v), p, atol=1e-10)


def test_mean_premium_examples():
    assert uniform_premium().mean == pytest.approx(0.3, abs=1e-15)
    assert uniform_premium(epsilon=0.0).mean == 0.0


def test_mean_premium_truncated_exponential_survey_fit_target():
    # rate solved here against the closed-form truncated-exponential mean,
    # independently of the class internals
    v_bar = 0.1657

    def texp_mean(rate):
        return 1.0 / rate - v_bar / math.expm1(rate * v_bar)

    rate = brentq(lambda r: texp_mean(r) - 0.0286, 1.0, 1e3)
    prem = PremiumDistribution.truncated_exponential(rate, v_bar)
    assert prem.mean == pytest.approx(0.0286, rel=1e-9)


def test_mean_matches_quantile_integral():
    for prem in (uniform_premium(0.7, 0.8),
                 PremiumDistribution.truncated_exponential(15.0, 0.4, 0.5),
                 PremiumDistribution.empirical([0.0, 0.1, 0.4, 0.9], 1.3)):
        oracle, _ = quad(lambda p: prem.complementary_quantile(p), 0.0, 1.0,
                         limit=200)
        assert prem.mean == pytest.approx(oracle, rel=1e-8)


def test_integrated_complementary_quantile_matches_quadrature():
    for prem in (uniform_premium(),
                 PremiumDistribution.truncated_exponential(20.0, 0.25, 0.7),
                 PremiumDistribution.empirical([0.02, 0.2, 0.21, 0.5])):
        for s in (0.0, 0.13, 0.5, 0.99, 1.0):
            oracle, _ = quad(lambda p: prem.complementary_quantile(p), 0.0, s,
                             limit=200)
            assert float(prem.integrated_complementary_quantile(s)) == \
                pytest.approx(oracle, rel=1e-7, abs=1e-12)
        assert float(prem.integrated_complementary_quantile(1.0)) == \
            pytest.approx(prem.mean, rel=1e-10)


def test_empirical_quantile_anchors():
    prem = PremiumDistribution.empirical([0.2, 0.1, 0.4])  # unsorted on purpose
    assert prem.v_bar == 0.4
    assert float(prem.complementary_quantile(1.0)) == 0.0
    assert float(prem.complementary_quantile(0.0)) == pytest.approx(0.4)


def test_empirical_needs_two_samples():
    with pytest.raises(ValueError):
        PremiumDistribution.empirical([0.3])


def test_premium_validation():
    with pytest.raises(ValueError):
        PremiumDistribution.uniform(-0.1)
    with pytest.raises(ValueError):
        PremiumDistribution.uniform(0.5, epsilon=-1.0)
    with pytest.raises(ValueError):
        PremiumDistribution.truncated_exponential(0.0, 0.5)
    # a premium without spread: epsilon = 0 is the one way to say "none"
    for build in (lambda: PremiumDistribution.uniform(0.0),
                  lambda: PremiumDistribution.truncated_exponential(3.0, 0.0),
                  lambda: PremiumDistribution.empirical([0.0, 0.0])):
        with pytest.raises(ValueError, match="epsilon=0"):
            build()


def test_generation_sampling_matches_distribution():
    rng = np.random.default_rng(11)
    gen = _tab_from_callable(lambda g: 1.0 + g, 2.0)
    draws = gen.sample(rng, 40000)
    assert draws.mean() == pytest.approx(gen.mean, rel=0.02)
    assert draws.min() >= 0.0 and draws.max() <= 2.0


# -------------------------------------------------------------------- equality

TABLES = {
    "density": lambda: GenerationDistribution.from_density_grid(
        [0.0, 1.0, 2.0], [0.5, 0.5, 0.5], normalize=True),
    "quantiles": lambda: PremiumDistribution.empirical([0.1, 0.4, 0.2]),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_distributions_are_equal_exactly_when_their_bits_are(name):
    build = TABLES[name]
    a, b = build(), build()
    assert a == b and hash(a) == hash(b)
    assert a != name
    bumped = getattr(a, name).copy()
    bumped[1] = np.nextafter(bumped[1], np.inf)
    assert replace(a, **{name: bumped}) != a
    # the same values in another dtype or shape are other bits
    table = getattr(a, name)
    assert replace(a, **{name: table.astype(np.float32)}) != a
    assert replace(a, **{name: table[:, None]}) != a


def test_analytic_distributions_compare_by_kind_and_scalars():
    texp = PremiumDistribution.truncated_exponential(3.0, 0.5)
    assert texp == PremiumDistribution.truncated_exponential(3.0, 0.5)
    assert hash(texp) == hash(PremiumDistribution.truncated_exponential(3.0, 0.5))
    assert texp != texp.with_epsilon(0.5)
    assert PremiumDistribution.uniform(0.5) != replace(texp, rate=0.0)
    assert GenerationDistribution.uniform(0.0, 1.0) != \
        GenerationDistribution.uniform(0.0, np.nextafter(1.0, 2.0))
