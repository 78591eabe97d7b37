"""Data ingestion, model fits, and scenario config assembly."""

import functools
import json
import logging
import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from solarmkt import (GenerationDistribution, PremiumDistribution,
                      ScenarioConfigError, fit_generation_kde,
                      fit_truncated_exponential, load_irradiation_csv,
                      load_premium_survey, load_scenario,
                      prepare_generation_samples)
from solarmkt import pipeline
from solarmkt.cli import main
from solarmkt.pipeline import _silverman_bandwidth
from test_acceptance import _write_california_fixtures

DESK_CONFIG = {
    "pi0_usd_per_kw": 0.125,
    "t_tilde": 1.0,
    "epsilon": 1.0,
    "c_bar_kw": 1.0,
    "premium": {"kind": "uniform", "v_bar": 0.6},
    "periods": [
        {"load_gwh": 1.0, "utility_price_usd_per_kwh": 1.0, "weight": 1.0,
         "generation": {"kind": "uniform", "lo": 0.0, "hi": 1.0}}
    ],
}


# --------------------------------------------------------------- irradiation csv

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_irradiation_three_rows(tmp_path):
    path = _write(tmp_path, "irr.csv",
                  "timestamp,ghi_w_per_m2\n"
                  "2021-06-01T10:00:00,512.5\n"
                  "2021-06-01T11:00:00,640.0\n"
                  "2021-06-01T12:00:00,701.25\n")
    ghi = load_irradiation_csv(path)
    assert ghi.dtype == np.float64
    assert ghi.tolist() == [512.5, 640.0, 701.25]


def test_load_irradiation_rejects_negative_with_line_number(tmp_path):
    path = _write(tmp_path, "irr.csv",
                  "timestamp,ghi_w_per_m2\n"
                  "2021-06-01T10:00:00,512.5\n"
                  "2021-06-01T11:00:00,-3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_irradiation_csv(path)


def test_load_irradiation_rejects_bad_timestamp_and_value(tmp_path):
    bad_ts = _write(tmp_path, "a.csv",
                    "timestamp,ghi_w_per_m2\nnot-a-time,10.0\n")
    with pytest.raises(ValueError, match="timestamp"):
        load_irradiation_csv(bad_ts)
    bad_val = _write(tmp_path, "b.csv",
                     "timestamp,ghi_w_per_m2\n2021-01-01T00:00:00,abc\n")
    with pytest.raises(ValueError, match="unparseable"):
        load_irradiation_csv(bad_val)


def test_load_irradiation_missing_column(tmp_path):
    path = _write(tmp_path, "irr.csv", "timestamp,ghi\n2021-01-01T00:00:00,1\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_irradiation_csv(path)


def test_load_irradiation_accepts_zulu_timestamps(tmp_path):
    path = _write(tmp_path, "irr.csv",
                  "timestamp,ghi_w_per_m2\n2021-06-01T10:00:00Z,512.5\n")
    assert load_irradiation_csv(path)[0] == 512.5


def test_load_irradiation_empty_file_warns(tmp_path, caplog):
    path = _write(tmp_path, "irr.csv", "timestamp,ghi_w_per_m2\n")
    with caplog.at_level(logging.WARNING):
        ghi = load_irradiation_csv(path)
    assert ghi.size == 0
    assert any("no irradiation records" in r.message for r in caplog.records)


# The two CSV loaders keep csv.DictReader's row rules: blank lines are
# skipped, a short row reads its missing fields as None, and columns are
# found by header name wherever they sit.

def test_csv_blank_lines_are_skipped_in_both_files(tmp_path):
    irr = _write(tmp_path, "irr.csv",
                 "timestamp,ghi_w_per_m2\n\n"
                 "2021-06-01T10:00:00,512.5\n\n\n"
                 "2021-06-01T11:00:00,640.0\n\n")
    assert load_irradiation_csv(irr).tolist() == [512.5, 640.0]
    survey = _write(tmp_path, "s.csv", "usd_per_month\n6.0\n\n12.0\n\n")
    assert np.allclose(load_premium_survey(survey, monthly_kwh=600.0),
                       [0.01, 0.02])


def test_csv_short_row_reads_missing_fields_as_none(tmp_path):
    irr = _write(tmp_path, "irr.csv",
                 "timestamp,ghi_w_per_m2\n"
                 "2021-06-01T10:00:00,512.5\n"
                 "2021-06-01T11:00:00\n")
    with pytest.raises(ValueError, match="line 3: unparseable irradiance None"):
        load_irradiation_csv(irr)
    survey = _write(tmp_path, "s.csv", "respondent,usd_per_month\n1,6.0\n2\n")
    with pytest.raises(ValueError, match="line 3: unparseable survey value None"):
        load_premium_survey(survey, monthly_kwh=600.0)


def test_csv_bad_row_after_blank_lines_names_its_own_line(tmp_path):
    irr = _write(tmp_path, "irr.csv",
                 "timestamp,ghi_w_per_m2\n"
                 "2021-06-01T10:00:00,512.5\n\n\n"
                 "2021-06-01T11:00:00,-3.0\n")
    with pytest.raises(ValueError, match="line 5: irradiance must be"):
        load_irradiation_csv(irr)
    survey = _write(tmp_path, "s.csv", "usd_per_month\n6.0\n\nabc\n")
    with pytest.raises(ValueError, match="line 4: unparseable survey value"):
        load_premium_survey(survey, monthly_kwh=600.0)


def test_csv_columns_found_by_name_in_any_order(tmp_path):
    irr = _write(tmp_path, "irr.csv",
                 "site,ghi_w_per_m2,note,timestamp\n"
                 "a,512.5,x,2021-06-01T10:00:00\n"
                 "b,640.0,y,2021-06-01T11:00:00\n")
    assert load_irradiation_csv(irr).tolist() == [512.5, 640.0]
    survey = _write(tmp_path, "s.csv",
                    "respondent,usd_per_month,zip\n1,6.0,94110\n2,12.0,94703\n")
    assert np.allclose(load_premium_survey(survey, monthly_kwh=600.0),
                       [0.01, 0.02])


def test_csv_quoted_fields_parse(tmp_path):
    irr = _write(tmp_path, "irr.csv",
                 'timestamp,ghi_w_per_m2,note\n'
                 '"2021-06-01T10:00:00","512.5","clear, dry"\n')
    assert load_irradiation_csv(irr).tolist() == [512.5]
    survey = _write(tmp_path, "s.csv",
                    'usd_per_month,comment\n"6.0","yes, ""if cheap"""\n')
    assert np.allclose(load_premium_survey(survey, monthly_kwh=600.0), [0.01])


def test_csv_byte_order_mark_is_read_past_in_both_files(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF
    irr = "timestamp,ghi_w_per_m2\n2021-06-01T10:00:00,512.5\n"
    survey = "usd_per_month\n6.0\n12.0\n"
    for text, load in ((irr, load_irradiation_csv),
                       (survey, lambda path: load_premium_survey(path, 600.0))):
        plain = _write(tmp_path, "plain.csv", text)
        marked = _write(tmp_path, "marked.csv", "\ufeff" + text)
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load(marked).tobytes() == load(plain).tobytes()


# ------------------------------------------------------------- sample preparation

def test_prepare_samples_splits_day_and_night():
    day, day_weight, night_weight = prepare_generation_samples(
        [500.0, 0.0, 300.0], efficiency=0.2, night_threshold=0.1)
    assert np.allclose(day, [100.0, 60.0])
    assert (day_weight, night_weight) == (2, 1)


def test_prepare_samples_all_zero_input():
    day, day_weight, night_weight = prepare_generation_samples(
        np.zeros(2), efficiency=0.5, night_threshold=0.1)
    assert day.size == 0 and day_weight == 0 and night_weight == 2


def test_prepare_samples_zero_threshold_keeps_positive_data():
    day, _, night_weight = prepare_generation_samples(
        [5.0, 9.0], efficiency=0.2, night_threshold=0.0)
    assert night_weight == 0 and day.size == 2


def test_prepare_samples_validates_efficiency():
    with pytest.raises(ValueError):
        prepare_generation_samples([1.0], efficiency=0.0)
    with pytest.raises(ValueError):
        prepare_generation_samples([1.0], efficiency=0.2,
                                   night_threshold=-1.0)


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_prepare_samples_rejects_a_threshold_that_is_not_finite(threshold):
    # NaN and inf would count every hour as night and blame the data
    with pytest.raises(ValueError, match="night threshold must be finite "
                       f"and non-negative, got {threshold}"):
        prepare_generation_samples([500.0, 300.0], efficiency=0.2,
                                   night_threshold=threshold)


# ----------------------------------------------------------------------- KDE fit

def test_kde_two_samples_direct_evaluation_oracle():
    gen = fit_generation_kde([1.0, 3.0], bandwidth=1.0, grid_size=4097)
    # oracle: reflected-kernel density evaluated directly
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def oracle(x):
        total = 0.0
        for s in (1.0, 3.0):
            total += math.exp(-0.5 * (x - s) ** 2) + math.exp(-0.5 * (x + s) ** 2)
        return total * norm / 2.0

    total_mass = np.trapezoid(gen.density, gen.grid)
    assert total_mass == pytest.approx(1.0, abs=1e-8)
    # compare shapes up to the renormalization constant
    raw = np.array([oracle(x) for x in gen.grid])
    scale = np.trapezoid(raw, gen.grid)
    assert np.allclose(gen.density, raw / scale, atol=1e-9)


def test_kde_mean_tracks_sample_mean():
    rng = np.random.default_rng(8)
    samples = rng.gamma(4.0, 25.0, 10000)
    gen = fit_generation_kde(samples)
    assert gen.mean == pytest.approx(samples.mean(), rel=0.02)


def test_kde_small_bandwidth_concentrates_near_samples():
    gen = fit_generation_kde([1.0, 3.0], bandwidth=0.05)
    near = float(gen.cdf(1.3)) - float(gen.cdf(0.7))
    assert near == pytest.approx(0.5, abs=0.01)


def test_kde_deterministic():
    rng = np.random.default_rng(3)
    samples = rng.uniform(10.0, 100.0, 500)
    a = fit_generation_kde(samples)
    b = fit_generation_kde(samples.copy())
    assert a == b


def test_kde_rejects_degenerate_samples():
    with pytest.raises(ValueError):
        fit_generation_kde([2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        fit_generation_kde([1.0])


@pytest.mark.parametrize("bandwidth", [math.nan, -0.01, 0.0, math.inf])
def test_kde_names_a_bad_bandwidth_it_was_given(bandwidth):
    with pytest.raises(ValueError, match="^bandwidth must be positive and "
                       f"finite, got {bandwidth}$"):
        fit_generation_kde([1.0, 3.0], bandwidth=bandwidth)
    # Silverman's bandwidth of a sample without spread is the sample's fault
    with pytest.raises(ValueError, match="^degenerate sample"):
        fit_generation_kde([2.0, 2.0, 2.0])


BAD_GRID_SIZES = [0, 1, -5, 2.5, "64", True]


@pytest.mark.parametrize("grid_size", BAD_GRID_SIZES)
def test_kde_names_a_bad_grid_size(grid_size):
    with pytest.raises(ValueError) as info:
        fit_generation_kde([1.0, 3.0], grid_size=grid_size)
    assert str(info.value) == ("grid_size must be an integer of at least 2, "
                               f"got {grid_size!r}")
    assert fit_generation_kde([1.0, 3.0], grid_size=2).grid.size == 2


def test_kde_terms_that_overflow_are_zero_without_a_warning():
    # Silverman's bandwidth here is about 5e-307, so (s - x) / h overflows
    # when squared; the suite turns a RuntimeWarning into an error
    fitted = fit_generation_kde([0.0, 0.0, 0.0, 1e-306, 1e-6], grid_size=3)
    # all the mass sits at 0, in the first trapezoid cell
    assert fitted.density[1:].tolist() == [0.0, 0.0]
    assert fitted.density[0] == pytest.approx(2.0 / fitted.grid[1],
                                              rel=1e-15)


def _broadcast_kde(samples, bandwidth, grid_size):
    """The reflected KDE as one broadcast per 4096-sample block of the
    sorted samples."""
    samples = np.sort(samples)
    grid = np.linspace(0.0, float(samples.max()) * 1.1, grid_size)
    density = np.zeros(grid_size)
    for start in range(0, samples.size, 4096):
        block = samples[start:start + 4096]
        z_direct = (grid[:, None] - block[None, :]) / bandwidth
        z_mirror = (grid[:, None] + block[None, :]) / bandwidth
        density += (np.exp(-0.5 * z_direct ** 2)
                    + np.exp(-0.5 * z_mirror ** 2)).sum(axis=1)
    density /= samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    return GenerationDistribution.from_density_grid(grid, density, normalize=True)


# Sample sets that take the fit down each branch of its mirror skip
# (pipeline._KDE_MIRROR_NEGLIGIBLE), drawn from default_rng(grid_size).
SKIP_DRAWS = {
    # bounded away from 0: most tiles leave out the whole mirror
    "away_from_0": lambda rng: rng.gamma(3.0, 0.05, 1560) + 0.1,
    # a day's bell of irradiance: tiles mirror a prefix of the sorted block
    "gathered": lambda rng: 0.2 * np.exp(
        -0.5 * rng.uniform(-2.0, 2.0, 1560) ** 2) * rng.uniform(
            0.7, 1.05, 1560),
    # a sample at exactly 0 needs its mirror on every row
    "zero": lambda rng: np.append(rng.gamma(3.0, 0.05, 1559), 0.0),
    "uniform_half_1": lambda rng: rng.uniform(0.5, 1.0, 1560),
    # three 4096-sample blocks of the sorted samples, whose minima skip on
    # different tiles
    "three_blocks": lambda rng: np.concatenate([
        rng.gamma(3.0, 0.05, 4096) + 0.2, rng.gamma(3.0, 0.05, 4096),
        rng.uniform(0.4, 0.9, 808)]),
}


@pytest.mark.parametrize("draw, bandwidth, grid_size", [
    (1560, None, 1024),   # the California fixture's day-sample count
    (5000, None, 1024),   # crosses the 4096-sample block
    (1560, None, 7),      # fewer grid rows than one tile
    (1560, None, 33),     # one row past a whole tile
    (5000, None, 1000),   # a partial last tile and a partial last block
    (1560, 0.01, 1024),   # an explicit bandwidth
    ("away_from_0", None, 1024),
    ("gathered", None, 1024),
    ("zero", None, 1024),
    ("uniform_half_1", None, 1024),
    # so narrow that most direct terms underflow: every tile past the
    # first still leaves out every mirror term, which is exactly 0 there
    ("uniform_half_1", 0.005, 1024),
    ("three_blocks", None, 1024),
    ("gathered", None, 2),
])
def test_kde_equals_the_broadcast_formula_bit_for_bit(draw, bandwidth,
                                                      grid_size):
    """draw is n, for n gamma(3, 0.05) samples, or a SKIP_DRAWS name."""
    if isinstance(draw, str):
        samples = SKIP_DRAWS[draw](np.random.default_rng(grid_size))
    else:
        samples = np.random.default_rng(draw + grid_size).gamma(
            3.0, 0.05, draw)
    expected = _broadcast_kde(
        samples, bandwidth or _silverman_bandwidth(np.sort(samples)),
        grid_size)
    fitted = fit_generation_kde(samples, bandwidth=bandwidth,
                                grid_size=grid_size)
    assert fitted == expected


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(0, 10**6).map(lambda k: k * 1e-6),
                       min_size=1, max_size=60),
       copies=st.integers(1, 3), zeros=st.integers(0, 2),
       offset=st.sampled_from([0.0, 0.01, 0.3, 2.0]),
       spread=st.sampled_from([1.0, 0.1, 0.01]),
       exponent=st.floats(-9.0, 9.0),
       width=st.one_of(st.none(), st.floats(-3.0, 0.5)),
       grid_size=st.integers(2, 300))
def test_kde_skip_is_bit_for_bit_on_any_sample(values, copies, zeros, offset,
                                               spread, exponent, width,
                                               grid_size):
    # duplicates, zeros and offsets at scales from 1e-9 to 1e9; a width is
    # the log10 of a bandwidth in units of the spread
    scale = 10.0 ** exponent
    samples = np.concatenate([
        np.tile(np.multiply(values, spread) + offset, copies),
        np.zeros(zeros)]) * scale
    assume(samples.size >= 2 and samples.max() > 0.0)
    bandwidth = _silverman_bandwidth(samples) if width is None else (
        10.0 ** width * spread * scale)
    assume(bandwidth > 0.0)
    fit = functools.partial(fit_generation_kde, samples, bandwidth=bandwidth,
                            grid_size=grid_size)
    try:
        expected = _broadcast_kde(samples, bandwidth, grid_size)
    except ValueError:  # every kernel underflows at every grid point
        with pytest.raises(ValueError, match="integrates to zero"):
            fit()
        return
    fitted = fit()
    assert np.array_equal(fitted.grid, expected.grid)
    assert np.array_equal(fitted.density, expected.density)


def test_kde_peak_memory_is_bounded():
    samples = np.random.default_rng(5).gamma(3.0, 0.05, 1560)
    tracemalloc.start()
    try:
        fit_generation_kde(samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ----------------------------------------------------------------- premium survey

def test_survey_conversion_oracle(tmp_path):
    path = _write(tmp_path, "s.csv", "usd_per_month\n6.0\n12.0\n")
    values = load_premium_survey(path, monthly_kwh=600.0)
    assert np.allclose(values, [0.01, 0.02])
    inflated = load_premium_survey(path, monthly_kwh=600.0,
                                   inflation_factor=1.83)
    assert inflated[0] == pytest.approx(0.0183, abs=1e-15)


def test_survey_roundtrip_conversion(tmp_path):
    path = _write(tmp_path, "s.csv", "usd_per_month\n6.37\n9.115\n54.3\n")
    values = load_premium_survey(path, monthly_kwh=600.0, inflation_factor=1.83)
    back = values * 600.0 / 1.83
    assert np.allclose(back, [6.37, 9.115, 54.3], rtol=1e-14)


def test_survey_rejects_negative(tmp_path):
    path = _write(tmp_path, "s.csv", "usd_per_month\n5.0\n-1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_premium_survey(path, monthly_kwh=600.0)


@pytest.mark.parametrize("text,message", [
    ("", "empty file, expected a header row"),
    ("usd\n6.0\n", "missing columns \\['usd_per_month'\\]")])
def test_survey_header_errors_are_the_irradiation_files(tmp_path, text,
                                                        message):
    path = _write(tmp_path, "s.csv", text)
    with pytest.raises(ValueError, match=message):
        load_premium_survey(path, monthly_kwh=600.0)


def test_survey_empty_is_an_error(tmp_path):
    path = _write(tmp_path, "s.csv", "usd_per_month\n")
    with pytest.raises(ValueError, match="no responses"):
        load_premium_survey(path, monthly_kwh=600.0)


@pytest.mark.parametrize("setting", ["monthly_kwh", "inflation_factor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_survey_rejects_settings_that_are_not_positive_and_finite(
        tmp_path, setting, value):
    path = _write(tmp_path, "s.csv", "usd_per_month\n6.0\n12.0\n")
    settings = dict(monthly_kwh=600.0, inflation_factor=1.83)
    settings[setting] = value
    with pytest.raises(ValueError, match=f"^{setting} must be positive and "
                       f"finite, got {value}$"):
        load_premium_survey(path, **settings)


# --------------------------------------------------------- truncated exponential

def _sample_truncated_exp(rng, rate, v_bar, n):
    # inverse-CDF sampling, independent of the fitted class
    u = rng.random(n)
    return -np.log1p(-u * (1.0 - math.exp(-rate * v_bar))) / rate


def test_truncated_exponential_recovers_rate():
    rng = np.random.default_rng(12)
    samples = _sample_truncated_exp(rng, rate=34.3, v_bar=0.1657, n=10000)
    fitted = fit_truncated_exponential(samples)
    assert fitted.rate == pytest.approx(34.3, rel=0.05)
    assert fitted.v_bar == samples.max()


def test_truncated_exponential_score_identity():
    # at the likelihood optimum the model mean equals the sample mean
    rng = np.random.default_rng(13)
    samples = _sample_truncated_exp(rng, rate=10.0, v_bar=0.5, n=400)
    fitted = fit_truncated_exponential(samples)
    assert fitted.base_mean == pytest.approx(samples.mean(), rel=1e-10)


@pytest.mark.parametrize("v_bar", [1e-6, 0.37, 1e6])
def test_truncated_exponential_fit_is_free_of_units(v_bar):
    # samples v_bar, a, 0, ..., 0 whose mean is the model mean at x,
    # computed in 60-digit decimals; the fit must return rate*v_bar = x
    for x in (0.05, 0.3, 1.0, 5.69, 28.0, 60.0, 300.0):
        with localcontext() as ctx:
            ctx.prec = 60
            big_x = Decimal(x)
            mean = float(Decimal(v_bar) * (1 / big_x - 1 / (big_x.exp() - 1)))
        n = math.ceil(v_bar / mean)
        samples = np.zeros(n)
        samples[0], samples[1] = v_bar, n * mean - v_bar
        fitted = fit_truncated_exponential(samples)
        assert fitted.rate * v_bar == pytest.approx(x, rel=1e-11)


def test_truncated_exponential_fit_recovers_near_flat_rates():
    # near-flat surveys: the model mean is within x/12 of v_bar/2, so an
    # error in it is magnified about 12/x-fold in the fitted x
    v_bar = 1.0
    for x in (1e-5, 1e-3, 1e-2):
        with localcontext() as ctx:
            ctx.prec = 60
            big_x = Decimal(x)
            mean = float(Decimal(v_bar) * (1 / big_x - 1 / (big_x.exp() - 1)))
        n = math.ceil(v_bar / mean)
        samples = np.zeros(n)
        samples[0], samples[1] = v_bar, n * mean - v_bar
        fitted = fit_truncated_exponential(samples)
        assert fitted.rate * v_bar == pytest.approx(x, rel=1e-9)


def test_truncated_exponential_rejects_degenerate():
    with pytest.raises(ValueError):
        fit_truncated_exponential([0.3, 0.3])
    with pytest.raises(ValueError):
        fit_truncated_exponential([0.5])


# ------------------------------------------------------------ order of samples

def _outcome(fit, samples):
    """What a fit makes of its samples: the distribution it fitted, equal
    only to the same bits, or its error."""
    try:
        return fit(samples)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=200),
       top=st.floats(1.0, 100.0), scale=st.sampled_from([1e-6, 1.0, 1e6]),
       bandwidth=st.one_of(st.none(), st.floats(1e-3, 1.0)),
       grid_size=st.integers(2, 200), data=st.data())
def test_fits_do_not_depend_on_the_order_of_their_samples(values, top, scale,
                                                          bandwidth, grid_size,
                                                          data):
    # a top value well above the rest leaves the MLE a positive rate
    samples = np.multiply(values + [top], scale)
    shuffled = np.array(data.draw(st.permutations(samples)))
    fits = [functools.partial(
        fit_generation_kde, bandwidth=bandwidth and bandwidth * scale,
        grid_size=grid_size), fit_truncated_exponential]
    for fit in fits:
        assert _outcome(fit, shuffled) == _outcome(fit, samples)


def _shuffle_rows(path, rng):
    """Rewrite a CSV with its data rows in random order, header first."""
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(header + "".join(rng.permutation(rows)), encoding="utf-8")


def test_a_scenario_does_not_depend_on_the_row_order_of_its_data(tmp_path):
    config = _write_california_fixtures(tmp_path)
    before = load_scenario(config)
    rng = np.random.default_rng(30)
    for name in ("irradiation.csv", "survey.csv"):
        _shuffle_rows(tmp_path / name, rng)
    after = load_scenario(config)
    assert any(p.generation.kind == "tabulated" for p in before.periods)
    assert before == after
    assert before.provenance == after.provenance


def test_scenarios_compare_and_hash_by_their_bits(tmp_path):
    config = _write_california_fixtures(tmp_path)
    scn = load_scenario(config)
    again = load_scenario(config)
    assert scn == again and hash(scn) == hash(again)
    i, gen = next((i, p.generation) for i, p in enumerate(scn.periods)
                  if p.generation.kind == "tabulated")
    density = gen.density.copy()
    density[density.size // 2] = np.nextafter(density[density.size // 2],
                                              np.inf)
    periods = list(scn.periods)
    periods[i] = replace(periods[i],
                         generation=replace(gen, density=density))
    assert replace(scn, periods=tuple(periods)) != scn
    premium = replace(scn.premium, rate=np.nextafter(scn.premium.rate, 0.0))
    assert replace(scn, premium=premium) != scn


# ------------------------------------------------------------------ scenario load

def test_load_scenario_analytic_desk(tmp_path):
    path = _write(tmp_path, "desk.json", json.dumps(DESK_CONFIG))
    scn = load_scenario(path)
    assert scn.pi0 == 0.125
    assert scn.premium.kind == "uniform"
    assert scn.periods[0].generation.kind == "uniform"
    assert scn.provenance["premium"].startswith("uniform")


def test_load_scenario_with_data_files(tmp_path):
    rng = np.random.default_rng(4)
    ghi = rng.uniform(100.0, 900.0, 48)
    _write(tmp_path, "irr.csv", "timestamp,ghi_w_per_m2\n" + "".join(
        f"2021-01-01T{i % 24:02d}:00:00,{v:.2f}\n" for i, v in enumerate(ghi)))
    wtp = rng.exponential(9.0, 200)
    wtp = wtp[wtp < 50.0]
    _write(tmp_path, "survey.csv", "usd_per_month\n" + "".join(
        f"{v:.4f}\n" for v in wtp))
    config = {
        "pi0_usd_per_kw": 2700.0, "t_tilde": 219000.0, "epsilon": 1.0,
        "premium": {"kind": "survey_file", "path": "survey.csv",
                    "monthly_kwh": 600.0, "inflation_factor": 1.83},
        "periods": [
            {"load_gwh": 27.0, "utility_price_usd_per_kwh": 0.29,
             "weight": 0.5,
             "generation": {"kind": "data_file", "path": "irr.csv",
                            "efficiency": 0.2, "night_threshold": 0.1}},
            {"load_gwh": 29.0, "utility_price_usd_per_kwh": 0.29,
             "weight": 0.5,
             "generation": {"kind": "point_mass", "value": 0.0}},
        ],
    }
    path = _write(tmp_path, "ca.json", json.dumps(config))
    scn = load_scenario(path)
    assert scn.periods[0].generation.kind == "tabulated"
    assert scn.periods[1].generation.kind == "point_mass"
    assert scn.premium.kind == "truncated_exponential"
    assert scn.provenance["periods[0].generation"].startswith("data_file(")
    assert scn.provenance["premium"].startswith("survey_file(")

    # the provenance names the bandwidth the fit used and its grid size
    day, _, _ = prepare_generation_samples(
        load_irradiation_csv(tmp_path / "irr.csv"), 0.2, 0.1)
    silverman = _silverman_bandwidth(day * 1e-3)
    assert (f"bandwidth={silverman:.6g}, grid_size=1024,"
            in scn.provenance["periods[0].generation"])
    config["periods"][0]["generation"].update(bandwidth=0.01, grid_size=257)
    path = _write(tmp_path, "ca_explicit.json", json.dumps(config))
    explicit = load_scenario(path)
    assert ("bandwidth=0.01, grid_size=257,"
            in explicit.provenance["periods[0].generation"])
    assert explicit.periods[0].generation.grid.size == 257


def test_data_file_bandwidth_is_computed_once_per_period(tmp_path,
                                                          monkeypatch):
    ghi = np.random.default_rng(5).uniform(100.0, 900.0, 60)
    _write(tmp_path, "irr.csv", "timestamp,ghi_w_per_m2\n" + "".join(
        f"2021-01-01T{i % 24:02d}:00:00,{v:.2f}\n" for i, v in enumerate(ghi)))
    generation = {"kind": "data_file", "path": "irr.csv"}
    config = dict(DESK_CONFIG, periods=[
        {"load_gwh": 1.0, "utility_price_usd_per_kwh": 1.0,
         "generation": generation},
        {"load_gwh": 2.0, "utility_price_usd_per_kwh": 1.0,
         "generation": dict(generation, efficiency=0.3)}])
    path = _write(tmp_path, "two.json", json.dumps(config))
    calls = []
    silverman = pipeline._silverman_bandwidth
    monkeypatch.setattr(pipeline, "_silverman_bandwidth",
                        lambda s: calls.append(s.size) or silverman(s))
    scn = load_scenario(path)
    assert len(calls) == 2
    # the fit gets the bandwidth it would have chosen: the same density
    ghi = load_irradiation_csv(tmp_path / "irr.csv")
    for period, efficiency in zip(scn.periods, (0.2, 0.3)):
        day, _, _ = prepare_generation_samples(ghi, efficiency, 0.1)
        own = fit_generation_kde(day * 1e-3)
        np.testing.assert_array_equal(period.generation.grid, own.grid)
        np.testing.assert_array_equal(period.generation.density, own.density)


def test_load_scenario_inline_models(tmp_path):
    config = {
        "pi0_usd_per_kw": 0.1, "t_tilde": 1.0, "epsilon": 0.8,
        "premium": {"kind": "empirical", "samples": [0.05, 0.2, 0.45]},
        "periods": [
            {"load_gwh": 1.0, "utility_price_usd_per_kwh": 1.0,
             "generation": {"kind": "tabulated",
                            "grid": [0.0, 0.5, 1.0],
                            "density": [0.5, 1.5, 0.5]}},
        ],
    }
    path = _write(tmp_path, "inline.json", json.dumps(config))
    scn = load_scenario(path)
    assert scn.premium.kind == "empirical"
    assert scn.premium.epsilon == 0.8
    assert scn.periods[0].generation.kind == "tabulated"
    assert scn.periods[0].generation.mean == pytest.approx(0.5, rel=1e-12)


def test_load_scenario_names_a_density_that_does_not_integrate_to_1(tmp_path):
    config = dict(DESK_CONFIG, periods=DESK_CONFIG["periods"] + [
        {"load_gwh": 1.0, "utility_price_usd_per_kwh": 1.0,
         "generation": {"kind": "tabulated", "grid": [0, 1, 2],
                        "density": [1, 2, 1]}}])
    path = _write(tmp_path, "unnormalized.json", json.dumps(config))
    with pytest.raises(ScenarioConfigError) as info:
        load_scenario(path)
    assert str(info.value) == ("periods[1].generation: density integrates "
                               "to 3.0, expected 1 within 1e-08")


def test_load_scenario_missing_data_file_names_path(tmp_path):
    config = dict(DESK_CONFIG)
    config["periods"] = [{
        "load_gwh": 1.0, "utility_price_usd_per_kwh": 1.0,
        "generation": {"kind": "data_file", "path": "nowhere.csv"}}]
    path = _write(tmp_path, "bad.json", json.dumps(config))
    with pytest.raises(ScenarioConfigError, match="nowhere.csv"):
        load_scenario(path)


def test_load_scenario_schema_errors(tmp_path):
    with pytest.raises(ScenarioConfigError, match="does not exist"):
        load_scenario(tmp_path / "missing.json")
    bad_json = _write(tmp_path, "bad.json", "{not json")
    with pytest.raises(ScenarioConfigError, match="invalid JSON"):
        load_scenario(bad_json)
    incomplete = _write(tmp_path, "inc.json", json.dumps({"t_tilde": 1.0}))
    with pytest.raises(ScenarioConfigError, match="missing field"):
        load_scenario(incomplete)
    bad_kind = dict(DESK_CONFIG, premium={"kind": "zipf", "v_bar": 1.0})
    path = _write(tmp_path, "kind.json", json.dumps(bad_kind))
    with pytest.raises(ScenarioConfigError, match="unknown premium kind"):
        load_scenario(path)


def test_load_scenario_truncated_exponential_premium(tmp_path):
    config = dict(DESK_CONFIG, epsilon=0.8, premium={
        "kind": "truncated_exponential", "rate": 4.0, "v_bar": 0.6})
    scn = load_scenario(_write(tmp_path, "texp.json", json.dumps(config)))
    assert scn.premium == PremiumDistribution.truncated_exponential(
        4.0, 0.6, epsilon=0.8)
    assert scn.provenance["premium"] == "truncated_exponential(rate=4.0, v_bar=0.6)"

    config["premium"] = dict(config["premium"], rate=-1.0)
    path = _write(tmp_path, "negative.json", json.dumps(config))
    with pytest.raises(ScenarioConfigError, match=r"^premium: .*rate"):
        load_scenario(path)

    config["premium"] = dict(config["premium"], rate=4.0, v_bar=0)
    path = _write(tmp_path, "flat.json", json.dumps(config))
    with pytest.raises(ScenarioConfigError, match=r"^premium: .*v_bar"):
        load_scenario(path)


_DROP = object()


def _edited(config, keys, value):
    """A copy of `config` with the setting at `keys` set to `value`, or
    dropped for _DROP; with no keys, `value` is the whole document."""
    if not keys:
        return value
    config = json.loads(json.dumps(config))
    spec = config
    for key in keys[:-1]:
        spec = spec[key]
    if value is _DROP:
        del spec[keys[-1]]
    else:
        spec[keys[-1]] = value
    return config


#: (keys down to the field, bad value, section the error names) for values
#: of the wrong JSON type, one per config section; None names the config.
WRONG_TYPES = [
    (("periods", 0, "generation", "lo"), "abc", "periods[0].generation"),
    (("premium", "v_bar"), None, "premium"),
    (("epsilon",), [1], None),
    (("periods", 0, "load_gwh"), None, "periods[0]"),
    (("t_tilde",), [1], None),
]


@pytest.mark.parametrize("keys, value, section", WRONG_TYPES,
                         ids=[".".join(map(str, k)) for k, _, _ in WRONG_TYPES])
def test_wrong_json_types_are_config_errors(tmp_path, capsys, keys, value,
                                            section):
    config = _edited(DESK_CONFIG, keys, value)
    path = _write(tmp_path, "bad.json", json.dumps(config))
    prefix = f"{path if section is None else section}: "
    with pytest.raises(ScenarioConfigError) as info:
        load_scenario(path)
    assert str(info.value).startswith(prefix)

    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}")
    assert "Traceback" not in err


# A setting the model cannot use is named as the setting through a config,
# before any data file is blamed for it.

def _data_file_config(tmp_path):
    ghi = np.random.default_rng(6).uniform(100.0, 900.0, 48)
    _write(tmp_path, "irr.csv", "timestamp,ghi_w_per_m2\n" + "".join(
        f"2021-01-01T{i % 24:02d}:00:00,{v:.2f}\n" for i, v in enumerate(ghi)))
    _write(tmp_path, "survey.csv", "usd_per_month\n1.0\n2.0\n3.0\n30.0\n")
    return dict(DESK_CONFIG, premium={"kind": "survey_file",
                                      "path": "survey.csv"}, periods=[
        {"load_gwh": 1.0, "utility_price_usd_per_kwh": 1.0,
         "generation": {"kind": "data_file", "path": "irr.csv"}}])


BAD_SETTINGS = [
    ("premium", "monthly_kwh", math.nan, "premium: monthly_kwh must be "
     "positive and finite, got nan"),
    ("premium", "inflation_factor", math.inf, "premium: inflation_factor "
     "must be positive and finite, got inf"),
    *[("generation", "night_threshold", value, "periods[0].generation: "
       f"night threshold must be finite and non-negative, got {value}")
      for value in (math.nan, math.inf)],
    *[("generation", "irradiance_to_energy", value, "periods[0].generation: "
       f"irradiance_to_energy must be positive and finite, got {value}")
      for value in (math.nan, -1.0, 0.0, math.inf)],
    *[("generation", "bandwidth", value, "periods[0].generation: "
       f"bandwidth must be positive and finite, got {value}")
      for value in (math.nan, -0.01, 0.0, math.inf)],
    *[("generation", "grid_size", value, "periods[0].generation: "
       f"grid_size must be an integer of at least 2, got {value!r}")
      for value in BAD_GRID_SIZES],
]


@pytest.mark.parametrize("section, setting, value, message", BAD_SETTINGS,
                         ids=[f"{k}={v}" for _, k, v, _ in BAD_SETTINGS])
def test_config_names_a_bad_data_file_setting(tmp_path, section, setting,
                                              value, message):
    config = _data_file_config(tmp_path)
    if section == "premium":
        config["premium"][setting] = value
    else:
        config["periods"][0]["generation"][setting] = value
    path = _write(tmp_path, "bad.json", json.dumps(config))  # writes NaN
    with pytest.raises(ScenarioConfigError) as info:
        load_scenario(path)
    assert str(info.value) == message


#: (keys down to the setting, value, section the error names) for config
#: numbers written as a JSON bool or string; None names the config.
NOT_NUMBERS = [
    (("periods", 0, "load_gwh"), True, "periods[0]"),
    (("periods", 0, "weight"), "2", "periods[0]"),
    (("pi0_usd_per_kw",), "2700", None),
    (("epsilon",), "1", None),
    (("periods", 0, "generation", "efficiency"), True,
     "periods[0].generation"),
    (("periods", 0, "generation", "night_threshold"), "0.1",
     "periods[0].generation"),
    (("premium", "monthly_kwh"), True, "premium"),
    (("periods", 0, "generation", "efficiency"), "0.2",
     "periods[0].generation"),
    (("periods", 0, "generation", "bandwidth"), "0.01",
     "periods[0].generation"),
]


@pytest.mark.parametrize("keys, value, section", NOT_NUMBERS,
                         ids=[f"{k[-1]}={v!r}" for k, v, _ in NOT_NUMBERS])
def test_config_names_a_number_that_is_a_bool_or_a_string(tmp_path, keys,
                                                           value, section):
    config = _edited(_data_file_config(tmp_path), keys, value)
    path = _write(tmp_path, "bad.json", json.dumps(config))
    with pytest.raises(ScenarioConfigError) as info:
        load_scenario(path)
    assert str(info.value) == (f"{path if section is None else section}: "
                               f"{keys[-1]} must be a number, "
                               f"got {json.dumps(value)}")


#: (keys down to a setting of the data-file config, its value, the whole
#: message) for the errors of a config's shape; {config} is its path and
#: {csv} the irradiance file's.
CONFIG_SHAPE_ERRORS = [
    ((), [], "{config}: top level must be an object"),
    (("periods",), [], "{config}: 'periods' must be a non-empty list"),
    (("periods",), {"load_gwh": 1.0}, "{config}: 'periods' must be a "
     "non-empty list"),
    (("periods", 0), 5, "periods[0]: must be an object"),
    (("periods", 0, "load_gwh"), _DROP, "periods[0]: missing field "
     "'load_gwh'"),
    (("premium", "path"), _DROP, "premium: missing field 'path'"),
    (("periods", 0, "generation", "kind"), _DROP, "periods[0].generation: "
     "generation spec needs a 'kind'"),
    (("periods", 0, "generation"), 1.0, "periods[0].generation: generation "
     "spec needs a 'kind'"),
    (("premium", "kind"), _DROP, "premium spec needs a 'kind'"),
    (("premium",), ["uniform"], "premium spec needs a 'kind'"),
    (("periods", 0, "generation", "kind"), "zipf", "periods[0].generation: "
     "unknown generation kind 'zipf'"),
    (("periods", 0, "generation", "kind"), ["uniform"],
     "periods[0].generation: unknown generation kind ['uniform']"),
    (("premium", "kind"), ["uniform"], "unknown premium kind ['uniform']"),
    (("periods", 0, "generation", "efficiency"), 1e-4,
     "periods[0].generation: {csv} yields fewer than 2 daytime samples"),
]


@pytest.mark.parametrize("keys, value, message", CONFIG_SHAPE_ERRORS,
                         ids=[m.replace("{config}: ", "").replace("{csv} ", "")
                              for _, _, m in CONFIG_SHAPE_ERRORS])
def test_config_shape_errors_name_their_section(tmp_path, keys, value,
                                                message):
    config = _edited(_data_file_config(tmp_path), keys, value)
    path = _write(tmp_path, "bad.json", json.dumps(config))
    with pytest.raises(ScenarioConfigError) as info:
        load_scenario(path)
    assert str(info.value) == message.format(config=path,
                                             csv=tmp_path / "irr.csv")


HUGE = int("1" + "0" * 400)

#: (keys down to a setting of the data-file config, its value, the whole
#: message) for lists and strings of the wrong JSON type, and integers too
#: large for a float.
NOT_LISTS_OR_STRINGS = [
    (("premium",), {"kind": "empirical", "samples": ["1", "2"]},
     'premium: samples[0] must be a number, got "1"'),
    (("premium",), {"kind": "empirical", "samples": [True, 2]},
     "premium: samples[0] must be a number, got true"),
    (("premium",), {"kind": "empirical", "samples": 5},
     "premium: samples must be a list of numbers, got 5"),
    (("premium",), {"kind": "empirical", "samples": "abc"},
     'premium: samples must be a list of numbers, got "abc"'),
    (("periods", 0, "generation"), {"kind": "tabulated", "grid": ["0", "1"],
                                    "density": [1.0, 1.0]},
     'periods[0].generation: grid[0] must be a number, got "0"'),
    (("periods", 0, "generation"), {"kind": "tabulated", "grid": [0, 1],
                                    "density": [1, HUGE]},
     "periods[0].generation: density[1] must be a number that fits a float, "
     "got an integer of 401 digits"),
    (("premium", "path"), 5, "premium: path must be a string, got 5"),
    (("periods", 0, "generation", "path"), ["irr.csv"],
     'periods[0].generation: path must be a string, got ["irr.csv"]'),
    (("t_tilde",), -HUGE, "{config}: t_tilde must be a number that fits a "
     "float, got an integer of 401 digits"),
]


@pytest.mark.parametrize("keys, value, message", NOT_LISTS_OR_STRINGS,
                         ids=[m.split(": ")[1].split(" must")[0]
                              for _, _, m in NOT_LISTS_OR_STRINGS])
def test_config_names_a_list_or_string_of_the_wrong_type(tmp_path, keys,
                                                         value, message):
    config = _edited(_data_file_config(tmp_path), keys, value)
    path = _write(tmp_path, "bad.json", json.dumps(config))
    with pytest.raises(ScenarioConfigError) as info:
        load_scenario(path)
    assert str(info.value) == message.format(config=path)


def test_an_integer_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    config = _edited(_data_file_config(tmp_path), ("periods", 0, "load_gwh"),
                     HUGE)
    path = _write(tmp_path, "huge.json", json.dumps(config))
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: periods[0]: load_gwh must be a number that fits "
                   "a float, got an integer of 401 digits\n")


def test_an_integer_of_too_many_digits_for_python_names_the_config(tmp_path):
    # json refuses to parse an integer of more than 4300 digits
    text = json.dumps(DESK_CONFIG).replace('"t_tilde": 1.0',
                                           '"t_tilde": 1' + "0" * 5000)
    path = _write(tmp_path, "digits.json", text)
    with pytest.raises(ScenarioConfigError) as info:
        load_scenario(path)
    assert str(info.value).startswith(f"{path}: ")


def test_unknown_settings_are_warned_about_by_section(tmp_path, caplog):
    config = _data_file_config(tmp_path)
    # a kind belongs on the generation, not on its period
    config["periods"][0].update(wieght=2.0, kind="data_file")
    config["periods"][0]["generation"].update(efficency=0.3)
    config["premium"].update(monthly_kwhs=500.0, inflation=1.1)
    path = _write(tmp_path, "typos.json", json.dumps(config))
    with caplog.at_level(logging.WARNING, logger="solarmkt"):
        scenario = load_scenario(path)
    assert [r.getMessage() for r in caplog.records] == [
        "premium: unknown setting 'monthly_kwhs' is ignored",
        "premium: unknown setting 'inflation' is ignored",
        "periods[0]: unknown setting 'wieght' is ignored",
        "periods[0]: unknown setting 'kind' is ignored",
        "periods[0].generation: unknown setting 'efficency' is ignored"]
    # the misspelled settings keep their defaults
    plain = load_scenario(_write(tmp_path, "plain.json",
                                 json.dumps(_data_file_config(tmp_path))))
    assert scenario.provenance == plain.provenance
    assert scenario.periods[0].weight == 1.0


def test_shipped_configs_log_nothing(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="solarmkt"):
        load_scenario(_write_california_fixtures(tmp_path))
        load_scenario(_write(tmp_path, "desk.json", json.dumps(DESK_CONFIG)))
    assert caplog.records == []


def test_readme_names_every_setting_of_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    schema, kinds = readme.split("## Scenario config schema")[1].split(
        "Generation kinds", 1)
    for row in (pipeline._TOP, pipeline._PERIOD):
        assert [name for name in row if f'"{name}"' not in schema] == []
    generation, premium = kinds.split("Premium kinds", 1)
    for what, text in (("generation", generation), ("premium", premium)):
        table = {line.split("|")[1].strip(" `"): line
                 for line in text.split("\n\n")[1].splitlines()}
        for kind, (_, row) in pipeline._KINDS[what].items():
            assert [name for name in row if f"`{name}`" not in table[kind]] == []


def test_config_keeps_the_degenerate_sample_message(tmp_path):
    config = _data_file_config(tmp_path)
    # two equal hours: their mean is exact, so Silverman's spread is 0
    _write(tmp_path, "irr.csv", "timestamp,ghi_w_per_m2\n"
           "2021-01-01T11:00:00,500.0\n2021-01-01T12:00:00,500.0\n")
    path = _write(tmp_path, "flat.json", json.dumps(config))
    with pytest.raises(ScenarioConfigError, match="^periods\\[0\\].generation: "
                       "degenerate sample \\(zero spread\\); cannot fit a KDE$"):
        load_scenario(path)


def test_data_file_periods_read_through_the_public_loaders(tmp_path,
                                                           monkeypatch):
    config = _data_file_config(tmp_path)
    data_file = config["periods"][0]
    config["periods"] = [data_file, dict(data_file, load_gwh=2.0), {
        "load_gwh": 1.0, "utility_price_usd_per_kwh": 1.0,
        "generation": {"kind": "point_mass", "value": 0.0}}]
    calls = []
    for name in ("load_irradiation_csv", "prepare_generation_samples"):
        own = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args, own=own, name=name:
                            calls.append(name) or own(*args))
    load_scenario(_write(tmp_path, "three.json", json.dumps(config)))
    assert calls.count("load_irradiation_csv") == 2
    assert calls.count("prepare_generation_samples") == 2
