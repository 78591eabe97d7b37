"""Data ingestion, model fits, and scenario config assembly."""

import json
import logging
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from solarmkt import (IrradiationRecord, ScenarioConfigError,
                      fit_generation_kde, fit_truncated_exponential,
                      load_irradiation_csv, load_premium_survey,
                      load_scenario, prepare_generation_samples)

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
    records = load_irradiation_csv(path)
    assert len(records) == 3
    assert records[0] == IrradiationRecord("2021-06-01T10:00:00", 512.5)


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
    records = load_irradiation_csv(path)
    assert records[0].ghi == 512.5


def test_load_irradiation_empty_file_warns(tmp_path, caplog):
    path = _write(tmp_path, "irr.csv", "timestamp,ghi_w_per_m2\n")
    with caplog.at_level(logging.WARNING):
        records = load_irradiation_csv(path)
    assert records == []
    assert any("no irradiation records" in r.message for r in caplog.records)


# ------------------------------------------------------------- sample preparation

def _records(*ghi):
    return [IrradiationRecord(f"2021-01-01T{i:02d}:00:00", g)
            for i, g in enumerate(ghi)]


def test_prepare_samples_splits_day_and_night():
    day, day_weight, night_weight = prepare_generation_samples(
        _records(500.0, 0.0, 300.0), efficiency=0.2, night_threshold=0.1)
    assert np.allclose(day, [100.0, 60.0])
    assert (day_weight, night_weight) == (2, 1)


def test_prepare_samples_all_zero_input():
    day, day_weight, night_weight = prepare_generation_samples(
        _records(0.0, 0.0), efficiency=0.5, night_threshold=0.1)
    assert day.size == 0 and day_weight == 0 and night_weight == 2


def test_prepare_samples_zero_threshold_keeps_positive_data():
    day, _, night_weight = prepare_generation_samples(
        _records(5.0, 9.0), efficiency=0.2, night_threshold=0.0)
    assert night_weight == 0 and day.size == 2


def test_prepare_samples_validates_efficiency():
    with pytest.raises(ValueError):
        prepare_generation_samples(_records(1.0), efficiency=0.0)
    with pytest.raises(ValueError):
        prepare_generation_samples(_records(1.0), efficiency=0.2,
                                   night_threshold=-1.0)


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
    assert np.array_equal(a.density, b.density)
    assert np.array_equal(a.grid, b.grid)


def test_kde_rejects_degenerate_samples():
    with pytest.raises(ValueError):
        fit_generation_kde([2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        fit_generation_kde([1.0])


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


def test_survey_empty_is_an_error(tmp_path):
    path = _write(tmp_path, "s.csv", "usd_per_month\n")
    with pytest.raises(ValueError, match="no responses"):
        load_premium_survey(path, monthly_kwh=600.0)


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
    assert "kde" in scn.provenance["periods[0].generation"]
    assert "survey" in scn.provenance["premium"]


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
    with pytest.raises(ScenarioConfigError, match="missing key"):
        load_scenario(incomplete)
    bad_kind = dict(DESK_CONFIG, premium={"kind": "zipf", "v_bar": 1.0})
    path = _write(tmp_path, "kind.json", json.dumps(bad_kind))
    with pytest.raises(ScenarioConfigError, match="unknown premium kind"):
        load_scenario(path)
