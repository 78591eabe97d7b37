"""Ingestion of irradiation and premium-survey data, model fits, configs.

The irradiation path goes: hourly global horizontal irradiance (W/m^2)
-> efficiency scaling -> day/night split at a small threshold -> unit
conversion into per-unit-capacity energy -> Gaussian KDE with boundary
reflection at zero, tabulated on a uniform grid.  The premium path
converts monthly willingness-to-pay dollars into $/kWh and fits a
truncated exponential by maximum likelihood.  ``load_scenario`` glues
fitted and analytic models into a full Scenario from one JSON document
(schema in the README).
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .distributions import (GenerationDistribution, PeriodProfile,
                            PremiumDistribution)
from .markets import Scenario
from .numerics import sup_level_set

__all__ = [
    "IrradiationRecord",
    "ScenarioConfigError",
    "load_irradiation_csv",
    "prepare_generation_samples",
    "fit_generation_kde",
    "load_premium_survey",
    "fit_truncated_exponential",
    "load_scenario",
]

logger = logging.getLogger(__name__)

IRRADIATION_COLUMNS = ("timestamp", "ghi_w_per_m2")
SURVEY_COLUMN = "usd_per_month"

#: Default W/m^2 -> kWh per kW per hour-period conversion (1 kW of panel
#: is rated at 1000 W/m^2, so effective irradiance divides by 1000).
DEFAULT_IRRADIANCE_TO_ENERGY = 1.0e-3

DEFAULT_KDE_GRID_SIZE = 1024


class ScenarioConfigError(ValueError):
    """A scenario config is malformed or references missing data."""


@dataclass(frozen=True)
class IrradiationRecord:
    timestamp: str
    ghi: float


def load_irradiation_csv(path) -> list[IrradiationRecord]:
    """Parse an hourly irradiation CSV with header timestamp,ghi_w_per_m2.

    Malformed rows raise with their line number; an empty file is legal
    but logged as a warning.
    """
    path = Path(path)
    records: list[IrradiationRecord] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [c for c in IRRADIATION_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for row in reader:
            line = reader.line_num
            stamp = (row["timestamp"] or "").strip()
            try:
                # fromisoformat before 3.11 rejects the Zulu suffix
                datetime.fromisoformat(stamp.replace("Z", "+00:00"))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: bad timestamp "
                                 f"{stamp!r}: {exc}") from None
            try:
                ghi = float(row["ghi_w_per_m2"])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: line {line}: unparseable irradiance "
                                 f"{row['ghi_w_per_m2']!r}") from None
            if not math.isfinite(ghi) or ghi < 0.0:
                raise ValueError(f"{path}: line {line}: irradiance must be "
                                 f"finite and non-negative, got {ghi}")
            records.append(IrradiationRecord(timestamp=stamp, ghi=ghi))
    if not records:
        logger.warning("%s: no irradiation records", path)
    return records


def prepare_generation_samples(records, efficiency: float,
                               night_threshold: float = 0.1):
    """Scale irradiance by panel efficiency and split day from night hours.

    Hours whose effective irradiance is at or below the threshold count
    into the night weight; the rest become the day sample.  Returns
    (day_samples, day_weight, night_weight) with weights as record
    counts.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in (0, 1], got {efficiency}")
    if night_threshold < 0.0:
        raise ValueError(f"night threshold must be non-negative, got {night_threshold}")
    effective = np.array([r.ghi for r in records], dtype=float) * efficiency
    day = effective[effective > night_threshold]
    night_weight = int(effective.size - day.size)
    return day, int(day.size), night_weight


def _silverman_bandwidth(samples: np.ndarray) -> float:
    std = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0.0 else std
    return 0.9 * spread * samples.size ** (-0.2)


def fit_generation_kde(samples, bandwidth: float | None = None,
                       grid_size: int = DEFAULT_KDE_GRID_SIZE
                       ) -> GenerationDistribution:
    """Gaussian KDE of non-negative output samples, reflected at zero.

    The density is tabulated on a uniform grid over [0, 1.1 * max] and
    renormalized, so mass the kernels would leak below zero is folded
    back instead of lost.  Bandwidth defaults to Silverman's rule.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("KDE fit needs at least 2 samples")
    if not np.all(np.isfinite(samples)) or np.any(samples < 0.0):
        raise ValueError("samples must be finite and non-negative")
    if bandwidth is None:
        bandwidth = _silverman_bandwidth(samples)
    if not math.isfinite(bandwidth) or bandwidth <= 0.0:
        raise ValueError("degenerate sample (zero spread); cannot fit a KDE")
    hi = float(samples.max()) * 1.1
    if hi <= 0.0:
        raise ValueError("all samples are zero; use a point mass instead")
    grid = np.linspace(0.0, hi, grid_size)
    density = np.zeros(grid_size)
    for start in range(0, samples.size, 4096):  # bound the temporaries
        block = samples[start:start + 4096]
        z_direct = (grid[:, None] - block[None, :]) / bandwidth
        z_mirror = (grid[:, None] + block[None, :]) / bandwidth
        density += (np.exp(-0.5 * z_direct ** 2)
                    + np.exp(-0.5 * z_mirror ** 2)).sum(axis=1)
    density /= samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    return GenerationDistribution.from_density_grid(grid, density, normalize=True)


def load_premium_survey(path, monthly_kwh: float,
                        inflation_factor: float = 1.0) -> np.ndarray:
    """Convert monthly willingness-to-pay dollars into $/kWh premiums."""
    if monthly_kwh <= 0.0:
        raise ValueError(f"monthly_kwh must be positive, got {monthly_kwh}")
    if inflation_factor <= 0.0:
        raise ValueError(f"inflation_factor must be positive, got {inflation_factor}")
    path = Path(path)
    values = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or SURVEY_COLUMN not in reader.fieldnames:
            raise ValueError(f"{path}: expected a header with column "
                             f"{SURVEY_COLUMN!r}")
        for row in reader:
            line = reader.line_num
            try:
                usd = float(row[SURVEY_COLUMN])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: line {line}: unparseable survey "
                                 f"value {row[SURVEY_COLUMN]!r}") from None
            if not math.isfinite(usd) or usd < 0.0:
                raise ValueError(f"{path}: line {line}: survey values must be "
                                 f"finite and non-negative, got {usd}")
            values.append(usd)
    if not values:
        raise ValueError(f"{path}: survey file holds no responses")
    return np.asarray(values, dtype=float) * inflation_factor / monthly_kwh


def fit_truncated_exponential(samples) -> PremiumDistribution:
    """Maximum-likelihood truncated exponential, truncated at the sample max.

    The likelihood score reduces to matching the model mean to the
    sample mean, a monotone one-dimensional root in the rate.  It is
    searched in x = rate * v_bar, so the tolerance is relative and free
    of units.  The model mean falls from v_bar / 2 at x = 0, above any
    accepted sample mean, to below the sample mean at x = v_bar / mean,
    which brackets the root.  Samples whose mean is not below half the
    maximum (the flat-density limit) are rejected as degenerate.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("truncated-exponential fit needs at least 2 samples")
    if not np.all(np.isfinite(samples)) or np.any(samples < 0.0):
        raise ValueError("samples must be finite and non-negative")
    v_bar = float(samples.max())
    mean = float(samples.mean())
    if v_bar <= 0.0 or mean <= 0.0:
        raise ValueError("degenerate sample: no positive support")
    if mean >= 0.5 * v_bar * (1.0 - 1e-9):
        raise ValueError(
            f"sample mean {mean:g} is not below half the maximum {v_bar:g}; "
            "no positive-rate truncated exponential fits")

    def model_mean(x):
        return PremiumDistribution.truncated_exponential(
            float(x) / v_bar, v_bar).base_mean

    x, _, _ = sup_level_set(model_mean, mean, 0.0, v_bar / mean)
    rate = float(x) / v_bar
    fitted = PremiumDistribution.truncated_exponential(rate=rate, v_bar=v_bar)
    logger.info("truncated-exponential fit: rate=%.6g, v_bar=%.6g, mean=%.6g",
                rate, v_bar, fitted.base_mean)
    return fitted


# ----------------------------------------------------------------------
# Scenario configs
# ----------------------------------------------------------------------

def _resolve(path_str: str, base: Path) -> Path:
    path = Path(path_str)
    resolved = path if path.is_absolute() else base / path
    if not resolved.exists():
        raise ScenarioConfigError(f"referenced data file does not exist: {resolved}")
    return resolved


def _build_generation(spec, base: Path, provenance: dict, key: str
                      ) -> GenerationDistribution:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioConfigError(f"{key}: generation spec needs a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "uniform":
            provenance[key] = f"uniform({spec['lo']}, {spec['hi']})"
            return GenerationDistribution.uniform(spec["lo"], spec["hi"])
        if kind == "point_mass":
            provenance[key] = f"point_mass({spec['value']})"
            return GenerationDistribution.point_mass(spec["value"])
        if kind == "tabulated":
            provenance[key] = "tabulated(inline)"
            return GenerationDistribution.from_density_grid(
                spec["grid"], spec["density"])
        if kind == "data_file":
            path = _resolve(spec["path"], base)
            efficiency = spec.get("efficiency", 0.2)
            threshold = spec.get("night_threshold", 0.1)
            conversion = spec.get("irradiance_to_energy",
                                  DEFAULT_IRRADIANCE_TO_ENERGY)
            records = load_irradiation_csv(path)
            day, day_weight, night_weight = prepare_generation_samples(
                records, efficiency, threshold)
            if day.size < 2:
                raise ScenarioConfigError(
                    f"{key}: {path} yields fewer than 2 daytime samples")
            fitted = fit_generation_kde(
                day * conversion, bandwidth=spec.get("bandwidth"),
                grid_size=spec.get("grid_size", DEFAULT_KDE_GRID_SIZE))
            provenance[key] = (
                f"kde(path={path}, efficiency={efficiency}, "
                f"night_threshold={threshold}, conversion={conversion}, "
                f"day_hours={day_weight}, night_hours={night_weight}, "
                f"mean={fitted.mean:.6g})")
            return fitted
    except KeyError as exc:
        raise ScenarioConfigError(f"{key}: missing generation field {exc}") from None
    except ValueError as exc:
        if isinstance(exc, ScenarioConfigError):
            raise
        raise ScenarioConfigError(f"{key}: {exc}") from None
    raise ScenarioConfigError(f"{key}: unknown generation kind {kind!r}")


def _build_premium(spec, epsilon: float, base: Path, provenance: dict
                   ) -> PremiumDistribution:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioConfigError("premium spec needs a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "uniform":
            provenance["premium"] = f"uniform(v_bar={spec['v_bar']})"
            return PremiumDistribution.uniform(spec["v_bar"], epsilon=epsilon)
        if kind == "truncated_exponential":
            provenance["premium"] = (f"truncated_exponential(rate={spec['rate']}, "
                                     f"v_bar={spec['v_bar']})")
            return PremiumDistribution.truncated_exponential(
                spec["rate"], spec["v_bar"], epsilon=epsilon)
        if kind == "empirical":
            provenance["premium"] = f"empirical({len(spec['samples'])} samples)"
            return PremiumDistribution.empirical(spec["samples"], epsilon=epsilon)
        if kind == "survey_file":
            path = _resolve(spec["path"], base)
            monthly = spec.get("monthly_kwh", 600.0)
            inflation = spec.get("inflation_factor", 1.0)
            values = load_premium_survey(path, monthly, inflation)
            fitted = fit_truncated_exponential(values)
            provenance["premium"] = (
                f"survey(path={path}, monthly_kwh={monthly}, "
                f"inflation_factor={inflation}, rate={fitted.rate:.6g}, "
                f"v_bar={fitted.v_bar:.6g}, mean={fitted.base_mean:.6g})")
            return fitted.with_epsilon(epsilon)
    except KeyError as exc:
        raise ScenarioConfigError(f"premium: missing field {exc}") from None
    except ValueError as exc:
        if isinstance(exc, ScenarioConfigError):
            raise
        raise ScenarioConfigError(f"premium: {exc}") from None
    raise ScenarioConfigError(f"unknown premium kind {kind!r}")


def load_scenario(config_path) -> Scenario:
    """Assemble a Scenario from a JSON config, running any data fits.

    Relative data paths resolve against the config's directory.  The
    provenance of every fitted model is recorded on the returned
    scenario.
    """
    config_path = Path(config_path)
    if not config_path.exists():
        raise ScenarioConfigError(f"config file does not exist: {config_path}")
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioConfigError(f"{config_path}: invalid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ScenarioConfigError(f"{config_path}: top level must be an object")
    for key in ("pi0_usd_per_kw", "t_tilde", "premium", "periods"):
        if key not in config:
            raise ScenarioConfigError(f"{config_path}: missing key {key!r}")
    if not isinstance(config["periods"], list) or not config["periods"]:
        raise ScenarioConfigError(f"{config_path}: 'periods' must be a non-empty list")

    base = config_path.parent
    provenance: dict[str, str] = {}
    epsilon = float(config.get("epsilon", 1.0))
    premium = _build_premium(config["premium"], epsilon, base, provenance)
    periods = []
    for index, spec in enumerate(config["periods"]):
        key = f"periods[{index}]"
        if not isinstance(spec, dict):
            raise ScenarioConfigError(f"{key}: must be an object")
        try:
            generation = _build_generation(spec["generation"], base,
                                           provenance, f"{key}.generation")
            periods.append(PeriodProfile(
                load=float(spec["load_gwh"]),
                utility_price=float(spec["utility_price_usd_per_kwh"]),
                generation=generation,
                weight=float(spec.get("weight", 1.0))))
        except KeyError as exc:
            raise ScenarioConfigError(f"{key}: missing field {exc}") from None
        except ValueError as exc:
            if isinstance(exc, ScenarioConfigError):
                raise
            raise ScenarioConfigError(f"{key}: {exc}") from None
    try:
        return Scenario(periods=tuple(periods), premium=premium,
                        pi0=float(config["pi0_usd_per_kw"]),
                        t_tilde=float(config["t_tilde"]),
                        c_bar=float(config.get("c_bar_kw", 1.0)),
                        provenance=provenance)
    except ValueError as exc:
        raise ScenarioConfigError(f"{config_path}: {exc}") from None
