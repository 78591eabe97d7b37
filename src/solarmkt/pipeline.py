"""Ingestion of irradiation and premium-survey data, model fits, configs.

The irradiation path goes: hourly global horizontal irradiance (W/m^2)
as an array (``load_irradiation_csv``) -> efficiency scaling and a
day/night split at a small threshold (``prepare_generation_samples``)
-> unit conversion into per-unit-capacity energy -> Gaussian KDE with
boundary reflection at zero, tabulated on a uniform grid
(``fit_generation_kde``).  The premium path converts monthly
willingness-to-pay dollars into $/kWh (``load_premium_survey``) and
fits a truncated exponential by maximum likelihood
(``fit_truncated_exponential``).  ``load_scenario`` runs these same
functions on a JSON document's data files and glues the fitted and
analytic models into a full Scenario (schema in the README).
"""

from __future__ import annotations

import csv
import json
import logging
import math
from contextlib import contextmanager, suppress
from datetime import datetime
from operator import itemgetter
from pathlib import Path

import numpy as np

from .distributions import (GenerationDistribution, PeriodProfile,
                            PremiumDistribution)
from .markets import Scenario, _check_nonneg
from .numerics import sup_level_set

__all__ = [
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

#: Effective irradiance (W/m^2) at or below which an hour counts as night.
DEFAULT_NIGHT_THRESHOLD = 0.1

# The KDE sums its kernels in (rows x samples) tiles of at most
# 32 x 4096 values, 1 MiB each, to keep its working set in cache.
_KDE_TILE_ROWS = 32
_KDE_BLOCK = 4096

# Where the KDE may leave out its mirror kernel.  The mirror term
# exp(-0.5 ((s + x) / h)**2) is the direct term exp(-0.5 ((s - x) / h)**2)
# times exp(-2 s x / h**2), so where s x >= 19 h**2 its exponent lies at
# least 38 below the direct one.  Where the direct term is a normal float,
# the factor e**-38 ~ 3.1e-17 is below 2**-54 ~ 5.6e-17, so the mirror is
# under half an ulp of the direct term (a normal float below 2**(e + 1)
# has half an ulp of 2**(e - 53)) and their sum rounds back to the direct
# term.  Where the direct term is subnormal or 0, its exponent is at most
# -708.39 (the smallest normal float is e**-708.39), so the mirror's is
# below -745.13, where exp returns +0.0, which changes no sum.  The
# computed exponents and the test s / h >= 19 / (x0 / h) round by a few
# ulps, far inside both margins: e**-38 against 2**-54 ~ e**-37.4, and
# -746.39 against -745.13.
_KDE_MIRROR_NEGLIGIBLE = 19.0


class ScenarioConfigError(ValueError):
    """A scenario config is malformed or references missing data."""


def _open_csv(path: Path):
    # utf-8-sig drops the byte-order mark of Excel's "CSV UTF-8" export
    return path.open(newline="", encoding="utf-8-sig")


def _csv_columns(path: Path, columns) -> list[list]:
    """The fields of each named column on a CSV file's data rows, in the
    order named.

    Both data files follow these rules, which are csv.DictReader's:
    columns are found by header name in any order (a repeated name means
    its last column), blank lines are skipped and a field missing from a
    short row reads as None.  A file without a header row, or without
    one of the columns, is an error.
    """
    with _open_csv(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        rows = list(filter(None, reader))
    index = {name: at for at, name in enumerate(header)}
    at = list(map(index.get, columns))
    try:
        return [list(map(itemgetter(i), rows)) for i in at]
    except IndexError:  # a short row
        return [[row[i] if i < len(row) else None for row in rows]
                for i in at]


def _data_lines(path: Path) -> list[int]:
    """The line each data row of a CSV file ends on, for error messages;
    a quoted field can span lines, so rows and lines can differ."""
    with _open_csv(path) as handle:
        reader = csv.reader(handle)
        next(reader)
        return [reader.line_num for row in reader if row]


def _nonneg_floats(path: Path, fields, what: str) -> np.ndarray:
    """A column's fields as an array of finite, non-negative floats; the
    first bad one raises with its line number."""
    try:
        values = np.fromiter(map(float, fields), dtype=float,
                             count=len(fields))
        if np.all(values >= 0.0) and np.all(values < math.inf):
            return values
    except (TypeError, ValueError):
        pass
    # name the first bad field
    for line, text in zip(_data_lines(path), fields):
        try:
            x = float(text)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: line {line}: unparseable {what} "
                             f"{text!r}") from None
        if not math.isfinite(x) or x < 0.0:
            raise ValueError(f"{path}: line {line}: {what} must be finite "
                             f"and non-negative, got {x}")


def load_irradiation_csv(path) -> np.ndarray:
    """The irradiance column of an hourly CSV with header
    timestamp,ghi_w_per_m2, as a float64 array in W/m^2.

    Every timestamp must parse as ISO 8601; it is checked and not kept.
    Malformed rows raise with their line number, bad timestamps before
    bad irradiance values; an empty file is legal but logged as a
    warning.
    """
    path = Path(path)
    stamps, ghis = _csv_columns(path, IRRADIATION_COLUMNS)
    stamps = [(stamp or "").strip() for stamp in stamps]
    # fromisoformat before 3.11 rejects the Zulu suffix
    zulu = [stamp.replace("Z", "+00:00") for stamp in stamps]
    try:
        list(map(datetime.fromisoformat, zulu))
    except ValueError:
        for line, stamp, text in zip(_data_lines(path), stamps, zulu):
            try:
                datetime.fromisoformat(text)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: bad timestamp "
                                 f"{stamp!r}: {exc}") from None
    ghi = _nonneg_floats(path, ghis, "irradiance")
    if not ghi.size:
        logger.warning("%s: no irradiation records", path)
    return ghi


def prepare_generation_samples(
        ghi, efficiency: float,
        night_threshold: float = DEFAULT_NIGHT_THRESHOLD):
    """Scale irradiance by panel efficiency and split day from night hours.

    Hours whose effective irradiance is at or below the threshold count
    into the night weight; the rest become the day sample.  Returns
    (day_samples, day_weight, night_weight) with weights as hour counts.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in (0, 1], got {efficiency}")
    night_threshold = _check_nonneg("night threshold", night_threshold)
    effective = np.asarray(ghi, dtype=float) * efficiency
    day = effective[effective > night_threshold]
    night_weight = int(effective.size - day.size)
    return day, int(day.size), night_weight


def _silverman_bandwidth(samples: np.ndarray) -> float:
    std = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0.0 else std
    return 0.9 * spread * samples.size ** (-0.2)


def _sorted_samples(samples, fit: str) -> np.ndarray:
    """A fit's samples as a flat array in ascending order, checked: at
    least 2, all finite and non-negative.

    Both fits sum over their samples in this order, so what they fit
    depends on the values alone and not on the order of the rows they
    came from.  NaN sorts last, so the two ends carry the check.
    """
    samples = np.sort(np.asarray(samples, dtype=float), axis=None)
    if samples.size < 2:
        raise ValueError(f"{fit} fit needs at least 2 samples")
    if not (samples[0] >= 0.0 and samples[-1] < math.inf):
        raise ValueError("samples must be finite and non-negative")
    return samples


def _kde_inputs(samples, bandwidth) -> tuple[np.ndarray, float]:
    """The sorted samples and the bandwidth of fit_generation_kde,
    checked: a given bandwidth must be positive and finite, and
    Silverman's, the default, is not when the sample has no spread."""
    samples = _sorted_samples(samples, "KDE")
    if bandwidth is None:
        bandwidth = _silverman_bandwidth(samples)
        if not 0.0 < bandwidth < math.inf:
            raise ValueError(
                "degenerate sample (zero spread); cannot fit a KDE")
    elif not 0.0 < bandwidth < math.inf:
        raise ValueError(
            f"bandwidth must be positive and finite, got {bandwidth}")
    return samples, bandwidth


def _gaussian(z: np.ndarray, bandwidth: float) -> None:
    """z <- exp(-0.5 * (z / bandwidth)**2), in place."""
    z /= bandwidth
    np.square(z, out=z)
    z *= -0.5
    np.exp(z, out=z)


def fit_generation_kde(samples, bandwidth: float | None = None,
                       grid_size: int = DEFAULT_KDE_GRID_SIZE
                       ) -> GenerationDistribution:
    """Gaussian KDE of non-negative output samples, reflected at zero.

    The density is tabulated on a uniform grid over [0, 1.1 * max] and
    renormalized, so mass the kernels would leak below zero is folded
    back instead of lost.  Bandwidth defaults to Silverman's rule; the
    grid size must be an int (not a bool) of at least 2.  The samples
    are sorted first, so the fitted bits do not depend on their order.
    """
    if type(grid_size) is not int or grid_size < 2:
        raise ValueError("grid_size must be an integer of at least 2, "
                         f"got {grid_size!r}")
    samples, bandwidth = _kde_inputs(samples, bandwidth)
    hi = float(samples[-1]) * 1.1
    if hi <= 0.0:
        raise ValueError("all samples are zero; use a point mass instead")
    grid = np.linspace(0.0, hi, grid_size)
    density = np.zeros(grid_size)
    # Every (row, sample) term is exp(-0.5 * ((s -/+ x) / h)**2), evaluated
    # in place in two reused tile buffers; each row sums the same contiguous
    # block of terms, in ascending order of the samples, as one broadcast
    # over the whole grid would.  Filling a tile with the block and then
    # shifting it by the rows is faster than an outer difference, and
    # (s - x)**2 is (x - s)**2 bit for bit.
    # A tile evaluates the mirror terms only of the samples whose mirror can
    # still change a bit (see _KDE_MIRROR_NEGLIGIBLE): every x in the tile is
    # at least its first row x0, so those are the samples below
    # 19 h**2 / x0, a prefix of the sorted block.  It adds them onto their
    # direct terms in place (addition commutes bit for bit).
    direct = np.empty((min(grid_size, _KDE_TILE_ROWS),
                       min(samples.size, _KDE_BLOCK)))
    mirror = np.empty(direct.size)
    # the skip's scalars are Python floats, which overflow to inf silently
    h = float(bandwidth)
    # a term whose (s -/+ x) / h overflows is exp(-inf) = 0, as it should be
    with np.errstate(over="ignore"):
        for start in range(0, samples.size, _KDE_BLOCK):
            block = samples[start:start + _KDE_BLOCK]
            scaled = block / bandwidth  # s / h, ascending
            for r0 in range(0, grid_size, _KDE_TILE_ROWS):
                rows = grid[r0:r0 + _KDE_TILE_ROWS]
                z_direct = direct[:rows.size, :block.size]
                np.copyto(z_direct, block)
                z_direct -= rows[:, None]
                _gaussian(z_direct, bandwidth)
                first = float(rows[0])
                need = block.size
                if first / h > 0.0:
                    need = int(np.searchsorted(
                        scaled, _KDE_MIRROR_NEGLIGIBLE / (first / h)))
                if need:
                    z_mirror = mirror[:rows.size * need].reshape(rows.size, need)
                    np.copyto(z_mirror, block[:need])
                    z_mirror += rows[:, None]
                    _gaussian(z_mirror, bandwidth)
                    z_direct[:, :need] += z_mirror
                density[r0:r0 + rows.size] += z_direct.sum(axis=1)
    density /= samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    return GenerationDistribution.from_density_grid(grid, density, normalize=True)


def load_premium_survey(path, monthly_kwh: float,
                        inflation_factor: float = 1.0) -> np.ndarray:
    """Convert monthly willingness-to-pay dollars into $/kWh premiums."""
    for name, value in (("monthly_kwh", monthly_kwh),
                        ("inflation_factor", inflation_factor)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    path = Path(path)
    (usd,) = _csv_columns(path, (SURVEY_COLUMN,))
    values = _nonneg_floats(path, usd, "survey value")
    if not values.size:
        raise ValueError(f"{path}: survey file holds no responses")
    return values * inflation_factor / monthly_kwh


def fit_truncated_exponential(samples) -> PremiumDistribution:
    """Maximum-likelihood truncated exponential, truncated at the sample max.

    The likelihood score reduces to matching the model mean to the
    sample mean, a monotone one-dimensional root in the rate.  It is
    searched in x = rate * v_bar, so the tolerance is relative and free
    of units.  The model mean falls from v_bar / 2 at x = 0, above any
    accepted sample mean, to below the sample mean at x = v_bar / mean,
    which brackets the root.  Samples whose mean is not below half the
    maximum (the flat-density limit) are rejected as degenerate.  The
    mean is taken over the sorted samples, so the fit does not depend on
    their order.
    """
    samples = _sorted_samples(samples, "truncated-exponential")
    v_bar = float(samples[-1])
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

    x, *_ = sup_level_set(model_mean, mean, 0.0, v_bar / mean)
    rate = float(x) / v_bar
    fitted = PremiumDistribution.truncated_exponential(rate=rate, v_bar=v_bar)
    logger.info("truncated-exponential fit: rate=%.6g, v_bar=%.6g, mean=%.6g",
                rate, v_bar, fitted.base_mean)
    return fitted


# ----------------------------------------------------------------------
# Scenario configs
# ----------------------------------------------------------------------

def _fit_irradiance(path: Path, efficiency: float, night_threshold: float,
                    irradiance_to_energy: float, bandwidth: float | None,
                    grid_size) -> tuple[GenerationDistribution, dict]:
    """A data_file period's KDE, and what the fit found (for provenance)."""
    if not 0.0 < irradiance_to_energy < math.inf:
        raise ValueError("irradiance_to_energy must be positive and finite, "
                         f"got {irradiance_to_energy}")
    day, day_hours, night_hours = prepare_generation_samples(
        load_irradiation_csv(path), efficiency, night_threshold)
    if day.size < 2:
        raise ValueError(f"{path} yields fewer than 2 daytime samples")
    # the fit's default bandwidth, computed once for the provenance
    samples, bandwidth = _kde_inputs(day * irradiance_to_energy, bandwidth)
    fitted = fit_generation_kde(samples, bandwidth=bandwidth,
                                grid_size=grid_size)
    return fitted, {"bandwidth": f"{bandwidth:.6g}", "day_hours": day_hours,
                    "night_hours": night_hours, "mean": f"{fitted.mean:.6g}"}


def _fit_survey(path: Path, monthly_kwh: float, inflation_factor: float
                ) -> tuple[PremiumDistribution, dict]:
    """A survey_file premium's truncated exponential, and what the fit found."""
    fitted = fit_truncated_exponential(
        load_premium_survey(path, monthly_kwh, inflation_factor))
    return fitted, {
        "rate": f"{fitted.rate:.6g}", "v_bar": f"{fitted.v_bar:.6g}",
        "mean": f"{fitted.base_mean:.6g}"}


# Every config setting, declared once: its JSON type, then its default if
# its section may leave it out.  The types follow JSON Schema (draft
# 2020-12): a number is an int or a float that fits a float, never a bool;
# None passes the value on as written.  The type names are the words the
# error messages use.  A generation or premium kind names its constructor
# or fit, which takes the kind's settings by name.
_NUMBER, _NUMBERS, _STRING = "a number", "a list of numbers", "a string"
_TOP = {"pi0_usd_per_kw": (_NUMBER,), "t_tilde": (_NUMBER,),
        "epsilon": (_NUMBER, 1.0), "premium": (None,), "periods": (None,)}
_PERIOD = {"load_gwh": (_NUMBER,), "utility_price_usd_per_kwh": (_NUMBER,),
           "weight": (_NUMBER, 1.0), "generation": (None,)}
_KINDS = {
    "generation": {
        "uniform": (GenerationDistribution.uniform,
                    {"lo": (_NUMBER,), "hi": (_NUMBER,)}),
        "point_mass": (GenerationDistribution.point_mass,
                       {"value": (_NUMBER,)}),
        "tabulated": (GenerationDistribution.from_density_grid,
                      {"grid": (_NUMBERS,), "density": (_NUMBERS,)}),
        "data_file": (_fit_irradiance, {
            "path": (_STRING,), "efficiency": (_NUMBER, 0.2),
            "night_threshold": (_NUMBER, DEFAULT_NIGHT_THRESHOLD),
            "irradiance_to_energy": (_NUMBER, DEFAULT_IRRADIANCE_TO_ENERGY),
            "bandwidth": (_NUMBER, None),
            "grid_size": (None, DEFAULT_KDE_GRID_SIZE)}),
    },
    "premium": {
        "uniform": (PremiumDistribution.uniform, {"v_bar": (_NUMBER,)}),
        "truncated_exponential": (PremiumDistribution.truncated_exponential,
                                  {"rate": (_NUMBER,), "v_bar": (_NUMBER,)}),
        "empirical": (PremiumDistribution.empirical, {"samples": (_NUMBERS,)}),
        "survey_file": (_fit_survey, {"path": (_STRING,),
                                      "monthly_kwh": (_NUMBER, 600.0),
                                      "inflation_factor": (_NUMBER, 1.0)}),
    },
}


def _checked(name: str, json_type: str | None, value):
    """Setting `name` as its JSON type asks: a float, a list of floats or
    a string, else a ValueError that names it; untyped, as written."""
    if json_type is _NUMBERS and isinstance(value, list):
        if set(map(type, value)) <= {int, float}:  # no bool, no string
            with suppress(OverflowError):
                return list(map(float, value))
        # name the first item that is not a number or does not fit a float
        return [_checked(f"{name}[{i}]", _NUMBER, v) for i, v in enumerate(value)]
    if json_type is _NUMBER and type(value) in (int, float):  # not a bool
        with suppress(OverflowError):
            return float(value)
        raise ValueError(f"{name} must be a number that fits a float, got "
                         f"an integer of {len(str(abs(value)))} digits")
    if json_type is None or json_type is _STRING and isinstance(value, str):
        return value
    raise ValueError(f"{name} must be {json_type}, got {json.dumps(value)}")


def _read(spec: dict, row: dict, section: str | None = None) -> dict:
    """The settings `row` of the table declares, checked, from config
    section `spec`, with their defaults where it leaves them out.

    A missing required setting raises KeyError.  A key the row does not
    declare is warned about, except in the open top level (no `section`).
    """
    for key in (key for key in spec if section and key not in row):
        logger.warning("%s: unknown setting %r is ignored", section, key)
    return {name: default[0] if name not in spec and default
            else _checked(name, json_type, spec[name])
            for name, (json_type, *default) in row.items()}


@contextmanager
def _config_section(name: str):
    """Report what goes wrong in one config section as a config error.

    A missing key, a value of the wrong JSON type and a value the model
    rejects all become a ScenarioConfigError that starts with the
    section's name; config errors raised inside pass through as they are.
    """
    try:
        yield
    except ScenarioConfigError:
        raise
    except KeyError as exc:
        raise ScenarioConfigError(f"{name}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioConfigError(f"{name}: {exc}") from None


def _build(section: str, spec, base: Path, provenance: dict):
    """The distribution of a generation or premium config section.

    Its kind's row of the table reads its other settings; a `path`
    resolves against `base`; the kind's constructor or fit takes the
    settings by name.
    """
    what = section.rpartition(".")[2]
    # a premium message starts with "premium" already, so it gets no prefix
    where = "" if section == what else f"{section}: "
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioConfigError(f"{where}{what} spec needs a 'kind'")
    kind, spec = spec["kind"], {k: v for k, v in spec.items() if k != "kind"}
    if not isinstance(kind, str) or kind not in _KINDS[what]:
        raise ScenarioConfigError(f"{where}unknown {what} kind {kind!r}")
    make, row = _KINDS[what][kind]
    with _config_section(section):
        settings = _read(spec, row, section)
        if "path" in settings:
            settings["path"] = path = base / settings["path"]
            if not path.exists():
                raise ScenarioConfigError(
                    f"referenced data file does not exist: {path}")
        made = make(**settings)
    made, found = made if isinstance(made, tuple) else (made, {})
    provenance[section] = f"{kind}(" + ", ".join(
        f"{name}=[{len(value)} values]" if isinstance(value, list)
        else f"{name}={value}" for name, value in {**settings, **found}.items()) + ")"
    return made


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
    except ValueError as exc:  # also an integer of too many digits
        raise ScenarioConfigError(f"{config_path}: invalid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ScenarioConfigError(f"{config_path}: top level must be an object")
    with _config_section(str(config_path)):
        top = _read(config, _TOP)
    if not isinstance(top["periods"], list) or not top["periods"]:
        raise ScenarioConfigError(f"{config_path}: 'periods' must be a non-empty list")

    base = config_path.parent
    provenance: dict[str, str] = {}
    with _config_section("premium"):
        premium = _build("premium", top["premium"], base, provenance
                         ).with_epsilon(top["epsilon"])
    periods = []
    for index, spec in enumerate(top["periods"]):
        key = f"periods[{index}]"
        if not isinstance(spec, dict):
            raise ScenarioConfigError(f"{key}: must be an object")
        with _config_section(key):
            period = _read(spec, _PERIOD, key)
            periods.append(PeriodProfile(
                load=period["load_gwh"],
                utility_price=period["utility_price_usd_per_kwh"],
                generation=_build(f"{key}.generation", period["generation"],
                                  base, provenance),
                weight=period["weight"]))
    with _config_section(str(config_path)):
        return Scenario(periods=tuple(periods), premium=premium,
                        pi0=top["pi0_usd_per_kw"], t_tilde=top["t_tilde"],
                        provenance=provenance)
