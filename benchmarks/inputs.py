"""Seeded inputs for the three benchmark workloads.

The California writer and the random-scenario factory are copies of the
test fixtures (``tests/test_acceptance.py`` and ``tests/conftest.py``),
kept here so that edits to the tests cannot move the benchmark.  Both
take the workload seed as an argument; the program under test only ever
sees the files and objects they produce.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

# -- desk --------------------------------------------------------------

DESK_EPSILON_SWEEP = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
DESK_PI0_SWEEP = (0.05, 0.125, 0.3, 0.45, 0.5)
DESK_PI0 = 0.125


def desk_config(epsilon: float = 1.0, pi0: float = DESK_PI0) -> dict:
    """The analytic desk scenario: output U[0,1], premiums U[0, 0.6*eps]."""
    return {
        "pi0_usd_per_kw": pi0,
        "t_tilde": 1.0,
        "epsilon": epsilon,
        "premium": {"kind": "uniform", "v_bar": 0.6},
        "periods": [{"load_gwh": 1.0, "utility_price_usd_per_kwh": 1.0,
                     "generation": {"kind": "uniform", "lo": 0.0, "hi": 1.0}}],
    }


# -- california ----------------------------------------------------------

CALIFORNIA_EPSILON_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)
CALIFORNIA_PI0_SWEEP = (1500.0, 2400.0, 3000.0, 3300.0, 3600.0)
CALIFORNIA_PI0 = 2700.0


def write_california_fixtures(directory: Path, seed: int) -> Path:
    """Write a 2880-hour irradiance CSV, a 4000-row survey and the config.

    A copy of the acceptance-test generator with the seed as an argument.
    """
    rng = np.random.default_rng(seed)
    rows = []
    stamp = datetime(2021, 1, 1)
    for _ in range(120 * 24):
        x = (stamp.hour - 12) / 3.0
        base = 1050.0 * math.exp(-0.5 * x * x)
        base = base if base > 120.0 else 0.0
        ghi = base * rng.uniform(0.7, 1.05) if base > 0.0 else 0.0
        rows.append((stamp.isoformat(), round(float(ghi), 3)))
        stamp += timedelta(hours=1)
    with (directory / "irradiation.csv").open("w", newline="",
                                              encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "ghi_w_per_m2"])
        writer.writerows(rows)

    wtp = rng.exponential(9.5, 8000)
    wtp = wtp[wtp <= 54.3][:4000]
    with (directory / "survey.csv").open("w", newline="",
                                         encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["usd_per_month"])
        writer.writerows([[round(float(v), 4)] for v in wtp])

    config = {
        "pi0_usd_per_kw": CALIFORNIA_PI0,
        "t_tilde": 219000.0,
        "epsilon": 1.0,
        "c_bar_kw": 5.0,
        "premium": {"kind": "survey_file", "path": "survey.csv",
                    "monthly_kwh": 600.0, "inflation_factor": 1.83},
        "periods": [
            {"load_gwh": 27.0, "utility_price_usd_per_kwh": 0.29,
             "weight": 0.5,
             "generation": {"kind": "data_file", "path": "irradiation.csv",
                            "efficiency": 0.2, "night_threshold": 0.1,
                            "irradiance_to_energy": 0.001}},
            {"load_gwh": 29.0, "utility_price_usd_per_kwh": 0.29,
             "weight": 0.5,
             "generation": {"kind": "point_mass", "value": 0.0}},
        ],
    }
    path = directory / "california.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


# -- units ---------------------------------------------------------------

#: Load scalings of the timed mix, k=1 first: its capacities are the
#: reference for the others.  1e-6 and 1e6 run only as known-failure
#: probes (see run.py), because the solver is not scale-free there yet.
UNITS_SCALES = (1.0, 1e-3, 1e3)
UNITS_PROBE_SCALES = (1e-6, 1e6)

#: Fixed composition, so that seeds change parameters but not the mix:
#: (periods, generation kind, premium kind) per scenario.
UNITS_STRATA = (
    (1, "tabulated", "uniform"),
    (2, "uniform", "uniform"),
    (3, "tabulated", "empirical"),
    (1, "uniform", "empirical"),
    (2, "tabulated", "truncated_exponential"),
    (3, "uniform", "truncated_exponential"),
)

#: Scenarios drawn per stratum.  The cost of a scenario depends on its
#: draw; two per stratum halve the spread that this gives between seeds.
UNITS_PER_STRATUM = 2

#: The units workload also runs the CLI commands, on the cheapest stratum
#: (so that a run holds many samples of each command) drawn with a fixed
#: seed (so that their times do not move with the workload seed).
UNITS_CLI_STRATUM = 3
UNITS_CLI_SEED = 0
#: Index of the scenario the known-failure probes scale to k=1e-6 and 1e6.
UNITS_PROBE_SCENARIO = 0


def _random_generation(rng, kind: str) -> dict:
    if kind == "uniform":
        return {"kind": "uniform", "lo": 0.0, "hi": float(rng.uniform(0.3, 3.0))}
    b = rng.uniform(0.5, 2.5)
    grid = np.linspace(0.0, b, 257)
    centers = rng.uniform(0.0, b, 3)
    widths = rng.uniform(0.15 * b, 0.6 * b, 3)
    dens = 0.25 / b + sum(np.exp(-0.5 * ((grid - c) / w) ** 2)
                          for c, w in zip(centers, widths))
    dens = dens / np.trapezoid(dens, grid)
    return {"kind": "tabulated", "grid": grid.tolist(), "density": dens.tolist()}


def _random_premium(rng, kind: str) -> dict:
    if kind == "uniform":
        return {"kind": "uniform", "v_bar": float(rng.uniform(0.05, 1.2))}
    if kind == "truncated_exponential":
        return {"kind": "truncated_exponential",
                "rate": float(rng.uniform(1.0, 30.0)),
                "v_bar": float(rng.uniform(0.05, 1.0))}
    top = rng.uniform(0.05, 1.2)
    samples = top * rng.beta(rng.uniform(0.5, 3.0), rng.uniform(1.0, 4.0), 64)
    return {"kind": "empirical", "samples": [float(v) for v in samples]}


def _backstop_margin(periods: list[dict], t_tilde: float) -> float:
    """Lifetime backstop revenue per capacity unit (the viability margin at pi0=0)."""
    def mean(gen):
        if gen["kind"] == "uniform":
            return 0.5 * (gen["lo"] + gen["hi"])
        g, f = np.asarray(gen["grid"]), np.asarray(gen["density"])
        return float(np.trapezoid(g * f, g))
    horizon = sum(p["weight"] for p in periods)
    return t_tilde / horizon * sum(p["weight"] * p["utility_price_usd_per_kwh"]
                                   * mean(p["generation"]) for p in periods)


def units_configs(seed: int, per_stratum: int = UNITS_PER_STRATUM) -> list[dict]:
    """Viable random scenario configs, ``per_stratum`` per stratum, from the seed.

    The strata repeat in order: config i belongs to stratum i % 6.  Like
    the test factory, the capital cost sits inside the viability margin,
    so every mechanism has a positive capacity at scale 1.
    """
    rng = np.random.default_rng(seed)
    configs = []
    for n_periods, gen_kind, prem_kind in UNITS_STRATA * per_stratum:
        periods = [{"load_gwh": float(rng.uniform(0.5, 20.0)),
                    "utility_price_usd_per_kwh": float(rng.uniform(0.2, 2.0)),
                    "weight": float(rng.uniform(0.5, 2.0)),
                    "generation": _random_generation(rng, gen_kind)}
                   for _ in range(n_periods)]
        t_tilde = float(rng.uniform(0.5, 3.0))
        margin = _backstop_margin(periods, t_tilde)
        configs.append({
            "pi0_usd_per_kw": float(rng.uniform(0.15, 0.85) * margin),
            "t_tilde": t_tilde,
            "epsilon": float(rng.uniform(0.05, 1.0)),
            "premium": _random_premium(rng, prem_kind),
            "periods": periods,
        })
    return configs


def units_cli_config() -> dict:
    """The scenario the units workload runs through the CLI."""
    return units_configs(UNITS_CLI_SEED, per_stratum=1)[UNITS_CLI_STRATUM]


def scaled_config(config: dict, k: float) -> dict:
    """The same scenario with every load multiplied by k."""
    out = dict(config)
    out["periods"] = [dict(p, load_gwh=p["load_gwh"] * k) for p in config["periods"]]
    return out


def write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path
