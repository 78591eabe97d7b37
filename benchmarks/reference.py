"""Independent references that the benchmark checks every result against.

Nothing here imports solarmkt.  The desk scenario has closed forms.  For
the California fixture the fits are redone from the CSV files and the
capacities are solved by another method than the library's: Simpson
cells (exact for a piecewise-linear density) for the truncated mean,
Brent roots for the real-time designs, and the layer-cake identity
D(pi) = integral over t of P(V >= v*(t)) for the contract market, which
needs no inner root per buyer type.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

# -- desk closed forms ---------------------------------------------------


def desk_capacities(epsilon: float, pi0: float) -> dict[str, float]:
    """Closed-form desk capacities (valid where every capacity is >= 1)."""
    c_srt = math.sqrt(0.5 / pi0)
    c_prt = math.sqrt((0.5 + 0.1 * epsilon) / pi0)
    if epsilon == 0.0:
        c_cb = c_srt
    else:
        c_cb = ((2.0 / 3.0) * ((1.0 + 0.6 * epsilon) ** 1.5 - 1.0)
                / (0.6 * epsilon * math.sqrt(2.0 * pi0)))
    return {"srt": c_srt, "prt": c_prt, "cb": c_cb, "opt": c_prt}


def rel_err(value: float, ref: float) -> float:
    if ref == 0.0:
        return abs(value)
    return abs(value - ref) / abs(ref)


# -- California: fits redone from the files -----------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


class TabulatedOutput:
    """Piecewise-linear density on a grid starting at zero."""

    def __init__(self, grid: np.ndarray, density: np.ndarray):
        self.grid, self.density = grid, density
        a, b = grid[:-1], grid[1:]
        fa, fb = density[:-1], density[1:]
        # Simpson is exact for g*f(g), a quadratic on each cell
        cells = (b - a) / 6.0 * (a * fa + 2.0 * (a + b) * 0.5 * (fa + fb)
                                 + b * fb)
        self.cum1 = np.concatenate(([0.0], np.cumsum(cells)))
        self.mean = float(self.cum1[-1])
        self.hi = float(grid[-1])

    def first_moment_below(self, x):
        """Integral of g f(g) over [0, x], vectorized."""
        g, f = self.grid, self.density
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.hi)
        j = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
        a = g[j]
        fa = f[j]
        fx = fa + (f[j + 1] - fa) * (x - a) / (g[j + 1] - a)
        part = (x - a) / 6.0 * (a * fa + 2.0 * (a + x) * 0.5 * (fa + fx) + x * fx)
        return self.cum1[j] + part

    def truncated_mean(self, d, load: float):
        """E[G 1{d G <= load}] for capacities d > 0."""
        d = np.asarray(d, dtype=float)
        return self.first_moment_below(load / d)


def _silverman(samples: np.ndarray) -> float:
    std = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0.0 else std
    return 0.9 * spread * samples.size ** (-0.2)


def fit_reflected_kde(samples: np.ndarray, grid_size: int) -> TabulatedOutput:
    bw = _silverman(samples)
    grid = np.linspace(0.0, 1.1 * float(samples.max()), grid_size)
    z1 = (grid[:, None] - samples[None, :]) / bw
    z2 = (grid[:, None] + samples[None, :]) / bw
    dens = (np.exp(-0.5 * z1 ** 2) + np.exp(-0.5 * z2 ** 2)).sum(axis=1)
    dens = dens / (samples.size * bw * math.sqrt(2.0 * math.pi))
    dens = dens / np.trapezoid(dens, grid)
    return TabulatedOutput(grid, dens)


class TruncatedExponentialPremium:
    """V = eps * B, with B truncated exponential on [0, v_bar]."""

    def __init__(self, rate: float, v_bar: float, epsilon: float):
        self.rate, self.v_bar, self.epsilon = rate, v_bar, epsilon
        self.k = -math.expm1(-rate * v_bar)

    def base_complementary_quantile(self, p):
        return -np.log1p(-(1.0 - np.asarray(p)) * self.k) / self.rate

    def survival(self, v):
        """P(V >= v) for v >= 0."""
        b = np.clip(np.asarray(v, dtype=float) / self.epsilon, 0.0, self.v_bar)
        return (np.exp(-self.rate * b) - math.exp(-self.rate * self.v_bar)) / self.k


def fit_truncated_exponential(values: np.ndarray) -> tuple[float, float]:
    """MLE (rate, v_bar): the model mean matches the sample mean."""
    v_bar = float(values.max())
    mean = float(values.mean())

    def model_mean(r):
        return 1.0 / r - v_bar / math.expm1(r * v_bar)

    hi = 2.0 / mean
    while model_mean(hi) > mean:
        hi *= 4.0
    rate = brentq(lambda r: model_mean(r) - mean, 1e-9 / v_bar, hi,
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return rate, v_bar


class CaliforniaReference:
    """Capacities of the California config, from the files it names."""

    def __init__(self, config_path: Path):
        config = json.loads(config_path.read_text(encoding="utf-8"))
        base = config_path.parent
        day, night = config["periods"]
        gen = day["generation"]
        with (base / gen["path"]).open(newline="", encoding="utf-8") as handle:
            ghi = np.array([float(r["ghi_w_per_m2"]) for r in csv.DictReader(handle)])
        effective = ghi * gen["efficiency"]
        samples = effective[effective > gen["night_threshold"]] * gen["irradiance_to_energy"]
        self.output = fit_reflected_kde(samples, 1024)
        prem = config["premium"]
        with (base / prem["path"]).open(newline="", encoding="utf-8") as handle:
            usd = np.array([float(r["usd_per_month"]) for r in csv.DictReader(handle)])
        self.rate, self.v_bar = fit_truncated_exponential(
            usd * prem["inflation_factor"] / prem["monthly_kwh"])
        # the night period is a point mass at zero output: it earns nothing
        # and only enters through the horizon
        if night["generation"] != {"kind": "point_mass", "value": 0.0}:
            raise ValueError("the reference expects a zero-output night period")
        self.load = day["load_gwh"]
        self.price = day["utility_price_usd_per_kwh"]
        self.weight = day["weight"]
        self.horizon = day["weight"] + night["weight"]
        self.t_tilde = config["t_tilde"]
        self.csv_rows = int(ghi.size + usd.size)

    # per-unit lifetime revenue of the real-time designs
    def _revenue(self, c: float, epsilon: float, premium: bool) -> float:
        out, load = self.output, self.load
        total = self.price * float(out.truncated_mean(c, load))
        if premium and epsilon > 0.0:
            upper = min(load / c, out.hi)
            g = out.grid
            edges = np.concatenate(([0.0], g[(g > 0.0) & (g < upper)], [upper]))
            half = 0.5 * np.diff(edges)
            x = (edges[:-1] + half)[:, None] + half[:, None] * _GL_X[None, :]
            w = half[:, None] * _GL_W[None, :]
            f = np.interp(x, g, out.density)
            prem = TruncatedExponentialPremium(self.rate, self.v_bar, epsilon)
            q = epsilon * prem.base_complementary_quantile(np.clip(c * x / load, 0.0, 1.0))
            total += float(np.sum(w * f * q * x))
        return self.t_tilde / self.horizon * self.weight * total

    def _rt_capacity(self, epsilon: float, pi0: float, premium: bool) -> float:
        scale = self.load / self.output.mean
        lo = 1e-9 * scale
        if self._revenue(lo, epsilon, premium) < pi0:
            return 0.0
        hi = scale
        while self._revenue(hi, epsilon, premium) >= pi0:
            hi *= 2.0
        return brentq(lambda c: self._revenue(c, epsilon, premium) - pi0, lo, hi,
                      xtol=1e-14 * hi, rtol=4 * np.finfo(float).eps, maxiter=500)

    def _cb_capacity(self, epsilon: float, pi0: float) -> float:
        out, load = self.output, self.load
        pi = pi0 * self.horizon / self.t_tilde
        top = epsilon * self.v_bar

        def a(t):  # whole-window value of a unit to a zero-premium buyer
            return self.weight * self.price * out.truncated_mean(t, load)

        def b(t):  # extra value per unit of premium
            return self.weight * out.truncated_mean(t, load)

        flat = load / out.hi  # truncated mean is constant below this capacity

        def sup_at_least(fn, target):
            if float(fn(flat)) < target:
                return 0.0
            hi = 2.0 * flat
            while float(fn(hi)) >= target:
                hi *= 2.0
            return brentq(lambda t: float(fn(t)) - target, flat, hi,
                          xtol=1e-15 * hi, rtol=4 * np.finfo(float).eps, maxiter=500)

        t1 = sup_at_least(a, pi)
        if epsilon == 0.0:
            return t1
        t2 = sup_at_least(lambda t: a(t) + top * b(t), pi)
        if t2 <= t1:
            return t1
        # panel breaks where load/t crosses a grid node (kinks of the integrand)
        g = out.grid
        knots = load / g[g > 0.0]
        knots = knots[(knots > t1) & (knots < t2)]
        edges = np.concatenate(([t1], np.sort(knots), [t2]))
        half = 0.5 * np.diff(edges)
        t = (edges[:-1] + half)[:, None] + half[:, None] * _GL_X[None, :]
        w = half[:, None] * _GL_W[None, :]
        v_star = (pi - a(t)) / b(t)
        prem = TruncatedExponentialPremium(self.rate, self.v_bar, epsilon)
        return t1 + float(np.sum(w * prem.survival(v_star)))

    def capacities(self, epsilon: float, pi0: float) -> dict[str, float]:
        c_prt = self._rt_capacity(epsilon, pi0, premium=True)
        return {"srt": self._rt_capacity(epsilon, pi0, premium=False),
                "prt": c_prt, "cb": self._cb_capacity(epsilon, pi0), "opt": c_prt}
