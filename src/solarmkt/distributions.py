"""Probability models for per-unit solar output and buyer solar premiums.

Generation is the energy one unit of panel capacity produces in one
operation period (kWh per kW), so with aggregate capacity ``c`` and load
``L`` the scarcity variable is ``c*G`` against ``L``.  Premiums are the
extra per-kWh valuation buyers place on solar over utility energy,
modelled as ``eps`` times a fixed base distribution so the whole premium
population can be scaled up or down with one knob.

Both models expose exactly the transforms the clearing and investment
equations consume: the truncated mean ``E[G 1{dG <= L}]`` and its
extended inverse, complementary quantiles, their partial integrals, and
density/moment lookups.  The classic idealization of a generation density
positive on all of the half-line is deliberately not enforced: tabulated
densities live on a bounded grid and a point mass at zero represents
night hours, so bounded supports are first-class here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .numerics import (gauss_legendre_panels, gauss_legendre_rule,
                       sup_level_set)

__all__ = [
    "GenerationDistribution",
    "PremiumDistribution",
    "PeriodProfile",
    "truncated_mean",
    "truncated_mean_inverse",
    "complementary_quantile",
    "mean_premium",
]

_DENSITY_NORM_TOL = 1.0e-8


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _readonly(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GenerationDistribution:
    """Per-unit-capacity solar output G for one operation period.

    Kinds: ``uniform`` on [lo, hi], ``tabulated`` (piecewise-linear
    density on a strictly increasing grid, e.g. a KDE fit), and
    ``point_mass`` (degenerate; used for night periods where G = 0
    almost surely).
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    value: float = 0.0
    grid: np.ndarray | None = field(default=None, repr=False)
    density: np.ndarray | None = field(default=None, repr=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "GenerationDistribution":
        _require_finite("uniform bounds", lo, hi)
        if lo < 0.0 or hi <= lo:
            raise ValueError(f"uniform support needs 0 <= lo < hi, got [{lo}, {hi}]")
        return cls(kind="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def point_mass(cls, value: float) -> "GenerationDistribution":
        _require_finite("point mass", value)
        if value < 0.0:
            raise ValueError(f"point mass must be non-negative, got {value}")
        return cls(kind="point_mass", value=float(value))

    @classmethod
    def from_density_grid(cls, grid, density, *, normalize: bool = False
                          ) -> "GenerationDistribution":
        grid = _readonly(grid)
        density = np.asarray(density, dtype=float)
        if grid.ndim != 1 or grid.shape != density.shape or grid.size < 2:
            raise ValueError("grid and density must be equal-length 1-d arrays (>= 2 points)")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(density)):
            raise ValueError("grid and density must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0.0:
            raise ValueError("generation support must be non-negative")
        if np.any(density < 0.0):
            raise ValueError("density values must be non-negative")
        total = np.trapezoid(density, grid)
        if normalize:
            if total <= 0.0:
                raise ValueError("density integrates to zero; cannot normalize")
            density = density / total
        elif abs(total - 1.0) > _DENSITY_NORM_TOL:
            raise ValueError(f"density integrates to {total!r}, expected 1 within "
                             f"{_DENSITY_NORM_TOL}")
        return cls(kind="tabulated", lo=float(grid[0]), hi=float(grid[-1]),
                   grid=grid, density=_readonly(density))

    # -- basic descriptors --------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "uniform":
            return (self.lo, self.hi)
        if self.kind == "point_mass":
            return (self.value, self.value)
        return (float(self.grid[0]), float(self.grid[-1]))

    @property
    def support_hi(self) -> float:
        return self.support[1]

    @cached_property
    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.lo + self.hi)
        if self.kind == "point_mass":
            return self.value
        return float(self._cum1[-1])

    # -- tabulated helpers --------------------------------------------

    @cached_property
    def _cum0(self) -> np.ndarray:
        """Cumulative mass of the piecewise-linear density at grid nodes."""
        g, f = self.grid, self.density
        cells = 0.5 * (f[1:] + f[:-1]) * np.diff(g)
        return _readonly(np.concatenate(([0.0], np.cumsum(cells))))

    @cached_property
    def _cum1(self) -> np.ndarray:
        """Cumulative first moment of the piecewise-linear density at nodes."""
        g, f = self.grid, self.density
        g0, g1 = g[:-1], g[1:]
        f0, f1 = f[:-1], f[1:]
        s = (f1 - f0) / (g1 - g0)
        m2 = 0.5 * (g1 ** 2 - g0 ** 2)
        m3 = (g1 ** 3 - g0 ** 3) / 3.0
        cells = f0 * m2 + s * (m3 - g0 * m2)
        return _readonly(np.concatenate(([0.0], np.cumsum(cells))))

    def _tab_partials(self, x):
        """Exact (mass, first-moment) integrals of the density up to x."""
        g, f = self.grid, self.density
        xc = np.clip(x, g[0], g[-1])
        j = np.clip(np.searchsorted(g, xc, side="right") - 1, 0, g.size - 2)
        g0 = g[j]
        s = (f[j + 1] - f[j]) / (g[j + 1] - g0)
        t = xc - g0
        m0 = self._cum0[j] + f[j] * t + 0.5 * s * t * t
        m2 = 0.5 * (xc ** 2 - g0 ** 2)
        m3 = (xc ** 3 - g0 ** 3) / 3.0
        m1 = self._cum1[j] + f[j] * m2 + s * (m3 - g0 * m2)
        return m0, m1

    # -- core transforms ----------------------------------------------

    def pdf(self, x):
        """Density of the absolutely continuous part (0 for a point mass)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            inside = (x >= self.lo) & (x <= self.hi)
            return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        if self.kind == "point_mass":
            return np.zeros_like(x)
        return np.interp(x, self.grid, self.density, left=0.0, right=0.0)

    def cdf(self, x):
        """P(G <= x)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        if self.kind == "point_mass":
            return np.where(x >= self.value, 1.0, 0.0)
        return self._tab_partials(x)[0]

    def partial_first_moment(self, x):
        """Integral of g dF(g) over g <= x (weak inequality for atoms).

        From the top of the support up it is exactly the mean, so the
        flat tops of the truncated mean and of the rental value are
        level in floating point too.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "point_mass":
            return np.where(x >= self.value, self.value, 0.0)
        if self.kind == "uniform":
            xc = np.clip(x, self.lo, self.hi)
            m1 = 0.5 * (xc ** 2 - self.lo ** 2) / (self.hi - self.lo)
        else:
            m1 = self._tab_partials(x)[1]
        return np.where(x >= self.support_hi, self.mean, m1)

    def truncated_mean(self, d, load: float):
        """E[G 1{d G <= L}]: expected output counted only under scarcity.

        Non-increasing in d; equals the full mean at d = 0.
        """
        if load <= 0.0 or not math.isfinite(load):
            raise ValueError(f"load must be positive and finite, got {load}")
        d = np.asarray(d, dtype=float)
        if np.any(~np.isfinite(d)) or np.any(d < 0.0):
            raise ValueError("capacity must be finite and non-negative")
        with np.errstate(divide="ignore", over="ignore"):
            out = self.partial_first_moment(load / d)  # the mean at d = 0
        return out if out.ndim else float(out)

    def truncated_mean_inverse(self, z, load: float):
        """Extended inverse of the truncated mean.

        Returns 0 above the full mean, infinity at z = 0 (the truncated
        mean never falls below 0, so that level set is unbounded), and
        otherwise the supremum of the level set {d : truncated_mean(d)
        >= z}, searched in units of L / mean.
        """
        z = np.asarray(z, dtype=float)
        if np.any(~np.isfinite(z)) or np.any(z < 0.0):
            raise ValueError("target must be finite and non-negative")
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        mean = self.mean
        above = z > mean * (1.0 + 1e-12)
        out = np.where(above, 0.0, np.inf)
        live = ~above & (z > 0.0)
        if live.any():
            scale = load / mean
            sup, _, _ = sup_level_set(
                lambda s: self.truncated_mean(s * scale, load),
                np.minimum(z[live], mean), 0.0, 1.0)
            out[live] = sup * scale
        return float(out[0]) if scalar else out

    def quad_nodes(self, lo: float, hi: float, *, order: int = 64):
        """Quadrature nodes/weights for E[h(G); lo <= G <= hi].

        Weights absorb the density, so ``weights @ h(nodes)`` is the
        (partial) expectation.  Analytic kinds get one Gauss-Legendre
        panel; tabulated kinds get per-cell panels on the stored grid so
        the piecewise-linear density is integrated exactly.
        """
        a, b = self.support
        lo, hi = max(lo, a), min(hi, b)
        if self.kind == "point_mass":
            if lo <= self.value <= hi:
                return np.array([self.value]), np.array([1.0])
            return np.empty(0), np.empty(0)
        if hi <= lo:
            return np.empty(0), np.empty(0)
        if self.kind == "uniform":
            x, w = gauss_legendre_rule(lo, hi, order)
            return x, w / (self.hi - self.lo)
        edges = self.grid[(self.grid > lo) & (self.grid < hi)]
        edges = np.concatenate(([lo], edges, [hi]))
        xs, ws = gauss_legendre_panels(edges, _CELL_ORDER)
        return xs, ws * np.interp(xs, self.grid, self.density)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n realizations (inverse-CDF sampling for tabulated kinds)."""
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, n)
        if self.kind == "point_mass":
            return np.full(n, self.value)
        u = rng.random(n) * self._cum0[-1]
        return np.interp(u, self._cum0, self.grid)


#: Gauss-Legendre order per grid cell of a tabulated density.
_CELL_ORDER = 4


#: Below this rate * v_bar the truncated-exponential mean takes the
#: series v_bar (1/2 - x/12 + x^3/720); its first dropped term,
#: x^5/30240, is below half an ulp of the mean there.
_TEXP_SERIES_CUT = 4.0e-3

#: f(r) = (1 + r) log1p(r) - r is the sum over n >= 2 of
#: (-1)^n r^n / (n (n - 1)); at r <= 0.1, where the closed form cancels
#: about 2/r-fold, the terms to n = 17 leave under 1e-17 of f.
_F_SERIES_CUT = 0.1
_F_SERIES = tuple((-1.0) ** n / (n * (n - 1)) for n in range(17, 1, -1))


@dataclass(frozen=True)
class PremiumDistribution:
    """Distribution of buyer solar premiums V = eps * base premium.

    ``v_bar`` is the top of the *unscaled* base support, so the scaled
    support is [0, eps * v_bar].  Kinds: ``uniform`` on [0, v_bar],
    ``truncated_exponential`` (rate, truncated at v_bar), ``empirical``
    (piecewise-linear quantile table anchored at 0).
    """

    kind: str
    v_bar: float
    epsilon: float = 1.0
    rate: float = 0.0
    quantiles: np.ndarray | None = field(default=None, repr=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def uniform(cls, v_bar: float, epsilon: float = 1.0) -> "PremiumDistribution":
        cls._check_common(v_bar, epsilon)
        return cls(kind="uniform", v_bar=float(v_bar), epsilon=float(epsilon))

    @classmethod
    def truncated_exponential(cls, rate: float, v_bar: float,
                              epsilon: float = 1.0) -> "PremiumDistribution":
        cls._check_common(v_bar, epsilon)
        _require_finite("rate", rate)
        if rate <= 0.0:
            raise ValueError(f"truncated-exponential rate must be positive, got {rate}")
        return cls(kind="truncated_exponential", v_bar=float(v_bar),
                   epsilon=float(epsilon), rate=float(rate))

    @classmethod
    def empirical(cls, samples, epsilon: float = 1.0) -> "PremiumDistribution":
        samples = np.sort(np.asarray(samples, dtype=float))
        if samples.size < 2:
            raise ValueError("empirical premium needs at least 2 samples")
        if not np.all(np.isfinite(samples)) or samples[0] < 0.0:
            raise ValueError("premium samples must be finite and non-negative")
        if samples[-1] <= 0.0:
            raise ValueError("premium samples are all zero; use epsilon=0 instead")
        # Quantile table anchored so the support starts at 0 and the top
        # quantile is the sample maximum.
        table = np.concatenate(([0.0], samples))
        cls._check_common(float(samples[-1]), epsilon)
        return cls(kind="empirical", v_bar=float(samples[-1]),
                   epsilon=float(epsilon), quantiles=_readonly(table))

    @staticmethod
    def _check_common(v_bar: float, epsilon: float):
        _require_finite("premium parameters", v_bar, epsilon)
        if v_bar < 0.0:
            raise ValueError(f"v_bar must be non-negative, got {v_bar}")
        if epsilon < 0.0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")

    def with_epsilon(self, epsilon: float) -> "PremiumDistribution":
        self._check_common(self.v_bar, epsilon)
        return replace(self, epsilon=float(epsilon))

    # -- unscaled base distribution ------------------------------------

    @cached_property
    def _p_grid(self) -> np.ndarray:
        return _readonly(np.linspace(0.0, 1.0, self.quantiles.size))

    @cached_property
    def _texp_k(self) -> float:
        return -math.expm1(-self.rate * self.v_bar)

    def base_complementary_quantile(self, p):
        """Inverse survival of the unscaled base premium (non-increasing)."""
        p = np.asarray(p, dtype=float)
        lo, hi = (float(p.min()), float(p.max())) if p.size else (0.0, 0.0)
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ValueError("probability outside [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        if self.v_bar == 0.0:
            return np.zeros_like(p)
        if self.kind == "uniform":
            return self.v_bar * (1.0 - p)
        if self.kind == "truncated_exponential":
            # log1p(-y), y = (1 - p) k, is within a few ulp up to y = 15/16
            # but cancels as y nears 1 (p near 0 under steep rates).  There
            # 1 - y is taken as e^-x + p k (x = rate * v_bar), a sum without
            # cancellation; the switch sits near the top so that few
            # elements take that indexed path, and none unless the
            # smallest p reaches it.  Steep rates round e^-x to 0 and the
            # log at p = 0 to -inf; the true value never exceeds the
            # support top.
            k = self._texp_k
            flat = np.atleast_1d(p)
            y = (1.0 - flat) * k
            with np.errstate(divide="ignore"):
                log_tail = np.log1p(-y)
                if (1.0 - max(lo, 0.0)) * k > 15.0 / 16.0:
                    top = np.flatnonzero(y > 15.0 / 16.0)
                    log_tail[top] = np.log(math.exp(-self.rate * self.v_bar)
                                           + flat[top] * k)
            out = -log_tail.reshape(np.shape(p)) / self.rate
            return np.minimum(out, self.v_bar)
        return np.interp(1.0 - p, self._p_grid, self.quantiles)

    def base_complementary_quantile_derivative(self, p):
        """d/dp of the base inverse survival (central differences for empirical)."""
        p = np.asarray(p, dtype=float)
        if self.v_bar == 0.0:
            return np.zeros_like(p)
        if self.kind == "uniform":
            return np.full_like(p, -self.v_bar)
        if self.kind == "truncated_exponential":
            return -self._texp_k / (self.rate * (1.0 - (1.0 - p) * self._texp_k))
        h = 1.0 / 2000.0
        hi = np.clip(p + h, 0.0, 1.0)
        lo = np.clip(p - h, 0.0, 1.0)
        return (self.base_complementary_quantile(hi)
                - self.base_complementary_quantile(lo)) / (hi - lo)

    @cached_property
    def base_mean(self) -> float:
        if self.v_bar == 0.0:
            return 0.0
        if self.kind == "uniform":
            return 0.5 * self.v_bar
        if self.kind == "truncated_exponential":
            x = self.rate * self.v_bar
            if x > 700.0:  # expm1 overflow; truncation correction is 0 there
                return 1.0 / self.rate
            if x < _TEXP_SERIES_CUT:  # 1/x - 1/expm1(x) cancels here
                return self.v_bar * (0.5 - x / 12.0 + x ** 3 / 720.0)
            return 1.0 / self.rate - self.v_bar / math.expm1(x)
        q = self.quantiles
        return float(np.trapezoid(q, self._p_grid))

    # -- scaled distribution -------------------------------------------

    @property
    def mean(self) -> float:
        """E[V] = eps * base mean (exact by construction)."""
        return self.epsilon * self.base_mean

    def complementary_quantile(self, p):
        """Inverse survival of the scaled premium: the price premium the
        marginal buyer pays when a fraction p of load is solar-served."""
        out = self.epsilon * self.base_complementary_quantile(p)
        return out if out.ndim else float(out)

    def quantile(self, p):
        """Inverse CDF of the scaled premium."""
        p = np.asarray(p, dtype=float)
        out = self.epsilon * self.base_complementary_quantile(1.0 - p)
        return out if out.ndim else float(out)

    def integrated_complementary_quantile(self, s):
        """Integral of the scaled inverse survival over [0, s].

        This is the best average premium collectable when a fraction s of
        the buyer population can be served with solar.
        """
        s = np.asarray(s, dtype=float)
        if np.any(s < -1e-12) or np.any(s > 1.0 + 1e-12):
            raise ValueError("served fraction outside [0, 1]")
        s = np.clip(s, 0.0, 1.0)
        if self.epsilon == 0.0 or self.v_bar == 0.0:
            out = np.zeros_like(s)
        elif self.kind == "uniform":
            out = self.epsilon * self.v_bar * (s - 0.5 * s * s)
        elif self.kind == "truncated_exponential":
            # The antiderivative t - t log t, differenced between
            # t0 = e^-x and t1 = e^-x + s k (x = rate * v_bar), is
            # s k (1 + x) - t1 log1p(r) with r = s k / t0: no 1 - k or
            # 1 - (1 - s) k to cancel.  That form still cancels about
            # 1/x-fold for near-flat premiums (small x, hence small r),
            # so there it is taken as s k x - t0 f(r) with f's series.
            # Past x = 700, e^-x drops below 1e-304 and the t0 terms are
            # dropped (t log t -> 0 at t = 0).
            k = self._texp_k
            x = self.rate * self.v_bar
            sk = s * k
            if x > 700.0:
                with np.errstate(divide="ignore", invalid="ignore"):
                    diff = np.where(sk > 0.0, sk - sk * np.log(sk), 0.0)
            else:
                t0 = math.exp(-x)
                r = sk / t0
                near = np.minimum(r, _F_SERIES_CUT)
                diff = np.where(
                    r > _F_SERIES_CUT, sk * (1.0 + x) - (t0 + sk) * np.log1p(r),
                    sk * x - t0 * (near * near * np.polyval(_F_SERIES, near)))
            out = self.epsilon * diff / (self.rate * k)
        else:
            out = self.epsilon * self._empirical_icq(s)
        return out if out.ndim else float(out)

    @cached_property
    def _icq_table(self) -> np.ndarray:
        # cumulative exact integral of the PWL base inverse survival
        pg = self._p_grid
        cq = self.base_complementary_quantile(pg)
        cells = 0.5 * (cq[1:] + cq[:-1]) * np.diff(pg)
        return _readonly(np.concatenate(([0.0], np.cumsum(cells))))

    def _empirical_icq(self, s):
        pg = self._p_grid
        j = np.clip(np.searchsorted(pg, s, side="right") - 1, 0, pg.size - 2)
        p0 = pg[j]
        part = 0.5 * (self.base_complementary_quantile(p0)
                      + self.base_complementary_quantile(s)) * (s - p0)
        return self._icq_table[j] + part

    def survival(self, v, *, weak: bool = False):
        """P(V > v), or P(V >= v) when weak=True (differs only at atoms)."""
        v = np.asarray(v, dtype=float)
        if self.epsilon == 0.0 or self.v_bar == 0.0:
            # degenerate at zero
            out = np.where(v < 0.0, 1.0, np.where((v <= 0.0) & weak, 1.0, 0.0))
            return out if out.ndim else float(out)
        base = v / self.epsilon
        if self.kind == "uniform":
            out = np.clip(1.0 - base / self.v_bar, 0.0, 1.0)
        elif self.kind == "truncated_exponential":
            bc = np.clip(base, 0.0, self.v_bar)
            out = np.where(base < 0.0, 1.0,
                           np.where(base > self.v_bar, 0.0,
                                    (np.exp(-self.rate * bc)
                                     - math.exp(-self.rate * self.v_bar))
                                    / self._texp_k))
        else:
            out = 1.0 - self._empirical_cdf(base, weak=weak)
        return out if out.ndim else float(out)

    def _empirical_cdf(self, base, *, weak: bool):
        """CDF of the piecewise-linear quantile table.

        ``weak`` asks for the left limit F(v-), so ties at repeated
        sample values land on the left edge of their quantile run.
        """
        t, pg = self.quantiles, self._p_grid
        base = np.asarray(base, dtype=float)
        j = np.searchsorted(t, base, side="left" if weak else "right")
        jc = np.clip(j, 1, t.size - 1)
        width = t[jc] - t[jc - 1]
        frac = np.divide(base - t[jc - 1], width,
                         out=np.ones_like(base, dtype=float),
                         where=width > 0.0)
        inner = pg[jc - 1] + np.clip(frac, 0.0, 1.0) * (pg[jc] - pg[jc - 1])
        return np.where(j == 0, 0.0, np.where(j == t.size, 1.0, inner))


@dataclass(frozen=True)
class PeriodProfile:
    """One representative operation period: load, backstop price, output model.

    ``weight`` counts how many real periods this representative one
    stands for when several are averaged into a planning window.
    """

    load: float
    utility_price: float
    generation: GenerationDistribution
    weight: float = 1.0

    def __post_init__(self):
        _require_finite("period parameters", self.load, self.utility_price,
                        self.weight)
        if self.load <= 0.0:
            raise ValueError(f"load must be positive, got {self.load}")
        if self.utility_price <= 0.0:
            raise ValueError(f"utility price must be positive, got {self.utility_price}")
        if self.weight < 0.0:
            raise ValueError(f"weight must be non-negative, got {self.weight}")


# -- module-level operation surface ------------------------------------

def truncated_mean(gen: GenerationDistribution, d, load: float):
    """E[G 1{d G <= load}] (full mean at d = 0)."""
    return gen.truncated_mean(d, load)


def truncated_mean_inverse(gen: GenerationDistribution, z, load: float):
    """Extended inverse of the truncated mean (0 above the full mean)."""
    return gen.truncated_mean_inverse(z, load)


def complementary_quantile(prem: PremiumDistribution, p):
    """Scaled inverse survival of the premium distribution."""
    return prem.complementary_quantile(p)


def mean_premium(prem: PremiumDistribution) -> float:
    """E[V] of the scaled premium distribution."""
    return prem.mean
