"""Probability models for per-unit solar output and buyer solar premiums.

Generation is the energy one unit of panel capacity produces in one
operation period (kWh per kW), so with aggregate capacity ``c`` and load
``L`` the scarcity variable is ``c*G`` against ``L``.  Premiums are the
extra per-kWh valuation buyers place on solar over utility energy,
modelled as ``eps`` times a fixed base distribution so the whole premium
population can be scaled up or down with one knob.

Both models expose exactly the transforms the clearing and investment
equations consume: the truncated mean ``E[G 1{dG <= L}]``,
complementary quantiles, their partial integrals, and density/moment
lookups.  The classic idealization of a generation density
positive on all of the half-line is deliberately not enforced: tabulated
densities live on a bounded grid and a point mass at zero represents
night hours, so bounded supports are first-class here.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .numerics import _leggauss, gauss_legendre_panels, gauss_legendre_rule

__all__ = [
    "GenerationDistribution",
    "PremiumDistribution",
    "PeriodProfile",
    "lambda_ratio",
]

_DENSITY_NORM_TOL = 1.0e-8


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {float(v)!r}")


def _clamp(x, lo, hi):
    """``np.clip(x, lo, hi)`` in two ufunc calls, without clip's
    Python-level dispatch; the same values up to the sign of a zero."""
    return np.minimum(np.maximum(x, lo), hi)


def _readonly(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


class _SameBits:
    """Equality and hash over a dataclass's fields, each array as its
    dtype, shape and bytes: equal distributions are the same bits.  The
    field-wise ``==`` a dataclass generates cannot compare arrays."""

    def _key(self) -> tuple:
        return tuple((v.dtype.str, v.shape, v.tobytes())
                     if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class GenerationDistribution(_SameBits):
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
            raise ValueError(f"density integrates to {float(total)!r}, "
                             f"expected 1 within {_DENSITY_NORM_TOL}")
        return cls(kind="tabulated", lo=float(grid[0]), hi=float(grid[-1]),
                   grid=grid, density=_readonly(density))

    # -- basic descriptors --------------------------------------------

    @cached_property
    def knots(self) -> np.ndarray:
        """Outputs where the mass starts or ends or the density kinks:
        the ends of a uniform support, the atom of a point mass, or a
        tabulated grid from the node before its first cell with mass to
        the node after its last.  Read-only.
        """
        if self.kind == "uniform":
            return _readonly([self.lo, self.hi])
        if self.kind == "point_mass":
            return _readonly([self.value])
        massive = np.flatnonzero(self.density > 0.0)
        first = max(int(massive[0]) - 1, 0)
        return _readonly(self.grid[first:int(massive[-1]) + 2])

    @cached_property
    def _knot_list(self) -> list[float]:
        return self.knots.tolist()

    @cached_property
    def support_hi(self) -> float:
        return float(self.knots[-1])

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
        m2 = 0.5 * (g1 * g1 - g0 * g0)
        m3 = (g1 * g1 * g1 - g0 * g0 * g0) / 3.0
        cells = f0 * m2 + s * (m3 - g0 * m2)
        return _readonly(np.concatenate(([0.0], np.cumsum(cells))))

    @cached_property
    def _float_tables(self):
        """Grid, density and first-moment table as lists of floats."""
        return self.grid.tolist(), self.density.tolist(), self._cum1.tolist()

    @cached_property
    def _cell_rule(self):
        """Gauss nodes and density-weighted weights of every cell between
        the knots, ``_CELL_ORDER`` per cell; read-only."""
        xs, ws = gauss_legendre_panels(self.knots, _CELL_ORDER)
        return _readonly(xs), _readonly(ws * np.interp(xs, self.grid, self.density))

    def _cut_cell(self, a: float, b: float):
        """``_cell_rule`` on the one cell [a, b], in the arithmetic of
        ``gauss_legendre_panels``."""
        x, w = _leggauss(_CELL_ORDER)
        half = 0.5 * (b - a)
        xs = (a + half) + half * x
        return xs, (half * w) * np.interp(xs, self.grid, self.density)

    def _tab_partials(self, x):
        """Exact (mass, first-moment) integrals of the density up to x."""
        g, f = self.grid, self.density
        xc = _clamp(x, g[0], g[-1])
        j = _clamp(np.searchsorted(g, xc, side="right") - 1, 0, g.size - 2)
        g0 = g[j]
        s = (f[j + 1] - f[j]) / (g[j + 1] - g0)
        t = xc - g0
        m0 = self._cum0[j] + f[j] * t + 0.5 * s * t * t
        m2 = 0.5 * (xc * xc - g0 * g0)
        m3 = (xc * xc * xc - g0 * g0 * g0) / 3.0
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
            return _clamp((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
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
            xc = _clamp(x, self.lo, self.hi)
            m1 = 0.5 * (xc * xc - self.lo * self.lo) / (self.hi - self.lo)
        else:
            m1 = self._tab_partials(x)[1]
        return np.where(x >= self.support_hi, self.mean, m1)

    def _partial_first_moment_float(self, x: float) -> float:
        """``partial_first_moment`` at one float, in plain floats.

        The arithmetic is the numpy kernel's, operation for operation,
        with powers written as products (numpy's vector loops and the C
        ``pow`` can round ``**`` differently), so this agrees bit for bit
        with a 0-d and with a 1-d argument alike.
        """
        if self.kind == "point_mass":
            return self.value if x >= self.value else 0.0
        if x >= self.support_hi:
            return self.mean
        if self.kind == "uniform":
            lo, hi = self.lo, self.hi
            xc = min(max(x, lo), hi)
            return 0.5 * (xc * xc - lo * lo) / (hi - lo)
        g, f, cum1 = self._float_tables
        xc = min(max(x, g[0]), g[-1])
        j = min(max(bisect_right(g, xc) - 1, 0), len(g) - 2)
        g0 = g[j]
        s = (f[j + 1] - f[j]) / (g[j + 1] - g0)
        m2 = 0.5 * (xc * xc - g0 * g0)
        m3 = (xc * xc * xc - g0 * g0 * g0) / 3.0
        return cum1[j] + f[j] * m2 + s * (m3 - g0 * m2)

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

    def quad_nodes(self, hi: float):
        """Quadrature nodes/weights for E[h(G); G <= hi].

        Weights absorb the density, so ``weights @ h(nodes)`` is the
        (partial) expectation.  Uniform output gets one 64-node Gauss
        panel; tabulated output gets per-cell panels between its knots,
        so the piecewise-linear density is integrated exactly.  Those
        cells come from ``_cell_rule``, built once; only a cell that hi
        cuts is laid anew.  The arrays may be read-only views of that
        table.
        """
        if self.kind == "uniform":
            x, w = gauss_legendre_rule(self.lo, min(hi, self.hi))
            return x, w / (self.hi - self.lo)
        if self.kind == "point_mass":
            if self.value <= hi:
                return np.array([self.value]), np.array([1.0])
            return np.empty(0), np.empty(0)
        knots = self._knot_list
        hi = min(hi, knots[-1])
        if hi <= knots[0]:
            return np.empty(0), np.empty(0)
        j = bisect_left(knots, hi)  # knots[j - 1] < hi <= knots[j]
        xs, ws = self._cell_rule
        if hi == knots[j]:
            return xs[:j * _CELL_ORDER], ws[:j * _CELL_ORDER]
        n = (j - 1) * _CELL_ORDER
        x_cut, w_cut = self._cut_cell(knots[j - 1], hi)
        return np.concatenate((xs[:n], x_cut)), np.concatenate((ws[:n], w_cut))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n realizations.

        A tabulated density picks a grid cell with probability equal to
        its mass and draws uniformly within it: this inverts the node
        CDF interpolated linearly, not the piecewise-linear density's
        own CDF, which is quadratic inside a cell.
        """
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


@dataclass(frozen=True, eq=False)
class PremiumDistribution(_SameBits):
    """Distribution of buyer solar premiums V = eps * base premium.

    ``v_bar`` is the top of the *unscaled* base support, so the scaled
    support is [0, eps * v_bar].  It is positive: ``eps = 0`` is the one
    way to say "no premium".  Kinds: ``uniform`` on [0, v_bar],
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
        if v_bar <= 0.0:
            raise ValueError(f"v_bar must be positive, got {v_bar}; "
                             "use epsilon=0 for no premium")
        if epsilon < 0.0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")

    def with_epsilon(self, epsilon: float) -> "PremiumDistribution":
        self._check_common(self.v_bar, epsilon)
        return replace(self, epsilon=float(epsilon))

    # -- unscaled base distribution ------------------------------------

    @cached_property
    def knots(self) -> np.ndarray:
        """Base premiums where the survival function kinks (scaled:
        ``epsilon * knots``): 0 and v_bar, or the distinct values of an
        empirical table, whose quantile kinks at the fractions ``_p_grid``."""
        if self.kind == "empirical":
            return _readonly(np.unique(self.quantiles))
        return _readonly([0.0, self.v_bar])

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
        return self._base_cq(_clamp(p, 0.0, 1.0))

    def _base_cq(self, p: np.ndarray):
        """``base_complementary_quantile`` of a float array p already in
        [0, 1], unchecked: the premium revenue calls it on served
        fractions it built in that range."""
        if self.kind == "uniform":
            return self.v_bar * (1.0 - p)
        if self.kind == "truncated_exponential":
            # log1p(-y), y = (1 - p) k, is within a few ulp up to y = 15/16
            # but cancels as y nears 1 (p near 0 under steep rates).  There
            # 1 - y is taken as e^-x + p k (x = rate * v_bar), a sum without
            # cancellation; the switch sits near the top so that few
            # elements take that indexed path, and none unless k, the
            # largest y, reaches it.  Steep rates round e^-x to 0 and the
            # log at p = 0 to -inf; the true value never exceeds the
            # support top.
            k = self._texp_k
            flat = np.atleast_1d(p)
            y = (1.0 - flat) * k
            with np.errstate(divide="ignore"):
                log_tail = np.log1p(-y)
                if k > 15.0 / 16.0:
                    top = np.flatnonzero(y > 15.0 / 16.0)
                    log_tail[top] = np.log(math.exp(-self.rate * self.v_bar)
                                           + flat[top] * k)
            out = -log_tail.reshape(np.shape(p)) / self.rate
            return np.minimum(out, self.v_bar)
        return np.interp(1.0 - p, self._p_grid, self.quantiles)

    def base_complementary_quantile_derivative(self, p):
        """d/dp of the base inverse survival; ValueError for an empirical
        table, which is piecewise linear."""
        p = np.asarray(p, dtype=float)
        if self.kind == "uniform":
            return np.full_like(p, -self.v_bar)
        if self.kind == "truncated_exponential":
            return -self._texp_k / (self.rate * (1.0 - (1.0 - p) * self._texp_k))
        raise ValueError("an empirical premium's quantile is piecewise "
                         "linear; it has no derivative at the table nodes")

    @cached_property
    def base_mean(self) -> float:
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
        if self.kind == "uniform":
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
        if self.epsilon == 0.0:
            # degenerate at zero
            out = np.where(v < 0.0, 1.0, np.where((v <= 0.0) & weak, 1.0, 0.0))
            return out if out.ndim else float(out)
        base = v / self.epsilon
        if self.kind == "uniform":
            out = _clamp(1.0 - base / self.v_bar, 0.0, 1.0)
        elif self.kind == "truncated_exponential":
            bc = _clamp(base, 0.0, self.v_bar)
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
        jc = _clamp(j, 1, t.size - 1)
        width = t[jc] - t[jc - 1]
        frac = np.divide(base - t[jc - 1], width,
                         out=np.ones_like(base, dtype=float),
                         where=width > 0.0)
        inner = pg[jc - 1] + _clamp(frac, 0.0, 1.0) * (pg[jc] - pg[jc - 1])
        return np.where(j == 0, 0.0, np.where(j == t.size, 1.0, inner))


def lambda_ratio(prem: PremiumDistribution) -> float:
    """Quantile-shape ratio of the premium distribution, in (0, 1).

    int -q'(p) p^2 dp / int -q'(p) p dp for the base complementary
    quantile q; invariant under the premium scale.  An empirical table's
    q is piecewise linear, so by parts with q(1) = 0 the ratio is
    2 int p q dp / int q dp, exact on order-2 Gauss panels between nodes.
    """
    if prem.kind == "empirical":
        p, w = gauss_legendre_panels(prem._p_grid, 2)
        q = prem.base_complementary_quantile(p)
        num = 2.0 * float(w @ (p * q))
        den = float(w @ q)
    else:
        p, w = gauss_legendre_rule(0.0, 1.0, 128)
        slope = -np.asarray(prem.base_complementary_quantile_derivative(p))
        num = float(w @ (slope * p * p))
        den = float(w @ (slope * p))
    if den <= 0.0:
        raise ValueError("premium quantile is not strictly decreasing")
    return num / den


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

