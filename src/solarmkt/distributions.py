"""Probability models for per-unit solar output and buyer solar premiums.

Generation is the energy one unit of panel capacity produces in one
operation period (kWh per kW), so with aggregate capacity ``c`` and load
``L`` the scarcity variable is ``c*G`` against ``L``.  Premiums are the
extra per-kWh valuation buyers place on solar over utility energy,
modelled as ``eps`` times a fixed base distribution so the whole premium
population can be scaled up or down with one knob.

Both models expose the transforms the clearing and investment equations
consume: partial first moments of the output, quadrature nodes for
expectations under scarcity, complementary quantiles of the premium,
their partial integrals and the quantile moments of the premium
revenue.  The truncated mean ``E[G 1{dG <= L}]`` is kept for callers
outside the solver (the benchmark times it); no equation reads it.
The classic idealization of a generation density positive on all of
the half-line is deliberately not enforced: tabulated densities live on
a bounded grid and a point mass at zero represents night hours, so
bounded supports are first-class here.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .numerics import _leggauss, gauss_legendre_panels

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
        panel, which only ``welfare`` reads (the premium revenue has a
        closed form there, ``_premium_moment``); tabulated output gets
        per-cell panels between its knots, so the piecewise-linear
        density is integrated exactly.  Those cells come from
        ``_cell_rule``, built once; only a cell that hi cuts is laid
        anew.  The arrays may be read-only views of that table.
        """
        if self.kind == "uniform":
            top = min(hi, self.hi)
            if top <= self.lo:
                return np.empty(0), np.empty(0)
            x, w = gauss_legendre_panels((self.lo, top), 64)
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

    def _premium_moment(self, prem: "PremiumDistribution", cut: float):
        """E[q(G / cut) G; G <= cut] at a float cut (L / c, inf at c = 0),
        for q the base complementary quantile of prem, in closed form:
        None unless the output is uniform.

        On [lo, hi], with g = y cut, it is top^2 / (hi - lo) times
        ``prem._yq_moment(min(lo, cut), top, cut)`` for top = min(hi, cut):
        a moment of q over the window of served fractions [lo, top] / cut,
        divided by (top / cut)^2, so that neither a tiny c underflows nor
        cut^2 overflows.  At c = 0 every output is scarce and served at
        q(0) = v_bar, so it is v_bar times the mean.
        """
        if self.kind != "uniform":
            return None
        if cut == math.inf:
            return prem.v_bar * self.mean
        top = min(self.hi, cut)
        return (top * top * prem._yq_moment(min(self.lo, cut), top, cut)
                / (self.hi - self.lo))

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


#: Up to this rate * v_bar the truncated-exponential mean, v_bar times
#: 1/x - 1/expm1(x), which cancels about 2/x-fold, is taken as
#: v_bar (1/2 - x S(x^2)) with S(v) the sum over n = 1..10 of
#: B_2n v^(n-1) / (2n)!, B_2n the Bernoulli numbers.  The series
#: converges for x < 2 pi; at x = 1 its first dropped term is under
#: 2e-17 of the mean, and above 1 the closed form cancels at most
#: 2.4-fold.
_TEXP_SERIES_CUT = 1.0
_TEXP_MEAN_SERIES = tuple(
    num / (den * math.factorial(2 * n)) for n, (num, den) in enumerate(
        ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
         (7, 6), (-3617, 510), (43867, 798), (-174611, 330)), 1))[::-1]

#: f(r) = (1 + r) log1p(r) - r is the sum over n >= 2 of
#: (-1)^n r^n / (n (n - 1)); at r <= 0.1, where the closed form cancels
#: about 2/r-fold, the terms to n = 17 leave under 1e-17 of f.
_F_SERIES_CUT = 0.1
_F_SERIES = tuple((-1.0) ** n / (n * (n - 1)) for n in range(17, 1, -1))

#: H(z), the integral of s log((1 + z) / (1 + z s)) over s in [0, 1],
#: is 1/4 - (z - log1p(z)) / (2 z^2), and also w (1 + (1 - w)^2 S(w^2)) / 4
#: with w = z / (2 + z) and S(v) the sum over m >= 0 of v^m / (2m + 3)
#: (log1p(z) = 2 atanh(w)), a sum of positive terms.  The closed form
#: cancels about 1/z-fold below z = 1 and 2.6-fold at 1, so up to there
#: the series is taken: w <= 1/3, and the terms to m = 17 leave under
#: 1e-18.
_K_SERIES_CUT = 1.0
_K_SERIES = tuple(1.0 / (2 * m + 3) for m in range(17, -1, -1))

#: Above this rate * v_bar a truncated-exponential quantile moment is
#: taken in t = 1 - (1 - y) k, where q = -log(t) / rate, once t has grown
#: to 5 t0; below it, and before that, x - log1p(z) cancels at most a
#: few-fold.
_TEXP_T_FORM_CUT = 4.0

#: Gauss-Legendre order of a truncated-exponential moment over [a, b] in
#: [1/2, 1]: the error falls as (3 + sqrt 8)^(-2 order), 4e-19 at 12.
_TEXP_TAIL_ORDER = 12


def _running_sums(terms: list[float]) -> list[float]:
    """0 and the running sums of non-negative terms, each compensated
    (Neumaier): within about an ulp, where a plain cumulative sum drifts
    with the count, so their differences stay exact to rounding."""
    sums, total, carry = [0.0], 0.0, 0.0
    for term in terms:
        step = total + term
        carry += (total - step) + term if total >= term else (term - step) + total
        total = step
        sums.append(total + carry)
    return sums


def _linear_yq_moment(scale, width, y0, q0, y1, q1):
    """The integral of y q over a window of the given width whose ends
    have y0, q0 and y1, q1, with y and q linear across it, divided by
    scale^2: Simpson's rule, exact for this quadratic, as a sum of
    non-negative terms in ratios to scale."""
    return (width / scale * (y0 / scale * (2.0 * q0 + q1)
                             + y1 / scale * (q0 + 2.0 * q1)) / 6.0)


def _window_moment(xs, vs, sums, x0, x1, scale, mirror):
    """The integral over x in [x0, x1] of y v(x), divided by scale^2, for
    v linear between the increasing nodes xs with the values vs, and y
    = 1 - x if mirror else x; sums holds the integral from xs[0] up to
    each node.  The cut cells at x0 and x1 are exact
    (``_linear_yq_moment``); the whole cells between are a difference
    of sums."""
    last = len(xs) - 2

    def at(x):
        i = min(bisect_right(xs, x) - 1, last)
        return i, vs[i] + (vs[i + 1] - vs[i]) * ((x - xs[i]) / (xs[i + 1] - xs[i]))

    def y(x):
        return 1.0 - x if mirror else x

    i, v0 = at(x0)
    j, v1 = at(x1)
    if i == j:
        return _linear_yq_moment(scale, x1 - x0, y(x0), v0, y(x1), v1)
    return ((sums[j] - sums[i + 1]) / (scale * scale)
            + _linear_yq_moment(scale, xs[i + 1] - x0, y(x0), v0,
                                y(xs[i + 1]), vs[i + 1])
            + _linear_yq_moment(scale, x1 - xs[j], y(xs[j]), vs[j], y(x1), v1))


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
        scaled = replace(self, epsilon=float(epsilon))
        # The cached properties describe the unscaled base premium, so the
        # ones built so far carry over.  This holds only while no cached
        # property reads epsilon.
        own = {f.name for f in fields(self)}
        vars(scaled).update((name, value) for name, value in vars(self).items()
                            if name not in own)
        return scaled

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

    @cached_property
    def base_mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * self.v_bar
        if self.kind == "truncated_exponential":
            x = self.rate * self.v_bar
            if x > 700.0:  # expm1 overflow; truncation correction is 0 there
                return 1.0 / self.rate
            if x <= _TEXP_SERIES_CUT:
                v, s = x * x, 0.0
                for coef in _TEXP_MEAN_SERIES:
                    s = s * v + coef
                return self.v_bar * (0.5 - x * s)
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

    def _yq_moment(self, g0: float, g1: float, r: float) -> float:
        """The integral of y q(y) over the served fractions y in
        [g0 / r, g1 / r], divided by (g1 / r)^2, for q the base
        complementary quantile and floats 0 <= g0 <= g1 <= r; plain floats.

        Output uniform on [lo, hi] reads it at r = L / c, g0 = min(lo, r)
        and g1 = min(hi, r) (``GenerationDistribution._premium_moment``).
        With a = g0 / r, b = g1 / r and M(u) the integral over [0, u], it
        is M(b)/b^2 - (a/b)^2 M(a)/a^2, in ratios to b so that a tiny b
        underflows nowhere; at a = 0 it is the integral of s q(b s) over
        s in [0, 1], which is q(0) / 2 = v_bar / 2 at b = 0.  From a = 1/2
        up, where q falls towards q(1) = 0 and M(b) - M(a) would cancel,
        it is taken over the window itself, in the levels p = 1 - y read
        as (r - g) / r, which do not round away as y nears 1.
        """
        a, b = g0 / r, g1 / r
        if not b:
            return 0.5 * self.v_bar
        pa, pb = (r - g0) / r, (r - g1) / r
        head = a < 0.5
        if self.kind == "uniform":  # y q(y) = v_bar y (1 - y) is quadratic
            return self.v_bar * _linear_yq_moment(
                b, b - a if head else pa - pb, a, pa, b, pb)
        if self.kind == "empirical":
            ys, qs, heads, ps, levels, tails = self._yq_table
            if head:
                return _window_moment(ys, qs, heads, a, b, b, False)
            return _window_moment(ps, levels, tails, pb, pa, b, True)
        if not head:
            return self._texp_yq_tail(pa, pb, b)
        moment = self._texp_yq_head(b)
        return moment - (a / b) ** 2 * self._texp_yq_head(a) if a else moment

    @cached_property
    def _yq_table(self):
        """An empirical quantile as lists of floats, twice: its kinks
        y = 1 - ``_p_grid`` in increasing order, q at each and the
        integral of y q(y) from 0 up to each; and the levels ``_p_grid``,
        the table at each and the integral from p = 0 (y = 1) up to each.
        Each cell is exact (``_linear_yq_moment``), each running sum
        compensated (``_running_sums``)."""
        ps, table = self._p_grid, self.quantiles
        cells = (np.diff(ps) / 6.0
                 * ((1.0 - ps[:-1]) * (2.0 * table[:-1] + table[1:])
                    + (1.0 - ps[1:]) * (table[:-1] + 2.0 * table[1:])))
        return ((1.0 - ps[::-1]).tolist(), table[::-1].tolist(),
                _running_sums(cells[::-1].tolist()), ps.tolist(),
                table.tolist(), _running_sums(cells.tolist()))

    def _texp_yq_head(self, u: float) -> float:
        """M(u) / u^2 of a truncated exponential, 0 < u <= 1.

        With x = rate v_bar, k = 1 - e^-x and t0 = e^-x, the quantile is
        q(y) = (x - log1p(z y / u)) / rate for z = u (e^x - 1), so
        M(u) / u^2 = (rate q(u) / 2 + H(z)) / rate, two non-negative
        terms (H: see ``_K_SERIES``).  rate q(u) = -log(t1), t1 = t0 + k u,
        is x - log1p(z) below u = 1/2 and -log1p(-(1 - u) k) from 1/2 up,
        where 1 - u is exact, so it is 0 at u = 1.  For steep premiums
        (x > ``_TEXP_T_FORM_CUT``) with z past 4, x - log1p(z) cancels
        about x-fold and z overflows from x = 710 up; there
        q = -log(t) / rate in t = t0 + k y, from t0 to t1 = t0 + d with
        d = k u, and
        M(u) / u^2 = -(F(t1) - F(t0)) / (rate d^2) for the antiderivative
        F(t) = t^2 log(t) / 2 - t^2 / 4 - t0 (t log t - t) of
        (t - t0) log t, taken in t1 / d and t0 / d so that nothing
        underflows; F(t0) = t0^2 (x/2 + 3/4).
        """
        x = self.rate * self.v_bar
        t0 = math.exp(-x)
        k = self._texp_k
        d = k * u
        high = u >= 0.5
        log_t1 = math.log1p(-(1.0 - u) * k) if high else math.log(t0 + d)
        if x > _TEXP_T_FORM_CUT and d > 4.0 * t0:
            r, s = (t0 + d) / d, t0 / d
            f = ((0.5 * r - s) * r * log_t1 - 0.25 * r * r + s * r
                 - s * s * (0.5 * x + 0.75))
            return -f / self.rate
        z = math.expm1(x) * u if x <= _TEXP_T_FORM_CUT else d / t0
        lp = math.log1p(z)
        if z > _K_SERIES_CUT:
            h = 0.25 - 0.5 * (z - lp) / (z * z)
        else:
            w = z / (2.0 + z)
            v, s = w * w, 0.0
            for coef in _K_SERIES:
                s = s * v + coef
            h = 0.25 * w * (1.0 + (1.0 - w) * (1.0 - w) * s)
        return (0.5 * (-log_t1 if high else x - lp) + h) / self.rate

    def _texp_yq_tail(self, pa: float, pb: float, b: float) -> float:
        """``_yq_moment`` of a truncated exponential over the levels
        p = 1 - y in [pb, pa], pa <= 1/2, by Gauss-Legendre:
        q = -log1p(-p k) / rate has its singularity at p = 1 / k >= 1,
        three half-widths or more from the middle, so
        ``_TEXP_TAIL_ORDER`` nodes are exact to rounding."""
        half, k = 0.5 * (pa - pb), self._texp_k
        nodes, weights = _leggauss(_TEXP_TAIL_ORDER)
        total = 0.0
        for x, w in zip(nodes.tolist(), weights.tolist()):
            p = pb + half * (1.0 + x)
            total += w * (1.0 - p) * math.log1p(-p * k)
        return -half * total / (self.rate * b * b)

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
    quantile q; invariant under the premium scale.  By parts, with
    q(1) = 0, it is 2 int p q dp / int q dp: twice the quantile moment
    ``_yq_moment`` over all of [0, 1], exact for every premium kind, over
    the base mean.
    """
    return 2.0 * prem._yq_moment(0.0, 1.0, 1.0) / prem.base_mean


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

