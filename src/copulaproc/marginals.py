"""Time-indexed marginal families.

A family assigns to each time t a one-dimensional distribution through its
CDF, generalized inverse (quantile), and, when one exists, density.  The
quantile is the left-continuous generalized inverse

    Q_t(u) = inf { x : F_t(x) >= u },

so ``quantile(t, u) <= x`` iff ``u <= cdf(t, x)`` including at atoms.  The
distributional transform F_t(x-) + v * (F_t(x) - F_t(x-)) turns samples of
any law, atomic or not, into exact uniforms when v is an independent
uniform.

Families with unbounded support clamp quantile queries at u in {0, 1} to
the tail levels 1e-12 and 1 - 1e-12; the level is fixed and is not a
parameter.  Finite support endpoints are returned exactly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, roots_legendre

from ._parallel import share, threads_for
from .errors import (InvalidArgumentError, UnsupportedOperationError, check_array,
                     check_float, check_int, holds_text_or_bool)
from .grid import TimeGrid, grid_from_points
from .serialize import write_matrix_csv

_TAIL_EPS = 1e-12
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _as_time_fn(value, name: str, **bounds):
    """Lift a parameter to a function of t whose values pass
    ``check_float(value, name, **bounds)``.

    A constant is checked once, here, and returned as is at every t.  A
    callable's value is checked at each evaluation; a value it refuses
    raises with the time appended, and one it passes formats no message.
    """
    if not callable(value):
        const = check_float(value, name, **bounds)
        return lambda t: const

    def checked(t):
        v = value(t)
        try:
            return check_float(v, name, **bounds)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"{exc} at t={t}") from None

    return checked


def _points(x, name: str) -> np.ndarray:
    """Evaluation points as floats: +-inf are points (F_t(inf) = 1), NaN,
    strings, bools and what numpy cannot read as floats are refused."""
    try:
        arr = np.asarray(x, dtype=float)
        if not (np.isnan(arr).any() or holds_text_or_bool(x)):
            return arr
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidArgumentError(f"{name} argument must hold numbers other than NaN")


def _match(template, arr: np.ndarray):
    """Return a scalar when the query was scalar, else the array."""
    if np.isscalar(template) or (isinstance(template, np.ndarray) and template.ndim == 0):
        return float(arr.reshape(-1)[0])
    return arr


class MarginalFamily:
    """Base class; concrete families implement the `_*` hooks."""

    kind: str = "abstract"
    #: constructor keywords a config may set, for ``FAMILY_KINDS`` members
    config_keys: tuple = ()
    #: the scale keyword that a config's ``power_law_hurst`` replaces
    power_law_key: str | None = None
    has_density: bool = False
    is_continuous: bool = False
    #: the law is the same at every t, so per-time quadratures integrate once
    time_invariant: bool = False

    def __init__(self):
        #: size -> (u, cu, unit quantile) of the last shared node set of
        #: that size, for families with a ``_unit_quantile``
        self._q0_memo = {}

    # ----- hooks ---------------------------------------------------------
    def _cdf(self, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cdf_left(self, t: float, x: np.ndarray) -> np.ndarray:
        # continuous families have no atoms
        return self._cdf(t, x)

    def _cdf_limits(self, t: float, x: np.ndarray):
        """(F_t(x-), F_t(x)), the two limits the distributional transform uses."""
        return self._cdf_left(t, x), self._cdf(t, x)

    def _quantile(self, t: float, u: np.ndarray, cu: np.ndarray) -> np.ndarray:
        """Quantile given u and its complement; called with u in (0, 1)
        except where a finite support endpoint makes the limit exact."""
        raise NotImplementedError

    def _unit_quantile(self, u: np.ndarray, cu: np.ndarray) -> np.ndarray:
        """Quantile at location 0 and scale 1 of a location-scale family.

        It depends on u and cu alone, so ``_quantile`` takes it through the
        memo of ``_quantile0`` and only shifts and scales it per time.
        """
        raise NotImplementedError

    def _quantile0(self, u: np.ndarray, cu: np.ndarray) -> np.ndarray:
        """``_unit_quantile(u, cu)``, kept for the node sets quadratures share.

        Every grid time asks for the quantile at the same shared quadrature
        nodes, which ``_quadrature`` builds on immutable ``bytes``, so the
        last result per size is kept for the very arrays it was computed on
        and matched by identity.  Other inputs, whose values may still
        change, are never stored.
        """
        u = np.asarray(u, dtype=float)
        cu = np.asarray(cu, dtype=float)
        memoize = isinstance(u.base, bytes) and isinstance(cu.base, bytes)
        if memoize:
            hit = self._q0_memo.get(u.size)
            if hit is not None and hit[0] is u and hit[1] is cu:
                return hit[2]
        z = self._unit_quantile(u, cu)
        if memoize:
            z.setflags(write=False)
            self._q0_memo[u.size] = (u, cu, z)
        return z

    def _pdf(self, t: float, x: np.ndarray) -> np.ndarray:
        raise UnsupportedOperationError(f"{self.kind} family has no density")

    def support(self, t: float):
        """(lower, upper) endpoints of the time-t support; +-inf if unbounded."""
        raise NotImplementedError

    def quantile_steps(self, t: float):
        """(levels, values) when the time-t quantile is a step function.

        ``levels`` are the ascending jump levels in (0, 1) and ``values``
        the steps, one more than the levels: the quantile equals values[i]
        on (levels[i-1], levels[i]], with levels[-1] = 0 and levels[n-1] = 1
        read as the ends of the unit interval.  Quadratures use it to avoid
        integrating across a jump.  None for a quantile without jumps.
        """
        return None

    # ----- public surface ------------------------------------------------
    def _evaluate(self, hook, t, x):
        return _match(x, hook(float(t), np.atleast_1d(_points(x, hook.__name__[1:]))))

    def cdf(self, t, x):
        return self._evaluate(self._cdf, t, x)

    def cdf_left(self, t, x):
        """Left limit F_t(x-)."""
        return self._evaluate(self._cdf_left, t, x)

    def quantile(self, t, u):
        arr = np.atleast_1d(check_array(u, "u", 0.0, 1.0))
        t = float(t)
        lo, hi = self.support(t)
        uq = arr.copy()
        cq = 1.0 - arr
        if np.isinf(lo):
            at0 = uq == 0.0
            uq[at0] = _TAIL_EPS
            cq[at0] = 1.0 - _TAIL_EPS
        if np.isinf(hi):
            at1 = uq == 1.0
            uq[at1] = 1.0 - _TAIL_EPS
            cq[at1] = _TAIL_EPS
        return _match(u, self._quantile(t, uq, cq))

    def quantile_tail(self, t, u, cu):
        """Quantile with caller-supplied complement, for deep-tail quadrature.

        Both arrays must already lie strictly inside (0, 1); no clamping is
        applied.  cu may resolve tail locations far below float spacing
        around 1.
        """
        u = np.asarray(u, dtype=float)
        cu = np.asarray(cu, dtype=float)
        return self._quantile(float(t), u, cu)

    def pdf(self, t, x):
        return self._evaluate(self._pdf, t, x)

    def distributional_transform(self, t, x, v):
        """F_t(x-) + v * (F_t(x) - F_t(x-)); exact uniformizer at atoms.

        At an atom, a value equal to F_t(x-) (v = 0, or a v so small that
        the sum rounds to F_t(x-)) becomes the next float above it: the
        quantile sends F_t(x-) to the level below x, and that float to x.
        """
        varr = check_array(v, "v", 0.0, 1.0)
        xarr = _points(x, "distributional_transform x")
        if xarr.shape != varr.shape:
            raise InvalidArgumentError("x and v must have matching shapes")
        left, right = self._cdf_limits(float(t), np.atleast_1d(xarr))
        out = left + np.atleast_1d(varr) * (right - left)
        low = (out <= left) & (right > left)
        if low.any():
            out[low] = np.nextafter(left[low], 1.0)
        return _match(x, out)

    def density_sup_bound(self, grid: TimeGrid):
        """Upper bound for sup_{t in grid, x} pdf, or None if unavailable."""
        return None


class GaussianScale(MarginalFamily):
    """Centered-by-default Gaussian with time-varying scale.

    Parameters
    ----------
    sigma : float or callable
        Standard deviation sigma_t > 0 (sigma_t = 0 degenerates to a point
        mass at the mean).  ``power_law(H)`` gives the preset t**H.
    mean : float or callable, optional
        Location mu_t, default 0.
    """

    kind = "gaussian_scale"
    config_keys = ("sigma", "mean")
    power_law_key = "sigma"
    has_density = True
    is_continuous = True

    def __init__(self, sigma=1.0, mean=0.0):
        super().__init__()
        self.sigma = _as_time_fn(sigma, "sigma", lo=0.0)
        self.mean = _as_time_fn(mean, "mean")
        self.time_invariant = not (callable(sigma) or callable(mean))

    @classmethod
    def power_law(cls, hurst: float, mean=0.0):
        """sigma_t = t**hurst preset."""
        h = check_float(hurst, "hurst")
        return cls(sigma=lambda t: t ** h, mean=mean)

    def _cdf(self, t, x):
        s = self.sigma(t)
        mu = self.mean(t)
        if s == 0.0:
            return (x >= mu).astype(float)
        return ndtr((x - mu) / s)

    def _quantile(self, t, u, cu):
        s = self.sigma(t)
        mu = self.mean(t)
        if s == 0.0:
            return np.full_like(u, mu)
        return mu + s * self._quantile0(u, cu)

    def _unit_quantile(self, u, cu):
        # complement form keeps the upper tail accurate
        return np.where(u <= 0.5, ndtri(np.minimum(u, 0.5)), -ndtri(np.minimum(cu, 0.5)))

    def _pdf(self, t, x):
        s = self.sigma(t)
        if s == 0.0:
            raise UnsupportedOperationError(f"degenerate gaussian at t={t} has no density")
        mu = self.mean(t)
        z = (x - mu) / s
        return np.exp(-0.5 * z * z) / (_SQRT_2PI * s)

    def support(self, t):
        if self.sigma(float(t)) == 0.0:
            mu = self.mean(float(t))
            return mu, mu
        return -np.inf, np.inf

    def density_sup_bound(self, grid):
        sig = np.array([self.sigma(t) for t in grid.points])
        if sig.min() == 0.0:
            return None
        return float(1.0 / (_SQRT_2PI * sig.min()))


class ExponentialScale(MarginalFamily):
    """Exponential law with time-varying scale theta_t, supported on (0, inf).

    F_t(x) = 1 - exp(-x / theta_t) for x > 0.  ``power_law(H)`` gives the
    preset theta_t = t**H.
    """

    kind = "exponential_scale"
    config_keys = ("scale",)
    power_law_key = "scale"
    has_density = True
    is_continuous = True

    def __init__(self, scale=1.0):
        super().__init__()
        self.scale = _as_time_fn(scale, "scale", lo=0.0)
        self.time_invariant = not callable(scale)

    @classmethod
    def power_law(cls, hurst: float):
        h = check_float(hurst, "hurst")
        return cls(scale=lambda t: t ** h)

    def _cdf(self, t, x):
        th = self.scale(t)
        if th == 0.0:
            return (x >= 0.0).astype(float)
        return np.where(x > 0.0, -np.expm1(-np.maximum(x, 0.0) / th), 0.0)

    def _quantile(self, t, u, cu):
        th = self.scale(t)
        if th == 0.0:
            return np.zeros_like(u)
        # th * (-log cu) is -th * log cu bit for bit: rounding keeps signs symmetric
        return th * self._quantile0(u, cu)

    def _unit_quantile(self, u, cu):
        return -np.log(np.maximum(cu, 1e-320))

    def _pdf(self, t, x):
        th = self.scale(t)
        if th == 0.0:
            raise UnsupportedOperationError(f"degenerate exponential at t={t} has no density")
        return np.where(x >= 0.0, np.exp(-np.maximum(x, 0.0) / th) / th, 0.0)

    def support(self, t):
        return 0.0, (np.inf if self.scale(float(t)) > 0.0 else 0.0)

    def density_sup_bound(self, grid):
        th = np.array([self.scale(t) for t in grid.points])
        if th.min() == 0.0:
            return None
        return float(1.0 / th.min())


class Pareto(MarginalFamily):
    """Pareto law on [x_min, inf) with time-varying tail index alpha_t.

    F_t(x) = 1 - (x / x_min)**(-alpha_t) for x >= x_min.
    """

    kind = "pareto"
    config_keys = ("x_min", "alpha")
    has_density = True
    is_continuous = True

    def __init__(self, x_min: float, alpha):
        self.x_min = check_float(x_min, "x_min", 0.0, lo_open=True)
        self.alpha = _as_time_fn(alpha, "alpha", lo=0.0, lo_open=True)
        self.time_invariant = not callable(alpha)

    def _cdf(self, t, x):
        a = self.alpha(t)
        ratio = np.maximum(x, self.x_min) / self.x_min
        return np.where(x >= self.x_min, 1.0 - ratio ** (-a), 0.0)

    def _quantile(self, t, u, cu):
        a = self.alpha(t)
        q = np.maximum(cu, 1e-320)
        # cu ** (-1/a) overflows to inf for a tiny tail index: the quantile
        # there lies past the float range
        with np.errstate(divide="ignore", over="ignore"):
            q **= -1.0 / a
        q *= self.x_min
        return q

    def _pdf(self, t, x):
        a = self.alpha(t)
        ratio = np.maximum(x, self.x_min) / self.x_min
        return np.where(x >= self.x_min, a / self.x_min * ratio ** (-a - 1.0), 0.0)

    def support(self, t):
        return self.x_min, np.inf

    def density_sup_bound(self, grid):
        alphas = np.array([self.alpha(t) for t in grid.points])
        return float(alphas.max() / self.x_min)


class Uniform(MarginalFamily):
    """Uniform law on [lo, hi]; on [0, 1] the quantile is the exact identity."""

    kind = "uniform"
    config_keys = ("lo", "hi")
    has_density = True
    is_continuous = True
    time_invariant = True

    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        self.lo = check_float(lo, "lo")
        self.hi = check_float(hi, "hi", self.lo, lo_open=True)

    def _cdf(self, t, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _quantile(self, t, u, cu):
        return self.lo + (self.hi - self.lo) * u

    def _pdf(self, t, x):
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def support(self, t):
        return self.lo, self.hi

    def density_sup_bound(self, grid):
        return 1.0 / (self.hi - self.lo)


@dataclass(frozen=True)
class LognormalMixing:
    """Lognormal mixing scale: ln S ~ N(mu, sigma**2); sigma = 0 degenerates.

    Both required moments are finite for every parameter choice:
    E[1/S] = exp(-mu + sigma**2 / 2) and E[S**2] = exp(2 mu + 2 sigma**2).
    """

    mu: float = 0.0
    sigma: float = 0.5

    def __post_init__(self):
        check_float(self.mu, "mu")
        check_float(self.sigma, "sigma", 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if self.sigma == 0.0:
            return np.full_like(u, np.exp(self.mu))
        return np.exp(self.mu + self.sigma * ndtri(u))

    @property
    def mean_inverse(self) -> float:
        return float(np.exp(-self.mu + 0.5 * self.sigma ** 2))

    @property
    def mean_square(self) -> float:
        return float(np.exp(2.0 * self.mu + 2.0 * self.sigma ** 2))

    @property
    def tag(self) -> str:
        return f"lognormal(mu={self.mu:g},sigma={self.sigma:g})"


class ScaleMixtureGaussian(MarginalFamily):
    """Marginal of S * Z with Z standard normal and S an independent scale.

    The CDF is the mixture integral int Phi(z / s) dF_S(s), evaluated with
    fixed Gauss-Legendre nodes over the mixing quantile function so every
    call is deterministic.  The quantile inverts the mixture CDF by a
    table-seeded Newton iteration.  An optional per-time scale c_t gives
    the law of c_t * S * Z.
    """

    kind = "scale_mixture_gaussian"
    config_keys = ("mixing", "scale")
    has_density = True
    is_continuous = True

    def __init__(self, mixing: LognormalMixing = LognormalMixing(), scale=1.0,
                 n_quad: int = 64):
        super().__init__()
        self.n_quad = check_int(n_quad, "n_quad", 2)
        if not isinstance(mixing, LognormalMixing):
            raise InvalidArgumentError(f"mixing must be a LognormalMixing, got {mixing!r}")
        if not (np.isfinite(mixing.mean_inverse) and np.isfinite(mixing.mean_square)):
            raise InvalidArgumentError(
                "mixing must have finite E[1/S] and E[S**2]")
        self.mixing = mixing
        self.scale = _as_time_fn(scale, "scale", lo=0.0, lo_open=True)
        self.time_invariant = not callable(scale)
        nodes, weights = roots_legendre(self.n_quad)
        self._mix_u = 0.5 * (nodes + 1.0)
        self._mix_w = 0.5 * weights
        self._mix_s = check_array(mixing.quantile(self._mix_u), "mixing quantile",
                                  0.0, lo_open=True)
        self._table = None
        self._table_lock = threading.Lock()

    # ----- unit-scale mixture functions ---------------------------------
    def _f0_block(self, z, func) -> np.ndarray:
        """Mixture average of func(z / s) over the quadrature scales s.

        Rows go in blocks of 2048 inside each run of 65536.  numpy sends a
        one-row product to its dot kernel, which sums in another order than
        the matrix-vector kernel, so a trailing single row joins the block
        before it, unless it starts a run of 65536 and so has always gone
        alone.  Every row keeps the value of one block per 65536 rows.

        The blocks are shared out through ``_parallel.share``, among one
        thread per CPU in the affinity mask, at most one per block; inside
        shared work, such as a column group of ``merge``, the call runs
        inline.  Each thread owns a buffer of at most 2049
        rows, which ``func`` overwrites and returns; the buffers are one
        array, since two separate 1 MB arrays freed together can be trimmed
        from the heap and page-faulted anew at the next call.  A row's
        value depends only on its block, so it is the same for any CPU
        count and any sharing of the blocks.  ``func`` runs in the worker
        threads and must touch nothing but its block.
        """
        z = np.asarray(z, dtype=float)
        flat = z.ravel()
        out = np.empty_like(flat)
        blocks = []
        for top in range(0, flat.size, 65536):
            stop = min(top + 65536, flat.size)
            starts = range(top, max(stop - 1, top + 1), 2048)
            blocks += zip(starts, [*starts[1:], stop])
        n_threads = threads_for(len(blocks))
        buffers = np.empty((n_threads, min(flat.size, 2049), self.n_quad))

        def run(k, rows):
            start, end = rows
            block = buffers[k][:end - start]
            np.divide(flat[start:end, None], self._mix_s[None, :], out=block)
            np.matmul(func(block), self._mix_w, out=out[start:end])

        share(blocks, run, n_threads)
        return out.reshape(z.shape)

    def _cdf0(self, z: np.ndarray) -> np.ndarray:
        return self._f0_block(z, lambda block: ndtr(block, out=block))

    def _pdf0(self, z: np.ndarray) -> np.ndarray:
        def density(block):
            # exp(-0.5 * b * b) / (sqrt(2 pi) s) in place.  -0.5 * b is
            # exact, so -0.5 * (b * b) rounds as (-0.5 * b) * b does, except
            # below the normal range or past overflow, where exp gives 1 or 0
            # either way
            np.multiply(block, block, out=block)
            block *= -0.5
            np.exp(block, out=block)
            block /= _SQRT_2PI * self._mix_s
            return block

        return self._f0_block(z, density)

    def _quantile_table(self):
        # the column groups of a merge ask for it at once; one builds it
        with self._table_lock:
            if self._table is None:
                z_max = float(self._mix_s.max()) * abs(ndtri(1e-14)) * 1.05
                zs = np.linspace(-z_max, z_max, 16385)
                self._table = (zs, self._cdf0(zs))
        return self._table

    def _unit_quantile(self, u, cu):
        zs, Fs = self._quantile_table()
        z = np.clip(np.interp(u, Fs, zs), zs[0], zs[-1])
        # F0(z) below the median and 1 - F0(z) = F0(-z) above it, in one
        # pass: each entry keeps its row, so it gets the value a pass over
        # all of z, or all of -z, would give it
        lower = u <= 0.5
        for _ in range(4):
            dens = np.maximum(self._pdf0(z), 1e-300)
            tail = self._cdf0(np.where(lower, z, -z))
            resid = np.where(lower, tail - u, cu - tail)
            z = np.clip(z - resid / dens, zs[0], zs[-1])
        return z

    # ----- family hooks --------------------------------------------------
    def _cdf(self, t, x):
        return self._cdf0(x / self.scale(t))

    def _quantile(self, t, u, cu):
        return self.scale(t) * self._quantile0(u, cu)

    def _pdf(self, t, x):
        c = self.scale(t)
        return self._pdf0(x / c) / c

    def support(self, t):
        return -np.inf, np.inf

    def density_sup_bound(self, grid):
        scales = np.array([self.scale(t) for t in grid.points])
        inv_mean = float(self._mix_w @ (1.0 / self._mix_s))
        return inv_mean / (_SQRT_2PI * scales.min())


class Empirical(MarginalFamily):
    """Per-grid-point empirical families from equal-size sample columns.

    ``quantile(t, u)`` returns the order statistic with (1-based) index
    ceil(u * n), realized as the generalized inverse of the empirical CDF
    so the Galois inequality is exact in floating point.  The CDF has
    atoms, so densities are unsupported and copula extraction goes through
    the distributional transform.
    """

    kind = "empirical"
    has_density = False
    is_continuous = False

    def __init__(self, grid: TimeGrid, samples):
        samples = check_array(samples, "samples")
        if samples.ndim != 2 or samples.shape[0] != grid.m or samples.shape[1] < 1:
            raise InvalidArgumentError(
                f"samples must have shape ({grid.m}, n>=1), got {samples.shape}")
        self.grid = grid
        samples = np.sort(samples, axis=1)
        samples.setflags(write=False)
        self._columns = samples
        n = self._columns.shape[1]
        # levels k/n of the first n - 1 jumps; u above the last one maps to
        # the largest order statistic
        self._thresholds = np.arange(1, n) / n
        self._thresholds.setflags(write=False)

    def column(self, t: float) -> np.ndarray:
        """Sorted sample column attached to grid time t."""
        return self._columns[self._col_index(float(t))]

    def _col_index(self, t: float) -> int:
        pts = self.grid.points
        idx = int(np.searchsorted(pts, t))
        for j in (idx - 1, idx):
            if 0 <= j < pts.size and abs(pts[j] - t) <= 1e-9 * max(1.0, abs(t)):
                return j
        raise InvalidArgumentError(f"t={t!r} is not a grid point of this family")

    def _rank_fractions(self, t, x, sides):
        """searchsorted(column, x, side) / n for each side, in sorted query order.

        Queries in ascending order walk the column once instead of jumping
        across it, so one argsort plus a scatter back is cheaper than
        searching large random-order queries directly; the ranks are equal.
        The one argsort serves every side asked for.  When the sorted
        queries are the column itself, as when a family transforms its own
        sample, each rank is the start or the end of the query's run of
        ties, read off the sort positions without a search.
        """
        col = self._columns[self._col_index(t)]
        flat = x.ravel()
        order = np.argsort(flat)
        ordered = flat[order]
        own = ordered.size == col.size and np.array_equal(ordered, col)
        if own:
            starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
            runs = np.diff(np.r_[starts, col.size])
        fractions = []
        for side in sides:
            ranks = np.empty(flat.size, dtype=np.intp)
            if own:
                ranks[order] = np.repeat(starts if side == "left" else starts + runs, runs)
            else:
                ranks[order] = np.searchsorted(col, ordered, side=side)
            fractions.append(ranks.reshape(x.shape) / col.size)
        return fractions

    def _cdf(self, t, x):
        return self._rank_fractions(t, x, ("right",))[0]

    def _cdf_left(self, t, x):
        return self._rank_fractions(t, x, ("left",))[0]

    def _cdf_limits(self, t, x):
        return self._rank_fractions(t, x, ("left", "right"))

    def _quantile(self, t, u, cu):
        col = self._columns[self._col_index(t)]
        return col[np.searchsorted(self._thresholds, u, side="left")]

    def support(self, t):
        col = self._columns[self._col_index(float(t))]
        return float(col[0]), float(col[-1])

    def quantile_steps(self, t):
        """The jump levels k/n, k = 1 .. n - 1, and the sorted column."""
        return self._thresholds, self.column(t)


def empirical_family_from_ensemble(ensemble) -> Empirical:
    """Column-wise empirical marginal family of a process ensemble."""
    return Empirical(ensemble.grid, ensemble.paths.T)


def empirical_family_to_csv(family: Empirical, path) -> None:
    """One column per grid point; the header row holds the grid times."""
    if not isinstance(family, Empirical):
        raise InvalidArgumentError("only empirical families serialize to CSV")
    write_matrix_csv(path, family.grid.points, family._columns.T)


def empirical_family_from_csv(path) -> Empirical:
    """Inverse of ``empirical_family_to_csv``; grid weights are trapezoid."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.strip().split(",") for ln in fh if ln.strip()]
    if len(rows) < 2:
        raise InvalidArgumentError(f"{path}: need a header row and at least one sample row")
    if any(len(row) != len(rows[0]) for row in rows):
        raise InvalidArgumentError(f"{path}: inconsistent column count")
    # as objects, the text cells reach numpy's float parse, which
    # check_array refuses to apply to a str array
    table = check_array(np.array(rows, dtype=object), f"cells of {path}")
    return Empirical(grid_from_points(table[0]), table[1:].T)


#: config ``kind`` tag -> family class, for every family a config can build
FAMILY_KINDS = {cls.kind: cls for cls in (GaussianScale, ExponentialScale, Pareto,
                                          Uniform, ScaleMixtureGaussian)}
