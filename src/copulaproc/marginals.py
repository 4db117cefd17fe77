"""Time-indexed marginal families.

A family assigns to each time t a one-dimensional distribution through its
CDF, generalized inverse (quantile), and, when one exists, density.  The
quantile is the left-continuous generalized inverse

    Q_t(u) = inf { x : F_t(x) >= u },

so ``quantile(t, u) <= x`` iff ``u <= cdf(t, x)`` including at atoms.  The
distributional transform F_t(x-) + v * (F_t(x) - F_t(x-)) turns samples of
any law, atomic or not, into exact uniforms when v is an independent
uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri, roots_legendre

from .errors import (InvalidArgumentError, NumericFailureError, UnsupportedOperationError,
                     check_array, check_float, holds_text_or_bool)
from .grid import TimeGrid

_TAIL_EPS = 1e-12
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _as_time_fn(value, name: str, **bounds):
    """Lift a parameter to a function of t whose values pass
    ``check_float(value, name, **bounds)``.

    A constant is checked once, here, and returned as is at every t.  A
    callable's value is checked at each evaluation; a value it refuses
    raises with the time appended, and one it passes formats no message; a
    callable that raises ``ArithmeticError`` at t is refused the same way.
    """
    if not callable(value):
        const = check_float(value, name, **bounds)
        return lambda t: const

    def checked(t):
        try:
            v = value(t)
        except ArithmeticError as exc:  # 0.0 ** -0.5, 2.0 ** 2000
            raise InvalidArgumentError(f"{name} cannot be evaluated at t={t}: {exc}") from None
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
    #: the scale keyword that a config's ``power_law_hurst`` replaces
    power_law_key: str | None = None
    #: no atoms, and a density, at every time whose support is more than
    #: one point
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
        # continuous families have no atoms, bar a support of one point
        lo, hi = self.support(t)
        return (x > lo).astype(float) if lo == hi else self._cdf(t, x)

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
        """Q_t(u) for u in [0, 1].  On an unbounded side of the support,
        u = 0 and u = 1 are read as ``_TAIL_EPS`` = 1e-12 and 1 - 1e-12, a
        fixed level and no parameter; a finite end is returned exactly."""
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
    power_law_key = "sigma"
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
    power_law_key = "scale"
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

    The mixture law needs E[1/S] = exp(-mu + sigma**2 / 2) and
    E[S**2] = exp(2 mu + 2 sigma**2); a mixing where either overflows a
    float is refused here, from the logs, before any exp is taken.
    """

    mu: float = 0.0
    sigma: float = 0.5

    def __post_init__(self):
        mu = check_float(self.mu, "mu")
        sigma = check_float(self.sigma, "sigma", 0.0)
        # each log alone: at mu = -1e308, sigma = 1e200 log E[S**2] is NaN
        if 2.0 * mu + 2.0 * sigma * sigma > _LOG_MAX or 0.5 * sigma * sigma - mu > _LOG_MAX:
            raise InvalidArgumentError("mixing must have finite E[1/S] and E[S**2]")

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if self.sigma == 0.0:
            return np.full_like(u, np.exp(self.mu))
        return np.exp(self.mu + self.sigma * ndtri(u))

    @property
    def tag(self) -> str:
        return f"lognormal(mu={self.mu:g},sigma={self.sigma:g})"


#: Gauss-Legendre nodes of the scale-mixture integral over the mixing quantile
_MIX_NODES = 64
#: log of the largest float: a moment exp(a) is finite iff a <= _LOG_MAX
_LOG_MAX = float(np.log(np.finfo(float).max))


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _normal_cdf(block, scales):
    return ndtr(block, out=block)


def _normal_density(block, scales):
    # exp(-0.5 * b * b) / (sqrt(2 pi) s) in place.  -0.5 * b is exact,
    # so -0.5 * (b * b) rounds as (-0.5 * b) * b does, except below the
    # normal range or past overflow, where exp gives 1 or 0 either way
    np.multiply(block, block, out=block)
    block *= -0.5
    np.exp(block, out=block)
    block /= _SQRT_2PI * scales
    return block


def _mixture_average(z, scales, weights, *funcs) -> list:
    """Mixture averages sum_k weights[k] func(z / scales[k]) of each func,
    called as ``func(block, scales)``; one array of z's shape per func.

    Rows go in blocks of 2048 inside each run of 65536.  numpy sends a
    one-row product to its dot kernel, which sums in another order than
    the matrix-vector kernel, so a trailing single row joins the block
    before it, unless it starts a run of 65536 and so has always gone
    alone.  Every row keeps the value of one block per 65536 rows.

    The blocks run on the calling thread, through one buffer of at most
    2049 rows, which each ``func`` in turn overwrites and returns, after
    the block z / s is written into it afresh: several funcs make one pass
    over the blocks, and each of their values is the one a pass of its own
    gives.  Work is shared by column in ``merge`` and ``extract_copula``,
    not here.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    outs = [np.empty_like(flat) for _ in funcs]
    buffer = np.empty((min(flat.size, 2049), scales.size))
    for top in range(0, flat.size, 65536):
        stop = min(top + 65536, flat.size)
        starts = range(top, max(stop - 1, top + 1), 2048)
        for start, end in zip(starts, [*starts[1:], stop]):
            block = buffer[:end - start]
            for func, out in zip(funcs, outs):
                np.divide(flat[start:end, None], scales[None, :], out=block)
                np.matmul(func(block, scales), weights, out=out[start:end])
    return [out.reshape(z.shape) for out in outs]


@lru_cache(maxsize=16)
def _unit_law(mixing: LognormalMixing):
    """What the unit law S * Z takes from its mixing alone, all read-only:
    the scales and weights of the 64-node Gauss-Legendre mixture integral,
    and the quantile table.  The table is the lower half of the law on 8193
    nodes z from -z_max to 0: z, F0(z), log F0(z) and, on each interval of
    log F0, the cubic Hermite interpolant of z with the exact slopes
    dz / dlog F0 = F0 / f0, as coefficients in the interval's own variable
    a in [0, 1].  The 16 most recent mixings are kept; a family keeps its
    own."""
    nodes, weights = roots_legendre(_MIX_NODES)
    scales = check_array(mixing.quantile(0.5 * (nodes + 1.0)), "mixing quantile", 0.0,
                         lo_open=True)
    weights = 0.5 * weights
    z_max = float(scales.max()) * abs(ndtri(1e-14)) * 1.05
    zs = np.linspace(-z_max, 0.0, 8193)
    cdf, pdf = _mixture_average(zs, scales, weights, _normal_cdf, _normal_density)
    logs = np.log(cdf)
    widths = np.diff(logs)
    slope = cdf / pdf
    # z's rise over each interval, and at its ends the slopes in a
    rise, d0, d1 = np.diff(zs), widths * slope[:-1], widths * slope[1:]
    cubic = _read_only(zs[:-1], d0, 3.0 * rise - 2.0 * d0 - d1, d0 + d1 - 2.0 * rise)
    return (*_read_only(scales, weights), (*_read_only(zs, cdf, logs, widths), cubic))


class ScaleMixtureGaussian(MarginalFamily):
    """Marginal of S * Z with Z standard normal and S an independent scale.

    The CDF is the mixture integral int Phi(z / s) dF_S(s), evaluated with
    fixed Gauss-Legendre nodes over the mixing quantile function so every
    call is deterministic.  The quantile inverts that CDF: a cubic Hermite
    interpolation of z against log F0 on a table of the lower half starts
    it, and Newton steps finish it, each one pass for F0 and its density
    over the entries still moving.  Mixings that spread the scales so far
    that four steps leave an entry moving (sigma about 2.5 or more) raise
    ``NumericFailureError``.  An optional per-time scale c_t gives the law
    of c_t * S * Z.  The scales, weights and table depend on the mixing
    alone: the constructor builds them whole on the calling thread, once
    per mixing, the 16 most recent kept, and families with equal mixings
    share them read-only.  The finite E[1/S] and E[S**2] the law needs are
    the mixing's to guarantee: ``LognormalMixing`` refuses the rest.
    """

    kind = "scale_mixture_gaussian"
    is_continuous = True

    def __init__(self, mixing: LognormalMixing = LognormalMixing(), scale=1.0):
        super().__init__()
        if not isinstance(mixing, LognormalMixing):
            raise InvalidArgumentError(f"mixing must be a LognormalMixing, got {mixing!r}")
        self.mixing = mixing
        self.scale = _as_time_fn(scale, "scale", lo=0.0, lo_open=True)
        self.time_invariant = not callable(scale)
        self._mix_s, self._mix_w, self._table = _unit_law(mixing)

    def _unit_quantile(self, u, cu):
        # below the median F0(y) = u, above it F0(y) = cu and z = -y, as
        # 1 - F0(z) = F0(-z): both branches solve on the lower half
        zs, _, logs, widths, (c0, c1, c2, c3) = self._table
        lower = u <= 0.5
        v = np.where(lower, u, cu).ravel()
        # start: the table's cubic in log v; a level below F0(zs[0]) starts
        # at zs[0], where the clip below keeps it
        a = np.clip(np.log(v), logs[0], logs[-1])
        i = np.clip(np.searchsorted(logs, a) - 1, 0, widths.size - 1)
        a -= logs[i]
        a /= widths[i]
        y = ((c3[i] * a + c2[i]) * a + c1[i]) * a + c0[i]
        del a, i
        # Newton steps, each one pass over the entries still moving.  An
        # entry stops once its step is at most 2**-26 (about sqrt(eps)) of
        # |y|, or of the smallest mixing scale, over which F0 bends near 0:
        # quadratic convergence then puts the next step below rounding.
        s_min = self._mix_s.min()
        todo = np.arange(y.size)
        for _ in range(4):
            y0 = y[todo]
            tail, dens = _mixture_average(y0, self._mix_s, self._mix_w,
                                          _normal_cdf, _normal_density)
            tail -= v[todo]
            tail /= np.maximum(dens, 1e-300, out=dens)
            y1 = np.clip(y0 - tail, zs[0], -zs[0], out=tail)
            y[todo] = y1
            # |step| and the bound it is held to, written over y0 and dens
            step = np.abs(np.subtract(y1, y0, out=y0), out=y0)
            bound = np.maximum(np.abs(y1, out=dens), s_min, out=dens)
            todo = todo[step > 2.0 ** -26 * bound]
            if todo.size == 0:
                y = y.reshape(u.shape)
                return np.where(lower, y, -y)
        raise NumericFailureError(
            f"scale-mixture quantile: {todo.size} of {y.size} levels still move "
            f"after 4 Newton steps for {self.mixing!r}")

    # ----- family hooks --------------------------------------------------
    def _cdf(self, t, x):
        return _mixture_average(x / self.scale(t), self._mix_s, self._mix_w, _normal_cdf)[0]

    def _quantile(self, t, u, cu):
        return self.scale(t) * self._quantile0(u, cu)

    def _pdf(self, t, x):
        c = self.scale(t)
        return _mixture_average(x / c, self._mix_s, self._mix_w, _normal_density)[0] / c

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
    the distributional transform.  The family answers at the times of its
    own grid, whichever grid asks, so it serves any grid whose times are
    its own, such as a sub-grid; any other time raises.
    """

    kind = "empirical"
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


#: config ``kind`` tag -> family class, for every family a config can build
FAMILY_KINDS = {cls.kind: cls for cls in (GaussianScale, ExponentialScale, Pareto,
                                          Uniform, ScaleMixtureGaussian)}
