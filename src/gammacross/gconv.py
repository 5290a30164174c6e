"""Distribution engine for finite convolutions of independent gamma variables.

A convolution sum(scale_i * gamma(shape_i, 1)) is represented by a series
expansion about a base beta no larger than its least scale (Moschopoulos
1985):

    F(x) = sum_k w_k P(rho + k, y),    y = x / beta,  rho = sum(shape_i)

A convolution's own series takes beta = beta1, the least scale.

Weights.  w is the pmf of a sum of independent negative binomials
NB(shape_j, p_j), p_j = beta / beta_j, so it is the convolution of their
pmfs; a component with p_j = 1 is a point mass at 0 and adds no factor.
Each pmf is evaluated in log space (betaln, log1p) and cut at the first k
whose survival betainc(k, shape_j, 1 - p_j) is at most TAIL_TARGET / J, J the
number of factors.  The convolution of the cut factors misses at most the
sum of those survivals; that sum is the series tail, and it bounds the CDF
truncation error.  The mean series index is mu(beta) = mean / beta - rho,
so a smaller base gives a longer series.

CDF.  With u_j(y) = y^(rho+j-1) e^-y / Gamma(rho + j), the unit gamma
density at shape rho + j, the ladder P(rho + k, y) = P(rho, y) - sum_{j=1..k}
u_j(y) turns the series into its tail-sum form

    F(x) = Wbar_0 P(rho, y) - sum_{j>=1} Wbar_j u_j(y),   Wbar_j = sum_{k>=j} w_k,

with the tail sums Wbar built with the weights.  The density and its first
two x-derivatives are sum_k w_k u_k^(d)(y) / beta^(d+1), termwise.

Pairs.  The terms u_j(y) depend on the base and on rho only, not on the
weights.  Two convolutions with equal rho and equal means (a majorized pair
at a common shape) have equal mu about any common base, so rebasing the one
with the larger least scale to the other's beta1 gives a series as long as
the other's own.  `cdf(x, minus=other)` then evaluates both series as the
two rows of one, the shorter zero-padded: each block builds its term matrix
once and multiplies it by both rows of tail sums.  The base is shared only
where the two rho are equal and the rebased series is no longer than the two
own series together; otherwise each side is evaluated about its own least
scale, as a one-row series.  A shared term matrix also makes the difference
more accurate: the rounding of each u_j, which grows with y, is common to
both rows and cancels in D instead of adding up.

Term window.  As a function of j, u_j(y) is concentrated within O(sqrt(y)) of
y - rho, so one point needs about 17 sqrt(y) + 27 terms.  Points are sorted
and evaluated in blocks sized by work, one term matrix each: a block that
starts at y0 takes no point beyond y0 + 8.5 sqrt(y0) + 1/2, so its window is
at most about half again as wide as one point's, and no more points than keep
that matrix within _BLOCK_WORK entries (192 KB).  A fixed point count would
pay the per-block overhead hundreds of times over at tiny y, where points
need few terms, and would let sparse points at large y share a window far
wider than any of them needs.  A block spanning [y_lo, y_hi] sums only the
terms j in [lo, hi].  The omitted ladder mass is at most
gammaincc(rho + lo - 1, y_lo) below the window and gammainc(rho + hi - d, y_hi)
above it (d the derivative order; the shift covers the derivative factors,
since u_a' = u_(a-1) - u_a), both exact at the block's ends because they are
monotone in y.  Each window is widened until both bounds are at most
_WINDOW_TAIL, which keeps the omitted part of a CDF value below
2 * _WINDOW_TAIL and of a density value below
(2.2 + 2^d) * _WINDOW_TAIL / beta^(d+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc, betaln, gammainc, gammaincc, gammaincinv, gammaln

from ._domain import check_alpha, check_count, check_weights, tie_tol
from .errors import ConvergenceError, DomainError

__all__ = [
    "GammaComponent",
    "GammaConvolution",
    "make_convolution",
    "tail_window",
    "difference_error_estimate",
    "EcdfBand",
    "ecdf_band",
    "h1_closed",
    "h2_closed",
    "TAIL_TARGET",
    "MAX_TERMS",
]

TAIL_TARGET = 1e-14
MAX_TERMS = 100_000
_SCALE_MERGE_RTOL = 1e-12
_UNDERFLOW_LOG_FLOOR = -700.0
_EPS4 = 4.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
# term-points per evaluation block, and the ladder mass a term window may omit
_BLOCK_WORK = 24_576
_WINDOW_TAIL = 1e-16
# the bound on a series value's rounding that error_estimate adds to its tail
_KERNEL_ERROR = 2e-12


@dataclass(frozen=True)
class GammaComponent:
    """One gamma(shape, 1) variable multiplied by a positive scale."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise DomainError(f"component shape must be positive and finite, got {self.shape!r}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"component scale must be positive and finite, got {self.scale!r}")


@dataclass(frozen=True)
class _Series:
    """One series, or the rows of several about one base and rho: weights
    and wbar are then 2-d, one row each, zero-padded to a common K."""

    beta1: float  # the base beta, at most the least scale
    rho: float
    weights: np.ndarray  # w_k, k = 0..K-1
    wbar: np.ndarray  # Wbar_j = sum_{k>=j} w_k, j = 0..K-1
    lgam: np.ndarray  # lnGamma(rho + k), k = 0..K-1
    tail: float  # bound on the weight mass cut off, summed over the rows


@dataclass(frozen=True)
class GammaConvolution:
    """Canonical, immutable convolution of gamma components.

    Components are stored sorted by scale; components whose scales agree to
    relative 1e-12 are merged by adding shapes.  Hashable, so instances can
    key caches.
    """

    components: tuple[GammaComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise DomainError("a convolution needs at least one component")
        comps = sorted(self.components, key=lambda c: (c.scale, c.shape))
        merged: list[GammaComponent] = [comps[0]]
        for c in comps[1:]:
            last = merged[-1]
            if c.scale - last.scale <= _SCALE_MERGE_RTOL * c.scale:
                merged[-1] = GammaComponent(last.shape + c.shape, last.scale)
            else:
                merged.append(c)
        object.__setattr__(self, "components", tuple(merged))

    @property
    def total_shape(self) -> float:
        return math.fsum(c.shape for c in self.components)

    @property
    def mean(self) -> float:
        return math.fsum(c.shape * c.scale for c in self.components)

    @property
    def variance(self) -> float:
        return math.fsum(c.shape * c.scale * c.scale for c in self.components)

    @property
    def error_estimate(self) -> float:
        """Conservative absolute error bound for cdf/density values."""
        return self._series.tail + _KERNEL_ERROR

    @cached_property
    def _series(self) -> _Series:
        return _build_series(self.components)

    def _pair(self, other: GammaConvolution) -> _Series | None:
        """The two-row series of (self, other) about their shared base, or
        None where the base is not shared; the last one is kept."""
        cached = self.__dict__.get("_pair_cache")
        if cached is None or cached[0] != other.components:
            beta = _shared_base(self, other)
            pair = None if beta is None else _stack(self._series_about(beta),
                                                    other._series_about(beta))
            cached = self.__dict__["_pair_cache"] = (other.components, pair)
        return cached[1]

    def _series_about(self, beta: float) -> _Series:
        if beta == self.components[0].scale:
            return self._series
        return _build_series(self.components, beta)

    # -- evaluation ------------------------------------------------------

    def cdf(self, x, minus: GammaConvolution | None = None):
        """P(sum <= x); vectorized, clamped to [0, 1].

        With `minus` another convolution, F_self(x) - F_minus(x), each CDF
        clamped before the subtraction.  Where the two share a base (see the
        module docstring) both come from one term matrix per block; the
        error bound is then `difference_error_estimate(self, minus)`.
        """
        xs = np.asarray(x, dtype=float)
        if minus is None:
            return _scalar(_eval(self._series, xs, _cdf_block, 0), xs)
        pair = self._pair(minus)
        if pair is None:
            d = _eval(self._series, xs, _cdf_block, 0) - _eval(minus._series, xs, _cdf_block, 0)
        else:
            f = _eval(pair, xs, _cdf_block, 0)
            d = f[0] - f[1]
        return _scalar(d, xs)

    def density(self, x, order: int = 0):
        """Density (order 0) or its first/second x-derivative (order 1/2);
        order must be the integer 0, 1 or 2."""
        if check_count("order", order, 0) > 2:
            raise DomainError(f"order must be 0, 1 or 2, got {order!r}")
        xs = np.asarray(x, dtype=float)
        return _scalar(_eval(self._series, xs,
                             lambda s, y, lo, hi: _density_block(s, y, lo, hi, order), order),
                       xs)

    def quantile_bracket(self, p: float) -> tuple[float, float]:
        """(beta_min g, beta_max g), g = gammaincinv(rho, p), brackets the
        p-quantile, since beta_min G <= sum <= beta_max G for G ~ gamma(rho, 1).
        ConvergenceError if the bracket leaves the double range."""
        p = float(p)
        if not (0.0 < p < 1.0):
            raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
        g = float(gammaincinv(self.total_shape, p))
        lo, hi = self.components[0].scale * g, self.components[-1].scale * g
        if not (0.0 < lo and math.isfinite(hi)):
            raise ConvergenceError(f"quantile bracket outside the double range at p={p}")
        return lo, hi

    def quantile(self, p: float) -> float:
        """Inverse CDF for 0 < p < 1.

        Brent's method solves on `quantile_bracket(p)`, in the form that is
        nearly linear there: log F(e^t) = log p in t = log x for p < 1/2,
        since F ~ c x^rho near zero, and log(1 - F(x)) = log(1 - p) in x
        otherwise, since 1 - F decays exponentially.  Where rounding puts
        both bracket ends on one side of p (near-tied scales), the end nearer
        p is returned.
        """
        p = float(p)
        lo, hi = self.quantile_bracket(p)
        if lo == hi:
            return lo
        if p < 0.5:  # solve in t = log x, to relative accuracy in x
            a, b, xtol = math.log(lo), math.log(hi), _EPS4
            log_p = math.log(p)
            f = lambda t: _log(self.cdf(math.exp(t))) - log_p
        else:
            a, b, xtol = lo, hi, _TINY
            log_q = math.log1p(-p)
            f = lambda x: _log(1.0 - self.cdf(x)) - log_q
        try:
            root = brentq(f, a, b, xtol=xtol, rtol=_EPS4)
        except ValueError:  # rounding put both bracket ends on one side
            root = min((a, b), key=lambda v: abs(f(v)))
        return min(max(math.exp(root), lo), hi) if p < 0.5 else root

    def sample(self, n: int, seed) -> np.ndarray:
        """n independent draws, deterministic given seed."""
        n = check_count("n", n, 0)
        rng = np.random.default_rng(seed)
        out = np.zeros(n)
        for c in self.components:
            out += c.scale * _gamma_variates(rng, c.shape, n)
        return out


def difference_error_estimate(a: GammaConvolution, b: GammaConvolution) -> float:
    """Conservative absolute error bound for `a.cdf(x, minus=b)`, from the
    tails of the series that evaluation uses."""
    pair = a._pair(b)
    if pair is None:
        return a.error_estimate + b.error_estimate
    return pair.tail + 2.0 * _KERNEL_ERROR


def tail_window(a: GammaConvolution, b: GammaConvolution, p: float) -> tuple[float, float]:
    """Interval outside which both CDFs (below it) and both survival
    functions (above it) are at most p, from the quantile brackets alone."""
    lo = min(a.quantile_bracket(p)[0], b.quantile_bracket(p)[0])
    hi = max(a.quantile_bracket(1.0 - p)[1], b.quantile_bracket(1.0 - p)[1])
    return lo, hi


def make_convolution(alpha: float, weights: Sequence[float]) -> GammaConvolution:
    """Convolution sum(weights_i * gamma(alpha, 1)) at common shape alpha.
    Zero weights are dropped."""
    alpha = check_alpha(alpha)
    ws = check_weights("weights", weights)
    return GammaConvolution(tuple(GammaComponent(alpha, float(w)) for w in ws if w > 0.0))


# -- series construction --------------------------------------------------


def _shared_base(a: GammaConvolution, b: GammaConvolution) -> float | None:
    """The least of the two least scales, where a series of the other side
    about it is no longer than the two own series together (mean series
    index mu(beta) = mean / beta - rho, compared at the tie tolerance) and
    the two rho are equal; otherwise None."""
    rho = a.total_shape
    if b.total_shape != rho:
        return None
    low, high = sorted((a, b), key=lambda g: g.components[0].scale)
    beta = low.components[0].scale
    rebased = high.mean / beta - rho
    own = (low.mean / beta - rho) + (high.mean / high.components[0].scale - rho)
    return beta if rebased <= own + tie_tol(rebased, own) else None


def _build_series(components: tuple[GammaComponent, ...], beta: float | None = None) -> _Series:
    """The series about base `beta`, at most the least scale and by default
    equal to it."""
    shapes = np.array([c.shape for c in components])
    scales = np.array([c.scale for c in components])
    beta1 = float(scales[0]) if beta is None else float(beta)
    rho = float(math.fsum(shapes))
    p = beta1 / scales  # p == 1: a point mass at 0, as the least scale is about itself
    log_c0 = float(np.dot(shapes, np.log(p)))
    if log_c0 < _UNDERFLOW_LOG_FLOOR:
        raise ConvergenceError(
            f"leading series weight underflows: its log, sum of shape * log(base / scale), "
            f"is {log_c0:.6g}, below the floor {_UNDERFLOW_LOG_FLOOR:g}")
    factors = [(shape, pj) for shape, pj in zip(shapes, p) if pj < 1.0]
    w = np.ones(1)
    tail = 0.0
    for shape, pj in factors:
        n_j, sf = _nb_cut(shape, 1.0 - pj, TAIL_TARGET / len(factors))
        if len(w) + n_j - 1 > MAX_TERMS:
            raise ConvergenceError(f"series needs more than {MAX_TERMS} terms")
        w = np.convolve(w, _nb_pmf(shape, pj, n_j))
        tail += sf
    lgam = gammaln(rho + np.arange(len(w)))
    wbar = np.cumsum(w[::-1])[::-1]
    return _Series(beta1=beta1, rho=rho, weights=w, wbar=wbar, lgam=lgam, tail=tail)


def _stack(a: _Series, b: _Series) -> _Series:
    """a and b, about one base and rho, as the two rows of one series."""
    longer = a if a.lgam.size >= b.lgam.size else b
    pad = lambda v: np.pad(v, (0, longer.lgam.size - v.size))
    return _Series(beta1=a.beta1, rho=a.rho,
                   weights=np.stack([pad(a.weights), pad(b.weights)]),
                   wbar=np.stack([pad(a.wbar), pad(b.wbar)]),
                   lgam=longer.lgam, tail=a.tail + b.tail)


def _nb_pmf(shape: float, p: float, n: int) -> np.ndarray:
    """P(N = k), k = 0..n-1, for N ~ NB(shape, p), from logs:
    C(k + shape - 1, k) = 1 / (k B(k, shape)) for k >= 1."""
    k = np.arange(1.0, n)
    log_pmf = shape * math.log(p) + k * math.log1p(-p) - np.log(k) - betaln(k, shape)
    with np.errstate(under="ignore"):
        return np.concatenate(([p ** shape], np.exp(log_pmf)))


def _nb_cut(shape: float, q: float, target: float) -> tuple[int, float]:
    """The least n with P(N >= n) <= target for N ~ NB(shape, 1 - q), and
    that survival, betainc(n, shape, q)."""
    mean = shape * q / (1.0 - q)
    hi = int(mean + 10.0 * math.sqrt(mean / (1.0 - q)) + 10.0)
    while betainc(hi, shape, q) > target:
        if hi > MAX_TERMS:
            raise ConvergenceError(f"series needs more than {MAX_TERMS} terms")
        hi *= 2
    lo = 0  # invariant: P(N >= lo) > target >= P(N >= hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if betainc(mid, shape, q) <= target:
            hi = mid
        else:
            lo = mid
    return hi, float(betainc(hi, shape, q))


# -- evaluation kernels ----------------------------------------------------


def _log(v: float) -> float:
    """log v, floored at the log of the least normal double so that Brent's
    method sees a finite value where a probability underflows to 0."""
    return math.log(max(v, _TINY))


def _scalar(v: np.ndarray, xs: np.ndarray):
    return float(v) if xs.ndim == 0 else v


def _eval(s: _Series, xs: np.ndarray, kernel, order: int) -> np.ndarray:
    """kernel values of every row of s at xs, shaped (rows of s) + xs.shape."""
    flat = xs.ravel()
    if not np.all(np.isfinite(flat)):
        raise DomainError("evaluation points must be finite")
    rows = s.wbar.shape[:-1]
    out = np.zeros(rows + flat.shape)
    pos = np.flatnonzero(flat > 0.0)
    if pos.size:
        pos = pos[np.argsort(flat[pos], kind="stable")]
        y = flat[pos] / s.beta1
        start = 0
        while start < y.size:  # a block sized by work, see "Term window" above
            r0 = math.sqrt(y[start])
            stop = int(np.searchsorted(y, y[start] + 8.5 * r0 + 0.5, side="right"))
            # hi - lo + 1 of _window's unwidened guess bounds the block's terms
            width = y[stop - 1] - y[start] + 8.5 * (r0 + math.sqrt(y[stop - 1])) + 28.0 + order
            stop = min(stop, start + max(1, int(_BLOCK_WORK // width)))
            lo, hi = _window(s, y[start], y[stop - 1], order)
            out[..., pos[start:stop]] = kernel(s, y[start:stop], lo, hi)
            start = stop
    return out.reshape(rows + xs.shape)


def _window(s: _Series, y_lo: float, y_hi: float, order: int) -> tuple[int, int]:
    """Term window [lo, hi] for a block spanning [y_lo, y_hi]: a normal-tail
    guess, widened until the omitted ladder mass on each side is at most
    _WINDOW_TAIL (see the module docstring)."""
    last = s.lgam.size - 1
    lo = int(min(max(y_lo - s.rho + 1.0 - 8.5 * math.sqrt(y_lo), 0.0), last))
    hi = int(min(max(y_hi - s.rho + order + 8.5 * math.sqrt(y_hi) + 26.0, order), last))
    step = 1 + int(min(math.sqrt(y_hi), last))
    while lo >= 2 and gammaincc(s.rho + lo - 1, y_lo) > _WINDOW_TAIL:
        lo = max(lo - step, 0)
    while hi < last and gammainc(s.rho + hi - order, y_hi) > _WINDOW_TAIL:
        hi = min(hi + step, last)
    # the bound below covers terms 1..lo-1 only, so term 0 goes with term 1
    return (0 if lo == 1 else lo), hi


def _terms(s: _Series, lo: int, hi: int, y: np.ndarray) -> np.ndarray:
    """u_j(y) = y^(rho+j-1) e^-y / Gamma(rho+j), j = lo..hi down the rows."""
    a1 = s.rho - 1.0 + np.arange(lo, hi + 1)
    with np.errstate(under="ignore"):
        return np.exp(a1[:, None] * np.log(y)[None, :] - y[None, :]
                      - s.lgam[lo:hi + 1][:, None])


def _cdf_block(s: _Series, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """One row of values per row of s, all from one term matrix."""
    vals = s.wbar[..., :1] * gammainc(s.rho, y)
    lo = max(lo, 1)
    if lo <= hi:
        vals -= s.wbar[..., lo:hi + 1] @ _terms(s, lo, hi, y)
    return np.clip(vals, 0.0, 1.0)


def _density_block(s: _Series, y: np.ndarray, lo: int, hi: int, order: int) -> np.ndarray:
    base = _terms(s, lo, hi, y)
    w = s.weights[..., lo:hi + 1]
    if order == 0:
        return (w @ base) / s.beta1
    am1 = (s.rho - 1.0 + np.arange(lo, hi + 1))[:, None]
    u = am1 / y[None, :] - 1.0
    if order == 1:
        return (w @ (base * u)) / s.beta1 ** 2
    return (w @ (base * (u * u - am1 / (y * y)[None, :]))) / s.beta1 ** 3


# -- sampling --------------------------------------------------------------


def _gamma_variates(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """Marsaglia-Tsang squeeze; shape < 1 boosted via U^(1/shape)."""
    if shape < 1.0:
        u = rng.random(n)
        return _gamma_variates(rng, shape + 1.0, n) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    cc = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        m = todo.size
        z = rng.standard_normal(m)
        u = rng.random(m)
        v = (1.0 + cc * z) ** 3
        ok = v > 0.0
        accept = np.zeros(m, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            accept[ok] = np.log(u[ok]) < (0.5 * z[ok] ** 2 + d - d * v[ok] + d * np.log(v[ok]))
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    return out


# -- empirical CDF band ----------------------------------------------------


@dataclass(frozen=True)
class EcdfBand:
    """Empirical CDF with a two-sided 99% band of DKW half-width.

    half_width = sqrt(ln(2 / (1 - 0.99)) / (2 n)); the true CDF lies inside
    the band, sup_deviation <= half_width, with probability at least 0.99.
    """

    sorted_samples: np.ndarray
    half_width: float

    @property
    def n(self) -> int:
        return len(self.sorted_samples)

    def ecdf(self, x):
        return np.searchsorted(self.sorted_samples, x, side="right") / self.n

    def sup_deviation(self, cdf_at_sorted: np.ndarray) -> float:
        """Exact sup_x |ecdf - F| given F evaluated at the sorted samples."""
        f = np.asarray(cdf_at_sorted, dtype=float)
        if f.shape != self.sorted_samples.shape:
            raise DomainError("cdf_at_sorted must match the sample vector")
        hi = np.arange(1, self.n + 1) / self.n - f
        lo = f - np.arange(0, self.n) / self.n
        return float(max(hi.max(), lo.max()))

    def sup_deviation_bound(self, grid: np.ndarray, cdf_at_grid: np.ndarray) -> float:
        """Rigorous upper bound on sup_x |ecdf - F| from F on a coarse grid.

        Both curves are nondecreasing, so on [g_j, g_{j+1}) the deviation is
        bounded by the worst staircase corner; outside the grid the bound is
        F(g_0) on the left and 1 - F(g_m) on the right.  Tight to O(max
        increment) without evaluating F at every sample.
        """
        g = np.asarray(grid, dtype=float)
        f = np.asarray(cdf_at_grid, dtype=float)
        if g.ndim != 1 or g.shape != f.shape or g.size < 2:
            raise DomainError("grid and cdf_at_grid must be matching 1-d arrays")
        if np.any(np.diff(g) <= 0.0):
            raise DomainError("grid must be strictly increasing")
        e_right = np.searchsorted(self.sorted_samples, g, side="right") / self.n
        # closed cells [g_j, g_{j+1}]: sup(ecdf) <= ecdf(g_{j+1}), inf F = F(g_j)
        over = np.max(e_right[1:] - f[:-1])
        under = np.max(f[1:] - e_right[:-1])
        edges = max(float(f[0]), 1.0 - float(f[-1]), float(e_right[0]),
                    1.0 - float(e_right[-1]))
        return float(max(over, under, edges, 0.0))


def ecdf_band(samples: np.ndarray) -> EcdfBand:
    """The 99% DKW band of the empirical CDF of a nonempty finite sample."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise DomainError("samples must be a nonempty 1-d array")
    if not np.all(np.isfinite(samples)):
        raise DomainError("samples must be finite")
    hw = math.sqrt(math.log(2.0 / (1.0 - 0.99)) / (2.0 * samples.size))
    return EcdfBand(np.sort(samples), hw)


# -- closed-form references ------------------------------------------------


def h1_closed(delta: float, x):
    """Density of expo(delta) + expo(1) for 0 < delta < 1:
    (e^-x - e^-(x/delta)) / (1 - delta)."""
    if not (0.0 < delta < 1.0):
        raise DomainError(f"h1_closed requires 0 < delta < 1, got {delta!r}")
    x = np.asarray(x, dtype=float)
    return (np.exp(-x) - np.exp(-x / delta)) / (1.0 - delta)


def h2_closed(delta: float, x):
    """Density of gamma(2, delta) + gamma(2, 1) for 0 < delta < 1:
    (x (e^-x + e^-(x/delta)) - 2 delta h1(x)) / (1 - delta)^2."""
    if not (0.0 < delta < 1.0):
        raise DomainError(f"h2_closed requires 0 < delta < 1, got {delta!r}")
    x = np.asarray(x, dtype=float)
    h1 = h1_closed(delta, x)
    return (x * (np.exp(-x) + np.exp(-x / delta)) - 2.0 * delta * h1) / (1.0 - delta) ** 2
