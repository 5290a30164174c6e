"""Certified sign analysis of D(x) = F_eta(x) - F_theta(x).

The certifier scans a log-spaced grid over the joint quantile window,
refines around sign transitions, and groups points with |D| > tol into
certified sign runs.  Between two runs of opposite sign, the last point of
the first and the first point of the second bracket a root of D, which
Brent's method locates to relative accuracy 1e-10.  Endpoint behavior is
pinned analytically: near zero the sign of D equals the sign of
prod(theta) - prod(eta) (the CDF ratio tends to a power of the product
ratio), and in the far tail the largest scale wins, then its multiplicity,
then the constant of the survival asymptotics.  An endpoint sign that
contradicts the adjacent certified run, or any sub-tolerance zone between
same-sign runs, downgrades the outcome to UNDECIDED; certified crossings
are never silently invented or dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc

from ._domain import (check_alpha, check_pair, check_scan, check_weights, check_window,
                      tie_tol)
from .errors import DomainError
from .gconv import GammaComponent, GammaConvolution, make_convolution
from .orders import log_majorizes

__all__ = [
    "Sign",
    "Classification",
    "Crossing",
    "CrossingReport",
    "near_zero_sign",
    "tail_sign",
    "perturbation_root_window",
    "sign_profile",
    "u_star",
    "h_diff",
    "lemma2_residual",
]

DEFAULT_GRID_SIZE = 2048
DEFAULT_TOL = 1e-8
_REFINE_PASSES = 3
_REFINE_POINTS = 8
_LOC_RTOL = 1e-10  # relative accuracy of crossing locations
_TINY = np.finfo(float).tiny


class Sign(Enum):
    MINUS = "-"
    PLUS = "+"
    INDETERMINATE = "?"

    def __str__(self) -> str:
        return self.value


class Classification(Enum):
    NO_CROSSING = "NO_CROSSING"
    SINGLE_CROSSING_BELOW = "SINGLE_CROSSING_BELOW"
    SINGLE_CROSSING_ABOVE = "SINGLE_CROSSING_ABOVE"
    MULTI = "MULTI"
    UNDECIDED = "UNDECIDED"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Crossing:
    """One certified sign change of D: location, direction ('-+' means D goes
    from negative to positive, i.e. F_theta crosses F_eta from above), and
    margin (the smaller of the two adjacent run peaks of |D|)."""

    location: float
    direction: str
    margin: float


@dataclass(frozen=True)
class CrossingReport:
    theta: tuple[float, ...]
    eta: tuple[float, ...]
    alpha: float
    window: tuple[float, float]
    grid_size: int
    tol: float
    sign_sequence: tuple[str, ...]
    crossings: tuple[Crossing, ...]
    classification: Classification
    error_estimate: float
    near_zero: str
    tail: str
    notes: tuple[str, ...] = field(default=())

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def label(self) -> str:
        if self.classification is Classification.MULTI:
            return f"MULTI({self.n_crossings})"
        return self.classification.value

    def __post_init__(self):
        changes = sum(1 for a, b in zip(self.sign_sequence, self.sign_sequence[1:]) if a != b)
        if self.classification is not Classification.UNDECIDED and changes != len(self.crossings):
            raise DomainError("crossing count must match certified sign changes")
        if self.classification is Classification.SINGLE_CROSSING_BELOW:
            if not (self.sign_sequence and self.sign_sequence[0] == "-"
                    and self.sign_sequence[-1] == "+"):
                raise DomainError("SINGLE_CROSSING_BELOW requires a -,+ sign sequence")
        for c in self.crossings:
            if not (c.margin > 0.0):
                raise DomainError("crossing margins must be positive")


def near_zero_sign(theta, eta, alpha: float) -> Sign:
    """Sign of D = F_eta - F_theta as x -> 0+.

    F_theta/F_eta tends to (prod theta / prod eta)^-alpha, so D > 0 iff
    prod(theta) > prod(eta).  alpha affects the magnitude, never the sign;
    it is validated and otherwise unused.  Product ties within relative
    1e-12 (compared in log space) give INDETERMINATE.
    """
    t, e = check_pair(theta, eta)
    check_alpha(alpha)
    return _near_zero(t, e)


def _near_zero(t: np.ndarray, e: np.ndarray) -> Sign:
    lt = -math.inf if np.any(t == 0.0) else math.fsum(math.log(v) for v in t)
    le = -math.inf if np.any(e == 0.0) else math.fsum(math.log(v) for v in e)
    if lt == le:
        return Sign.INDETERMINATE
    if math.isinf(lt) or math.isinf(le):
        return Sign.PLUS if lt > le else Sign.MINUS
    if abs(lt - le) <= tie_tol(lt, le):
        return Sign.INDETERMINATE
    return Sign.PLUS if lt > le else Sign.MINUS


def tail_sign(theta, eta) -> Sign:
    """Sign of D = F_eta - F_theta as x -> +inf.

    At common shape alpha, the survival function of sum(beta_j X_j) is
    asymptotic to C Q(m alpha, x / beta), with beta the largest scale, m the
    number of scales tied with it, Q the upper regularized incomplete gamma
    function and C = prod over the other scales of (1 - beta_j / beta)^-alpha.
    The heavier tail therefore has the larger beta, then the larger m, then
    the larger C; alpha multiplies log C and never flips that comparison.
    Each comparison uses the relative tie tolerance, and only a tie in all
    three gives INDETERMINATE.
    """
    return _tail(check_weights("theta", theta), check_weights("eta", eta))


def _tail(t: np.ndarray, e: np.ndarray) -> Sign:
    def key(w: np.ndarray) -> tuple[float, int, float]:
        top = float(w.max())
        tied = np.abs(w - top) <= tie_tol(top)
        # log C / alpha; zero weights contribute log1p(0) = 0
        return top, int(tied.sum()), -math.fsum(np.log1p(-w[~tied] / top))

    for a, b in zip(key(t), key(e)):
        if abs(a - b) > tie_tol(a, b):
            return Sign.PLUS if a > b else Sign.MINUS
    return Sign.INDETERMINATE


def perturbation_root_window(theta, alpha: float) -> tuple[float, float]:
    """Interval guaranteed to contain sign changes in near-perturbation
    comparisons: the supplemented densities are likelihood-ratio bracketed by
    gamma(n alpha + 2, min theta) and gamma(n alpha + 2, max theta), whose
    modes are (n alpha + 1) * scale."""
    t = check_weights("theta", theta)
    a = check_alpha(alpha)
    pos = t[t > 0.0]
    factor = t.size * a + 1.0
    return float(factor * pos.min()), float(factor * pos.max())


@dataclass
class _Run:
    sign: int
    first: int
    last: int
    peak: float


def _classify_signs(d: np.ndarray, tol: float) -> np.ndarray:
    return np.where(d > tol, 1, np.where(d < -tol, -1, 0)).astype(int)


def _runs(signs: np.ndarray, d: np.ndarray) -> list[_Run]:
    # Maximal blocks of consecutive identical nonzero signs.  Zeros split
    # runs: a zero gap between same-sign runs is a sub-tolerance dip and the
    # caller downgrades it to UNDECIDED rather than merging it away.
    nz = np.flatnonzero(signs)
    if nz.size == 0:
        return []
    breaks = np.flatnonzero((np.diff(nz) != 1) | (np.diff(signs[nz]) != 0)) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [nz.size])) - 1
    peaks = np.maximum.reduceat(np.abs(d[nz]), starts)
    return [_Run(int(signs[nz[i]]), int(nz[i]), int(nz[j]), float(pk))
            for i, j, pk in zip(starts, ends, peaks)]


def sign_profile(theta, eta, alpha: float, grid_size: int = DEFAULT_GRID_SIZE,
                 tol: float = DEFAULT_TOL, window: tuple[float, float] | None = None,
                 seed_window: tuple[float, float] | None = None) -> CrossingReport:
    """Certify the sign runs and crossings of D(x) = F_eta(x) - F_theta(x).

    Scans `grid_size` log-spaced points over `window` (default: the joint
    (1e-12, 1 - 1e-12) quantile span), refines around transitions, and
    assembles certified runs where |D| > tol.  `seed_window` adds grid
    density on an interval expected to contain crossings.
    """
    t, e = check_pair(theta, eta)
    a = check_alpha(alpha)
    check_scan(grid_size, tol)
    if window is not None:
        lo, hi = check_window(window)

    gc_t = make_convolution(a, t)
    gc_e = make_convolution(a, e)
    err_est = gc_t.error_estimate + gc_e.error_estimate
    if window is None:
        lo = min(gc_t.quantile(1e-12), gc_e.quantile(1e-12))
        hi = max(gc_t.quantile(1.0 - 1e-12), gc_e.quantile(1.0 - 1e-12))
    near, tail = _near_zero(t, e), _tail(t, e)

    def base_report(classification, sign_sequence=(), crossings=(), notes=()):
        return CrossingReport(
            theta=tuple(float(v) for v in t), eta=tuple(float(v) for v in e),
            alpha=a, window=(lo, hi), grid_size=grid_size, tol=tol,
            sign_sequence=tuple(sign_sequence), crossings=tuple(crossings),
            classification=classification, error_estimate=err_est,
            near_zero=near.value, tail=tail.value, notes=tuple(notes))

    if all(abs(u - v) <= tie_tol(u, v) for u, v in zip(np.sort(t), np.sort(e))):
        return base_report(Classification.NO_CROSSING,
                           notes=("identical weight multisets",))

    if near is Sign.INDETERMINATE and np.all(t > 0.0) and np.all(e > 0.0):
        if log_majorizes(t, e) or log_majorizes(e, t):
            return base_report(Classification.NO_CROSSING,
                               notes=("equal products with log-majorization dominance",))

    xs = np.geomspace(lo, hi, grid_size)
    if seed_window is not None:
        s_lo = max(lo, float(seed_window[0]))
        s_hi = min(hi, float(seed_window[1]))
        if s_lo < s_hi:
            xs = np.unique(np.concatenate([xs, np.geomspace(s_lo, s_hi, 256)]))

    def dval(pts):
        return gc_e.cdf(pts) - gc_t.cdf(pts)

    d = dval(xs)
    for _ in range(_REFINE_PASSES):
        signs = _classify_signs(d, tol)
        trans = np.nonzero(signs[1:] != signs[:-1])[0]
        if trans.size == 0:
            break
        extra = []
        for i in trans:
            seg = np.geomspace(xs[i], xs[i + 1], _REFINE_POINTS + 2)[1:-1]
            extra.append(seg)
        new_pts = np.unique(np.concatenate(extra))
        new_pts = np.setdiff1d(new_pts, xs)
        if new_pts.size == 0:
            break
        xs = np.concatenate([xs, new_pts])
        d = np.concatenate([d, dval(new_pts)])
        order = np.argsort(xs)
        xs = xs[order]
        d = d[order]

    signs = _classify_signs(d, tol)
    runs = _runs(signs, d)

    undecided = [f"sub-tolerance zone between same-sign runs near x={xs[r1.last]:.6g}"
                 for r1, r2 in zip(runs, runs[1:]) if r1.sign == r2.sign]
    if not runs:
        undecided.append("no certified sign anywhere in the window")
    elif near is not Sign.INDETERMINATE and _sign(runs[0]) is not near:
        undecided.append("near-zero sign contradicts the first certified run")
    if runs and tail is not Sign.INDETERMINATE and _sign(runs[-1]) is not tail:
        undecided.append("tail sign contradicts the last certified run")

    crossings: list[Crossing] = []
    for r1, r2 in zip(runs, runs[1:]):
        if r1.sign == r2.sign:
            continue
        a_x, b_x = float(xs[r1.last]), float(xs[r2.first])
        loc = brentq(dval, a_x, b_x, xtol=_TINY, rtol=_LOC_RTOL)
        direction = "-+" if r1.sign < 0 else "+-"
        crossings.append(Crossing(loc, direction, min(r1.peak, r2.peak)))

    if undecided:
        cls = Classification.UNDECIDED
    elif not crossings:
        cls = Classification.NO_CROSSING
    elif len(crossings) == 1:
        cls = (Classification.SINGLE_CROSSING_BELOW if crossings[0].direction == "-+"
               else Classification.SINGLE_CROSSING_ABOVE)
    else:
        cls = Classification.MULTI
    return base_report(cls, sign_sequence=_seq(runs), crossings=crossings, notes=undecided)


def _sign(run: _Run) -> Sign:
    return Sign.PLUS if run.sign > 0 else Sign.MINUS


def _seq(runs: Sequence[_Run]) -> tuple[str, ...]:
    return tuple("+" if r.sign > 0 else "-" for r in runs)


# -- two-component mixing comparison ----------------------------------------


def _prop_config(theta, eta) -> tuple[float, float, float, float]:
    t = np.sort(check_weights("theta", theta))
    e = np.sort(check_weights("eta", eta))
    if t.size != 2 or e.size != 2:
        raise DomainError("theta and eta must be 2-vectors")
    t1, t2 = float(t[0]), float(t[1])
    e1, e2 = float(e[0]), float(e[1])
    if not (t1 < e1 <= e2 < t2):
        raise DomainError(
            f"required configuration theta1 < eta1 <= eta2 < theta2, got {t1, e1, e2, t2}")
    return t1, t2, e1, e2


def u_star(theta, eta) -> float:
    """Closed-form location where the shared-total mixing CDFs H_theta and
    H_eta cross: (theta2 eta1 - eta2 theta1) / (theta2 - theta1 - eta2 + eta1)."""
    t1, t2, e1, e2 = _prop_config(theta, eta)
    return (t2 * e1 - e2 * t1) / (t2 - t1 - e2 + e1)


def h_diff(theta, eta, alpha: float, u: float) -> float:
    """H_theta(u) - H_eta(u) where H_v(u) = Pr(v1 W + v2 (1 - W) <= u) and
    W ~ beta(alpha, alpha): equals B((eta2-u)/(eta2-eta1)) -
    B((theta2-u)/(theta2-theta1)) with B the beta(alpha, alpha) CDF, whose
    argument is clipped to [0, 1]."""
    t1, t2, e1, e2 = _prop_config(theta, eta)
    a = check_alpha(alpha)
    u = float(u)
    if not math.isfinite(u):
        raise DomainError(f"u must be finite, got {u!r}")
    if e2 > e1:
        term_eta = betainc(a, a, np.clip((e2 - u) / (e2 - e1), 0.0, 1.0))
    else:
        term_eta = 1.0 if u < e1 else 0.0
    term_theta = betainc(a, a, np.clip((t2 - u) / (t2 - t1), 0.0, 1.0))
    return float(term_eta - term_theta)


# -- two-coordinate perturbation identity ------------------------------------


def lemma2_residual(theta_star, delta: float, alpha: float, x: float,
                    g_tail: GammaConvolution | None = None, h: float = 1e-4) -> float:
    """Relative residual of the perturbation identity

        d/d delta F(x; delta) = alpha (theta2 - theta1) f_supp'(x)

    where F(.; delta) is the CDF of (theta1* - delta) X1 + (theta2* + delta) X2
    + G, theta_i are the perturbed weights, and f_supp is the density of the
    same sum with one extra exponential supplement at each perturbed scale.
    The left side is a central difference with step h.
    """
    ts = np.asarray(theta_star, dtype=float)
    if ts.shape != (2,):
        raise DomainError("theta_star must be a 2-vector")
    t1s, t2s = float(ts[0]), float(ts[1])
    if not (0.0 < t1s <= t2s and math.isfinite(t2s)):
        raise DomainError(f"theta_star must satisfy 0 < theta1 <= theta2, got {ts!r}")
    a = check_alpha(alpha)
    delta = float(delta)
    h = float(h)
    # delta = 0 is legal: the identity degenerates to 0 = 0 when theta1* = theta2*
    if not (h > 0.0 and delta >= 0.0 and t1s - delta - h > 0.0):
        raise DomainError("need h > 0, delta >= 0 and theta1* - delta - h > 0")
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"x must be positive and finite, got {x!r}")
    tail = tuple(g_tail.components) if g_tail is not None else ()

    def conv(d: float, supplemented: bool) -> GammaConvolution:
        extra = 1.0 if supplemented else 0.0
        comps = (GammaComponent(a + extra, t1s - d), GammaComponent(a + extra, t2s + d))
        return GammaConvolution(comps + tail)

    lhs = (conv(delta + h, False).cdf(x) - conv(delta - h, False).cdf(x)) / (2.0 * h)
    supp = conv(delta, True)
    rhs = a * ((t2s + delta) - (t1s - delta)) * supp.density(x, 1)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
