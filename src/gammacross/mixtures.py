"""Mode structure of densities and the bimodal gamma-mixture device.

For shape alpha in (0, 1) the two-term mixture lam * g_{1+alpha} + g_alpha
can be made bimodal: picking any x0 strictly between the modes of g_alpha
and g_{1+alpha} and setting

    lam = -g_alpha'(x0) / g_{1+alpha}'(x0) = alpha (x0 + 1 - alpha) / (x0 (alpha - x0))

plants a stationary point at x0 (the ratio is rational because
g_{1+alpha}(x) = (x / alpha) g_alpha(x)).  The mixture's derivative is
-g_alpha(x) / (alpha x) times lam x^2 - alpha (lam - 1) x + alpha (1 - alpha),
so its stationary points are the roots of that quadratic: x0 and
alpha (1 - alpha) / (lam x0).  x0 is the smaller root, so a local minimum,
exactly when x0^2 + 2(1-alpha) x0 - alpha(1-alpha) < 0, i.e. for x0 below
sqrt(1-alpha) - (1-alpha).  For alpha >= 1 no lam produces an interior
minimum.  The numeric mode scanner and the log-concavity /
mixture-condition checks here certify those statements on windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import densities
from ._domain import check_alpha, check_window
from .densities import SmoothDensity
from .errors import DomainError, UndecidedError

__all__ = [
    "lemma3_lambda",
    "bimodality_window",
    "bimodal_mixture",
    "StationaryPoint",
    "ModeStructure",
    "mode_structure",
    "logconcavity_check",
    "mixcond_check",
    "mixture_family_unimodal",
    "exp_pair_logconcavity_sides",
]

_CURV_TOL = 1e-9
_STAT_RTOL = 1e-13  # relative accuracy of stationary points
_TINY = np.finfo(float).tiny


def lemma3_lambda(alpha: float, x0: float) -> float:
    """Mixture weight planting a stationary point at x0:
    lam = -g_alpha'(x0) / g_{1+alpha}'(x0) = alpha (x0 + 1 - alpha) / (x0 (alpha - x0)),
    positive for x0 strictly between the modes max(0, alpha - 1) and alpha."""
    a = check_alpha(alpha)
    x0 = float(x0)
    if not (max(0.0, a - 1.0) < x0 < a):
        raise DomainError(
            f"x0 must lie strictly between the modes ({max(0.0, a - 1.0)}, {a}), got {x0!r}")
    return a * (x0 + 1.0 - a) / (x0 * (a - x0))


def bimodality_window(alpha: float) -> tuple[float, float]:
    """Open interval of x0 values whose planted stationary point is a local
    minimum: (0, sqrt(1 - alpha) - (1 - alpha)).  Only alpha in (0, 1)."""
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise DomainError(f"bimodality requires 0 < alpha < 1, got {alpha!r}")
    return 0.0, math.sqrt(1.0 - a) - (1.0 - a)


def bimodal_mixture(alpha: float, x0: float) -> tuple[float, SmoothDensity]:
    """(lam, normalized mixture density (lam g_{1+alpha} + g_alpha)/(1+lam)).

    Stationary at x0 by construction; bimodal when x0 is inside
    bimodality_window(alpha)."""
    lam = lemma3_lambda(alpha, x0)
    g_lo = densities.gamma_unit(alpha)
    g_hi = densities.gamma_unit(1.0 + alpha)
    s = densities.mix([(lam / (1.0 + lam), g_hi), (1.0 / (1.0 + lam), g_lo)])
    return lam, s


@dataclass(frozen=True)
class StationaryPoint:
    location: float
    kind: str  # 'max' | 'min' | 'undecided'
    curvature: float


@dataclass(frozen=True)
class ModeStructure:
    """Interior stationary points plus window-edge behavior.

    An edge where the density moves away from the window counts as a maximum
    (left edge with f' < 0, right edge with f' > 0); densities diverging at
    the origin report a left-edge maximum this way.
    """

    points: tuple[StationaryPoint, ...]
    left_edge_max: bool
    right_edge_max: bool
    window: tuple[float, float]

    @property
    def n_maxima(self) -> int:
        return (sum(1 for p in self.points if p.kind == "max")
                + int(self.left_edge_max) + int(self.right_edge_max))

    @property
    def n_minima(self) -> int:
        return sum(1 for p in self.points if p.kind == "min")

    @property
    def has_undecided(self) -> bool:
        return any(p.kind == "undecided" for p in self.points)

    @property
    def unimodal(self) -> bool:
        return self.n_maxima == 1 and self.n_minima == 0 and not self.has_undecided


def mode_structure(f: SmoothDensity, window: tuple[float, float],
                   grid_size: int = 512) -> ModeStructure:
    """Locate interior stationary points of f on the window by sign changes
    of f' on a log grid, solve f' = 0 on each bracket by Brent's method to
    relative accuracy 1e-13, and classify by f'' against 1e-9."""
    lo, hi = check_window(window)
    if grid_size < 32:
        raise DomainError("grid_size must be at least 32")
    xs = np.geomspace(lo, hi, grid_size)
    d1 = np.asarray(f.d1(xs), dtype=float)
    if not np.all(np.isfinite(d1)):
        raise DomainError("f' is not finite on the window")
    points: list[StationaryPoint] = []
    for i in np.nonzero(np.sign(d1[1:]) * np.sign(d1[:-1]) < 0)[0]:
        x_star = brentq(lambda x: float(f.d1(x)), xs[i], xs[i + 1],
                        xtol=_TINY, rtol=_STAT_RTOL)
        curv = float(f.d2(x_star))
        if curv < -_CURV_TOL:
            kind = "max"
        elif curv > _CURV_TOL:
            kind = "min"
        else:
            kind = "undecided"
        points.append(StationaryPoint(x_star, kind, curv))
    return ModeStructure(points=tuple(points),
                         left_edge_max=bool(d1[0] < 0.0),
                         right_edge_max=bool(d1[-1] > 0.0),
                         window=(lo, hi))


def logconcavity_check(f: SmoothDensity, window: tuple[float, float],
                       grid_size: int = 512, tol: float = 1e-9) -> bool:
    """Certify strict log-concavity on the window: (f'^2 - f'' f) / f^2 >= tol
    at every grid point, i.e. a positive lower bound on (-log f)''."""
    lo, hi = check_window(window)
    xs = np.geomspace(lo, hi, grid_size)
    v = np.asarray(f.value(xs), dtype=float)
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise DomainError("density must be positive and finite on the window")
    d1 = np.asarray(f.d1(xs), dtype=float)
    d2 = np.asarray(f.d2(xs), dtype=float)
    return bool(np.all((d1 * d1 - d2 * v) / (v * v) >= tol))


def mixcond_check(f1: SmoothDensity, f2: SmoothDensity, window: tuple[float, float],
                  grid_size: int = 2048, tol: float = 1e-9) -> bool:
    """Mixture condition between the modes: wherever f1' < -tol and f2' > tol,
    require f1'' f2' <= f1' f2'' (+ relative slack).  At such x the unique
    p with p f1' + (1-p) f2' = 0 then has p f1'' + (1-p) f2'' < 0, so no
    mixture of f1, f2 can have a local minimum there."""
    lo, hi = check_window(window)
    xs = np.geomspace(lo, hi, grid_size)
    f1p = np.asarray(f1.d1(xs), dtype=float)
    f2p = np.asarray(f2.d1(xs), dtype=float)
    mask = (f1p < -tol) & (f2p > tol)
    if not np.any(mask):
        return True
    f1dd = np.asarray(f1.d2(xs), dtype=float)[mask]
    f2dd = np.asarray(f2.d2(xs), dtype=float)[mask]
    lhs = f1dd * f2p[mask]
    rhs = f1p[mask] * f2dd
    slack = tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return bool(np.all(lhs <= rhs + slack))


def mixture_family_unimodal(f1: SmoothDensity, f2: SmoothDensity,
                            window: tuple[float, float], p_grid=None,
                            grid_size: int = 512) -> bool:
    """Certify that p f1 + (1-p) f2 is unimodal for every p on the grid
    (default 129 evenly spaced weights including both endpoints).  Raises
    UndecidedError if any mode classification is below curvature tolerance."""
    ps = np.linspace(0.0, 1.0, 129) if p_grid is None else np.asarray(p_grid, dtype=float)
    if ps.ndim != 1 or ps.size == 0 or np.any(ps < 0.0) or np.any(ps > 1.0):
        raise DomainError("p_grid must contain weights in [0, 1]")
    for p in ps:
        m = densities.mix([(float(p), f1), (1.0 - float(p), f2)])
        ms = mode_structure(m, window, grid_size=grid_size)
        if ms.has_undecided:
            raise UndecidedError(f"mode classification undecided at p={p}")
        if not ms.unimodal:
            return False
    return True


def exp_pair_logconcavity_sides(eps: float, lam: float, x):
    """Both sides of the exponential-pair log-concavity identity

        e^(-eps x) (q'^2 - q'' q) = e^(eps x) + e^(-eps x) - 2 - (eps x)^2
                                    + (lam eps + 2)^2

    for q(x) = x (e^(eps x) + 1) + lam (e^(eps x) - 1).  The right side is
    bounded below by (lam eps + 2)^2 since 2 cosh(t) - 2 >= t^2, which gives
    strict positivity whenever lam eps > -2.  x may be a scalar or array."""
    eps = float(eps)
    lam = float(lam)
    if not (eps > 0.0 and math.isfinite(eps)):
        raise DomainError(f"eps must be positive and finite, got {eps!r}")
    if not math.isfinite(lam):
        raise DomainError(f"lam must be finite, got {lam!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("x must be finite")
    # direct evaluation overflows near eps*x ~ 350; callers pick the window
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.exp(eps * x)
        Em = np.exp(-eps * x)
        q = x * (E + 1.0) + lam * (E - 1.0)
        qp = (E + 1.0) + eps * E * (x + lam)
        qpp = eps * E * (2.0 + eps * (x + lam))
        lhs = Em * (qp * qp - qpp * q)
        rhs = E + Em - 2.0 - (eps * x) ** 2 + (lam * eps + 2.0) ** 2
    if lhs.ndim == 0:
        return float(lhs), float(rhs)
    return lhs, rhs
