"""Vector orderings and stochastic-order checks.

Majorization and its variants are exact combinatorial predicates with a
relative tie tolerance of 1e-12.  The V-majorization witness search
enumerates block boundaries and water-fills the sum constraint; every
candidate is re-verified against the definition before it is returned, so a
returned witness is always valid.  The stochastic checks (`st_dominates`,
`star_order_check`, `slr_check`) are grid certifications built on the series
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Sequence

import numpy as np

from ._domain import check_pair, check_weights, check_window, tie_tol
from .densities import SmoothDensity
from .errors import DomainError, UndecidedError
from .gconv import GammaConvolution

__all__ = [
    "majorizes",
    "log_majorizes",
    "VMajWitness",
    "v_majorizes",
    "v_majorizes_brute",
    "st_grid",
    "st_dominates",
    "star_order_check",
    "slr_check",
]

def majorizes(theta, eta) -> bool:
    """True iff theta majorizes eta: equal totals and every descending
    partial sum of theta at least that of eta (ties tolerated at 1e-12)."""
    t, e = check_pair(theta, eta)
    st = math.fsum(t)
    se = math.fsum(e)
    if abs(st - se) > tie_tol(st, se):
        return False
    td = np.sort(t)[::-1]
    ed = np.sort(e)[::-1]
    pt = pe = 0.0
    for i in range(t.size - 1):
        pt += td[i]
        pe += ed[i]
        if pt < pe - tie_tol(pt, pe):
            return False
    return True


def log_majorizes(theta, eta) -> bool:
    """True iff log(theta) majorizes log(eta).  Entries must be positive."""
    t, e = check_pair(theta, eta)
    if np.any(t <= 0.0) or np.any(e <= 0.0):
        raise DomainError("log_majorizes requires strictly positive entries")
    lt = np.sort(np.log(t))[::-1]
    le = np.sort(np.log(e))[::-1]
    pt = pe = 0.0
    for i in range(t.size - 1):
        pt += lt[i]
        pe += le[i]
        if pt < pe - tie_tol(pt, pe):
            return False
    st = math.fsum(lt)
    se = math.fsum(le)
    return abs(st - se) <= tie_tol(st, se)


@dataclass(frozen=True)
class VMajWitness:
    """Intermediate vector certifying V-majorization.

    `vector` is ascending; positions 1..k1 satisfy theta <= vector <= eta,
    positions strictly between k1 and k2 satisfy vector == theta, positions
    k2..n satisfy theta >= vector >= eta, and vector majorizes eta.
    """

    vector: tuple[float, ...]
    k1: int
    k2: int


def _witness_valid(t: np.ndarray, e: np.ndarray, v: np.ndarray, k1: int, k2: int) -> bool:
    # All vectors ascending; positions are 1-based in the definition.
    n = t.size
    if np.any(np.diff(v) < -tie_tol(float(np.max(np.abs(v))))):
        return False
    for i in range(n):
        pos = i + 1
        tol = tie_tol(t[i], e[i], v[i])
        if pos <= k1:
            if not (t[i] <= v[i] + tol and v[i] <= e[i] + tol):
                return False
        if k1 < pos < k2:
            if abs(v[i] - t[i]) > tol:
                return False
        if pos >= k2:
            if not (t[i] >= v[i] - tol and v[i] >= e[i] - tol):
                return False
    return majorizes(v, e)


def v_majorizes(theta, eta) -> VMajWitness | None:
    """Search for a V-majorization witness; None when no candidate verifies.

    Enumerates (k1, k2) block boundaries, builds the per-position interval
    constraints, water-fills the sum from the largest position down, and
    verifies the assembled candidate against the definition.  (0, n+1) is
    tried first, so plainly majorizing pairs return theta itself.
    """
    t, e = map(np.sort, check_pair(theta, eta))
    n = t.size
    target = math.fsum(e)
    for k1 in range(0, n + 1):
        for k2 in range(n + 1, 0, -1):
            boxes = _vmaj_boxes(t, e, k1, k2)
            if boxes is None:
                continue
            lo, hi = boxes
            cand = _water_fill(lo, hi, target)
            if cand is None:
                continue
            cand = np.sort(cand)
            if _witness_valid(t, e, cand, k1, k2):
                return VMajWitness(tuple(float(v) for v in cand), k1, k2)
    return None


def _vmaj_boxes(t: np.ndarray, e: np.ndarray, k1: int, k2: int):
    n = t.size
    lo = np.empty(n)
    hi = np.empty(n)
    for i in range(n):
        pos = i + 1
        tol = tie_tol(t[i], e[i])
        in_low = pos <= k1
        in_high = pos >= k2
        if in_low and in_high:
            if abs(t[i] - e[i]) > tol:
                return None
            lo[i] = hi[i] = t[i]
        elif in_low:
            if t[i] > e[i] + tol:
                return None
            lo[i], hi[i] = t[i], max(t[i], e[i])
        elif in_high:
            if e[i] > t[i] + tol:
                return None
            lo[i], hi[i] = min(t[i], e[i]), t[i]
        else:
            lo[i] = hi[i] = t[i]
    return lo, hi


def _water_fill(lo: np.ndarray, hi: np.ndarray, target: float):
    slo = math.fsum(lo)
    shi = math.fsum(hi)
    tol = tie_tol(slo, shi, target)
    if target < slo - tol or target > shi + tol:
        return None
    out = lo.copy()
    rem = target - slo
    for i in range(lo.size - 1, -1, -1):
        add = min(rem, hi[i] - lo[i])
        if add > 0.0:
            out[i] += add
            rem -= add
    return out


def v_majorizes_brute(theta, eta, step: float) -> bool:
    """Grid brute force for the V-majorization witness, n <= 4 instances.

    Enumerates candidate vectors on a lattice of spacing `step` inside the
    per-position boxes for every (k1, k2); True iff any candidate verifies.
    Reference implementation for cross-checking `v_majorizes`.
    """
    t, e = map(np.sort, check_pair(theta, eta))
    if t.size > 4:
        raise DomainError("brute force is limited to n <= 4")
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"step must be positive, got {step!r}")
    n = t.size
    target = math.fsum(e)
    for k1 in range(0, n + 1):
        for k2 in range(n + 1, 0, -1):
            boxes = _vmaj_boxes(t, e, k1, k2)
            if boxes is None:
                continue
            lo, hi = boxes
            axes = []
            for i in range(n):
                m = int(round((hi[i] - lo[i]) / step))
                vals = lo[i] + step * np.arange(0, m + 1)
                vals = vals[vals <= hi[i] + 1e-9 * step]
                if len(vals) == 0 or vals[-1] < hi[i] - 1e-9 * step:
                    vals = np.append(vals, hi[i])
                axes.append(vals)
            for combo in _iter_product(*axes):
                cand = np.sort(np.asarray(combo))
                if abs(math.fsum(cand) - target) > tie_tol(target) + 1e-9 * step:
                    continue
                if _witness_valid(t, e, cand, k1, k2):
                    return True
    return False


def st_grid(a: GammaConvolution, b: GammaConvolution) -> np.ndarray:
    """Default grid of `st_dominates`: 512 log-spaced points spanning the
    (1e-9, 1 - 1e-9) quantile range of both distributions.  Symmetric in
    its arguments, so one grid serves both directions of a comparison."""
    lo = min(a.quantile(1e-9), b.quantile(1e-9))
    hi = max(a.quantile(1.0 - 1e-9), b.quantile(1.0 - 1e-9))
    return np.geomspace(lo, hi, 512)


def st_dominates(lower: GammaConvolution, upper: GammaConvolution,
                 grid=None, tol: float = 1e-8) -> bool:
    """True iff F_lower(x) >= F_upper(x) - tol on the grid (i.e. `lower` is
    stochastically smaller); the default grid is `st_grid(lower, upper)`."""
    grid = np.asarray(st_grid(lower, upper) if grid is None else grid, dtype=float)
    return bool(np.all(lower.cdf(grid) >= upper.cdf(grid) - tol))


def star_order_check(theta, eta, alpha: float, c_values: Sequence[float],
                     grid_size: int = 512, tol: float = 1e-8) -> bool:
    """Scale-family crossing test: for every c, F_eta - F_(theta/c) must
    change sign at most once and only from - to +.  UndecidedError if any
    scaled comparison cannot be certified."""
    from .crossing import Classification, sign_profile  # cycle: orders <-> crossing

    t = check_weights("theta", theta)
    for c in c_values:
        c = float(c)
        if not (c > 0.0 and math.isfinite(c)):
            raise DomainError(f"c values must be positive, got {c!r}")
        rep = sign_profile(t / c, eta, alpha, grid_size=grid_size, tol=tol)
        if rep.classification is Classification.UNDECIDED:
            raise UndecidedError(f"star order scan undecided at c={c}")
        if rep.classification not in (Classification.NO_CROSSING,
                                      Classification.SINGLE_CROSSING_BELOW):
            return False
    return True


def slr_check(f: SmoothDensity, g: SmoothDensity, window: tuple[float, float],
              grid_size: int = 512, tol: float = 1e-9) -> bool:
    """Supplemented likelihood-ratio dominance of f by g on a window:
    (a) f' g <= f g' everywhere, and (b) f'/g' nonincreasing along each of
    the restricted sets {f' > tol} and {g' < -tol}."""
    lo, hi = check_window(window)
    if grid_size < 16:
        raise DomainError("grid_size must be at least 16")
    xs = np.geomspace(lo, hi, grid_size)
    fv = np.asarray(f.value(xs), dtype=float)
    fp = np.asarray(f.d1(xs), dtype=float)
    gv = np.asarray(g.value(xs), dtype=float)
    gp = np.asarray(g.d1(xs), dtype=float)
    lhs = fp * gv
    rhs = fv * gp
    slack = tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    if not np.all(lhs <= rhs + slack):
        return False
    for mask in (fp > tol, gp < -tol):
        if np.count_nonzero(mask) < 2:
            continue
        num = fp[mask]
        den = gp[mask]
        if np.any(np.abs(den) < 1e-300):
            return False
        ratio = num / den
        step_slack = tol * np.maximum(1.0, np.abs(ratio[:-1]))
        if not np.all(ratio[1:] <= ratio[:-1] + step_slack):
            return False
    return True
