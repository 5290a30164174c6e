"""Vector orderings and stochastic-order checks.

Majorization and its variants are exact combinatorial predicates with a
relative tie tolerance of 1e-12.  The V-majorization witness search
enumerates block boundaries and water-fills the sum constraint; every
candidate is re-verified against the definition before it is returned, so a
returned witness is always valid.  The stochastic checks (`st_dominates`,
`star_order_check`) compare CDFs through the series engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Sequence

import numpy as np

from ._domain import check_pair, check_weights, tie_tol
from .errors import DomainError, UndecidedError
from .gconv import GammaConvolution, tail_window

__all__ = [
    "majorizes",
    "log_majorizes",
    "VMajWitness",
    "v_majorizes",
    "v_majorizes_brute",
    "st_dominates",
    "star_order_check",
]

def majorizes(theta, eta) -> bool:
    """True iff theta majorizes eta: equal totals and every descending
    partial sum of theta at least that of eta (ties tolerated at 1e-12)."""
    t, e = check_pair(theta, eta)
    st = math.fsum(t)
    se = math.fsum(e)
    if abs(st - se) > tie_tol(st, se):
        return False
    return _partial_sums_dominate(np.sort(t)[::-1], np.sort(e)[::-1])


def log_majorizes(theta, eta) -> bool:
    """True iff log(theta) majorizes log(eta).  Entries must be positive."""
    t, e = check_pair(theta, eta)
    if np.any(t <= 0.0) or np.any(e <= 0.0):
        raise DomainError("log_majorizes requires strictly positive entries")
    lt = np.sort(np.log(t))[::-1]
    le = np.sort(np.log(e))[::-1]
    if not _partial_sums_dominate(lt, le):
        return False
    st = math.fsum(lt)
    se = math.fsum(le)
    return abs(st - se) <= tie_tol(st, se)


def _partial_sums_dominate(a: np.ndarray, b: np.ndarray) -> bool:
    """Every leading partial sum of the descending vector a, but the full
    one, is at least that of b up to the tie tolerance; summed in order."""
    pa = pb = 0.0
    for i in range(a.size - 1):
        pa += a[i]
        pb += b[i]
        if pa < pb - tie_tol(pa, pb):
            return False
    return True


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
    target = math.fsum(e)
    for k1, k2, lo, hi in _vmaj_boxes(t, e):
        cand = _water_fill(lo, hi, target)
        if cand is None:
            continue
        cand = np.sort(cand)
        if _witness_valid(t, e, cand, k1, k2):
            return VMajWitness(tuple(float(v) for v in cand), k1, k2)
    return None


def _vmaj_boxes(t: np.ndarray, e: np.ndarray):
    """(k1, k2, lo, hi): per-position bounds for each feasible (k1, k2), in search order."""
    n = t.size
    for k1 in range(0, n + 1):
        for k2 in range(n + 1, 0, -1):
            lo = np.empty(n)
            hi = np.empty(n)
            for i in range(n):
                pos = i + 1
                tol = tie_tol(t[i], e[i])
                in_low = pos <= k1
                in_high = pos >= k2
                if in_low and in_high:
                    if abs(t[i] - e[i]) > tol:
                        break
                    lo[i] = hi[i] = t[i]
                elif in_low:
                    if t[i] > e[i] + tol:
                        break
                    lo[i], hi[i] = t[i], max(t[i], e[i])
                elif in_high:
                    if e[i] > t[i] + tol:
                        break
                    lo[i], hi[i] = min(t[i], e[i]), t[i]
                else:
                    lo[i] = hi[i] = t[i]
            else:
                yield k1, k2, lo, hi


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
    target = math.fsum(e)
    for k1, k2, lo, hi in _vmaj_boxes(t, e):
        axes = []
        for i in range(t.size):
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


def st_dominates(lower: GammaConvolution, upper: GammaConvolution,
                 tol: float = 1e-8) -> bool:
    """True iff F_lower(x) - F_upper(x) >= -tol (i.e. `lower` is
    stochastically smaller) on 512 log-spaced points over the closed-form
    `tail_window(lower, upper, 1e-9)`, outside which both CDFs differ by at
    most 1e-9.  The difference comes from `lower.cdf(grid, minus=upper)`."""
    grid = np.geomspace(*tail_window(lower, upper, 1e-9), 512)
    return bool(np.all(lower.cdf(grid, minus=upper) >= -tol))


def star_order_check(theta, eta, alpha: float, c_values: Sequence[float]) -> bool:
    """Scale-family crossing test: for every c, F_eta - F_(theta/c) must
    change sign at most once and only from - to +, by a 512-point
    `sign_profile` scan at its default tolerance.  UndecidedError if any
    scaled comparison cannot be certified."""
    from .crossing import Classification, sign_profile  # cycle: orders <-> crossing

    t = check_weights("theta", theta)
    cs = check_weights("c_values", c_values)
    if np.any(cs == 0.0):
        raise DomainError("c values must be positive")
    for c in cs:
        rep = sign_profile(t / c, eta, alpha, grid_size=512)
        if rep.classification is Classification.UNDECIDED:
            raise UndecidedError(f"star order scan undecided at c={c}")
        if rep.classification not in (Classification.NO_CROSSING,
                                      Classification.SINGLE_CROSSING_BELOW):
            return False
    return True
