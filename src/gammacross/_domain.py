"""Input checks shared by the public entry points, and the one tie tolerance.

Every check here raises DomainError on bad input and otherwise returns the
validated input, if any, as the type the callers compute with.  A weight
vector is 1-d, nonempty, finite and nonnegative with at least one positive
entry; a window is an interval with 0 < lo < hi < inf; a crossing scan has
at least 64 grid points and a tolerance in (0, 1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["check_alpha", "check_weights", "check_pair", "check_window", "check_scan",
           "tie_tol"]

_TIE_RTOL = 1e-12


def check_alpha(alpha) -> float:
    a = float(alpha)
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    return a


def check_weights(name: str, w) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError(f"{name} must be nonnegative and finite")
    if not np.any(arr > 0.0):
        raise DomainError(f"{name} must have a positive entry")
    return arr


def check_pair(theta, eta) -> tuple[np.ndarray, np.ndarray]:
    t = check_weights("theta", theta)
    e = check_weights("eta", eta)
    if t.size != e.size:
        raise DomainError("theta and eta must have equal length")
    return t, e


def check_window(window) -> tuple[float, float]:
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise DomainError(f"window must satisfy 0 < lo < hi, got {window!r}")
    return lo, hi


def check_scan(grid_size: int, tol: float) -> None:
    if grid_size < 64:
        raise DomainError("grid_size must be at least 64")
    if not (0.0 < tol < 1.0):
        raise DomainError(f"tol must be in (0, 1), got {tol!r}")


def tie_tol(*vals: float) -> float:
    """Two values a, b tie when |a - b| <= tie_tol(a, b): 1e-12 relative to
    the largest magnitude, and absolute below magnitude 1."""
    return _TIE_RTOL * max(1.0, *(abs(v) for v in vals))
