"""Small protocol tying a density to its first two derivatives.

Mode analysis needs (f, f', f'') triples that accept numpy arrays.  The
constructors here build unit-scale gamma densities and finite mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from ._domain import check_alpha, check_weights

__all__ = ["SmoothDensity", "gamma_unit", "mix"]


@dataclass(frozen=True)
class SmoothDensity:
    """Array-capable callables for a density and its first two derivatives."""

    value: Callable
    d1: Callable
    d2: Callable

    def __call__(self, x):
        return self.value(x)


def gamma_unit(alpha: float) -> SmoothDensity:
    """Unit-scale gamma density g_alpha with analytic derivatives, x > 0."""
    alpha = check_alpha(alpha)
    lg = float(gammaln(alpha))

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.exp((alpha - 1.0) * np.log(x) - x - lg)

    def d1(x):
        x = np.asarray(x, dtype=float)
        return value(x) * ((alpha - 1.0) / x - 1.0)

    def d2(x):
        x = np.asarray(x, dtype=float)
        u = (alpha - 1.0) / x - 1.0
        return value(x) * (u * u - (alpha - 1.0) / (x * x))

    return SmoothDensity(value, d1, d2)


def mix(pairs: Sequence[tuple[float, SmoothDensity]]) -> SmoothDensity:
    """Convex (or just positive) combination sum(w_i * f_i)."""
    ws = check_weights("mixture weights", [w for w, _ in pairs]).tolist()
    fs = [f for _, f in pairs]
    return SmoothDensity(
        value=lambda x: sum(w * f.value(x) for w, f in zip(ws, fs)),
        d1=lambda x: sum(w * f.d1(x) for w, f in zip(ws, fs)),
        d2=lambda x: sum(w * f.d2(x) for w, f in zip(ws, fs)),
    )
