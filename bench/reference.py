"""Independent reference for sums of scaled gamma variables.

The distribution of sum_j scale_j * Gamma(shape_j, 1) is computed here from
scipy alone, sharing no code with gammacross:

- Moschopoulos (1985) weights are the pmf of a sum of independent negative
  binomials NB(shape_j, beta1 / beta_j), beta1 the smallest scale, so they
  are the convolution of `scipy.stats.nbinom.pmf`.
- F(x) = sum_k w_k * gammainc(rho + k, x / beta1), rho = sum of shapes.
- f(x) = sum_k w_k * gamma.pdf(x; rho + k, scale=beta1), and its first and
  second x-derivatives termwise.

Every workload's correctness check reads its numbers from here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc
from scipy.stats import gamma, nbinom

# Omitted weight mass; bounds the truncation error of every CDF value.
TAIL = 1e-15
_MAX_TERMS = 200_000
# Cap on the K x m matrices built per evaluation chunk (8 bytes each).
_CHUNK_ELEMENTS = 1 << 21


class Reference:
    """F and f for sum_j scales[j] * Gamma(shapes[j], 1)."""

    def __init__(self, shapes, scales):
        shapes = np.asarray(shapes, dtype=float)
        scales = np.asarray(scales, dtype=float)
        if shapes.shape != scales.shape or shapes.ndim != 1 or shapes.size == 0:
            raise ValueError("shapes and scales must be matching nonempty vectors")
        if np.any(shapes <= 0.0) or np.any(scales <= 0.0):
            raise ValueError("shapes and scales must be positive")
        self.beta1 = float(scales.min())
        self.rho = math.fsum(shapes)
        self.weights = _weights(shapes, self.beta1 / scales)

    def cdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.shape)
        for sl, k in self._chunks(x.size):
            out[sl] = self.weights @ gammainc(self.rho + k[:, None], x[sl][None, :] / self.beta1)
        return out

    def density(self, x, order: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(f^(order)(x), sum_k w_k |term_k|): the value, and the magnitude
        of its terms, which scales the rounding error of any series sum."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        value = np.empty(x.shape)
        magnitude = np.empty(x.shape)
        for sl, k in self._chunks(x.size):
            a = self.rho + k[:, None]
            xs = x[sl][None, :]
            terms = gamma.pdf(xs, a, scale=self.beta1)
            if order:
                u = (a - 1.0) / xs - 1.0 / self.beta1
                terms = terms * (u if order == 1 else u * u - (a - 1.0) / (xs * xs))
            value[sl] = self.weights @ terms
            magnitude[sl] = self.weights @ np.abs(terms)
        return value, magnitude

    def _chunks(self, m: int):
        k = np.arange(self.weights.size, dtype=float)
        step = max(1, _CHUNK_ELEMENTS // self.weights.size)
        for start in range(0, m, step):
            yield slice(start, min(m, start + step)), k


def _weights(shapes: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The first K Moschopoulos weights, with P(sum_j N_j >= K) <= TAIL.

    K_j is the least k with P(N_j >= k) <= TAIL / J; if every N_j < K_j the
    sum is below K = sum_j (K_j - 1) + 1, so the omitted mass is at most
    TAIL.  The survival functions are accurate far below rounding level,
    unlike 1 - sum(w).  Truncating each factor's pmf at K leaves the first K
    terms of the convolution exact.
    """
    factors = [(s, q) for s, q in zip(shapes, p) if q < 1.0]  # q == 1: a point mass at 0
    k_terms = 1
    for s, q in factors:
        k_j = int(nbinom.isf(TAIL / len(factors), s, q)) + 1
        while nbinom.sf(k_j - 1, s, q) > TAIL / len(factors):
            k_j += 1
        k_terms += k_j - 1
    if k_terms > _MAX_TERMS:
        raise ValueError(f"reference series needs {k_terms} terms, more than {_MAX_TERMS}")
    k = np.arange(k_terms)
    w = np.zeros(k_terms)
    w[0] = 1.0
    for s, q in factors:
        w = np.convolve(w, nbinom.pmf(k, s, q))[:k_terms]
    return w


def difference(alpha: float, theta, eta, x) -> np.ndarray:
    """D(x) = F_eta(x) - F_theta(x) at common shape alpha."""
    def ref(w):
        w = np.asarray(w, dtype=float)
        w = w[w > 0.0]
        return Reference(np.full(w.size, float(alpha)), w)

    return ref(eta).cdf(x) - ref(theta).cdf(x)
