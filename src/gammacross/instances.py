"""Seeded random instance generators shared by sweeps and the acceptance suite.

Every generator takes a numpy Generator so callers control determinism;
sweeps hand each trial a child of SeedSequence(seed), making results
independent of execution order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .gconv import make_convolution

__all__ = [
    "random_majorized_pair",
    "random_log_majorized_pair",
    "random_v_majorized_pair",
    "random_mixing_config",
    "random_perturbation_config",
]


def random_majorized_pair(rng: np.random.Generator, n: int):
    """(theta, eta) with eta strictly majorized by theta: a uniform
    contraction toward the mean (strictly inside, so the maximum strictly
    drops and the product strictly rises)."""
    if n < 2:
        raise DomainError("need n >= 2")
    theta = rng.uniform(0.2, 4.0, n)
    while theta.max() - theta.min() < 0.05 * (4.0 - 0.2):
        theta = rng.uniform(0.2, 4.0, n)
    t = rng.uniform(0.15, 0.85)
    eta = (1.0 - t) * theta + t * theta.mean()
    return theta, eta


def random_log_majorized_pair(rng: np.random.Generator, n: int):
    """(theta, eta) with log(eta) strictly majorized by log(theta): equal
    products, eta's log-spread contracted."""
    if n < 2:
        raise DomainError("need n >= 2")
    log_t = np.log(rng.uniform(0.3, 3.0, n))
    while log_t.max() - log_t.min() < 0.1:
        log_t = np.log(rng.uniform(0.3, 3.0, n))
    t = rng.uniform(0.15, 0.85)
    log_e = (1.0 - t) * log_t + t * log_t.mean()
    return np.exp(log_t), np.exp(log_e)


def random_v_majorized_pair(rng: np.random.Generator, n: int):
    """(theta, eta) where theta V-majorizes eta with prod(eta/theta) <= 1.

    Built from a majorized pair (eta majorized by tilde) by pushing tilde's
    largest entry up until the product inequality holds strictly, then
    nudging the smallest entry down while it keeps holding.
    """
    tilde, eta = random_majorized_pair(rng, n)
    tilde = np.sort(tilde)
    eta = np.sort(eta)
    theta = tilde.copy()
    gap = float(np.sum(np.log(eta)) - np.sum(np.log(theta)))  # >= 0 by majorization
    theta[-1] *= math.exp(gap + rng.uniform(0.05, 0.3))
    trial = theta.copy()
    trial[0] -= rng.uniform(0.0, 0.5) * theta[0]
    if trial[0] > 0.0 and float(np.sum(np.log(trial))) >= float(np.sum(np.log(eta))) + 1e-9:
        theta = trial
    return np.sort(theta), eta


def random_mixing_config(rng: np.random.Generator):
    """(theta, eta) 2-vectors with theta1 < eta1 <= eta2 < theta2."""
    vals = np.sort(rng.uniform(0.3, 4.0, 4))
    while vals[0] >= vals[1] or vals[2] >= vals[3] or vals[1] > vals[2]:
        vals = np.sort(rng.uniform(0.3, 4.0, 4))
    theta = np.array([vals[0], vals[3]])
    eta = np.array([vals[1], vals[2]])
    return theta, eta


def random_perturbation_config(rng: np.random.Generator):
    """(theta_star, delta, alpha, g_tail) for the perturbation identity, alpha
    drawn from 0.5, 1, 1.5 and 2.5."""
    t1 = rng.uniform(0.5, 2.0)
    t2 = t1 + rng.uniform(0.3, 2.0)
    delta = rng.uniform(0.05, 0.4) * t1
    alpha = float(rng.choice(np.array([0.5, 1.0, 1.5, 2.5])))
    n_tail = int(rng.integers(0, 3))
    g_tail = None
    if n_tail:
        scales = rng.uniform(0.5, 3.0, n_tail)
        g_tail = make_convolution(alpha, scales)
    return np.array([t1, t2]), float(delta), alpha, g_tail

