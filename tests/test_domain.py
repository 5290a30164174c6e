"""Every public entry point that takes a shape or weights rejects bad ones
with DomainError."""

import math

import numpy as np
import pytest

import gammacross as gx
from gammacross import gconv
from gammacross.errors import DomainError

GOOD = [1.0, 2.0]

ALPHA_ENTRY_POINTS = {
    "sign_profile": lambda a: gx.sign_profile(GOOD, [1.5, 1.5], a),
    "h_diff": lambda a: gx.h_diff([1.0, 4.0], [2.0, 3.0], a, 2.5),
    "lemma2_residual": lambda a: gx.lemma2_residual(GOOD, 0.1, a, 1.0),
    "make_convolution": lambda a: gx.make_convolution(a, GOOD),
    "lemma3_lambda": lambda a: gx.lemma3_lambda(a, 0.1),
    "bimodality_window": lambda a: gx.bimodality_window(a),
    "bimodal_mixture": lambda a: gx.bimodal_mixture(a, 0.1),
    "gamma_mixture": lambda a: gx.gamma_mixture(a, 1.0),
    "star_order_check": lambda a: gx.star_order_check(GOOD, GOOD, a, [1.0]),
    "build_counterexample": lambda a: gx.build_counterexample(a),
}

# the bad vector goes into every weight argument
WEIGHT_ENTRY_POINTS = {
    "near_zero_sign": lambda w: gx.near_zero_sign(w, w),
    "tail_sign": lambda w: gx.tail_sign(w, w),
    "sign_profile": lambda w: gx.sign_profile(w, w, 1.0),
    "u_star": lambda w: gx.u_star(w, w),
    "h_diff": lambda w: gx.h_diff(w, w, 1.0, 2.5),
    "lemma2_residual": lambda w: gx.lemma2_residual(w, 0.1, 1.0, 1.0),
    "make_convolution": lambda w: gx.make_convolution(1.0, w),
    "majorizes": lambda w: gx.majorizes(w, w),
    "log_majorizes": lambda w: gx.log_majorizes(w, w),
    "v_majorizes": lambda w: gx.v_majorizes(w, w),
    "v_majorizes_brute": lambda w: gx.v_majorizes_brute(w, w, 0.25),
    "star_order_check": lambda w: gx.star_order_check(w, w, 1.0, [1.0]),
}

# every argument that sizes a grid, each with its own minimum
GRID_ENTRY_POINTS = {
    "sign_profile": lambda n: gx.sign_profile(GOOD, [1.5, 1.5], 1.0, grid_size=n),
    "mode_structure": lambda n: gx.mode_structure(gx.make_convolution(2.0, [1.0]).density,
                                                  (0.1, 5.0), grid_size=n),
}


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(ALPHA_ENTRY_POINTS))
def test_bad_alpha(name, alpha):
    with pytest.raises(DomainError):
        ALPHA_ENTRY_POINTS[name](alpha)


@pytest.mark.parametrize("weights", [[], [[1.0, 2.0]], [1.0, -1.0], [1.0, math.nan]],
                         ids=["empty", "2d", "negative", "nan"])
@pytest.mark.parametrize("name", sorted(WEIGHT_ENTRY_POINTS))
def test_bad_weights(name, weights):
    with pytest.raises(DomainError):
        WEIGHT_ENTRY_POINTS[name](weights)


@pytest.mark.parametrize("size", [0, -3, 2.5, 2**20 + 1], ids=["zero", "negative",
                                                              "fractional", "above_cap"])
@pytest.mark.parametrize("name", sorted(GRID_ENTRY_POINTS))
def test_bad_grid_size(name, size, monkeypatch):
    # rejected before any grid or series is built
    def unreachable(*args, **kwargs):
        raise AssertionError("allocated before the grid size was checked")

    monkeypatch.setattr(np, "geomspace", unreachable)
    monkeypatch.setattr(gconv, "_build_series", unreachable)
    with pytest.raises(DomainError):
        GRID_ENTRY_POINTS[name](size)


# every argument that counts trials or scales a grid, at least 1
COUNT_ENTRY_POINTS = {
    "build_counterexample": lambda n, cert: gx.build_counterexample(0.5, search_budget=n),
    "verify_certificate": lambda n, cert: gx.verify_certificate(cert, grid_factor=n),
}


@pytest.fixture(scope="module")
def cert():
    return gx.build_counterexample(0.5)


@pytest.mark.parametrize("count", [0, -3, 1.9, 2.5, 2.0, True],
                         ids=["zero", "negative", "fractional_1_9", "fractional_2_5", "float",
                              "bool"])
@pytest.mark.parametrize("name", sorted(COUNT_ENTRY_POINTS))
def test_bad_count(name, count, cert, monkeypatch):
    # rejected before any scan, not truncated to a whole count
    def unreachable(*args, **kwargs):
        raise AssertionError("scanned before the count was checked")

    monkeypatch.setattr(gconv, "_build_series", unreachable)
    with pytest.raises(DomainError, match="must be"):
        COUNT_ENTRY_POINTS[name](count, cert)


@pytest.mark.parametrize("n", [2.5, True, -1], ids=["fractional", "bool", "negative"])
def test_bad_sample_size(n):
    with pytest.raises(DomainError, match="must be"):
        gx.make_convolution(1.0, GOOD).sample(n, 0)


@pytest.mark.parametrize("order", [True, False, 1.0, 0.0, 2.0, -1, 3, "1", None],
                         ids=["true", "false", "float_1", "float_0", "float_2", "negative",
                              "three", "string", "none"])
def test_bad_density_order(order):
    # True == 1 and 1.0 == 1, so a membership test alone accepts them as order 1
    with pytest.raises(DomainError, match="order must be"):
        gx.make_convolution(1.0, GOOD).density(1.5, order)


def test_density_order_integers():
    gc = gx.make_convolution(1.0, GOOD)
    for order in range(3):
        assert gc.density(1.5, np.int64(order)) == gc.density(1.5, order)


def test_no_certificate_from_an_empty_grid():
    with pytest.raises(DomainError):
        gx.star_order_check([2.0, 3.0], [1.0, 4.0], 1.0, [])


@pytest.mark.parametrize("window", [(1.0,), 5.0, "ab", (1.0, 2.0, 3.0)],
                         ids=["one_entry", "scalar", "string", "three_entries"])
def test_bad_window(window):
    # exactly two numbers: no IndexError or TypeError, no entry dropped
    with pytest.raises(DomainError, match="window must be"):
        gx.mode_structure(gx.make_convolution(2.0, [1.0]).density, window)
