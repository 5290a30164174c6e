"""Every public entry point that takes a shape or weights rejects bad ones
with DomainError."""

import math

import pytest

import gammacross as gx
from gammacross.errors import DomainError

GOOD = [1.0, 2.0]

ALPHA_ENTRY_POINTS = {
    "near_zero_sign": lambda a: gx.near_zero_sign(GOOD, GOOD, a),
    "perturbation_root_window": lambda a: gx.perturbation_root_window(GOOD, a),
    "sign_profile": lambda a: gx.sign_profile(GOOD, [1.5, 1.5], a),
    "h_diff": lambda a: gx.h_diff([1.0, 4.0], [2.0, 3.0], a, 2.5),
    "lemma2_residual": lambda a: gx.lemma2_residual(GOOD, 0.1, a, 1.0),
    "make_convolution": lambda a: gx.make_convolution(a, GOOD),
    "gamma_unit": lambda a: gx.gamma_unit(a),
    "lemma3_lambda": lambda a: gx.lemma3_lambda(a, 0.1),
    "bimodality_window": lambda a: gx.bimodality_window(a),
    "bimodal_mixture": lambda a: gx.bimodal_mixture(a, 0.1),
    "star_order_check": lambda a: gx.star_order_check(GOOD, GOOD, a, [1.0]),
    "build_counterexample": lambda a: gx.build_counterexample(a),
}

# the bad vector goes into every weight argument
WEIGHT_ENTRY_POINTS = {
    "near_zero_sign": lambda w: gx.near_zero_sign(w, w, 1.0),
    "tail_sign": lambda w: gx.tail_sign(w, w),
    "perturbation_root_window": lambda w: gx.perturbation_root_window(w, 1.0),
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
