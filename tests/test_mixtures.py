"""Bimodal mixture construction, mode scanning, and the mixture conditions."""

import math

import numpy as np
import pytest

from gammacross.densities import from_convolution, gamma_unit, mix
from gammacross.errors import DomainError
from gammacross.gconv import GammaComponent, GammaConvolution
from gammacross.mixtures import (
    bimodal_mixture,
    bimodality_window,
    exp_pair_logconcavity_sides,
    lemma3_lambda,
    logconcavity_check,
    mixcond_check,
    mixture_family_unimodal,
    mode_structure,
)


class TestMixtureWeight:
    def test_closed_form_value(self):
        # the defining equation lam g_{1+a}'(x0) + g_a'(x0) = 0, relative to
        # the size of its two terms, on both sides of a = 1
        assert lemma3_lambda(0.5, 0.1) == pytest.approx(7.5, rel=1e-12)
        for a, x0 in ((0.5, 0.1), (0.7, 0.2), (0.05, 0.01), (0.95, 0.9), (2.0, 1.5)):
            lam = lemma3_lambda(a, x0)
            hi = lam * float(gamma_unit(1.0 + a).d1(x0))
            lo = float(gamma_unit(a).d1(x0))
            assert abs(hi + lo) <= 1e-13 * (abs(hi) + abs(lo)), (a, x0)

    def test_positive_inside_mode_gap(self):
        assert lemma3_lambda(2.0, 1.5) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma3_lambda(0.5, 0.6)  # at or above the upper mode
        with pytest.raises(DomainError):
            lemma3_lambda(0.5, 0.0)
        with pytest.raises(DomainError):
            lemma3_lambda(2.0, 0.5)  # below the lower mode a - 1
        with pytest.raises(DomainError):
            lemma3_lambda(0.0, 0.1)


class TestBimodalityWindow:
    def test_frozen_values(self):
        for a, hi in ((0.3, 0.1366600265340756),
                      (0.5, 0.2071067811865476),
                      (0.7, 0.2477225575051661),
                      (0.9, 0.2162277660168379)):
            lo, w_hi = bimodality_window(a)
            assert lo == 0.0
            assert w_hi == pytest.approx(hi, rel=1e-14)
            assert w_hi == pytest.approx(math.sqrt(1.0 - a) - (1.0 - a), rel=1e-15)

    def test_domain(self):
        for a in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                bimodality_window(a)


class TestBimodalMixture:
    def test_stationary_at_x0(self):
        for a, x0 in ((0.5, 0.1), (0.3, 0.07), (0.9, 0.15)):
            _, s = bimodal_mixture(a, x0)
            assert abs(float(s.d1(x0))) < 1e-12

    def test_two_maxima_one_minimum(self):
        _, s = bimodal_mixture(0.5, 0.1)
        ms = mode_structure(s, (1e-10, 3.5), grid_size=4096)
        assert ms.n_maxima == 2 and ms.n_minima == 1
        assert ms.left_edge_max and not ms.right_edge_max
        kinds = {p.kind: p.location for p in ms.points}
        assert kinds["min"] == pytest.approx(0.1, abs=1e-6)


class TestModeStructure:
    def test_interior_maximum(self):
        ms = mode_structure(gamma_unit(2.0), (1e-6, 30.0))
        assert ms.unimodal
        assert not ms.left_edge_max and not ms.right_edge_max
        assert len(ms.points) == 1
        assert ms.points[0].kind == "max"
        assert ms.points[0].location == pytest.approx(1.0, abs=1e-6)
        assert ms.points[0].curvature < 0.0

    def test_decreasing_density_left_edge(self):
        ms = mode_structure(gamma_unit(0.5), (1e-10, 30.0))
        assert ms.unimodal
        assert ms.points == ()
        assert ms.left_edge_max and not ms.right_edge_max

    def test_stationary_points_are_resolved(self):
        _, s = bimodal_mixture(0.5, 0.1)
        ms = mode_structure(s, (1e-10, 3.5), grid_size=4096)
        for p in ms.points:
            assert abs(float(s.d1(p.location))) <= 9e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            mode_structure(gamma_unit(2.0), (0.0, 10.0))
        with pytest.raises(DomainError):
            mode_structure(gamma_unit(2.0), (5.0, 1.0))
        with pytest.raises(DomainError):
            mode_structure(gamma_unit(2.0), (0.1, 10.0), grid_size=16)


class TestLogconcavity:
    def test_single_gamma(self):
        assert logconcavity_check(gamma_unit(2.0), (0.1, 30.0))

    def test_logconcave_mixture(self):
        # e^-x x (1 + x/2) has (-log f)'' = 1/x^2 + (1/4)/(1 + x/2)^2 > 0
        f = mix([(0.5, gamma_unit(2.0)), (0.5, gamma_unit(3.0))])
        assert logconcavity_check(f, (0.1, 30.0))

    def test_bimodal_mixture_fails(self):
        _, s = bimodal_mixture(0.5, 0.1)
        assert not logconcavity_check(s, (0.02, 1.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            logconcavity_check(gamma_unit(2.0), (0.0, 10.0))


class TestMixcond:
    def _pair(self):
        w1 = GammaConvolution((GammaComponent(1.5, 2.0), GammaComponent(1.5, 1.5),
                               GammaComponent(1.0, 1.0), GammaComponent(1.0, 0.5)))
        w3 = GammaConvolution((GammaComponent(2.5, 1.5), GammaComponent(2.5, 2.0),
                               GammaComponent(1.0, 1.0), GammaComponent(1.0, 0.5)))
        return from_convolution(w1), from_convolution(w3)

    def test_supplemented_pair_between_modes(self):
        f1, f3 = self._pair()
        m1 = mode_structure(f1, (0.5, 30.0)).points[0].location
        m3 = mode_structure(f3, (0.5, 30.0)).points[0].location
        assert m1 == pytest.approx(5.1114585, abs=1e-5)
        assert m3 == pytest.approx(8.5360425, abs=1e-5)
        assert mixcond_check(f1, f3, (m1, m3))

    def test_trivial_when_mask_empty(self):
        f1, _ = self._pair()
        assert mixcond_check(f1, f1, (5.0, 9.0))

    def test_low_shape_pair_fails(self):
        assert not mixcond_check(gamma_unit(0.5), gamma_unit(1.5), (1e-4, 0.5))

    def test_domain(self):
        f1, f3 = self._pair()
        with pytest.raises(DomainError):
            mixcond_check(f1, f3, (9.0, 5.0))


class TestMixtureFamily:
    def test_unimodal_above_shape_one(self):
        assert mixture_family_unimodal(gamma_unit(2.0), gamma_unit(1.0), (1e-10, 36.0))

    def test_planted_minimum_fails(self):
        lam = lemma3_lambda(0.5, 0.1)
        p = 1.0 / (1.0 + lam)
        assert not mixture_family_unimodal(gamma_unit(0.5), gamma_unit(1.5),
                                           (1e-10, 3.5), p_grid=[0.0, p, 1.0],
                                           grid_size=4096)

    def test_self_family(self):
        assert mixture_family_unimodal(gamma_unit(2.0), gamma_unit(2.0), (1e-6, 30.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            mixture_family_unimodal(gamma_unit(2.0), gamma_unit(1.0), (1e-6, 30.0),
                                    p_grid=[0.5, 1.5])


class TestExpPairIdentity:
    def test_sides_agree_on_window(self):
        for eps, lam in ((1.0, 0.0), (0.5, 1.0), (3.0, -0.5), (1.0, 10.0)):
            xs = np.geomspace(1e-6, min(40.0, 300.0 / eps), 200)
            lhs, rhs = exp_pair_logconcavity_sides(eps, lam, xs)
            rel = np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))
            assert rel < 1e-9

    def test_cosh_floor(self):
        # 2 cosh(eps x) - 2 >= (eps x)^2 makes rhs >= (lam eps + 2)^2
        eps, lam = 1.0, 0.0
        xs = np.geomspace(1e-6, 40.0, 200)
        _, rhs = exp_pair_logconcavity_sides(eps, lam, xs)
        assert np.all(rhs >= (lam * eps + 2.0) ** 2 - 1e-9)
        assert np.all(rhs > 0.0)

    def test_scalar_input(self):
        lhs, rhs = exp_pair_logconcavity_sides(0.5, -3.9, 2.0)
        assert isinstance(lhs, float) and isinstance(rhs, float)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_pair_logconcavity_sides(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            exp_pair_logconcavity_sides(1.0, math.inf, 1.0)
        with pytest.raises(DomainError):
            exp_pair_logconcavity_sides(1.0, 0.0, np.array([1.0, math.nan]))
