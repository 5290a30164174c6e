"""Bimodal mixture construction, mode scanning of mixture families, and the
exponential-pair identity."""

import math

import numpy as np
import pytest

from gammacross.errors import DomainError
from gammacross.gconv import GammaComponent, GammaConvolution, make_convolution
from gammacross.mixtures import (
    bimodal_mixture,
    bimodality_window,
    exp_pair_logconcavity_sides,
    gamma_mixture,
    lemma3_lambda,
    mode_structure,
)


def unit_gamma(alpha):
    """The unit gamma density g_alpha as an f(x, order)."""
    return make_convolution(alpha, [1.0]).density


class TestMixtureWeight:
    def test_closed_form_value(self):
        # the defining equation lam g_{1+a}'(x0) + g_a'(x0) = 0, relative to
        # the size of its two terms, on both sides of a = 1
        assert lemma3_lambda(0.5, 0.1) == pytest.approx(7.5, rel=1e-12)
        for a, x0 in ((0.5, 0.1), (0.7, 0.2), (0.05, 0.01), (0.95, 0.9), (2.0, 1.5)):
            lam = lemma3_lambda(a, x0)
            hi = lam * float(unit_gamma(1.0 + a)(x0, 1))
            lo = float(unit_gamma(a)(x0, 1))
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
            assert abs(float(s(x0, 1))) < 1e-12

    def test_two_maxima_one_minimum(self):
        _, s = bimodal_mixture(0.5, 0.1)
        ms = mode_structure(s, (1e-10, 3.5), grid_size=4096)
        assert ms.n_maxima == 2 and ms.n_minima == 1
        assert ms.left_edge_max and not ms.right_edge_max
        kinds = {p.kind: p.location for p in ms.points}
        assert kinds["min"] == pytest.approx(0.1, abs=1e-6)


class TestGammaMixture:
    def test_weighted_sum_of_unit_gammas(self):
        lam, x = lemma3_lambda(0.5, 0.1), np.geomspace(1e-6, 20.0, 64)
        f = gamma_mixture(0.5, lam)
        for order in (0, 1, 2):
            want = (lam / (1.0 + lam) * unit_gamma(1.5)(x, order)
                    + 1.0 / (1.0 + lam) * unit_gamma(0.5)(x, order))
            assert np.array_equal(f(x, order), want)
        assert np.array_equal(bimodal_mixture(0.5, 0.1)[1](x, 1), f(x, 1))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_bad_weight(self, lam):
        with pytest.raises(DomainError):
            gamma_mixture(0.5, lam)


class TestModeStructure:
    def test_interior_maximum(self):
        ms = mode_structure(unit_gamma(2.0), (1e-6, 30.0))
        assert ms.unimodal
        assert not ms.left_edge_max and not ms.right_edge_max
        assert len(ms.points) == 1
        assert ms.points[0].kind == "max"
        assert ms.points[0].location == pytest.approx(1.0, abs=1e-6)
        assert ms.points[0].curvature < 0.0

    def test_decreasing_density_left_edge(self):
        ms = mode_structure(unit_gamma(0.5), (1e-10, 30.0))
        assert ms.unimodal
        assert ms.points == ()
        assert ms.left_edge_max and not ms.right_edge_max

    def test_stationary_points_are_resolved(self):
        _, s = bimodal_mixture(0.5, 0.1)
        ms = mode_structure(s, (1e-10, 3.5), grid_size=4096)
        for p in ms.points:
            assert abs(float(s(p.location, 1))) <= 9e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            mode_structure(unit_gamma(2.0), (0.0, 10.0))
        with pytest.raises(DomainError):
            mode_structure(unit_gamma(2.0), (5.0, 1.0))
        with pytest.raises(DomainError):
            mode_structure(unit_gamma(2.0), (0.1, 10.0), grid_size=16)


def family_structures(f1, f2, window, ps=np.linspace(0.0, 1.0, 129), grid_size=512):
    """mode_structure of p f1 + (1-p) f2 for each weight p, as criterion 7 scans it."""
    def member(p):
        return lambda x, order: p * f1(x, order) + (1.0 - p) * f2(x, order)
    return [mode_structure(member(float(p)), window, grid_size=grid_size) for p in ps]


class TestMixcond:
    def test_supplemented_pair_between_modes(self):
        w1 = GammaConvolution((GammaComponent(1.5, 2.0), GammaComponent(1.5, 1.5),
                               GammaComponent(1.0, 1.0), GammaComponent(1.0, 0.5)))
        w3 = GammaConvolution((GammaComponent(2.5, 1.5), GammaComponent(2.5, 2.0),
                               GammaComponent(1.0, 1.0), GammaComponent(1.0, 0.5)))
        m1 = mode_structure(w1.density, (0.5, 30.0)).points[0].location
        m3 = mode_structure(w3.density, (0.5, 30.0)).points[0].location
        assert m1 == pytest.approx(5.1114585, abs=1e-5)
        assert m3 == pytest.approx(8.5360425, abs=1e-5)
        # no mixture of the pair has a local minimum between the two modes
        for ms in family_structures(w1.density, w3.density, (m1, m3)):
            assert ms.n_minima == 0 and not ms.has_undecided

    def test_low_shape_pair_fails(self):
        structures = family_structures(unit_gamma(0.5), unit_gamma(1.5), (1e-4, 0.5))
        assert any(ms.n_minima == 1 for ms in structures)


class TestMixtureFamily:
    def test_unimodal_above_shape_one(self):
        assert all(ms.unimodal for ms in
                   family_structures(unit_gamma(2.0), unit_gamma(1.0), (1e-10, 36.0)))

    def test_planted_minimum_fails(self):
        lam = lemma3_lambda(0.5, 0.1)
        p = 1.0 / (1.0 + lam)
        structures = family_structures(unit_gamma(0.5), unit_gamma(1.5), (1e-10, 3.5),
                                       ps=[0.0, p, 1.0], grid_size=4096)
        assert [ms.unimodal for ms in structures] == [True, False, True]
        assert structures[1].points[0].location == pytest.approx(0.1, rel=1e-12)

    def test_self_family(self):
        assert all(ms.unimodal for ms in
                   family_structures(unit_gamma(2.0), unit_gamma(2.0), (1e-6, 30.0)))


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
