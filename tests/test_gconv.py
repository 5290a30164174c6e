"""Series engine: construction, evaluation, sampling, and the eCDF band."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import gammaincinv

import gammacross
from gammacross import cli, gconv
from gammacross.counterexample import build_counterexample
from gammacross.errors import ConvergenceError, DomainError
from gammacross.gconv import (
    MAX_TERMS,
    TAIL_TARGET,
    EcdfBand,
    GammaComponent,
    GammaConvolution,
    ecdf_band,
    h1_closed,
    h2_closed,
    _cdf_block,
    _density_block,
    _terms,
    _window,
    make_convolution,
)
from test_specfun import P_TABLE

# mpmath (50 dps) value of P(0.001 X1 + X2 <= 1), X_i ~ gamma(0.5, 1): a deep
# scale ratio needing ~3e4 series terms, where naive weight accumulation
# floors out above the tail target and the build used to die at the term cap
STRESS_CDF_ORACLE = 0.842596899147632474149

# four gamma(2.5, 1) components at mean series index ~211, where a weight sum
# accumulated term by term stalls short of 1 - TAIL_TARGET
STALL_SCALES = (float.fromhex("0x1.94e7caa1b0568p-7"), 1.0,
                float.fromhex("0x1.00634b125aae3p-4"),
                float.fromhex("0x1.25f9b4e5a7ebap-6"))


class TestConstruction:
    def test_components_sorted_and_merged(self):
        gc = make_convolution(0.5, [2.0, 2.0, 5.0])
        assert [(c.shape, c.scale) for c in gc.components] == [(1.0, 2.0), (0.5, 5.0)]

    def test_supplements_add_shape(self):
        gc = make_convolution(1.0, [0.4, 1.0], supplements=[0, 1])
        assert [(c.shape, c.scale) for c in gc.components] == [(2.0, 0.4), (2.0, 1.0)]
        gc2 = make_convolution(1.0, [0.4, 1.0], supplements=[1, 1])
        assert [(c.shape, c.scale) for c in gc2.components] == [(1.0, 0.4), (3.0, 1.0)]

    def test_zero_weights_dropped(self):
        gc = make_convolution(2.0, [0.0, 1.5, 0.0])
        assert [(c.shape, c.scale) for c in gc.components] == [(2.0, 1.5)]

    def test_moments(self):
        gc = make_convolution(1.5, [0.5, 2.0])
        assert_allclose(gc.mean, 1.5 * 0.5 + 1.5 * 2.0)
        assert_allclose(gc.variance, 1.5 * 0.25 + 1.5 * 4.0)
        assert gc.total_shape == 3.0

    def test_domain(self):
        with pytest.raises(DomainError):
            make_convolution(0.0, [1.0])
        with pytest.raises(DomainError):
            make_convolution(1.0, [])
        with pytest.raises(DomainError):
            make_convolution(1.0, [-0.5, 1.0])
        with pytest.raises(DomainError):
            make_convolution(1.0, [0.0, 0.0])
        with pytest.raises(DomainError):
            make_convolution(1.0, [1.0], supplements=[3])
        with pytest.raises(DomainError):
            make_convolution(1.0, [0.0, 1.0], supplements=[0])
        with pytest.raises(DomainError):
            GammaComponent(1.0, -2.0)
        with pytest.raises(DomainError):
            GammaConvolution(())


class TestEvaluation:
    def test_single_component_reduction(self):
        # F(x) = P(a, x / scale) against the frozen mpmath values
        for a, x, ref in P_TABLE:
            gc = make_convolution(a, [1.7])
            assert_allclose(float(gc.cdf(1.7 * x)), ref, rtol=0, atol=1e-13, err_msg=f"{a},{x}")

    def test_exponential_pair_closed_form(self):
        for d in (0.1, 0.25, 0.4, 0.7, 0.9):
            xs = np.linspace(0.02, 12.0, 100)
            g1 = make_convolution(1.0, [d, 1.0])
            g2 = make_convolution(2.0, [d, 1.0])
            assert np.max(np.abs(g1.density(xs) - h1_closed(d, xs))) < 1e-12
            assert np.max(np.abs(g2.density(xs) - h2_closed(d, xs))) < 1e-12

    def test_laplace_ode_identity(self):
        # delta h1'(x) + h1(x) = e^-x, exactly, for the exponential pair
        for d in (0.25, 0.4, 0.7):
            gc = make_convolution(1.0, [d, 1.0])
            for x in (0.5, 1.0, 2.0):
                resid = d * gc.density(x, 1) + gc.density(x, 0) - math.exp(-x)
                assert abs(resid) < 1e-12

    def test_stress_scale_ratio(self):
        gc = make_convolution(0.5, [0.001, 1.0])
        assert_allclose(float(gc.cdf(1.0)), STRESS_CDF_ORACLE, rtol=0, atol=1e-12)

    def test_stress_series_converges_under_cap(self):
        # the truncation bound comes from the negative-binomial survival
        # functions, not from a running weight sum, so ~3e4 terms suffice
        s = make_convolution(0.5, [0.001, 1.0])._series
        assert len(s.weights) < MAX_TERMS
        assert 0.0 <= s.tail <= TAIL_TARGET

    def test_series_build_does_not_stall(self):
        gc = make_convolution(2.5, STALL_SCALES)
        s = gc._series
        assert len(s.weights) < MAX_TERMS
        assert 0.0 <= s.tail <= TAIL_TARGET
        for x in (1.0, 2.7, 6.0):
            total, _ = quad(gc.density, 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=200)
            assert abs(float(gc.cdf(x)) - total) < 1e-11

    def test_underflow_raises(self):
        with pytest.raises(ConvergenceError):
            make_convolution(1.0, [1e-320, 1.0]).cdf(1.0)

    def test_cdf_shape_and_range(self):
        gc = make_convolution(0.8, [0.5, 1.5, 2.5])
        xs = np.geomspace(1e-6, 60.0, 300)
        vals = gc.cdf(xs)
        assert vals.shape == xs.shape
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] >= 0.0 and vals[-1] <= 1.0
        assert float(gc.cdf(0.0)) == 0.0
        assert float(gc.cdf(-3.0)) == 0.0
        mat = gc.cdf(xs.reshape(30, 10))
        assert mat.shape == (30, 10)

    def test_normalization_and_mean_by_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            a = float(rng.uniform(0.6, 3.0))
            gc = make_convolution(a, rng.uniform(0.3, 3.0, n))
            hi = gc.quantile(1.0 - 1e-12)
            total, _ = quad(lambda t: gc.density(t), 0.0, hi, limit=200)
            assert abs(total - 1.0) < 1e-8
            mean, _ = quad(lambda t: t * gc.density(t), 0.0, hi, limit=200)
            assert abs(mean - gc.mean) < 1e-6 * gc.mean

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.3, 3.0, 3)
        base = make_convolution(1.5, w)
        for c in (0.1, 3.0, 40.0):
            scaled = make_convolution(1.5, c * w)
            for x in (0.7, 2.7, 9.0):
                assert_allclose(float(scaled.cdf(c * x)), float(base.cdf(x)),
                                rtol=0, atol=1e-12)

    def test_permutation_invariance(self):
        a = make_convolution(0.9, [2.0, 0.5, 1.1])
        b = make_convolution(0.9, [1.1, 2.0, 0.5])
        assert a == b
        xs = np.linspace(0.1, 10.0, 50)
        assert np.array_equal(a.cdf(xs), b.cdf(xs))

    def test_density_derivatives_vs_finite_differences(self):
        gc = make_convolution(2.0, [0.5, 1.5])
        for x in (0.8, 2.0, 5.0):
            fd1 = (gc.density(x + 5e-6) - gc.density(x - 5e-6)) / 1e-5
            assert_allclose(float(gc.density(x, 1)), fd1, rtol=1e-6)
            fd2 = (gc.density(x + 1e-4, 1) - gc.density(x - 1e-4, 1)) / 2e-4
            assert_allclose(float(gc.density(x, 2)), fd2, rtol=1e-6)

    def test_single_gamma_mode_stationary(self):
        assert float(make_convolution(3.0, [1.0]).density(2.0, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_evaluation_domain(self):
        gc = make_convolution(1.0, [1.0, 2.0])
        with pytest.raises(DomainError):
            gc.density(1.0, order=3)
        with pytest.raises(DomainError):
            gc.cdf(np.array([1.0, math.inf]))


class TestTermWindow:
    """Windowed blocks against the same kernels summed over every term."""

    def test_matches_full_series(self):
        cert = build_counterexample(0.25)
        for gc in (make_convolution(0.25, cert.theta), make_convolution(0.25, cert.eta),
                   make_convolution(0.5, [0.001, 1.0])):
            s = gc._series
            last = len(s.weights) - 1
            xs = np.linspace(gc.quantile(1e-12), gc.quantile(1.0 - 1e-12), 512)
            cdf = gc.cdf(xs)
            dens = [gc.density(xs, order) for order in (0, 1, 2)]
            narrowed = 0
            for start in range(0, xs.size, 64):
                sl = slice(start, start + 64)
                y = xs[sl] / s.beta1
                lo, hi = _window(s, y[0], y[-1], 2)
                narrowed += int(hi - lo < last)
                full = _cdf_block(s, y, 0, last)
                assert np.max(np.abs(cdf[sl] - full)) <= 1e-15
                base = _terms(s, 0, last, y)
                am1 = (s.rho - 1.0 + np.arange(last + 1))[:, None]
                u = am1 / y - 1.0
                for order, factor in enumerate((1.0, u, u * u - am1 / (y * y))):
                    full = _density_block(s, y, 0, last, order)
                    # scaled like the rounding of the sum: by the size of its terms
                    magnitude = s.weights @ np.abs(base * factor) / s.beta1 ** (order + 1)
                    assert np.all(np.abs(dens[order][sl] - full)
                                  <= 1e-15 * np.maximum(1.0, magnitude))
            assert narrowed >= 4


class TestImport:
    def test_scipy_stats_not_imported(self):
        # scipy.stats costs about half a second of import time
        src = str(Path(gammacross.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, gammacross; print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestQuantile:
    def test_exponential_closed_form(self):
        gc = make_convolution(1.0, [1.0])
        assert_allclose(gc.quantile(1.0 - math.exp(-2.0)), 2.0, rtol=0, atol=1e-10)

    def test_roundtrip(self):
        gc = make_convolution(0.5, [0.4, 1.0, 2.2])
        for p in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-9):
            x = gc.quantile(p)
            assert abs(float(gc.cdf(x)) - p) <= 1e-10

    def test_monotone_over_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gc = make_convolution(float(rng.uniform(0.5, 3.0)),
                                  rng.uniform(0.2, 3.0, int(rng.integers(1, 5))))
            assert gc.quantile(0.25) < gc.quantile(0.75)

    def test_domain(self):
        gc = make_convolution(1.0, [1.0])
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                gc.quantile(p)

    def test_relative_accuracy_in_the_lower_tail(self):
        # F ~ c x^rho near zero, and Brent on log F in log x keeps its
        # relative accuracy; at alpha = 0.02 the quantile is near 1e-201
        pair = make_convolution(0.5, [1e-3, 1.0])
        deep = make_convolution(0.02, [0.05, 0.1, 1.0])
        for gc in (pair, deep):
            for p in (1e-12, 1e-9):
                assert abs(gc.cdf(gc.quantile(p)) / p - 1.0) <= 1e-12
        assert 1e-202 < deep.quantile(1e-12) < 1e-200

    def test_underflowing_bracket_is_a_typed_error(self):
        # the quantile lies below the smallest double, and so does its bracket
        with pytest.raises(ConvergenceError):
            make_convolution(0.01, [0.05, 0.1, 1.0]).quantile(1e-12)

    def test_near_tied_scales_and_single_component(self, monkeypatch):
        raised = []
        real = gconv.brentq

        def recording(f, a, b, **kwargs):
            try:
                return real(f, a, b, **kwargs)
            except ValueError:
                raised.append((a, b))
                raise

        monkeypatch.setattr(gconv, "brentq", recording)
        for weights in ([1.0, 1.0 + 1e-11], [1.0]):
            gc = make_convolution(1.0, weights)
            shape = gc.total_shape
            for p in (1e-12, 0.5, 1.0 - 2.5e-12, 1.0 - 1e-12):
                q = gc.quantile(p)
                assert_allclose(q, gammaincinv(shape, p), rtol=1e-5)
                assert abs(float(gc.cdf(q)) - p) <= 1e-15
        # at p = 1 - 2.5e-12 the near-tied bracket is narrower than the
        # rounding of 1 - F, and both of its ends fall on one side of p
        assert raised

    def test_within_the_gamma_bracket(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            gc = make_convolution(float(rng.uniform(0.1, 3.0)),
                                  rng.uniform(0.05, 3.0, int(rng.integers(1, 6))))
            lo, hi = gc.components[0].scale, gc.components[-1].scale
            for p in (1e-9, 0.3, 0.5, 0.9, 1.0 - 1e-9):
                g = float(gammaincinv(gc.total_shape, p))
                assert lo * g <= gc.quantile(p) <= hi * g

    def test_quantile_calls_per_check(self, monkeypatch, tmp_path, capsys):
        calls = []
        real = GammaConvolution.quantile

        def counting(self, p):
            calls.append(p)
            return real(self, p)

        monkeypatch.setattr(GammaConvolution, "quantile", counting)
        code = cli.main(["check", "--alpha", "1.0", "--theta", "1,4", "--eta", "2,3",
                         "--out", str(tmp_path / "rep.json")])
        capsys.readouterr()
        assert code == 0
        # the scan window (4) and one stochastic-order grid shared by both
        # directions (4)
        assert len(calls) == 8


class TestSampling:
    def test_deterministic_given_seed(self):
        gc = make_convolution(0.5, [0.4, 1.1, 2.0])
        assert np.array_equal(gc.sample(2000, 123), gc.sample(2000, 123))
        assert not np.array_equal(gc.sample(2000, 123), gc.sample(2000, 124))

    def test_mean_within_standard_errors(self):
        gc = make_convolution(0.5, [0.4, 1.1, 2.0])
        n = 200_000
        draws = gc.sample(n, 77)
        se = math.sqrt(gc.variance / n)
        assert abs(draws.mean() - gc.mean) < 4.0 * se

    def test_shape_below_one_positive(self):
        draws = make_convolution(0.3, [1.0]).sample(5000, 9)
        assert np.all(draws > 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            make_convolution(1.0, [1.0]).sample(-1, 0)


class TestEcdfBand:
    def test_half_width_formula(self):
        band = ecdf_band(np.arange(1.0, 11.0), confidence=0.95)
        assert_allclose(band.half_width, math.sqrt(math.log(2.0 / 0.05) / 20.0), rtol=1e-14)
        big = ecdf_band(np.arange(10 ** 6, dtype=float), confidence=0.99)
        assert_allclose(big.half_width, 0.001627623630718729, rtol=0, atol=1e-17)

    def test_ecdf_basics(self):
        band = ecdf_band(np.array([3.0, 1.0, 2.0]))
        assert band.n == 3
        assert band.ecdf(0.5) == 0.0
        assert band.ecdf(1.0) == pytest.approx(1.0 / 3.0)
        assert band.ecdf(3.0) == 1.0
        assert band.ecdf(2.5) == pytest.approx(2.0 / 3.0)

    def test_sup_deviation_hand_case(self):
        # samples 1,2,3 against F(x) = x/4: worst corner is |3/3 - 3/4| = 1/4
        band = ecdf_band(np.array([1.0, 2.0, 3.0]))
        f = band.sorted_samples / 4.0
        assert_allclose(band.sup_deviation(f), 0.25, rtol=1e-14)

    def test_band_contains_true_cdf(self):
        gc = make_convolution(1.5, [0.5, 1.5])
        band = ecdf_band(gc.sample(100_000, 2024), confidence=0.99)
        assert band.contains(gc.cdf(band.sorted_samples))

    def test_grid_bound_dominates_exact_sup(self):
        gc = make_convolution(1.5, [0.5, 1.5])
        samples = gc.sample(50_000, 11)
        band = ecdf_band(samples, confidence=0.99)
        exact = band.sup_deviation(gc.cdf(band.sorted_samples))
        grid = np.unique(np.quantile(samples, np.linspace(0.0, 1.0, 2001)))
        bound = band.sup_deviation_bound(grid, gc.cdf(grid))
        assert bound >= exact
        # quantile grids keep the bracketing slack near one cell of mass
        assert bound <= exact + 2.0 / 2000.0

    def test_domain(self):
        with pytest.raises(DomainError):
            ecdf_band(np.array([]))
        with pytest.raises(DomainError):
            ecdf_band(np.array([1.0, math.nan]))
        with pytest.raises(DomainError):
            ecdf_band(np.array([1.0]), confidence=1.0)
        band = ecdf_band(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            band.sup_deviation(np.array([0.1, 0.2, 0.3]))
        with pytest.raises(DomainError):
            band.sup_deviation_bound(np.array([2.0, 1.0]), np.array([0.1, 0.2]))


class TestClosedFormReferences:
    def test_h1_h2_frozen_values(self):
        # mpmath (50 dps) at delta = 0.4
        assert_allclose(h1_closed(0.4, 0.25), 0.4058989242540243771476, rtol=1e-14)
        assert_allclose(h1_closed(0.4, 1.0), 0.4763240709125725440433, rtol=1e-14)
        assert_allclose(h1_closed(0.4, 3.0), 0.0820566399961935156604, rtol=1e-14)
        assert_allclose(h2_closed(0.4, 0.25), 0.01054559303994243286773, rtol=1e-13)
        assert_allclose(h2_closed(0.4, 1.0), 0.1914032862924530042511, rtol=1e-13)
        assert_allclose(h2_closed(0.4, 3.0), 0.2371531839363347698861, rtol=1e-13)

    def test_domain(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                h1_closed(bad, 1.0)
            with pytest.raises(DomainError):
                h2_closed(bad, 1.0)
