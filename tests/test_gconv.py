"""Series engine: construction, evaluation, sampling, and the eCDF band."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import gammaincinv

import gammacross
from gammacross import cli, gconv
from gammacross.counterexample import build_counterexample
from gammacross.crossing import sign_profile
from gammacross.errors import ConvergenceError, DomainError
from gammacross.gconv import (
    MAX_TERMS,
    TAIL_TARGET,
    EcdfBand,
    GammaComponent,
    GammaConvolution,
    difference_error_estimate,
    ecdf_band,
    h1_closed,
    h2_closed,
    _build_series,
    _cdf_block,
    _density_block,
    _eval,
    _shared_base,
    _terms,
    _window,
    make_convolution,
    tail_window,
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

    def test_matches_full_series(self, monkeypatch):
        cert = build_counterexample(0.25)
        gc_t, gc_e = make_convolution(0.25, cert.theta), make_convolution(0.25, cert.eta)
        cases = [(gc, np.linspace(gc.quantile(1e-12), gc.quantile(1.0 - 1e-12), 512))
                 for gc in (gc_t, gc_e, make_convolution(0.5, [0.001, 1.0]))]
        # the scan's grid: blocks of hundreds of points at tiny y, and wide
        # spans at large y split by their work
        scan = np.geomspace(*tail_window(gc_t, gc_e, 1e-12), 4096)
        cases.append((gc_e, scan))
        narrowed = []  # one flag per block the engine evaluates

        def spy(s, y_lo, y_hi, order):
            lo, hi = _window(s, y_lo, y_hi, order)
            narrowed.append(hi - lo < s.lgam.size - 1)
            return lo, hi

        monkeypatch.setattr(gconv, "_window", spy)
        for gc, xs in cases:
            s = gc._series
            last = len(s.weights) - 1
            narrowed.clear()
            cdf = gc.cdf(xs)
            dens = [gc.density(xs, order) for order in (0, 1, 2)]
            assert sum(narrowed) >= 4
            # the full series in chunks of any size: each point is summed alone
            for start in range(0, xs.size, 256):
                sl = slice(start, start + 256)
                y = xs[sl] / s.beta1
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
        # D = F_eta - F_theta from the two-row pair series
        pair = gc_e._pair(gc_t)
        assert pair is not None
        last = pair.lgam.size - 1
        narrowed.clear()
        d = gc_e.cdf(scan, minus=gc_t)
        assert sum(narrowed) >= 4
        for start in range(0, scan.size, 256):
            sl = slice(start, start + 256)
            full = _cdf_block(pair, scan[sl] / pair.beta1, 0, last)
            assert np.max(np.abs(d[sl] - (full[0] - full[1]))) <= 2e-15

    def test_scan_work_is_bounded(self, monkeypatch):
        # the alpha = 0.5 default certificate's scan; 64-point blocks took 53
        # kernel calls, 439,316 term entries and one matrix of 159,808
        cert = build_counterexample(0.5)
        sizes = []  # (points, entries) of every term matrix

        def spy(s, lo, hi, y):
            u = _terms(s, lo, hi, y)
            sizes.append((y.size, u.size))
            return u

        monkeypatch.setattr(gconv, "_terms", spy)
        sign_profile(cert.theta, cert.eta, 0.5, grid_size=cert.grid_size, tol=cert.tol)
        assert len(sizes) <= 40
        assert sum(entries for _, entries in sizes) <= 350_000
        assert max(entries for points, entries in sizes if points > 1) <= gconv._BLOCK_WORK


class TestSeriesBase:
    """The series about a base below the least scale, and the pair kernel."""

    # sha256 prefix of weights, wbar and lgam, and the tail, of each own
    # series as built before the base could be chosen (numpy 2.4.6, scipy 1.17.1)
    OWN_SERIES = [
        ((0.5, (0.001, 1.0)), "b0152399a186a74dbdbcbb2919441d9f", "0x1.6809c1a8d6b15p-47"),
        ((2.5, STALL_SCALES), "8ee266529a310346c0bcfe6c4a5d2974", "0x1.21f98754d7722p-47"),
        ((0.75, (0.3, 0.5, 1.2, 2.0)), "0c97f02dbdcc70ea73b69b423fdac47d",
         "0x1.10d5c33090bdbp-47"),
    ]

    @staticmethod
    def digest(s) -> str:
        return hashlib.sha256(s.weights.tobytes() + s.wbar.tobytes()
                              + s.lgam.tobytes()).hexdigest()[:32]

    def test_own_base_is_the_default(self):
        for (alpha, scales), _, _ in self.OWN_SERIES:
            gc = make_convolution(alpha, scales)
            at_least = _build_series(gc.components, gc.components[0].scale)
            assert self.digest(at_least) == self.digest(gc._series)
            assert at_least.tail == gc._series.tail

    @pytest.mark.skipif((np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
                        reason="the pinned bits are those of numpy 2.4.6 and scipy 1.17.1")
    def test_own_series_bits_unchanged(self):
        for (alpha, scales), digest, tail in self.OWN_SERIES:
            s = make_convolution(alpha, scales)._series
            assert (self.digest(s), s.tail.hex()) == (digest, tail)

    def test_half_base_agrees_with_own_base(self):
        rng = np.random.default_rng(1212)
        for i in range(30):
            n, alpha = 1 + i % 6, (0.5, 1.0, 2.5)[i % 3]
            gc = make_convolution(alpha, rng.uniform(1.0, 5.0, n))
            half = _build_series(gc.components, gc.components[0].scale / 2.0)
            assert len(half.weights) > len(gc._series.weights)
            assert abs(math.fsum(half.weights) - (1.0 - half.tail)) <= 1e-13, i
            assert 0.0 <= half.tail <= TAIL_TARGET
            xs = np.linspace(0.0, gc.mean + 10.0 * math.sqrt(gc.variance), 300)
            assert np.max(np.abs(_eval(half, xs, _cdf_block, 0) - gc.cdf(xs))) <= 1e-13, i

    PAIRS = {
        "equal_shapes": (make_convolution(1.5, [0.3, 0.9, 2.5]),
                         make_convolution(1.5, [0.8, 1.0, 1.9])),
        "zero_weight_one_side": (make_convolution(1.0, [0.0, 2.0, 3.0]),
                                 make_convolution(1.0, [1.0, 1.5, 2.5])),
        "tied_scales": (make_convolution(0.5, [1.0, 1.0, 4.0]),
                        make_convolution(0.5, [1.0, 2.0, 3.0])),
        "single_component_rebased": (GammaConvolution((GammaComponent(2.0, 1.0),)),
                                     make_convolution(1.0, [0.5, 1.5])),
        "single_components": (make_convolution(2.0, [3.0]), make_convolution(2.0, [1.5])),
    }

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_difference_matches_two_cdfs(self, name):
        a, b = self.PAIRS[name]
        hi = max(a.mean + 10.0 * math.sqrt(a.variance), b.mean + 10.0 * math.sqrt(b.variance))
        xs = np.linspace(-1.0, hi, 400)
        for x in (xs, xs.reshape(20, 20), 1.7, 0.0):
            got = a.cdf(x, minus=b)
            want = a.cdf(x) - b.cdf(x)
            assert np.shape(got) == np.shape(want)
            assert isinstance(got, float) == (np.ndim(x) == 0)
            assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13
        assert np.max(np.abs(b.cdf(xs, minus=a) + a.cdf(xs, minus=b))) <= 1e-13
        shared = _shared_base(a, b) is not None
        assert shared == (name in ("equal_shapes", "tied_scales", "single_component_rebased"))
        err = difference_error_estimate(a, b)
        assert abs(err - (a.error_estimate + b.error_estimate)) <= 2e-14
        if not shared:  # each side about its own least scale: the same bits
            assert np.array_equal(a.cdf(xs, minus=b), a.cdf(xs) - b.cdf(xs))

    def test_tied_least_scales_share_without_rebasing(self):
        a, b = self.PAIRS["tied_scales"]
        assert _shared_base(a, b) == 1.0
        assert a._pair(b).lgam.size == max(a._series.lgam.size, b._series.lgam.size)

    def test_scan_builds_two_series(self, monkeypatch):
        # the sides' own series, or one own and one rebased; a rebased side's
        # own series is never built, not even for its tail
        built = []
        real = gconv._build_series

        def counting(components, beta=None):
            built.append(beta)
            return real(components, beta)

        monkeypatch.setattr(gconv, "_build_series", counting)
        sign_profile([1.0, 4.0], [2.0, 3.0], 1.0)
        assert len(built) == 2 and built.count(None) == 1
        built.clear()
        sign_profile([1e-3, 1e-3], [1.0, 1.0], 1.0)
        assert built == [None, None]


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

    def test_bracket_is_the_gamma_sandwich(self):
        a = make_convolution(0.7, [0.3, 1.0, 2.5])
        b = make_convolution(0.7, [0.8, 1.1, 1.6])
        for gc in (a, b):
            for p in (1e-12, 0.5, 1.0 - 1e-12):
                g = float(gammaincinv(gc.total_shape, p))
                assert gc.quantile_bracket(p) == (gc.components[0].scale * g,
                                                  gc.components[-1].scale * g)
        lo, hi = tail_window(a, b, 1e-9)
        assert tail_window(b, a, 1e-9) == (lo, hi)
        for gc in (a, b):
            assert gc.cdf(lo) <= 1e-9 and 1.0 - gc.cdf(hi) <= 1e-9
        with pytest.raises(DomainError):
            a.quantile_bracket(1.0)
        with pytest.raises(ConvergenceError):
            make_convolution(0.01, [0.05, 0.1, 1.0]).quantile_bracket(1e-12)

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
        # the scan window and the stochastic-order grids come from the
        # closed-form quantile brackets; no quantile is solved
        assert len(calls) == 0


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
        band = ecdf_band(np.arange(1.0, 11.0))
        assert_allclose(band.half_width, math.sqrt(math.log(2.0 / 0.01) / 20.0), rtol=1e-14)
        big = ecdf_band(np.arange(10 ** 6, dtype=float))
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
        band = ecdf_band(gc.sample(100_000, 2024))
        assert band.sup_deviation(gc.cdf(band.sorted_samples)) <= band.half_width

    def test_grid_bound_dominates_exact_sup(self):
        gc = make_convolution(1.5, [0.5, 1.5])
        samples = gc.sample(50_000, 11)
        band = ecdf_band(samples)
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
