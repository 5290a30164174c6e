"""Endpoint signs, the certified scan, and the two supporting identities."""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from gammacross import crossing, gconv
from gammacross.counterexample import build_counterexample, verify_certificate
from gammacross.crossing import (
    Classification,
    Sign,
    h_diff,
    lemma2_residual,
    near_zero_sign,
    sign_profile,
    tail_sign,
    u_star,
    _runs,
)
from gammacross.errors import ConvergenceError, DomainError
from gammacross.gconv import GammaConvolution, make_convolution
from gammacross.instances import random_majorized_pair


def hypoexp_cdf_diff(x):
    # alpha = 1, theta = (1, 4), eta = (2, 3): F_eta - F_theta in closed form
    f_theta = 1.0 - (4.0 / 3.0) * math.exp(-x / 4.0) + (1.0 / 3.0) * math.exp(-x)
    f_eta = 1.0 - 3.0 * math.exp(-x / 3.0) + 2.0 * math.exp(-x / 2.0)
    return f_eta - f_theta


class TestNearZeroSign:
    def test_product_decides(self):
        assert near_zero_sign([1.0, 4.0], [2.0, 3.0]) is Sign.MINUS
        assert near_zero_sign([2.0, 3.0], [1.0, 4.0]) is Sign.PLUS

    def test_equal_products_indeterminate(self):
        assert near_zero_sign([1.0, 4.0], [2.0, 2.0]) is Sign.INDETERMINATE
        assert near_zero_sign([1.0, 2.0], [2.0, 1.0]) is Sign.INDETERMINATE

    def test_alpha_never_flips_it(self):
        theta, eta = [0.05, 0.1475, 1.1025], [0.1, 0.1, 1.1]
        assert near_zero_sign(theta, eta) is Sign.MINUS
        for a in (0.25, 1.0, 7.0):
            rep = sign_profile(theta, eta, a)
            assert rep.near_zero == "-" and rep.sign_sequence[0] == "-", a

    def test_zero_weight_sends_product_to_zero(self):
        assert near_zero_sign([0.0, 2.0], [1.0, 1.0]) is Sign.MINUS

    def test_domain(self):
        with pytest.raises(DomainError):
            near_zero_sign([1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            near_zero_sign([0.0, 0.0], [1.0, 1.0])


class TestTailSign:
    def test_max_scale_wins(self):
        assert tail_sign([1.0, 4.0], [2.0, 3.0]) is Sign.PLUS
        assert tail_sign([2.0, 3.0], [1.0, 4.0]) is Sign.MINUS

    def test_tie_broken_by_multiplicity(self):
        assert tail_sign([4.0, 4.0, 1.0], [4.0, 2.0, 3.0]) is Sign.PLUS
        assert tail_sign([4.0, 2.0, 3.0], [4.0, 4.0, 1.0]) is Sign.MINUS

    def test_deep_tie_decided_by_tail_constant(self):
        # maxima and multiplicities agree, so the constant
        # C = prod (1 - beta_j / beta)^-alpha decides: 2.78 against 3.33, and
        # 16 against 8.2 where comparing the second scales gives the wrong sign
        for theta, eta, x, want in (([1.0, 6.0, 10.0], [4.0, 5.0, 10.0], 200.0, Sign.MINUS),
                                    ([3.0, 3.0, 4.0], [0.1, 3.5, 4.0], 100.0, Sign.PLUS)):
            assert tail_sign(theta, eta) is want
            # the engine's D = F_eta - F_theta far out in the tail agrees
            d = make_convolution(1.0, eta).cdf(x) - make_convolution(1.0, theta).cdf(x)
            assert (Sign.PLUS if d > 0.0 else Sign.MINUS) is want

    def test_full_tie_indeterminate(self):
        assert tail_sign([1.0, 5.0], [1.0, 5.0]) is Sign.INDETERMINATE
        # different scales, equal constants: (3/4)(1/2) = (1)(3/8)
        assert tail_sign([1.0, 2.0, 4.0], [0.0, 2.5, 4.0]) is Sign.INDETERMINATE


class TestSignProfile:
    def test_single_crossing_against_closed_form(self):
        rep = sign_profile([1.0, 4.0], [2.0, 3.0], 1.0)
        assert rep.classification is Classification.SINGLE_CROSSING_BELOW
        assert rep.sign_sequence == ("-", "+")
        assert rep.n_crossings == 1
        c = rep.crossings[0]
        assert c.direction == "-+"
        root = brentq(hypoexp_cdf_diff, 1.0, 20.0, xtol=1e-13)
        assert abs(c.location - root) < 1e-8
        assert c.margin > 100.0 * rep.error_estimate
        assert rep.near_zero == "-" and rep.tail == "+"

    def test_grid_size_invariance(self):
        rep = sign_profile([1.0, 4.0], [2.0, 3.0], 1.0, grid_size=2048)
        fine = sign_profile([1.0, 4.0], [2.0, 3.0], 1.0, grid_size=4096)
        assert fine.classification is rep.classification
        assert fine.classification is Classification.SINGLE_CROSSING_BELOW
        x, x_fine = rep.crossings[0].location, fine.crossings[0].location
        assert abs(x_fine - x) <= 1e-9 * x

    def test_one_grid_evaluation_per_side(self, monkeypatch):
        # D is evaluated on the grid once, as one difference of the two
        # sides; every other CDF call is a scalar one from Brent's method
        calls = []
        real = GammaConvolution.cdf

        def recording(self, x, **kw):
            calls.append((self, np.size(x), kw))
            return real(self, x, **kw)

        monkeypatch.setattr(GammaConvolution, "cdf", recording)
        rep = sign_profile([1.0, 4.0], [2.0, 3.0], 1.0)
        assert rep.n_crossings == 1
        grid_calls = [(conv, size, kw) for conv, size, kw in calls if size > 1]
        assert len(grid_calls) == 1
        ((conv, size, kw),) = grid_calls
        assert conv.components != kw["minus"].components
        assert size == rep.grid_size
        assert all(kw.get("minus") is not None for _, _, kw in calls)

    def test_window_ignores_cdf_rounding(self, monkeypatch):
        # the window is closed-form, so a CDF moved by 4e-14, the size of its
        # rounding, moves neither the window nor the verdict
        args = ([0.3, 0.9, 2.5], [0.8, 1.0, 1.9], 2.0)
        rep = sign_profile(*args)
        real = GammaConvolution.cdf
        monkeypatch.setattr(GammaConvolution, "cdf",
                            lambda self, x, **kw: real(self, x, **kw) * (1.0 + 4e-14))
        moved = sign_profile(*args)
        assert moved.window == rep.window
        assert moved.classification is rep.classification

    def test_window_holds_the_quantile_span(self):
        rng = np.random.default_rng(1018)
        for i in range(48):
            n, a = 2 + i % 7, (0.5, 1.0, 3.0)[i % 3]
            t, e = rng.uniform(0.2, 5.0, n), rng.uniform(0.2, 5.0, n)
            lo, hi = sign_profile(t, e, a, grid_size=64).window
            gt, ge = make_convolution(a, t), make_convolution(a, e)
            q_lo = min(gt.quantile(1e-12), ge.quantile(1e-12))
            q_hi = max(gt.quantile(1.0 - 1e-12), ge.quantile(1.0 - 1e-12))
            assert lo <= q_lo * (1.0 + 1e-10) and hi >= q_hi * (1.0 - 1e-10), (n, a)

    def test_window_below_the_double_range(self):
        # at alpha = 0.01 the lower end of the window is near 1e-600
        with pytest.raises(ConvergenceError):
            sign_profile([1.0, 4.0], [2.0, 3.0], 0.01)

    def test_identical_multisets_short_circuit(self):
        rep = sign_profile([2.0, 1.0], [1.0, 2.0], 0.7)
        assert rep.classification is Classification.NO_CROSSING
        assert rep.n_crossings == 0
        assert "identical weight multisets" in rep.notes

    def test_equal_product_log_majorized_route(self):
        rep = sign_profile([1.0, 4.0], [2.0, 2.0], 1.0)
        assert rep.classification is Classification.NO_CROSSING
        assert "equal products with log-majorization dominance" in rep.notes

    def test_dominated_pair_tail_agrees_with_scan(self):
        rep = sign_profile([1.0, 6.0, 10.0], [4.0, 5.0, 10.0], 1.0)
        assert rep.classification is Classification.NO_CROSSING
        assert rep.sign_sequence == ("-",)
        assert rep.near_zero == "-" and rep.tail == "-"
        assert rep.notes == ()

    def test_undecided_near_max_tie(self):
        # the last crossing sits so far out that |D| never clears tol there;
        # the tail sign then contradicts the certified scan
        rep = sign_profile([0.5, 3.0003], [1.5, 3.0], 1.0)
        assert rep.classification is Classification.UNDECIDED
        assert "tail sign contradicts the last certified run" in rep.notes

    def test_endpoint_consistency_seeded(self):
        rng = np.random.default_rng(321)
        checked = 0
        for _ in range(12):
            th, et = rng.uniform(0.2, 4.0, 2), rng.uniform(0.2, 4.0, 2)
            if abs(th.max() - et.max()) < 0.10 * max(th.max(), et.max()):
                continue
            rep = sign_profile(th, et, 1.0)
            if rep.classification is Classification.UNDECIDED:
                continue
            checked += 1
            if rep.sign_sequence:
                if rep.near_zero != "?":
                    assert rep.sign_sequence[0] == rep.near_zero
                if rep.tail != "?":
                    assert rep.sign_sequence[-1] == rep.tail
            changes = sum(1 for a, b in zip(rep.sign_sequence, rep.sign_sequence[1:])
                          if a != b)
            assert changes == rep.n_crossings
        assert checked >= 8

    def test_crossing_parity_matches_endpoint_signs(self):
        rng = np.random.default_rng(654)
        for _ in range(10):
            th, et = rng.uniform(0.2, 4.0, 3), rng.uniform(0.2, 4.0, 3)
            if abs(th.max() - et.max()) < 0.10 * max(th.max(), et.max()):
                continue
            rep = sign_profile(th, et, 1.5)
            if rep.classification is Classification.UNDECIDED or not rep.sign_sequence:
                continue
            even = rep.sign_sequence[0] == rep.sign_sequence[-1]
            assert (rep.n_crossings % 2 == 0) == even

    def test_domain(self):
        with pytest.raises(DomainError):
            sign_profile([1.0, 2.0], [1.0, 2.0], 1.0, grid_size=32)
        with pytest.raises(DomainError):
            sign_profile([1.0, 2.0], [1.0, 2.0], 1.0, grid_size=2**20 + 1)
        with pytest.raises(DomainError):
            sign_profile([1.0, 2.0], [1.0, 2.0], 1.0, tol=0.0)
        with pytest.raises(DomainError):
            sign_profile([1.0, 2.0], [1.0, 2.0], 1.0, tol=1.5)
        with pytest.raises(DomainError):
            sign_profile([1.0, 2.0], [1.0, 2.0, 3.0], 1.0)
        with pytest.raises(DomainError):
            sign_profile([1.0, 2.0], [1.0, 2.0], -1.0)


def runs_by_walk(signs, d):
    # the point-by-point walk _runs replaced; the reference for its output
    runs = []
    for i, s in enumerate(signs):
        if s == 0:
            continue
        if runs and runs[-1][0] == s and runs[-1][2] == i - 1:
            runs[-1][2] = i
            runs[-1][3] = max(runs[-1][3], abs(float(d[i])))
        else:
            runs.append([int(s), i, i, abs(float(d[i]))])
    return [tuple(r) for r in runs]


class TestSharedBase:
    """The pair kernel shares a base only where that keeps the series short."""

    @pytest.mark.parametrize("low", [1e-5, 1e-3])
    def test_far_apart_sides_keep_their_own_bases(self, low, monkeypatch):
        # about the least scale low, the [1, 1] side would need a series of
        # mean index 2 / low - 2: 2e5 terms, past MAX_TERMS, at low = 1e-5
        theta, eta = [low, low], [1.0, 1.0]
        assert gconv._shared_base(make_convolution(1.0, eta),
                                  make_convolution(1.0, theta)) is None

        def best_time():
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                rep = sign_profile(theta, eta, 1.0)
                times.append(time.perf_counter() - t0)
                assert rep.classification is Classification.NO_CROSSING
            return min(times)

        shared = best_time()
        # own bases on both sides is how both CDFs were evaluated before pairs
        monkeypatch.setattr(gconv, "_shared_base", lambda a, b: None)
        assert shared <= 2.0 * best_time()

    def test_majorized_pairs_share_a_base(self):
        pairs = [(a, t, e) for a, t, e in TestCrossingLocation.CHECK_FIXTURES]
        certs = [build_counterexample(alpha)
                 for alpha in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)]
        for alpha, frac in ((0.25, 0.55), (0.5, 0.65), (0.75, 0.70)):
            top = math.sqrt(1.0 - alpha) - (1.0 - alpha)
            certs.append(build_counterexample(alpha, x0=frac * top))
        for cert in certs:
            # the scan's one grid certifies and re-verifies every pattern
            assert cert.n_crossings == 3, cert.alpha
            assert verify_certificate(cert).passed, cert.alpha
            pairs.append((cert.alpha, cert.theta, cert.eta))
        rng = np.random.default_rng(1213)
        for i in range(200):
            theta, eta = random_majorized_pair(rng, 2 + i % 7)
            pairs.append(((0.3, 1.0, 2.5)[i % 3], theta, eta))
        for alpha, theta, eta in pairs:
            gt, ge = make_convolution(alpha, theta), make_convolution(alpha, eta)
            base = min(gt.components[0].scale, ge.components[0].scale)
            assert gconv._shared_base(ge, gt) == base, (alpha, theta, eta)
            assert gconv._shared_base(gt, ge) == base


class TestRuns:
    def test_matches_the_walk_on_random_sign_vectors(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(0, 80))
            p_zero = float(rng.uniform(0.0, 0.6))
            p_plus = float(rng.uniform(0.0, 1.0)) * (1.0 - p_zero)
            signs = rng.choice([-1, 0, 1], size=n,
                               p=[1.0 - p_zero - p_plus, p_zero, p_plus])
            d = rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 0.0, n))
            got = [(r.sign, r.first, r.last, r.peak) for r in _runs(signs, d)]
            assert got == runs_by_walk(signs, d)


class TestCrossingLocation:
    CHECK_FIXTURES = [
        (1.0, (1.0, 4.0), (2.0, 3.0)),
        (2.0, (0.3, 0.9, 2.5), (0.8, 1.0, 1.9)),
        (1.5, (0.5, 1.25, 3.0), (1.0, 1.5, 2.25)),
        (3.0, (0.2, 0.7, 1.1, 2.6, 3.4), (0.6, 1.0, 1.5, 2.2, 2.7)),
    ]

    @staticmethod
    def bisect(d, a, b):
        left = d(a) > 0.0
        for _ in range(200):
            m = 0.5 * (a + b)
            if m in (a, b):
                break
            if (d(m) > 0.0) == left:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    def test_brent_inside_bracket_agrees_with_bisection(self, monkeypatch):
        cert = build_counterexample(0.25)
        cases = self.CHECK_FIXTURES + [(0.25, cert.theta, cert.eta)]
        real = crossing.brentq
        for alpha, theta, eta in cases:
            brackets = []

            def recording(f, a, b, **kwargs):
                brackets.append((a, b))
                return real(f, a, b, **kwargs)

            monkeypatch.setattr(crossing, "brentq", recording)
            rep = sign_profile(theta, eta, alpha)
            assert rep.classification is not Classification.UNDECIDED
            assert len(brackets) == rep.n_crossings >= 1
            gt, ge = make_convolution(alpha, theta), make_convolution(alpha, eta)

            def d(x):
                return float(ge.cdf(x) - gt.cdf(x))

            for (a, b), c in zip(brackets, rep.crossings):
                x = c.location
                assert a < x < b
                assert abs(x - self.bisect(d, a, b)) <= 1e-10 * x
                before, after = (-1.0, 1.0) if c.direction == "-+" else (1.0, -1.0)
                assert before * d(x * (1.0 - 1e-6)) > 0.0
                assert after * d(x * (1.0 + 1e-6)) > 0.0


class TestMixingPivot:
    def test_u_star_closed_form(self):
        assert u_star([1.0, 4.0], [2.0, 3.0]) == pytest.approx(2.5, abs=1e-15)

    def test_h_diff_vanishes_outside_theta_range(self):
        for u in (0.5, 1.0, 4.0, 4.5):
            assert h_diff([1.0, 4.0], [2.0, 3.0], 1.0, u) == 0.0

    def test_h_diff_uniform_mixing_values(self):
        # alpha = 1 mixes uniformly, so the transform difference is piecewise
        # linear with slope 1/3 between the eta kinks
        assert h_diff([1.0, 4.0], [2.0, 3.0], 1.0, 1.5) == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert h_diff([1.0, 4.0], [2.0, 3.0], 1.0, 3.5) == pytest.approx(-1.0 / 6.0, abs=1e-14)

    def test_h_diff_zero_at_pivot_for_all_shapes(self):
        for a in (0.5, 1.0, 2.0):
            assert abs(h_diff([1.0, 4.0], [2.0, 3.0], a, 2.5)) < 1e-14

    def test_sign_change_is_minus_to_plus_reversed(self):
        before = h_diff([1.0, 4.0], [2.0, 3.0], 0.5, 2.0)
        after = h_diff([1.0, 4.0], [2.0, 3.0], 0.5, 3.0)
        assert before > 0.0 > after

    @pytest.mark.parametrize("theta,eta", [([1.0, 4.0], [2.0, 3.0]), ([1.0, 4.0], [2.5, 2.5])],
                             ids=["eta_spread", "eta_tied"])
    def test_h_diff_array_matches_scalar_calls(self, theta, eta):
        us = np.linspace(0.5, 4.5, 257)
        vals = h_diff(theta, eta, 0.5, us)
        assert vals.shape == us.shape
        scalar = [h_diff(theta, eta, 0.5, float(u)) for u in us]
        assert all(type(v) is float for v in scalar)
        assert vals.tobytes() == np.array(scalar).tobytes()

    def test_h_diff_rejects_a_nonfinite_entry(self):
        with pytest.raises(DomainError, match="u must be finite"):
            h_diff([1.0, 4.0], [2.0, 3.0], 1.0, np.array([2.0, np.nan, 3.0]))

    def test_configuration_domain(self):
        with pytest.raises(DomainError):
            u_star([2.0, 3.0], [1.0, 4.0])
        with pytest.raises(DomainError):
            h_diff([2.0, 3.0], [1.0, 4.0], 1.0, 2.0)
        with pytest.raises(DomainError):
            h_diff([1.0, 4.0], [2.0, 3.0], 0.0, 2.0)
        with pytest.raises(DomainError):
            h_diff([1.0, 4.0, 5.0], [2.0, 3.0, 4.0], 1.0, 2.0)


class TestPerturbationIdentity:
    def test_plain_pair(self):
        assert lemma2_residual([1.0, 2.0], 0.25, 1.5, 2.0) < 1e-6

    def test_degenerate_delta_zero(self):
        # theta1* = theta2* at delta 0: both sides vanish identically
        assert lemma2_residual([1.0, 1.0], 0.0, 1.0, 1.5) == 0.0

    def test_with_tail_convolution(self):
        g_tail = make_convolution(1.5, [0.7])
        assert lemma2_residual([1.0, 2.0], 0.25, 1.5, 3.5, g_tail=g_tail) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma2_residual([1.0, 2.0], -0.1, 1.5, 2.0)
        with pytest.raises(DomainError):
            lemma2_residual([1.0, 2.0], 0.9999, 1.5, 2.0)  # theta1 - delta - h <= 0
        with pytest.raises(DomainError):
            lemma2_residual([2.0, 1.0], 0.25, 1.5, 2.0)  # needs theta1 <= theta2
        with pytest.raises(DomainError):
            lemma2_residual([1.0, 2.0, 3.0], 0.25, 1.5, 2.0)
        with pytest.raises(DomainError):
            lemma2_residual([1.0, 2.0], 0.25, 1.5, -2.0)
