"""Majorization variants, the V-order witness search, and stochastic checks."""

import numpy as np
import pytest

from gammacross.errors import DomainError, UndecidedError
from gammacross.gconv import make_convolution
from gammacross.instances import random_log_majorized_pair, random_majorized_pair
from gammacross.orders import (
    log_majorizes,
    majorizes,
    st_dominates,
    star_order_check,
    v_majorizes,
    v_majorizes_brute,
)


class TestMajorizes:
    def test_spread_beats_contraction(self):
        assert majorizes([0.05, 0.1475, 1.1025], [0.1, 0.1, 1.1])
        assert not majorizes([0.1, 0.1, 1.1], [0.05, 0.1475, 1.1025])

    def test_reflexive_and_permutation_blind(self):
        assert majorizes([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])

    def test_unequal_totals_fail(self):
        assert not majorizes([1.0, 6.0, 10.0], [4.0, 5.0, 10.0])

    def test_partial_sum_violation(self):
        # equal totals but the largest entry drops: 4 < 5
        assert not majorizes([4.0, 4.0, 1.0], [5.0, 2.0, 2.0])

    def test_transitive_over_random_chains(self):
        rng = np.random.default_rng(808)
        for _ in range(30):
            a, b = random_majorized_pair(rng, 4)
            # contract b once more so a >= b >= c in the majorization order
            t = rng.uniform(0.2, 0.8)
            c = (1.0 - t) * b + t * b.mean()
            assert majorizes(a, b) and majorizes(b, c) and majorizes(a, c)

    def test_domain(self):
        with pytest.raises(DomainError):
            majorizes([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            majorizes([], [])
        with pytest.raises(DomainError):
            majorizes([1.0, -1.0], [0.0, 0.0])


class TestLogMajorizes:
    def test_equal_product_spread(self):
        assert log_majorizes([1.0, 4.0], [2.0, 2.0])
        assert not log_majorizes([2.0, 2.0], [1.0, 4.0])

    def test_unequal_products_fail_strict(self):
        assert not log_majorizes([1.0, 4.0], [2.0, 3.0])

    def test_positivity_domain(self):
        with pytest.raises(DomainError):
            log_majorizes([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            log_majorizes([1.0, 1.0], [0.0, 1.0])


class TestVMajorizes:
    def test_plain_majorization_returns_theta_itself(self):
        w = v_majorizes([0.05, 0.1475, 1.1025], [0.1, 0.1, 1.1])
        assert w is not None
        assert w.vector == (0.05, 0.1475, 1.1025)
        assert (w.k1, w.k2) == (0, 4)

    def test_witness_invariants(self):
        theta = np.array([0.5, 2.0, 3.5])
        eta = np.array([1.0, 2.0, 2.5])
        w = v_majorizes(theta, eta)
        assert w is not None
        v = np.asarray(w.vector)
        n = v.size
        assert np.all(np.diff(v) >= -1e-12)
        assert majorizes(v, eta)
        for i in range(n):
            pos = i + 1
            if pos <= w.k1:
                assert theta[i] <= v[i] + 1e-12 and v[i] <= eta[i] + 1e-12
            if w.k1 < pos < w.k2:
                assert v[i] == pytest.approx(theta[i], abs=1e-12)
            if pos >= w.k2:
                assert theta[i] >= v[i] - 1e-12 and v[i] >= eta[i] - 1e-12

    def test_shrunk_head_grown_tail(self):
        assert v_majorizes([1.0, 1.0, 4.0], [2.0, 2.0, 2.0]) is not None

    def test_no_witness_when_eta_spreads(self):
        assert v_majorizes([2.0, 2.0, 2.0], [1.0, 1.0, 4.0]) is None

    def test_agrees_with_brute_force_on_lattice(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            th = np.sort(rng.integers(1, 9, 3) * 0.25)
            et = np.sort(rng.integers(1, 9, 3) * 0.25)
            fast = v_majorizes(th, et) is not None
            assert fast == v_majorizes_brute(th, et, 0.25), (th, et)

    def test_domain(self):
        with pytest.raises(DomainError):
            v_majorizes([1.0, 2.0], [1.0])
        with pytest.raises(DomainError):
            v_majorizes_brute([1.0] * 5, [1.0] * 5, 0.25)
        with pytest.raises(DomainError):
            v_majorizes_brute([1.0, 2.0], [1.0, 2.0], 0.0)


class TestStDominates:
    def test_tie_at_top_pair(self):
        gt = make_convolution(1.0, [1.0, 6.0, 10.0])
        ge = make_convolution(1.0, [4.0, 5.0, 10.0])
        assert st_dominates(gt, ge, tol=1e-9)
        assert not st_dominates(ge, gt, tol=1e-9)

    def test_identical(self):
        gc = make_convolution(0.5, [0.7, 1.3])
        assert st_dominates(gc, gc, tol=0.0 + 1e-15)

    def test_equal_product_contractions(self):
        rng = np.random.default_rng(99)
        for i in range(10):
            a = [0.5, 1.0, 2.5][i % 3]
            th, et = random_log_majorized_pair(rng, 2 + (i % 3))
            assert st_dominates(make_convolution(a, et), make_convolution(a, th),
                                tol=1e-8)


class TestStarOrderCheck:
    def test_scale_family_single_crossing(self):
        cs = np.geomspace(0.25, 4.0, 16)
        assert star_order_check([1.0, 3.0], [1.0, 2.0], 1.0, cs)

    def test_equal_pair(self):
        assert star_order_check([1.0, 2.0], [1.0, 2.0], 1.0, [0.5, 1.0, 2.0])

    def test_reversed_roles_fail(self):
        cs = np.geomspace(0.25, 4.0, 16)
        assert not star_order_check([1.0, 2.0], [1.0, 3.0], 1.0, cs)

    def test_undecided_scan_raises(self):
        # theta / c for c just above 1 is eta shrunk by 1e-10, so |D| stays
        # below the scan tolerance and no sign is certified anywhere
        with pytest.raises(UndecidedError, match="undecided at c=1.0000000001"):
            star_order_check([1.0, 3.0], [1.0, 3.0], 1.0, [1.0 + 1e-10])

    def test_domain(self):
        with pytest.raises(DomainError):
            star_order_check([1.0, 3.0], [1.0, 2.0], 1.0, [0.5, 0.0])
        with pytest.raises(DomainError):
            star_order_check([1.0, 3.0], [1.0, 2.0], 1.0, [-1.0])
