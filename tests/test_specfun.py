"""Special functions at the package's call sites against frozen tables.

Reference values were computed with mpmath at 50 decimal digits and are
embedded as literals so the tests never depend on another library's special
functions at runtime.  The package takes lnGamma, P(a, x) and the beta CDF
from scipy.special; each table is checked through the public function that
uses it: the density of one unit-scale gamma component (lnGamma and the
gamma density with its first two derivatives), that component's CDF (P),
and `h_diff` (the symmetric beta CDF).
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammacross.crossing import h_diff
from gammacross.errors import DomainError
from gammacross.gconv import make_convolution

# (a, lnGamma(a)); spans the reflection branch, the unit interval, and the
# large-argument regime where one ulp of the result is already ~1e-12
LGAMMA_TABLE = [
    (0.001, 6.907178885383853682512),
    (0.1, 2.25271265173420595987),
    (0.5, 0.5723649429247000870717),
    (0.99, 0.005854806764709776179307),
    (1.5, -0.1207822376352452223455),
    (7.5, 7.534364236758732955158),
    (120.3, 454.4602682773518342716),
    (550.0, 2918.219183933810365198),
    (1000.0, 5905.220423209181211826),
]

# (a, x, P(a, x)); both the series branch (x < a+1) and the continued fraction
P_TABLE = [
    (0.5, 1e-8, 0.0001128379163334248694862),
    (0.5, 0.207107, 0.4801616425551858976323),
    (0.5, 30.0, 0.9999999999999905142624),
    (2.5, 0.3, 0.01199675720590626651471),
    (10.0, 9.5, 0.4781739777627925891141),
    (0.1, 0.05, 0.7755386354510305767278),
    (100.0, 95.0, 0.3173568111697999998802),
]

# (a, x, I_x(a, a)); h_diff only needs the symmetric beta CDF
BETA_TABLE = [
    (2.0, 0.25, 0.15625),  # closed form x^2 (3 - 2x)
    (0.1, 0.3, 0.4628041861155520395214),
    (0.5, 0.01, 0.06376856085851984858279),
    (0.75, 0.999, 0.9955744970569399011563),
    (1.5, 0.9, 0.9479559806690860876519),
    (5.0, 0.75, 0.95107269287109375),
    (12.0, 0.4, 0.1636434406398926491813),
]

# (a, t, g, g', g'')
DENSITY_TABLE = [
    (0.5, 0.1, 1.614342258715361850513, -9.68605355229217110308, 138.8334342495211191441),
    (1.5, 2.0, 0.2159638660527522078023, -0.1619728995395641558517, 0.09448419139807909091349),
    (3.0, 0.5, 0.07581633246407917795047, 0.2274489973922375338514, 0.07581633246407917795047),
]


def unit_gamma(a: float):
    """The unit-scale gamma density g_a as an f(x, order)."""
    return make_convolution(a, [1.0]).density


def log_gamma(a: float, x: float = 1.0) -> float:
    """lnGamma(a) recovered from the unit gamma density's normalisation at x."""
    return (a - 1.0) * math.log(x) - x - math.log(float(unit_gamma(a)(x)))


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """P(a, x) as the CDF of one unit-scale gamma component."""
    return float(make_convolution(a, [1.0]).cdf(x))


def beta_cdf(a: float, x: float) -> float:
    """I_x(a, a) through h_diff: with theta = (0, 1) and eta = (1/2, 1/2),
    h_diff(u) = [u < 1/2] - I_{1-u}(a, a)."""
    u = 1.0 - x
    return (1.0 if u < 0.5 else 0.0) - h_diff([0.0, 1.0], [0.5, 0.5], a, u)


class TestLogGamma:
    def test_frozen_table(self):
        # abs 1e-13 is unattainable in float64 once lnGamma exceeds ~1e3, so
        # large rows are held to a few-ulp relative bound instead; x = a
        # keeps the density representable for every row
        for a, ref in LGAMMA_TABLE:
            got = log_gamma(a, a)
            assert abs(got - ref) <= 1e-13 or abs(got - ref) <= 5e-15 * abs(ref), (a, got, ref)

    def test_integer_factorials(self):
        for n in range(1, 15):
            assert_allclose(log_gamma(float(n)), math.log(math.factorial(n - 1)),
                            rtol=5e-15, atol=1e-14)

    def test_recurrence(self):
        # lnGamma(a+1) = lnGamma(a) + ln a
        rng = np.random.default_rng(101)
        for _ in range(200):
            a = float(rng.uniform(0.01, 50.0))
            assert_allclose(log_gamma(a + 1.0), log_gamma(a) + math.log(a),
                            rtol=1e-13, atol=1e-13)

    def test_domain(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                unit_gamma(bad)


class TestRegLowerIncGamma:
    def test_frozen_table(self):
        for a, x, ref in P_TABLE:
            assert_allclose(reg_lower_inc_gamma(a, x), ref, rtol=0, atol=1e-13, err_msg=f"{a},{x}")

    def test_exponential_reduction(self):
        # P(1, x) = 1 - e^-x
        for x in (0.01, 0.5, 1.0, 3.0, 10.0):
            assert_allclose(reg_lower_inc_gamma(1.0, x), -math.expm1(-x), rtol=1e-14)

    def test_edges_and_monotonicity(self):
        assert reg_lower_inc_gamma(2.5, 0.0) == 0.0
        vals = make_convolution(3.3, [1.0]).cdf(np.linspace(0.0, 40.0, 400))
        assert np.all(np.diff(vals) >= 0.0)
        assert 0.0 <= vals.min() and vals.max() <= 1.0

    def test_branch_seam(self):
        # P must stay continuous across the series/continued-fraction handoff
        a = 4.2
        lo = reg_lower_inc_gamma(a, a + 1.0 - 1e-9)
        hi = reg_lower_inc_gamma(a, a + 1.0 + 1e-9)
        assert abs(hi - lo) < 1e-8

    def test_domain(self):
        assert reg_lower_inc_gamma(1.0, -0.5) == 0.0
        for bad in (0.0, math.nan):
            with pytest.raises(DomainError):
                make_convolution(bad, [1.0])


class TestBetaCdf:
    def test_frozen_table(self):
        for a, x, ref in BETA_TABLE:
            assert_allclose(beta_cdf(a, x), ref, rtol=0, atol=1e-13, err_msg=f"{a},{x}")

    def test_clamped_limits(self):
        assert beta_cdf(2.0, -0.5) == 0.0
        assert beta_cdf(2.0, 0.0) == 0.0
        assert beta_cdf(2.0, 1.0) == 1.0
        assert beta_cdf(2.0, 1.7) == 1.0

    def test_symmetry(self):
        # I_x(a, a) = 1 - I_{1-x}(a, a)
        rng = np.random.default_rng(77)
        for _ in range(100):
            a = float(rng.uniform(0.2, 6.0))
            x = float(rng.uniform(0.01, 0.99))
            assert_allclose(beta_cdf(a, x), 1.0 - beta_cdf(a, 1.0 - x), rtol=0, atol=2e-14)

    def test_uniform_reduction(self):
        for x in (0.1, 0.37, 0.9):
            assert_allclose(beta_cdf(1.0, x), x, rtol=1e-14)

    def test_domain(self):
        for bad in (0.0, -2.0):
            with pytest.raises(DomainError):
                beta_cdf(bad, 0.5)


class TestGammaDensity:
    def test_frozen_table(self):
        for a, t, g, g1, g2 in DENSITY_TABLE:
            f = unit_gamma(a)
            assert_allclose(f(t, 0), g, rtol=5e-14)
            assert_allclose(f(t, 1), g1, rtol=5e-14)
            assert_allclose(f(t, 2), g2, rtol=5e-14)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = float(rng.uniform(0.4, 5.0))
            t = float(rng.uniform(0.2, 6.0))
            h = 1e-6 * max(1.0, t)
            f = unit_gamma(a)
            fd1 = (f(t + h, 0) - f(t - h, 0)) / (2.0 * h)
            assert_allclose(f(t, 1), fd1, rtol=5e-8, atol=1e-10)
            fd2 = (f(t + h, 1) - f(t - h, 1)) / (2.0 * h)
            assert_allclose(f(t, 2), fd2, rtol=5e-7, atol=1e-9)

    def test_mode_stationarity(self):
        # g_a'(a - 1) = 0 for a > 1
        for a in (1.5, 2.0, 4.0):
            assert float(unit_gamma(a)(a - 1.0, 1)) == pytest.approx(0.0, abs=1e-16)
