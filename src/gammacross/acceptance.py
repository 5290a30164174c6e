"""Self-test suite: ten numbered criteria covering the crossing engine,
the counterexample construction, and every supporting identity.

Each criterion returns (passed, detail); the table `_CRITERIA` holds its
name and runtime budget.  `run_criterion`, the one runner, times a criterion
and fails it over budget or on a GammaCrossError; `selftest` and the Tier-1
tests both call it.  Seeds are fixed so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .counterexample import build_counterexample, verify_certificate
from .crossing import Classification, sign_profile, u_star, h_diff, lemma2_residual
from .errors import GammaCrossError
from .gconv import GammaConvolution, ecdf_band, h1_closed, h2_closed, make_convolution
from .instances import (
    random_log_majorized_pair,
    random_majorized_pair,
    random_mixing_config,
    random_perturbation_config,
    random_v_majorized_pair,
)
from .mixtures import (
    bimodal_mixture,
    bimodality_window,
    exp_pair_logconcavity_sides,
    gamma_mixture,
    mode_structure,
)
from .orders import st_dominates, star_order_check, v_majorizes, v_majorizes_brute

__all__ = ["CriterionResult", "run_criterion", "run_selftest", "FAST_CRITERIA"]

FAST_CRITERIA = (1, 5, 6, 7, 10)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number} ({self.name}): {self.detail} [{self.elapsed:.1f}s]"


def _separated_pair(rng: np.random.Generator, sep: float = 0.10):
    # bounded away from the max-tie surface, where the last crossing escapes
    # into the far tail below any fixed certification tolerance
    while True:
        th, et = rng.uniform(0.2, 4.0, 2), rng.uniform(0.2, 4.0, 2)
        if abs(th.max() - et.max()) >= sep * max(th.max(), et.max()):
            return th, et


def criterion_1() -> tuple[bool, str]:
    """Three-component tie-at-the-top instance: no crossing, plain dominance."""
    theta, eta = [1.0, 6.0, 10.0], [4.0, 5.0, 10.0]
    rep = sign_profile(theta, eta, 1.0)
    gt = make_convolution(1.0, theta)
    ge = make_convolution(1.0, eta)
    dom = st_dominates(gt, ge, tol=1e-9)  # F_theta >= F_eta - 1e-9 pointwise
    ok = rep.classification is Classification.NO_CROSSING and dom
    detail = f"classification={rep.classification.name} dominance={dom}"
    return ok, detail


def criterion_2() -> tuple[bool, str]:
    """n=2 iff-oracle: single crossing from below iff the product drops and
    the max rises; equal-product log-majorized pairs never cross."""
    rng = np.random.default_rng(20260817)
    alphas = [0.5, 1.0, 2.0]
    undecided = mismatches = 0
    for i in range(500):
        a = alphas[i % 3]
        th, et = _separated_pair(rng)
        rep = sign_profile(th, et, a)
        want = bool(th.prod() < et.prod() and th.max() > et.max())
        if rep.classification is Classification.UNDECIDED:
            undecided += 1
        elif (rep.classification is Classification.SINGLE_CROSSING_BELOW) != want:
            mismatches += 1
    ep_bad = 0
    rng2 = np.random.default_rng(919)
    for i in range(30):
        th, et = random_log_majorized_pair(rng2, 2)
        rep = sign_profile(th, et, alphas[i % 3])
        if rep.classification is not Classification.NO_CROSSING:
            ep_bad += 1
    ok = mismatches == 0 and undecided < 5 and ep_bad == 0
    detail = (f"mismatches={mismatches}/500 undecided={undecided} "
              f"equal-product failures={ep_bad}/30")
    return ok, detail


def criterion_3() -> tuple[bool, str]:
    """Majorized pairs at shape >= 1 always cross exactly once, from below."""
    rng = np.random.default_rng(777)
    alphas = [1.0, 1.5, 2.0, 3.0]
    undecided = wrong = 0
    for i in range(200):
        a = alphas[i % 4]
        n = 3 + (i % 3)
        th, et = random_majorized_pair(rng, n)
        rep = sign_profile(th, et, a)
        if rep.classification is Classification.UNDECIDED:
            undecided += 1
        elif rep.classification is not Classification.SINGLE_CROSSING_BELOW:
            wrong += 1
    ok = wrong == 0 and undecided < 4
    detail = f"wrong={wrong}/200 undecided={undecided}"
    return ok, detail


def criterion_4() -> tuple[bool, str]:
    """Triple-crossing counterexamples below shape 1, verified at doubled
    resolution with margins far above engine error."""
    parts = []
    ok = True
    for a in (0.25, 0.5, 0.75):
        t1 = time.perf_counter()
        try:
            cert = build_counterexample(a)
        except GammaCrossError as exc:
            ok = False
            parts.append(f"a={a}: build failed ({exc})")
            continue
        rep = verify_certificate(cert)
        k = len(cert.crossings)
        min_margin = min(c.margin for c in cert.crossings)
        this_ok = rep.passed and k >= 3
        ok = ok and this_ok and (time.perf_counter() - t1) < 300.0
        parts.append(f"a={a}: k={k} min_margin={min_margin:.2e} verified={rep.passed}")
    return ok, "; ".join(parts)


def criterion_5() -> tuple[bool, str]:
    """Perturbation derivative identity: d/d-delta of the CDF equals the
    supplemented-density side, to finite-difference accuracy."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        th_star, delta, a, g_tail = random_perturbation_config(rng)
        comps = list(make_convolution(a, th_star).components)
        if g_tail is not None:
            comps += list(g_tail.components)
        full = GammaConvolution(tuple(comps))
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            x = full.quantile(p)
            worst = max(worst, lemma2_residual(th_star, delta, a, x, g_tail=g_tail))
    ok = worst < 1e-5
    return ok, f"worst relative residual={worst:.2e} over 20 configs x 5 points"


def criterion_6() -> tuple[bool, str]:
    """Exponential-pair and second-order closed forms match the engine;
    the exponential-pair log-concavity identity stays positive."""
    worst = 0.0
    for d in np.arange(0.1, 0.95, 0.1):
        d = round(float(d), 1)
        xs = np.linspace(0.02, 12.0, 100)
        g1 = make_convolution(1.0, [d, 1.0])
        g2 = make_convolution(2.0, [d, 1.0])
        worst = max(worst, float(np.max(np.abs(g1.density(xs) - h1_closed(d, xs)))))
        worst = max(worst, float(np.max(np.abs(g2.density(xs) - h2_closed(d, xs)))))
    min_rhs = math.inf
    worst_id = 0.0
    for d in np.arange(0.1, 0.95, 0.1):
        d = round(float(d), 1)
        eps = 1.0 / d - 1.0
        xs = np.geomspace(1e-6, min(40.0, 300.0 / eps), 160)
        for lam in (-2.0 * d + 0.01, 0.0, 1.0, 10.0):
            lhs, rhs = exp_pair_logconcavity_sides(eps, lam, xs)
            min_rhs = min(min_rhs, float(np.min(rhs)))
            rel = np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))
            worst_id = max(worst_id, float(rel))
    ok = worst < 1e-10 and min_rhs > 0.0 and worst_id < 1e-9
    detail = (f"closed-form max err={worst:.2e}; identity min value={min_rhs:.3g} "
              f"agreement={worst_id:.2e}")
    return ok, detail


def criterion_7() -> tuple[bool, str]:
    """Bimodality appears exactly below shape 1: every tuned mixture in the
    window is bimodal; above shape 1 no mixture weight produces two modes."""
    bad_low = 0
    for a in (0.3, 0.5, 0.7, 0.9):
        _, xq = bimodality_window(a)
        for x0 in np.linspace(0.02 * xq, 0.98 * xq, 24):
            _, s = bimodal_mixture(a, float(x0))
            # near the window edge the min/max pair coalesces; the derivative
            # dip narrows to ~4% of x0 at 0.98, needing the finer grid
            ms = mode_structure(s, (1e-10, a + 3.0), grid_size=4096)
            if not (ms.n_maxima == 2 and ms.n_minima == 1):
                bad_low += 1
    bad_high = 0
    for a in (1.0, 1.5, 2.0):
        lo_edge = 1e-10 if a <= 1.0 else 1e-6
        for lam in np.geomspace(1e-3, 1e3, 64):
            ms = mode_structure(gamma_mixture(a, lam), (lo_edge, (1.0 + a) * 8 + 20))
            if ms.n_maxima >= 2:
                bad_high += 1
    ok = bad_low == 0 and bad_high == 0
    detail = f"window failures={bad_low}/96; bimodal-above-one count={bad_high}/192"
    return ok, detail


def criterion_8() -> tuple[bool, str]:
    """Analytic CDF sits inside the 99% band of a million-sample eCDF."""
    rng = np.random.default_rng(88)
    alphas = [0.5, 1.0, 2.5]
    outside = 0
    worst_gap = -math.inf
    for i in range(20):
        a = alphas[i % 3]
        n = 2 + (i % 4)
        gc = make_convolution(a, rng.uniform(0.3, 3.0, n))
        samples = gc.sample(10 ** 6, np.random.SeedSequence(550000 + i))
        band = ecdf_band(samples)
        grid = np.unique(np.quantile(band.sorted_samples, np.linspace(0.0, 1.0, 20001)))
        sup = band.sup_deviation_bound(grid, gc.cdf(grid))
        worst_gap = max(worst_gap, sup - band.half_width)
        if sup > band.half_width:
            outside += 1
    ok = outside == 0
    detail = f"outside band={outside}/20; worst sup-minus-halfwidth={worst_gap:.2e}"
    return ok, detail


def criterion_9() -> tuple[bool, str]:
    """Order-theoretic routes: equal-product contraction dominance, the
    V-order with a product cap, witness search vs brute force, star order."""
    rng = np.random.default_rng(2718)
    l1_fail = v_fail = 0
    for i in range(50):
        n = 2 + (i % 3)
        a = [0.5, 1.0, 2.5][i % 3]
        th, et = random_log_majorized_pair(rng, n)
        if not st_dominates(make_convolution(a, et), make_convolution(a, th)):
            l1_fail += 1
    for i in range(50):
        n = 2 + (i % 3)
        a = [0.5, 1.0, 2.5][i % 3]
        th, et = random_v_majorized_pair(rng, n)
        if v_majorizes(th, et) is None:
            v_fail += 1
            continue
        if not st_dominates(make_convolution(a, et), make_convolution(a, th)):
            v_fail += 1
    rng2 = np.random.default_rng(1618)
    brute_mismatch = 0
    for i in range(50):
        n = 2 + (i % 3)
        th = np.sort(rng2.integers(1, 13, n) * 0.25)
        et = np.sort(rng2.integers(1, 13, n) * 0.25)
        if (v_majorizes(th, et) is not None) != v_majorizes_brute(th, et, 0.25):
            brute_mismatch += 1
    star_ok = star_order_check([1.0, 3.0], [1.0, 2.0], 1.0,
                               np.geomspace(0.25, 4.0, 16))
    ok = l1_fail == 0 and v_fail == 0 and brute_mismatch == 0 and star_ok
    detail = (f"contraction fails={l1_fail}/50 V-order fails={v_fail}/50 "
              f"brute mismatches={brute_mismatch}/50 star={star_ok}")
    return ok, detail


def criterion_10() -> tuple[bool, str]:
    """The two-component transform difference changes sign once, at the
    closed-form pivot."""
    rng = np.random.default_rng(31415)
    worst = 0.0
    bad_count = 0
    for i in range(100):
        th, et = random_mixing_config(rng)
        a = [0.5, 1.0, 2.0][i % 3]
        us = u_star(th, et)
        grid = np.linspace(th[0] + 1e-9, th[1] - 1e-9, 513)
        vals = h_diff(th, et, a, grid)
        sgn = np.sign(vals)
        nz = sgn[sgn != 0]
        if np.count_nonzero(nz[1:] != nz[:-1]) != 1:
            bad_count += 1
            continue
        flips = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0]
        if len(flips) != 1:
            bad_count += 1
            continue
        j = int(flips[0])
        loc = brentq(lambda u: h_diff(th, et, a, u), grid[j], grid[j + 1], xtol=_TINY)
        worst = max(worst, abs(loc - us))
    ok = bad_count == 0 and worst < 1e-8
    detail = f"multi-change configs={bad_count}/100; worst |location - pivot|={worst:.2e}"
    return ok, detail


_CRITERIA = {  # number: (name, budget in seconds, criterion)
    1: ("no-crossing dominance instance", 5.0, criterion_1),
    2: ("n=2 iff oracle", 120.0, criterion_2),
    3: ("majorized single crossing", 600.0, criterion_3),
    4: ("triple-crossing counterexamples", 900.0, criterion_4),
    5: ("perturbation identity", 60.0, criterion_5),
    6: ("closed forms and positivity identity", 60.0, criterion_6),
    7: ("bimodality map", 120.0, criterion_7),
    8: ("Monte Carlo consistency", 300.0, criterion_8),
    9: ("orders suite", 300.0, criterion_9),
    10: ("pivot localization", 120.0, criterion_10),
}


def run_criterion(number: int) -> CriterionResult:
    """Run criterion `number` under its budget: it fails if it takes the
    budget or longer, or if it raises a GammaCrossError."""
    name, budget, fn = _CRITERIA[number]
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except GammaCrossError as exc:
        # a broken engine must fail the criterion, not crash the suite
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        ok = False
        detail += f"; over budget ({elapsed:.1f}s >= {budget:.0f}s)"
    return CriterionResult(number, name, ok, detail, elapsed)


def run_selftest(fast: bool = False) -> int:
    """Run the criteria (only FAST_CRITERIA when fast), printing one line
    each and a verdict to stdout; exit code 0 if all pass, 4 otherwise."""
    results = []
    for number in FAST_CRITERIA if fast else _CRITERIA:
        res = run_criterion(number)
        results.append(res)
        print(res.line, flush=True)
    failed = [r for r in results if not r.passed]
    if failed:
        names = ", ".join(f"criterion {r.number}" for r in failed)
        print(f"selftest: FAIL ({names})", flush=True)
        return 4
    print(f"selftest: PASS ({len(results)} criteria)", flush=True)
    return 0
