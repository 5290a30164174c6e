"""Tests of the benchmark's reference and of its correctness checks.

    python3 -m pytest -q bench

The reference must match mpmath; each workload's check must accept a true
output and reject a corrupted one.
"""

from __future__ import annotations

import copy

import mpmath as mp
import numpy as np
import pytest

import reference
from workloads import Certificate, Check, Distribution

mp.mp.dps = 25


def _mp_two_gamma_density(shapes, scales):
    """Density of b1 X1 + b2 X2 through Kummer's function:
    x^(rho-1) e^(-x/b1) 1F1(a2; rho; x (1/b1 - 1/b2)) / (Gamma(rho) b1^a1 b2^a2)."""
    (a1, a2), (b1, b2) = [tuple(map(mp.mpf, v)) for v in (shapes, scales)]
    rho = a1 + a2

    def f(x):
        return (x ** (rho - 1) * mp.exp(-x / b1) * mp.hyp1f1(a2, rho, x * (1 / b1 - 1 / b2))
                / (mp.gamma(rho) * b1 ** a1 * b2 ** a2))

    return f


def _mp_hypoexponential_density(scales):
    """Density of a sum of exponentials with distinct scales, in closed form."""
    rates = [1 / mp.mpf(b) for b in scales]

    def f(x):
        total = mp.mpf(0)
        for j, lj in enumerate(rates):
            c = mp.mpf(1)
            for i, li in enumerate(rates):
                if i != j:
                    c *= li / (li - lj)
            total += c * lj * mp.exp(-lj * x)
        return total

    return f


@pytest.mark.parametrize("shapes,scales", [((0.5, 0.5), (0.3, 1.0)),
                                           ((2.5, 1.5), (0.05, 1.0)),
                                           ((0.25, 0.25), (0.01, 1.0))])
def test_two_gammas_match_kummer_form(shapes, scales):
    ref = reference.Reference(shapes, scales)
    f = _mp_two_gamma_density(shapes, scales)
    mean = sum(a * b for a, b in zip(shapes, scales))
    for x in (0.1 * mean, mean, 4.0 * mean):
        value, magnitude = ref.density(x)
        assert abs(value[0] - float(f(mp.mpf(x)))) < 1e-13 * max(1.0, magnitude[0])
        assert abs(ref.cdf(x)[0] - float(mp.quad(f, [0, x]))) < 1e-13


def test_density_and_derivatives_match_closed_form():
    scales = (0.02, 0.4, 1.0)
    ref = reference.Reference((1.0, 1.0, 1.0), scales)
    f = _mp_hypoexponential_density(scales)
    for x in (0.05, 0.7, 3.0, 12.0):
        for order in (0, 1, 2):
            value, magnitude = ref.density(x, order)
            expected = mp.diff(f, mp.mpf(x), order)
            assert abs(value[0] - float(expected)) < 1e-13 * max(1.0, magnitude[0])
        # F = 1 - sum_j c_j e^{-x/b_j}: the CDF through the same closed form
        cdf = 1 - mp.quad(f, [x, mp.inf])
        assert abs(ref.cdf(x)[0] - float(cdf)) < 1e-13


def test_equal_scales_reduce_to_one_gamma():
    ref = reference.Reference((0.5, 0.5), (2.0, 2.0))
    for x in (0.1, 1.0, 5.0):
        assert ref.weights.tolist() == [1.0]
        assert abs(ref.cdf(x)[0] - float(mp.gammainc(1, 0, x / 2, regularized=True))) < 1e-15


# -- each workload's check rejects a corrupted output ------------------------


def _one(workload, inp):
    return inp, workload.collect(inp, workload.run(inp))


def _rejects(workload, inp, record, reason: str) -> bool:
    """The check fails, and for the reason the corruption should cause."""
    return any(reason in error for error in workload.check(inp, record))


def test_check_rejects_flipped_classification_and_shifted_crossing(tmp_path):
    wl = Check(seed=7, workdir=tmp_path)
    inp, record = _one(wl, wl.round()[5])
    assert wl.check(inp, record) == []

    rc, rep = record
    flipped = copy.deepcopy(rep)
    flipped["classification"] = "SINGLE_CROSSING_ABOVE"
    assert _rejects(wl, inp, (rc, flipped), "classification")

    shifted = copy.deepcopy(rep)
    x = float.fromhex(rep["crossings"][0]["x"])
    shifted["crossings"][0]["x"] = (x * 1.01).hex()
    assert _rejects(wl, inp, (rc, shifted), "reference D")


def test_certificate_check_rejects_shifted_crossing_and_flipped_direction(tmp_path):
    wl = Certificate(seed=0, workdir=tmp_path)
    inp, record = _one(wl, (0.5, None))
    assert wl.check(inp, record) == []

    verify_rc, cert = record
    shifted = copy.deepcopy(cert)
    xs = [float.fromhex(c["x"]) for c in cert["crossings"]]
    # move the middle crossing next to the last: D between them is then wrong
    shifted["crossings"][1]["x"] = (xs[2] * 0.999).hex()
    assert _rejects(wl, inp, (verify_rc, shifted), "reference D")

    flipped = copy.deepcopy(cert)
    flipped["crossings"][0]["direction"] = "+-"
    assert _rejects(wl, inp, (verify_rc, flipped), "directions")

    assert _rejects(wl, inp, (2, cert), "verify exit code")


def test_distribution_check_rejects_perturbed_cdf_density_and_quantile(tmp_path):
    wl = Distribution(seed=3, workdir=tmp_path)
    inp, record = _one(wl, wl.round()[0])
    assert wl.check(inp, record) == []

    err, cdf, dens, qs = record
    bad_cdf = cdf.copy()
    bad_cdf[len(cdf) // 2] += 1e-9
    assert _rejects(wl, inp, (err, bad_cdf, dens, qs), "cdf off")

    bad_dens = [d.copy() for d in dens]
    bad_dens[1][3] *= 1.0 + 1e-6
    assert _rejects(wl, inp, (err, cdf, bad_dens, qs), "density order 1")

    bad_qs = list(qs)
    bad_qs[2] *= 1.0 + 1e-6
    assert _rejects(wl, inp, (err, cdf, dens, bad_qs), "quantile(0.5)")


def test_distribution_rounds_cover_every_ratio_stratum(tmp_path):
    wl = Distribution(seed=11, workdir=tmp_path)
    inputs = wl.round()
    for alpha in wl.ALPHAS:
        strata = []
        for a, scales, _ in inputs:
            if a == alpha:
                lo, hi = np.log(wl.RATIO_MIN[alpha]), np.log(wl.RATIO_MAX)
                u = (np.log(min(scales) / max(scales)) - lo) / (hi - lo)
                strata.append(int(u * len(wl.NS)))
        assert sorted(strata) == list(range(len(wl.NS)))


def test_benchmark_json_names_what_the_runner_reports():
    import json
    from pathlib import Path

    import run
    from workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**run.PER_LAYER, "trace.overhead_pct": "%"}
