"""Triple-crossing certificate construction, verification, and tampering."""

import dataclasses
import math

import numpy as np
import pytest

from gammacross.counterexample import (
    CounterexampleCertificate,
    _half_width,
    construction,
    build_counterexample,
    verify_certificate,
)
from gammacross.crossing import Classification, perturbation_root_window, sign_profile
from gammacross.densities import gamma_unit
from gammacross.errors import DomainError, SearchExhaustedError
from gammacross.mixtures import bimodality_window, lemma3_lambda
from gammacross.orders import majorizes


@pytest.fixture(scope="module")
def cert():
    return build_counterexample(0.5)


def clause_map(report):
    return {c.name: c.passed for c in report.clauses}


class TestBuild:
    def test_three_crossings_certified(self, cert):
        assert cert.n_crossings >= 3
        directions = [c.direction for c in cert.crossings]
        assert directions[0] == "-+"
        assert all(c.margin > 0.0 for c in cert.crossings)

    def test_construction_invariants(self, cert):
        eps = cert.eps
        assert cert.eta == (eps, eps, 1.0 + eps)
        assert math.fsum(cert.theta) == pytest.approx(3.0 * eps + 1.0, abs=5e-16)
        assert min(cert.theta) > 0.0
        assert majorizes(cert.theta, cert.eta)
        lp_t = math.fsum(math.log(v) for v in cert.theta)
        lp_e = math.fsum(math.log(v) for v in cert.eta)
        assert lp_t < lp_e

    def test_x0_and_window(self, cert):
        lo, hi = bimodality_window(cert.alpha)
        assert lo < cert.x0 < hi
        assert cert.x0 - cert.w > 0.0
        assert any(cert.x0 - cert.w < c.location < cert.x0 + cert.w
                   for c in cert.crossings)

    def test_half_width_brackets_the_minimum(self):
        # over the bimodality window: the mixture derivative is negative at
        # x0 - w, positive at x0 + w and zero at the next stationary point
        # a (1 - a) / (lam x0), relative to the size of its two terms
        for a in np.linspace(0.02, 0.98, 25):
            g_lo, g_hi = gamma_unit(a), gamma_unit(1.0 + a)
            for x0 in np.linspace(0.02, 0.98, 25) * bimodality_window(a)[1]:
                lam = lemma3_lambda(a, x0)
                w = _half_width(a, lam, x0)

                def terms(x):
                    return lam * float(g_hi.d1(x)), float(g_lo.d1(x))

                assert x0 - w > 0.0 and sum(terms(x0 - w)) < 0.0 < sum(terms(x0 + w))
                hi, lo = terms(a * (1.0 - a) / (lam * x0))
                assert abs(hi + lo) <= 1e-12 * (abs(hi) + abs(lo)), (a, x0)

    def test_explicit_delta_algebra(self):
        theta, eta, delta = construction(0.1, 5.0, delta=0.02)
        assert delta == 0.02
        assert theta == pytest.approx((0.08, 0.118, 1.102), abs=1e-15)
        assert eta == (0.1, 0.1, 1.1)

    def test_domain(self):
        for a in (1.0, 1.2, 0.0):
            with pytest.raises(DomainError):
                build_counterexample(a)
        with pytest.raises(DomainError):
            build_counterexample(0.5, x0=0.9)  # outside the bimodality window
        with pytest.raises(DomainError):
            build_counterexample(0.5, search_budget=0)

    def test_exhausted_budget_carries_best_report(self):
        with pytest.raises(SearchExhaustedError) as exc_info:
            build_counterexample(0.5, search_budget=1)
        assert exc_info.value.best is not None
        assert hasattr(exc_info.value.best, "classification")


class TestSerialization:
    def test_json_roundtrip_bit_exact(self, cert):
        text = cert.to_json()
        again = CounterexampleCertificate.from_json(text)
        assert again == cert
        assert again.to_json() == text

    def test_decimal_mirror_present(self, cert):
        import json

        raw = json.loads(cert.to_json())
        assert raw["decimal"]["alpha"] == cert.alpha
        assert raw["alpha"] == float(cert.alpha).hex()
        assert len(raw["crossings"]) == cert.n_crossings

    def test_decimal_string_fields_read_as_decimal(self, cert):
        import json

        def to_decimal(obj):
            if isinstance(obj, str) and obj.startswith("0x"):
                return repr(float.fromhex(obj))
            if isinstance(obj, dict):
                return {k: to_decimal(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return [to_decimal(v) for v in obj]
            return obj

        raw = to_decimal(json.loads(cert.to_json()))
        assert raw["alpha"] == "0.5"
        assert CounterexampleCertificate.from_json(json.dumps(raw)) == cert
        # only a 0x prefix means hex: "10" is ten, "0x10" sixteen
        raw["tolerances"]["grid_size"] = 10
        for text, want in (("10", 10.0), ("0x10", 16.0), ("-0x1p-1", -0.5)):
            raw["eps"] = text
            assert CounterexampleCertificate.from_json(json.dumps(raw)).eps == want

    def test_malformed_rejected(self):
        with pytest.raises(DomainError):
            CounterexampleCertificate.from_json("{}")
        with pytest.raises(DomainError):
            CounterexampleCertificate.from_json('{"alpha": "0x1.0p-1"}')
        with pytest.raises(DomainError):
            CounterexampleCertificate.from_json("not json")


class TestVerify:
    def test_all_clauses_pass(self, cert):
        rep = verify_certificate(cert)
        assert rep.passed
        cm = clause_map(rep)
        for name in ("lambda_matches", "majorization", "product_inequality",
                     "recount_classification", "crossing_locations",
                     "window_crossing", "margins"):
            assert cm[name], name
        assert "overall: PASS" in rep.summary()

    def test_swapped_vectors_fail_majorization(self, cert):
        tampered = dataclasses.replace(cert, theta=cert.eta, eta=cert.theta)
        rep = verify_certificate(tampered)
        assert not rep.passed
        cm = clause_map(rep)
        assert not cm["majorization"]
        assert not cm["product_inequality"]

    def test_perturbed_lambda_fails(self, cert):
        tampered = dataclasses.replace(cert, lam=cert.lam * (1.0 + 1e-6))
        rep = verify_certificate(tampered)
        assert not rep.passed
        assert not clause_map(rep)["lambda_matches"]

    def test_shifted_crossing_fails_location_clause(self, cert):
        moved = list(cert.crossings)
        moved[1] = dataclasses.replace(moved[1], location=moved[1].location + 0.01)
        tampered = dataclasses.replace(cert, crossings=tuple(moved))
        rep = verify_certificate(tampered)
        assert not rep.passed
        cm = clause_map(rep)
        assert not cm["crossing_locations"]
        assert cm["crossing_count"]


class TestStability:
    def test_smaller_eps_keeps_the_pattern(self, cert):
        # the construction is robust along eps: halving it (delta = eps / 4)
        # still certifies at least three crossings
        theta, eta, _ = construction(cert.eps / 2.0, cert.lam, delta=cert.eps / 4.0)
        rep = sign_profile(theta, eta, cert.alpha,
                           seed_window=perturbation_root_window(theta, cert.alpha))
        assert rep.classification is Classification.MULTI
        assert rep.n_crossings >= 3
