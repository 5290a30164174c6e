"""Construction and verification of triple-crossing certificates.

For shape alpha in (0, 1), CDFs of majorized gamma convolutions can cross
three times.  The construction plants the minimum of the bimodal mixture
lam g_{1+alpha} + g_alpha at x0, with the closed-form weight

    lam = alpha (x0 + 1 - alpha) / (x0 (alpha - x0)),

whose next stationary point is alpha (1 - alpha) / (lam x0).  The window
half-width w is half the distance from x0 to that point, halved again while
x0 - w <= 0.  The construction then compares

    theta = (eps - delta, eps + delta - lam delta^2, 1 + eps + lam delta^2)
    eta   = (eps, eps, 1 + eps),         delta = eps / 2

which satisfy eta Majorized-by theta with prod(theta) < prod(eta), so
D = F_eta - F_theta is negative near 0 and positive in the far tail; for
eps small enough the delta-perturbation derivative transfers the mixture's
shape to D and forces a middle sign change inside (x0 - w, x0 + w), giving
the certified pattern -, +, -, +.  The search halves eps until the scan
certifies at least three crossings with one inside the window.

Certificates serialize to JSON with hex-float fields (bit-exact round trip)
plus a decimal mirror for human reading.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ._hexjson import dumps, parse_float
from ._version import ENGINE_VERSION
from .crossing import (Classification, Crossing, CrossingReport,
                       perturbation_root_window, sign_profile)
from .errors import DomainError, SearchExhaustedError
from .mixtures import bimodality_window, lemma3_lambda
from .orders import majorizes

__all__ = [
    "CounterexampleCertificate",
    "construction",
    "build_counterexample",
    "ClauseResult",
    "VerificationReport",
    "verify_certificate",
]

_DEFAULT_BUDGET = 40


@dataclass(frozen=True)
class CounterexampleCertificate:
    alpha: float
    lam: float
    x0: float
    w: float
    eps: float
    delta: float
    theta: tuple[float, float, float]
    eta: tuple[float, float, float]
    crossings: tuple[Crossing, ...]
    tol: float
    grid_size: int
    engine_version: str = ENGINE_VERSION

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def to_json(self) -> str:
        fields = {
            "alpha": self.alpha, "lambda": self.lam, "x0": self.x0, "w": self.w,
            "eps": self.eps, "delta": self.delta,
            "theta": list(self.theta), "eta": list(self.eta),
            "crossings": [
                {"x": c.location, "direction": c.direction, "margin": c.margin}
                for c in self.crossings
            ],
        }
        payload = {**fields, "tolerances": {"tol": self.tol, "grid_size": self.grid_size},
                   "engine_version": self.engine_version}
        return dumps(payload, {**fields, "tol": self.tol})

    @classmethod
    def from_json(cls, text: str) -> "CounterexampleCertificate":
        try:
            raw = json.loads(text)
            crossings = tuple(
                Crossing(parse_float(c["x"]), str(c["direction"]), parse_float(c["margin"]))
                for c in raw["crossings"])
            return cls(
                alpha=parse_float(raw["alpha"]),
                lam=parse_float(raw["lambda"]),
                x0=parse_float(raw["x0"]),
                w=parse_float(raw["w"]),
                eps=parse_float(raw["eps"]),
                delta=parse_float(raw["delta"]),
                theta=tuple(parse_float(v) for v in raw["theta"]),
                eta=tuple(parse_float(v) for v in raw["eta"]),
                crossings=crossings,
                tol=parse_float(raw["tolerances"]["tol"]),
                grid_size=int(raw["tolerances"]["grid_size"]),
                engine_version=str(raw.get("engine_version", ENGINE_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed certificate: {exc}") from exc


def construction(eps: float, lam: float, delta: float | None = None,
                 ) -> tuple[tuple[float, float, float],
                            tuple[float, float, float], float]:
    """(theta, eta, delta) of the construction at (eps, lam); delta
    defaults to eps / 2."""
    if delta is None:
        delta = eps / 2.0
    theta = (eps - delta,
             eps + delta - lam * delta * delta,
             1.0 + eps + lam * delta * delta)
    eta = (eps, eps, 1.0 + eps)
    return theta, eta, delta


def build_counterexample(alpha: float, x0: float | None = None,
                         search_budget: int = _DEFAULT_BUDGET,
                         grid_size: int = 2048, tol: float = 1e-8) -> CounterexampleCertificate:
    """Search decreasing eps for a certified triple crossing at shape alpha.

    Raises DomainError outside 0 < alpha < 1 (no such pattern exists at or
    above shape 1) and SearchExhaustedError if the budget runs out; the
    exception's `best` carries the closest report seen.
    """
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise DomainError(
            f"triple crossings require 0 < alpha < 1 (CDF pairs cross once for alpha >= 1), "
            f"got {alpha!r}")
    if search_budget < 1:
        raise DomainError("search_budget must be at least 1")
    w_lo, w_hi = bimodality_window(a)
    x0v = 0.5 * w_hi if x0 is None else float(x0)
    if not (w_lo < x0v < w_hi):
        raise DomainError(f"x0 must lie inside the bimodality window ({w_lo}, {w_hi})")
    lam = lemma3_lambda(a, x0v)
    w = _half_width(a, lam, x0v)

    eps = min(1.0 / (2.0 * lam), 0.25)
    best: CrossingReport | None = None
    for _ in range(int(search_budget)):
        theta, eta, delta = construction(eps, lam)
        if min(theta) <= 0.0 or not majorizes(theta, eta):
            eps /= 2.0
            continue
        rep = sign_profile(theta, eta, a, grid_size=grid_size, tol=tol,
                           seed_window=perturbation_root_window(theta, a))
        if (rep.classification is Classification.MULTI and rep.n_crossings >= 3
                and any(x0v - w < c.location < x0v + w for c in rep.crossings)):
            return CounterexampleCertificate(
                alpha=a, lam=lam, x0=x0v, w=w, eps=eps, delta=delta,
                theta=theta, eta=eta, crossings=rep.crossings,
                tol=tol, grid_size=grid_size)
        if best is None or rep.n_crossings > best.n_crossings:
            best = rep
        eps /= 2.0
    raise SearchExhaustedError(
        f"no certified triple crossing within {search_budget} trials at alpha={a}", best=best)


def _half_width(alpha: float, lam: float, x0: float) -> float:
    """The window half-width w of the module docstring; the mixture's
    derivative is negative at x0 - w and positive at x0 + w."""
    w = 0.5 * (alpha * (1.0 - alpha) / (lam * x0) - x0)
    while x0 - w <= 0.0:
        w /= 2.0
    return w


@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def summary(self) -> str:
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
                 for c in self.clauses]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_certificate(cert: CounterexampleCertificate, grid_factor: int = 2,
                       tol_factor: float = 0.5) -> VerificationReport:
    """Re-derive every clause of a certificate at raised resolution.

    Checks the parameter algebra, positivity, majorization, the product
    inequality, and re-certifies the crossing pattern at `grid_factor` times
    the grid and `tol_factor` times the tolerance; crossing locations must
    reproduce, one crossing must sit inside (x0 - w, x0 + w), and every
    margin must exceed 100x the engine error estimate.
    """
    clauses: list[ClauseResult] = []

    def clause(name: str, passed: bool, detail: str):
        clauses.append(ClauseResult(name, bool(passed), detail))

    a = cert.alpha
    ok_alpha = 0.0 < a < 1.0
    clause("shape_range", ok_alpha, f"alpha={a}")
    if not ok_alpha:
        return VerificationReport(tuple(clauses))

    w_lo, w_hi = bimodality_window(a)
    clause("x0_in_window", w_lo < cert.x0 < w_hi,
           f"x0={cert.x0:.12g} window=({w_lo:.12g}, {w_hi:.12g})")
    lam_ref = lemma3_lambda(a, cert.x0)
    clause("lambda_matches", abs(cert.lam - lam_ref) <= 1e-9 * max(1.0, abs(lam_ref)),
           f"lambda={cert.lam!r} recomputed={lam_ref!r}")
    clause("window_halfwidth", 0.0 < cert.w and cert.x0 - cert.w > 0.0,
           f"w={cert.w:.12g}")
    clause("eps_delta", 0.0 < cert.delta < cert.eps < 1.0 / cert.lam,
           f"eps={cert.eps!r} delta={cert.delta!r} 1/lambda={1.0 / cert.lam!r}")

    theta_ref, eta_ref, _ = construction(cert.eps, cert.lam, cert.delta)
    vec_ok = (all(_close_ulp(x, y) for x, y in zip(theta_ref, cert.theta))
              and all(_close_ulp(x, y) for x, y in zip(eta_ref, cert.eta)))
    clause("vector_algebra", vec_ok and min(cert.theta) > 0.0,
           f"theta={cert.theta!r} eta={cert.eta!r}")

    clause("majorization", majorizes(cert.theta, cert.eta)
           and sorted(cert.theta) != sorted(cert.eta), "eta majorized by theta, not equal")
    lp_t = math.fsum(math.log(v) for v in cert.theta)
    lp_e = math.fsum(math.log(v) for v in cert.eta)
    clause("product_inequality", lp_t < lp_e - 1e-12,
           f"log prod theta={lp_t:.12g} log prod eta={lp_e:.12g}")

    rep = sign_profile(cert.theta, cert.eta, a,
                       grid_size=cert.grid_size * max(1, int(grid_factor)),
                       tol=cert.tol * float(tol_factor),
                       seed_window=perturbation_root_window(cert.theta, a))
    clause("recount_classification",
           rep.classification is Classification.MULTI and rep.n_crossings >= 3,
           f"classification={rep.label}")
    clause("crossing_count", rep.n_crossings == cert.n_crossings,
           f"recount={rep.n_crossings} certificate={cert.n_crossings}")
    matched = all(
        any(c.direction == r.direction
            and abs(c.location - r.location) <= 5e-5 * max(1.0, abs(r.location))
            for r in rep.crossings)
        for c in cert.crossings)
    clause("crossing_locations", matched,
           "certificate crossings reproduced at doubled resolution")
    clause("window_crossing",
           any(cert.x0 - cert.w < r.location < cert.x0 + cert.w for r in rep.crossings),
           f"middle crossing inside ({cert.x0 - cert.w:.9g}, {cert.x0 + cert.w:.9g})")
    if rep.crossings:
        min_margin = min(r.margin for r in rep.crossings)
        clause("margins", min_margin > 100.0 * rep.error_estimate,
               f"min margin={min_margin:.6g} engine error={rep.error_estimate:.6g}")
    else:
        clause("margins", False, "no crossings to measure")
    return VerificationReport(tuple(clauses))


def _close_ulp(a: float, b: float, ulps: float = 8.0) -> bool:
    return abs(a - b) <= ulps * max(math.ulp(abs(a)), math.ulp(abs(b)), 5e-324)
