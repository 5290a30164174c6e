"""Command-line interface.

Exit codes are a contract: 0 determinate result, 1 usage or domain error,
2 undecided (or a certificate that failed verification), 3 construction
search exhausted, 4 selftest failure.  All float output is serialized as
hex-float strings so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ._domain import check_alpha, check_scan
from ._hexjson import dumps, hex_float, parse_float
from ._version import ENGINE_VERSION
from .acceptance import run_selftest
from .counterexample import (
    CounterexampleCertificate,
    build_counterexample,
    construction,
    verify_certificate,
)
from .crossing import (
    Classification,
    CrossingReport,
    perturbation_root_window,
    sign_profile,
)
from .errors import DomainError, GammaCrossError, SearchExhaustedError
from .gconv import make_convolution
from .instances import random_majorized_pair
from .orders import log_majorizes, majorizes, st_dominates, st_grid, v_majorizes

__all__ = ["main"]

_CSV_HEADER = "id,alpha,n,theta,eta,classification,k,crossings,margins,seed"


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 per the contract, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_vector(text: str) -> list[float]:
    vals = [parse_float(t) for t in text.split(",") if t.strip()]
    if not vals:
        raise DomainError("empty weight list")
    return vals


def _parse_counts(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise DomainError(f"cannot parse component counts {text!r}") from None


def _report_json(rep: CrossingReport, orders: dict) -> str:
    fields = {
        "alpha": rep.alpha,
        "theta": list(rep.theta),
        "eta": list(rep.eta),
        "window": list(rep.window),
        "error_estimate": rep.error_estimate,
        "crossings": [
            {"x": c.location, "direction": c.direction, "margin": c.margin}
            for c in rep.crossings
        ],
    }
    payload = {
        **fields,
        "command": "check",
        "engine_version": ENGINE_VERSION,
        "grid_size": rep.grid_size,
        "tol": rep.tol,
        "seed": None,
        "classification": rep.label,
        "sign_sequence": list(rep.sign_sequence),
        "near_zero": rep.near_zero,
        "tail": rep.tail,
        "notes": list(rep.notes),
        "orders": orders,
    }
    return dumps(payload, fields)


def _order_predicates(rep: CrossingReport) -> dict:
    th, et, a = list(rep.theta), list(rep.eta), rep.alpha
    gt = make_convolution(a, th)
    ge = make_convolution(a, et)
    grid = st_grid(gt, ge)
    return {
        "eta_majorized_by_theta": majorizes(th, et),
        "theta_majorized_by_eta": majorizes(et, th),
        "log_eta_majorized_by_log_theta": (
            all(v > 0 for v in th + et) and log_majorizes(th, et)),
        "log_theta_majorized_by_log_eta": (
            all(v > 0 for v in th + et) and log_majorizes(et, th)),
        "v_witness_theta_over_eta": v_majorizes(th, et) is not None,
        "theta_st_below_eta": st_dominates(gt, ge, grid=grid),
        "eta_st_below_theta": st_dominates(ge, gt, grid=grid),
    }


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    theta = _parse_vector(args.theta)
    eta = _parse_vector(args.eta)
    rep = sign_profile(theta, eta, args.alpha, grid_size=args.grid_size, tol=args.tol)
    print(f"classification: {rep.label}")
    print(f"sign sequence: {' '.join(rep.sign_sequence) or '(none)'}")
    for c in rep.crossings:
        print(f"crossing at x={c.location:.12g} direction {c.direction} "
              f"margin {c.margin:.3e}")
    print(f"near-zero sign: {rep.near_zero}   tail sign: {rep.tail}")
    for note in rep.notes:
        print(f"note: {note}")
    orders = _order_predicates(rep)
    for key, val in orders.items():
        print(f"{key}: {val}")
    if args.out:
        _write(_report_json(rep, orders), args.out)
        print(f"report written to {args.out}")
    return 2 if rep.classification is Classification.UNDECIDED else 0


def cmd_counterexample(args) -> int:
    if args.alpha >= 1.0:
        print("counterexample requires shape below 1: at or above 1 the "
              "difference of distribution functions crosses zero exactly once",
              file=sys.stderr)
        return 1
    try:
        cert = build_counterexample(args.alpha, x0=args.x0,
                                    search_budget=args.budget)
    except SearchExhaustedError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 3
    _write(cert.to_json(), args.out)
    if args.out:
        print(f"certificate written to {args.out}")
    print(f"classification MULTI({len(cert.crossings)}) at eps={cert.eps:.6g} "
          f"delta={cert.delta:.6g}")
    return 0


def cmd_verify(args) -> int:
    # undecodable bytes fail JSON parsing as a malformed certificate
    with open(args.cert, errors="replace") as fh:
        cert = CounterexampleCertificate.from_json(fh.read())
    rep = verify_certificate(cert, grid_factor=args.grid_factor,
                             tol_factor=args.tol_factor)
    print(rep.summary())
    return 0 if rep.passed else 2


def _sweep_trial(trial_id: int, alpha: float, n: int, seed: int, args, near_cert):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial_id,)))
    if near_cert is not None:
        eps = near_cert.eps * float(np.exp(rng.uniform(-0.25, 0.25)))
        delta = eps * float(rng.uniform(0.35, 0.65))
        if trial_id == 0:
            eps, delta = near_cert.eps, near_cert.delta
        theta, eta, _ = construction(eps, near_cert.lam, delta)
        seed_window = perturbation_root_window(theta, alpha)
    else:
        theta, eta = random_majorized_pair(rng, n)
        theta, eta = list(map(float, theta)), list(map(float, eta))
        seed_window = None
    try:
        rep = sign_profile(theta, eta, alpha, grid_size=args.grid_size,
                           tol=args.tol, seed_window=seed_window)
        label = rep.label
        k = rep.n_crossings
        xs = ";".join(hex_float(c.location) for c in rep.crossings)
        ms = ";".join(hex_float(c.margin) for c in rep.crossings)
    except GammaCrossError as exc:
        label, k, xs, ms = f"ERROR({type(exc).__name__})", 0, "", ""
    return ",".join([
        str(trial_id), hex_float(alpha), str(len(theta)),
        ";".join(hex_float(v) for v in theta), ";".join(hex_float(v) for v in eta),
        label, str(k), xs, ms, str(seed),
    ])


def cmd_sweep(args) -> int:
    alphas = [check_alpha(parse_float(t)) for t in args.alpha.split(",") if t.strip()]
    ns = _parse_counts(args.n)
    if not alphas or not ns or args.trials <= 0:
        print("sweep needs a nonempty alpha list, n list, and positive trial count",
              file=sys.stderr)
        return 1
    if args.seed < 0:
        raise DomainError(f"seed must be nonnegative, got {args.seed}")
    check_scan(args.grid_size, args.tol)
    near_cert = None
    if args.near_counterexample:
        if len(alphas) != 1 or alphas[0] >= 1.0:
            print("--near-counterexample needs a single alpha below 1",
                  file=sys.stderr)
            return 1
        if ns != [3]:
            print("--near-counterexample instances are 3-component", file=sys.stderr)
            return 1
        near_cert = build_counterexample(alphas[0])
    jobs = [(a, n) for a in alphas for n in ns for _ in range(args.trials)]
    lines = [_CSV_HEADER] + [_sweep_trial(tid, a, n, args.seed, args, near_cert)
                             for tid, (a, n) in enumerate(jobs)]
    _write("\n".join(lines) + "\n", args.out)
    print(f"sweep: {len(jobs)} rows, seed={args.seed}, grid_size={args.grid_size}, "
          f"tol={args.tol:.3g}, engine={ENGINE_VERSION}", file=sys.stderr)
    return 0


def cmd_selftest(args) -> int:
    return run_selftest(fast=args.fast)


def _build_parser() -> _Parser:
    p = _Parser(prog="gammacross",
                description="Crossing analysis for weighted sums of gamma variables")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="classify the sign changes of a CDF pair")
    c.add_argument("--alpha", type=parse_float, required=True,
                   help="common shape parameter")
    c.add_argument("--theta", required=True, help="comma-separated weights")
    c.add_argument("--eta", required=True, help="comma-separated weights")
    c.add_argument("--grid-size", type=int, default=2048)
    c.add_argument("--tol", type=parse_float, default=1e-8)
    c.add_argument("--out", help="write a JSON report here")
    c.set_defaults(fn=cmd_check)

    x = sub.add_parser("counterexample",
                       help="construct a triple-crossing certificate (shape < 1)")
    x.add_argument("--alpha", type=parse_float, required=True)
    x.add_argument("--x0", type=parse_float, default=None)
    x.add_argument("--budget", type=int, default=40)
    x.add_argument("--out", help="write the certificate JSON here")
    x.set_defaults(fn=cmd_counterexample)

    v = sub.add_parser("verify", help="re-verify a certificate from scratch")
    v.add_argument("--cert", required=True, help="certificate JSON path")
    v.add_argument("--grid-factor", type=int, default=2)
    v.add_argument("--tol-factor", type=parse_float, default=0.5)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("sweep", help="seeded randomized classification sweep (CSV)")
    s.add_argument("--alpha", required=True, help="comma-separated shape values")
    s.add_argument("--n", required=True, help="comma-separated component counts")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--grid-size", type=int, default=2048)
    s.add_argument("--tol", type=parse_float, default=1e-8)
    s.add_argument("--out", help="write CSV here (default stdout)")
    s.add_argument("--near-counterexample", action="store_true",
                   help="sample perturbations of a fresh certificate")
    s.set_defaults(fn=cmd_sweep)

    t = sub.add_parser("selftest", help="run the acceptance criteria")
    t.add_argument("--fast", action="store_true",
                   help="quick subset (about half a minute)")
    t.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except GammaCrossError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
