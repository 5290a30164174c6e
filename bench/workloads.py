"""The benchmark's workloads: seeded inputs, the timed operation, and the
correctness check of each output against `reference` and the paper.

A workload hands out its inputs one round at a time.  A run attempts whole
rounds only, so every run attempts the same mix of operations.  For each
input the runner times `run`, then calls `collect` (untimed) to read the
output and `check` (after the timed phase) to judge it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference
from gammacross import cli, gconv
from gammacross.instances import random_majorized_pair


class OperationFailed(Exception):
    """The program raised no exception but reported failure (exit code)."""


def _hex_list(values) -> str:
    return ",".join(float(v).hex() for v in values)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# Inputs are kept to a mean series index of at most MU_MAX.  Higher up the
# engine's weight sum can stall short of its tail target, and the series
# build then fails after 100,000 terms (see CHANGES.md).  In 40,000 seeded
# convolutions no failure was seen below a mean index of 145.
MU_MAX = 64.0


def mean_index(alpha: float, scales) -> float:
    """Mean index alpha * sum_j (beta_j / beta_1 - 1) of the Moschopoulos
    weights; the engine's series needs about this many terms and more."""
    low = min(scales)
    return alpha * math.fsum(b / low - 1.0 for b in scales)


def _take_json(path: Path):
    """Read an operation's output file and remove it, so that an operation
    that writes nothing cannot pass with the previous one's output."""
    text = path.read_text()
    path.unlink()
    return json.loads(text)


def _require_rc(rc: int, text: str, allowed=(0,)) -> None:
    if rc not in allowed:
        raise OperationFailed(f"exit code {rc}: {text.strip()[-300:]}")


class Check:
    """`gammacross check --out` on seeded majorized pairs, alpha >= 1.

    A round is one fresh pair per (n, alpha) cell, so each round has the
    same mix of sizes and shapes.  Pairs with a mean series index above
    MU_MAX are drawn again.
    """

    name = "check"
    tail_percentile = 90
    CELLS = [(n, a) for n in (2, 3, 5, 8) for a in (1.0, 1.5, 2.0, 3.0)]
    OFFSET = 1e-4  # the reference D is probed at x (1 -/+ OFFSET)

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.out = workdir / "check.json"

    def warmup(self):
        return 1.5, (0.5, 1.25, 3.0), (1.0, 1.5, 2.25)

    def round(self):
        inputs = []
        for n, alpha in self.CELLS:
            theta, eta = random_majorized_pair(self.rng, n)
            while max(mean_index(alpha, theta), mean_index(alpha, eta)) > MU_MAX:
                theta, eta = random_majorized_pair(self.rng, n)
            inputs.append((alpha, tuple(map(float, theta)), tuple(map(float, eta))))
        return inputs

    def run(self, inp):
        alpha, theta, eta = inp
        return _cli(["check", "--alpha", alpha.hex(), "--theta", _hex_list(theta),
                     "--eta", _hex_list(eta), "--out", str(self.out)])

    def collect(self, inp, raw):
        rc, text = raw
        _require_rc(rc, text, allowed=(0, 2))  # 2: UNDECIDED, judged by check
        return rc, _take_json(self.out)

    def check(self, inp, record) -> list[str]:
        alpha, theta, eta = inp
        rc, rep = record
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc}")
        if rep["theta"] != [v.hex() for v in theta] or rep["eta"] != [v.hex() for v in eta]:
            errors.append("report is for other weights than were given")
        # alpha >= 1 and eta majorized by theta: exactly one crossing, from below
        if rep["classification"] != "SINGLE_CROSSING_BELOW":
            errors.append(f"classification {rep['classification']}")
        if rep["orders"]["eta_majorized_by_theta"] is not True:
            errors.append("eta_majorized_by_theta is not true")
        if len(rep["crossings"]) != 1 or rep["crossings"][0]["direction"] != "-+":
            errors.append(f"crossings {rep['crossings']}")
            return errors
        x = float.fromhex(rep["crossings"][0]["x"])
        d = reference.difference(alpha, theta, eta, [x * (1 - self.OFFSET), x * (1 + self.OFFSET)])
        if not (d[0] < 0.0 < d[1]):
            errors.append(f"reference D around x={x!r} is {d.tolist()}, not -,+")
        return errors


def window_top(alpha: float) -> float:
    """Upper end of the bimodality window of x0: sqrt(1 - alpha) - (1 - alpha)."""
    return math.sqrt(1.0 - alpha) - (1.0 - alpha)


class Certificate:
    """`gammacross counterexample --out` then `verify --cert`: one operation.

    Fixed inputs: the default x0 at each alpha, and an x0 nearer the top of
    the bimodality window (given as a fraction of it), where the series is
    about twice as long.  The seed only orders each round.
    """

    name = "certificate"
    tail_percentile = 50  # 6 operations a round: too few for a tail
    INPUTS = [(0.25, None), (0.5, None), (0.75, None), (0.25, 0.55), (0.5, 0.65), (0.75, 0.70)]

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.out = workdir / "cert.json"

    def warmup(self):
        return 0.5, None

    def round(self):
        return [self.INPUTS[i] for i in self.rng.permutation(len(self.INPUTS))]

    def run(self, inp):
        alpha, frac = inp
        argv = ["counterexample", "--alpha", alpha.hex(), "--out", str(self.out)]
        if frac is not None:
            argv += ["--x0", (frac * window_top(alpha)).hex()]
        made = _cli(argv)
        if made[0] != 0:
            return made, None
        return made, _cli(["verify", "--cert", str(self.out)])

    def collect(self, inp, raw):
        (rc, text), verified = raw
        _require_rc(rc, text)
        return verified[0], _take_json(self.out)

    def check(self, inp, record) -> list[str]:
        alpha, frac = inp
        verify_rc, cert = record
        errors = []
        if verify_rc != 0:
            errors.append(f"verify exit code {verify_rc}")
        if float.fromhex(cert["alpha"]) != alpha:
            errors.append(f"certificate alpha {cert['alpha']}")
        if frac is not None and float.fromhex(cert["x0"]) != frac * window_top(alpha):
            errors.append(f"certificate x0 {cert['x0']}")
        theta = [float.fromhex(v) for v in cert["theta"]]
        eta = [float.fromhex(v) for v in cert["eta"]]
        errors += _triple_crossing_pair_errors(theta, eta)
        xs = [float.fromhex(c["x"]) for c in cert["crossings"]]
        dirs = [c["direction"] for c in cert["crossings"]]
        if len(xs) < 3:
            errors.append(f"{len(xs)} crossings")
        if dirs != ["-+" if i % 2 == 0 else "+-" for i in range(len(dirs))]:
            errors.append(f"directions {dirs} do not alternate from -+")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            errors.append("crossings are not increasing")
            return errors
        # between crossings i and i+1 the certified sign is the one i turns to
        probes, expected = [], []
        for i, (a, b) in enumerate(zip(xs, xs[1:])):
            for f in (0.25, 0.5, 0.75):
                probes.append(a ** (1.0 - f) * b ** f)
                expected.append(1.0 if dirs[i] == "-+" else -1.0)
        d = reference.difference(alpha, theta, eta, probes)
        for x, want, got in zip(probes, expected, d):
            if np.sign(got) != want:
                errors.append(f"reference D({x!r}) = {got!r}, certified sign {want:+.0f}")
        return errors


def _triple_crossing_pair_errors(theta, eta) -> list[str]:
    """The paper's conditions on a triple-crossing pair, recomputed here:
    eta majorized by theta, prod(theta) < prod(eta), max(theta) > max(eta)."""
    errors = []
    t, e = sorted(theta, reverse=True), sorted(eta, reverse=True)
    if len(t) != len(e) or min(t) <= 0.0 or min(e) <= 0.0:
        return ["weights must be positive vectors of equal length"]
    tol = 1e-12 * max(1.0, math.fsum(t))
    partial = [math.fsum(t[:i + 1]) - math.fsum(e[:i + 1]) for i in range(len(t))]
    if abs(partial[-1]) > tol or min(partial) < -tol or t == e:
        errors.append(f"eta is not strictly majorized by theta: {theta} {eta}")
    if not math.fsum(map(math.log, t)) < math.fsum(map(math.log, e)):
        errors.append("prod(theta) is not below prod(eta)")
    if not t[0] > e[0]:
        errors.append("max(theta) is not above max(eta)")
    return errors


class Distribution:
    """Library use of one convolution: build, cdf and density (orders 0-2)
    on a 2048-point grid, then quantiles.

    A round is one convolution per (n, alpha) cell.  The smallest-to-largest
    scale ratio is log-uniform on [RATIO_MIN[alpha], 0.5], stratified: at
    each alpha a round draws one ratio from each of len(NS) equal strata of
    log-ratio, assigned to the n in a random order, so every round has the
    same spread of series lengths.
    The other scales are log-uniform between the two, pulled towards the
    smallest where needed to keep the mean series index within MU_MAX.
    """

    name = "distribution"
    tail_percentile = 90
    ALPHAS = (0.5, 1.0, 2.5)
    NS = tuple(range(2, 9))
    # the largest scale alone then takes about three quarters of MU_MAX
    RATIO_MIN = {0.5: 0.01, 1.0: 0.02, 2.5: 0.05}
    RATIO_MAX = 0.5
    GRID = 2048
    PS = (1e-9, 0.01, 0.5, 0.99, 1.0 - 1e-9)
    CHECKED = np.r_[0:GRID:32, GRID - 1]  # grid points compared with the reference

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)

    def warmup(self):
        return self._input(3, 1.0, 0.5, np.random.default_rng(0))

    def round(self):
        inputs = []
        for alpha in self.ALPHAS:
            strata = self.rng.permutation(len(self.NS))
            for n, s in zip(self.NS, strata):
                u = (s + self.rng.uniform()) / len(self.NS)
                inputs.append(self._input(n, alpha, u, self.rng))
        return inputs

    def _input(self, n, alpha, u, rng):
        lo, hi = math.log(self.RATIO_MIN[alpha]), math.log(self.RATIO_MAX)
        ratio = math.exp(lo + u * (hi - lo))
        inner = np.exp(rng.uniform(math.log(ratio), 0.0, n - 2))
        room = MU_MAX - mean_index(alpha, (ratio, 1.0))
        excess = mean_index(alpha, (ratio, *inner)) / room
        if excess > 1.0:
            inner = ratio + (inner - ratio) / excess
        scales = (ratio, 1.0) + tuple(map(float, inner))
        mean = alpha * math.fsum(scales)
        sd = math.sqrt(alpha * math.fsum(s * s for s in scales))
        grid = np.linspace(0.0, mean + 10.0 * sd, self.GRID + 1)[1:]
        return alpha, scales, grid

    def run(self, inp):
        alpha, scales, grid = inp
        conv = gconv.make_convolution(alpha, scales)
        cdf = conv.cdf(grid)
        dens = [conv.density(grid, order) for order in (0, 1, 2)]
        qs = [conv.quantile(p) for p in self.PS]
        return conv.error_estimate, cdf, dens, qs

    def collect(self, inp, raw):
        err, cdf, dens, qs = raw
        return err, cdf[self.CHECKED], [d[self.CHECKED] for d in dens], qs

    def check(self, inp, record) -> list[str]:
        alpha, scales, grid = inp
        err, cdf, dens, qs = record
        ref = reference.Reference([alpha] * len(scales), scales)
        x = grid[self.CHECKED]
        errors = []
        bound = err + 1e-12
        worst = np.max(np.abs(cdf - ref.cdf(x)))
        if not worst <= bound:
            errors.append(f"cdf off the reference by {worst:.3e} > {bound:.3e}")
        for order, d in enumerate(dens):
            value, magnitude = ref.density(x, order)
            # relative to the size of the series terms: derivatives reach 1e3+
            excess = np.max(np.abs(d - value) / np.maximum(1.0, magnitude))
            if not excess <= bound:
                errors.append(f"density order {order} off the reference by {excess:.3e} "
                              f"(scaled) > {bound:.3e}")
        if any(b <= a for a, b in zip(qs, qs[1:])):
            errors.append(f"quantiles not increasing: {qs}")
        f_at_q = ref.cdf(qs)
        for p, q, f in zip(self.PS, qs, f_at_q):
            if not abs(f - p) <= 1e-10:
                errors.append(f"reference F(quantile({p!r})={q!r}) = {f!r}")
        return errors


WORKLOADS = {w.name: w for w in (Check, Certificate, Distribution)}
