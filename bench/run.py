#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of gammacross.

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from its
`src/`, never from an installed copy.  One process runs one workload as a
closed loop with a single client: one operation at a time, whole rounds of
inputs, until `--seconds` have passed.  Every output is checked after the
timed phase against `reference` and the paper's properties.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs each round
twice, untraced then traced, and reports per-layer metrics per traced
operation plus the tracing overhead; its spans go to bench/out/.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import os

# One BLAS thread: a second one adds CPU time but no wall time on these
# matrix-vector products (see README), and only contends with neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3

# Per-layer metrics of a traced run, each divided by the traced operations.
PER_LAYER = {
    "specfun.reg_lower_inc_gamma.calls": "count/op",
    "specfun.reg_lower_inc_gamma.ms": "ms/op",
    "specfun.log_gamma.calls": "count/op",
    "gconv.series_build.count": "count/op",
    "gconv.series_build.ms": "ms/op",
    "gconv.cdf.calls": "count/op",
    "gconv.cdf.points": "count/op",
    "gconv.cdf.ms": "ms/op",
    "gconv.cdf.scalar_calls": "count/op",
    "gconv.quantile.calls": "count/op",
    "gconv.quantile.ms": "ms/op",
    "gconv.density.calls": "count/op",
    "gconv.density.points": "count/op",
    "gconv.density.ms": "ms/op",
    "crossing.sign_profile.calls": "count/op",
    "crossing.sign_profile.self_ms": "ms/op",
    "orders.st_dominates.calls": "count/op",
    "orders.st_dominates.ms": "ms/op",
    "counterexample.build_counterexample.ms": "ms/op",
    "counterexample.build_counterexample.scans": "count/op",
    "counterexample.verify_certificate.ms": "ms/op",
    "cli.main.self_ms": "ms/op",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("check", "certificate", "distribution"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and print 'ready' (one set-up sample)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gammacross" / "__init__.py").is_file():
        print(f"bench: no gammacross sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # A process imports only once, so set-up is sampled in fresh processes,
    # before this one loads anything that could slow them down.
    setup = [] if args.setup_only or args.trace else [_setup_sample(args)
                                                      for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(SRC))
    import gammacross
    from workloads import WORKLOADS

    if Path(gammacross.__file__).resolve().parent != SRC / "gammacross":
        print(f"bench: imported gammacross from {gammacross.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        first_round = wl.round()
        warm = wl.warmup()
        wl.collect(warm, wl.run(warm))
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            result, info = _traced(wl, first_round, args)
        else:
            result, info = _untraced(wl, first_round, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                machine=machine_info())
    print("run-info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def _setup_sample(args) -> float:
    """Seconds from spawning a fresh process to its first timed operation:
    interpreter start, imports, input generation and one warm-up operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up sample failed with exit code {proc.returncode}")
    return elapsed


class _Tally:
    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[float] = []
        self.records: list = []
        self.attempted = 0
        self.failed = 0

    def attempt(self, inp) -> float | None:
        """Run one operation; its latency in seconds, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = self.wl.run(inp)
            elapsed = time.perf_counter() - t0
            self.records.append((inp, self.wl.collect(inp, raw)))
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            print(f"bench: operation failed on {inp!r}:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        self.latencies.append(elapsed)
        return elapsed

    def check_all(self) -> bool:
        correct = True
        for inp, record in self.records:
            errors = self.wl.check(inp, record)
            if errors:
                correct = False
                print(f"bench: wrong output for {inp!r}: {errors}", file=sys.stderr)
        return correct


def _rounds(wl, first_round, seconds: float):
    """Whole rounds until `seconds` have passed; always at least one."""
    t0 = time.perf_counter()
    yield first_round
    while time.perf_counter() - t0 < seconds:
        yield wl.round()


def _untraced(wl, first_round, args, setup):
    import numpy as np

    tally = _Tally(wl)
    rounds = 0
    for inputs in _rounds(wl, first_round, args.seconds):
        rounds += 1
        for inp in inputs:
            tally.attempt(inp)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not tally.latencies:
        raise SystemExit("bench: every operation failed")
    t_check = time.perf_counter()
    correct = tally.check_all()
    check_s = time.perf_counter() - t_check
    lat_ms = np.array(tally.latencies) * 1e3
    metrics = {
        "throughput_per_s": (len(lat_ms) / (lat_ms.sum() / 1e3), "1/s"),
        "latency_ms_p50": (float(np.median(lat_ms)), "ms"),
        "latency_ms_tail": (float(np.percentile(lat_ms, wl.tail_percentile)), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"rounds": rounds, "operations": len(lat_ms), "check_s": check_s,
            "tail_percentile": wl.tail_percentile, "setup_samples_s": setup,
            "latency_ms_min_max": [float(lat_ms.min()), float(lat_ms.max())]}
    return _result(correct, (tally,), metrics), info


def _traced(wl, first_round, args):
    from tracing import Tracer

    plain, traced = _Tally(wl), _Tally(wl)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    rounds = 0
    for inputs in _rounds(wl, first_round, args.seconds):
        rounds += 1
        for inp in inputs:
            plain_s += plain.attempt(inp) or 0.0
        with tracer.installed():
            for inp in inputs:
                with tracer.span(f"op.{wl.name}"):
                    traced_s += traced.attempt(inp) or 0.0
    correct = plain.check_all() & traced.check_all()
    ops = max(1, len(traced.latencies))
    totals = tracer.layer_totals()
    metrics = {name: (totals.get(name, 0.0) / ops, unit) for name, unit in PER_LAYER.items()}
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    info = {"rounds": rounds, "traced_operations": len(traced.latencies),
            "untraced_s": plain_s, "traced_s": traced_s, "spans": len(tracer.names),
            "spans_file": str(spans.relative_to(ROOT))}
    return _result(correct, (plain, traced), metrics), info


def _result(correct: bool, tallies, metrics: dict) -> dict:
    return {"correct": bool(correct),
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


if __name__ == "__main__":
    sys.exit(main())
