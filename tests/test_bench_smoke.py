"""Smoke test of the benchmark harness against the current package.

The benchmark (`bench/`) drives the package through its public API and
wraps layers by name for tracing, and its own tests do not import the
tracer.  Running one input of each workload under the tracer here makes an
API change that would break the benchmark fail the main suite.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_input_passes_its_check_under_the_tracer(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    inp = wl.round()[0]
    tracer = tracing.Tracer()
    with tracer.installed():
        record = wl.collect(inp, wl.run(inp))
    assert wl.check(inp, record) == []
    assert tracer.layer_totals()["gconv.cdf.calls"] >= 1
