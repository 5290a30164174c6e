"""Spans and counters around the public functions of each gammacross layer.

`Tracer.installed()` rebinds each traced public function, in every
gammacross module that holds it, to a wrapper, and restores the originals
on exit.  Spans are kept in memory and written out when the run ends.
Each span has a name, a start, an end and its parent; self time is a span's
duration minus the time of its direct children.

The special functions are called hundreds of thousands of times per run, so
they get counters (calls and time) instead of spans; their time still counts
as child time of the span that called them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from time import perf_counter_ns

import numpy as np

from gammacross import cli, counterexample, crossing, gconv, orders, specfun

# (owner, attribute, metric prefix, timed); log_gamma is only counted, as
# timing it would double the cost of tracing the incomplete gamma it serves
_LEAVES = [
    (specfun, "reg_lower_inc_gamma", "specfun.reg_lower_inc_gamma", True),
    (specfun, "log_gamma", "specfun.log_gamma", False),
]
_SPANS = [
    (gconv.GammaConvolution, "cdf", "gconv.cdf"),
    (gconv.GammaConvolution, "density", "gconv.density"),
    (gconv.GammaConvolution, "quantile", "gconv.quantile"),
    (crossing, "sign_profile", "crossing.sign_profile"),
    (orders, "st_dominates", "orders.st_dominates"),
    (counterexample, "build_counterexample", "counterexample.build_counterexample"),
    (counterexample, "verify_certificate", "counterexample.verify_certificate"),
    (cli, "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.child_ns: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.leaf_ns: Counter = Counter()

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.child_ns.append(0)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter_ns()
        self.ends[idx] = end
        self.stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_ns[parent] += end - self.starts[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _leaf(self, name: str, fn, timed: bool):
        counts, leaf_ns, stack, child_ns = self.counts, self.leaf_ns, self.stack, self.child_ns
        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                counts[name + ".calls"] += 1
                leaf_ns[name + ".ms"] += dt
                if stack:
                    child_ns[stack[-1]] += dt
        return wrapper

    def _points(self, name: str, fn):
        # cdf/density: also count evaluation points and one-point calls
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(self_, x, *args, **kwargs):
            size = int(np.size(x))
            counts[name + ".points"] += size
            if size == 1:
                counts[name + ".scalar_calls"] += 1
            return fn(self_, x, *args, **kwargs)
        return wrapper

    def _make_convolution(self, fn):
        # The series is private and built lazily on first use; force it with
        # the public error_estimate property so its build time gets a span.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            conv = fn(*args, **kwargs)
            self.counts["gconv.series_build.count"] += 1
            with self.span("gconv.series_build"):
                conv.error_estimate
            return conv
        return wrapper

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        patches = []
        for owner, attr, name, timed in _LEAVES:
            patches.append((owner, attr, self._leaf(name, getattr(owner, attr), timed)))
        for owner, attr, name in _SPANS:
            fn = getattr(owner, attr)
            if name in ("gconv.cdf", "gconv.density"):
                fn = self._points(name, fn)
            patches.append((owner, attr, self._span(name, fn)))
        patches.append((gconv, "make_convolution", self._make_convolution(gconv.make_convolution)))
        saved = []
        for owner, attr, wrapper in patches:
            original = getattr(owner, attr)
            for holder in _holders(owner, attr, original):
                saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        try:
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Counts and milliseconds per layer, summed over the whole run."""
        out: Counter = Counter(self.counts)
        for metric, ns in self.leaf_ns.items():
            out[metric] += ns / 1e6
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            out[name + ".calls"] += 1
            out[name + ".ms"] += dur / 1e6
            out[name + ".self_ms"] += (dur - self.child_ns[i]) / 1e6
            parent = self.parents[i]
            if (name == "crossing.sign_profile" and parent >= 0
                    and self.names[parent] == "counterexample.build_counterexample"):
                out["counterexample.build_counterexample.scans"] += 1
        return dict(out)

    def write(self, path) -> None:
        """One JSON array per span and line: id, name, start and end in ns, parent id
        (-1 for a root)."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.starts[i], self.ends[i], self.parents[i]]))
                fh.write("\n")


def _holders(owner, attr, original):
    """The owner plus every gammacross module that imported the same object."""
    yield owner
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not mod_name.startswith("gammacross"):
            continue
        if getattr(mod, attr, None) is original:
            yield mod
