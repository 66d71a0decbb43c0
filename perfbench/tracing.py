"""Outside-in tracing: span and counter shims around carnotiso's public functions.

Nothing under src/ knows about this module. During a traced pass,
:func:`patched` replaces each function in the module (or class) where its
callers look it up, and restores the originals afterwards. Each shim
records a span (name, start, end, parent, element counts) in a
:class:`Tracer`, which keeps everything in memory until the run writes it
out. The tracer is single-threaded: traced passes run at
CARNOT_ISO_THREADS=1.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

import numpy as np

from carnotiso import geodesics, groups, isodiametric, measures, metrics, sampling


class Tracer:
    """In-memory spans; a span's counts also collect counter hits inside it."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "counts": {}})
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int):
        self.spans[idx]["end"] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def count(self, key: str, n: int = 1):
        if self._open:
            counts = self.spans[self._open[-1]]["counts"]
            counts[key] = counts.get(key, 0) + n

    def table(self) -> dict:
        """Per span name: calls, total and self seconds, counts.

        Self time is a span's duration minus the durations of its direct
        children, so each second is charged to exactly one layer.
        """
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                             "counts": {}})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_s[i]
            for k, v in s["counts"].items():
                row["counts"][k] = row["counts"].get(k, 0) + v
        return out


def _rows(a) -> int:
    """Number of points in a (..., dim) coordinate array."""
    return int(np.prod(np.shape(a)[:-1]))


def _span_shim(tracer: Tracer, name: str, fn, counts=None):
    sig = inspect.signature(fn) if counts is not None else None

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if counts is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for k, v in counts(bound.arguments, result).items():
                tracer.spans[idx]["counts"][k] = tracer.spans[idx]["counts"].get(k, 0) + v
        return result

    return shim


def _counter_shim(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return shim


def _mc_counts(a, est):
    samples = a["budget"]
    hits = round(est.value / a["sampled"].bounding_box.volume * samples)
    return {"samples": samples, "hits": hits}


def _map_chunks_counts(a, results):
    return {"samples": a["budget"], "chunks": len(results)}


# (owner, attribute, span name, counts(bound arguments, result) or None).
# Each owner is the namespace the callers read the name from at call time:
# isodiametric binds unit_ball_volume and calls apex_reach/bump_ratio as its
# own globals, CCMetric.dist_arrays calls self.norm_arrays, and so on.
SPANS = [
    (metrics, "solve_turning", "metrics.solve_turning",
     lambda a, r: {"points": int(np.size(r))}),
    (metrics.DinfMetric, "norm_arrays", "metrics.norm_arrays.dinf",
     lambda a, r: {"points": int(np.size(r))}),
    (metrics.GaugeMetric, "norm_arrays", "metrics.norm_arrays.gauge",
     lambda a, r: {"points": int(np.size(r))}),
    (metrics.CCMetric, "norm_arrays", "metrics.norm_arrays.cc",
     lambda a, r: {"points": int(np.size(r))}),
    (metrics, "unit_ball_volume", "metrics.unit_ball_volume", None),
    (isodiametric, "unit_ball_volume", "metrics.unit_ball_volume", None),
    (groups, "mul_arrays", "groups.mul_arrays", lambda a, r: {"points": _rows(r[0])}),
    (groups, "inv_arrays", "groups.inv_arrays", lambda a, r: {"points": _rows(r[0])}),
    (sampling, "map_chunks", "sampling.map_chunks", _map_chunks_counts),
    (sampling, "uniform_box", "sampling.uniform_box", lambda a, r: {"points": _rows(r)}),
    (geodesics, "sphere_point_arrays", "geodesics.sphere_point_arrays",
     lambda a, r: {"points": _rows(r[0])}),
    (geodesics, "verify_assumption_C", "geodesics.verify_assumption_C",
     lambda a, r: {"samples": r.samples}),
    (measures, "mc_measure", "measures.mc_measure", _mc_counts),
    (measures, "cc_unit_ball_volume", "measures.cc_unit_ball_volume", None),
    (measures, "set_diameter", "measures.set_diameter", None),
    (isodiametric, "apex_reach", "isodiametric.apex_reach",
     lambda a, r: {"samples": r.samples}),
    (isodiametric, "bump_ratio", "isodiametric.bump_ratio", None),
    (isodiametric, "maximize_bump", "isodiametric.maximize_bump", None),
]

# counters charged to the innermost open span, which is solve_turning
COUNTERS = [(metrics, "mu"), (metrics, "mu_prime")]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the shims for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, counts in SPANS:
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _span_shim(tracer, name, orig, counts))
        for owner, attr in COUNTERS:
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _counter_shim(tracer, attr, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
