"""Fixed-size layer suite: the per-layer metrics of a traced run.

It is the same for every workload, so every traced run reports every
per-layer metric. Two parts:

* microbenchmarks: one public function on a fixed-size seeded input,
  timed directly (no shims), reported per point or per call as the fastest
  of a few repeats. Each entry records its working set beside the cache
  sizes, and the bytes its inputs and outputs occupy per point, labelled
  "computed": nothing here measures memory bandwidth.
* a traced pass: a few CLI and library calls run under the tracer, giving
  layer self times and the counts (samples, hits, chunks, calls) the
  microbenchmarks cannot.

Every call's output is checked like a workload operation.
"""

from __future__ import annotations

import contextlib
import math
import os
import time

import numpy as np

from carnotiso import geodesics, groups, isodiametric, measures, metrics, sampling

import tracing
import workloads
from workloads import Op, _expect

POINTS = 2**19
CLOUD = 256  # CC unit-sphere points whose set_diameter the traced pass times
CC_REACH_SAMPLES = 10**5  # what bump_ratio draws for a reach it is not given


def _fastest(fn, repeats: int):
    """(fastest of `repeats` calls in seconds, result of the last call)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def _entry(name, fn, repeats, points, bytes_per_point, working_set, unit="ns", per="point"):
    """Time fn and describe it; returns (table entry, result of the last call)."""
    seconds, result = _fastest(fn, repeats)
    scale = {"ns": 1e9, "us": 1e6}[unit]
    return {"name": name, "value": seconds / points * scale, "unit": unit, "per": per,
            "points": points, "repeats": repeats, "working_set_bytes": working_set,
            "bytes_per_point_computed": bytes_per_point}, result


def microbenchmarks(seed: int):
    """Return (metrics, table entries, ops) for the fixed-size layer calls.

    bytes_per_point_computed counts the float64 inputs and outputs of one
    call (temporaries excluded); working_set_bytes is that times the points
    held at once.
    """
    rng = np.random.default_rng([seed, 2])
    h1, h2 = groups.heisenberg(1), groups.heisenberg(2)
    htype = groups.h_type(groups.standard_symplectic())
    dinf, gauge, cc = metrics.DinfMetric(h1), metrics.GaugeMetric(h1), metrics.CCMetric(h1)
    entries, ops = [], []

    def add(name, fn, repeats, points, floats_per_point, **kw):
        b = 8 * floats_per_point
        entry, result = _entry(name, fn, repeats, points, b, b * points, **kw)
        entries.append(entry)
        return result

    # CC ratios |t|/|z|^2 of points uniform in the CC unit-ball box
    lo1, hi1, lo2, hi2 = cc.unit_ball_bbox()
    z = rng.uniform(lo1, hi1, (POINTS, 2))
    t = rng.uniform(lo2, hi2, (POINTS, 1))
    ratio = np.abs(t[:, 0]) / np.sum(z * z, axis=1)
    phi = add("metrics.solve_turning.ns_per_point", lambda: metrics.solve_turning(ratio), 3,
              POINTS, 2)
    resid = float(np.max(np.abs(metrics.mu(phi) - ratio) / np.maximum(1.0, ratio)))
    ops.append(Op("solve_turning residual", 0.0, output=resid))
    _expect(ops[-1].failures, resid < 1e-9, f"solve_turning relative residual {resid:.3g}")
    one = ratio[:1]
    add("metrics.solve_turning.us_per_call_1", lambda: metrics.solve_turning(one), 300, 1, 2,
        unit="us", per="call")

    # CC norms of sphere points with known radius
    r = rng.uniform(0.25, 2.0, POINTS)
    sz, st = workloads.sphere_cloud(rng, POINTS, math.pi - 1e-6, r)
    d = add("metrics.norm_arrays.cc.ns_per_point", lambda: cc.norm_arrays(sz, st), 2, POINTS, 4)
    err = float(np.max(np.abs(d - r)))
    ops.append(Op("norm_arrays cc roundtrip", 0.0, output=err))
    _expect(ops[-1].failures, err < 1e-8, f"CC norm of radius-r sphere points off by {err:.3g}")
    for label, metric in (("dinf", dinf), ("gauge", gauge)):
        add(f"metrics.norm_arrays.{label}.ns_per_point", lambda: metric.norm_arrays(sz, st), 5,
            POINTS, 4)

    lo, hi = np.concatenate([lo1, lo2]), np.concatenate([hi1, hi2])
    gen = sampling.substream(seed, 0)
    add("sampling.uniform_box.ns_per_point", lambda: sampling.uniform_box(gen, POINTS, lo, hi), 5,
        POINTS, 3)

    for label, spec in (("h1", h1), ("h2", h2), ("h1-htype", htype)):
        a1 = rng.uniform(-1.0, 1.0, (POINTS, spec.dim1))
        a2 = rng.uniform(-1.0, 1.0, (POINTS, spec.dim2))
        b1 = rng.uniform(-1.0, 1.0, (POINTS, spec.dim1))
        b2 = rng.uniform(-1.0, 1.0, (POINTS, spec.dim2))
        width = spec.dim1 + spec.dim2
        add(f"groups.mul_arrays.ns_per_point.{label}",
            lambda: groups.mul_arrays(spec, a1, a2, b1, b2), 5, POINTS, 3 * width)
        if label == "h1":
            add("groups.inv_arrays.ns_per_point", lambda: groups.inv_arrays(spec, a1, a2), 5,
                POINTS, 2 * width)

    chi = rng.standard_normal((POINTS, 2))
    chi /= np.linalg.norm(chi, axis=1, keepdims=True)
    sphi = rng.uniform(-math.pi, math.pi, POINTS)
    sr = np.ones(POINTS)
    add("geodesics.sphere_point_arrays.ns_per_point",
        lambda: geodesics.sphere_point_arrays(1, chi, sphi, sr), 5, POINTS, 7)

    # Monte Carlo unit-ball volumes, pulled against the closed form or quadrature;
    # draws are made and dropped one chunk at a time
    for label, metric, budget in (("dinf", dinf, 2**20),
                                  ("gauge", metrics.GaugeMetric(htype), 2**20),
                                  ("cc", cc, 2**17)):
        ball = measures.ball_set(metric)
        entry, est = _entry(f"measures.mc_measure.{label}.ns_per_sample",
                            lambda: measures.mc_measure(ball, budget, seed), 3, budget, 24,
                            24 * min(budget, sampling.CHUNK_SIZE), per="sample")
        entries.append(entry)
        exact, _ = metrics.unit_ball_volume(metric)
        pull = abs(est.value - exact) / est.error
        ops.append(Op(f"mc_measure {label} unit ball", 0.0, output=pull))
        _expect(ops[-1].failures, pull < 3.0, f"MC {label} unit-ball volume pull {pull:.2f} >= 3")

    seconds, vol = _fastest(lambda: measures.cc_unit_ball_volume(1), 5)
    entries.append({"name": "measures.cc_unit_ball_volume.ms", "value": 1e3 * seconds,
                    "unit": "ms", "per": "call", "repeats": 5, "volume": vol.value})
    return {e["name"]: (e["value"], e["unit"]) for e in entries}, entries, ops


def traced_pass(seed: int):
    """Return (metrics, tracer, ops) from fixed CLI and library calls under the tracer."""
    tracer = tracing.Tracer()
    cc = metrics.CCMetric(groups.heisenberg(1))
    cloud = workloads.sphere_cloud(np.random.default_rng([seed, 3]), CLOUD, math.pi,
                                   np.ones(CLOUD))
    ops = []
    with tracing.patched(tracer):
        for argv, check in (workloads.verify_cmd("dinf", "h1", 2**20, seed),
                            workloads.verify_cmd("cc", "h1", 2**14, seed),
                            workloads.bump_cmd("dinf", "h1", 2**20, seed)):
            ops.append(workloads.run_cli(argv, check, tracer.span))
        op = workloads.timed("set_diameter cc", lambda: measures.set_diameter(cloud, cc))
        if not op.failures:
            _expect(op.failures, op.output <= 2.0 + 1e-9,
                    f"sphere-cloud diameter {op.output!r} above 2")
        ops.append(op)
    t = tracer.table()

    def row(name):
        return t.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})

    solve = row("metrics.solve_turning")
    mc = row("measures.mc_measure")["counts"]
    chunks = row("sampling.map_chunks")
    bumps = row("isodiametric.maximize_bump")["calls"]
    out = {
        "metrics.mu.calls_per_solve": (
            (solve["counts"].get("mu", 0) + solve["counts"].get("mu_prime", 0))
            / max(1, solve["calls"]), "count"),
        "metrics.unit_ball_volume.calls": (
            row("metrics.unit_ball_volume")["calls"] / max(1, bumps), "count"),
        "sampling.map_chunks.self_s": (chunks["self_s"], "s"),
        "sampling.map_chunks.chunks": (chunks["counts"].get("chunks", 0), "count"),
        "geodesics.verify_assumption_C.self_s": (
            row("geodesics.verify_assumption_C")["self_s"], "s"),
        "measures.mc_measure.samples": (mc.get("samples", 0), "count"),
        "measures.mc_measure.hits": (mc.get("hits", 0), "count"),
        "measures.mc_measure.acceptance": (mc.get("hits", 0) / max(1, mc.get("samples", 0)),
                                           "fraction"),
        "measures.set_diameter.s": (row("measures.set_diameter")["total_s"], "s"),
        "isodiametric.apex_reach.s": (row("isodiametric.apex_reach")["total_s"], "s"),
        "isodiametric.apex_reach.samples": (
            row("isodiametric.apex_reach")["counts"].get("samples", 0), "count"),
        "isodiametric.bump_ratio.calls": (row("isodiametric.bump_ratio")["calls"], "count"),
        "isodiametric.bump_ratio.self_s": (row("isodiametric.bump_ratio")["self_s"], "s"),
        "isodiametric.maximize_bump.s": (row("isodiametric.maximize_bump")["total_s"], "s"),
        "cli.main.verify.s": (row("cli.main.verify")["total_s"], "s"),
        "cli.main.bump-search.s": (row("cli.main.bump-search")["total_s"], "s"),
    }
    # A number, not a check: the CC reach certificate is a sample maximum plus
    # a safety margin, sound only while this stays at or below 2 - sqrt(2).
    rep = isodiametric.apex_reach(cc, budget=CC_REACH_SAMPLES, seed=seed + 1)
    out["isodiametric.cc_certified_rho_max"] = (isodiametric.max_certified_rho(cc, rep.reach), "1")
    return out, tracer, ops


def thread_speedup(seed: int):
    """The evidence-cheap d_inf bump at 1 thread and at min(2, nproc) threads.

    Returns (speedup, threads, ops); the stdout of both must be identical.
    """
    threads = min(2, os.cpu_count() or 1)
    argv, check = workloads.bump_cmd("dinf", "h1", workloads.CHEAP_BUDGET, seed)
    runs = {1: [], threads: []}
    try:
        for _ in range(2):
            for k in runs:
                os.environ[sampling.THREADS_ENV] = str(k)
                runs[k].append(workloads.run_cli(argv, check, contextlib.nullcontext))
    finally:
        os.environ[sampling.THREADS_ENV] = "1"
    for op in runs[threads]:
        _expect(op.failures, op.output == runs[1][0].output,
                f"stdout at {threads} threads differs from 1 thread")
    speedup = (min(op.seconds for op in runs[1])
               / min(op.seconds for op in runs[threads]))
    return speedup, threads, [op for k in runs for op in runs[k]]
