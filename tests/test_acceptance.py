"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run with -s to see them all);
budgets and tolerances are fixed, not tunable, so a red line here means a
real regression. Total runtime is dominated by the 1e7-sample Monte Carlo
checks and stays within a few minutes on one core.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import carnotiso as ci
from carnotiso import sampling
from carnotiso.geodesics import sphere_point_arrays
from carnotiso.groups import mul_arrays, standard_symplectic

H1 = ci.heisenberg(1)
H2 = ci.heisenberg(2)
HT = ci.h_type(standard_symplectic())

DINF = ci.DinfMetric(H1)
GAUGE = ci.GaugeMetric(HT)
CC = ci.CCMetric(H1)

SQRT2 = math.sqrt(2.0)


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def best_bumps():
    """Criterion 7 search results, shared with criterion 9."""
    out = {}
    for name, metric in (("dinf", DINF), ("gauge", GAUGE), ("cc", CC)):
        out[name] = ci.maximize_bump(metric, budget=10**7, seed=101)
    return out


def test_criterion_1_cdc_bound_table():
    start = time.perf_counter()
    vals = [ci.projection_upper_bound(ci.CCMetric(ci.heisenberg(n))) for n in range(1, 10)]
    elapsed = time.perf_counter() - start
    ok = (1.0 < vals[0] <= 1.22
          and all(b > a for a, b in zip(vals[:8], vals[1:8]))
          and vals[7] <= 1.98
          and vals[8] > 2.0
          and elapsed < 1.0)
    report(1, ok, f"bounds {vals[0]:.4f}..{vals[8]:.4f}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_cc_roundtrip():
    rng = np.random.default_rng(2024)
    n = 10**4
    chi = rng.standard_normal((n, 2))
    chi /= np.linalg.norm(chi, axis=1, keepdims=True)
    phi = rng.uniform(-(math.pi - 1e-6), math.pi - 1e-6, n)
    r = 10.0 ** rng.uniform(-2, 2, n)
    start = time.perf_counter()
    z, t = sphere_point_arrays(1, chi, phi, r)
    worst = float(np.max(np.abs(CC.norm_arrays(z, t) - r)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    report(2, ok, f"max |d - r| = {worst:.3g}, {elapsed:.2f} s")


def test_criterion_3_center_distance():
    rng = np.random.default_rng(3)
    t = rng.uniform(-100, 100, 10**3)
    d = CC.norm_arrays(np.zeros((10**3, 2)), t[:, None])
    worst = float(np.max(np.abs(d - np.sqrt(math.pi * np.abs(t)))))
    ok = worst < 1e-10
    report(3, ok, f"max deviation {worst:.3g}")


def test_criterion_4_metric_axioms():
    n = 10**5
    rng = np.random.default_rng(4)
    worst = {}
    for name, metric in (("dinf", DINF), ("gauge", GAUGE), ("cc", CC)):
        spec = metric.spec
        draw = lambda: (rng.uniform(-2, 2, (n, spec.dim1)),
                        rng.uniform(-2, 2, (n, spec.dim2)))
        a1, a2 = draw()
        b1, b2 = draw()
        c1, c2 = draw()
        g1, g2 = draw()
        ab = metric.dist_arrays(a1, a2, b1, b2)
        sym = np.max(np.abs(ab - metric.dist_arrays(b1, b2, a1, a2)))
        tri = np.max(metric.dist_arrays(a1, a2, c1, c2)
                     - ab - metric.dist_arrays(b1, b2, c1, c2))
        ga = mul_arrays(spec, g1, g2, a1, a2)
        gb = mul_arrays(spec, g1, g2, b1, b2)
        inv = np.max(np.abs(metric.dist_arrays(*ga, *gb) - ab))
        hom = 0.0
        for lam in (0.5, 2.0, 10.0, 0.037):
            d = metric.dist_arrays(lam * a1, lam * lam * a2,
                                   lam * b1, lam * lam * b2)
            hom = max(hom, float(np.max(np.abs(d - lam * ab)
                                        / np.maximum(lam * ab, 1e-12))))
        worst[name] = (float(sym), float(tri), float(inv), hom)
    ok = all(s <= 1e-9 and t <= 1e-9 and i <= 1e-9 and h <= 1e-10
             for s, t, i, h in worst.values())
    flat = "; ".join(f"{k}: sym {v[0]:.1g} tri {v[1]:.1g} inv {v[2]:.1g} hom {v[3]:.1g}"
                     for k, v in worst.items())
    report(4, ok, flat)


def test_criterion_5_apex_reach():
    sups = {}
    for name, metric in (("dinf n=1", DINF), ("dinf n=2", ci.DinfMetric(H2))):
        rep = ci.apex_reach(metric, budget=10**6, seed=5)
        sups[name] = rep.sampled_sup
    gauge_rep = ci.apex_reach(GAUGE, budget=10**6, seed=5)
    sups["gauge"] = gauge_rep.sampled_sup
    sups["cc"] = ci.apex_reach(CC, budget=10**6, seed=5).sampled_sup
    ok = (all(v <= SQRT2 + 1e-9 for v in sups.values())
          and sups["dinf n=1"] >= SQRT2 - 1e-3
          and sups["dinf n=2"] >= SQRT2 - 1e-3
          and sups["cc"] >= SQRT2 - 1e-3)
    flat = ", ".join(f"{k} sup {v:.6f}" for k, v in sups.items())
    report(5, ok, flat + f" vs sqrt2 {SQRT2:.6f}")


def test_criterion_6_assumption_C():
    rep = ci.verify_assumption_C(H1, sample_budget=10**6, seed=6)
    ok = rep.margin > 0 and rep.sampled_max_roundtrip <= SQRT2 + 1e-12
    report(6, ok, f"margin {rep.margin:.4f} over {rep.samples} samples")


def test_criterion_7_balls_not_isodiametric(best_bumps):
    # the Monte Carlo cross-check and the ratio itself (closed form or quadrature)
    for field in ("cross_check", "ratio"):
        stats = {name: (getattr(res, field).value, getattr(res, field).error)
                 for name, res in best_bumps.items()}
        ok = all(v >= 1.0 + 3.0 * e for v, e in stats.values())
        flat = ", ".join(f"{k} {v:.5f} +- {e:.5f}" for k, (v, e) in stats.items())
        report(7, ok, f"{field}: {flat}")


def test_criterion_8_volume_cross_checks():
    exact_dinf, _ = ci.unit_ball_volume(DINF)
    refs = {"dinf": (DINF, exact_dinf),
            "gauge": (GAUGE, ci.unit_ball_volume(GAUGE)[0]),
            "cc": (CC, ci.cc_unit_ball_volume(1).value)}
    ok = exact_dinf == 2.0 * math.pi
    details = [f"dinf closed form {exact_dinf:.12g}"]
    for name, (metric, ref) in refs.items():
        est = ci.mc_measure(ci.ball_set(metric), 10**7, seed=8)
        pull = abs(est.value - ref) / est.error
        ok = ok and pull < 3.0
        details.append(f"{name} MC pull {pull:.2f} sigma")
    report(8, ok, ", ".join(details))


def test_criterion_9_besicovitch_intervals(best_bumps):
    # the Monte Carlo cross-check and the ratio itself (closed form or quadrature)
    for field in ("cross_check", "ratio"):
        dinf, cc = getattr(best_bumps["dinf"], field), getattr(best_bumps["cc"], field)
        c_lb_dinf = max(1.0, dinf.value - 3.0 * dinf.error)
        dinf_bounds = ci.SigmaBounds(C_lower=c_lb_dinf, C_upper=ci.projection_upper_bound(DINF))
        lo_dinf, hi_dinf = dinf_bounds.sigma_interval
        c_lb_cc = max(1.0, cc.value - 3.0 * cc.error)
        cc_bounds = ci.SigmaBounds(C_lower=c_lb_cc, C_upper=ci.projection_upper_bound(CC))
        lo_cc, _ = cc_bounds.sigma_interval
        ok = (lo_dinf == 0.5 and hi_dinf < 1.0
              and lo_cc >= 1.0 / ci.projection_upper_bound(CC) - 1e-15
              and lo_cc > 0.5)
        report(9, ok, f"{field}: dinf sigma in [{lo_dinf}, {hi_dinf:.5f}], "
                      f"cc lower endpoint {lo_cc:.5f}")


def test_criterion_10_thread_determinism():
    cmd = [sys.executable, "-m", "carnotiso.cli", "bump-search", "--metric", "cc",
           "--budget", str(2 * sampling.CHUNK_SIZE), "--seed", "42"]
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ, CARNOT_ISO_THREADS=threads)
        outs.append(subprocess.run(cmd, capture_output=True, env=env,
                                   check=True).stdout)
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report(10, ok, f"{len(outs[0])} output bytes identical across thread counts")
