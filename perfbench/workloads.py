"""The benchmark workloads and the checks on every output.

Each workload is a closed loop with one client: an operation starts only
after the previous one returned. ``make(seed)`` builds the workload's
specs, metrics and inputs and returns ``iteration(span)``, which runs the
workload's operations once and returns one :class:`Op` per operation.
Iterations repeat the same seeded inputs, so every iteration must
reproduce the first one's outputs byte for byte.

Seeds reach the program only as ``--seed`` (or the ``seed`` argument of
the library call); inputs the benchmark makes itself come from its own
numpy generator keyed by the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from carnotiso import cli, geodesics, isodiametric, metrics

SQRT2 = math.sqrt(2.0)
# the apex reach is sqrt(2) for all three counterexamples, so a bump radius
# is certified by the triangle inequality only up to 2 - sqrt(2)
RHO_SOUND = 2.0 - SQRT2

# budgets per operation; one iteration of either evidence workload takes
# about 2 s on one 2 GHz Xeon core
CC_BUDGET = 2**16
CC_BUMP_BUDGET = 2**17
CHEAP_BUDGET = 2**20


@dataclass
class Op:
    """One operation: its seconds, the checks it failed and its output."""

    name: str
    seconds: float
    failures: list = field(default_factory=list)
    output: object = None
    ratio_error: float | None = None


def _expect(failures: list, ok: bool, what: str):
    if not ok:
        failures.append(what)


# ---------------------------------------------------------------------------
# CLI operations and their checks
# ---------------------------------------------------------------------------

def check_verify_cc(doc, failures):
    rep = doc["report"]
    _expect(failures, rep["sampled_max_roundtrip"] <= SQRT2 + 1e-12,
            f"sampled roundtrip {rep['sampled_max_roundtrip']!r} above its true sup sqrt(2)")
    _expect(failures, abs(rep["continuation_distance"] - 2.0) <= 1e-12,
            f"continuation distance {rep['continuation_distance']!r} is not 2")


def check_verify_analytic(doc, failures):
    rep = doc["report"]
    _expect(failures, rep["certified_reach"] == SQRT2,
            f"certified reach {rep['certified_reach']!r} is not sqrt(2)")
    _expect(failures, rep["sampled_sup"] <= SQRT2 + 1e-12,
            f"sampled reach {rep['sampled_sup']!r} above sqrt(2)")


def check_ratio(res, failures):
    """Checks every bump result makes; returns the ratio's standard error."""
    ratio, err = res["ratio"]["value"], res["ratio"]["error"]
    _expect(failures, ratio >= 1.0 + 3.0 * err,
            f"bump ratio {ratio!r} below 1 + 3 sigma ({err!r})")
    _expect(failures, res["diameter"] == {"value": 2.0, "kind": "exact"},
            f"diameter {res['diameter']!r} is not exactly 2")
    _expect(failures, res["set"]["rho"] <= RHO_SOUND + 1e-12,
            f"rho {res['set']['rho']!r} above the sound 2 - sqrt(2) = {RHO_SOUND:.4f}")
    return err


def check_bump(doc, failures):
    res = doc["result"]
    err = check_ratio(res, failures)
    rho_max = res["set"]["search"]["certified_rho_max"]
    _expect(failures, rho_max <= RHO_SOUND + 1e-12,
            f"certified rho {rho_max:.4f} above the sound 2 - sqrt(2) = {RHO_SOUND:.4f}")
    _expect(failures, res["set"]["rho"] <= rho_max + 1e-15,
            f"rho {res['set']['rho']!r} above its certified maximum")
    return err


def verify_cmd(counterexample: str, group: str, budget: int, seed: int):
    argv = ["verify", counterexample, "--group", group,
            "--budget", str(budget), "--seed", str(seed)]
    return argv, check_verify_cc if counterexample == "cc" else check_verify_analytic


def bump_cmd(metric: str, group: str, budget: int, seed: int):
    argv = ["bump-search", "--metric", metric, "--group", group,
            "--budget", str(budget), "--seed", str(seed)]
    return argv, check_bump


def timed(name: str, fn) -> Op:
    """Run fn() as one operation; an operation that raises has failed."""
    op = Op(name, 0.0)
    start = time.perf_counter()
    try:
        op.output = fn()
    except Exception as exc:
        op.failures.append(f"raised {type(exc).__name__}: {exc}")
    op.seconds = time.perf_counter() - start
    return op


def run_cli(argv, check, span) -> Op:
    """One CLI call through carnotiso.cli.main with stdout captured and checked."""
    group = argv[argv.index("--group") + 1]
    what = argv[1] if argv[0] == "verify" else argv[argv.index("--metric") + 1]
    out, err = io.StringIO(), io.StringIO()

    def call():
        with span(f"cli.main.{argv[0]}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            return cli.main(argv)

    op = timed(f"{argv[0]} {what} {group}", call)
    code, op.output = op.output, out.getvalue()
    if op.failures:
        return op
    if code != 0:
        op.failures.append(f"exit code {code}: {err.getvalue().strip()}")
        return op
    try:
        op.ratio_error = check(json.loads(op.output), op.failures)
    except (ValueError, KeyError, TypeError) as exc:
        op.failures.append(f"malformed output: {type(exc).__name__}: {exc}")
    return op


def _cli_workload(commands):
    """Iteration over a fixed list of (argv, check) CLI commands."""
    for argv, _ in commands:  # the specs and metrics the commands will build
        spec = cli.parse_group(argv[argv.index("--group") + 1])
        if argv[0] == "bump-search":
            metrics.make_metric(spec, {"metric": argv[argv.index("--metric") + 1]})

    def iteration(span):
        return [run_cli(argv, check, span) for argv, check in commands]

    return iteration


def make_evidence_cc(seed: int):
    verify = _cli_workload([verify_cmd("cc", "h1", CC_BUDGET, seed)])
    cc = metrics.CCMetric(cli.parse_group("h1"))
    apex, _ = isodiametric._apex_and_bound(cc)
    params = isodiametric.BumpParams(apex=apex, rho=RHO_SOUND)

    def bump():
        # the proven reach sqrt(2), not apex_reach's sample maximum + 1e-3
        res = isodiametric.bump_ratio(params, cc, CC_BUMP_BUDGET, seed, reach=SQRT2)
        return json.dumps(res.to_dict(), sort_keys=True)

    def iteration(span):
        ops = verify(span)
        op = timed("bump_ratio cc h1 sound rho", bump)
        if not op.failures:
            op.ratio_error = check_ratio(json.loads(op.output), op.failures)
        return ops + [op]

    return iteration


def make_evidence_cheap(seed: int):
    return _cli_workload([verify_cmd("dinf", "h1", CHEAP_BUDGET, seed),
                          verify_cmd("gauge", "h1-htype", CHEAP_BUDGET, seed),
                          bump_cmd("dinf", "h1", CHEAP_BUDGET, seed),
                          bump_cmd("dinf", "h2", CHEAP_BUDGET, seed),
                          bump_cmd("gauge", "h1-htype", CHEAP_BUDGET, seed)])


# ---------------------------------------------------------------------------
# seeded CC sphere points
# ---------------------------------------------------------------------------

def sphere_cloud(rng, count: int, phi_max: float, radius):
    """Seeded points of CC spheres: (z, t) from the sphere map with unit chi."""
    chi = rng.standard_normal((count, 2))
    chi /= np.linalg.norm(chi, axis=1, keepdims=True)
    phi = rng.uniform(-phi_max, phi_max, count)
    return geodesics.sphere_point_arrays(1, chi, phi, radius)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object


WORKLOADS = {w.name: w for w in [
    Workload("evidence-cc",
             "The paper's CC evidence on H^1 (verify cc, the CC bump ratio at the sound "
             "rho 2 - sqrt(2)) and the slowest user path; nearly all time is solve_turning "
             "under verify_assumption_C and mc_measure.",
             make_evidence_cc),
    Workload("evidence-cheap",
             "The same isodiametric -> measures -> sampling path with cheap norms (d_inf on "
             "h1 and h2, gauge on h1-htype): Philox draws, group laws and hit-or-miss plumbing "
             "with no solve_turning; the control for CC-kernel changes.",
             make_evidence_cheap),
]}
