"""carnotiso benchmark: closed-loop workloads behind one command.

    python3 perfbench/run.py --workload evidence-cc --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; carnotiso is imported from that
checkout's src/. One client runs the workload's operations back to back
at CARNOT_ISO_THREADS=1, checks every output and prints every metric with
its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: wall_s (mean seconds of an
iteration), setup_s (median over fresh processes of spawn until carnotiso
and carnotiso.cli are imported and the workload is built), peak_rss_mb,
ratio_err (largest standard error of the workload's bump ratios),
op_p50_ms and op_p99_ms (percentiles over the workload's operations of
each operation's mean latency).

--trace 1 runs the fixed layer suite of layers.py, whose per-layer
metrics it reports, then alternates untraced and traced iterations (the
difference is the tracing overhead) for the rest of --seconds. Either mode writes a result file, with the
environment, under .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("CARNOT_ISO_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3  # before the window, and as many after it
PROBE_TIMEOUT_S = 120


class MissingSources(RuntimeError):
    pass


def use_checkout_sources():
    """Make `import carnotiso` load this checkout's src/, with every thread pool at 1."""
    if not (SRC / "carnotiso" / "__init__.py").is_file():
        raise MissingSources(f"no carnotiso sources at {SRC / 'carnotiso'}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def monotonic() -> float:
    """A clock shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe(workload: str, seed: int):
    """(seconds from spawn until the probe is set up, its carnotiso.cli import seconds)."""
    spawned = monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    doc = json.loads(out)
    return doc["ready"] - spawned, doc["import_s"]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "carnotiso").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def caches() -> list:
    """Data and unified caches of cpu0 as [{"level", "type", "bytes"}]."""
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            level = int((index / "level").read_text())
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        out.append({"level": level, "type": kind,
                    "bytes": int(size.rstrip("KMG")) * mult})
    return out


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy
    import workloads

    return {"git_commit": git_commit(), "carnotiso_sources_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(), "caches": caches(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "seed": seed, "workload": workload.name,
            "why": {w.name: w.why for w in workloads.WORKLOADS.values()}}


def cache_fit(nbytes: int, levels: list) -> str:
    for c in sorted(levels, key=lambda c: c["level"]):
        if nbytes <= c["bytes"]:
            return f"L{c['level']}"
    return "memory"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Ledger:
    """Counts of a run's operations and their failures.

    Each repeated operation must reproduce the warm-up's output exactly.
    Only counts are kept, so the ledger does not grow the heap that the
    garbage collector scans while the workload runs.
    """

    def __init__(self, reference):
        self.reference = [op.output for op in reference]
        self.attempted = self.failed = 0
        self.failures = {}
        self.ratio_error = None
        self.add(reference, repeat=False)

    def add(self, ops, repeat: bool = True):
        for i, op in enumerate(ops):
            if repeat and op.output != self.reference[i]:
                op.failures.append("output differs from the first iteration with the same seed")
            self.attempted += 1
            self.failed += bool(op.failures)
            for f in op.failures:
                key = f"{op.name}: {f}"
                self.failures[key] = self.failures.get(key, 0) + 1
            if op.ratio_error is not None:
                self.ratio_error = op.ratio_error if self.ratio_error is None \
                    else max(self.ratio_error, op.ratio_error)


def run_window(iteration, ledger, seconds: float, span=contextlib.nullcontext):
    """Iterations back to back for at least `seconds`.

    Returns each iteration's wall time and its operations' latencies.
    """
    walls, latencies = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        ops = iteration(span)
        walls.append(time.perf_counter() - begin)
        latencies.append([op.seconds for op in ops])
        ledger.add(ops)
    return walls, latencies


def measure(iteration, ledger, seconds: float) -> dict:
    """End-to-end metrics from back-to-back untraced iterations."""
    walls, latencies = run_window(iteration, ledger, seconds)
    # Co-tenant load on a shared host speeds up and slows down the same code
    # by up to 2x, drifting over seconds to a minute. The mean over the window
    # averages the drift; the fastest repeat depends on whether the window
    # caught a fast stretch, and the median jumps between slow and fast
    # stretches. Every iteration repeats the same operations: take each one's
    # mean latency, then percentiles over the operations.
    per_op = [statistics.fmean(repeats) for repeats in zip(*latencies)]
    p99 = statistics.quantiles(per_op, n=100, method="inclusive")[98]
    return {"metrics": {
        "wall_s": (statistics.fmean(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ratio_err": (ledger.ratio_error, "1"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "op_p99_ms": (1e3 * p99, "ms"),
    }, "iterations": len(walls), "wall_s_each": walls, "op_seconds_each": latencies}


def measure_traced(iteration, ledger, seconds: float, seed: int) -> dict:
    """Per-layer metrics: the fixed layer suite, then traced workload passes.

    The suite has a fixed cost; the traced passes get the rest of
    `seconds` (at least one), so a traced run lasts about as long as an
    untraced one.
    """
    import layers
    import tracing

    start = time.perf_counter()
    micro, entries, ops = layers.microbenchmarks(seed)
    ledger.add(ops, repeat=False)
    suite, suite_tracer, ops = layers.traced_pass(seed)
    ledger.add(ops, repeat=False)
    speedup, threads, ops = layers.thread_speedup(seed)
    ledger.add(ops, repeat=False)

    tracer = tracing.Tracer()
    plain, traced = [], []
    while not traced or time.perf_counter() - start < seconds:
        plain += run_window(iteration, ledger, 0.0)[0]
        with tracing.patched(tracer):
            traced += run_window(iteration, ledger, 0.0, tracer.span)[0]
    untraced_s, traced_s = statistics.fmean(plain), statistics.fmean(traced)
    return {"metrics": {**micro, **suite,
                        "sampling.map_chunks.speedup_2t": (speedup, "x"),
                        "trace.wall_s": (traced_s, "s"),
                        "trace.overhead_s": (traced_s - untraced_s, "s")},
            "untraced_wall_s_each": plain, "traced_wall_s_each": traced,
            "speedup_threads": threads,
            "workload_layers": tracer.table(), "suite_layers": suite_tracer.table(),
            "microbenchmarks": entries,
            "spans": {"workload": tracer.spans, "suite": suite_tracer.spans}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["evidence-cc", "evidence-cheap"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def report(result: dict, env: dict, trace: int):
    """Human-readable lines: every metric with its unit, then the failures."""
    print(f"workload {env['workload']}  seed {env['seed']}  trace {trace}  "
          f"commit {env['git_commit']}  {env['cpu_model']}  nproc {env['nproc']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if trace:
        print("  workload layers (traced pass, all traced iterations):")
        rows = sorted(result["workload_layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            print(f"    {name:40s} calls {row['calls']:7d}  self {row['self_s']:9.4f} s  "
                  f"total {row['total_s']:9.4f} s  {row['counts'] or ''}")
        print("  microbenchmark working sets (bytes per point are computed, not measured):")
        for e in result["microbenchmarks"]:
            if "working_set_bytes" in e:
                print(f"    {e['name']:44s} {e['points']:8d} pts  "
                      f"{e['working_set_bytes'] / 2**20:8.2f} MiB ({e['fits']})  "
                      f"{e['bytes_per_point_computed']:4d} B/pt computed")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"fail_frac {result['fail_frac']:.6g}")
    for what, count in result["failures"].items():
        print(f"  FAILED x{count}: {what}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_sources()
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import carnotiso

    if Path(carnotiso.__file__).resolve().parent != (SRC / "carnotiso").resolve():
        print(f"perfbench: imported carnotiso from {carnotiso.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    # probes on both sides of the window see the host as the window does
    probes = [probe(workload.name, args.seed) for _ in range(SETUP_PROBES)]

    iteration = workload.make(args.seed)
    # warm-up: fills caches, finishes lazy set-up, fixes the outputs to repeat
    ledger = Ledger(iteration(contextlib.nullcontext))
    if args.trace:
        result = measure_traced(iteration, ledger, args.seconds, args.seed)
    else:
        result = measure(iteration, ledger, args.seconds)
    probes += [probe(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    if args.trace:
        result["metrics"]["cli.import_s"] = (statistics.median(p[1] for p in probes), "s")
    else:
        result["metrics"]["setup_s"] = (statistics.median(p[0] for p in probes), "s")
    result["setup_probes"] = probes

    env = environment(workload, args.seed)
    for e in result.get("microbenchmarks", []):
        if "working_set_bytes" in e:
            e["fits"] = cache_fit(e["working_set_bytes"], env["caches"])
    result.update(attempted=ledger.attempted, failed=ledger.failed,
                  fail_frac=ledger.failed / ledger.attempted, failures=ledger.failures)
    report(result, env, args.trace)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps({"environment": env, **spans}))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    stem.with_suffix(".json").write_text(
        json.dumps({"environment": env, **result}, indent=1, default=float))

    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
