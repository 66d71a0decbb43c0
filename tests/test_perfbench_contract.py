"""The interface the benchmark in perfbench/ uses, checked as a test.

perfbench/ drives carnotiso through the CLI and a few library names, checks
every output, and its tracer wraps package functions by name. One
iteration of each workload, and one pass of the layer suite that --trace 1
runs, turn a break of that interface (a renamed function, field or report
key, a changed output shape) into a test failure. perfbench/ is only read,
never changed.
"""

import contextlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_iteration_has_no_failures(name):
    iteration = workloads.WORKLOADS[name].make(1)
    ops = iteration(contextlib.nullcontext)
    assert ops
    assert {op.name: op.failures for op in ops if op.failures} == {}


def test_layer_microbenchmarks_have_no_failures(monkeypatch):
    # they call cc.norm_arrays, solve_turning on one element and the metrics'
    # boxes directly, so a shape change there breaks --trace 1 runs
    monkeypatch.setattr(layers, "POINTS", 2**12)
    _, entries, ops = layers.microbenchmarks(1)
    assert entries and ops
    assert {op.name: op.failures for op in ops if op.failures} == {}


def test_layer_traced_pass_has_no_failures():
    _, _, ops = layers.traced_pass(1)
    assert ops
    assert {op.name: op.failures for op in ops if op.failures} == {}


def test_tracer_patches_and_restores_every_name():
    names = [(owner, attr) for owner, attr, _, _ in tracing.SPANS] + tracing.COUNTERS
    before = [vars(owner)[attr] for owner, attr in names]
    with tracing.patched(tracing.Tracer()):
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(names, before))
    assert [vars(owner)[attr] for owner, attr in names] == before
