"""Golden stdout bytes for the CLI.

Each case runs one command through ``carnotiso.cli.main`` at a small budget
and compares stdout with ``tests/golden/<case>.out``. A refactor that keeps
the numbers keeps these bytes.

After a deliberate change of output, rewrite the files with
``PYTHONPATH=src python tests/test_cli_golden.py``, which names the files
whose bytes changed and lists each number that moved, old -> new, with its
distance in ulp, and for each moved Monte Carlo ``value`` with an ``error``
beside it, the pull (new - old) / (old error^2 + new error^2)^(1/2); then
review the diff.
"""

import contextlib
import io
import json
import math
import re
import struct
import sys
from pathlib import Path

import pytest

from carnotiso.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> argv
CASES = {
    "distance_cc": ["distance", "--metric", "cc", "[0,0;0]", "[1,2;0.5]"],
    "ball_volume_dinf": ["ball-volume"],
    "ball_volume_gauge_h1": ["ball-volume", "--metric", "gauge"],
    "ball_volume_gauge_htype": ["ball-volume", "--metric", "gauge", "--group", "h1-htype"],
    "ball_volume_cc_h1": ["ball-volume", "--metric", "cc"],
    "ball_volume_cc_h2": ["ball-volume", "--metric", "cc", "--group", "h2"],
    "cdc_table_csv": ["cdc-table"],
    "cdc_table_json": ["cdc-table", "--format", "json"],
    "verify_dinf": ["verify", "dinf", "--budget", "20000", "--seed", "3"],
    "verify_dinf_h2": ["verify", "dinf", "--group", "h2", "--budget", "20000", "--seed", "3"],
    "verify_gauge_h1": ["verify", "gauge", "--budget", "20000", "--seed", "3"],
    "verify_gauge_htype": ["verify", "gauge", "--group", "h1-htype",
                           "--budget", "20000", "--seed", "3"],
    "verify_cc": ["verify", "cc", "--budget", "20000", "--seed", "3"],
    "bump_search_dinf_h1": ["bump-search", "--budget", "40000", "--seed", "5"],
    "bump_search_dinf_h2": ["bump-search", "--metric", "dinf", "--group", "h2",
                            "--budget", "40000", "--seed", "5"],
    "bump_search_dinf_c2": ["bump-search", "--metric", "dinf", "--c2", "0.7",
                            "--budget", "40000", "--seed", "5"],
    "bump_search_gauge_h1": ["bump-search", "--metric", "gauge", "--group", "h1",
                             "--budget", "40000", "--seed", "5"],
    "bump_search_gauge_htype": ["bump-search", "--metric", "gauge", "--group", "h1-htype",
                                "--budget", "40000", "--seed", "5"],
    "bump_search_cc_h1": ["bump-search", "--metric", "cc", "--budget", "20000",
                          "--seed", "5"],
    "sigma_dinf": ["sigma", "--metric", "dinf", "--budget", "40000", "--seed", "7"],
    "sigma_gauge_htype": ["sigma", "--metric", "gauge", "--group", "h1-htype",
                          "--budget", "40000", "--seed", "7"],
}


def run_case(name):
    """stdout of one golden command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CASES[name])
    assert code == 0, f"{name} exited {code}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name):
    assert run_case(name) == (GOLDEN / f"{name}.out").read_text()


def test_golden_files_match_cases():
    # one <case>.out per case and nothing else, so no stray file lingers
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(f"{c}.out" for c in CASES)


# a decimal number not glued to a name, so the 2 of "h2" is not one
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def ulp_distance(a, b):
    """Number of doubles from a to b, counting across 0."""
    def ordered(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & (2**63 - 1))
    return abs(ordered(a) - ordered(b))


def moved_numbers(old, new):
    """Lines 'old -> new (k ulp)' for each number that moved, paired in order of appearance."""
    before, after = NUMBER.findall(old), NUMBER.findall(new)
    if len(before) != len(after):
        return [f"{len(before)} numbers before, {len(after)} after: compare by hand"]
    return [f"{a} -> {b} ({ulp_distance(float(a), float(b))} ulp)"
            for a, b in zip(before, after) if a != b]


def pulls(old, new):
    """Lines 'path: old -> new, pull p' for each moved value of a {value, error} object.

    p = (new - old) / sqrt(old_error^2 + new_error^2): old and new are two
    estimates, each with its own error, so their difference has the two errors
    in quadrature. Outputs that are not JSON give no line.
    """
    try:
        return _value_pulls(json.loads(old), json.loads(new), "")
    except ValueError:
        return []


def _value_pulls(old, new, path):
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return []
    lines = []
    if {"value", "error"} <= old.keys() & new.keys() and old["value"] != new["value"]:
        pull = (new["value"] - old["value"]) / math.hypot(old["error"], new["error"])
        lines.append(f"{path}: {old['value']!r} -> {new['value']!r}, pull {pull:+.2f}")
    for key in sorted(old.keys() & new.keys()):
        lines += _value_pulls(old[key], new[key], f"{path}.{key}")
    return lines


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    changed, report = 0, []
    for case in sorted(CASES):
        path = GOLDEN / f"{case}.out"
        text = run_case(case)
        if not path.exists() or path.read_text() != text:
            old = path.read_text() if path.exists() else ""
            path.write_text(text)
            changed += 1
            report += [path.name] + [f"  {line}" for line in moved_numbers(old, text)]
            report += [f"  {line}" for line in pulls(old, text)]
    sys.stderr.write(f"{changed} of {len(CASES)} golden files changed"
                     + "".join(f"\n  {line}" for line in report) + "\n")
