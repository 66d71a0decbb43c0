"""Golden stdout bytes for the CLI.

Each case runs one command through ``carnotiso.cli.main`` at a small budget
and compares stdout (and the ``--sweep-csv`` file, where there is one) with
the bytes stored under ``tests/golden/``. A refactor that keeps the numbers
keeps these bytes. ``bump-search --metric cc`` is left out: its reach
certificate is a sampled maximum plus a safety margin and is due to change.

After a deliberate change of output, rewrite the files with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from carnotiso.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; "{sweep}" stands for the --sweep-csv destination
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
    "verify_gauge_htype": ["verify", "gauge", "--group", "h1-htype",
                           "--budget", "20000", "--seed", "3"],
    "verify_cc": ["verify", "cc", "--budget", "20000", "--seed", "3"],
    "bump_search_dinf_h1": ["bump-search", "--budget", "40000", "--seed", "5",
                            "--sweep-csv", "{sweep}"],
    "bump_search_gauge_htype": ["bump-search", "--metric", "gauge", "--group", "h1-htype",
                                "--budget", "40000", "--seed", "5",
                                "--sweep-csv", "{sweep}"],
    "sigma_dinf": ["sigma", "--metric", "dinf", "--budget", "40000", "--seed", "7"],
}


def run_case(name, tmp_dir: Path):
    """(stdout, sweep-csv text or None) of one golden command."""
    sweep = tmp_dir / f"{name}.sweep.csv"
    argv = [str(sweep) if a == "{sweep}" else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{name} exited {code}"
    return out.getvalue(), sweep.read_text() if sweep.exists() else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    stdout, sweep = run_case(name, tmp_path)
    assert stdout == (GOLDEN / f"{name}.out").read_text()
    sweep_file = GOLDEN / f"{name}.sweep.csv"
    assert sweep == (sweep_file.read_text() if sweep_file.exists() else None)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            stdout, sweep = run_case(case, Path(tmp))
            (GOLDEN / f"{case}.out").write_text(stdout)
            if sweep is not None:
                (GOLDEN / f"{case}.sweep.csv").write_text(sweep)
            sys.stderr.write(f"wrote {case}\n")
