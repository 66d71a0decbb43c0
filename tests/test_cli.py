import argparse
import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import carnotiso as ci
from carnotiso import cli, sampling
from carnotiso.cli import build_parser, main, parse_group, parse_point
from conftest import fresh_cc_volume_cache, quaternionic


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_import_loads_no_scipy():
    # the package needs numpy only; a fresh interpreter shows what importing the CLI loads
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, carnotiso.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"


def test_import_loads_no_thread_pool():
    # concurrent.futures imports logging; map_chunks loads it only to run threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, carnotiso.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True).stdout
    assert out == "False\n"


def test_console_script_is_cli_main(capsys):
    # the installed `carnotiso` command is pyproject's [project.scripts] entry
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    doc = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert doc["project"]["scripts"] == {"carnotiso": "carnotiso.cli:main"}
    module, _, name = doc["project"]["scripts"]["carnotiso"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: carnotiso")


def test_workflow_test_nodes_exist():
    # every tests/<file>.py::<Name> the CI workflow runs names a file that defines it at
    # its top level, and every tests/<file>.py it names exists: pytest would stop on a
    # missing node, and the workflow runs only where a push reaches it
    root = Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    files = set(re.findall(r"\btests/\w+\.py\b", workflow))
    nodes = re.findall(r"\b(tests/\w+\.py)::(\w+)", workflow)
    assert files and nodes
    for file in files:
        assert (root / file).is_file(), file
    for file, name in nodes:
        tree = ast.parse((root / file).read_text())
        defined = {n.name for n in tree.body
                   if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
        assert name in defined, f"{file}::{name}"


def test_no_test_module_defines_a_name_twice():
    # a second `class TestX:` or `def test_x` in one scope silently replaces the first:
    # pytest collects the later one only and reports nothing. Every top-level name of
    # every tests/*.py, and every name in each of its classes, is defined once
    tests = Path(__file__).resolve().parent
    repeated = []
    for file in sorted(tests.glob("*.py")):
        tree = ast.parse(file.read_text())
        for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            names = [n.name for n in scope.body
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
            where = f"{file.name}::{scope.name}::" if isinstance(scope, ast.ClassDef) \
                else f"{file.name}::"
            repeated += sorted({where + name for name in names if names.count(name) > 1})
    assert repeated == []


class TestParsers:
    def test_groups(self):
        assert parse_group("h1").Q == 4
        assert parse_group("h3").dim1 == 6
        assert json.loads(parse_group("h1-htype").to_json())["kind"] == "htype"

    def test_group_from_file(self, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text(ci.heisenberg(2).to_json())
        assert parse_group("@" + str(f)).Q == 6

    def test_bad_group(self):
        from carnotiso.cli import InputError
        with pytest.raises(InputError):
            parse_group("k5")

    def test_missing_group_file_exits_2(self, capsys, tmp_path):
        assert main(["ball-volume", "--group", "@" + str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2]") and err.count("\n") == 1

    def test_group_file_without_n_exits_2(self, capsys, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text('{"kind": "heisenberg"}')
        assert main(["ball-volume", "--group", "@" + str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: group spec lacks the field 'n'") and err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ("[]", "group spec must be a JSON object, not list"),
        ('{"kind": "heisenberg", "n": null}', "group spec field 'n' must be int, not None"),
        ('{"kind": "heisenberg", "n": 1.7}', "group spec field 'n' must be int, not 1.7"),
        ('{"kind": "heisenberg", "n": true}', "group spec field 'n' must be int, not True"),
        ('{"kind": "heisenberg", "n": "2"}', "group spec field 'n' must be int, not '2'"),
        ('{"kind": "htype", "m": 2.5, "k": 1, "J": [[0, -1, 1, 0]]}', "group spec field 'm'"),
        ('{"kind": "htype", "m": 2, "k": false, "J": [[0, -1, 1, 0]]}', "group spec field 'k'"),
        ('{"kind": "htype", "m": 2, "k": 1, "J": "0,-1,1,0"}',
         "group spec field 'J' must be list"),
        ('{"kind": "htype", "m": 2, "k": 1, "J": [[{}, -1, 1, 0]]}', "J rows must be lists"),
    ], ids=["list", "n-null", "n-fraction", "n-bool", "n-string", "m-fraction", "k-bool",
            "J-string", "J-object"])
    def test_malformed_group_file_exits_2(self, capsys, tmp_path, text, message):
        f = tmp_path / "spec.json"
        f.write_text(text)
        assert main(["ball-volume", "--group", "@" + str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1

    @pytest.mark.parametrize("m, k, rows, shape", [(0, 1, [[]], (1, 0, 0)),
                                                   (2, 0, [], (0, 2, 2)),
                                                   (-1, 1, [[]], (1, -1, -1))],
                             ids=["m-0", "k-0", "m-negative"])
    def test_empty_htype_group_file_exits_2(self, capsys, tmp_path, m, k, rows, shape):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"kind": "htype", "m": m, "k": k, "J": rows}))
        assert main(["ball-volume", "--group", "@" + str(f)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: an H-type structure is k >= 1 square matrices of one size "
                       f"m >= 1, got shape {shape}\n")

    def test_group_file_whole_float_and_htype(self, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text('{"kind": "heisenberg", "n": 2.0}')
        assert parse_group("@" + str(f)).Q == 6
        f.write_text(parse_group("h1-htype").to_json())
        spec = parse_group("@" + str(f))
        assert spec.to_json() == f.read_text() and spec.Q == 4

    def test_points(self):
        p = parse_point(ci.heisenberg(1), "[1,2;3]")
        assert list(p.layer1) == [1, 2] and p.t == 3
        q = parse_point(parse_group("h1-htype"), "(0.5,-1|0.25)")
        assert list(q.layer2) == [0.25]

    @pytest.mark.parametrize("group, ours, theirs, distance, syntax", [
        ("h1", "[0,0;0.25]", "(0,0|0.25)", 0.5, "[x1,...,x2n;t]"),
        ("h1-htype", "(0,0|0.25)", "[0,0;0.25]", 1.0, "(x1,...|z1,...)")],
        ids=["heisenberg", "htype"])
    def test_each_model_refuses_the_others_syntax(self, capsys, group, ours, theirs, distance,
                                                  syntax):
        # layer 2 of the two models differ by t = -4 Z, so one text would name two points
        origin = "[0,0;0]" if ours.startswith("[") else "(0,0|0)"
        code, out = run_main(capsys, "distance", "--metric", "gauge", "--group", group,
                             ours, origin)
        assert code == 0 and json.loads(out)["distance"]["value"] == distance
        assert main(["distance", "--metric", "gauge", "--group", group, theirs, origin]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: cannot parse point {theirs!r}")
        assert f"points are written {syntax}" in captured.err

    def test_bad_points(self):
        from carnotiso.cli import InputError
        spec = ci.heisenberg(1)
        for text in ("1,2,3", "[1;2;3]", "[1,2,3,4;0]", "(1,2|0.5"):
            with pytest.raises(InputError):
                parse_point(spec, text)


class TestDistance:
    def test_cc_center(self, capsys):
        code, out = run_main(capsys, "distance", "--metric", "cc",
                             "[0,0;0]", "[0,0;4]")
        assert code == 0
        doc = json.loads(out)
        assert doc["distance"]["value"] == pytest.approx(2 * math.sqrt(math.pi))

    def test_dinf_default(self, capsys):
        code, out = run_main(capsys, "distance", "[0,0;0]", "[1,0;0]")
        assert code == 0
        assert json.loads(out)["distance"]["value"] == pytest.approx(1.0)

    def test_bad_point_exits_2(self, capsys):
        assert main(["distance", "[0,0;0]", "oops"]) == 2

    def test_wrong_dims_exits_2(self, capsys):
        assert main(["distance", "--group", "h2", "[0,0;0]", "[0,0;1]"]) == 2

    def test_dinf_not_a_distance_exits_2(self, capsys):
        # on the unit ball of c2 = 2, [0,-1;-1/4] and [1,0;1/4] are sqrt(10) apart
        assert main(["distance", "--c2", "2", "[0,-1;-0.25]", "[1,0;0.25]"]) == 2
        assert "c2 <= c1" in capsys.readouterr().err

    @pytest.mark.parametrize("metric,p,q,expected", [
        ("cc", "[0,0;1]", "[1e-170,0;1]", 1e-170),
        ("gauge", "[1e-100,0;1e-200]", "[0,0;0]", 1.1892071150027211e-100),
        ("dinf", "[1e200,0;0]", "[-1e200,0;0]", 2e200),
    ])
    def test_tiny_and_huge_coordinates(self, capsys, metric, p, q, expected):
        # squaring these coordinates unscaled under- or overflows
        code, out = run_main(capsys, "distance", "--metric", metric, p, q)
        assert code == 0
        assert json.loads(out)["distance"]["value"] == expected
        assert capsys.readouterr().err == ""

    def test_distance_beyond_float_range_exits_3(self, capsys):
        assert main(["distance", "[1.7e308,0;0]", "[-1.7e308,0;0]"]) == 3
        assert "overflow" in capsys.readouterr().err


class TestBallVolume:
    def test_dinf_closed_form(self, capsys):
        code, out = run_main(capsys, "ball-volume")
        doc = json.loads(out)
        assert code == 0
        assert doc["volume"]["value"] == pytest.approx(2 * math.pi, rel=1e-14)
        assert doc["volume"]["method"] == "closed_form"

    @pytest.mark.parametrize("argv,value", [(["--c1", "2"], math.pi / 2),
                                            (["--group", "h1-htype"], 2 * math.pi)],
                             ids=["c1_2", "h1_htype"])
    def test_dinf_closed_form_any_coefficients(self, capsys, argv, value):
        code, out = run_main(capsys, "ball-volume", *argv)
        doc = json.loads(out)
        assert code == 0
        assert doc["volume"]["value"] == pytest.approx(value, rel=1e-14)
        assert doc["volume"]["error"] == 0.0
        assert doc["volume"]["method"] == "closed_form"

    def test_cc(self, capsys):
        code, out = run_main(capsys, "ball-volume", "--metric", "cc")
        doc = json.loads(out)
        assert doc["volume"]["value"] == pytest.approx(3.303503048836701, abs=1e-10)
        assert doc["volume"]["method"] == "quadrature"
        # the same rule as cdc-table; quadrature draws no samples
        est = ci.cc_unit_ball_volume(1)
        assert (doc["volume"]["value"], doc["volume"]["error"]) == (est.value, est.error)
        assert doc["volume"]["samples"] == 0

    def test_gauge_htype(self, capsys):
        code, out = run_main(capsys, "ball-volume", "--group", "h1-htype",
                             "--metric", "gauge")
        assert json.loads(out)["volume"]["value"] == pytest.approx(
            math.pi ** 2 / 8, rel=1e-11)

    def test_impossible_tolerance_exits_3(self, capsys, monkeypatch):
        # a rule too coarse for the fixed 1e-12 self-check
        rule = ci.metrics.gauss_legendre
        fresh_cc_volume_cache(monkeypatch)
        monkeypatch.setattr(ci.metrics, "gauss_legendre", lambda n: rule(n // 16))
        assert main(["ball-volume", "--metric", "cc"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: CC ball quadrature") and err.count("\n") == 1

    @pytest.mark.parametrize("metric", ["dinf", "gauge", "cc"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_exits_2(self, capsys, metric, tol):
        # there is no tolerance to set: the flag itself is refused
        assert main(["ball-volume", "--metric", metric, "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("coef", ["1e-200", "1e-100"])
    @pytest.mark.parametrize("command", [["ball-volume"], ["bump-search", "--budget", "10"]])
    def test_tiny_coefficients_exit_3(self, capsys, command, coef):
        # the volume (1/c1)^2 (1/c2)^2 2 pi overflows: 1e-200 in a power of the
        # radius, 1e-100 in the product
        assert main(command + ["--c1", coef, "--c2", coef]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: overflow") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["ball-volume", "--c1", "1e100", "--c2", "1e100"],
        ["ball-volume", "--c1", "1e160", "--c2", "1"],
        ["sigma", "--c1", "1e100", "--c2", "1e100", "--budget", "2000"],
        ["bump-search", "--c1", "1e100", "--c2", "1e100", "--budget", "2000"],
    ], ids=["ball-volume-zero", "ball-volume-subnormal", "sigma", "bump-search"])
    def test_huge_coefficients_exit_3(self, capsys, argv):
        # the volume underflows to 0, or to the subnormal 6.2835e-320 (the
        # true value is 6.2832e-320); every ratio divides by it
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical error: underflow: the unit-ball volume")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("metric", ["gauge", "cc"])
    @pytest.mark.parametrize("flag", ["--c1", "--c2"])
    @pytest.mark.parametrize("command", [["ball-volume"], ["bump-search", "--budget", "10"],
                                         ["distance", "[0,0;0]", "[1,0;0]"]])
    def test_coefficients_need_dinf(self, capsys, command, metric, flag):
        assert main(command + ["--metric", metric, flag, "1"]) == 2
        assert "d_inf coefficients" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["dinf", "cc"])
    def test_zero_coefficient_exits_2(self, capsys, metric):
        assert main(["ball-volume", "--metric", metric, "--c1", "0"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("metric", ["dinf", "gauge", "cc"])
    def test_overflow_exits_3(self, capsys, metric):
        assert main(["ball-volume", "--metric", metric, "--group", "h200"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: overflow") and err.count("\n") == 1

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "vol.json"
        code, _ = run_main(capsys, "ball-volume", "--output", str(dest))
        assert code == 0
        assert json.loads(dest.read_text())["volume"]["method"] == "closed_form"

    def test_output_in_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["ball-volume", "--output", str(tmp_path / "missing" / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2]") and err.count("\n") == 1


class TestCdcTable:
    def test_values(self, capsys):
        code, out = run_main(capsys, "cdc-table", "--n-min", "1", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,cc_ball_volume,cdc_upper_bound"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == pytest.approx(1.2108358735762523, abs=1e-9)

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_bad_tolerance_exits_2(self, capsys, tol):
        assert main(["cdc-table", "--tol", tol]) == 2
        assert capsys.readouterr().out == ""

    def test_inverted_range_exits_2(self, capsys):
        assert main(["cdc-table", "--n-min", "3", "--n-max", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_overflow_exits_3(self, capsys):
        assert main(["cdc-table", "--n-min", "171", "--n-max", "171"]) == 3
        assert capsys.readouterr().err.startswith("numerical error: overflow")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_overflow_keeps_the_rows_before(self, capsys, tmp_path, fmt, to_file):
        # Gamma overflows at n = 171: rows 169 and 170 are written, then exit 3 naming n
        dest = tmp_path / "table"
        table = ["cdc-table", "--n-min", "169", "--format", fmt]
        assert main(table + ["--n-max", "171"] + (["--output", str(dest)] if to_file else [])) == 3
        captured = capsys.readouterr()
        out = dest.read_text() if to_file else captured.out
        assert captured.out == ("" if to_file else out)
        assert captured.err == "numerical error: overflow (at n = 171: math range error)\n"
        code, want = run_main(capsys, *table, "--n-max", "170")
        assert code == 0 and out == want
        ns = ([r["n"] for r in json.loads(out)["rows"]] if fmt == "json"
              else [int(line.split(",")[0]) for line in out.splitlines()[1:]])
        assert ns == [169, 170]

    def test_empty_range_ok(self, capsys):
        code, out = run_main(capsys, "cdc-table", "--n-min", "3", "--n-max", "2")
        assert code == 0
        assert out.strip() == "n,cc_ball_volume,cdc_upper_bound"

    def test_json_format(self, capsys):
        code, out = run_main(capsys, "cdc-table", "--n-max", "2",
                             "--format", "json")
        doc = json.loads(out)
        assert [r["n"] for r in doc["rows"]] == [1, 2]


class TestVerify:
    def test_cc_report(self, capsys):
        code, out = run_main(capsys, "verify", "cc", "--budget", "20000")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["margin"] > 0

    def test_dinf_report(self, capsys):
        code, out = run_main(capsys, "verify", "dinf", "--budget", "20000")
        doc = json.loads(out)
        assert doc["report"]["certified_reach"] == pytest.approx(math.sqrt(2))

    def test_gauge_report(self, capsys):
        code, out = run_main(capsys, "verify", "gauge", "--group", "h1-htype",
                             "--budget", "20000")
        doc = json.loads(out)
        assert doc["report"]["sampled_sup"] <= math.sqrt(2) + 1e-9

    @pytest.mark.parametrize("command", [["verify", "cc"], ["bump-search", "--metric", "cc"]])
    def test_cc_on_htype_exits_2(self, capsys, command):
        assert main(command + ["--group", "h1-htype", "--budget", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: CC distance is implemented for Heisenberg specs only\n"

    def test_budget_above_ceiling_exits_2(self, capsys, monkeypatch):
        def no_draws(seed, chunk):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(sampling, "substream", no_draws)
        budget = sampling.MAX_BUDGET + 1
        assert main(["verify", "dinf", "--budget", str(budget)]) == 2
        assert "ceiling" in capsys.readouterr().err

    def test_large_group_small_budget_runs(self, capsys):
        # the limit is on the chunk actually drawn: 1000 points x 81 coordinates
        for counterexample in ("dinf", "cc"):
            code, out = run_main(capsys, "verify", counterexample, "--group", "h40",
                                 "--budget", "1000")
            assert code == 0 and json.loads(out)["budget"] == 1000

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, capsys, seed):
        # seeds are the 64-bit integers [0, 2^64): SeedSequence refuses -1, and
        # substream refuses 2^64 and above
        assert main(["verify", "dinf", "--budget", "2000", "--seed", seed]) == 2
        assert "outside [0, 2^64)" in capsys.readouterr().err

    def test_largest_seed_runs(self, capsys):
        code, out = run_main(capsys, "verify", "dinf", "--budget", "2000",
                             "--seed", str(2**64 - 1))
        assert code == 0 and json.loads(out)["seed"] == 2**64 - 1

    def test_tol_rejected(self, capsys):
        # no subcommand has a tolerance: the CC volume rule is fixed
        assert main(["verify", "dinf", "--tol", "5", "--budget", "1000"]) == 2
        assert main(["bump-search", "--tol", "5", "--budget", "1000"]) == 2
        assert main(["ball-volume", "--metric", "cc", "--tol", "1e-12"]) == 2
        assert main(["cdc-table", "--tol", "1e-10"]) == 2
        assert capsys.readouterr().out == ""


class TestChunkLimit:
    """One chunk's draw is refused above sampling.MAX_CHUNK_FLOATS, before it is made.

    The width is the floats drawn a point, not the group's: 1 + k = 2 for a
    radial set on H^2, 1 for verify's sphere draw. A group one of whose
    points alone exceeds the limit is refused where --group is read.
    """

    # (argv, floats drawn a point on H^2)
    DRAWS = [(["verify", "dinf"], 1), (["verify", "gauge"], 1), (["verify", "cc"], 1),
             (["bump-search"], 2), (["bump-search", "--metric", "gauge"], 2),
             (["bump-search", "--metric", "cc"], 2), (["sigma"], 2)]
    IDS = ["verify-dinf", "verify-gauge", "verify-cc", "bump-dinf", "bump-gauge", "bump-cc",
           "sigma"]

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"rng.{name} used before the chunk check")

    @pytest.mark.parametrize("argv,width", DRAWS, ids=IDS)
    def test_over_limit_exits_2_before_drawing(self, capsys, monkeypatch, argv, width):
        # 1000 points of H^2 draw 1000 * width floats, one over the patched limit
        monkeypatch.setattr(sampling, "MAX_CHUNK_FLOATS", 1000 * width - 1)
        monkeypatch.setattr(sampling, "substream", lambda seed, chunk: self.NoDraws())
        assert main([*argv, "--group", "h2", "--budget", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: a sampling chunk of 1000 points x {width} coordinates "
                              "exceeds")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["distance", "[0,0,0,0;0]", "[0,0,0,0;1]"], ["ball-volume"], ["verify", "dinf"],
        ["verify", "gauge"], ["verify", "cc"], ["bump-search"], ["sigma"],
    ], ids=["distance", "ball-volume", "verify-dinf", "verify-gauge", "verify-cc", "bump-search",
            "sigma"])
    def test_group_over_limit_exits_2_before_any_metric(self, capsys, monkeypatch, argv):
        # a point of H^2 has 5 coordinates, one over the patched limit: --group is refused
        # before a metric, a group point or a generator is made
        def built(*args, **kwargs):
            raise AssertionError("built before the group check")

        monkeypatch.setattr(sampling, "MAX_CHUNK_FLOATS", 4)
        monkeypatch.setattr(sampling, "substream", lambda seed, chunk: self.NoDraws())
        monkeypatch.setattr(ci.metrics, "make_metric", built)
        monkeypatch.setattr(ci.CCMetric, "__init__", built)  # verify cc builds its own
        monkeypatch.setattr(ci.groups.GroupPoint, "__post_init__", built)
        assert main([*argv, "--group", "h2"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: group 'h2' has 5 coordinates a point, above the limit of 4 "
                       "floats of a sampling chunk\n")

    def test_spec_file_over_limit_exits_2(self, capsys, monkeypatch, tmp_path):
        # the quaternionic H-type group: 4 + 3 coordinates a point
        f = tmp_path / "spec.json"
        f.write_text(quaternionic().to_json())
        monkeypatch.setattr(sampling, "MAX_CHUNK_FLOATS", 6)
        assert main(["bump-search", "--group", "@" + str(f), "--budget", "1000"]) == 2
        assert "has 7 coordinates a point, above the limit of 6" in capsys.readouterr().err
        monkeypatch.setattr(sampling, "MAX_CHUNK_FLOATS", 7)
        assert parse_group("@" + str(f)).dim2 == 3

    @pytest.mark.parametrize("argv,width", DRAWS, ids=IDS)
    def test_limit_bounds_the_chunk_not_the_block(self, capsys, monkeypatch, argv, width):
        # a block of 64 points of H^2 is 64 * width floats, far under the limit; the
        # chunk of 1000 points is one over it
        monkeypatch.setattr(sampling, "BLOCK", 64)
        monkeypatch.setattr(sampling, "MAX_CHUNK_FLOATS", 1000 * width - 1)
        monkeypatch.setattr(sampling, "substream", lambda seed, chunk: self.NoDraws())
        assert main([*argv, "--group", "h2", "--budget", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: a sampling chunk of 1000 points x {width} coordinates "
                              "exceeds")

    @pytest.mark.parametrize("counterexample", ["dinf", "cc"])
    def test_at_limit_runs(self, capsys, monkeypatch, counterexample):
        # at the limit of the width drawn, far under H^2's 1000 x 5 coordinates
        width = {"dinf": 2, "cc": 1}[counterexample]
        monkeypatch.setattr(sampling, "MAX_CHUNK_FLOATS", 1000 * width)
        code, _ = run_main(capsys, "verify", counterexample, "--group", "h2", "--budget", "1000")
        assert code == 0

    @pytest.mark.parametrize("argv", [["verify", "dinf"], ["bump-search"]],
                             ids=["verify-dinf", "bump-dinf"])
    def test_full_chunk_of_a_large_group_runs(self, capsys, argv):
        # a full chunk on H^40 draws 2^19 points x 2 floats; its group width of 81
        # would be 2^19 x 81 floats, above the limit
        code, out = run_main(capsys, *argv, "--group", "h40", "--budget", str(sampling.CHUNK_SIZE))
        assert code == 0 and json.loads(out)["budget"] == sampling.CHUNK_SIZE

    def test_default_chunk_width(self):
        # a full chunk of CHUNK_SIZE points may draw 64 floats a point; one of 801
        # floats a point, about 3.4 GB, is refused
        sampling.check_chunk(sampling.CHUNK_SIZE, 64)
        with pytest.raises(ValueError, match="lower the budget"):
            sampling.check_chunk(sampling.CHUNK_SIZE, 801)


class TestBoxRange:
    """The array norms square box coordinates unscaled; a box whose squares
    leave the normal float range is refused before any draw."""

    @pytest.mark.parametrize("command", ["bump-search", "sigma"])
    @pytest.mark.parametrize("coefs", [["--c2", "1e-77"], ["--c2", "1e-80"],
                                       ["--c1", "1e160", "--c2", "1e-10"]],
                             ids=["c2-1e-77", "c2-1e-80", "c1-1e160"])
    def test_out_of_range_box_exits_3_before_drawing(self, capsys, monkeypatch, command, coefs):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} used before the box check")

        monkeypatch.setattr(sampling, "substream", lambda seed, chunk: NoDraws())
        assert main([command, *coefs, "--budget", "20000", "--seed", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical error: sampling box layer") and err.count("\n") == 1

    @pytest.mark.parametrize("coefs", [[], ["--c1", "1e150"], ["--c2", "1e-70"],
                                       ["--c1", "1e140", "--c2", "1e-60"]],
                             ids=["unit", "c1-1e150", "c2-1e-70", "c1-1e140-c2-1e-60"])
    def test_in_range_boxes_give_the_unit_ratio(self, capsys, coefs):
        # both balls are norm balls shifted in layer 2 only, and (z, t) ->
        # (c1 z, c2^2 t) maps them onto those of unit coefficients, so the
        # ratio does not move; the suite turns any warning into an error. The ratio is
        # the closed form 1 + rho^4 / 2; the Monte Carlo's clipped box is bump \ ball
        # itself, so every draw hits: its cross-check is the closed form to 2e-13
        code, out = run_main(capsys, "bump-search", *coefs, "--budget", "20000", "--seed", "1")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["ratio"]["value"] == 1.0 + (2.0 - math.sqrt(2.0)) ** 4 / 2.0
        assert result["cross_check"]["value"] == 1.0588745030458904
        assert capsys.readouterr().err == ""


class TestBumpSearch:
    def test_overflow_exits_3(self, capsys):
        assert main(["bump-search", "--group", "h200", "--budget", "10"]) == 3
        assert capsys.readouterr().err.startswith("numerical error: overflow")

    @pytest.mark.parametrize("command", ["bump-search", "sigma"])
    @pytest.mark.parametrize("metric", ["dinf", "gauge"])
    def test_overflow_builds_no_wide_point(self, capsys, command, metric):
        # the unit-ball volume of H^200000 overflows before an apex is built: one
        # point of its 400001 coordinates would be 3.1 MiB, two of them 6.5 MiB
        import tracemalloc
        tracemalloc.start()
        try:
            code = main([command, "--metric", metric, "--group", "h200000", "--budget", "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical error: overflow")
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [["--c2", "2"], ["--c1", "0.5"],
                                      ["--group", "h1-htype", "--c2", "2.0000000001"]])
    def test_dinf_not_a_distance_exits_2(self, capsys, argv):
        # no diameter-2 certificate where d_inf fails the triangle inequality
        assert main(["bump-search", "--budget", "1000"] + argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["--c1", "2", "--c2", "2"],
                                      ["--group", "h1-htype", "--c2", "2"]])
    def test_dinf_boundary_coefficients_run(self, capsys, argv):
        code, out = run_main(capsys, "bump-search", "--budget", "1000", *argv)
        assert code == 0
        assert json.loads(out)["result"]["diameter"] == {"kind": "exact", "value": 2.0}


class TestSigma:
    def test_manual_bounds(self, capsys):
        code, out = run_main(capsys, "sigma", "--c-lower", "1", "--c-upper", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["sigma"]["sigma_interval"] == [0.5, 1.0]

    def test_inconsistent_manual_exits_2(self, capsys):
        assert main(["sigma", "--c-lower", "3", "--c-upper", "2"]) == 2

    @pytest.mark.parametrize("lower,upper", [("nan", "2"), ("inf", "inf"), ("1", "nan"),
                                             ("nan", "nan"), ("1", "inf")])
    def test_bad_manual_bounds_exit_2(self, capsys, lower, upper):
        assert main(["sigma", "--c-lower", lower, "--c-upper", upper]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--c-lower", "--c-upper"])
    def test_one_manual_bound_exits_2(self, capsys, flag):
        assert main(["sigma", flag, "1.5", "--budget", "1000"]) == 2
        assert "both --c-lower and --c-upper" in capsys.readouterr().err

    @pytest.mark.parametrize("group", ["h1", "h1-htype"])
    def test_computed_gauge(self, capsys, group):
        code, out = run_main(capsys, "sigma", "--group", group, "--metric", "gauge",
                             "--budget", "20000")
        assert code == 0
        assert json.loads(out)["sigma"]["C_upper"] == pytest.approx(8.0 / math.pi, rel=1e-15)

    def test_quaternionic_dinf(self, capsys, tmp_path):
        # the projection bound 2^k = 8; the bound 2 of H^n is false here
        spec = tmp_path / "quat.json"
        spec.write_text(quaternionic().to_json())
        code, out = run_main(capsys, "sigma", "--group", f"@{spec}", "--budget", "20000")
        assert code == 0
        assert json.loads(out)["sigma"]["C_upper"] == 8.0

    def test_computed_dinf(self, capsys):
        code, out = run_main(capsys, "sigma", "--budget", "50000")
        doc = json.loads(out)
        lo, hi = doc["sigma"]["sigma_interval"]
        assert lo == 0.5 and hi <= 1.0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        [command, *args] for command in ("verify", "bump-search", "sigma")
        for args in (["dinf"], ["gauge", "--group", "h1-htype"], ["cc"])
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_block_size_changes_no_output(self, capsys, monkeypatch, argv):
        # 193 divides neither the budget nor a chunk, so blocks straddle every seam
        if argv[0] != "verify":
            argv = [argv[0], "--metric", *argv[1:]]
        argv += ["--budget", "20000", "--seed", "5"]
        base = run_main(capsys, *argv)
        assert base[0] == 0
        monkeypatch.setattr(sampling, "BLOCK", 193)
        assert run_main(capsys, *argv) == base

    @pytest.mark.parametrize("argv", [["dinf"], ["gauge", "--group", "h1-htype"], ["cc"]],
                             ids=lambda argv: argv[0])
    def test_verify_bytes_across_threads(self, capsys, monkeypatch, argv):
        # two chunks, each with its own running maximum, on one thread and on two
        argv = ["verify", *argv, "--budget", str(2 * sampling.CHUNK_SIZE), "--seed", "9"]
        monkeypatch.setenv(sampling.THREADS_ENV, "1")
        base = run_main(capsys, *argv)
        assert base[0] == 0
        monkeypatch.setenv(sampling.THREADS_ENV, "2")
        assert run_main(capsys, *argv) == base

    @pytest.mark.parametrize("args,threads", [
        pytest.param(args, threads, id="-".join([*args[1:2], threads]))
        for args in ([], ["--metric", "cc"], ["--metric", "gauge", "--group", "h1-htype"])
        for threads in ("1", "4")])
    def test_bump_search_bytes(self, args, threads):
        # two chunks; d_inf, the default metric, keeps the bare thread count as its id
        env = dict(os.environ, CARNOT_ISO_THREADS=threads)
        cmd = [sys.executable, "-m", "carnotiso.cli", "bump-search", *args,
               "--budget", str(2 * (1 << 19)), "--seed", "17"]
        out = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
        # compare against a fresh single-thread run
        env1 = dict(os.environ, CARNOT_ISO_THREADS="1")
        base = subprocess.run(cmd, capture_output=True, env=env1, check=True).stdout
        assert out == base


def test_option_sets_pinned():
    # every subcommand's options, so that a new knob is a visible decision
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    common = {"-h", "--help", "--group", "--output"}
    metric = {"--metric", "--c1", "--c2"}
    mc = {"--seed", "--budget"}
    expected = {
        "distance": common | metric | {"p", "q"},
        "ball-volume": common | metric,
        "cdc-table": {"-h", "--help", "--n-min", "--n-max", "--format", "--output"},
        "verify": common | mc | {"counterexample"},
        "bump-search": common | metric | mc,
        "sigma": common | metric | mc | {"--c-lower", "--c-upper"},
    }
    got = {name: {s for a in p._actions for s in (a.option_strings or [a.dest])}
           for name, p in sub.choices.items()}
    assert got == expected


class TestParserOnce:
    """main builds its parser once a process, and parses as a fresh parser would."""

    def test_two_calls_print_the_same_bytes(self, capsys):
        argv = ["verify", "cc", "--budget", "4096", "--seed", "2"]
        first = run_main(capsys, *argv)
        assert first[0] == 0
        assert run_main(capsys, *argv) == first

    def test_bad_flag_exits_2_with_the_fresh_parser_stderr(self, capsys):
        argv = ["verify", "cc", "--bogus", "1"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        want = capsys.readouterr().err
        assert "--bogus" in want
        for _ in range(2):
            assert main(argv) == 2
            assert capsys.readouterr().err == want

    def test_parser_built_once(self, monkeypatch, capsys):
        calls = []

        def counted():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            assert main(["ball-volume"]) == 0
            assert main(["verify", "dinf", "--budget", "64"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1
