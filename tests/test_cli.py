import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carnotiso as ci
from carnotiso import sampling
from carnotiso.cli import main, parse_group, parse_point


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


class TestParsers:
    def test_groups(self):
        assert parse_group("h1").Q == 4
        assert parse_group("h3").dim1 == 6
        assert parse_group("h1-htype").kind == "htype"

    def test_group_from_file(self, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text(ci.heisenberg(2).to_json())
        assert parse_group("@" + str(f)).Q == 6

    def test_bad_group(self):
        from carnotiso.cli import InputError
        with pytest.raises(InputError):
            parse_group("k5")

    def test_points(self):
        p = parse_point(ci.heisenberg(1), "[1,2;3]")
        assert list(p.layer1) == [1, 2] and p.t == 3
        q = parse_point(parse_group("h1-htype"), "(0.5,-1|0.25)")
        assert list(q.layer2) == [0.25]

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

    def test_impossible_tolerance_exits_3(self, capsys):
        assert main(["ball-volume", "--metric", "cc", "--tol", "1e-16"]) == 3

    def test_gauge_closed_form_meets_any_tolerance(self, capsys):
        # the gauge volume is a closed form, so no tolerance can be missed
        code, out = run_main(capsys, "ball-volume", "--metric", "gauge",
                             "--group", "h1-htype", "--tol", "1e-17")
        assert code == 0
        vol = json.loads(out)["volume"]
        assert (vol["method"], vol["error"]) == ("closed_form", 0.0)

    @pytest.mark.parametrize("metric", ["dinf", "gauge", "cc"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_exits_2(self, capsys, metric, tol):
        assert main(["ball-volume", "--metric", metric, "--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err

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

    def test_budget_above_ceiling_exits_2(self, capsys, monkeypatch):
        def no_draws(seed, chunk):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(sampling, "substream", no_draws)
        budget = sampling.MAX_BUDGET + 1
        assert main(["verify", "dinf", "--budget", str(budget)]) == 2
        assert "ceiling" in capsys.readouterr().err

    def test_tol_rejected(self, capsys):
        # --tol belongs to ball-volume (and cdc-table) only; verify never read it
        assert main(["verify", "dinf", "--tol", "5", "--budget", "1000"]) == 2
        assert main(["bump-search", "--tol", "5", "--budget", "1000"]) == 2


class TestBumpSearch:
    def test_overflow_exits_3(self, capsys):
        assert main(["bump-search", "--group", "h200", "--budget", "10"]) == 3
        assert capsys.readouterr().err.startswith("numerical error: overflow")


class TestSigma:
    def test_manual_bounds(self, capsys):
        code, out = run_main(capsys, "sigma", "--c-lower", "1", "--c-upper", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["sigma"]["sigma_interval"] == [0.5, 1.0]

    def test_inconsistent_manual_exits_2(self, capsys):
        assert main(["sigma", "--c-lower", "3", "--c-upper", "2"]) == 2

    def test_gauge_needs_manual_bounds(self, capsys):
        assert main(["sigma", "--group", "h1-htype", "--metric", "gauge",
                     "--budget", "1000"]) == 2

    def test_computed_dinf(self, capsys):
        code, out = run_main(capsys, "sigma", "--budget", "50000")
        doc = json.loads(out)
        lo, hi = doc["sigma"]["sigma_interval"]
        assert lo == 0.5 and hi <= 1.0


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_bump_search_bytes(self, threads, tmp_path):
        env = dict(os.environ, CARNOT_ISO_THREADS=threads)
        cmd = [sys.executable, "-m", "carnotiso.cli", "bump-search",
               "--budget", str(2 * (1 << 19)), "--seed", "17"]
        out = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
        ref = tmp_path / "ref.json"
        # compare against a fresh single-thread run
        env1 = dict(os.environ, CARNOT_ISO_THREADS="1")
        base = subprocess.run(cmd, capture_output=True, env=env1, check=True).stdout
        assert out == base
