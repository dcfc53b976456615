from __future__ import annotations

import csv
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from allee_lab.cli import main
from allee_lab.normal_forms import taylor_at
from allee_lab.reporting import dumps_canonical


def run_cli(*args: str, env: dict | None = None):
    cmd = [sys.executable, "-m", "allee_lab", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env)


class TestAnalyze:
    def test_fold_point_reported_saddle_node(self):
        res = run_cli("analyze", "--q", "1", "--s", "1", "--h", "0.25", "--m", "0.2")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        labels = {e["label"]: e["classification"] for e in report["equilibria"]}
        assert labels["E1"] == "SaddleNode"
        assert "h2" in report["bifurcation_flags"]

    def test_high_harvest_empty_boundary_branch(self):
        res = run_cli("analyze", "--q", "1", "--s", "1", "--h", "0.5", "--m", "0.2")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert all("prey_axis" not in e["branches"] for e in report["equilibria"])

    def test_weak_center_flagged_on_critical_surface(self):
        res = run_cli("analyze", "--q", "1", "--s", "0.5", "--h", "0.12", "--m", "0.1")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert "s2" in report["bifurcation_flags"]
        labels = {e["label"]: e["classification"] for e in report["equilibria"]}
        assert labels["E8"] == "WeakCenter"

    def test_non_finite_parameter_exits_2(self):
        res = run_cli("analyze", "--q", "1", "--s", "inf", "--h", "0.2", "--m", "0.2")
        assert res.returncode == 2
        assert "s must be finite, got inf" in res.stderr

    @pytest.mark.parametrize("q, s, h, label", [
        ("1", "1e299", "0.1", "E2"),
        ("1e300", "1", "0.1", "E2"),
        ("1", "1e160", "0.1", "E2"),
        ("1e160", "1", "0.1", "E2"),
        # finite entries whose squared norm overflows: an infinite band
        # would call E8, with trace -1e154, a Cusp
        ("1", "6.309573444802098e154", "0.1", "E8"),
        ("1", "1", "1e-300", "E3+E9"),
        ("1", "1", "1e-160", "E3+E9"),
    ])
    def test_unrepresentable_linearisation_exits_2(self, capsys, q, s, h, label):
        assert main(["analyze", f"--q={q}", f"--s={s}", f"--h={h}", "--m=0.2"]) == 2
        err = capsys.readouterr().err
        assert f"error: equilibrium {label} at" in err
        assert "not representable in double precision" in err

    def test_unrepresentable_point_prints_only_the_error(self):
        # no numpy overflow warning ahead of the diagnostic
        res = run_cli("analyze", "--q", "1", "--s", "1e299", "--h", "0.1", "--m", "0.2")
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: equilibrium E2 at")

    @pytest.mark.parametrize("flag", ["--s=1e150", "--h=1e-100"])
    def test_extreme_representable_point_is_analysed(self, capsys, flag):
        argv = ["analyze", "--q=1", "--s=1", "--h=0.1", "--m=0.2", flag]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(e["classification"] for e in report["equilibria"])

    def test_invalid_params_diagnostic_and_exit_2(self):
        res = run_cli("analyze", "--q", "1", "--s", "1", "--h", "0.25", "--m", "1.5")
        assert res.returncode == 2
        assert "m must lie in (0, 1)" in res.stderr

    def test_json_round_trip_is_byte_identical(self):
        res = run_cli("analyze", "--q", "1", "--s", "1", "--h", "0.21", "--m", "0.2")
        assert dumps_canonical(json.loads(res.stdout)) == res.stdout


class TestHopf:
    def test_auto_solved_critical_growth_rate(self):
        res = run_cli("hopf", "--q", "1", "--h", "0.12", "--m", "0.1", "--which", "E8")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["s_critical"] == pytest.approx(0.5, rel=1e-12)
        assert rep["direction"] == "Subcritical"
        assert rep["phi"][2] == 0.0

    def test_threshold_on_wrong_side_exits_2(self):
        res = run_cli("hopf", "--q", "1", "--h", "0.12", "--m", "0.35", "--which", "E8")
        assert res.returncode == 2

    def test_negative_critical_value_exits_2(self):
        res = run_cli("hopf", "--q", "1", "--h", "0.105", "--m", "0.1", "--which", "E8")
        assert res.returncode == 2


class TestBT:
    def test_unperturbed_report(self):
        res = run_cli("bt", "--q", "1", "--m", "0.1", "--eta1", "0", "--eta2", "0")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert abs(rep["l00"]) <= 1e-12 and abs(rep["l01"]) <= 1e-12
        assert rep["jac_det"] > 1e-6
        assert rep["verdict"] == "BTCodim2"

    def test_grid_emits_n_squared_reports(self):
        res = run_cli("bt", "--q", "1", "--m", "0.1", "--grid", "3", "--eta-box", "1e-3")
        assert res.returncode == 0
        reports = json.loads(res.stdout)
        assert len(reports) == 9
        etas = {tuple(r["eta"]) for r in reports}
        assert len(etas) == 9

    def test_inadmissible_cusp_exits_2(self):
        res = run_cli("bt", "--q", "1", "--m", "0.3")
        assert res.returncode == 2
        assert "not positive" in res.stderr

    @pytest.mark.parametrize("n", [1, 4])
    def test_grid_runs_one_ladder_per_point_plus_the_jacobian(self, monkeypatch, tmp_path, n):
        # one coefficient ladder per grid point, plus the four of the
        # unfolding Jacobian once for the cusp base, from a cold start
        import allee_lab.bifurcations as bif

        calls = []

        def counting_taylor_at(*args):
            calls.append(args)
            return taylor_at(*args)

        bif._unfolding_jacobian_det.cache_clear()
        monkeypatch.setattr(bif, "taylor_at", counting_taylor_at)
        argv = ["bt", "--q", "1", "--m", "0.1", "--grid", str(n), "--out", str(tmp_path / "g.json")]
        assert main(argv) == 0
        assert len(calls) == n * n + 4


class TestSimulate:
    def test_equilibrium_start_constant_rows(self):
        res = run_cli("simulate", "--q", "1", "--s", "1", "--h", "0.21", "--m", "0.2",
                      "--x0", "0.7", "--y0", "0", "--tmax", "50")
        assert res.returncode == 0
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert res.stdout.startswith("t,x,y\n")
        assert all(abs(float(r["x"]) - 0.7) <= 1e-8 for r in rows)
        assert all(float(r["y"]) == 0.0 for r in rows)

    def test_prey_only_run_keeps_axis(self):
        res = run_cli("simulate", "--q", "1", "--s", "1", "--h", "0.1", "--m", "0.2",
                      "--x0", "0.4", "--y0", "0", "--tmax", "30")
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert all(float(r["y"]) == 0.0 for r in rows)

    def test_output_file_written_with_lf(self, tmp_path):
        out = tmp_path / "traj.csv"
        res = run_cli("simulate", "--q", "1", "--s", "1", "--h", "0.21", "--m", "0.2",
                      "--x0", "0.71", "--y0", "0.01", "--tmax", "20", "--out", str(out))
        assert res.returncode == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").startswith("t,x,y\n")

    def test_inadmissible_start_exits_2(self):
        res = run_cli("simulate", "--q", "1", "--s", "1", "--h", "0.21", "--m", "0.2",
                      "--x0", "0", "--y0", "0.1")
        assert res.returncode == 2

    def test_negative_predator_start_exits_2(self, capsys):
        argv = ["simulate", "--q=1", "--s=1", "--h=0.21", "--m=0.2", "--x0=0.5", "--y0=-1"]
        assert main(argv) == 2
        assert "predator density must be non-negative, got y = -1.0" in capsys.readouterr().err


class TestSweep:
    def test_boundary_count_transition_across_fold(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--parameter", "h", "--lo", "0.2", "--hi", "0.3",
                      "--steps", "101", "--q", "1", "--s", "1", "--m", "0.2",
                      "--out", str(out))
        assert res.returncode == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 101
        counts = [int(r["n_prey_axis"]) for r in rows]
        runs = [(k, len(list(g))) for k, g in itertools.groupby(counts)]
        assert runs == [(2, 50), (1, 1), (0, 50)]
        flagged = [r for r in rows if r["on_h2"] == "1"]
        assert len(flagged) == 1 and int(flagged[0]["n_prey_axis"]) == 1

    def test_stability_flip_at_critical_growth_rate(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--parameter", "s", "--lo", "0.3", "--hi", "0.7",
                      "--steps", "101", "--q", "1", "--h", "0.12", "--m", "0.1",
                      "--out", str(out))
        assert res.returncode == 0
        rows = list(csv.DictReader(out.open()))
        classes = [r["class_E8"] for r in rows]
        runs = [(k, len(list(g))) for k, g in itertools.groupby(classes)]
        assert runs == [("UnstableFocus", 50), ("WeakCenter", 1), ("StableFocus", 50)]

    def test_degenerate_range_exits_2(self):
        res = run_cli("sweep", "--parameter", "s", "--lo", "0.5", "--hi", "0.5",
                      "--steps", "10", "--q", "1", "--h", "0.12", "--m", "0.1")
        assert res.returncode == 2

    def test_invalid_points_skipped_not_fatal(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--parameter", "m", "--lo", "0.5", "--hi", "1.5",
                      "--steps", "11", "--q", "1", "--s", "1", "--h", "0.1",
                      "--out", str(out))
        assert res.returncode == 0
        rows = list(csv.DictReader(out.open()))
        skipped = [r for r in rows if r["skipped"] == "1"]
        assert len(skipped) == 6  # m >= 1 grid points
        assert all("m must lie in" in r["error"] for r in skipped)

    def test_byte_reproducible_across_runs(self):
        args = ("sweep", "--parameter", "h", "--lo", "0.2", "--hi", "0.3",
                "--steps", "51", "--q", "1", "--s", "1", "--m", "0.2")
        outs = []
        for _ in range(3):
            res = run_cli(*args)
            assert res.returncode == 0
            outs.append(res.stdout)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("bounds, s, named", [
        (("--lo=0.2", "--hi=inf"), "1", "hi must be finite, got inf"),
        (("--lo=-1e308", "--hi=1e308"), "1", "grid step overflows"),
        (("--lo=0.2", "--hi=0.3"), "inf", "s must be finite, got inf"),
    ])
    def test_non_finite_input_exits_2(self, capsys, bounds, s, named):
        argv = ["sweep", "--parameter=h", *bounds, "--steps=3", "--q=1", f"--s={s}", "--m=0.2"]
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    def test_unrepresentable_points_become_error_rows(self, capsys):
        argv = ["sweep", "--parameter=s", "--lo=1", "--hi=1e300", "--steps=3",
                "--q=1", "--h=0.1", "--m=0.2"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["skipped"] for r in rows] == ["0", "1", "1"]
        assert all(r["error"].startswith("NotRepresentable: equilibrium E2 at")
                   for r in rows[1:])


class TestScipyLoadedOnlyToIntegrate:
    def test_closed_form_commands_leave_scipy_unloaded(self, tmp_path):
        # a fresh interpreter: this one imported scipy with the tests
        out = str(tmp_path / "out")
        script = f"""
import sys
import allee_lab, allee_lab.cli as cli
for argv in (["analyze", "--q=1", "--s=1", "--h=0.12", "--m=0.1"],
             ["hopf", "--q=1", "--h=0.12", "--m=0.1"],
             ["bt", "--q=1", "--m=0.1"],
             ["sweep", "--parameter=h", "--lo=0.2", "--hi=0.3", "--steps=11",
              "--q=1", "--s=1", "--m=0.2"]):
    assert cli.main([*argv, "--out", {out!r}]) == 0, argv
    assert "scipy" not in sys.modules, argv
assert cli.main(["simulate", "--q=1", "--s=1", "--h=0.21", "--m=0.2", "--x0=0.71",
                 "--y0=0.01", "--tmax=5", "--out", {out!r}]) == 0
assert "scipy" in sys.modules
"""
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


class TestHarvestDemo:
    def test_demo_csv_equals_cli_sweep(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        demo = subprocess.run([sys.executable, str(root / "demos" / "harvest_sweep.py")],
                              cwd=tmp_path, capture_output=True, text=True, env=env)
        assert demo.returncode == 0, demo.stderr
        res = run_cli("sweep", "--parameter", "h", "--lo", "0.2", "--hi", "0.3",
                      "--steps", "21", "--q", "1", "--s", "1", "--m", "0.2")
        assert res.returncode == 0
        assert (tmp_path / "harvest_sweep.csv").read_text(encoding="utf-8") == res.stdout


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("q = 1\ns = 1\nh = 0.25   # fold harvest\nm = 0.2\n")
        res = run_cli("analyze", "--config", str(cfg))
        assert res.returncode == 0
        assert json.loads(res.stdout)["params"]["h"] == 0.25
        res2 = run_cli("analyze", "--config", str(cfg), "--h", "0.21")
        assert json.loads(res2.stdout)["params"]["h"] == 0.21

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("q 1\n")
        res = run_cli("analyze", "--config", str(cfg), "--s", "1", "--h", "0.2", "--m", "0.2")
        assert res.returncode == 2


class TestExitCodes:
    def test_internal_numerical_failure_maps_to_3(self, monkeypatch):
        # main looks the command function up by name on every call, so patching
        # the module attribute is seen even by a parser built by an earlier call
        import allee_lab.cli as cli_mod

        def boom(args):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(cli_mod, "_cmd_analyze", boom)
        code = main(["analyze", "--q", "1", "--s", "1", "--h", "0.2", "--m", "0.2"])
        assert code == 3

    def test_patched_command_seen_after_an_earlier_call(self, monkeypatch, capsys):
        import allee_lab.cli as cli_mod

        argv = ["analyze", "--q", "1", "--s", "1", "--h", "0.2", "--m", "0.2"]
        assert main(argv) == 0

        def boom(args):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(cli_mod, "_cmd_analyze", boom)
        assert main(argv) == 3
        assert capsys.readouterr().err == "numerical failure: synthetic failure\n"


class TestSequentialCalls:
    def test_one_process_matches_fresh_runs(self, capsys, tmp_path):
        # the parser and the unfolding Jacobian are shared between calls;
        # each call must still give what a fresh interpreter gives
        cfg = tmp_path / "params.cfg"
        cfg.write_text("q = 1\ns = 1\nh = 0.25\nm = 0.2\n")
        runs = [
            ["bt", "--q", "1", "--m", "0.1", "--grid", "3"],
            ["bt", "--q", "1", "--m", "0.1"],
            ["analyze", "--config", str(cfg)],
            ["analyze"],
        ]
        in_process = []
        for argv in runs:
            code = main(argv)
            out, err = capsys.readouterr()
            in_process.append((code, out, err))
        fresh = []
        for argv in runs:
            res = run_cli(*argv)
            fresh.append((res.returncode, res.stdout, res.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in in_process] == [0, 0, 0, 2]
        assert "missing required value(s): --q, --s, --h, --m" in in_process[3][2]
