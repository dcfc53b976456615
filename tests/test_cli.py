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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allee_lab import reporting
from allee_lab.bifurcations import bt_normal_form, cusp_base_params
from allee_lab.cli import main
from allee_lab.errors import SignAssumptionViolated
from allee_lab.model import _linspace
from allee_lab.normal_forms import taylor_at
from allee_lab.reporting import dumps_canonical

GOLDEN = Path(__file__).parent / "golden" / "cli"


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

    @pytest.mark.parametrize("h", ["5e10", "1e11", "1e200"])
    def test_harvest_past_every_fold_has_no_equilibria(self, capsys, h):
        # the discriminant has the size of the root product here, so no
        # fold band reaches it
        assert main(["analyze", "--q=1", "--s=1", f"--h={h}", "--m=0.2"]) == 0
        assert json.loads(capsys.readouterr().out)["equilibria"] == []

    @pytest.mark.parametrize("argv", [["analyze", "--json"], ["sweep", "--csv"]])
    def test_format_flags_are_unknown(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert "unrecognized arguments: " + argv[1] in res.stderr


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

    @pytest.mark.parametrize("argv, message", [
        ("--q 1 --h 0.2 --m 0.1", "diagonal equilibrium pair does not exist (discriminant <= 0)"),
        ("--q 1 --h 0.1 --m 0.1 --which E9",
         "need m > x9 for a weak center at E9 (m=0.1, x9=0.13819660112501053)"),
        # trace zero at E9 = (0.2, 0.2), on the det < 0 side of it
        ("--q 1 --s 4 --h 0.12 --m 0.1 --which E9",
         "det -8.000e-02 not positive: equilibrium is not a center candidate"),
    ])
    def test_no_weak_centre_exits_2(self, capsys, argv, message):
        assert main(["hopf", *argv.split()]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize("flag, named", [
        (("--h", "0.2"), "h3"),
        (("--s", "7"), "s1"),
        # a NaN compares false with every band, so it is rejected as a value
        (("--h", "nan"), "h must be finite"),
        (("--s", "nan"), "s must be finite"),
        # grid and box are checked before any ladder runs
        (("--grid", "0"), "--grid must be at least 1, got 0"),
        (("--grid", "-1"), "--grid must be at least 1, got -1"),
        (("--grid", "2", "--eta-box=-1e-3"), "--eta-box must be finite and > 0, got -0.001"),
        (("--grid", "2", "--eta-box=0"), "--eta-box must be finite and > 0, got 0.0"),
        (("--grid", "2", "--eta-box", "nan"), "--eta-box must be finite and > 0, got nan"),
        (("--grid", "2", "--eta-box", "inf"), "--eta-box must be finite and > 0, got inf"),
        # flags the chosen mode would ignore
        (("--grid", "2", "--eta1", "1e-4"), "--eta1 cannot be combined with --grid"),
        (("--grid", "2", "--eta2=-1e-4"), "--eta2 cannot be combined with --grid"),
        (("--grid", "2", "--eta1", "0", "--eta2", "0"),
         "--eta1 and --eta2 cannot be combined with --grid"),
        (("--eta-box", "1e-3"), "--eta-box applies only with --grid"),
        (("--eta-box", "1e-3", "--eta1", "5e-3"), "--eta-box applies only with --grid"),
        # q and m are checked as ModelParams checks them, before the cusp base
        # is built from them (q = -1 divided by zero there, exit 3)
        (("--q=-1", "--m=0.5"), "q must be > 0, got -1.0"),
        (("--q=0",), "q must be > 0, got 0.0"),
        (("--q=nan",), "q must be finite, got nan"),
        (("--q=-0.5",), "q must be > 0, got -0.5"),
        (("--m=1.5",), "m must lie in (0, 1), got 1.5"),
    ])
    def test_off_cusp_base_exits_2(self, capsys, flag, named):
        assert main(["bt", "--q", "1", "--m", "0.1", *flag]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and named in err

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           st.integers(min_value=1, max_value=200))
    @example(45.33, 2000)  # a cycle's amplitude samples of one 45.33 period
    def test_grid_values_equal_numpy_linspace(self, box, n):
        # bt_grid5.json pins the grid's eta values, which np.linspace gave;
        # detect_cycle samples one period from 0 to t_end
        for lo, hi in ((-box, box), (0.0, box), (0.0, -box)):
            with np.errstate(all="ignore"):  # 2 * box may overflow on both routes
                expected = np.linspace(lo, hi, n).tolist()
            got = _linspace(lo, hi, n)
            assert list(map(repr, got)) == list(map(repr, expected))

    @pytest.mark.parametrize("argv, mirrored", [
        ("--q 1 --m 0.1 --grid 5", 0),
        ("--q 0.5 --m 0.05 --grid 5", 0),
        ("--q 2 --m 0.02 --grid 5 --eta-box 5e-4", 0),
        # f20 > 0 in the top three rows: the chain's mirrored branch
        ("--q 1 --m 0.225 --grid 21 --eta-box 1e-3", 63),
    ])
    def test_each_grid_cell_equals_its_single_point_report(self, capsys, argv, mirrored):
        base = argv.split("--grid")[0].split()
        assert main(["bt", *argv.split()]) == 0
        cells = json.loads(capsys.readouterr().out)
        assert sum(cell["mirrored"] for cell in cells) == mirrored
        for cell in cells:
            e1, e2 = cell["eta"]
            assert main(["bt", *base, f"--eta1={e1!r}", f"--eta2={e2!r}"]) == 0
            assert capsys.readouterr().out == dumps_canonical(cell)

    def test_vanishing_f20_exits_2_at_a_point_and_on_a_grid_through_it(self, capsys):
        # at (q, m) = (1, 0.225) f20 changes sign between eta1 = 7e-4 and
        # 8e-4 and barely moves with eta2; bisect eta1 at eta2 = 0 into the
        # band |f20| <= F20_RTOL * max(1, |f11|) that the chain refuses
        p = cusp_base_params(1.0, 0.225)
        lo, hi = 7e-4, 8e-4
        while True:
            e1 = 0.5 * (lo + hi)
            assert lo < e1 < hi, "the bisection reached adjacent floats"
            try:
                f20 = bt_normal_form(p, (e1, 0.0)).f20
            except SignAssumptionViolated:
                break
            lo, hi = (e1, hi) if f20 < 0 else (lo, e1)
        # a 3 x 3 grid over [-e1, e1] has the cell (e1, 0.0)
        for extra in ([f"--eta1={e1!r}", "--eta2=0"], ["--grid=3", f"--eta-box={e1!r}"]):
            assert main(["bt", "--q=1", "--m=0.225", *extra]) == 2
            assert capsys.readouterr().err == (
                "error: quadratic coefficient f20 vanishes; chain inapplicable\n")

    @pytest.mark.parametrize("argv, message", [
        ("--q 1 --m 0.25", "m = 2*h3 = 0.25: trace cannot vanish at the fold point"),
        # h and s off a cusp base whose h3 or s1 is tiny: each is compared
        # relative to the base value, so a gap below 1e-9 is still seen
        ("--q 1e8 --m 1e-10 --h 3e-9",
         "h = 3e-09 is not the diagonal fold value h3 = 2.499999975e-09"),
        ("--q 1e-9 --m 0.1 --s 1e-9",
         "s = 1e-09 is not the cusp value s1 = 1.2500001049879639e-09"),
        ("--q 1 --m 0.1 --grid 21 --eta-box 0.008",
         "perturbation (-0.008, -0.008) too large; the chain is local (|eta| <= 1e-2)"),
        # h3 = 1/4004, so the first cell's harvest would be negative
        ("--q 1000 --m 1e-4 --grid 21",
         "perturbation (-0.001, -0.001) exceeds h3 = 0.00024975024975024975: "
         "h3 + eta1 must be > 0"),
        # s1 = 0.001..., so the first cell's growth rate would be negative
        ("--q 1e-3 --m 1e-9 --grid 3 --eta-box 0.002",
         "perturbation (-0.002, -0.002) exceeds s1 = 0.0010000000020018549: "
         "s1 + eta2 must be > 0"),
        # h3 = 2.5e-7, so the first cell's harvest would be negative
        ("--q 1e6 --m 1e-7 --grid 3 --eta-box 2e-6",
         "perturbation (-2e-06, -2e-06) exceeds h3 = 2.4999975000025e-07: "
         "h3 + eta1 must be > 0"),
        # a NaN perturbation is named as one, not as the h or s it would make
        ("--q 1 --m 0.1 --eta2=nan", "perturbation (0.0, nan) is not finite"),
        ("--q 1 --m 0.1 --eta1=nan", "perturbation (nan, 0.0) is not finite"),
        ("--q 1 --m 0.1 --eta1=inf",
         "perturbation (inf, 0.0) too large; the chain is local (|eta| <= 1e-2)"),
    ])
    def test_chain_errors_exit_2(self, capsys, argv, message):
        assert main(["bt", *argv.split()]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_inadmissible_cusp_exits_2(self):
        res = run_cli("bt", "--q", "1", "--m", "0.3")
        assert res.returncode == 2
        assert "not positive" in res.stderr

    @pytest.mark.parametrize("n", [1, 4])
    def test_grid_runs_one_expansion_per_new_eta(self, monkeypatch, tmp_path, n):
        # one expansion per cell that brings a new eta1 or a new eta2, so
        # 2n - 1 on an n x n grid; the unfolding Jacobian is a closed form
        import allee_lab.bifurcations as bif

        calls = []

        def counting_taylor_at(*args):
            calls.append(args)
            return taylor_at(*args)

        monkeypatch.setattr(bif, "taylor_at", counting_taylor_at)
        argv = ["bt", "--q", "1", "--m", "0.1", "--grid", str(n), "--out", str(tmp_path / "g.json")]
        assert main(argv) == 0
        assert len(calls) == 2 * n - 1

    @pytest.mark.parametrize("argv, jac_det", [
        # h3 = 1/(4(q + 1)) below 1e-6 at the first two, s1 = 1.25e-9 at the
        # third; at the fourth m lies 4e-10 from 2*h3 = 5e-10, far off it
        # relative to 2*h3
        ("--q 1e6 --m 1e-7", 184.52865808174352),
        ("--q 3e5 --m 1e-6", 840.3632056146192),
        ("--q 1e-9 --m 0.1", 1.024000003456e29),
        ("--q 1e9 --m 1e-10", 184.5281255330812),
    ])
    def test_bt_at_extreme_cusp_bases(self, capsys, argv, jac_det):
        assert main(["bt", *argv.split()]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["l00"] == 0.0 and report["l01"] == 0.0
        assert report["jac_det"] == pytest.approx(jac_det, rel=1e-12)
        assert report["verdict"] == "BTCodim2"

    def test_grid_inside_a_tiny_harvest(self, capsys):
        # every cell keeps h3 + eta1 > 0 at h3 = 2.5e-7
        assert main(["bt", *"--q 1e6 --m 1e-7 --grid 3 --eta-box 1e-8".split()]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 9
        assert [row["jac_det"] for row in rows] == pytest.approx([184.52865808174352] * 9,
                                                                 rel=1e-12)


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

    @pytest.mark.parametrize("x0, y0, stdout", [
        ("1e-7", "1e300", "t,x,y\n0.0,1e-07,1e+300\n"),
        ("1e300", "1e300", "t,x,y\n0.0,1e+300,1e+300\n"),
        ("0.5", "1e154", "t,x,y\n0.0,0.5,1e+154\n"),
    ])
    def test_overflowing_start_stops_as_diverged(self, x0, y0, stdout):
        # every stage overflows to inf/nan, which rejects each step until the
        # step size underflows; only the initial row is written
        res = run_cli("simulate", "--q=1", "--s=1", "--h=0.1", "--m=0.2", "--tmax=20",
                      f"--x0={x0}", f"--y0={y0}")
        assert (res.returncode, res.stdout, res.stderr) == (0, stdout, "")

    def test_infinite_horizon_exits_2(self):
        # the stepper never reaches an infinite horizon; the timeout turns a
        # hang into a failure instead of stalling the suite
        cmd = [sys.executable, "-m", "allee_lab", "simulate", "--q=1", "--s=1", "--h=0.21",
               "--m=0.2", "--x0=0.71", "--y0=0.01", "--tmax=inf"]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert (res.returncode, res.stdout, res.stderr) == (2, "", "error: t_max must be finite\n")

    @pytest.mark.parametrize("argv", [
        # near the stable node the step size is capped by stability, so a
        # long horizon takes a step count proportional to its length
        ["--s=1", "--h=0.21", "--x0=0.71", "--y0=0.01", "--tmax=1e300"],
        # stiff: at s = 1e6 even the default horizon needs tiny steps
        ["--s=1e6", "--h=0.1", "--x0=0.9", "--y0=0.01"],
    ])
    def test_step_budget_exits_2(self, monkeypatch, capsys, argv):
        import allee_lab.dynamics as dynamics

        monkeypatch.setattr(dynamics, "MAX_STEPS", 500)
        assert main(["simulate", "--q=1", "--m=0.2", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: integration stopped after 500 steps at t = ")
        assert len(err.splitlines()) == 1

    def test_run_within_step_budget_completes(self, monkeypatch, capsys):
        import allee_lab.dynamics as dynamics

        argv = ["simulate", "--q=1", "--s=1", "--h=0.21", "--m=0.2", "--x0=0.71", "--y0=0.01",
                "--tmax=20"]
        assert main(argv) == 0
        rows = len(capsys.readouterr().out.splitlines()) - 2  # header and initial row
        monkeypatch.setattr(dynamics, "MAX_STEPS", rows)
        assert main(argv) == 0
        monkeypatch.setattr(dynamics, "MAX_STEPS", rows - 1)
        assert main(argv) == 2
        capsys.readouterr()

    def test_log_uniform_starts_exit_0_or_2(self, capsys):
        rng = np.random.default_rng(3141)
        for x0, y0 in 10.0 ** rng.uniform(-7.0, 300.0, size=(60, 2)):
            argv = ["simulate", "--q=1", "--s=1", "--h=0.1", "--m=0.2", "--tmax=20",
                    f"--x0={float(x0)!r}", f"--y0={float(y0)!r}"]
            assert main(argv) in (0, 2), argv
        capsys.readouterr()


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


# prints whether numpy is loaded after the imports and after each command;
# no command may load dataclasses (whose import pulls in inspect) or scipy
_LOADED_AFTER_EACH = """
import json, sys
import allee_lab as al, allee_lab.cli as cli
p = al.ModelParams(q=1, s=1.0, h=0.12, m=0.1)
assert not al.detect_cycle(p, al.State(0.3, 0.3)).found
assert al.classify_by_simulation(p, al.State(0.3, 0.3)) is al.SimVerdict.STABLE_FOCUS
assert "numpy" not in sys.modules  # the simulation oracle runs on floats
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert cli.main([*argv, "--out", sys.argv[2]]) == 0, argv
    assert "dataclasses" not in sys.modules, argv
    loaded.append("numpy" in sys.modules)
assert "scipy" not in sys.modules
print(json.dumps(loaded))
"""


class TestLazyImports:
    def test_numpy_only_on_first_sweep(self, tmp_path):
        # fresh interpreters: this one imported numpy and scipy with the tests
        runs = [
            ([["analyze", "--q=1", "--s=1", "--h=0.12", "--m=0.1"],
              ["hopf", "--q=1", "--h=0.12", "--m=0.1"],
              ["bt", "--q=1", "--m=0.1"],
              ["bt", "--q=1", "--m=0.1", "--grid=3"]], [False] * 5),
            # up to ROW_SWEEP_MAX points a sweep runs row by row, without numpy
            ([["sweep", "--parameter=h", "--lo=0.2", "--hi=0.3", "--steps=11",
               "--q=1", "--s=1", "--m=0.2"],
              ["sweep", "--parameter=h", "--lo=0.2", "--hi=0.3",
               f"--steps={reporting.ROW_SWEEP_MAX}", "--q=1", "--s=1", "--m=0.2"],
              ["sweep", "--parameter=h", "--lo=0.005", "--hi=0.305", "--steps=301",
               "--q=1", "--s=1", "--m=0.2"]], [False, False, False, True]),
            ([["simulate", "--q=1", "--s=1", "--h=0.21", "--m=0.2", "--x0=0.71",
               "--y0=0.01", "--tmax=5"]], [False, False]),
        ]
        for commands, loaded in runs:
            res = subprocess.run([sys.executable, "-c", _LOADED_AFTER_EACH,
                                  json.dumps(commands), str(tmp_path / "out")],
                                 capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            assert json.loads(res.stdout) == loaded, commands


DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name: str, cwd: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DEMOS.parent / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(DEMOS / name)],
                          cwd=cwd, capture_output=True, text=True, env=env)


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    # a demo that uses a removed public name fails here, not in a reader's hands
    demo = run_demo(name, tmp_path)
    assert demo.returncode == 0, demo.stderr


class TestHarvestDemo:
    def test_demo_csv_equals_cli_sweep(self, tmp_path):
        demo = run_demo("harvest_sweep.py", tmp_path)
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

    # a bad value gives argparse's usage message naming the flag, exit 2
    @pytest.mark.parametrize("argv, config, flags, code", [
        (["sweep", "--parameter=h", "--lo=0.2", "--hi=0.3", "--q=1", "--s=1", "--m=0.2"],
         "steps = 5", ["--steps", "5"], 0),
        (["sweep", "--lo=0.2", "--hi=0.3", "--steps=5", "--q=1", "--s=1", "--m=0.2"],
         "parameter = h", ["--parameter", "h"], 0),
        (["analyze", "--q=1", "--s=1", "--h=0.21", "--m=0.2"], "out = {out}", ["--out", "{out}"], 0),
        (["bt", "--q=1", "--m=0.1", "--grid=3"], "eta-box = 2e-3", ["--eta-box", "2e-3"], 0),
        # E9's critical growth rate is negative here, E8's differs
        (["hopf"], "q = 1\nh = 0.1\nm = 0.3\nwhich = E9",
         ["--q=1", "--h=0.1", "--m=0.3", "--which=E9"], 2),
        (["analyze", "--q=1", "--s=1", "--h=0.21", "--m=0.2"], "colour = blue", [], 0),
        (["analyze", "--q=1", "--s=1", "--h=0.21", "--m=0.2"], "h = 0.25", [], 0),
        (["analyze", "--s=1", "--h=0.21", "--m=0.2"], "q = abc", ["--q", "abc"], 2),
        (["hopf", "--q=1", "--h=0.1", "--m=0.3"], "which = E7", ["--which", "E7"], 2),
    ], ids=["int", "str", "out", "dashed-key", "which", "unknown-key", "flag-wins",
            "bad-value", "bad-choice"])
    def test_config_line_acts_as_its_flag(self, tmp_path, argv, config, flags, code):
        out = tmp_path / "out.json"

        def outcome(*args):
            res = run_cli(*(a.format(out=out) for a in args))
            written = out.read_text(encoding="utf-8") if out.exists() else None
            out.unlink(missing_ok=True)
            return res.returncode, res.stdout, res.stderr, written

        cfg = tmp_path / "params.cfg"
        cfg.write_text(config.format(out=out) + "\n", encoding="utf-8")
        via_config = outcome(*argv, "--config", str(cfg))
        assert via_config == outcome(*argv, *flags)
        assert via_config[0] == code

    @pytest.mark.parametrize("flag, path", [
        ("--config", "missing.cfg"), ("--config", "."), ("--out", "no/such/dir/x.json"),
    ])
    def test_unusable_path_exits_2_with_one_error_line(self, tmp_path, flag, path):
        res = run_cli("analyze", "--q", "1", "--s", "1", "--h", "0.1", "--m", "0.2",
                      flag, str(tmp_path / path))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr


# in-process runs, so that the statements they reach are seen by a tracer:
# an explicit hopf --s, a sweep that skips every point, and a comment-only and
# a malformed config line
@pytest.mark.parametrize("argv, config, code, golden, err", [
    (["hopf", "--q=1", "--h=0.12", "--m=0.1", "--s=0.4999999999999992"], None, 0, "hopf_e8", ""),
    (["hopf", "--q=1", "--h=0.12", "--m=0.1", "--s=0.6"], None, 2, None,
     "error: trace -2.000e-02 not zero: s is not at the critical value\n"),
    (["sweep", "--parameter=h", "--lo=0.1", "--hi=0.2", "--steps=3", "--q=1", "--s=1", "--m=1.5"],
     None, 2, None, "error: every grid point was skipped; check the fixed parameters\n"),
    (["analyze"], "# the generic point\nq = 1\ns = 1\nh = 0.21\nm = 0.2\n", 0, "analyze_generic", ""),
    (["analyze", "--s=1", "--h=0.2", "--m=0.2"], "q 1\n", 2, None,
     "error: {cfg}:1: expected 'key = value', got 'q 1'\n"),
], ids=["hopf-critical-s", "hopf-off-critical-s", "sweep-all-skipped", "config-comment",
        "config-no-equals"])
def test_in_process_output(tmp_path, capsys, argv, config, code, golden, err):
    cfg = tmp_path / "params.cfg"
    if config is not None:
        cfg.write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == code
    out = "" if golden is None else (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")
    assert capsys.readouterr() == (out, err.format(cfg=cfg))


class TestExitCodes:
    def test_internal_numerical_failure_maps_to_3(self, monkeypatch):
        # main looks the command function up by name on every call, so patching
        # the module attribute is seen even by a parser built by an earlier call
        import allee_lab.cli as cli_mod

        def boom(args):
            raise ZeroDivisionError("synthetic failure")

        monkeypatch.setattr(cli_mod, "_cmd_analyze", boom)
        code = main(["analyze", "--q", "1", "--s", "1", "--h", "0.2", "--m", "0.2"])
        assert code == 3

    def test_patched_command_seen_after_an_earlier_call(self, monkeypatch, capsys):
        import allee_lab.cli as cli_mod

        argv = ["analyze", "--q", "1", "--s", "1", "--h", "0.2", "--m", "0.2"]
        assert main(argv) == 0

        def boom(args):
            raise ZeroDivisionError("synthetic failure")

        monkeypatch.setattr(cli_mod, "_cmd_analyze", boom)
        assert main(argv) == 3
        assert capsys.readouterr().err == "numerical failure: synthetic failure\n"

    def test_non_finite_report_value_exits_2(self, monkeypatch, capsys):
        import allee_lab.reporting as reporting_mod

        monkeypatch.setattr(reporting_mod, "analysis_report",
                            lambda p: {"params": {"q": p.q}, "residual": float("nan")})
        code = main(["analyze", "--q", "1", "--s", "1", "--h", "0.2", "--m", "0.2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        # the text json's indenting encoder gives on Python 3.11
        assert err == "error: Out of range float values are not JSON compliant: nan\n"


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
