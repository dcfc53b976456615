"""Acceptance gate: every criterion runs at its stated tolerance and reports
one pass/fail line in the terminal summary (see conftest).

Two sub-assertions pin alternative closed forms that the derivation shows
cannot hold (each conflicts with the chain's own limiting values, which are
asserted in companion tests).  They run as strict expected-failures and are
recorded as FAIL lines, so any behaviour change surfaces immediately.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import expm

import allee_lab as al
from allee_lab.equilibria import DISCRIMINANT_RTOL
from helpers import (
    bt_jacobian_det_fd,
    component,
    fd_gradient,
    fd_second,
    fd_third,
    random_params,
    random_state,
    rel_err,
)

SC = al.StabilityClass
SV = al.SimVerdict


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "allee_lab", *args],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# criterion 1: closed-form equilibria on a random parameter sweep
# ---------------------------------------------------------------------------

def test_criterion_1_equilibrium_closed_forms(acceptance):
    rng = np.random.default_rng(2024)
    n = 10_000
    t0 = time.perf_counter()
    for _ in range(n):
        p = random_params(rng)
        A = 1.0 - p.q * p.m
        C = 1.0 / (p.q + 1.0)
        branches = (
            (al.solve_branch_prey_axis(p), 1.0, p.h, True),
            (al.solve_branch_allee_line(p), A, p.h, A > 0),
            (al.solve_branch_diagonal(p), C, p.h * C, True),
        )
        for roots, root_sum, root_prod, admissible in branches:
            disc = root_sum * root_sum - 4.0 * root_prod
            rel = disc / max(1.0, root_sum**2, root_prod**2)
            if not admissible:
                expected = 0
            elif abs(rel) <= DISCRIMINANT_RTOL:
                expected = 1
            else:
                expected = 2 if rel > 0 else 0
            assert len(roots) == expected
            for e in roots:
                resid = abs(e.x * e.x - root_sum * e.x + root_prod)
                assert resid <= 1e-13 * max(1.0, root_sum**2, root_prod**2)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0
    acceptance(1, "equilibrium closed forms", True,
               f"{n} parameter points in {elapsed:.2f}s, residuals <= 1e-13")


# ---------------------------------------------------------------------------
# criterion 2: classification grid, eigenvalues, and the orbit oracle
# ---------------------------------------------------------------------------

def _case_grid():
    """(params, label, admissible classes, check_with_oracle) covering every
    case of the boundary-pair, Allee-line, and diagonal classification
    statements, plus the degenerate points."""
    grid: list[tuple[al.ModelParams, str, set[SC], bool]] = []

    # boundary pair: larger root attracts, smaller is a saddle
    for q in (0.5, 2.0):
        for m in (0.15, 0.6):
            for h in (0.05, 0.2):
                p = al.ModelParams(q=q, s=1.0, h=h, m=m)
                grid.append((p, "E2", {SC.STABLE_NODE}, True))
                grid.append((p, "E3", {SC.SADDLE}, True))

    # Allee line, threshold above the midpoint (m > A/2): saddle below the
    # collision harvest, stable node above; the co-root stays a saddle
    for h, e5_cls in ((0.03, SC.SADDLE), (0.06, SC.SADDLE), (0.085, SC.STABLE_NODE)):
        p = al.ModelParams(q=1.0, s=1.0, h=h, m=0.4)
        grid.append((p, "E5", {e5_cls}, True))
        grid.append((p, "E6", {SC.SADDLE}, True))

    # Allee line, threshold below the midpoint (m < A/2): larger root is a
    # saddle throughout; smaller root flips saddle -> unstable node at h1
    for h, e6_cls in ((0.05, SC.SADDLE), (0.10, SC.SADDLE),
                      (0.13, SC.UNSTABLE_NODE), (0.15, SC.UNSTABLE_NODE)):
        p = al.ModelParams(q=1.0, s=1.0, h=h, m=0.2)
        grid.append((p, "E5", {SC.SADDLE}, True))
        grid.append((p, "E6", {e6_cls}, True))

    # upper diagonal point: saddle for m > x8; stable/unstable node-or-focus
    # on either side of the critical growth rate; weak center on it
    stable = {SC.STABLE_NODE, SC.STABLE_FOCUS}
    unstable = {SC.UNSTABLE_NODE, SC.UNSTABLE_FOCUS}
    grid.append((al.ModelParams(q=1, s=1.0, h=0.12, m=0.35), "E8", {SC.SADDLE}, True))
    grid.append((al.ModelParams(q=1, s=0.7, h=0.12, m=0.1), "E8", stable, True))
    grid.append((al.ModelParams(q=1, s=0.3, h=0.12, m=0.1), "E8", unstable, True))
    grid.append((al.ModelParams(q=1, s=0.5, h=0.12, m=0.1), "E8", {SC.WEAK_CENTER}, False))

    # lower diagonal point: saddle for m < x9; for m > x9 its critical
    # growth rate is negative, so every positive s is on the unstable side
    grid.append((al.ModelParams(q=1, s=1.0, h=0.12, m=0.1), "E9", {SC.SADDLE}, True))
    grid.append((al.ModelParams(q=1, s=0.5, h=0.12, m=0.25), "E9", unstable, True))
    grid.append((al.ModelParams(q=1, s=1.5, h=0.12, m=0.25), "E9", unstable, True))

    # degenerate points: folds, the collision saddle-nodes, and the cusp
    grid.append((al.ModelParams(q=1, s=1, h=0.25, m=0.2), "E1", {SC.SADDLE_NODE}, False))
    grid.append((al.ModelParams(q=1, s=1, h=0.16, m=0.2), "E4", {SC.SADDLE_NODE}, False))
    grid.append((al.ModelParams(q=1, s=1, h=0.12, m=0.2), "E6+E9", {SC.SADDLE_NODE}, False))
    grid.append((al.ModelParams(q=1, s=1, h=0.125, m=0.1), "E7", {SC.SADDLE_NODE}, False))
    grid.append((al.cusp_base_params(1.0, 0.1), "E7", {SC.CUSP}, False))
    return grid


def test_criterion_2_classification_grid(acceptance):
    t0 = time.perf_counter()
    oracle_total = 0
    oracle_agree = 0
    oracle_inconclusive = 0
    for p, label, expected, use_oracle in _case_grid():
        portrait = {e.label: e for e in al.full_portrait(p)}
        assert label in portrait, f"{label} missing at {p}"
        e = portrait[label]
        assert e.classification in expected, (
            f"{label} at {p}: case analysis predicts {expected}, "
            f"classified {e.classification}"
        )
        # independent eigenvalue route must support the class
        lam = np.linalg.eigvals(al.derivatives(p, e.state).jacobian)
        if e.classification is SC.SADDLE:
            assert lam.real.min() < 0 < lam.real.max()
        elif e.classification in (SC.STABLE_NODE, SC.STABLE_FOCUS):
            assert lam.real.max() < 0
        elif e.classification in (SC.UNSTABLE_NODE, SC.UNSTABLE_FOCUS):
            assert lam.real.min() > 0
        elif e.classification is SC.WEAK_CENTER:
            assert np.abs(lam.real).max() <= 1e-9 and abs(lam[0].imag) > 0
        else:
            assert np.abs(lam).min() <= 1e-7
        if use_oracle:
            oracle_total += 1
            verdict = al.classify_by_simulation(p, e)
            if verdict is SV.INCONCLUSIVE:
                oracle_inconclusive += 1
            else:
                assert verdict.value == e.classification.value, (
                    f"oracle contradiction at {p} {label}: "
                    f"{e.classification.value} vs {verdict.value}"
                )
                oracle_agree += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    assert oracle_agree / oracle_total >= 0.99
    acceptance(2, "classification case analysis", True,
               f"grid exact; oracle {oracle_agree}/{oracle_total} agree, "
               f"{oracle_inconclusive} inconclusive, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: saddle-node and cusp reduction coefficients
# ---------------------------------------------------------------------------

def test_criterion_3_reduction_coefficients(acceptance):
    rng = np.random.default_rng(31)
    for _ in range(25):
        q, s, m = rng.uniform(0.2, 4), rng.uniform(0.1, 3), rng.uniform(0.05, 0.9)
        chk = al.saddle_node_check(al.ModelParams(q=q, s=s, h=0.25, m=m), al.State(0.5, 0.0))
        assert chk.c20 == pytest.approx(-1.0, abs=1e-12)
    for q in (0.5, 1.0, 2.0, 3.0, 5.0):
        h3 = 1 / (4 * (q + 1))
        p = al.cusp_base_params(q, 0.8 * h3)
        chk = al.cusp_check(p, al.State(2 * h3, 2 * h3))
        assert chk.g20 == pytest.approx((2 * h3 - 0.5) * (1 + q), abs=1e-10)
        # derived closed form for the mixed coefficient
        assert chk.g11 == pytest.approx(-(p.s + 2.0 + q), abs=1e-10)
    acceptance(3, "reduction coefficients: c20, g20, derived g11", True,
               "c20 = -1 exact; g20 = (2h-1/2)(1+q); g11 = -(s+2+q)")


@pytest.mark.xfail(strict=True, reason="the alternative closed form -2(1+q) conflicts "
                   "with the derived mixed coefficient -(s1+2+q)")
def test_criterion_3_alternative_g11_form(acceptance):
    acceptance(3, "alternative g11 = -2(1+q)", False,
               "derived value is -(s1+2+q); documented discrepancy, expected failure")
    p = al.cusp_base_params(1.0, 0.1)
    chk = al.cusp_check(p, al.State(0.25, 0.25))
    assert chk.g11 == pytest.approx(-2.0 * (1 + p.q), abs=1e-10)


# ---------------------------------------------------------------------------
# criterion 4: saddle-node transversality at the boundary fold
# ---------------------------------------------------------------------------

def test_criterion_4_sotomayor_transversality(acceptance):
    rng = np.random.default_rng(44)
    for _ in range(100):
        q, s, m = rng.uniform(0.2, 4), rng.uniform(0.1, 3), rng.uniform(0.05, 0.9)
        p = al.ModelParams(q=q, s=s, h=0.25, m=m)
        rep = al.sotomayor_saddle_node(p, al.State(0.5, 0.0), "h")
        assert rep.transversality1 == pytest.approx(-2 * s * m, rel=1e-12)
        assert rep.transversality2 == pytest.approx(-4 * s * m, rel=1e-12)
        assert rep.verdict is al.SotomayorVerdict.SADDLE_NODE_BIFURCATION
    acceptance(4, "saddle-node transversality", True,
               "100 random (s, m, q): values -2sm and -4sm to 1e-12")


# ---------------------------------------------------------------------------
# criteria 5 and 6: Hopf point, direction vs orbit oracle, amplitude scaling
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hopf_cycles():
    """Cycle detections at the reference Hopf point, shared by criteria 5/6."""
    q, h, m = 1.0, 0.12, 0.1
    s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1.0, h=h, m=m), "E8")
    center = al.State(0.3, 0.3)
    rep = al.first_lyapunov_coefficient(al.ModelParams(q=q, s=s2, h=h, m=m), "E8")
    cycle_side = 1.0 if rep.sigma > 0 else -1.0  # cycle lives where the point is stable
    detections = {}
    for delta in (0.01, 0.02, 0.04):
        p = al.ModelParams(q=q, s=s2 + cycle_side * delta, h=h, m=m)
        detections[delta] = al.detect_cycle(p, center)
    p_off = al.ModelParams(q=q, s=s2 - cycle_side * 0.02, h=h, m=m)
    off_side = al.detect_cycle(p_off, center)
    return {"s2": s2, "rep": rep, "cycle_side": cycle_side,
            "detections": detections, "off_side": off_side}


def test_criterion_5_hopf_direction_vs_oracle(acceptance, hopf_cycles):
    t0 = time.perf_counter()
    q, h, m = 1.0, 0.12, 0.1
    s2, rep = hopf_cycles["s2"], hopf_cycles["rep"]
    assert s2 == pytest.approx(0.5, abs=1e-12)
    d = al.derivatives(al.ModelParams(q=q, s=s2, h=h, m=m), al.State(0.3, 0.3))
    assert abs(d.a10 + d.b01) <= 1e-12  # trace vanishes at the critical value

    def trace_at(s):
        dd = al.derivatives(al.ModelParams(q=q, s=s, h=h, m=m), al.State(0.3, 0.3))
        return dd.a10 + dd.b01

    fd = (trace_at(s2 + 1e-6) - trace_at(s2 - 1e-6)) / 2e-6
    assert fd == pytest.approx(m - 0.3, abs=1e-8)

    # direction: sigma > 0 means the cycle is unstable and coexists with the
    # stable equilibrium (here: above s2); the orbit oracle must concur
    det = hopf_cycles["detections"][0.02]
    assert det.found
    expected_stability = (al.CycleStability.REPELLING if rep.sigma > 0
                          else al.CycleStability.ATTRACTING)
    assert det.stability is expected_stability
    assert not hopf_cycles["off_side"].found
    assert time.perf_counter() - t0 <= 60.0
    acceptance(5, "Hopf point and direction", True,
               f"s2 = 0.5, d(tr)/ds = -0.2, sigma = {rep.sigma:.1f} "
               f"({rep.direction.value}); oracle agrees on both sides")


def test_criterion_5_runtime(hopf_cycles):
    # cycle hunts dominate; re-run the two criterion-5 detections and time them
    q, h, m = 1.0, 0.12, 0.1
    s2 = hopf_cycles["s2"]
    side = hopf_cycles["cycle_side"]
    t0 = time.perf_counter()
    al.detect_cycle(al.ModelParams(q=q, s=s2 + side * 0.02, h=h, m=m), al.State(0.3, 0.3))
    al.detect_cycle(al.ModelParams(q=q, s=s2 - side * 0.02, h=h, m=m), al.State(0.3, 0.3))
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_5_6_oracle_verdicts_pinned(hopf_cycles):
    # the oracle's answers at the criterion-5/6 points: each period and
    # amplitude is the return-map root's, n_crossings the turns it took
    q, h, m = 1.0, 0.12, 0.1
    s2 = hopf_cycles["s2"]
    expected = {
        0.01: (True, 44.86334911602407, 0.02504249493939868, 11, "StableFocus"),
        0.02: (True, 45.33293870917754, 0.03570416764861736, 13, "StableFocus"),
        0.04: (True, 46.395225569248986, 0.051158067701441504, 14, "StableFocus"),
        -0.02: (False, None, None, 4, "UnstableFocus"),
    }
    detections = {**hopf_cycles["detections"], -0.02: hopf_cycles["off_side"]}
    for delta, (found, period, amplitude, n_crossings, e8_verdict) in expected.items():
        det = detections[delta]
        assert det.found is found
        assert det.stability is (al.CycleStability.REPELLING if found
                                 else al.CycleStability.INCONCLUSIVE)
        assert len(det.section_crossings) == n_crossings
        assert det.period == (period if period is None else pytest.approx(period, rel=1e-9))
        assert det.amplitude == (amplitude if amplitude is None
                                 else pytest.approx(amplitude, rel=1e-9))
        p = al.ModelParams(q=q, s=s2 + delta, h=h, m=m)
        verdicts = {e.label: al.classify_by_simulation(p, e).value for e in al.full_portrait(p)}
        assert verdicts == {"E2": "StableNode", "E3": "Saddle", "E5": "Saddle",
                            "E6": "UnstableNode", "E8": e8_verdict, "E9": "Saddle"}


def test_criterion_6_amplitude_scaling(acceptance, hopf_cycles):
    dets = hopf_cycles["detections"]
    amps = [dets[d].amplitude for d in (0.01, 0.02, 0.04)]
    assert all(dets[d].found for d in (0.01, 0.02, 0.04))
    assert amps[0] < amps[1] < amps[2]
    ratios = [a / math.sqrt(d) for a, d in zip(amps, (0.01, 0.02, 0.04))]
    assert max(ratios) / min(ratios) <= 1.5
    acceptance(6, "Hopf amplitude scaling", True,
               f"amplitudes {[round(a, 4) for a in amps]}, "
               f"sqrt-law spread {max(ratios) / min(ratios):.3f} <= 1.5")


# ---------------------------------------------------------------------------
# criterion 7: Bogdanov-Takens chain
# ---------------------------------------------------------------------------

def test_criterion_7_bt_chain(acceptance):
    p = al.cusp_base_params(1.0, 0.1)  # h3 = 1/8, s1 = 5/3
    assert p.h == pytest.approx(0.125, abs=1e-15)
    assert p.s == pytest.approx(5.0 / 3.0, abs=1e-15)
    rep = al.bt_normal_form(p, (0.0, 0.0))
    # -(s1+2+q) = -14/3 is the limit of the mixed quadratic coefficient
    # before the unit-quadratic normalisation
    assert rep.f11 == pytest.approx(-(p.s + 2.0 + p.q), abs=1e-10)
    assert rep.f11 == pytest.approx(-14.0 / 3.0, abs=1e-10)
    assert abs(rep.l00) <= 1e-12 and abs(rep.l01) <= 1e-12
    assert rep.jac_det > 1e-6
    # the closed-form determinant against central differences of the chain
    # at two steps, to 3 significant digits
    for step in (1e-5, 1e-6):
        assert bt_jacobian_det_fd(p, step) == pytest.approx(rep.jac_det, rel=5e-4)
    acceptance(7, "BT chain", True,
               f"f11 -> -14/3; l00 = l01 = 0 at eta = 0; "
               f"|d(l00,l01)/d(eta)| = {rep.jac_det:.1f}, central differences agree")


@pytest.mark.xfail(strict=True, reason="after the unit-quadratic normalisation "
                   "h11 = -(s1+2+q)/sqrt(-f20), not -(s1+2+q) itself")
def test_criterion_7_alternative_h11_value(acceptance):
    acceptance(7, "alternative h11 = -14/3", False,
               "post-normalisation h11 is -(14/3)/sqrt(1/2); documented, expected failure")
    p = al.cusp_base_params(1.0, 0.1)
    rep = al.bt_normal_form(p, (0.0, 0.0))
    assert rep.h11 == pytest.approx(-14.0 / 3.0, abs=1e-10)


# ---------------------------------------------------------------------------
# criterion 8: oracle integrity
# ---------------------------------------------------------------------------

def test_criterion_8_oracle_integrity(acceptance):
    # integrator order: global error at t=1 on the linearised flow tracks tol
    p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
    J = al.derivatives(p, al.State(0.7, 0.0)).jacobian
    z0 = np.array([1.0, 0.7])
    exact = expm(J) @ z0
    errors = []
    for tol in (1e-6, 1e-8, 1e-10):
        sol = al.dynamics.solve_ivp(lambda t, z: J @ z, (0.0, 1.0), z0,
                                    rtol=tol, atol=tol * 1e-2)
        errors.append(float(np.hypot(*(np.array(sol.y)[:, -1] - exact))))
    assert errors[0] > errors[1] > errors[2]
    slope = (math.log(errors[0]) - math.log(errors[2])) / (math.log(1e-6) - math.log(1e-10))
    assert 0.5 <= slope <= 1.5

    # analytic derivatives vs finite differences at the module tolerances
    rng = np.random.default_rng(88)
    for _ in range(200):
        pp = random_params(rng)
        x, y = random_state(rng)
        d = al.derivatives(pp, al.State(x, y))
        # i! j! times a Taylor coefficient is the partial it stands for
        for i, (an_x, an_y) in enumerate(((d.a10, d.a01), (d.b10, d.b01))):
            fd_x, fd_y = fd_gradient(component(pp, i), x, y)
            assert rel_err(an_x, fd_x) <= 1e-6 and rel_err(an_y, fd_y) <= 1e-6
        for analytic, fd in (
            ((2 * d.a20, d.a11, 2 * d.a02), fd_second(component(pp, 0), x, y)),
            ((2 * d.b20, d.b11, 2 * d.b02), fd_second(component(pp, 1), x, y)),
        ):
            for a_val, b_val in zip(analytic, fd):
                assert rel_err(a_val, b_val) <= 1e-5
        analytic3 = (6 * d.b30, 2 * d.b21, 2 * d.b12, 6 * d.b03)
        for a_val, b_val in zip(analytic3, fd_third(component(pp, 1), x, y, scale_with_x=True)):
            assert rel_err(a_val, b_val) <= 1e-5
    acceptance(8, "oracle integrity", True,
               f"error-vs-tol slope {slope:.2f}; derivative cross-checks at 1e-6/1e-5")


# ---------------------------------------------------------------------------
# criterion 9: CLI sweeps, end to end, byte-reproducible
# ---------------------------------------------------------------------------

def test_criterion_9_cli_sweeps(acceptance):
    h_args = ("sweep", "--parameter", "h", "--lo", "0.2", "--hi", "0.3",
              "--steps", "101", "--q", "1", "--s", "1", "--m", "0.2")
    first = run_cli(*h_args)
    second = run_cli(*h_args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical reruns
    rows = list(csv.DictReader(io.StringIO(first.stdout)))
    counts = [int(r["n_prey_axis"]) for r in rows]
    assert [(k, len(list(g))) for k, g in itertools.groupby(counts)] == \
        [(2, 50), (1, 1), (0, 50)]

    s_args = ("sweep", "--parameter", "s", "--lo", "0.3", "--hi", "0.7",
              "--steps", "101", "--q", "1", "--h", "0.12", "--m", "0.1")
    first_s = run_cli(*s_args)
    second_s = run_cli(*s_args)
    assert first_s.returncode == 0
    assert first_s.stdout == second_s.stdout
    classes = [r["class_E8"] for r in csv.DictReader(io.StringIO(first_s.stdout))]
    assert [(k, len(list(g))) for k, g in itertools.groupby(classes)] == \
        [("UnstableFocus", 50), ("WeakCenter", 1), ("StableFocus", 50)]

    degenerate = run_cli("sweep", "--parameter", "s", "--lo", "0.5", "--hi", "0.5",
                         "--steps", "10", "--q", "1", "--h", "0.12", "--m", "0.1")
    assert degenerate.returncode == 2
    acceptance(9, "CLI sweeps end-to-end", True,
               "2->1->0 boundary counts across h2; stability flip at s2; "
               "byte-identical reruns")
