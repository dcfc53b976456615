from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import allee_lab as al
import allee_lab.dynamics as dynamics
from allee_lab.errors import DomainViolation, NoCrossings
from helpers import random_params, sim_agrees

SC = al.StabilityClass
SV = al.SimVerdict


class TestIntegrate:
    def test_equilibrium_is_a_fixed_point(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        traj = al.integrate(p, al.State(0.7, 0.0), al.IntegratorConfig(t_max=100.0))
        assert np.max(np.hypot(traj.x - 0.7, traj.y - 0.0)) <= 1e-8

    def test_perturbed_start_converges_to_stable_node(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        traj = al.integrate(p, al.State(0.7 + 1e-3, 1e-3), al.IntegratorConfig(t_max=200.0))
        assert traj.terminal is al.TerminalReason.CONVERGED_TO_POINT
        assert math.hypot(traj.x[-1] - 0.7, traj.y[-1]) <= 1e-6

    def test_saddle_ejects_along_unstable_direction(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        # unstable direction of the lower boundary point is the prey axis
        traj = al.integrate(p, al.State(0.3 + 1e-4, 0.0), al.IntegratorConfig(t_max=300.0))
        assert np.max(np.abs(traj.x - 0.3)) > 1e-2

    def test_time_samples_strictly_increasing(self):
        p = al.ModelParams(q=1, s=1, h=0.1, m=0.2)
        traj = al.integrate(p, al.State(0.5, 0.4), al.IntegratorConfig(t_max=50.0))
        assert np.all(np.diff(traj.t) > 0)
        assert traj.samples.shape == (len(traj.t), 3)

    def test_overharvest_drives_prey_extinct(self):
        p = al.ModelParams(q=1, s=1, h=0.26, m=0.2)
        for x0 in (0.2, 0.5, 0.9):
            traj = al.integrate(p, al.State(x0, 0.0), al.IntegratorConfig(t_max=500.0))
            assert traj.terminal is al.TerminalReason.HIT_DOMAIN_FLOOR

    def test_boundary_root_count_transition_across_fold(self):
        counts = [
            len(al.solve_branch_prey_axis(al.ModelParams(q=1, s=1, h=h, m=0.2)))
            for h in (0.24, 0.25, 0.26)
        ]
        assert counts == [2, 1, 0]

    def test_inadmissible_start_rejected(self):
        p = al.ModelParams(q=1, s=1, h=0.1, m=0.2)
        with pytest.raises(ValueError):
            al.integrate(p, al.State(0.0, 0.1))

    def test_negative_predator_start_rejected(self):
        p = al.ModelParams(q=1, s=1, h=0.1, m=0.2)
        with pytest.raises(DomainViolation, match="got y = -0.001"):
            al.integrate(p, al.State(0.5, -1e-3))

    def test_integrations_call_the_module_solver(self, monkeypatch):
        # tracing swaps dynamics.solve_ivp for a wrapper, which sees every
        # integration only if the call sites look the name up at call time
        calls = []
        solver = dynamics.solve_ivp

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solver(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", counting)
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        al.integrate(p, al.State(0.7, 0.0), al.IntegratorConfig(t_max=10.0))
        assert calls == [(0.0, 10.0)]
        al.detect_cycle(al.ModelParams(q=1, s=1.0, h=0.12, m=0.1), al.State(0.3, 0.3))
        assert len(calls) > 2  # the forward run and at least one section window


class TestIntegratorAccuracy:
    def test_global_error_scales_with_tolerance(self):
        """On the linearised flow at a hyperbolic equilibrium the global
        error at t = 1 must track the requested tolerance."""
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        J = al.derivatives(p, al.State(0.7, 0.0)).jacobian
        z0 = np.array([1.0, 0.7])
        exact = expm(J) @ z0
        errors = []
        for tol in (1e-6, 1e-8, 1e-10):
            sol = solve_ivp(lambda t, z: J @ z, (0.0, 1.0), z0, method="RK45",
                            rtol=tol, atol=tol * 1e-2)
            errors.append(float(np.hypot(*(sol.y[:, -1] - exact))))
        assert errors[0] > errors[1] > errors[2]
        slope = (math.log(errors[0]) - math.log(errors[2])) / (math.log(1e-6) - math.log(1e-10))
        assert 0.5 <= slope <= 1.5


class TestDetectCycle:
    def test_subcritical_side_has_repelling_cycle(self):
        p = al.ModelParams(q=1, s=0.52, h=0.12, m=0.1)
        det = al.detect_cycle(p, al.State(0.3, 0.3))
        assert det.found
        assert det.stability is al.CycleStability.REPELLING
        assert det.period == pytest.approx(45.3, rel=0.05)
        assert det.amplitude == pytest.approx(0.0357, rel=0.1)

    def test_no_cycle_on_unstable_side(self):
        p = al.ModelParams(q=1, s=0.48, h=0.12, m=0.1)
        det = al.detect_cycle(p, al.State(0.3, 0.3))
        assert not det.found

    def test_strong_focus_spirals_in_without_cycle(self):
        p = al.ModelParams(q=1, s=1.0, h=0.12, m=0.1)
        det = al.detect_cycle(p, al.State(0.3, 0.3))
        assert not det.found
        assert det.forward_terminal is al.TerminalReason.CONVERGED_TO_POINT

    def test_slow_spiral_is_not_mistaken_for_a_cycle(self):
        # weakly attracting spiral (reversed flow of a barely unstable
        # focus): return gaps drop below any fixed threshold while the
        # radius drains away; the detector must not certify a cycle
        q, h, m = 5.450519520124454, 0.029265849461677693, 0.011600508779215722
        s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1.0, h=h, m=m), "E8")
        d = al.discriminants(al.ModelParams(q=q, s=1.0, h=h, m=m))
        x8 = (d.C + d.D) / 2
        p = al.ModelParams(q=q, s=s2 - 0.0025, h=h, m=m)
        det = al.detect_cycle(p, al.State(x8, x8),
                              al.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                                                  t_max=20000.0, max_step=1.0),
                              start_radius=2e-3)
        assert not det.found

    def test_no_crossings_off_the_rotating_regime(self):
        # section through a boundary equilibrium lies in the invariant axis:
        # the orbit never crosses it transversally
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        with pytest.raises(NoCrossings):
            al.detect_cycle(p, al.State(0.7, 0.0), al.IntegratorConfig(
                rel_tol=1e-10, abs_tol=1e-12, t_max=500.0))


class TestClassifyBySimulation:
    def test_reference_points(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        e2, e3 = al.solve_branch_prey_axis(p)
        assert al.classify_by_simulation(p, e2) is SV.STABLE_NODE
        assert al.classify_by_simulation(p, e3) is SV.SADDLE

    def test_lower_diagonal_point_above_its_threshold(self):
        # m above the lower root: always on the unstable side for s > 0
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.25)
        _, e9 = al.solve_branch_diagonal(p)
        assert al.classify_by_simulation(p, e9) in (SV.UNSTABLE_NODE, SV.UNSTABLE)

    def test_degenerate_point_is_inconclusive(self):
        p = al.cusp_base_params(1.0, 0.1)
        (e7,) = al.solve_branch_diagonal(p)
        assert al.classify_by_simulation(p, e7) is SV.INCONCLUSIVE

    def test_agrees_with_analytic_classification_on_random_sweep(self):
        """200 random hyperbolic equilibria: the orbit-based verdict must
        never contradict the analytic class."""
        rng = np.random.default_rng(77)
        hyperbolic = 0
        inconclusive = 0
        while hyperbolic < 200:
            p = random_params(rng)
            for e in al.full_portrait(p):
                if e.classification in (SC.SADDLE_NODE, SC.CUSP, SC.DEGENERATE, SC.WEAK_CENTER):
                    continue
                lam = np.array(e.eigenvalues)
                if np.abs(lam.real).min() < 1e-3:  # too slow to probe reliably
                    continue
                hyperbolic += 1
                verdict = al.classify_by_simulation(p, e)
                if verdict is SV.INCONCLUSIVE:
                    inconclusive += 1
                    continue
                assert sim_agrees(e.classification.value, verdict.value), (
                    f"{p} {e.label}: analytic {e.classification.value}, "
                    f"simulated {verdict.value}"
                )
                if hyperbolic >= 200:
                    break
        assert inconclusive <= 10  # a few slow cases may stay undecided
