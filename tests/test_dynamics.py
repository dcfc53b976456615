from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

import allee_lab as al
import allee_lab.dynamics as dynamics
from allee_lab.errors import DomainViolation, NoCrossings
from allee_lab.model import _field
from helpers import random_params, random_state, sim_agrees

SC = al.StabilityClass
SV = al.SimVerdict


class TestIntegrate:
    def test_equilibrium_is_a_fixed_point(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        traj = al.integrate(p, al.State(0.7, 0.0), t_max=100.0)
        assert max(map(math.hypot, [x - 0.7 for x in traj.x], traj.y)) <= 1e-8

    def test_perturbed_start_converges_to_stable_node(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        traj = al.integrate(p, al.State(0.7 + 1e-3, 1e-3), t_max=200.0)
        assert traj.terminal is al.TerminalReason.CONVERGED_TO_POINT
        assert math.hypot(traj.x[-1] - 0.7, traj.y[-1]) <= 1e-6

    def test_saddle_ejects_along_unstable_direction(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        # unstable direction of the lower boundary point is the prey axis
        traj = al.integrate(p, al.State(0.3 + 1e-4, 0.0), t_max=300.0)
        assert max(abs(x - 0.3) for x in traj.x) > 1e-2

    def test_time_samples_strictly_increasing(self):
        p = al.ModelParams(q=1, s=1, h=0.1, m=0.2)
        traj = al.integrate(p, al.State(0.5, 0.4), t_max=50.0)
        assert np.all(np.diff(traj.t) > 0)

    def test_overharvest_drives_prey_extinct(self):
        p = al.ModelParams(q=1, s=1, h=0.26, m=0.2)
        for x0 in (0.2, 0.5, 0.9):
            traj = al.integrate(p, al.State(x0, 0.0), t_max=500.0)
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

    def test_infinite_horizon_rejected(self):
        # integrate would never reach it, nor a hunt's turn that never returns
        p = al.ModelParams(q=1, s=0.52, h=0.12, m=0.1)
        with pytest.raises(ValueError, match="t_max must be finite"):
            al.integrate(p, al.State(0.5, 0.4), t_max=math.inf)
        with pytest.raises(ValueError, match="t_max must be finite"):
            al.detect_cycle(p, al.State(0.3, 0.3), t_max=math.inf)

    @pytest.mark.parametrize("t_max", [0.0, math.nan])
    def test_horizon_must_be_positive(self, t_max):
        p = al.ModelParams(q=1, s=0.52, h=0.12, m=0.1)
        with pytest.raises(ValueError, match="t_max must be positive"):
            al.integrate(p, al.State(0.5, 0.4), t_max=t_max)
        with pytest.raises(ValueError, match="t_max must be positive"):
            al.detect_cycle(p, al.State(0.3, 0.3), t_max=t_max)

    def test_horizon_is_keyword_only(self):
        # a positional third argument (an old config object) fails loudly
        p = al.ModelParams(q=1, s=0.52, h=0.12, m=0.1)
        with pytest.raises(TypeError):
            al.integrate(p, al.State(0.5, 0.4), 10.0)
        with pytest.raises(TypeError):
            al.detect_cycle(p, al.State(0.3, 0.3), 10.0)

    @pytest.mark.parametrize("start, reason", [
        ((0.3, math.inf), "a coordinate is not finite"),
        ((math.nan, 0.3), "a coordinate is not finite"),
        ((-math.inf, 0.3), "a coordinate is not finite"),
        ((0.0, 0.3), "x must exceed the floor"),
        ((dynamics.X_FLOOR, math.inf), "a coordinate is not finite"),
    ])
    def test_inadmissible_start_names_its_fault(self, start, reason):
        p = al.ModelParams(q=1, s=1, h=0.1, m=0.2)
        with pytest.raises(ValueError, match=f"not admissible: {reason}"):
            al.integrate(p, al.State(*start))

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
        al.integrate(p, al.State(0.7, 0.0), t_max=10.0)
        assert calls == [(0.0, 10.0)]
        al.detect_cycle(al.ModelParams(q=1, s=1.0, h=0.12, m=0.1), al.State(0.3, 0.3))
        assert len(calls) > 2  # the integrate run and both half-turns of a first turn


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
            sol = dynamics.solve_ivp(lambda t, z: J @ z, (0.0, 1.0), z0,
                                     rtol=tol, atol=tol * 1e-2)
            errors.append(float(np.hypot(*(np.array(sol.y)[:, -1] - exact))))
        assert errors[0] > errors[1] > errors[2]
        slope = (math.log(errors[0]) - math.log(errors[2])) / (math.log(1e-6) - math.log(1e-10))
        assert 0.5 <= slope <= 1.5


def _field_rhs(p, reverse):
    # the model's field, or its negation: the reversed flow in forward time
    rhs = dynamics._rhs(p)
    if not reverse:
        return rhs

    def negated(t, u):
        f1, f2 = rhs(t, u)
        return (-f1, -f2)

    return negated


def _reference_runs():
    """Seeded integrate-style runs: both flow directions, both time
    directions, max_step inf and 1, three tolerance pairs, with the floor,
    divergence and a section event."""
    rng = np.random.default_rng(1906)
    for k in range(96):
        p = random_params(rng)
        u0 = random_state(rng)
        reverse, backward = bool(k & 1), bool(k & 2)
        max_step = (math.inf, 1.0)[(k >> 2) & 1]
        rtol, atol = ((1e-6, 1e-9), (1e-8, 1e-10), (1e-10, 1e-12))[k % 3]
        section_y = float(rng.uniform(0.1, 1.0))

        def section(t, u, c=section_y):
            return u[1] - c

        section.direction = float((k >> 3) % 3 - 1)
        events = [dynamics._floor_event(), dynamics._divergence_event(), section]
        span = (0.0, -60.0) if backward else (0.0, 60.0)
        kwargs = dict(rtol=rtol, atol=atol, max_step=max_step, events=events)
        yield _field_rhs(p, reverse), span, u0, kwargs
    # starts whose stages overflow: every step is rejected until it underflows
    p = al.ModelParams(q=1, s=1, h=0.1, m=0.2)
    for u0 in ((1e-7, 1e300), (1e300, 1e300), (0.5, 1e154)):
        events = [dynamics._floor_event(), dynamics._divergence_event()]
        yield dynamics._rhs(p), (0.0, 20.0), u0, dict(rtol=1e-8, atol=1e-10, events=events)


class TestSolverAgainstScipy:
    """scipy's RK45 is the reference the package's stepper was ported from."""

    def test_seeded_runs_match_rk45(self):
        runs = same_nfev = 0
        statuses = set()
        for rhs, span, u0, kwargs in _reference_runs():
            with np.errstate(all="ignore"):
                ref = scipy_solve_ivp(rhs, span, u0, **kwargs)
            got = dynamics.solve_ivp(rhs, span, u0, **kwargs)
            runs += 1
            statuses.add((got.status, tuple(len(te) > 0 for te in got.t_events[:2])))
            assert got.status == ref.status
            for t_got, t_ref, y_got in zip(got.t_events, ref.t_events, got.y_events):
                assert len(t_got) == len(t_ref) == len(y_got)
                assert np.all(np.abs(t_got - t_ref) <= 1e-12 * np.abs(t_ref))
            same_nfev += got.nfev == ref.nfev and len(got.t) == len(ref.t)
        assert same_nfev >= 0.95 * runs
        # the set reaches the horizon, the floor, the divergence bound and a
        # step-size underflow
        assert {(0, (False, False)), (1, (True, False)), (1, (False, True)),
                (-1, (False, False))} <= statuses

    def test_t_eval_samples_match_rk45(self):
        p = al.ModelParams(q=1, s=0.52, h=0.12, m=0.1)
        tt = np.linspace(0.0, 45.3, 2000)
        for reverse in (False, True):
            kwargs = dict(rtol=1e-10, atol=1e-12, t_eval=tt)
            ref = scipy_solve_ivp(_field_rhs(p, reverse), (0.0, 45.3), (0.33, 0.3), **kwargs)
            got = dynamics.solve_ivp(_field_rhs(p, reverse), (0.0, 45.3), (0.33, 0.3), **kwargs)
            assert got.status == ref.status == 0 and got.nfev == ref.nfev
            assert np.array_equal(got.t, tt)
            assert np.max(np.abs(got.y - ref.y)) <= 1e-12

    def test_brentq_matches_scipy_on_dense_output(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(44)
        for _ in range(200):
            kx, ky = rng.normal(size=6), rng.normal(size=6)
            t_old, h = float(rng.uniform(-50, 50)), float(rng.choice([-1, 1]) * rng.uniform(1e-3, 2))
            sol = dynamics._dense_output(t_old, h, 0.3, 0.4, tuple(kx), tuple(ky))
            ends = (sol(t_old)[1], sol(t_old + h)[1])
            level = float(rng.uniform(min(ends), max(ends)))

            def event(t):
                return sol(t)[1] - level

            expected = brentq(event, t_old, t_old + h, xtol=4 * eps, rtol=4 * eps)
            assert dynamics._brentq(event, t_old, t_old + h) == expected
        with pytest.raises(ValueError, match="different signs"):
            dynamics._brentq(lambda t: t * t + 1.0, -1.0, 1.0)



def _bits(values):
    return [float(v).hex() for v in values]


class TestStepperPieces:
    """The stepper's written-out pieces against the forms they replace, and
    its rarely taken branches, in-process."""

    def test_rhs_is_the_model_field_bit_for_bit(self):
        rng = np.random.default_rng(2028)
        for _ in range(50):
            p = random_params(rng)
            rhs = dynamics._rhs(p)
            xs = (*rng.uniform(0.0, 2.0, 4), dynamics.X_FLOOR, dynamics.X_FLOOR * (1 + 1e-12))
            for x in map(float, xs):
                for y in (*map(float, rng.uniform(0.0, 2.0, 3)), 0.0, -0.0, p.m, x):
                    want = _field(p.q, p.s, p.h, p.m, x, y)
                    assert _bits(rhs(float(rng.uniform(-9, 9)), (x, y))) == _bits(want)

    def test_interpolant_coefficients_are_the_sums_over_p(self):
        d = dynamics
        columns = ((1, 0, 0, 0, 0, 0), (d._P21, d._P23, d._P24, d._P25, d._P26, d._P27),
                   (d._P31, d._P33, d._P34, d._P35, d._P36, d._P37),
                   (d._P41, d._P43, d._P44, d._P45, d._P46, d._P47))
        rng = np.random.default_rng(2029)
        for _ in range(500):
            k = [float(v) for v in rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, 6)]
            for i in rng.choice(6, rng.integers(0, 7), replace=False):
                k[i] = float(rng.choice([0.0, -0.0]))
            want = [sum(kj * pj for kj, pj in zip(k, col)) for col in columns]
            assert _bits(d._coefficients(*k)) == _bits(want)
        assert _bits(d._coefficients(-0.0, -0.0, -0.0, -0.0, -0.0, -0.0)) == _bits([0.0] * 4)

    def test_flat_field_takes_the_floor_initial_step(self):
        def flat(t, u):
            return 0.0, 0.0

        assert dynamics._initial_step(flat, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, math.inf, 1.0,
                                      1e-3, 1e-6) == 1e-6
        got = dynamics.solve_ivp(flat, (0.0, 1.0), (1.0, 1.0))
        ref = scipy_solve_ivp(flat, (0.0, 1.0), (1.0, 1.0))
        assert got.t == list(ref.t) and got.nfev == ref.nfev and got.t[1] == 1e-6
        assert got.y == ([1.0] * len(got.t), [1.0] * len(got.t))

    def test_brentq_exact_zeros_underflow_and_budget(self):
        assert dynamics._brentq(lambda t: t - 1.0, 1.0, 2.0) == 1.0
        assert dynamics._brentq(lambda t: t - 2.0, 1.0, 2.0) == 2.0
        eps = np.finfo(float).eps

        def tiny(t):  # the extrapolation's divisor underflows to 0: a bisection
            return 1e-200 * (t ** 3 - 0.2)

        assert dynamics._brentq(tiny, 0.0, 1.0) == brentq(tiny, 0.0, 1.0, xtol=4 * eps,
                                                          rtol=4 * eps)
        with pytest.raises(RuntimeError, match="failed to converge after 2 iterations"):
            dynamics._brentq(lambda t: t ** 3 - 0.2, 0.0, 1.0, maxiter=2)

    @pytest.mark.parametrize("span, y0, message", [
        ((0.0, 1.0), (math.nan, 0.5), "must be finite"),
        ((0.0, 1.0), (0.5, math.inf), "must be finite"),
        ((2.0, 2.0), (0.5, 0.5), "must be positive"),
    ])
    def test_bad_start_or_span_raises(self, span, y0, message):
        with pytest.raises(ValueError, match=message):
            dynamics.solve_ivp(lambda t, u: u, span, y0)

    def test_stage_that_divides_by_zero_rejects_the_step(self):
        def field(t, u):  # divides by zero from t = 0.5 on
            return 1.0, 1.0 / float(t < 0.5)

        sol = dynamics.solve_ivp(field, (0.0, 1.0), (0.0, 0.0))
        assert sol.status == -1
        assert 0.5 - 1e-12 < sol.t[-1] < 0.5
        assert sol.y[0][-1] == pytest.approx(sol.t[-1], rel=1e-12)


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
        assert al.integrate(p, al.State(0.31, 0.3), t_max=400.0).terminal \
            is al.TerminalReason.CONVERGED_TO_POINT

    def test_slow_spiral_is_not_mistaken_for_a_cycle(self):
        # barely unstable focus: a turn near it gains about 0.3 % of its
        # radius, and P(r) - r stays positive out to the capture ball; the
        # detector must not certify a cycle
        q, h, m = 5.450519520124454, 0.029265849461677693, 0.011600508779215722
        s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1.0, h=h, m=m), "E8")
        d = al.discriminants(al.ModelParams(q=q, s=1.0, h=h, m=m))
        x8 = (d.C + d.D) / 2
        p = al.ModelParams(q=q, s=s2 - 0.0025, h=h, m=m)
        det = al.detect_cycle(p, al.State(x8, x8), t_max=20000.0, start_radius=2e-3)
        assert not det.found

    @pytest.mark.parametrize("delta, start_radius", [(0.005, 1e-2), (0.002, 5e-3), (0.001, 2e-3)])
    def test_cycle_close_to_the_hopf_point_is_found(self, delta, start_radius):
        # the cycle's radius shrinks like sqrt(delta) and its turns drift by
        # about 1e-4 of the radius: a root of P(r) - r all the same
        s2 = al.hopf_critical_s(al.ModelParams(q=1, s=1.0, h=0.12, m=0.1), "E8")
        p = al.ModelParams(q=1, s=s2 + delta, h=0.12, m=0.1)
        det = al.detect_cycle(p, al.State(0.3, 0.3), start_radius=start_radius)
        assert det.found
        assert det.stability is al.CycleStability.REPELLING

    @pytest.mark.parametrize("delta", [0.01, 0.02, 0.04])
    def test_period_agrees_with_a_tight_tolerance_hunt(self, monkeypatch, delta):
        q, h, m = 1.0, 0.12, 0.1
        s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1.0, h=h, m=m), "E8")
        p = al.ModelParams(q=q, s=s2 + delta, h=h, m=m)
        period = al.detect_cycle(p, al.State(0.3, 0.3)).period
        monkeypatch.setattr(dynamics, "HUNT_RTOL", 1e-13)
        monkeypatch.setattr(dynamics, "HUNT_ATOL", 1e-15)
        reference = al.detect_cycle(p, al.State(0.3, 0.3)).period
        assert period == pytest.approx(reference, rel=2e-9, abs=0)

    @pytest.mark.parametrize("delta", [0.01, 0.02, 0.04])
    def test_reported_cycle_closes_after_one_period(self, delta):
        # scipy's DOP853 at rtol 1e-13 carries the last return once around;
        # 5e-10 is about 15 times the hunt's accuracy at the section
        q, h, m = 1.0, 0.12, 0.1
        s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1.0, h=h, m=m), "E8")
        p = al.ModelParams(q=q, s=s2 + delta, h=h, m=m)
        det = al.detect_cycle(p, al.State(0.3, 0.3))
        x0 = det.section_crossings[-1]
        sol = scipy_solve_ivp(lambda t, u: _field(q, p.s, h, m, u[0], u[1]), (0.0, det.period),
                              [x0, 0.3], method="DOP853", rtol=1e-13, atol=1e-15)
        assert math.hypot(sol.y[0][-1] - x0, sol.y[1][-1] - 0.3) <= 5e-10

    def test_supercritical_side_has_attracting_cycle(self):
        # sigma < 0 here: the stable cycle lives where the focus is unstable
        q, h, m = 3.0, 0.0403, 0.01
        s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1.0, h=h, m=m), "E8")
        rep = al.first_lyapunov_coefficient(al.ModelParams(q=q, s=s2, h=h, m=m), "E8")
        assert rep.direction is al.HopfDirection.SUPERCRITICAL
        d = al.discriminants(al.ModelParams(q=q, s=1.0, h=h, m=m))
        x8 = (d.C + d.D) / 2
        det = al.detect_cycle(al.ModelParams(q=q, s=0.95 * s2, h=h, m=m), al.State(x8, x8))
        assert det.found
        assert det.stability is al.CycleStability.ATTRACTING
        assert det.period == pytest.approx(174.0, abs=0.05)

    def test_no_crossings_off_the_rotating_regime(self):
        # section through a boundary equilibrium lies in the invariant axis:
        # the orbit never crosses it transversally
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        with pytest.raises(NoCrossings):
            al.detect_cycle(p, al.State(0.7, 0.0), t_max=500.0)

    def test_start_outside_the_domain_rejected(self):
        p = al.ModelParams(q=1, s=0.52, h=0.12, m=0.1)
        with pytest.raises(DomainViolation, match="got y = -0.001"):
            al.detect_cycle(p, al.State(0.3, -1e-3))
        # the hunt starts at center.x + start_radius, which must exceed the floor
        with pytest.raises(ValueError, match="not admissible"):
            al.detect_cycle(p, al.State(-1e-2, 0.3))
        with pytest.raises(ValueError, match="not admissible"):
            al.detect_cycle(p, al.State(0.3, 0.3), start_radius=dynamics.X_FLOOR - 0.3)
        # a scan outward from the center needs a positive smallest radius
        with pytest.raises(ValueError, match="start_radius must be positive"):
            al.detect_cycle(p, al.State(0.3, 0.3), start_radius=-1e-2)


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

    @pytest.mark.parametrize("point, error", [
        ((math.nan, 0.3), ValueError),
        ((0.3, math.inf), ValueError),
        ((1e-6, 0.3), ValueError),  # the finite-difference stencil reaches x = 0
        ((-0.5, 0.3), ValueError),
        ((0.3, -0.2), DomainViolation),
    ])
    def test_point_off_the_domain_rejected(self, point, error):
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.1)
        with pytest.raises(error):
            al.classify_by_simulation(p, al.State(*point))

    def test_winding_equals_numpy_unwrap_on_probe_orbits(self, monkeypatch):
        # numpy is the reference here only; np.arctan2 and math.atan2 may
        # differ in the last bit, so the windings agree to rounding
        orbits = []
        solver = dynamics.solve_ivp

        def recording(*args, **kwargs):
            sol = solver(*args, **kwargs)
            orbits.append(sol.y)
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", recording)
        rng = np.random.default_rng(7)
        points = [(al.ModelParams(q=1, s=1, h=0.12, m=0.1), al.State(0.3, 0.3))]  # ~3 turns
        while len(points) < 7:
            p = random_params(rng)
            points += [(p, e) for e in al.full_portrait(p) if e.classification in
                       (SC.SADDLE, SC.STABLE_NODE, SC.UNSTABLE_NODE, SC.STABLE_FOCUS,
                        SC.UNSTABLE_FOCUS)]
        windings = []
        for p, center in points:
            orbits.clear()
            al.classify_by_simulation(p, center)
            for xs, ys in orbits:
                ang = np.unwrap(np.arctan2(np.subtract(ys, center.y), np.subtract(xs, center.x)))
                windings.append(dynamics._winding(xs, ys, center.x, center.y))
                assert windings[-1] == pytest.approx(abs(ang[-1] - ang[0]), rel=1e-14, abs=1e-14)
        assert len(windings) >= 64 and max(windings) > 4 * math.pi

    def test_degenerate_point_is_inconclusive(self):
        p = al.cusp_base_params(1.0, 0.1)
        (e7,) = al.solve_branch_diagonal(p)
        assert al.classify_by_simulation(p, e7) is SV.INCONCLUSIVE
        # a finite-difference Jacobian that overflows decides nothing either
        assert al.classify_by_simulation(p, al.State(0.3, 1e200)) is SV.INCONCLUSIVE

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
