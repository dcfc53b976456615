from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import allee_lab as al
from allee_lab.errors import (
    AlleeThresholdOutOfRange,
    DomainViolation,
    NonFiniteParameter,
    NonPositiveParameter,
)
from helpers import component, fd_gradient, fd_second, fd_third, random_params, random_state, rel_err


class TestNondimensionalize:
    def test_unit_scaling_is_identity(self):
        p = al.nondimensionalize(al.DimensionalParams(r=1, K=1, q=1, b=1, s=1, h=0.1, m=0.2))
        assert (p.q, p.s, p.h, p.m) == (1.0, 1.0, 0.1, 0.2)

    def test_direct_substitution(self):
        p = al.nondimensionalize(al.DimensionalParams(r=2, K=1, q=2, b=1, s=2, h=0.5, m=0.2))
        assert (p.q, p.s, p.h, p.m) == (1.0, 1.0, 0.25, 0.2)

    def test_allee_threshold_out_of_range(self):
        with pytest.raises(AlleeThresholdOutOfRange):
            al.nondimensionalize(al.DimensionalParams(r=1, K=1, q=1, b=0.1, s=1, h=0.1, m=0.2))

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(NonPositiveParameter):
            al.DimensionalParams(r=0.0, K=1, q=1, b=1, s=1, h=0.1, m=0.2)
        with pytest.raises(NonPositiveParameter):
            al.ModelParams(q=1, s=-1, h=0.1, m=0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, bad):
        with pytest.raises(NonFiniteParameter, match=f"h must be finite, got {bad}"):
            al.DimensionalParams(r=1, K=1, q=1, b=1, s=1, h=bad, m=0.2)
        with pytest.raises(NonFiniteParameter, match=f"s must be finite, got {bad}"):
            al.ModelParams(q=1, s=bad, h=0.1, m=0.2)

    @pytest.mark.parametrize("record, field, bad, error", [
        *((al.ModelParams, name, bad, error) for name in "qshm" for bad, error in (
            (0.0, NonPositiveParameter), (-1.0, NonPositiveParameter),
            (math.nan, NonFiniteParameter), (math.inf, NonFiniteParameter))),
        (al.ModelParams, "m", 1.0, AlleeThresholdOutOfRange),
        *((al.DimensionalParams, name, bad, error) for name in "rKqbshm" for bad, error in (
            (0.0, NonPositiveParameter), (math.nan, NonFiniteParameter))),
    ])
    def test_every_way_of_building_a_record_checks_it(self, record, field, bad, error):
        valid = {al.ModelParams: {"q": 1.0, "s": 1.0, "h": 0.1, "m": 0.2},
                 al.DimensionalParams: {"r": 1.0, "K": 1.0, "q": 1.0, "b": 1.0, "s": 1.0,
                                        "h": 0.1, "m": 0.2}}[record]
        good = record(**valid)
        values = {**valid, field: bad}
        with pytest.raises(error, match=f"^{field} must"):
            record(**values)
        with pytest.raises(error, match=f"^{field} must"):
            good._replace(**{field: bad})
        with pytest.raises(error, match=f"^{field} must"):
            record._make(values.values())
        with pytest.raises(AttributeError):
            setattr(good, field, bad)
        assert good == record._make(valid.values()) == good._replace()

    def test_scale_consistency_with_dimensional_flow(self):
        """Integrating the dimensional system and rescaling state/time must
        reproduce the dimensionless flow."""
        d = al.DimensionalParams(r=2.0, K=3.0, q=0.5, b=0.7, s=0.4, h=0.6, m=0.3)
        p = al.nondimensionalize(d)

        def dim_rhs(t, u):
            x, y = u
            return [
                d.r * x * (1 - x / d.K) - d.q * x * y - d.h,
                d.s * y * (1 - y / (d.b * x)) * (y - d.m),
            ]

        x0, y0 = 1.8, 0.9
        tau_grid = np.linspace(0.0, 5.0, 41)
        dim = solve_ivp(dim_rhs, (0.0, 5.0 / d.r), (x0, y0), rtol=1e-12, atol=1e-14,
                        t_eval=tau_grid / d.r)
        nd = solve_ivp(
            lambda t, u: al.vector_field(p, al.State(u[0], u[1])),
            (0.0, 5.0), (x0 / d.K, y0 / (d.b * d.K)),
            rtol=1e-12, atol=1e-14, t_eval=tau_grid,
        )
        assert np.max(np.abs(dim.y[0] / d.K - nd.y[0])) <= 1e-8
        assert np.max(np.abs(dim.y[1] / (d.b * d.K) - nd.y[1])) <= 1e-8


class TestVectorField:
    def test_zero_at_boundary_fold_point(self):
        p = al.ModelParams(q=1, s=1, h=0.25, m=0.2)
        f = al.vector_field(p, al.State(0.5, 0.0))
        assert f[0] == 0.0 and f[1] == 0.0

    def test_predator_axis_invariant(self):
        p = al.ModelParams(q=2, s=3, h=0.1, m=0.4)
        for x in (0.2, 0.5, 1.3):
            f = al.vector_field(p, al.State(x, 0.0))
            assert f[1] == 0.0
            assert f[0] == pytest.approx(x * (1 - x) - p.h, abs=1e-15)

    def test_zero_at_diagonal_equilibrium(self):
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.1)
        f = al.vector_field(p, al.State(0.3, 0.3))
        assert abs(f[0]) <= 1e-15 and abs(f[1]) <= 1e-15

    def test_domain_violation(self):
        p = al.ModelParams(q=1, s=1, h=0.1, m=0.2)
        with pytest.raises(DomainViolation):
            al.vector_field(p, al.State(0.0, 0.1))
        with pytest.raises(DomainViolation):
            al.derivatives(p, al.State(-0.5, 0.1))

    def test_residual_zero_at_all_solved_equilibria(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = random_params(rng)
            for e in al.full_portrait(p):
                f = al.vector_field(p, e.state)
                assert math.hypot(float(f[0]), float(f[1])) <= 1e-12


class TestDerivatives:
    def test_jacobian_at_boundary_fold(self):
        # triangular Jacobian [[0, -q/2], [0, -s m]] at (1/2, 0) when h = 1/4
        for q, s, m in [(1.0, 1.0, 0.2), (2.5, 0.7, 0.45)]:
            p = al.ModelParams(q=q, s=s, h=0.25, m=m)
            d = al.derivatives(p, al.State(0.5, 0.0))
            assert d.a10 == pytest.approx(0.0, abs=1e-15)
            assert d.a01 == pytest.approx(-q / 2)
            assert d.b10 == pytest.approx(0.0, abs=1e-15)
            assert d.b01 == pytest.approx(-s * m)

    def test_prey_component_third_partials_vanish(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_params(rng)
            x, y = random_state(rng)
            f1 = component(p, 0)
            for val in fd_third(f1, x, y, scale_with_x=False):
                assert abs(val) <= 5e-8  # stencil roundoff only

    def test_predator_cubic_y_coefficient(self):
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.1)
        d = al.derivatives(p, al.State(0.3, 0.3))
        assert d.b03 == pytest.approx(-p.s / 0.3, rel=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = random_params(rng)
            x, y = random_state(rng)
            d = al.derivatives(p, al.State(x, y))
            for i, (an_x, an_y) in enumerate(((d.a10, d.a01), (d.b10, d.b01))):
                fd_x, fd_y = fd_gradient(component(p, i), x, y)
                assert rel_err(an_x, fd_x) <= 1e-6
                assert rel_err(an_y, fd_y) <= 1e-6

    def test_second_partials_match_finite_differences(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            p = random_params(rng)
            x, y = random_state(rng)
            d = al.derivatives(p, al.State(x, y))
            pairs = (
                # i! j! times a Taylor coefficient is the partial it stands for
                ((2 * d.a20, d.a11, 2 * d.a02), fd_second(component(p, 0), x, y)),
                ((2 * d.b20, d.b11, 2 * d.b02), fd_second(component(p, 1), x, y)),
            )
            for analytic, fd in pairs:
                for a, b in zip(analytic, fd):
                    assert rel_err(a, b) <= 1e-5

    def test_third_partials_match_finite_differences(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            p = random_params(rng)
            x, y = random_state(rng)
            d = al.derivatives(p, al.State(x, y))
            analytic = (6 * d.b30, 2 * d.b21, 2 * d.b12, 6 * d.b03)
            fd = fd_third(component(p, 1), x, y, scale_with_x=True)
            for a, b in zip(analytic, fd):
                assert rel_err(a, b) <= 1e-5
