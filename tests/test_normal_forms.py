from __future__ import annotations

import math

import numpy as np
import pytest

import allee_lab as al
from allee_lab.errors import NotDoublyDegenerate, NotRepresentable, NotSemiDegenerate
from allee_lab.normal_forms import CuspVerdict, SaddleNodeVerdict
from helpers import random_params


class TestTaylorCoefficients:
    @pytest.mark.parametrize("q,s,m", [(1.0, 1.0, 0.2), (3.0, 0.4, 0.35)])
    def test_boundary_fold_coefficients(self, q, s, m):
        p = al.ModelParams(q=q, s=s, h=0.25, m=m)
        t = al.taylor_at(p, al.State(0.5, 0.0))
        assert t.a01 == pytest.approx(-q / 2, rel=1e-14)
        assert t.a20 == -1.0
        assert t.a11 == -q
        assert t.b01 == pytest.approx(-s * m, rel=1e-14)
        assert t.b02 == pytest.approx(s * (2 * m + 1), rel=1e-14)

    def test_diagonal_point_coefficients(self):
        p = al.ModelParams(q=1, s=0.5, h=0.12, m=0.1)
        x8 = 0.3
        t = al.taylor_at(p, al.State(x8, x8))
        s, m = p.s, p.m
        assert t.b11 == pytest.approx(s * (3 - 2 * m / x8), rel=1e-13)     # 7/6
        assert t.b20 == pytest.approx(s * (m / x8 - 1), rel=1e-13)
        assert t.b02 == pytest.approx(s * (m / x8 - 2), rel=1e-13)
        assert t.b30 == pytest.approx(s * (1 / x8 - m / x8**2), rel=1e-13)
        assert t.b21 == pytest.approx(s * (2 * m / x8**2 - 3 / x8), rel=1e-13)
        assert t.b12 == pytest.approx(s * (3 / x8 - m / x8**2), rel=1e-13)
        assert t.b03 == pytest.approx(-s / x8, rel=1e-13)

    def test_cubic_prey_coefficients_are_zero(self):
        p = al.ModelParams(q=2, s=1, h=0.1, m=0.3)
        t = al.taylor_at(p, al.State(0.4, 0.3))
        assert t.a30 == t.a21 == t.a12 == t.a03 == 0.0
        assert t.a02 == 0.0

    def test_taylor_at_is_derivatives(self):
        p = al.ModelParams(q=2, s=1, h=0.1, m=0.3)
        t = al.taylor_at(p, al.State(0.4, 0.3))
        assert type(t) is al.TaylorCoefficients
        assert t == al.derivatives(p, al.State(0.4, 0.3))

    def test_expansion_reproduces_field_quartically(self):
        rng = np.random.default_rng(21)
        worst_small = worst_large = 0.0
        for _ in range(200):
            p = random_params(rng)
            eqs = al.full_portrait(p)
            if not eqs:
                continue
            e = eqs[0]
            t = al.taylor_at(p, e)
            for scale in (1e-3, 1e-2):
                du, dv = scale * 0.6, -scale * 0.8
                if e.x + du <= 0:
                    continue
                truth = al.vector_field(p, al.State(e.x + du, e.y + dv))
                approx = t.evaluate(du, dv)
                err = max(abs(truth[0] - approx[0]), abs(truth[1] - approx[1]))
                if scale == 1e-3:
                    worst_small = max(worst_small, err)
                else:
                    worst_large = max(worst_large, err)
        assert worst_small <= 1e-9
        assert worst_large <= 1e-4  # quartic remainder, one decade larger step


class TestSaddleNodeCheck:
    @pytest.mark.parametrize("q,s,m", [(1.0, 1.0, 0.2), (0.7, 2.5, 0.6), (4.0, 0.2, 0.1)])
    def test_boundary_fold_center_coefficient(self, q, s, m):
        p = al.ModelParams(q=q, s=s, h=0.25, m=m)
        chk = al.saddle_node_check(p, al.State(0.5, 0.0))
        assert chk.c20 == pytest.approx(-1.0, abs=1e-12)
        assert chk.rho == pytest.approx(-s * m, rel=1e-12)
        assert chk.verdict is SaddleNodeVerdict.SADDLE_NODE

    def test_diagonal_fold_center_coefficient(self):
        # away from the cusp growth rate the fold point keeps one nonzero
        # eigenvalue; c20 = s*(m-2h)*(1+q)/(a01+b10)
        q, m, s = 1.0, 0.1, 1.0
        p = al.ModelParams(q=q, s=s, h=0.125, m=m)
        chk = al.saddle_node_check(p, al.State(0.25, 0.25))
        a01 = 2 * p.h - 0.5
        b10 = s * (2 * p.h - m)
        assert chk.c20 == pytest.approx(s * (m - 2 * p.h) * (1 + q) / (a01 + b10), rel=1e-12)
        assert chk.c20 == pytest.approx(3.0, rel=1e-12)
        assert chk.verdict is SaddleNodeVerdict.SADDLE_NODE

    def test_collision_point_is_saddle_node(self):
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.2)
        chk = al.saddle_node_check(p, al.State(0.2, 0.2))
        assert chk.verdict is SaddleNodeVerdict.SADDLE_NODE

    def test_diagonal_fold_on_the_allee_line_needs_higher_order(self):
        # m = 2*h3 puts E7 = (m, m) on the Allee line, where b10 = b01 = 0:
        # c20 = s*(m - 2h)*(1 + q)/(a01 + b10) vanishes, and the classifier
        # reads the same kernel for the merged E6+E7
        p = al.ModelParams(q=1, s=1, h=0.125, m=0.25)
        chk = al.saddle_node_check(p, al.State(0.25, 0.25))
        assert chk.c20 == 0.0
        assert chk.rho == 0.25
        assert chk.verdict is SaddleNodeVerdict.NEEDS_HIGHER_ORDER
        classes = {e.label: e.classification for e in al.full_portrait(p)}
        assert classes["E6+E7"] is al.StabilityClass.DEGENERATE

    def test_rejects_hyperbolic_and_doubly_degenerate_points(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        with pytest.raises(NotSemiDegenerate):
            al.saddle_node_check(p, al.State(0.7, 0.0))
        pc = al.cusp_base_params(1.0, 0.1)
        with pytest.raises(NotSemiDegenerate):
            al.saddle_node_check(pc, al.State(0.25, 0.25))


def _eigenbasis_c20(t: al.TaylorCoefficients) -> float:
    """c20 by the change to the eigenbasis (v0, v1), each eigenvector with
    first component 1: the center equation's squared-coordinate coefficient,
    an independent reference for the null-vector projection."""
    tr = t.a10 + t.b01
    v0 = (1.0, -t.a10 / t.a01)
    v1 = (1.0, (tr - t.a10) / t.a01)
    # D^2f(v0, v0) from f_xx = 2*a20, f_xy = a11, f_yy = 2*a02
    q1 = 2.0 * t.a20 + 2.0 * t.a11 * v0[1] + 2.0 * t.a02 * v0[1] ** 2
    q2 = 2.0 * t.b20 + 2.0 * t.b11 * v0[1] + 2.0 * t.b02 * v0[1] ** 2
    return 0.5 * (v1[1] * q1 - q2) / (v1[1] - v0[1])


class TestFoldCoefficientAgainstEigenbasis:
    @pytest.mark.parametrize("label", ["E1", "E4", "E7"])
    def test_projection_equals_the_eigenbasis_reference(self, label):
        # folds on each branch: E1 at h = 1/4, E4 at h = (1 - q*m)^2/4 and
        # E7 at h3 with s kept away from the cusp value s1
        rng = np.random.default_rng(31)
        for _ in range(300):
            q, s, m = rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0), rng.uniform(0.05, 0.95)
            if label == "E1":
                p, u = al.ModelParams(q=q, s=s, h=0.25, m=m), al.State(0.5, 0.0)
            elif label == "E4":
                q = rng.uniform(0.05, 0.9) / m  # root sum A = 1 - q*m >= 0.1
                A = 1.0 - q * m
                p, u = al.ModelParams(q=q, s=s, h=A * A / 4.0, m=m), al.State(A / 2.0, m)
            else:
                h3 = 1.0 / (4.0 * (q + 1.0))
                s1 = (4.0 * h3 - 1.0) / (2.0 * (m - 2.0 * h3))
                if abs(s - s1) < 0.1 * abs(s1):
                    s = 2.0 * s1
                p, u = al.ModelParams(q=q, s=s, h=h3, m=m), al.State(2.0 * h3, 2.0 * h3)
            chk = al.saddle_node_check(p, u)
            assert chk.c20 == pytest.approx(_eigenbasis_c20(al.taylor_at(p, u)), rel=1e-12)
            rep = al.sotomayor_saddle_node(p, u, "h")
            assert rep.transversality2 == pytest.approx(-4.0 * chk.rho * chk.c20, rel=1e-12)


class TestCuspCheck:
    def test_reference_cusp(self):
        p = al.cusp_base_params(1.0, 0.1)  # h3 = 1/8, s1 = 5/3
        chk = al.cusp_check(p, al.State(0.25, 0.25))
        assert chk.g20 == pytest.approx((2 * p.h - 0.5) * (1 + p.q), rel=1e-12)
        assert chk.g20 == pytest.approx(-0.5, rel=1e-12)
        assert chk.g11 == pytest.approx(-(p.s + 2 + p.q), rel=1e-12)
        assert chk.g11 == pytest.approx(-14.0 / 3.0, rel=1e-12)
        assert chk.verdict is CuspVerdict.CODIM2_CUSP

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0, 5.0])
    def test_quadratic_coefficient_closed_form_across_grid(self, q):
        h3 = 1 / (4 * (q + 1))
        p = al.cusp_base_params(q, 0.8 * h3)
        x7 = 2 * h3
        chk = al.cusp_check(p, al.State(x7, x7))
        assert chk.g20 == pytest.approx((2 * h3 - 0.5) * (1 + q), abs=1e-10)
        assert chk.g11 == pytest.approx(-(p.s + 2 + q), abs=1e-10)
        assert chk.verdict is CuspVerdict.CODIM2_CUSP

    def test_double_zero_on_the_allee_line_is_degenerate(self):
        # the Allee fold at (m, m), h = m^2, q = (1 - 2m)/m: g20 vanishes,
        # and the classifier reads the same kernel for the merged E4+E8
        m = 0.4
        p = al.ModelParams(q=(1 - 2 * m) / m, s=1.0, h=m * m, m=m)
        chk = al.cusp_check(p, al.State(m, m))
        assert abs(chk.g20) <= 1e-15
        assert abs(chk.g11) > 0.5
        assert chk.verdict is CuspVerdict.DEGENERATE
        classes = {e.label: e.classification for e in al.full_portrait(p)}
        assert classes["E4+E8"] is al.StabilityClass.DEGENERATE

    def test_rejects_semi_degenerate_point(self):
        p = al.ModelParams(q=1, s=1, h=0.25, m=0.2)
        with pytest.raises(NotDoublyDegenerate):
            al.cusp_check(p, al.State(0.5, 0.0))


class TestReductionAgainstSimulation:
    def test_saddle_node_has_one_sided_attraction(self):
        """The boundary fold point has a negative hyperbolic eigenvalue, so
        its parabolic sector attracts: probing both sides along the center
        direction must give one capture and one escape."""
        p = al.ModelParams(q=1, s=1, h=0.25, m=0.2)
        d = al.derivatives(p, al.State(0.5, 0.0))
        v = np.array([1.0, -d.a10 / d.a01])
        v /= np.linalg.norm(v)
        outcomes = []
        for sign in (+1.0, -1.0):
            u0 = al.State(0.5 + sign * 1e-3 * v[0], abs(sign * 1e-3 * v[1]))
            traj = al.integrate(p, u0, t_max=2000.0)
            dist = math.hypot(traj.x[-1] - 0.5, traj.y[-1] - 0.0)
            outcomes.append(dist < 1e-3)
        assert sorted(outcomes) == [False, True]  # attracts on exactly one side


@pytest.mark.parametrize("check", [
    al.saddle_node_check,
    al.cusp_check,
    lambda p, u: al.sotomayor_saddle_node(p, u, "h"),
], ids=["saddle_node_check", "cusp_check", "sotomayor_saddle_node"])
def test_overflowing_linearisation_is_not_representable(check):
    # b01 = -2e299 squares past the double range: a typed error, not OverflowError
    p = al.ModelParams(q=1, s=1e300, h=0.25, m=0.2)
    with pytest.raises(NotRepresentable):
        check(p, al.State(0.5, 0.0))
