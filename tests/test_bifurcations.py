from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import allee_lab as al
from allee_lab import bifurcations
from allee_lab.errors import (
    CuspConditionsViolated,
    HopfInadmissible,
    NoZeroEigenvalue,
    NotAWeakCenter,
    NotSemiDegenerate,
)
from allee_lab.model import TaylorCoefficients, _field
from allee_lab.normal_forms import taylor_at
from helpers import bt_jacobian_det_fd, mp_cusp_chain


class TestSotomayor:
    @pytest.mark.parametrize("seed", range(5))
    def test_boundary_fold_transversality_values(self, seed):
        rng = np.random.default_rng(100 + seed)
        q = rng.uniform(0.2, 4.0)
        s = rng.uniform(0.1, 3.0)
        m = rng.uniform(0.05, 0.9)
        p = al.ModelParams(q=q, s=s, h=0.25, m=m)
        rep = al.sotomayor_saddle_node(p, al.State(0.5, 0.0), "h")
        assert rep.v == pytest.approx((1.0, 0.0), abs=1e-14)
        assert rep.w == pytest.approx((2 * s * m, -q), rel=1e-14)
        assert rep.transversality1 == pytest.approx(-2 * s * m, rel=1e-12)
        assert rep.transversality2 == pytest.approx(-4 * s * m, rel=1e-12)
        assert rep.verdict is al.SotomayorVerdict.SADDLE_NODE_BIFURCATION

    def test_growth_rate_never_moves_equilibria(self):
        # equilibria are independent of s, so the s-derivative term vanishes
        p = al.ModelParams(q=1, s=1, h=0.25, m=0.2)
        rep = al.sotomayor_saddle_node(p, al.State(0.5, 0.0), "s")
        assert rep.transversality1 == 0.0
        assert rep.verdict is al.SotomayorVerdict.DEGENERATE

    def test_allee_fold_transversality_and_root_transition(self):
        p = al.ModelParams(q=1, s=1, h=0.16, m=0.2)  # fold of the y=m branch
        rep = al.sotomayor_saddle_node(p, al.State(0.4, 0.2), "h")
        assert abs(rep.transversality1) > 1e-12
        assert abs(rep.transversality2) > 1e-12
        assert rep.verdict is al.SotomayorVerdict.SADDLE_NODE_BIFURCATION
        # the harvest crossing the fold annihilates the root pair
        below = al.solve_branch_allee_line(al.ModelParams(q=1, s=1, h=0.159, m=0.2))
        above = al.solve_branch_allee_line(al.ModelParams(q=1, s=1, h=0.161, m=0.2))
        assert (len(below), len(above)) == (2, 0)

    @pytest.mark.parametrize("params, point, bif_param, t1, t2", [
        ((1, 1, 0.16, 0.2), (0.4, 0.2), "h", "0.19999999999999998", "0.39999999999999997"),
        ((1, 1, 0.125, 0.2), (0.25, 0.25), "h", "-0.09999999999999998", "-0.3999999999999997"),
        ((2, 0.7, 1 / 12, 0.1), (1 / 6, 1 / 6), "q", "-0.002592592592592593",
         "-0.5599999999999995"),
    ])
    def test_transversality_values_pinned(self, params, point, bif_param, t1, t2):
        # the Allee-line fold, the diagonal fold h3 and a q-fold on the
        # diagonal; D^2f(v, v) comes from equilibria._bilinear, whose
        # grouping of the mixed term is exact here because v[0] = 1
        rep = al.sotomayor_saddle_node(al.ModelParams(*params), al.State(*point), bif_param)
        assert (repr(rep.transversality1), repr(rep.transversality2)) == (t1, t2)

    def test_rejects_hyperbolic_point(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        with pytest.raises(NoZeroEigenvalue):
            al.sotomayor_saddle_node(p, al.State(0.7, 0.0), "h")

    def test_allee_fold_in_m_matches_a_finite_difference(self):
        # the Allee-line fold h = (1 - q*m)^2 / 4 at (A/2, m); w.f_m against
        # a central difference of the raw field in m
        q, s, m = 1.0, 1.0, 0.2
        h = (1.0 - q * m) ** 2 / 4.0
        rep = al.sotomayor_saddle_node(al.ModelParams(q=q, s=s, h=h, m=m), al.State(0.4, 0.2), "m")
        assert rep.transversality1 == pytest.approx(0.08, rel=1e-12)
        d = 1e-6
        up, down = _field(q, s, h, m + d, 0.4, 0.2), _field(q, s, h, m - d, 0.4, 0.2)
        fd = [(u - v) / (2.0 * d) for u, v in zip(up, down)]
        assert rep.transversality1 == pytest.approx(rep.w[0] * fd[0] + rep.w[1] * fd[1], rel=1e-8)

    def test_unknown_parameter_raises(self):
        p = al.ModelParams(q=1, s=1, h=0.16, m=0.2)
        with pytest.raises(ValueError, match="unknown bifurcation parameter 'k'"):
            al.sotomayor_saddle_node(p, al.State(0.4, 0.2), "k")

    def test_rejects_double_zero_eigenvalue(self):
        p = al.cusp_base_params(1.0, 0.1)
        with pytest.raises(NotSemiDegenerate, match="zero eigenvalue is not simple"):
            al.sotomayor_saddle_node(p, al.State(2 * p.h, 2 * p.h), "h")


class TestHopfCriticalS:
    def test_reference_value(self):
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.1)
        assert al.hopf_critical_s(p, "E8") == pytest.approx(0.5, rel=1e-12)

    def test_wrong_threshold_side_rejected(self):
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.35)
        with pytest.raises(HopfInadmissible):
            al.hopf_critical_s(p, "E8")

    def test_negative_critical_value_rejected(self):
        p = al.ModelParams(q=1, s=1, h=0.105, m=0.1)
        with pytest.raises(HopfInadmissible):
            al.hopf_critical_s(p, "E8")

    def test_unknown_equilibrium_rejected(self):
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.1)
        with pytest.raises(ValueError, match="which must be 'E8' or 'E9', got 'E7'"):
            al.hopf_critical_s(p, "E7")

    def test_lower_root_never_admissible(self):
        # on the det > 0 side of the lower diagonal equilibrium the critical
        # growth rate is always negative: x9 < 1/(2+q) forces it
        for q, h, m in [(1.0, 0.12, 0.25), (0.5, 0.15, 0.4), (2.0, 0.08, 0.2)]:
            p = al.ModelParams(q=q, s=1, h=h, m=m)
            with pytest.raises(HopfInadmissible):
                al.hopf_critical_s(p, "E9")


def _kuznetsov_l1(t: TaylorCoefficients) -> float:
    """First Lyapunov coefficient of a weak centre from its Taylor record, by
    the coordinate-free formula (3.20) of Kuznetsov, Elements of Applied
    Bifurcation Theory, section 3.5, with A q = i w q, A^T p = -i w p,
    <q, q> = <p, q> = 1.  Independent of Perko's grouped terms."""
    A = np.array([[t.a10, t.a01], [t.b10, t.b01]])
    omega = math.sqrt(np.linalg.det(A))

    def B(u, v):  # D^2 f(u, v)
        return np.array([
            2 * c20 * u[0] * v[0] + c11 * (u[0] * v[1] + u[1] * v[0]) + 2 * c02 * u[1] * v[1]
            for c20, c11, c02 in ((t.a20, t.a11, t.a02), (t.b20, t.b11, t.b02))])

    def C(u, v, w):  # D^3 f(u, v, w)
        return np.array([
            6 * c30 * u[0] * v[0] * w[0] + 6 * c03 * u[1] * v[1] * w[1]
            + 2 * c21 * (u[0] * v[0] * w[1] + u[0] * v[1] * w[0] + u[1] * v[0] * w[0])
            + 2 * c12 * (u[0] * v[1] * w[1] + u[1] * v[0] * w[1] + u[1] * v[1] * w[0])
            for c30, c21, c12, c03 in ((t.a30, t.a21, t.a12, t.a03),
                                       (t.b30, t.b21, t.b12, t.b03))])

    values, vectors = np.linalg.eig(A)
    q = vectors[:, np.argmax(values.imag)]  # unit norm
    values, vectors = np.linalg.eig(A.T)
    p = vectors[:, np.argmin(values.imag)]
    p = p / np.conj(np.vdot(p, q))
    qc = np.conj(q)
    total = (np.vdot(p, C(q, q, qc))
             - 2 * np.vdot(p, B(q, np.linalg.solve(A, B(q, qc))))
             + np.vdot(p, B(qc, np.linalg.solve(2j * omega * np.eye(2) - A, B(q, q)))))
    return total.real / (2 * omega)


def _random_weak_centre(rng, a, b, c) -> TaylorCoefficients:
    # linear part (a, b; c, -a), every quadratic and cubic coefficient random
    names = ("a20", "a11", "a02", "a30", "a21", "a12", "a03",
             "b20", "b11", "b02", "b30", "b21", "b12", "b03")
    return TaylorCoefficients(a00=0.0, b00=0.0, a10=a, a01=b, b10=c, b01=-a,
                              **dict(zip(names, rng.normal(size=len(names)))))


class TestFirstLyapunovCoefficient:
    def test_reference_point(self):
        p = al.ModelParams(q=1, s=0.5, h=0.12, m=0.1)
        rep = al.first_lyapunov_coefficient(p, "E8")
        assert rep.M == pytest.approx(0.02, rel=1e-12)
        assert rep.phi[2] == 0.0
        assert rep.transversality == pytest.approx(-0.2, rel=1e-12)
        assert rep.sigma > 0
        assert rep.direction is al.HopfDirection.SUBCRITICAL

    def test_sigma_equals_grouped_term_sum(self):
        # the eight grouped terms are exactly the generic formula's pieces
        p = al.ModelParams(q=1, s=0.5, h=0.12, m=0.1)
        rep = al.first_lyapunov_coefficient(p, "E8")
        t = taylor_at(p, al.State(0.3, 0.3))
        prefactor = -3 * math.pi / (2 * t.a01 * rep.M**1.5)
        assert rep.sigma == pytest.approx(prefactor * sum(rep.phi), rel=1e-12)

    def test_alternative_grouping_differs_and_is_not_used(self):
        # the variant grouping fails the identity with the generic formula;
        # kept only for comparison with the generic grouping
        def alternative_phi_terms(t, ours):
            # b11*a20 in phi6, b01 in place of b10 in phi7
            a, b, d = t.a10, t.a01, t.b01
            phi = list(ours)
            phi[5] = -b * b * (2.0 * t.a20 * t.b20 + t.b11 * t.a20)
            phi[6] = (b * d - 2.0 * a * a) * (t.b11 * t.b02 - t.a11 * t.a20)
            return tuple(phi)

        p = al.ModelParams(q=1, s=0.5, h=0.12, m=0.1)
        t = taylor_at(p, al.State(0.3, 0.3))
        ours = al.first_lyapunov_coefficient(p, "E8").phi
        printed = alternative_phi_terms(t, ours)
        assert ours[5] != pytest.approx(printed[5], rel=1e-6)
        assert ours[6] != pytest.approx(printed[6], rel=1e-6)
        lyap = al.lyapunov_number(t.a10, t.a01, t.b10, t.b01, t)
        prefactor = -3 * math.pi / (2 * t.a01 * 0.02**1.5)
        assert lyap == pytest.approx(prefactor * sum(ours), rel=1e-12)
        assert lyap != pytest.approx(prefactor * sum(printed), rel=1e-3)

    def test_transversality_matches_finite_difference(self):
        q, h, m = 1.0, 0.12, 0.1
        x8 = 0.3
        s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1, h=h, m=m), "E8")

        def trace_at(s):
            d = al.derivatives(al.ModelParams(q=q, s=s, h=h, m=m), al.State(x8, x8))
            return d.a10 + d.b01

        fd = (trace_at(s2 + 1e-6) - trace_at(s2 - 1e-6)) / 2e-6
        assert fd == pytest.approx(m - x8, abs=1e-8)
        assert abs(trace_at(s2)) <= 1e-12

    def test_sign_stable_under_tiny_growth_rate_perturbation(self):
        q, h, m = 1.0, 0.12, 0.1
        s2 = 0.5
        signs = set()
        for ds in (-1e-12, 0.0, 1e-12):
            rep = al.first_lyapunov_coefficient(al.ModelParams(q=q, s=s2 + ds, h=h, m=m), "E8")
            signs.add(math.copysign(1.0, rep.sigma))
        assert signs == {1.0}

    def test_sign_agrees_with_kuznetsov_l1(self):
        rng = np.random.default_rng(1202)
        checked = 0
        while checked < 1000:
            a, b, c = rng.normal(size=3)
            if not -a * a - b * c > 0:
                continue  # not a centre: det <= 0
            t = _random_weak_centre(rng, a, b, c)
            sigma = al.lyapunov_number(a, b, c, -a, t)
            assert (sigma > 0) == (_kuznetsov_l1(t) > 0), (a, b, c, sigma)
            checked += 1

    @pytest.mark.parametrize("linear", [(0.3, -0.8, 0.9), (0.0, -1.0, 1.0)])
    def test_ratio_to_kuznetsov_l1_depends_on_the_linear_part_only(self, linear):
        # sigma and l1 are both cubic in the nonlinear terms, so at a fixed
        # linear part one constant relates them; at the rotation (0, -1; 1, 0)
        # Perko's prefactor 3 pi / 2 and Kuznetsov's 1 / 2 make it 6 pi
        rng = np.random.default_rng(20)
        a, b, c = linear
        ratios = []
        for _ in range(200):
            t = _random_weak_centre(rng, a, b, c)
            ratios.append(al.lyapunov_number(a, b, c, -a, t) / _kuznetsov_l1(t))
        centre = float(np.median(ratios))
        assert max(abs(r / centre - 1) for r in ratios) <= 1e-13
        if linear == (0.0, -1.0, 1.0):
            assert centre == pytest.approx(6 * math.pi, rel=1e-14)

    def test_slow_spiral_point_is_subcritical(self):
        # sigma read -103.96 here while the return map and l1 = +13.75 both
        # say the weak focus is unstable
        q, h, m = 5.450519520124454, 0.029265849461677693, 0.011600508779215722
        s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1.0, h=h, m=m), "E8")
        p = al.ModelParams(q=q, s=s2, h=h, m=m)
        rep = al.first_lyapunov_coefficient(p, "E8")
        d = al.discriminants(p)
        x8 = (d.C + d.D) / 2
        assert rep.direction is al.HopfDirection.SUBCRITICAL
        assert _kuznetsov_l1(taylor_at(p, al.State(x8, x8))) == pytest.approx(13.75, abs=0.01)

    def test_bautin_point_direction_undetermined(self):
        # sigma changes sign along h at (q, m) = (5.5, 0.04); bisected to its
        # root, the grouped terms cancel to within PHI_RTOL of their scale
        # and no direction is claimed
        def report(h):
            s = al.hopf_critical_s(al.ModelParams(q=5.5, s=1.0, h=h, m=0.04))
            return al.first_lyapunov_coefficient(al.ModelParams(q=5.5, s=s, h=h, m=0.04))

        lo, hi = 0.0228, 0.0247
        assert report(lo).direction is al.HopfDirection.SUPERCRITICAL
        assert report(hi).direction is al.HopfDirection.SUBCRITICAL
        while True:
            h = 0.5 * (lo + hi)
            assert lo < h < hi, "the bisection reached adjacent floats"
            rep = report(h)
            if rep.direction is al.HopfDirection.UNDETERMINED:
                break
            lo, hi = (h, hi) if rep.sigma < 0 else (lo, h)
        assert abs(sum(rep.phi)) <= 1e-12 * sum(map(abs, rep.phi))

    def test_lyapunov_number_rejects_a_non_centre(self):
        t = al.derivatives(al.ModelParams(q=1, s=1, h=0.12, m=0.1), al.State(0.3, 0.3))
        with pytest.raises(NotAWeakCenter, match="need a \\+ d = 0 and Delta > 0"):
            al.lyapunov_number(1.0, 1.0, -1.0, 0.0, t)

    def test_off_critical_growth_rate_rejected(self):
        with pytest.raises(NotAWeakCenter):
            al.first_lyapunov_coefficient(al.ModelParams(q=1, s=0.6, h=0.12, m=0.1), "E8")


class TestBTNormalForm:
    def test_unperturbed_cusp_maps_to_origin(self):
        p = al.cusp_base_params(1.0, 0.1)
        rep = al.bt_normal_form(p, (0.0, 0.0))
        assert abs(rep.l00) <= 1e-12
        assert abs(rep.l01) <= 1e-12
        assert rep.mirrored is False
        assert rep.verdict is al.BTVerdict.BT_CODIM2

    def test_limiting_coefficients(self):
        p = al.cusp_base_params(1.0, 0.1)  # h3 = 1/8, s1 = 5/3
        rep = al.bt_normal_form(p, (0.0, 0.0))
        assert rep.f20 == pytest.approx(-0.5, abs=1e-12)          # (2*h3-1/2)*(1+q)
        assert rep.f11 == pytest.approx(-14.0 / 3.0, abs=1e-10)   # -(s1+2+q)
        assert rep.h11 == pytest.approx(-(14.0 / 3.0) / math.sqrt(0.5), abs=1e-10)
        assert rep.ladder["a"]["00"] == 0.0

    def test_perturbation_enters_only_the_constant_term(self):
        p = al.cusp_base_params(1.0, 0.1)
        rep = al.bt_normal_form(p, (1e-3, 0.0))
        assert rep.ladder["a"]["00"] == pytest.approx(-1e-3, rel=1e-14)

    @pytest.mark.parametrize("q, m", [
        (1e-9, 0.1), (1.8e-4, 0.27), (2.2e-3, 0.42), (3e-3, 0.3), (1.0, 0.1),
        (1.0, 0.225), (0.5, 0.05), (2.0, 0.02), (2e4, 1e-5), (3e5, 1e-6), (1e6, 1e-7)])
    def test_closed_form_jacobian_equals_the_exact_chain(self, q, m):
        # the closed form against central differences of the chain run in
        # 50-digit mpmath at the exact cusp; (1, 0.225) is the base whose
        # chain takes the mirrored branch a few 1e-4 away
        with mp_cusp_chain(q, m) as base:
            want = float(bt_jacobian_det_fd(base, mpmath.mpf("1e-25")))
        rep = al.bt_normal_form(al.cusp_base_params(q, m))
        assert rep.jac_det == pytest.approx(want, rel=1e-14)
        assert rep.verdict is al.BTVerdict.BT_CODIM2

    def test_cusp_conditions_enforced(self):
        with pytest.raises(CuspConditionsViolated):
            al.cusp_base_params(1.0, 0.3)  # s1 < 0
        with pytest.raises(CuspConditionsViolated):
            al.bt_normal_form(al.ModelParams(q=1, s=5 / 3, h=0.2, m=0.1))  # h != h3
        with pytest.raises(CuspConditionsViolated):
            al.bt_normal_form(al.ModelParams(q=1, s=1.0, h=0.125, m=0.1))  # s != s1
        with pytest.raises(ValueError):
            al.bt_normal_form(al.cusp_base_params(1.0, 0.1), (0.1, 0.0))  # |eta| too big

    @pytest.mark.parametrize("eta", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_perturbation_is_named(self, eta):
        with pytest.raises(ValueError, match=rf"^perturbation \({eta[0]}, {eta[1]}\) is not finite$"):
            al.bt_normal_form(al.cusp_base_params(1.0, 0.1), eta)


EPS = 2.0 ** -52


def _hex(values):
    # bitwise equality, zeros by their sign
    return [float.hex(v) for v in values]


# a cusp base, q log-uniform over [1e-4, 1e6] and m a fraction of 2*h3 (s1 > 0)
_CUSP_BASES = st.tuples(st.floats(-4.0, 6.0), st.floats(0.01, 0.99)).map(
    lambda u: al.cusp_base_params(10.0 ** u[0], u[1] * 0.5 / (10.0 ** u[0] + 1.0)))
# a perturbation as a fraction of the base value, so h and s stay positive
_FRACTIONS = st.floats(-0.9, 0.9)


def _s1_condition(base):
    # condition number of s1 = (4 h3 - 1) / (2 (m - 2 h3)) in h3 and m
    x7 = 2.0 * base.h
    return (4.0 * base.h + 1.0) / abs(4.0 * base.h - 1.0) + (base.m + x7) / abs(base.m - x7)


class TestBTCuspIdentities:
    """The closed-form unfolding Jacobian rests on the exact values the
    chain takes at the cusp: the anchors _halves imposes, and f20 = -q/2,
    f11 = -(s1 + 2 + q) at eta = 0."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_CUSP_BASES)
    def test_chain_limits_at_the_cusp(self, base):
        q, s1, h3, m = base
        chain, mirrored = bifurcations._ladder(*bifurcations._halves(base, 0.0, 0.0))
        f20, f11, l00, l01 = chain[9], chain[10], chain[-2], chain[-1]
        # the chain's quadratic coefficients repeat s1's two cancellations
        kappa = _s1_condition(base)
        assert f20 == pytest.approx(-q / 2.0, rel=16.0 * EPS * kappa)
        assert f11 == pytest.approx(-(s1 + 2.0 + q), rel=16.0 * EPS * kappa)
        assert mirrored is False
        assert l00 == 0.0 and l01 == 0.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_CUSP_BASES)
    def test_expansion_meets_the_anchors_within_rounding(self, base):
        # each residue is bounded by 4 eps times the sum of the magnitudes
        # of the terms it is computed from; b01's terms carry s1's own
        # rounding, which its condition number kappa scales
        q, s1, h3, m = base
        x7 = 2.0 * h3
        t = taylor_at(base, al.State(x7, x7))
        kappa = _s1_condition(base)
        a10_terms = 1.0 + 2.0 * x7 + q * x7
        b01_terms = s1 * (5.0 * x7 + 3.0 * m) + abs(t.b01) * kappa
        assert abs(t.a00) <= 4.0 * EPS * (x7 + x7 * x7 + q * x7 * x7 + h3)
        assert t.b00 == 0.0  # the factor 1 - y/x is exactly 0 at y = x
        det = t.a01 * t.b10 - t.a10 * t.b01
        assert abs(det) <= 4.0 * EPS * (abs(t.a01 * t.b10) + abs(t.b01) * a10_terms
                                        + abs(t.a10) * b01_terms)
        assert abs(t.a10 + t.b01) <= 4.0 * EPS * (a10_terms + b01_terms)
        prey, predator = bifurcations._halves(base, 0.0, 0.0)
        assert _hex((prey[0], predator[0], predator[6], predator[7])) == _hex((0.0,) * 4)


class TestBTHalves:
    """At (x7, x7) the prey equation never reads s and the predator equation
    never reads h, which lets a grid keep the chain's inputs by eta1 and by
    eta2 and expand each new value once."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_CUSP_BASES, _FRACTIONS, _FRACTIONS)
    def test_prey_reads_only_eta1_and_predator_only_eta2(self, base, f1, f2):
        eta1, eta2 = f1 * base.h, f2 * base.s
        x7 = al.State(2.0 * base.h, 2.0 * base.h)

        def at(d1, d2):
            return taylor_at(al.ModelParams(base.q, base.s + d2, base.h + d1, base.m), x7)

        both, prey_only, predator_only, neither = at(eta1, eta2), at(eta1, 0.0), at(0.0, eta2), at(0.0, 0.0)
        assert _hex(both[:6]) == _hex(prey_only[:6])
        assert _hex(both[10:16]) == _hex(predator_only[10:16])
        # the a-coefficients stage d reads never depend on h
        for t in (both, prey_only, predator_only):
            assert _hex((t.a10, t.a01, t.a20, t.a11)) == _hex((neither.a10, neither.a01,
                                                               neither.a20, neither.a11))

    @pytest.mark.parametrize("q, m, any_mirrored", [
        (1.0, 0.1, False), (1.0, 0.225, True), (3e-3, 0.3, True), (2e4, 1e-5, True)])
    def test_each_cell_equals_the_chain_on_its_own_expansion(self, q, m, any_mirrored):
        # repeated, unordered and signed-zero etas, each cell checked
        # against halves cut from a fresh expansion at that cell alone
        base = al.cusp_base_params(q, m)
        box = min(0.5 * base.h, 1e-3)
        values = [0.5 * box, -0.0, -box, 0.0, box, 0.5 * box, -0.25 * box, 0.0]
        etas = [(values[i], values[(3 * i + 1) % len(values)]) for i in range(len(values))]
        etas += [(e2, e1) for e1, e2 in etas] + [(-0.0, -0.0), (0.0, 0.0), (-0.0, 0.0)]
        grid = bifurcations._bt_grid(base, etas)
        columns = [grid.ladder[stage][key] for stage, keys in bifurcations._LADDER_KEYS
                   for key in keys]
        assert len(columns) == 41
        assert any(grid.mirrored) is any_mirrored
        for i, (e1, e2) in enumerate(etas):
            prey, predator = bifurcations._halves(base, e1, e2)
            chain, mirrored = bifurcations._ladder(prey, predator)
            want = (*prey[:6], *predator[:6], *prey[6:], *predator[6:], *chain)
            assert _hex(column[i] for column in columns) == _hex(want)
            assert grid.mirrored[i] is mirrored
            assert _hex((grid.eta[0][i], grid.eta[1][i])) == _hex((e1, e2))
            assert float.hex(grid.f20[i]) == float.hex(-chain[9] if mirrored else chain[9])

    @pytest.mark.parametrize("q, m, mirrored", [(1.0, 0.1, 0), (1.0, 0.225, 63)])
    def test_passed_on_coefficients_share_one_column(self, q, m, mirrored):
        values = [-1e-3 + i * 1e-4 for i in range(21)]
        grid = bifurcations._bt_grid(al.cusp_base_params(q, m),
                                     [(e1, e2) for e1 in values for e2 in values])
        lad = grid.ladder
        assert sum(grid.mirrored) == mirrored
        assert lad["c"]["00"] is lad["a"]["00"]
        assert lad["f"]["01"] is lad["e"]["01"]
        assert lad["h"]["11"] is lad["g"]["11"] is grid.h11
        # f00 is e00 where the chain is not mirrored, and -e00 where it is
        assert (lad["f"]["00"] is lad["e"]["00"]) is not bool(mirrored)
        assert lad["f"]["00"] == tuple(-e if flip else e
                                       for e, flip in zip(lad["e"]["00"], grid.mirrored))


# ---------------------------------------------------------------------------
# stage-by-stage flow consistency of the coefficient chain
# ---------------------------------------------------------------------------

ETA = (2e-4, -3e-4)
Q_BT, M_BT = 1.0, 0.1


def _poly_rhs(c):
    def rhs(t, u):
        x, y = u
        return [
            c["a"].get("00", 0.0) + c["a"].get("10", 0.0) * x + c["a"].get("01", 0.0) * y
            + c["a"].get("20", 0.0) * x * x + c["a"].get("11", 0.0) * x * y
            + c["a"].get("02", 0.0) * y * y,
            c["b"].get("00", 0.0) + c["b"].get("10", 0.0) * x + c["b"].get("01", 0.0) * y
            + c["b"].get("20", 0.0) * x * x + c["b"].get("11", 0.0) * x * y
            + c["b"].get("02", 0.0) * y * y,
        ]

    return rhs


@pytest.fixture(scope="module")
def bt_chain():
    p = al.cusp_base_params(Q_BT, M_BT)
    rep = al.bt_normal_form(p, ETA)
    lad = rep.ladder
    h3, s1 = p.h, p.s
    x7 = 2 * h3

    def full_rhs(t, u):
        return list(_field(Q_BT, s1 + ETA[1], h3 + ETA[0], M_BT, u[0], u[1]))

    chain = {k: lad[k] for k in ("a", "b", "c", "d", "e", "f", "g", "h", "l")}
    chain.update({"rep": rep, "x7": x7, "full": full_rhs})
    return chain


def _integrate(rhs, t_span, u0):
    sol = solve_ivp(rhs, t_span, u0, rtol=3e-13, atol=1e-16, dense_output=False)
    assert sol.success
    return np.array([sol.y[0, -1], sol.y[1, -1]])


def _stage_rhs(chain, name):
    c, d, e, f, g = chain["c"], chain["d"], chain["e"], chain["f"], chain["g"]
    hh, ll = chain["h"], chain["l"]
    if name == "S1":
        return _poly_rhs({"a": chain["a"], "b": chain["b"]})
    if name == "S2":
        return _poly_rhs({
            "a": {"00": c["00"], "01": 1.0, "20": c["20"], "11": c["11"]},
            "b": d,
        })
    if name == "S3":
        return _poly_rhs({"a": {"01": 1.0}, "b": e})
    if name == "S4":
        base = _stage_rhs(chain, "S3")

        def rhs(t, u):
            du = base(t, u[:2])
            w = 1.0 - e["02"] * u[0]
            return [w * du[0], w * du[1], w]  # third slot tracks physical time

        return rhs
    if name == "S5":
        return _poly_rhs({"a": {"01": 1.0}, "b": f})
    if name == "S6":
        return _poly_rhs({"a": {"01": 1.0},
                          "b": {"00": g["00"], "10": g["10"], "01": g["01"],
                                "20": -1.0, "11": g["11"]}})
    if name == "S7":
        return _poly_rhs({"a": {"01": 1.0},
                          "b": {"00": hh["00"], "01": hh["01"], "20": -1.0, "11": hh["11"]}})
    if name == "S8":
        return _poly_rhs({"a": {"01": 1.0},
                          "b": {"00": ll["00"], "01": ll["01"], "20": 1.0, "11": 1.0}})
    raise KeyError(name)


class TestBTChainFlowConsistency:
    """Each substitution in the chain must transform trajectories, not just
    coefficients: integrate before and after each change of variables and
    compare at matched times.  Polynomial-truncation stages are checked at
    1e-6 from O(1e-3) data, exact changes of variables at 1e-8."""

    def test_shift_and_quadratic_truncation(self, bt_chain):
        x7 = bt_chain["x7"]
        u0 = (x7 + 8e-4, x7 - 5e-4)
        full_end = _integrate(bt_chain["full"], (0, 0.5), u0)
        s1_end = _integrate(_stage_rhs(bt_chain, "S1"), (0, 0.5), (u0[0] - x7, u0[1] - x7))
        assert np.hypot(*(s1_end - (full_end - x7))) <= 1e-6

    def test_linear_straightening_exact(self, bt_chain):
        a = bt_chain["a"]
        u0 = (8e-4, -5e-4)

        def fwd(u):
            return np.array([u[0], a["10"] * u[0] + a["01"] * u[1]])

        s1_end = _integrate(_stage_rhs(bt_chain, "S1"), (0, 0.5), u0)
        s2_end = _integrate(_stage_rhs(bt_chain, "S2"), (0, 0.5), fwd(u0))
        assert np.hypot(*(s2_end - fwd(s1_end))) <= 1e-8

    def test_flattening_truncation(self, bt_chain):
        c = bt_chain["c"]
        u0 = (8e-4, -5e-4)

        def fwd(u):
            return np.array([
                u[0],
                c["00"] + u[1] + c["20"] * u[0] ** 2 + c["11"] * u[0] * u[1],
            ])

        s2_end = _integrate(_stage_rhs(bt_chain, "S2"), (0, 0.5), u0)
        s3_end = _integrate(_stage_rhs(bt_chain, "S3"), (0, 0.5), fwd(u0))
        assert np.hypot(*(s3_end - fwd(s2_end))) <= 1e-6

    def test_time_reparametrisation_exact(self, bt_chain):
        u0 = (8e-4, -5e-4)
        sol4 = solve_ivp(_stage_rhs(bt_chain, "S4"), (0, 0.5), (*u0, 0.0),
                         rtol=3e-13, atol=1e-16)
        t_phys = sol4.y[2, -1]
        s3_end = _integrate(_stage_rhs(bt_chain, "S3"), (0, t_phys), u0)
        assert np.hypot(sol4.y[0, -1] - s3_end[0], sol4.y[1, -1] - s3_end[1]) <= 1e-8

    def test_vertical_rescale_truncation(self, bt_chain):
        e = bt_chain["e"]
        u0 = (8e-4, -5e-4)

        def fwd(u):
            return np.array([u[0], u[1] * (1.0 - e["02"] * u[0])])

        sol4 = solve_ivp(_stage_rhs(bt_chain, "S4"), (0, 0.4), (*u0, 0.0),
                         rtol=3e-13, atol=1e-16)
        s4_end = np.array([sol4.y[0, -1], sol4.y[1, -1]])
        s5_end = _integrate(_stage_rhs(bt_chain, "S5"), (0, 0.4), fwd(u0))
        assert np.hypot(*(s5_end - fwd(s4_end))) <= 1e-6

    def test_unit_quadratic_scaling_exact(self, bt_chain):
        f = bt_chain["f"]
        k = math.sqrt(-f["20"])
        u0 = (8e-4, -5e-4)

        def fwd(u):
            return np.array([u[0], u[1] / k])

        s5_end = _integrate(_stage_rhs(bt_chain, "S5"), (0, 0.4), u0)
        s6_end = _integrate(_stage_rhs(bt_chain, "S6"), (0, 0.4 * k), fwd(u0))
        assert np.hypot(*(s6_end - fwd(s5_end))) <= 1e-8

    def test_horizontal_translation_exact(self, bt_chain):
        g = bt_chain["g"]
        u0 = (8e-4, -5e-4)

        def fwd(u):
            return np.array([u[0] - g["10"] / 2.0, u[1]])

        s6_end = _integrate(_stage_rhs(bt_chain, "S6"), (0, 0.4), u0)
        s7_end = _integrate(_stage_rhs(bt_chain, "S7"), (0, 0.4), fwd(u0))
        assert np.hypot(*(s7_end - fwd(s6_end))) <= 1e-8

    def test_final_normalisation_exact(self, bt_chain):
        h11 = bt_chain["h"]["11"]
        assert h11 < 0
        u0 = (8e-4, -5e-4)

        def fwd(u):
            return np.array([-h11**2 * u[0], h11**3 * u[1]])

        span = 0.4
        s7_end = _integrate(_stage_rhs(bt_chain, "S7"), (0, span), u0)
        s8_end = _integrate(_stage_rhs(bt_chain, "S8"), (0, -span / h11), fwd(u0))
        assert np.hypot(*(s8_end - fwd(s7_end))) <= 1e-7
