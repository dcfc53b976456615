from __future__ import annotations

import math

import numpy as np
import pytest

import allee_lab as al
from allee_lab import equilibria
from allee_lab.equilibria import DISCRIMINANT_RTOL
from allee_lab.errors import AlleeLabError, HopfInadmissible, InconsistentInput
from allee_lab.model import derivatives
from helpers import random_params

SC = al.StabilityClass


def quad_residual(x: float, root_sum: float, root_prod: float) -> float:
    return abs(x * x - root_sum * x + root_prod) / max(1.0, root_sum**2, root_prod**2)


class TestPreyAxisBranch:
    def test_fold_gives_single_point(self):
        p = al.ModelParams(q=1, s=1, h=0.25, m=0.2)
        (e,) = al.solve_branch_prey_axis(p)
        assert e.labels == ("E1",)
        assert (e.x, e.y) == (0.5, 0.0)

    def test_above_fold_empty(self):
        assert al.solve_branch_prey_axis(al.ModelParams(q=1, s=1, h=0.26, m=0.2)) == []

    def test_pair_below_fold(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        e2, e3 = al.solve_branch_prey_axis(p)
        assert e2.labels == ("E2",) and e3.labels == ("E3",)
        assert e2.x == pytest.approx(0.7, abs=1e-14)
        assert e3.x == pytest.approx(0.3, abs=1e-14)
        for e in (e2, e3):
            assert quad_residual(e.x, 1.0, p.h) <= 1e-14


class TestAlleeLineBranch:
    def test_negative_root_sum_empty(self):
        assert al.solve_branch_allee_line(al.ModelParams(q=6, s=1, h=0.05, m=0.2)) == []

    def test_fold_double_root(self):
        p = al.ModelParams(q=1, s=1, h=0.16, m=0.2)
        (e,) = al.solve_branch_allee_line(p)
        assert e.labels == ("E4",)
        assert (e.x, e.y) == pytest.approx((0.4, 0.2), abs=1e-14)

    def test_pair(self):
        p = al.ModelParams(q=1, s=1, h=0.15, m=0.2)
        e5, e6 = al.solve_branch_allee_line(p)
        assert e5.x == pytest.approx(0.5, abs=1e-14)
        assert e6.x == pytest.approx(0.3, abs=1e-14)
        assert e5.y == e6.y == 0.2
        A = 1 - p.q * p.m
        for e in (e5, e6):
            assert quad_residual(e.x, A, p.h) <= 1e-14


class TestDiagonalBranch:
    def test_fold_double_root(self):
        p = al.ModelParams(q=1, s=1, h=0.125, m=0.2)
        (e,) = al.solve_branch_diagonal(p)
        assert e.labels == ("E7",)
        assert (e.x, e.y) == pytest.approx((0.25, 0.25), abs=1e-15)

    def test_below_fold_empty(self):
        assert al.solve_branch_diagonal(al.ModelParams(q=1, s=1, h=0.13, m=0.2)) == []

    def test_pair(self):
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.2)
        e8, e9 = al.solve_branch_diagonal(p)
        assert e8.x == pytest.approx(0.3, abs=1e-14) and e8.y == e8.x
        assert e9.x == pytest.approx(0.2, abs=1e-14) and e9.y == e9.x
        C = 1 / (p.q + 1)
        for e in (e8, e9):
            assert quad_residual(e.x, C, p.h * C) <= 1e-14


class TestDiscriminants:
    def test_square_root_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_params(rng)
            d = al.discriminants(p)
            if d.B is not None:
                assert d.B**2 == pytest.approx(d.delta1, rel=1e-15, abs=1e-30)
            if d.D is not None:
                assert d.D**2 == pytest.approx(d.delta2, rel=1e-15, abs=1e-30)

    def test_root_counts_follow_discriminant_signs(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            p = random_params(rng)
            d = al.discriminants(p)

            n_prey = len(al.solve_branch_prey_axis(p))
            rel1 = (1 - 4 * p.h) / max(1.0, p.h * p.h)
            assert n_prey == (1 if abs(rel1) <= DISCRIMINANT_RTOL else (2 if rel1 > 0 else 0))

            n_allee = len(al.solve_branch_allee_line(p))
            if d.A <= 0:
                assert n_allee == 0
            else:
                rel2 = d.delta1 / max(1.0, d.A * d.A, p.h * p.h)
                assert n_allee == (1 if abs(rel2) <= DISCRIMINANT_RTOL else (2 if rel2 > 0 else 0))

            n_diag = len(al.solve_branch_diagonal(p))
            rel3 = d.delta2 / max(1.0, d.C * d.C, (p.h * d.C) ** 2)
            assert n_diag == (1 if abs(rel3) <= DISCRIMINANT_RTOL else (2 if rel3 > 0 else 0))


class TestClassification:
    def test_boundary_pair_node_and_saddle(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        e2, e3 = al.solve_branch_prey_axis(p)
        assert al.classify(p, e2) is SC.STABLE_NODE
        assert al.classify(p, e3) is SC.SADDLE

    def test_weak_center_on_diagonal(self):
        p = al.ModelParams(q=1, s=0.5, h=0.12, m=0.1)
        e8, _ = al.solve_branch_diagonal(p)
        assert al.classify(p, e8) is SC.WEAK_CENTER
        assert abs(e8.trace) <= 1e-12
        # determinant from the closed form s*(m - x8)*(1 - 2*(q+1)*x8)
        assert e8.det == pytest.approx(0.02, rel=1e-12)

    def test_cusp_point(self):
        p = al.cusp_base_params(1.0, 0.1)
        (e7,) = al.solve_branch_diagonal(p)
        assert al.classify(p, e7) is SC.CUSP

    def test_fold_points_are_saddle_nodes(self):
        p = al.ModelParams(q=1, s=1, h=0.25, m=0.2)
        (e1,) = al.solve_branch_prey_axis(p)
        assert al.classify(p, e1) is SC.SADDLE_NODE
        p4 = al.ModelParams(q=1, s=1, h=0.16, m=0.2)
        (e4,) = al.solve_branch_allee_line(p4)
        assert al.classify(p4, e4) is SC.SADDLE_NODE

    def test_fully_degenerate_allee_fold_reported_degenerate(self):
        # fold point with m equal to the root: both eigenvalues vanish but
        # the linear part stays nonzero and the quadratic checks disagree
        m = 0.4
        h = m * m  # double root at x = m requires A/2 = m, i.e. h = m^2
        q = (1 - 2 * m) / m
        p = al.ModelParams(q=q, s=1.0, h=h, m=m)
        (e4,) = al.solve_branch_allee_line(p)
        assert (e4.x, e4.y) == pytest.approx((m, m), abs=1e-14)
        assert al.classify(p, e4) in (SC.DEGENERATE, SC.CUSP, SC.SADDLE_NODE)

    def test_non_equilibrium_rejected(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        e2, _ = al.solve_branch_prey_axis(p)
        fake = e2._replace(state=al.State(0.75, 0.01))
        with pytest.raises(InconsistentInput):
            al.classify(p, fake)

    def test_eigenvalues_consistent_with_trace_det(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            p = random_params(rng)
            for e in al.full_portrait(p):
                lam1, lam2 = e.eigenvalues
                assert (lam1 + lam2).real == pytest.approx(e.trace, abs=1e-10)
                assert (lam1 * lam2).real == pytest.approx(e.det, abs=1e-10)
                assert abs((lam1 + lam2).imag) <= 1e-10

    def test_classification_matches_independent_eigensolver(self):
        rng = np.random.default_rng(9)
        for _ in range(400):
            p = random_params(rng)
            for e in al.full_portrait(p):
                lam = np.linalg.eigvals(al.derivatives(p, e.state).jacobian)
                cls = e.classification
                if cls is SC.SADDLE:
                    assert lam.real.min() < 0 < lam.real.max()
                elif cls in (SC.STABLE_NODE, SC.STABLE_FOCUS):
                    assert lam.real.max() < 0
                    assert (cls is SC.STABLE_FOCUS) == (abs(lam[0].imag) > 1e-12)
                elif cls in (SC.UNSTABLE_NODE, SC.UNSTABLE_FOCUS):
                    assert lam.real.min() > 0
                    assert (cls is SC.UNSTABLE_FOCUS) == (abs(lam[0].imag) > 1e-12)
                elif cls is SC.WEAK_CENTER:
                    assert np.abs(lam.real).max() <= 1e-9
                else:  # saddle-node / cusp / degenerate: a zero eigenvalue
                    assert np.abs(lam).min() <= 1e-7


def _eigvals_verdict(a, b, c, d, norm, cls) -> bool:
    # the check's acceptance rule on np.linalg.eigvals' eigenvalues
    lam = np.linalg.eigvals(np.array([[a, b], [c, d]]))
    re = np.sort(lam.real)
    tol = equilibria.EIGEN_SIGN_RTOL * max(norm, equilibria.NORM_FLOOR)
    if cls is SC.SADDLE:
        return re[0] < tol and re[1] > -tol and lam.imag[0] == 0
    if cls in (SC.STABLE_NODE, SC.STABLE_FOCUS):
        return re[1] < tol
    if cls in (SC.UNSTABLE_NODE, SC.UNSTABLE_FOCUS):
        return re[0] > -tol
    if cls is SC.WEAK_CENTER:
        return abs(re[0]) <= tol and abs(re[1]) <= tol and abs(lam[0].imag) > tol
    return np.abs(lam).min() <= equilibria.EIGEN_ZERO_RTOL * max(norm, equilibria.NORM_FLOOR)


class TestClosedFormEigenvalueCheck:
    def test_accepts_and_rejects_what_eigvals_does(self, monkeypatch):
        # every check full_portrait makes on log-uniform points, run both ways
        check = equilibria._check_against_eigenvalues
        verdicts = []

        def both(*args):
            try:
                check(*args)
                accepted = True
            except InconsistentInput:
                accepted = False
            verdicts.append((accepted, bool(_eigvals_verdict(*args))))
            if not accepted:
                raise InconsistentInput("rejected")

        monkeypatch.setattr(equilibria, "_check_against_eigenvalues", both)
        rng = np.random.default_rng(1)
        for _ in range(2000):
            q, s = 10.0 ** rng.uniform(-6, 6, 2)
            h, m = 10.0 ** rng.uniform(-6, 0), rng.uniform(0, 1)
            try:
                al.full_portrait(al.ModelParams(q=q, s=s, h=h, m=m))
            except AlleeLabError:
                pass
        assert len(verdicts) > 7000
        assert sum(not accepted for accepted, _ in verdicts) > 50
        assert [v for v in verdicts if v[0] != v[1]] == []


def _eigvals(a, b, c, d):
    return np.linalg.eigvals(np.stack([a, b, c, d], axis=1).reshape(-1, 2, 2))


def _batch_tol(norm):
    return equilibria.EIGEN_SIGN_RTOL / equilibria.BATCH_MARGIN * np.maximum(
        norm, equilibria.NORM_FLOOR)


def _eigvals_signs_agree(a, b, c, d, norm, saddle, stable):
    # the batch check's acceptance rule on np.linalg.eigvals' eigenvalues
    lam = _eigvals(a, b, c, d)
    re = np.sort(lam.real, axis=1)
    tol = _batch_tol(norm)
    return np.where(saddle, (re[:, 0] < tol) & (re[:, 1] > -tol) & (lam.imag[:, 0] == 0),
                    np.where(stable, re[:, 1] < tol, re[:, 0] > -tol))


def _closed_form_signs_agree(a, b, c, d, norm, saddle, stable):
    # the batch check as portrait_batch makes it
    parts = equilibria._eigen_parts(a, b, c, d, norm, np)
    return equilibria._signs_agree(*parts, _batch_tol(norm), saddle, stable, np)


class TestBatchEigenvalueCheck:
    @pytest.mark.parametrize("decades", [3, 12])
    def test_closed_form_verdicts_equal_eigvals(self, monkeypatch, decades):
        # seeded log-uniform points over 10^-decades .. 10^decades; the batch
        # run once as it is and once with numpy's eigenvalues
        rng = np.random.default_rng(decades)
        n = 20_000
        q, s, h = 10.0 ** rng.uniform(-decades, decades, (3, n))
        m = 10.0 ** rng.uniform(-decades, 0, n)
        closed_form = _closed_form_signs_agree
        closed = equilibria.portrait_batch(q, s, h, m)
        checks = []

        def eigvals_route(a, b, c, d, norm, xp):
            # numpy's eigenvalues as (lo, hi, im), judged by the same rule
            checks.append((a, b, c, d, norm))
            lam = _eigvals(a, b, c, d)
            re = np.sort(lam.real, axis=1)
            return re[:, 0], re[:, 1], np.abs(lam.imag[:, 0])

        monkeypatch.setattr(equilibria, "_eigen_parts", eigvals_route)
        reference = equilibria.portrait_batch(q, s, h, m)
        assert np.array_equal(closed.generic, reference.generic)
        assert closed.generic.sum() > n // 4

        # the same Jacobians, with a centre, a weak focus, a nilpotent and a
        # zero Jacobian appended, under every claim the batch can make: the
        # true one (det < 0 a saddle, else tr < 0 stable, as portrait_batch
        # computes them), and all saddle, all stable, all unstable
        (a, b, c, d, norm), = checks
        saddle, stable = a * d - b * c < 0, a + d < 0
        assert a.size > n // 2
        edge = np.array([[0.0, 1.0, -1.0, 0.0], [1e-12, 1.0, -1.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        a, b, c, d = (np.concatenate([v, e]) for v, e in zip((a, b, c, d), edge.T))
        norm = np.concatenate([norm, np.sqrt((edge * edge).sum(axis=1))])
        saddle, stable = np.pad(saddle, (0, 4)), np.pad(stable, (0, 4))
        everywhere, nowhere = np.ones_like(saddle), np.zeros_like(saddle)
        rejected = 0
        for claim in ((saddle, stable), (everywhere, nowhere), (nowhere, everywhere),
                      (nowhere, nowhere)):
            got = closed_form(a, b, c, d, norm, *claim)
            want = _eigvals_signs_agree(a, b, c, d, norm, *claim)
            assert np.array_equal(got, want)
            rejected += int((~want).sum())
        assert rejected > a.size


class TestEigenvalueSignPredictions:
    def test_allee_line_eigenvalue_signs(self):
        """lambda2 = s*m*(1 - m/x) at y = m equilibria: sign decided by the
        position of m relative to A/2 and of h relative to h1 = m-(q+1)m^2."""
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 1000:
            p = random_params(rng)
            pair = al.solve_branch_allee_line(p)
            if len(pair) != 2:
                continue
            e5, e6 = pair
            A = 1 - p.q * p.m
            h1 = p.m - (p.q + 1) * p.m * p.m
            lam2_e5 = p.s * p.m * (1 - p.m / e5.x)
            lam2_e6 = p.s * p.m * (1 - p.m / e6.x)
            if p.m < A / 2 - 1e-9:
                assert lam2_e5 > 0  # saddle side for the larger root
            if p.m > A / 2 + 1e-9 and p.h > h1 + 1e-9:
                assert lam2_e5 < 0
            if p.m < A / 2 - 1e-9 and p.h > h1 + 1e-9:
                assert lam2_e6 > 0
            if p.m < A / 2 - 1e-9 and p.h < h1 - 1e-9:
                assert lam2_e6 < 0
            if p.m > A / 2 + 1e-9:
                assert lam2_e6 < 0
            checked += 1

    def test_classified_cases_on_targeted_parameters(self):
        # larger Allee root: saddle below the collision harvest, stable node above
        p_saddle = al.ModelParams(q=1, s=1, h=0.06, m=0.4)     # h < h1 = 0.08
        p_node = al.ModelParams(q=1, s=1, h=0.085, m=0.4)      # h1 < h < A^2/4
        e5_s = al.solve_branch_allee_line(p_saddle)[0]
        e5_n = al.solve_branch_allee_line(p_node)[0]
        assert al.classify(p_saddle, e5_s) is SC.SADDLE
        assert al.classify(p_node, e5_n) is SC.STABLE_NODE
        # smaller root: saddle below h1, unstable node above
        p6_saddle = al.ModelParams(q=1, s=1, h=0.10, m=0.2)
        p6_node = al.ModelParams(q=1, s=1, h=0.13, m=0.2)
        assert al.classify(p6_saddle, al.solve_branch_allee_line(p6_saddle)[1]) is SC.SADDLE
        assert al.classify(p6_node, al.solve_branch_allee_line(p6_node)[1]) is SC.UNSTABLE_NODE


class TestThresholds:
    def test_closed_forms(self):
        p = al.ModelParams(q=1, s=1, h=0.05, m=0.2)
        t = al.thresholds(p)
        assert t.h1 == pytest.approx(0.12, rel=1e-15)
        assert t.h2 == 0.25
        assert t.h3 == pytest.approx(0.125, rel=1e-15)

    def test_critical_growth_rates(self):
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.1)
        t = al.thresholds(p)
        assert t.s2 == pytest.approx(0.5, rel=1e-12)
        # formula value at the lower root; inadmissibility for an actual
        # Hopf point there is the bifurcation module's call
        assert t.s3 == pytest.approx(4.0, rel=1e-12)
        t2 = al.thresholds(al.ModelParams(q=1, s=1, h=0.12, m=0.25))
        assert t2.s3 is not None and t2.s3 < 0  # m above the lower root

    def test_degenerate_denominator_reported_not_fatal(self):
        p = al.ModelParams(q=1, s=1, h=0.1, m=0.2)  # m = 2h
        t = al.thresholds(p)
        assert t.s1 is None
        assert "s1" in t.absent

    def test_s_thresholds_absent_without_diagonal_pair(self):
        p = al.ModelParams(q=1, s=1, h=0.2, m=0.2)  # delta2 < 0
        t = al.thresholds(p)
        assert t.s2 is None and t.s3 is None
        assert "s2" in t.absent and "s3" in t.absent


class TestFullPortrait:
    def test_high_harvest_kills_all_branches(self):
        p = al.ModelParams(q=1, s=1, h=0.3, m=0.2)
        assert al.full_portrait(p) == []

    def test_all_equilibria_have_tiny_residual(self):
        p = al.ModelParams(q=1, s=1, h=0.21, m=0.2)
        portrait = al.full_portrait(p)
        assert len(portrait) == 2  # only the boundary pair exists here
        for e in portrait:
            f = al.vector_field(p, e.state)
            assert math.hypot(float(f[0]), float(f[1])) <= 1e-12

    def test_merged_equilibrium_at_collision_harvest(self):
        # h = h1: the smaller Allee root sits at (m, m), on the diagonal too
        p = al.ModelParams(q=1, s=1, h=0.12, m=0.2)
        portrait = al.full_portrait(p)
        merged = [e for e in portrait if len(e.labels) == 2]
        assert len(merged) == 1
        (e,) = merged
        assert set(e.labels) == {"E6", "E9"}
        assert set(e.branches) == {al.Branch.ALLEE_LINE, al.Branch.DIAGONAL}
        assert math.hypot(e.x - p.m, e.y - p.m) <= 1e-12
        assert e.classification is SC.SADDLE_NODE

    def test_merged_upper_roots_variant(self):
        # same collision on the upper branch: m > A/2 merges E5 with E8
        p = al.ModelParams(q=1, s=1, h=0.08, m=0.4)
        merged = [e for e in al.full_portrait(p) if len(e.labels) == 2]
        assert len(merged) == 1
        assert set(merged[0].labels) == {"E5", "E8"}
        assert merged[0].classification is SC.SADDLE_NODE


class TestOneLinearisationPerEquilibrium:
    @pytest.mark.parametrize("q, s, h, m, label, cls", [
        (1, 1, 0.1, 0.2, "E8", SC.STABLE_FOCUS),     # generic: six equilibria
        (1, 1, 0.25, 0.2, "E1", SC.SADDLE_NODE),     # prey-axis fold
        (1, 1.6666666666666667, 0.125, 0.1, "E7", SC.CUSP),  # cusp base
    ])
    def test_one_derivatives_call_per_equilibrium(self, monkeypatch, q, s, h, m, label, cls):
        # the classifier reads its saddle-node and cusp kernels from the one
        # bundle; normal_forms is counted too, so a call through its
        # wrappers would show
        import allee_lab.equilibria as eq
        import allee_lab.normal_forms as nf

        calls = []

        def counting_derivatives(*args):
            calls.append(args)
            return derivatives(*args)

        for module in (eq, nf):
            monkeypatch.setattr(module, "derivatives", counting_derivatives)
        portrait = al.full_portrait(al.ModelParams(q=q, s=s, h=h, m=m))
        assert {e.label: e.classification for e in portrait}[label] is cls
        assert len(calls) == len(portrait)


class TestOneDiagonalRoot:
    """thresholds, hopf_critical_s and full_portrait read the same E8 and E9."""

    @staticmethod
    def pair_points(n: int = 400):
        rng = np.random.default_rng(7)
        for _ in range(n):
            q = 10 ** rng.uniform(-2, 2)
            h = rng.uniform(0.01, 0.99) / (4 * (q + 1))  # below h3: the pair exists
            yield al.ModelParams(q=q, s=10 ** rng.uniform(-1, 1), h=h, m=rng.uniform(0.02, 0.98))

    def test_trace_zero_growth_rates_sit_at_the_reported_pair(self):
        moved = 0
        for p in self.pair_points():
            x = {e.label: e.x for e in al.full_portrait(p)}
            t = al.thresholds(p)
            # the root from the spelling C*C - 4*(h*C) of the discriminant
            C = 1.0 / (p.q + 1.0)
            moved += x["E8"] != 0.5 * (C + math.sqrt(C * C - 4.0 * (p.h * C)))
            for name, label in (("s2", "E8"), ("s3", "E9")):
                xd = x[label]
                assert getattr(t, name) == (2.0 * xd + p.q * xd - 1.0) / (p.m - xd)
            try:
                assert al.hopf_critical_s(p, "E8") == t.s2
            except HopfInadmissible:
                pass
        # the sample includes points where the two spellings give another x8
        assert moved > 0
