"""Closed-form equilibria of the dimensionless system and their stability.

Equilibria fall on three lines in the phase plane, because the predator
equation factors as s*y*(1 - y/x)*(y - m):

    prey axis   y = 0   with x solving  x^2 - x + h = 0
    Allee line  y = m   with x solving  x^2 - (1 - q*m)*x + h = 0
    diagonal    y = x   with x solving  x^2 - x/(q+1) + h/(q+1) = 0

Each branch is a quadratic with positive sum and product of roots, so the
roots are computed with the cancellation-free formula (large root first,
small root from the product) and double roots are recognised through a
relative tolerance band on the discriminant.

`portrait_batch` computes the same quantities for many parameter points at
once as numpy arrays, and marks the points it cannot decide as exactly as
the scalar path (folds, merges, tolerance-band edges) for that path.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InconsistentInput, NotRepresentable
from .model import ModelParams, State, _field, derivatives

__all__ = [
    "Branch",
    "BranchDiscriminants",
    "StabilityClass",
    "Equilibrium",
    "Thresholds",
    "DISCRIMINANT_RTOL",
    "MERGE_DISTANCE",
    "discriminants",
    "solve_branch_prey_axis",
    "solve_branch_allee_line",
    "solve_branch_diagonal",
    "classify",
    "thresholds",
    "full_portrait",
    "PortraitBatch",
    "portrait_batch",
]

# relative tolerance deciding the double-root (fold) cases
DISCRIMINANT_RTOL = 1e-10
# Euclidean distance under which equilibria from different branches merge
MERGE_DISTANCE = 1e-10
# residual above which a point is rejected as "not an equilibrium"
RESIDUAL_TOL = 1e-9
# det, trace and node/focus discriminant bands of classify(), relative to
# the Jacobian's Frobenius norm (squared for det and the discriminant)
DEGENERACY_RTOL = 1e-9
# eigenvalue cross-check: real-part sign of a generic class, and the
# smallest eigenvalue modulus of a degenerate class, relative to the norm
EIGEN_SIGN_RTOL = 1e-8
EIGEN_ZERO_RTOL = 1e-7
# floor of the norm in every band above, so a zero Jacobian has a band
NORM_FLOOR = 1e-30
# |denominator| at or below which thresholds() reports an s-value absent
DENOMINATOR_TOL = 1e-12
# factor by which portrait_batch() widens each band above before it trusts
# its own decision: its norm and residual are not bit-equal to the scalar
# ones, so rows near a band edge are left to the scalar path
BATCH_MARGIN = 4.0


class Branch(enum.Enum):
    PREY_AXIS = "prey_axis"
    ALLEE_LINE = "allee_line"
    DIAGONAL = "diagonal"


class StabilityClass(enum.Enum):
    STABLE_NODE = "StableNode"
    UNSTABLE_NODE = "UnstableNode"
    STABLE_FOCUS = "StableFocus"
    UNSTABLE_FOCUS = "UnstableFocus"
    SADDLE = "Saddle"
    SADDLE_NODE = "SaddleNode"
    WEAK_CENTER = "WeakCenter"
    CUSP = "Cusp"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class BranchDiscriminants:
    """Quadratic data of the three equilibrium branches.

    A is the root sum of the Allee-line quadratic, C the root sum of the
    diagonal quadratic; B and D are the square roots of the corresponding
    discriminants and are None whenever the discriminant is negative.
    """

    A: float
    B: float | None
    C: float
    D: float | None
    delta1: float
    delta2: float


@dataclass(frozen=True)
class Equilibrium:
    """A located, classified equilibrium.

    Coincident roots coming from different branches are merged; all
    contributing branches and labels are kept (e.g. the point (m, m) lies on
    both the Allee line and the diagonal when h = m - (q+1)*m^2).
    """

    state: State
    branches: tuple[Branch, ...]
    labels: tuple[str, ...]
    trace: float
    det: float
    eigenvalues: tuple[complex, complex]
    classification: StabilityClass | None = None

    @property
    def label(self) -> str:
        return "+".join(self.labels)

    @property
    def x(self) -> float:
        return self.state.x

    @property
    def y(self) -> float:
        return self.state.y


@dataclass(frozen=True)
class Thresholds:
    """Critical parameter values of the fold/Hopf/cusp surfaces.

    h1 : harvest at which an Allee-line equilibrium collides with (m, m)
    h2 : harvest folding the prey-axis pair (always 1/4)
    h3 : harvest folding the diagonal pair (1/(4*(q+1)))
    s1 : growth rate nullifying the trace at the diagonal fold point
    s2 : growth rate nullifying the trace at the upper diagonal equilibrium
    s3 : growth rate nullifying the trace at the lower diagonal equilibrium

    s-values are None when undefined; `absent` records the reason per field.
    """

    h1: float
    h2: float
    h3: float
    s1: float | None
    s2: float | None
    s3: float | None
    absent: dict[str, str] = field(default_factory=dict)


def _rel_disc(disc: float, root_sum: float, root_prod: float) -> float:
    return disc / max(1.0, root_sum * root_sum, root_prod * root_prod)


def _stable_roots(root_sum: float, root_prod: float, disc: float) -> tuple[float, float]:
    # root_sum > 0 and root_prod > 0 on every branch, so no cancellation
    big = 0.5 * (root_sum + math.sqrt(disc))
    return big, root_prod / big


def _eigenvalues(trace: float, det: float) -> tuple[complex, complex]:
    disc = trace * trace - 4.0 * det
    r = cmath.sqrt(complex(disc, 0.0))
    return (0.5 * (trace + r), 0.5 * (trace - r))


def _make_equilibrium(p: ModelParams, x: float, y: float, branch: Branch, label: str) -> Equilibrium:
    d = derivatives(p, State(x, y))
    tr = d.f1_x + d.f2_y
    det = d.f1_x * d.f2_y - d.f1_y * d.f2_x
    return Equilibrium(
        state=State(x, y),
        branches=(branch,),
        labels=(label,),
        trace=tr,
        det=det,
        eigenvalues=_eigenvalues(tr, det),
    )


def discriminants(p: ModelParams) -> BranchDiscriminants:
    """Root sums and discriminants of the Allee-line and diagonal quadratics."""
    A = 1.0 - p.q * p.m
    delta1 = A * A - 4.0 * p.h
    C = 1.0 / (p.q + 1.0)
    delta2 = C * C - 4.0 * p.h / (p.q + 1.0)
    return BranchDiscriminants(
        A=A,
        B=math.sqrt(delta1) if delta1 >= 0 else None,
        C=C,
        D=math.sqrt(delta2) if delta2 >= 0 else None,
        delta1=delta1,
        delta2=delta2,
    )


def solve_branch_prey_axis(p: ModelParams) -> list[Equilibrium]:
    """Solve x^2 - x + h = 0 on y = 0.

    Returns [] above the fold (h > 1/4), the double root E1 = (1/2, 0) on
    the fold, and the pair E2 (larger x), E3 (smaller x) below it.
    """
    disc = 1.0 - 4.0 * p.h
    rel = _rel_disc(disc, 1.0, p.h)
    if abs(rel) <= DISCRIMINANT_RTOL:
        return [_make_equilibrium(p, 0.5, 0.0, Branch.PREY_AXIS, "E1")]
    if rel < 0:
        return []
    big, small = _stable_roots(1.0, p.h, disc)
    return [
        _make_equilibrium(p, big, 0.0, Branch.PREY_AXIS, "E2"),
        _make_equilibrium(p, small, 0.0, Branch.PREY_AXIS, "E3"),
    ]


def solve_branch_allee_line(p: ModelParams) -> list[Equilibrium]:
    """Solve x^2 - (1 - q*m)*x + h = 0 on y = m.

    Empty when the root sum A = 1 - q*m is non-positive or the discriminant
    is negative; E4 at the fold; otherwise E5 (larger x) and E6 (smaller x).
    """
    A = 1.0 - p.q * p.m
    if A <= 0:
        return []
    disc = A * A - 4.0 * p.h
    rel = _rel_disc(disc, A, p.h)
    if abs(rel) <= DISCRIMINANT_RTOL:
        return [_make_equilibrium(p, 0.5 * A, p.m, Branch.ALLEE_LINE, "E4")]
    if rel < 0:
        return []
    big, small = _stable_roots(A, p.h, disc)
    return [
        _make_equilibrium(p, big, p.m, Branch.ALLEE_LINE, "E5"),
        _make_equilibrium(p, small, p.m, Branch.ALLEE_LINE, "E6"),
    ]


def solve_branch_diagonal(p: ModelParams) -> list[Equilibrium]:
    """Solve x^2 - x/(q+1) + h/(q+1) = 0 on y = x.

    Empty below the fold; E7 = (2h, 2h) at the fold; otherwise E8 (larger x)
    and E9 (smaller x), both with y = x.
    """
    C = 1.0 / (p.q + 1.0)
    prod = p.h * C
    disc = C * C - 4.0 * prod
    rel = _rel_disc(disc, C, prod)
    if abs(rel) <= DISCRIMINANT_RTOL:
        x7 = 0.5 * C  # equals 2h exactly when the discriminant vanishes
        return [_make_equilibrium(p, x7, x7, Branch.DIAGONAL, "E7")]
    if rel < 0:
        return []
    big, small = _stable_roots(C, prod, disc)
    return [
        _make_equilibrium(p, big, big, Branch.DIAGONAL, "E8"),
        _make_equilibrium(p, small, small, Branch.DIAGONAL, "E9"),
    ]


def classify(p: ModelParams, e: Equilibrium) -> StabilityClass:
    """Classify an equilibrium from its linearisation, with degeneracies
    delegated to the quadratic normal-form checks.

    The trace/determinant case analysis is cross-checked against eigenvalues
    computed independently from the Jacobian matrix; a disagreement raises
    InconsistentInput rather than returning a silently wrong class.
    """
    from . import normal_forms  # local import: normal_forms depends on this module

    d = derivatives(p, e.state)
    res = math.hypot(d.f1, d.f2)
    if res > RESIDUAL_TOL:
        raise InconsistentInput(
            f"point ({e.x}, {e.y}) is not an equilibrium: residual {res:.3e}"
        )

    J = d.jacobian
    norm = float(np.linalg.norm(J))
    # an inf or NaN entry of J makes the norm non-finite as well
    if not math.isfinite(norm * norm):
        raise NotRepresentable(
            f"equilibrium {e.label} at ({e.x}, {e.y}): its linearisation "
            f"{J.tolist()} is not representable in double precision"
        )
    tr = d.f1_x + d.f2_y
    det = d.f1_x * d.f2_y - d.f1_y * d.f2_x
    det_zero = abs(det) <= DEGENERACY_RTOL * max(norm * norm, NORM_FLOOR)
    tr_zero = abs(tr) <= DEGENERACY_RTOL * max(norm, NORM_FLOOR)

    if det_zero and tr_zero:
        check = normal_forms.cusp_check(p, e)
        result = (
            StabilityClass.CUSP
            if check.verdict is normal_forms.CuspVerdict.CODIM2_CUSP
            else StabilityClass.DEGENERATE
        )
    elif det_zero:
        check = normal_forms.saddle_node_check(p, e)
        result = (
            StabilityClass.SADDLE_NODE
            if check.verdict is normal_forms.SaddleNodeVerdict.SADDLE_NODE
            else StabilityClass.DEGENERATE
        )
    elif det < 0:
        result = StabilityClass.SADDLE
    elif tr_zero:
        result = StabilityClass.WEAK_CENTER
    else:
        disc = tr * tr - 4.0 * det
        if abs(disc) <= DEGENERACY_RTOL * max(norm * norm, NORM_FLOOR) or disc > 0:
            result = StabilityClass.STABLE_NODE if tr < 0 else StabilityClass.UNSTABLE_NODE
        else:
            result = StabilityClass.STABLE_FOCUS if tr < 0 else StabilityClass.UNSTABLE_FOCUS

    _check_against_eigenvalues(J, norm, result)
    return result


def _check_against_eigenvalues(J: np.ndarray, norm: float, cls: StabilityClass) -> None:
    # independent route: QR eigenvalues of the assembled matrix
    lam = np.linalg.eigvals(J)
    re = np.sort(lam.real)
    tol = EIGEN_SIGN_RTOL * max(norm, NORM_FLOOR)
    ok = True
    if cls is StabilityClass.SADDLE:
        ok = re[0] < tol and re[1] > -tol and lam.imag[0] == 0
    elif cls in (StabilityClass.STABLE_NODE, StabilityClass.STABLE_FOCUS):
        ok = re[1] < tol
    elif cls in (StabilityClass.UNSTABLE_NODE, StabilityClass.UNSTABLE_FOCUS):
        ok = re[0] > -tol
    elif cls is StabilityClass.WEAK_CENTER:
        ok = abs(re[0]) <= tol and abs(re[1]) <= tol and abs(lam[0].imag) > tol
    elif cls in (StabilityClass.SADDLE_NODE, StabilityClass.DEGENERATE, StabilityClass.CUSP):
        ok = min(abs(lam)) <= EIGEN_ZERO_RTOL * max(norm, NORM_FLOOR)
    if not ok:
        raise InconsistentInput(
            f"classification {cls.value} contradicts eigenvalues {lam}"
        )


def thresholds(p: ModelParams, x8: float | None = None, x9: float | None = None) -> Thresholds:
    """Evaluate the critical surfaces at the given parameter point.

    s-thresholds with a vanishing denominator are reported absent rather
    than raising; the same applies to s2/s3 when the diagonal pair does not
    exist and no explicit root location is supplied.
    """
    absent: dict[str, str] = {}
    h1 = p.m - (p.q + 1.0) * p.m * p.m
    h3 = 1.0 / (4.0 * (p.q + 1.0))

    if abs(p.m - 2.0 * p.h) <= DENOMINATOR_TOL:
        s1 = None
        absent["s1"] = "denominator m - 2h vanishes"
    else:
        s1 = (4.0 * p.h - 1.0) / (2.0 * (p.m - 2.0 * p.h))

    if x8 is None or x9 is None:
        d = discriminants(p)
        if d.D is not None and _rel_disc(d.delta2, d.C, p.h * d.C) > DISCRIMINANT_RTOL:
            big, small = _stable_roots(d.C, p.h * d.C, d.delta2)
            x8 = big if x8 is None else x8
            x9 = small if x9 is None else x9

    def s_crit(x: float | None, name: str) -> float | None:
        if x is None:
            absent[name] = "diagonal equilibrium does not exist"
            return None
        if abs(p.m - x) <= DENOMINATOR_TOL:
            absent[name] = "denominator m - x vanishes"
            return None
        return (2.0 * x + p.q * x - 1.0) / (p.m - x)

    return Thresholds(
        h1=h1,
        h2=0.25,
        h3=h3,
        s1=s1,
        s2=s_crit(x8, "s2"),
        s3=s_crit(x9, "s3"),
        absent=absent,
    )


def full_portrait(p: ModelParams) -> list[Equilibrium]:
    """All equilibria of the system, merged across branches and classified.

    Roots from different branches closer than MERGE_DISTANCE are one
    equilibrium (all branch tags and labels retained).  Returned in label
    order E1..E9.
    """
    found: list[Equilibrium] = []
    for solver in (solve_branch_prey_axis, solve_branch_allee_line, solve_branch_diagonal):
        for eq in solver(p):
            for i, other in enumerate(found):
                if math.hypot(eq.x - other.x, eq.y - other.y) <= MERGE_DISTANCE:
                    found[i] = replace(
                        other,
                        branches=other.branches + eq.branches,
                        labels=other.labels + eq.labels,
                    )
                    break
            else:
                found.append(eq)
    return [replace(eq, classification=classify(p, eq)) for eq in found]


# ---------------------------------------------------------------------------
# the generic portrait of many parameter points at once
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PortraitBatch:
    """Branch counts, classes, discriminants and thresholds of N parameter
    points, computed as arrays.

    Only rows where `generic` is True are decided.  In those rows every
    equilibrium is a simple root on exactly one branch with a generic class
    (Saddle, Stable/Unstable Node or Focus), and every value equals, bit for
    bit, what full_portrait, discriminants and thresholds give for the point.
    All other rows are left to the scalar path: invalid or non-finite
    parameters, points in or near a fold, merge or classification band, and
    points where the eigenvalue cross-check disagrees.
    """

    generic: np.ndarray  # bool (N,)
    counts: dict[Branch, np.ndarray]  # roots per branch: 0 or 2
    classes: dict[str, np.ndarray]  # E2, E3, E5, E6, E8, E9 -> class value, "" if absent
    delta1: np.ndarray
    delta2: np.ndarray
    thresholds: dict[str, np.ndarray]  # h1, h2, h3, s1, s2, s3; NaN where absent


def _rel_disc_batch(disc, root_sum, root_prod):
    return disc / np.maximum(np.maximum(1.0, root_sum * root_sum), root_prod * root_prod)


def portrait_batch(q, s, h, m) -> PortraitBatch:
    """Evaluate the generic portrait of the points (q[i], s[i], h[i], m[i]).

    Mirrors the scalar solvers, derivatives() and thresholds() operation by
    operation, so that + - * / and sqrt give the same floats; the norm and
    the residual are not bit-equal to the scalar ones, so each band is
    widened by BATCH_MARGIN before a row is trusted.
    """
    q, s, h, m = (np.asarray(v, dtype=float)[:, None] for v in (q, s, h, m))
    # absent roots and invalid rows compute NaN and inf; they are masked below
    with np.errstate(all="ignore"):
        undecided = ~(np.isfinite(q) & np.isfinite(s) & np.isfinite(h) & np.isfinite(m)
                      & (q > 0) & (s > 0) & (h > 0) & (m > 0) & (m < 1))[:, 0]
        A = 1.0 - q * m
        C = 1.0 / (q + 1.0)
        xs, ys, present, counts = [], [], [], {}
        for branch, root_sum, root_prod, admissible, line in (
            (Branch.PREY_AXIS, 1.0, h, True, 0.0),
            (Branch.ALLEE_LINE, A, h, A > 0, m),
            (Branch.DIAGONAL, C, h * C, True, None),
        ):
            disc = root_sum * root_sum - 4.0 * root_prod
            rel = _rel_disc_batch(disc, root_sum, root_prod)
            undecided |= (admissible & (np.abs(rel) <= BATCH_MARGIN * DISCRIMINANT_RTOL))[:, 0]
            exists = admissible & (rel > DISCRIMINANT_RTOL)
            counts[branch] = np.where(exists, 2, 0)[:, 0]
            big = 0.5 * (root_sum + np.sqrt(disc))
            for x in (big, root_prod / big):
                x = np.where(exists, x, np.nan)
                xs.append(x)
                ys.append(x if line is None else np.where(exists, line, np.nan))
                present.append(exists)
        x, y, present = np.hstack(xs), np.hstack(ys), np.hstack(present)

        pairs = np.triu_indices(x.shape[1], 1)
        gap = np.hypot(x[:, pairs[0]] - x[:, pairs[1]], y[:, pairs[0]] - y[:, pairs[1]])
        undecided |= (gap <= BATCH_MARGIN * MERGE_DISTANCE).any(axis=1)

        # the field and Jacobian in the operation order of model.derivatives
        f1, f2 = _field(q, s, h, m, x, y)
        g = y * y * (y - m)
        g_y = 3.0 * y * y - 2.0 * m * y
        ix = 1.0 / x
        ix2 = ix * ix
        f1_x = 1.0 - 2.0 * x - q * y
        f1_y = -q * x
        f2_x = s * g * ix2
        f2_y = s * (2.0 * y - m - g_y * ix)
        tr = f1_x + f2_y
        det = f1_x * f2_y - f1_y * f2_x
        disc = tr * tr - 4.0 * det
        norm = np.sqrt(f1_x * f1_x + f1_y * f1_y + f2_x * f2_x + f2_y * f2_y)
        saddle, stable = det < 0, tr < 0
        band = BATCH_MARGIN * DEGENERACY_RTOL
        residual = np.hypot(f1, f2)
        near = ~(np.isfinite(residual + norm + disc) & (x > 0))
        near |= residual > RESIDUAL_TOL / BATCH_MARGIN
        near |= np.abs(det) <= band * np.maximum(norm * norm, NORM_FLOOR)
        # classify() reads a saddle's trace nowhere, so only other points need it clear
        near |= ~saddle & (np.abs(tr) <= band * np.maximum(norm, NORM_FLOOR))
        near |= np.abs(disc) <= band * np.maximum(norm * norm, NORM_FLOOR)
        undecided |= (present & near).any(axis=1)

        # the independent eigenvalue route, one stacked call, tightened band
        check = present & ~undecided[:, None]
        J = np.stack([f1_x[check], f1_y[check], f2_x[check], f2_y[check]], axis=1)
        lam = np.linalg.eigvals(J.reshape(-1, 2, 2))
        re = np.sort(lam.real, axis=1)
        tol = EIGEN_SIGN_RTOL / BATCH_MARGIN * np.maximum(norm[check], NORM_FLOOR)
        agrees = np.where(
            saddle[check],
            (re[:, 0] < tol) & (re[:, 1] > -tol) & (lam.imag[:, 0] == 0),
            np.where(stable[check], re[:, 1] < tol, re[:, 0] > -tol),
        )
        disagrees = np.zeros_like(present)
        disagrees[check] = ~agrees
        undecided |= disagrees.any(axis=1)

        # object arrays, so every row shares one str per class
        kind = {c.name: np.array(c.value, dtype=object) for c in StabilityClass}
        node = np.where(stable, kind["STABLE_NODE"], kind["UNSTABLE_NODE"])
        focus = np.where(stable, kind["STABLE_FOCUS"], kind["UNSTABLE_FOCUS"])
        cls = np.where(present, np.where(saddle, kind["SADDLE"], np.where(disc > 0, node, focus)),
                       np.array("", dtype=object))

        # thresholds() and discriminants(), including their own diagonal solve
        delta1 = A * A - 4.0 * h
        delta2 = C * C - 4.0 * h / (q + 1.0)
        diagonal = _rel_disc_batch(delta2, C, h * C) > DISCRIMINANT_RTOL
        x8 = 0.5 * (C + np.sqrt(delta2))
        t = {"h1": m - (q + 1.0) * m * m, "h2": np.full_like(q, 0.25),
             "h3": 1.0 / (4.0 * (q + 1.0))}
        s_values = {"s1": (np.abs(m - 2.0 * h) <= DENOMINATOR_TOL,
                           (4.0 * h - 1.0) / (2.0 * (m - 2.0 * h)))}
        for name, xd in (("s2", x8), ("s3", h * C / x8)):
            s_values[name] = (~diagonal | (np.abs(m - xd) <= DENOMINATOR_TOL),
                              (2.0 * xd + q * xd - 1.0) / (m - xd))
        finite = np.isfinite(delta1 + delta2 + t["h1"] + t["h3"])
        for name, (absent, value) in s_values.items():
            finite &= absent | np.isfinite(value)
            t[name] = np.where(absent, np.nan, value)
        undecided |= ~finite[:, 0]

    labels = ("E2", "E3", "E5", "E6", "E8", "E9")
    return PortraitBatch(
        generic=~undecided,
        counts=counts,
        classes={lab: cls[:, k] for k, lab in enumerate(labels)},
        delta1=delta1[:, 0],
        delta2=delta2[:, 0],
        thresholds={name: value[:, 0] for name, value in t.items()},
    )
