"""Closed-form equilibria of the dimensionless system and their stability.

Equilibria fall on three lines in the phase plane, because the predator
equation factors as s*y*(1 - y/x)*(y - m):

    prey axis   y = 0   with x solving  x^2 - x + h = 0
    Allee line  y = m   with x solving  x^2 - (1 - q*m)*x + h = 0
    diagonal    y = x   with x solving  x^2 - x/(q+1) + h/(q+1) = 0

Each branch is a quadratic with positive sum and product of roots, so one
solver, `_roots`, computes the roots of all three with the
cancellation-free formula (large root first, small root from the product)
and recognises double roots through a relative tolerance band on the
discriminant.

`linearize` decides the degeneracy bands of a Jacobian once, and
`_null_projection` and `_cusp_coefficients` compute the quadratic
coefficients at a simple and at a double zero eigenvalue once; `classify`
reads them directly, and the normal-form checks and Sotomayor's test in
`normal_forms` wrap the same kernels.  `full_portrait` evaluates
`derivatives` once per equilibrium.  Every tolerance of the closed forms
is named in the table below.

`portrait_batch` computes the same quantities for many parameter points at
once as numpy arrays, and leaves the points it cannot decide exactly as the
scalar path does (folds, merges, tolerance-band edges) to that path.  The
branch roots, the degeneracy bands and the eigenvalue sign rules are each
one arithmetic-only kernel that both paths call, with `xp=numpy` for arrays
and `xp=FLOATS` for floats; only `portrait_batch` imports numpy.
"""
from __future__ import annotations

import cmath
import enum
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import InconsistentInput, NotRepresentable
from .model import ModelParams, State, TaylorCoefficients, _field, _jacobian, derivatives

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

if TYPE_CHECKING:
    import numpy as np

# relative tolerance deciding the double-root (fold) cases
DISCRIMINANT_RTOL = 1e-10
# Euclidean distance under which equilibria from different branches merge
MERGE_DISTANCE = 1e-10
# residual above which a point is rejected as "not an equilibrium"
RESIDUAL_TOL = 1e-9
# det, trace and node/focus discriminant bands of linearize(), relative to
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
# |c20|, |g20|, |g11| at or below which a normal-form coefficient is zero
COEFF_TOL = 1e-9
# |w.f_mu| and |w.D^2f(v, v)| at or below which Sotomayor's test fails
TRANSVERSALITY_TOL = 1e-12
# weak-centre trace bands, relative to max(1, |a|, |d|), of
# first_lyapunov_coefficient and of the generic lyapunov_number
HOPF_TRACE_RTOL = 1e-10
WEAK_CENTER_RTOL = 1e-8
# |sum(phi)| / sum(|phi|) at or below which the Hopf direction is undetermined
PHI_RTOL = 1e-12
# |f20| / max(1, |f11|) at or below which the BT chain stops
F20_RTOL = 1e-12
# |det| of the BT unfolding Jacobian above which the point is codimension 2
BT_JAC_DET_TOL = 1e-6
# |m - 2*h3| / (2*h3), |h - h3| / h3 and |s - s1| / |s1| that count as on the cusp base
CUSP_BASE_TOL = 1e-9
# |value - surface| / max(1, |surface|) that flags a critical surface as hit
SURFACE_RTOL = 1e-9
# factor by which portrait_batch() widens each band above before it trusts
# its own decision: its linearisation equals linearize()'s bit for bit, its
# residual (np.hypot against math.hypot) does not, so rows near a band edge
# are left to the scalar path
BATCH_MARGIN = 4.0


class FLOATS:
    """numpy's `maximum`, `sqrt` and `where` for floats: the `xp` argument of
    a helper that serves floats and arrays (numpy itself for arrays)."""

    maximum = max
    sqrt = math.sqrt

    @staticmethod
    def where(condition, x, y):
        return x if condition else y


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


class BranchDiscriminants(NamedTuple):
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


class Equilibrium(NamedTuple):
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


class Thresholds(NamedTuple):
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
    absent: dict[str, str]


class Linearization(NamedTuple):
    """Trace, determinant, eigenvalue discriminant and Frobenius norm of a
    Jacobian (floats or arrays), and whether the first three are in their bands."""

    tr: float
    det: float
    disc: float  # tr^2 - 4*det
    norm: float
    det_zero: bool
    tr_zero: bool
    disc_zero: bool


def _linearization(a, b, c, d, margin=1.0, xp=FLOATS) -> Linearization:
    # the Jacobian [[a, b], [c, d]]; portrait_batch widens the bands by margin
    norm = xp.sqrt(a * a + b * b + c * c + d * d)
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    rtol = margin * DEGENERACY_RTOL
    band = rtol * xp.maximum(norm * norm, NORM_FLOOR)
    return Linearization(tr, det, disc, norm, det_zero=abs(det) <= band,
                         tr_zero=abs(tr) <= rtol * xp.maximum(norm, NORM_FLOOR),
                         disc_zero=abs(disc) <= band)


def linearize(t: TaylorCoefficients) -> Linearization:
    """The linearisation that classification and every degeneracy check read.

    Raises NotRepresentable when the squared norm is not finite: an entry
    overflows or is NaN, and no band means anything then.
    """
    lin = _linearization(t.a10, t.a01, t.b10, t.b01)
    if not math.isfinite(lin.norm * lin.norm):
        raise NotRepresentable(f"linearisation [[{t.a10}, {t.a01}], [{t.b10}, {t.b01}]] "
                               "is not representable in double precision")
    return lin


def _linearize_at(t: TaylorCoefficients, label: str, u: State) -> Linearization:
    try:
        return linearize(t)
    except NotRepresentable as err:
        raise NotRepresentable(f"equilibrium {label} at ({u.x}, {u.y}): its {err}") from None


def _make_equilibrium(u: State, branches: tuple[Branch, ...], labels: tuple[str, ...],
                      lin: Linearization, cls: StabilityClass | None = None) -> Equilibrium:
    r = cmath.sqrt(complex(lin.disc, 0.0))
    eigenvalues = (0.5 * (lin.tr + r), 0.5 * (lin.tr - r))
    return Equilibrium(u, branches, labels, lin.tr, lin.det, eigenvalues, cls)


# closed forms of the branches and critical surfaces: arithmetic only, so
# the scalar path and portrait_batch() evaluate the same operations

def _branch_quadratics(q, h, m):
    """(root sum, root product, discriminant) of the prey-axis, Allee-line
    and diagonal quadratics, in Branch order."""
    A = 1.0 - q * m
    C = 1.0 / (q + 1.0)
    return ((1.0, h, 1.0 - 4.0 * h),
            (A, h, A * A - 4.0 * h),
            (C, h * C, C * C - 4.0 * h / (q + 1.0)))


def _h1(q, m):
    return m - (q + 1.0) * m * m


def _h3(q):
    return 1.0 / (4.0 * (q + 1.0))


def _s1(h, m):
    return (4.0 * h - 1.0) / (2.0 * (m - 2.0 * h))


def _s_trace_zero(q, m, x):
    # growth rate nullifying the trace at (x, x): s2, s3 and the Hopf point
    return (2.0 * x + q * x - 1.0) / (m - x)


def _relative_disc(root_sum, root_prod, disc, xp=FLOATS):
    # disc = root_sum^2 - 4*root_prod has the size of root_sum^2 or of root_prod
    return disc / xp.maximum(xp.maximum(1.0, root_sum * root_sum), root_prod)


def _roots(root_sum: float, root_prod: float, disc: float) -> tuple[float, ...]:
    """Roots of x^2 - root_sum*x + root_prod = 0 with discriminant disc: none,
    the fold's double root, or the pair, larger root first."""
    rel = _relative_disc(root_sum, root_prod, disc)
    if abs(rel) <= DISCRIMINANT_RTOL:
        return (0.5 * root_sum,)
    if rel < 0:
        return ()
    # root_sum > 0 and root_prod > 0 on every branch, so no cancellation
    big = 0.5 * (root_sum + math.sqrt(disc))
    return big, root_prod / big


def _diagonal_roots(p: ModelParams) -> tuple[float, ...]:
    """(), (x7,) on the diagonal fold, or the pair (x8, x9)."""
    return _roots(*_branch_quadratics(p.q, p.h, p.m)[2])


# labels of the fold root and of the pair on each branch
_BRANCH_LABELS = (("E1", "E2", "E3"), ("E4", "E5", "E6"), ("E7", "E8", "E9"))


def _branch_points(p: ModelParams) -> list[tuple[State, Branch, str]]:
    """Every root of the branch quadratics as (state, branch, label), E1 first."""
    points = []
    lines = (0.0, p.m, None)  # y on each branch; None: y = x
    for branch, quadratic, labels, line in zip(
            Branch, _branch_quadratics(p.q, p.h, p.m), _BRANCH_LABELS, lines):
        xs = _roots(*quadratic) if quadratic[0] > 0 else ()
        for x, label in zip(xs, labels if len(xs) == 1 else labels[1:]):
            points.append((State(x, x if line is None else line), branch, label))
    return points


def _solve_branch(p: ModelParams, branch: Branch) -> list[Equilibrium]:
    return [
        _make_equilibrium(u, (b,), (label,), _linearize_at(derivatives(p, u), label, u))
        for u, b, label in _branch_points(p) if b is branch
    ]


def _representable(p: ModelParams, values: dict[str, float | None]) -> None:
    """Raise NotRepresentable, naming p's h, q and m, at the first of
    `values` that overflowed or is NaN (4h overflows from h of about 4.5e307)."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise NotRepresentable(f"{name} = {value} is not representable in double "
                                   f"precision at h = {p.h} with q = {p.q} and m = {p.m}")


def discriminants(p: ModelParams) -> BranchDiscriminants:
    """Root sums and discriminants of the Allee-line and diagonal quadratics.

    Raises NotRepresentable when a discriminant is not finite.
    """
    _, (A, _, delta1), (C, _, delta2) = _branch_quadratics(p.q, p.h, p.m)
    _representable(p, {"delta1": delta1, "delta2": delta2})
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
    return _solve_branch(p, Branch.PREY_AXIS)


def solve_branch_allee_line(p: ModelParams) -> list[Equilibrium]:
    """Solve x^2 - (1 - q*m)*x + h = 0 on y = m.

    Empty when the root sum A = 1 - q*m is non-positive or the discriminant
    is negative; E4 at the fold; otherwise E5 (larger x) and E6 (smaller x).
    """
    return _solve_branch(p, Branch.ALLEE_LINE)


def solve_branch_diagonal(p: ModelParams) -> list[Equilibrium]:
    """Solve x^2 - x/(q+1) + h/(q+1) = 0 on y = x.

    Empty below the fold; E7 = (2h, 2h) at the fold; otherwise E8 (larger x)
    and E9 (smaller x), both with y = x.
    """
    return _solve_branch(p, Branch.DIAGONAL)


def classify(p: ModelParams, e: Equilibrium) -> StabilityClass:
    """Classify an equilibrium from its linearisation, with degeneracies
    decided by the quadratic coefficient of the saddle-node or cusp kernel.

    The trace/determinant case analysis is cross-checked against eigenvalues
    computed independently from the Jacobian matrix; a disagreement raises
    InconsistentInput rather than returning a silently wrong class.
    """
    return _classify(p, e.state, e.label, derivatives(p, e.state))[1]


def _bilinear(t: TaylorCoefficients, u: tuple[float, float],
              v: tuple[float, float]) -> tuple[float, float]:
    # D^2 f (u, v): second-derivative bilinear form applied to two directions
    # from the Taylor coefficients: f_xx = 2*a20, f_xy = a11, f_yy = 2*a02
    s1 = (2.0 * t.a20 * u[0] * v[0] + t.a11 * (u[0] * v[1] + u[1] * v[0])
          + 2.0 * t.a02 * u[1] * v[1])
    s2 = (2.0 * t.b20 * u[0] * v[0] + t.b11 * (u[0] * v[1] + u[1] * v[0])
          + 2.0 * t.b02 * u[1] * v[1])
    return s1, s2


def _null_projection(t: TaylorCoefficients) -> tuple[tuple[float, float],
                                                     tuple[float, float], float]:
    """(v, w, w.D^2f(v, v)) at a zero eigenvalue: the saddle-node kernel.

    v is the right null vector with first component 1 (df1/dy = -q*x never
    vanishes), and w = (-2*J22, 2*J12) the left null vector, which dots with
    v to exactly -2*trace.  The quadratic coefficient along the centre
    direction is c20 = -w.D^2f(v, v)/(4*trace).
    """
    v = (1.0, -t.a10 / t.a01)
    w = (-2.0 * t.b01, 2.0 * t.a01)
    quad1, quad2 = _bilinear(t, v, v)
    return v, w, w[0] * quad1 + w[1] * quad2


def _cusp_coefficients(t: TaylorCoefficients) -> tuple[float, float]:
    """(g20, g11) at a double zero eigenvalue: the cusp kernel.

    In the basis (q0, q1) with J q0 = 0, J q1 = q0 the system reads
    x' = y + e20 x^2 + ..., y' = f20 x^2 + f11 x y + ..., and reduces near
    the origin to y' = g20 x^2 + g11 x y with g20 = f20, g11 = f11 + 2 e20.
    """
    j12 = t.a01  # nonzero, so J != 0 and the kernel basis below is valid
    q0 = (1.0, -t.a10 / j12)
    q1 = (0.0, 1.0 / j12)
    # inverse of T = [q0 | q1]: rows (1, 0) and (-j12*q0[1], j12)
    h00_1, h00_2 = _bilinear(t, q0, q0)
    h01_1, h01_2 = _bilinear(t, q0, q1)
    e20 = 0.5 * h00_1
    f20 = 0.5 * (-j12 * q0[1] * h00_1 + j12 * h00_2)
    f11 = -j12 * q0[1] * h01_1 + j12 * h01_2
    return f20, f11 + 2.0 * e20


def _classify(p: ModelParams, u: State, label: str,
              t: TaylorCoefficients) -> tuple[Linearization, StabilityClass]:
    res = math.hypot(t.a00, t.b00)
    if res > RESIDUAL_TOL:
        raise InconsistentInput(
            f"point ({u.x}, {u.y}) is not an equilibrium: residual {res:.3e}"
        )
    lin = _linearize_at(t, label, u)
    if lin.det_zero and lin.tr_zero:
        g20, g11 = _cusp_coefficients(t)
        codim2 = abs(g20) > COEFF_TOL and abs(g11) > COEFF_TOL
        result = StabilityClass.CUSP if codim2 else StabilityClass.DEGENERATE
    elif lin.det_zero:
        c20 = -_null_projection(t)[2] / (4.0 * lin.tr)
        result = StabilityClass.SADDLE_NODE if abs(c20) > COEFF_TOL else StabilityClass.DEGENERATE
    elif lin.det < 0:
        result = StabilityClass.SADDLE
    elif lin.tr_zero:
        result = StabilityClass.WEAK_CENTER
    elif lin.disc_zero or lin.disc > 0:
        result = StabilityClass.STABLE_NODE if lin.tr < 0 else StabilityClass.UNSTABLE_NODE
    else:
        result = StabilityClass.STABLE_FOCUS if lin.tr < 0 else StabilityClass.UNSTABLE_FOCUS

    _check_against_eigenvalues(t.a10, t.a01, t.b10, t.b01, lin.norm, result)
    return lin, result


def _eigen_parts(a, b, c, d, norm, xp=FLOATS):
    """(lo, hi, im): the real parts, lower first, and the imaginary modulus of
    the eigenvalues of [[a, b], [c, d]], from mid +- sqrt(rad) on J/norm, so the
    squares stay finite: the cross-check's route, which reads neither the
    bands nor tr^2 - 4 det."""
    k = xp.where(norm > 0, norm, 1.0)
    a, b, c, d = a / k, b / k, c / k, d / k
    half = 0.5 * (a - d)
    mid, rad = 0.5 * (a + d), half * half + b * c
    re = xp.sqrt(xp.maximum(0.0, rad))  # a complex pair has real part mid
    return k * (mid - re), k * (mid + re), k * xp.sqrt(xp.maximum(0.0, -rad))


def _signs_agree(lo, hi, im, tol, saddle, stable, xp=FLOATS):
    """Whether eigenvalues with real parts lo <= hi and imaginary modulus im
    confirm a generic class: a saddle has real eigenvalues of opposite sign,
    a stable point none with positive real part, an unstable point none with
    negative real part, each up to tol."""
    return xp.where(saddle, (lo < tol) & (hi > -tol) & (im == 0),
                    xp.where(stable, hi < tol, lo > -tol))


def _check_against_eigenvalues(a: float, b: float, c: float, d: float, norm: float,
                               cls: StabilityClass) -> None:
    lo, hi, im = _eigen_parts(a, b, c, d, norm)
    tol = EIGEN_SIGN_RTOL * max(norm, NORM_FLOOR)
    if cls is StabilityClass.WEAK_CENTER:
        ok = abs(lo) <= tol and abs(hi) <= tol and im > tol
    elif cls in (StabilityClass.SADDLE_NODE, StabilityClass.DEGENERATE, StabilityClass.CUSP):
        ok = min(math.hypot(lo, im), math.hypot(hi, im)) <= EIGEN_ZERO_RTOL * max(norm, NORM_FLOOR)
    else:
        ok = _signs_agree(lo, hi, im, tol, cls is StabilityClass.SADDLE,
                          cls in (StabilityClass.STABLE_NODE, StabilityClass.STABLE_FOCUS))
    if not ok:
        # 0.0 - im: a real pair prints +0j
        raise InconsistentInput(f"classification {cls.value} contradicts eigenvalues "
                                f"{complex(hi, im)}, {complex(lo, 0.0 - im)}")


def thresholds(p: ModelParams) -> Thresholds:
    """Evaluate the critical surfaces at the given parameter point.

    s-thresholds with a vanishing denominator, and s2/s3 when the diagonal
    pair does not exist, are reported absent rather than raising; a value
    that is not finite raises NotRepresentable.
    """
    absent: dict[str, str] = {}
    if abs(p.m - 2.0 * p.h) <= DENOMINATOR_TOL:
        s1 = None
        absent["s1"] = "denominator m - 2h vanishes"
    else:
        s1 = _s1(p.h, p.m)
    pair = _diagonal_roots(p)

    def s_crit(k: int, name: str) -> float | None:
        if len(pair) != 2:
            absent[name] = "diagonal equilibrium does not exist"
            return None
        if abs(p.m - pair[k]) <= DENOMINATOR_TOL:
            absent[name] = "denominator m - x vanishes"
            return None
        return _s_trace_zero(p.q, p.m, pair[k])

    values = {"h1": _h1(p.q, p.m), "h2": 0.25, "h3": _h3(p.q), "s1": s1,
              "s2": s_crit(0, "s2"), "s3": s_crit(1, "s3")}
    _representable(p, values)
    return Thresholds(**values, absent=absent)


def full_portrait(p: ModelParams) -> list[Equilibrium]:
    """All equilibria of the system, merged across branches and classified.

    Roots from different branches closer than MERGE_DISTANCE are one
    equilibrium (all branch tags and labels retained), evaluated once at
    the first root's state.  Returned in label order E1..E9.
    """
    found: list[tuple[State, tuple[Branch, ...], tuple[str, ...]]] = []
    for u, branch, label in _branch_points(p):
        for i, (other, branches, labels) in enumerate(found):
            if math.hypot(u.x - other.x, u.y - other.y) <= MERGE_DISTANCE:
                found[i] = (other, branches + (branch,), labels + (label,))
                break
        else:
            found.append((u, (branch,), (label,)))
    portrait = []
    for u, branches, labels in found:
        lin, cls = _classify(p, u, "+".join(labels), derivatives(p, u))
        portrait.append(_make_equilibrium(u, branches, labels, lin, cls))
    return portrait


# ---------------------------------------------------------------------------
# the generic portrait of many parameter points at once
# ---------------------------------------------------------------------------

class PortraitBatch(NamedTuple):
    """Branch counts, classes, discriminants and thresholds of N parameter
    points, computed as arrays.

    Only rows where `generic` is True are decided.  In those rows every
    equilibrium is a simple root on exactly one branch with a generic class
    (Saddle, Stable/Unstable Node or Focus), and every value equals, bit for
    bit, what full_portrait, discriminants and thresholds give for the point.
    All other rows are left to the scalar path: invalid or non-finite
    parameters, points in or near a fold, merge or classification band, and
    points where the eigenvalue cross-check disagrees.  That check is the
    scalar path's closed form on J/norm, with its band narrowed by
    BATCH_MARGIN.
    """

    generic: np.ndarray  # bool (N,)
    counts: dict[Branch, np.ndarray]  # roots per branch: 0 or 2
    classes: dict[str, np.ndarray]  # E2, E3, E5, E6, E8, E9 -> class value, "" if absent
    delta1: np.ndarray
    delta2: np.ndarray
    thresholds: dict[str, np.ndarray]  # h1, h2, h3, s1, s2, s3; NaN where absent


def portrait_batch(q, s, h, m) -> PortraitBatch:
    """Evaluate the generic portrait of the points (q[i], s[i], h[i], m[i]).

    Calls the kernels of the scalar path (the branch quadratics,
    model._jacobian, the linearisation, the eigenvalue sign rules and the
    critical surfaces) on arrays, so that + - * / and sqrt give the same
    floats; the residual is not bit-equal to the scalar one, so each band is
    widened by BATCH_MARGIN before a row is trusted.
    """
    import numpy as np

    q, s, h, m = (np.asarray(v, dtype=float)[:, None] for v in (q, s, h, m))
    # absent roots and invalid rows compute NaN and inf; they are masked below
    with np.errstate(all="ignore"):
        undecided = ~(np.isfinite(q) & np.isfinite(s) & np.isfinite(h) & np.isfinite(m)
                      & (q > 0) & (s > 0) & (h > 0) & (m > 0) & (m < 1))[:, 0]
        quadratics = _branch_quadratics(q, h, m)
        xs, ys, present, counts = [], [], [], {}
        for branch, (root_sum, root_prod, disc), line in zip(Branch, quadratics, (0.0, m, None)):
            admissible = root_sum > 0
            rel = _relative_disc(root_sum, root_prod, disc, np)
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

        a00, b00 = _field(q, s, h, m, x, y)
        a10, a01, b10, b01 = _jacobian(q, s, m, x, y)
        lin = _linearization(a10, a01, b10, b01, BATCH_MARGIN, np)
        saddle, stable = lin.det < 0, lin.tr < 0
        residual = np.hypot(a00, b00)
        near = ~(np.isfinite(residual + lin.norm + lin.disc) & (x > 0))
        near |= residual > RESIDUAL_TOL / BATCH_MARGIN
        # classify() reads a saddle's trace nowhere, so only other points need it clear
        near |= lin.det_zero | (~saddle & lin.tr_zero) | lin.disc_zero
        undecided |= (present & near).any(axis=1)

        # the eigenvalue cross-check of classify(), with a tightened band
        check = present & ~undecided[:, None]
        norm = lin.norm[check]
        tol = EIGEN_SIGN_RTOL / BATCH_MARGIN * np.maximum(norm, NORM_FLOOR)
        parts = _eigen_parts(a10[check], a01[check], b10[check], b01[check], norm, np)
        agrees = _signs_agree(*parts, tol, saddle[check], stable[check], np)
        disagrees = np.zeros_like(present)
        disagrees[check] = ~agrees
        undecided |= disagrees.any(axis=1)

        # object arrays, so every row shares one str per class
        kind = {c.name: np.array(c.value, dtype=object) for c in StabilityClass}
        node = np.where(stable, kind["STABLE_NODE"], kind["UNSTABLE_NODE"])
        focus = np.where(stable, kind["STABLE_FOCUS"], kind["UNSTABLE_FOCUS"])
        node_or_focus = np.where(lin.disc > 0, node, focus)
        cls = np.where(present, np.where(saddle, kind["SADDLE"], node_or_focus),
                       np.array("", dtype=object))

        # thresholds() and discriminants(); s2 and s3 sit at the E8 and E9 above
        delta1, delta2 = quadratics[1][2], quadratics[2][2]
        t = {"h1": _h1(q, m), "h2": np.full_like(q, 0.25), "h3": _h3(q)}
        s_values = {"s1": (np.abs(m - 2.0 * h) <= DENOMINATOR_TOL, _s1(h, m))}
        for name, k in (("s2", 4), ("s3", 5)):
            xd = x[:, k:k + 1]
            s_values[name] = (~present[:, k:k + 1] | (np.abs(m - xd) <= DENOMINATOR_TOL),
                              _s_trace_zero(q, m, xd))
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
