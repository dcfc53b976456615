"""Quadratic normal-form reductions at degenerate equilibria.

Two local checks are provided:

* saddle-node: for a simple zero eigenvalue (det = 0, trace != 0), change to
  the eigenbasis and read off the quadratic coefficient along the
  zero-eigenvalue direction; a nonzero coefficient certifies a saddle-node.

* cusp: for a double zero eigenvalue (det = trace = 0, J != 0), change to the
  (kernel, generalized-kernel) basis, which brings the linear part to
  nilpotent form, and read off the two quadratic coefficients of the reduced
  second equation; both nonzero certifies a codimension-2 cusp.

Both read the local expansion that `model.derivatives` returns, the Taylor
coefficients a_ij and b_ij of the two components.

Eigenvector normalisation is fixed so the reported coefficients are
reproducible: the zero-eigenvalue direction has first component 1 (its first
component never vanishes here because df1/dy = -q*x != 0), and the
generalized direction has first component 0.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import NotDoublyDegenerate, NotSemiDegenerate
from .model import ModelParams, State, TaylorCoefficients, derivatives
from .equilibria import COEFF_TOL, Equilibrium, Linearization, linearize

__all__ = [
    "SaddleNodeVerdict",
    "SaddleNodeCheck",
    "CuspVerdict",
    "CuspCheck",
    "taylor_at",
    "saddle_node_check",
    "cusp_check",
]

class SaddleNodeVerdict(enum.Enum):
    SADDLE_NODE = "SaddleNode"
    NEEDS_HIGHER_ORDER = "NeedsHigherOrder"


class SaddleNodeCheck(NamedTuple):
    c20: float
    rho: float
    verdict: SaddleNodeVerdict


class CuspVerdict(enum.Enum):
    CODIM2_CUSP = "Codim2Cusp"
    DEGENERATE = "Degenerate"


class CuspCheck(NamedTuple):
    g20: float
    g11: float
    verdict: CuspVerdict


def taylor_at(p: ModelParams, e: Equilibrium | State) -> TaylorCoefficients:
    """Taylor expansion of the vector field around an equilibrium (or any
    admissible point): `derivatives` at its state."""
    return derivatives(p, State(e.x, e.y))


def _bilinear(t: TaylorCoefficients, u: tuple[float, float],
              v: tuple[float, float]) -> tuple[float, float]:
    # D^2 f (u, v): second-derivative bilinear form applied to two directions
    # from the Taylor coefficients: f_xx = 2*a20, f_xy = a11, f_yy = 2*a02
    s1 = (2.0 * t.a20 * u[0] * v[0] + t.a11 * (u[0] * v[1] + u[1] * v[0])
          + 2.0 * t.a02 * u[1] * v[1])
    s2 = (2.0 * t.b20 * u[0] * v[0] + t.b11 * (u[0] * v[1] + u[1] * v[0])
          + 2.0 * t.b02 * u[1] * v[1])
    return s1, s2


def saddle_node_check(p: ModelParams, e: Equilibrium | State) -> SaddleNodeCheck:
    """Quadratic coefficient along the center direction at a semi-degenerate
    equilibrium (one zero and one nonzero eigenvalue).

    The zero-eigenvalue direction v0 is scaled to first component 1 and the
    nonzero-eigenvalue direction spans the complement; c20 is the
    coefficient of the squared center coordinate in the center equation
    after the basis change.  c20 != 0 certifies a saddle-node.
    """
    t = derivatives(p, State(e.x, e.y))
    return _saddle_node_check(t, linearize(t))


def _saddle_node_check(t: TaylorCoefficients, lin: Linearization) -> SaddleNodeCheck:
    tr = lin.tr
    if not lin.det_zero or lin.tr_zero:
        raise NotSemiDegenerate(
            f"need det ~ 0 and trace != 0, got det = {lin.det:.3e}, trace = {tr:.3e}"
        )
    # df1/dy = -q x never vanishes, so both eigenvectors are graphs over x
    v0 = (1.0, -t.a10 / t.a01)
    v1 = (1.0, (tr - t.a10) / t.a01)
    det_p = v1[1] - v0[1]
    q1, q2 = _bilinear(t, v0, v0)
    c20 = 0.5 * (v1[1] * q1 - q2) / det_p
    verdict = (
        SaddleNodeVerdict.SADDLE_NODE if abs(c20) > COEFF_TOL
        else SaddleNodeVerdict.NEEDS_HIGHER_ORDER
    )
    return SaddleNodeCheck(c20=c20, rho=tr, verdict=verdict)


def cusp_check(p: ModelParams, e: Equilibrium | State) -> CuspCheck:
    """Quadratic coefficients of the nilpotent normal form at a doubly
    degenerate equilibrium (double zero eigenvalue, nonzero Jacobian).

    In the basis (q0, q1) with J q0 = 0, J q1 = q0, the system reads

        x' = y + e20 x^2 + ...,     y' = f20 x^2 + f11 x y + ...

    and reduces near the origin to y' = g20 x^2 + g11 x y with g20 = f20 and
    g11 = f11 + 2 e20.  Both nonzero certifies a codimension-2 cusp.
    """
    t = derivatives(p, State(e.x, e.y))
    return _cusp_check(t, linearize(t))


def _cusp_check(t: TaylorCoefficients, lin: Linearization) -> CuspCheck:
    if not (lin.det_zero and lin.tr_zero):
        raise NotDoublyDegenerate(
            f"need det ~ 0 and trace ~ 0, got det = {lin.det:.3e}, trace = {lin.tr:.3e}"
        )
    j12 = t.a01  # nonzero, so J != 0 and the kernel basis below is valid
    q0 = (1.0, -t.a10 / j12)
    q1 = (0.0, 1.0 / j12)
    # inverse of T = [q0 | q1]: rows (1, 0) and (-j12*q0[1], j12)
    h00_1, h00_2 = _bilinear(t, q0, q0)
    h01_1, h01_2 = _bilinear(t, q0, q1)
    e20 = 0.5 * h00_1
    f20 = 0.5 * (-j12 * q0[1] * h00_1 + j12 * h00_2)
    f11 = -j12 * q0[1] * h01_1 + j12 * h01_2
    g20 = f20
    g11 = f11 + 2.0 * e20
    verdict = (
        CuspVerdict.CODIM2_CUSP
        if abs(g20) > COEFF_TOL and abs(g11) > COEFF_TOL
        else CuspVerdict.DEGENERATE
    )
    return CuspCheck(g20=g20, g11=g11, verdict=verdict)
