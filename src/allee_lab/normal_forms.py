"""The local tests at degenerate equilibria, each a wrapper of one kernel in
`equilibria`, the kernel `classify` reads.

* saddle-node: for a simple zero eigenvalue (det = 0, trace != 0), the
  quadratic coefficient c20 along the zero-eigenvalue direction; a nonzero
  coefficient certifies a saddle-node.

* Sotomayor's test (Perko, Differential Equations and Dynamical Systems,
  section 4.2): at the same point, the two transversality numbers w.f_mu
  and w.D^2f(v, v) for one parameter mu; both nonzero certify a
  saddle-node bifurcation in mu.

* cusp: for a double zero eigenvalue (det = trace = 0, J != 0), the two
  quadratic coefficients of the nilpotent normal form's reduced second
  equation; both nonzero certifies a codimension-2 cusp.

The saddle-node test and Sotomayor's read one projection of D^2f(v, v) on
the left null vector w, so c20 = -transversality2 / (4*trace).  Both null
vectors have a fixed scale so the reported values are reproducible: v has
first component 1 (its first component never vanishes here because
df1/dy = -q*x != 0) and w.v = -2*trace.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import NoZeroEigenvalue, NotDoublyDegenerate, NotSemiDegenerate
from .model import ModelParams, State, TaylorCoefficients, derivatives
from .equilibria import (COEFF_TOL, TRANSVERSALITY_TOL, Equilibrium, _cusp_coefficients,
                         _null_projection, linearize)

__all__ = [
    "SaddleNodeVerdict",
    "SaddleNodeCheck",
    "CuspVerdict",
    "CuspCheck",
    "SotomayorVerdict",
    "SotomayorReport",
    "taylor_at",
    "saddle_node_check",
    "cusp_check",
    "sotomayor_saddle_node",
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


class SotomayorVerdict(enum.Enum):
    SADDLE_NODE_BIFURCATION = "SaddleNodeBifurcation"
    DEGENERATE = "Degenerate"


class SotomayorReport(NamedTuple):
    v: tuple[float, float]
    w: tuple[float, float]
    transversality1: float
    transversality2: float
    verdict: SotomayorVerdict


def taylor_at(p: ModelParams, e: Equilibrium | State) -> TaylorCoefficients:
    """Taylor expansion of the vector field around an equilibrium (or any
    admissible point): `derivatives` at its state."""
    return derivatives(p, State(e.x, e.y))


def saddle_node_check(p: ModelParams, e: Equilibrium | State) -> SaddleNodeCheck:
    """Quadratic coefficient along the center direction at a semi-degenerate
    equilibrium (one zero and one nonzero eigenvalue).

    c20 = w.D^2f(v, v) / (2 w.v) is the coefficient of the squared center
    coordinate in the center equation, rho the trace, which is the nonzero
    eigenvalue.  c20 != 0 certifies a saddle-node.
    """
    t = derivatives(p, State(e.x, e.y))
    lin = linearize(t)
    if not lin.det_zero or lin.tr_zero:
        raise NotSemiDegenerate(
            f"need det ~ 0 and trace != 0, got det = {lin.det:.3e}, trace = {lin.tr:.3e}"
        )
    c20 = -_null_projection(t)[2] / (4.0 * lin.tr)
    verdict = (
        SaddleNodeVerdict.SADDLE_NODE if abs(c20) > COEFF_TOL
        else SaddleNodeVerdict.NEEDS_HIGHER_ORDER
    )
    return SaddleNodeCheck(c20=c20, rho=lin.tr, verdict=verdict)


def cusp_check(p: ModelParams, e: Equilibrium | State) -> CuspCheck:
    """Quadratic coefficients of the nilpotent normal form at a doubly
    degenerate equilibrium (double zero eigenvalue, nonzero Jacobian).

    In the basis (q0, q1) with J q0 = 0, J q1 = q0, the system reduces near
    the origin to y' = g20 x^2 + g11 x y.  Both nonzero certifies a
    codimension-2 cusp.
    """
    t = derivatives(p, State(e.x, e.y))
    lin = linearize(t)
    if not (lin.det_zero and lin.tr_zero):
        raise NotDoublyDegenerate(
            f"need det ~ 0 and trace ~ 0, got det = {lin.det:.3e}, trace = {lin.tr:.3e}"
        )
    g20, g11 = _cusp_coefficients(t)
    verdict = (
        CuspVerdict.CODIM2_CUSP
        if abs(g20) > COEFF_TOL and abs(g11) > COEFF_TOL
        else CuspVerdict.DEGENERATE
    )
    return CuspCheck(g20=g20, g11=g11, verdict=verdict)


def _param_derivative(p: ModelParams, u: State, name: str) -> tuple[float, float]:
    """Analytic derivative of the vector field with respect to one parameter."""
    x, y = u.x, u.y
    if name == "h":
        return (-1.0, 0.0)
    if name == "q":
        return (-x * y, 0.0)
    if name == "s":
        return (0.0, y * (1.0 - y / x) * (y - p.m))
    if name == "m":
        return (0.0, -p.s * y * (1.0 - y / x))
    raise ValueError(f"unknown bifurcation parameter {name!r}; expected one of q, s, h, m")


def sotomayor_saddle_node(p: ModelParams, e: Equilibrium | State, bif_param: str) -> SotomayorReport:
    """Transversality test for a saddle-node bifurcation in one parameter.

    Returns the right/left null eigenvectors (v, w) of the Jacobian and the
    two transversality numbers w.f_mu and w.D^2f(v, v).  v is scaled to
    first component 1 and w so that w.v = -2*trace, which makes the values
    reproducible across runs and machines.
    """
    u = State(e.x, e.y)
    t = derivatives(p, u)
    lin = linearize(t)
    if not lin.det_zero:
        raise NoZeroEigenvalue(f"det(J) = {lin.det:.3e} is not ~ 0")
    if lin.tr_zero:
        raise NotSemiDegenerate("zero eigenvalue is not simple (trace ~ 0)")
    v, w, t2 = _null_projection(t)
    fmu = _param_derivative(p, u, bif_param)
    t1 = w[0] * fmu[0] + w[1] * fmu[1]
    verdict = (
        SotomayorVerdict.SADDLE_NODE_BIFURCATION
        if abs(t1) > TRANSVERSALITY_TOL and abs(t2) > TRANSVERSALITY_TOL
        else SotomayorVerdict.DEGENERATE
    )
    return SotomayorReport(v=v, w=w, transversality1=t1, transversality2=t2, verdict=verdict)
