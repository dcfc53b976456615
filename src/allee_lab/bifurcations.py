"""Bifurcation machinery: saddle-node transversality, Hopf direction, and
the Bogdanov-Takens normal-form coefficient chain.

The Hopf direction comes from the first Lyapunov number of a planar weak
center written as

    x' = a x + b y + p(x, y),   y' = c x + d y + q(x, y),
    a + d = 0,  Delta = a d - b c > 0,

computed with the classical closed-form expression in the quadratic/cubic
Taylor coefficients.  A negative value means a supercritical Hopf (stable
cycle born); positive means subcritical (unstable cycle).

The Bogdanov-Takens chain perturbs (h, s) around the cusp point, expands
around the unperturbed cusp location, and pushes the system through a fixed
sequence of coordinate/time changes down to

    u' = v,   v' = l00 + l01 v + u^2 + u v + O(3).

Nondegeneracy of the unfolding is certified by the Jacobian of (l00, l01)
with respect to the perturbation at 0, estimated by central differences.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .equilibria import (
    DISCRIMINANT_RTOL,
    Equilibrium,
    discriminants,
    solve_branch_diagonal,
)
from .errors import (
    CuspConditionsViolated,
    HopfInadmissible,
    NoZeroEigenvalue,
    NotAWeakCenter,
    NotSemiDegenerate,
    SignAssumptionViolated,
)
from .model import ModelParams, State, derivatives
from .normal_forms import TaylorCoefficients, taylor_at

__all__ = [
    "SotomayorVerdict",
    "SotomayorReport",
    "HopfDirection",
    "HopfReport",
    "BTVerdict",
    "BTReport",
    "sotomayor_saddle_node",
    "hopf_critical_s",
    "first_lyapunov_coefficient",
    "lyapunov_number",
    "phi_terms",
    "bt_normal_form",
]


# ---------------------------------------------------------------------------
# Sotomayor saddle-node test
# ---------------------------------------------------------------------------

class SotomayorVerdict(enum.Enum):
    SADDLE_NODE_BIFURCATION = "SaddleNodeBifurcation"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class SotomayorReport:
    v: tuple[float, float]
    w: tuple[float, float]
    transversality1: float
    transversality2: float
    verdict: SotomayorVerdict


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
    d = derivatives(p, State(e.x, e.y))
    tr = d.f1_x + d.f2_y
    det = d.f1_x * d.f2_y - d.f1_y * d.f2_x
    norm = math.sqrt(d.f1_x**2 + d.f1_y**2 + d.f2_x**2 + d.f2_y**2)
    if abs(det) > 1e-9 * max(norm * norm, 1e-30):
        raise NoZeroEigenvalue(f"det(J) = {det:.3e} is not ~ 0")
    if abs(tr) <= 1e-9 * max(norm, 1e-30):
        raise NotSemiDegenerate("zero eigenvalue is not simple (trace ~ 0)")

    v = (1.0, -d.f1_x / d.f1_y)
    # (J22, -J12) spans the left kernel and dots with v to exactly the trace,
    # so this is the left null vector scaled to w.v = -2*trace
    w = (-2.0 * d.f2_y, 2.0 * d.f1_y)

    fmu = _param_derivative(p, State(e.x, e.y), bif_param)
    quad1 = d.f1_xx * v[0] * v[0] + 2.0 * d.f1_xy * v[0] * v[1] + d.f1_yy * v[1] * v[1]
    quad2 = d.f2_xx * v[0] * v[0] + 2.0 * d.f2_xy * v[0] * v[1] + d.f2_yy * v[1] * v[1]
    t1 = w[0] * fmu[0] + w[1] * fmu[1]
    t2 = w[0] * quad1 + w[1] * quad2
    verdict = (
        SotomayorVerdict.SADDLE_NODE_BIFURCATION
        if abs(t1) > 1e-12 and abs(t2) > 1e-12
        else SotomayorVerdict.DEGENERATE
    )
    return SotomayorReport(v=v, w=w, transversality1=t1, transversality2=t2, verdict=verdict)


# ---------------------------------------------------------------------------
# Hopf bifurcation
# ---------------------------------------------------------------------------

class HopfDirection(enum.Enum):
    SUPERCRITICAL = "Supercritical"
    SUBCRITICAL = "Subcritical"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class HopfReport:
    s_critical: float
    transversality: float
    M: float
    phi: tuple[float, ...]
    sigma: float
    direction: HopfDirection


def _diagonal_root(p: ModelParams, which: str) -> float:
    d = discriminants(p)
    rel = d.delta2 / max(1.0, d.C * d.C)
    if rel <= DISCRIMINANT_RTOL:
        raise HopfInadmissible("diagonal equilibrium pair does not exist (discriminant <= 0)")
    big = 0.5 * (d.C + d.D)
    small = (p.h * d.C) / big
    if which == "E8":
        return big
    if which == "E9":
        return small
    raise ValueError(f"which must be 'E8' or 'E9', got {which!r}")


def hopf_critical_s(p: ModelParams, which: str = "E8") -> float:
    """Growth rate making the chosen diagonal equilibrium a weak center.

    Requires the Allee threshold on the det > 0 side of the equilibrium
    (m < x for E8, m > x for E9) and a positive critical value; everything
    else raises HopfInadmissible.  p.s is ignored: the critical value depends
    only on (q, h, m).
    """
    x = _diagonal_root(p, which)
    if which == "E8" and not p.m < x:
        raise HopfInadmissible(f"need m < x8 for a weak center at E8 (m={p.m}, x8={x})")
    if which == "E9" and not p.m > x:
        raise HopfInadmissible(f"need m > x9 for a weak center at E9 (m={p.m}, x9={x})")
    s_crit = (2.0 * x + p.q * x - 1.0) / (p.m - x)
    if not s_crit > 0:
        raise HopfInadmissible(
            f"critical growth rate {s_crit} is not positive, no admissible Hopf point"
        )
    return s_crit


def lyapunov_number(a: float, b: float, c: float, d: float, t: TaylorCoefficients) -> float:
    """First Lyapunov number of a planar weak center, full closed form.

    All quadratic and cubic coefficients enter, including those that vanish
    for this model; zeros are substituted rather than dropped so the
    expression stays the generic one.
    """
    delta = a * d - b * c
    if not (delta > 0 and abs(a + d) <= 1e-8 * max(1.0, abs(a), abs(d))):
        raise NotAWeakCenter(f"need a + d = 0 and Delta > 0, got trace={a + d}, Delta={delta}")
    quad = (
        a * c * (t.a11**2 + t.a11 * t.b02 + t.a02 * t.b11)
        + a * b * (t.b11**2 + t.a20 * t.b11 + t.a11 * t.b02)
        + c * c * (t.a11 * t.a02 + 2.0 * t.a02 * t.b02)
        - 2.0 * a * c * (t.b02**2 - t.a20 * t.a02)
        - 2.0 * a * b * (t.a20**2 - t.b20 * t.b02)
        - b * b * (2.0 * t.a20 * t.b20 + t.b11 * t.b20)
        + (b * c - 2.0 * a * a) * (t.b11 * t.b02 - t.a11 * t.a20)
    )
    cubic = (a * a + b * c) * (
        3.0 * (c * t.b03 - b * t.a30)
        + 2.0 * a * (t.a21 + t.b12)
        + (c * t.a12 - b * t.b21)
    )
    return -3.0 * math.pi / (2.0 * b * delta**1.5) * (quad - cubic)


def phi_terms(t: TaylorCoefficients) -> tuple[float, ...]:
    """The eight grouped terms of the Lyapunov-number sum for this model.

    With a = a10, b = a01, c = b10 and the prey component quadratic
    (a02 = 0, no cubic a-terms), the generic formula collapses to eight
    terms phi_1..phi_8 with phi_3 = 0.
    """
    a, b, c = t.a10, t.a01, t.b10
    phi1 = a * c * (t.a11**2 + t.a11 * t.b02)
    phi2 = a * b * (t.b11**2 + t.a20 * t.b11 + t.a11 * t.b02)
    phi3 = 0.0
    phi4 = -2.0 * a * c * t.b02**2
    phi5 = -2.0 * a * b * (t.a20**2 - t.b20 * t.b02)
    phi6 = -b * b * (2.0 * t.a20 * t.b20 + t.b11 * t.b20)
    phi7 = (b * c - 2.0 * a * a) * (t.b11 * t.b02 - t.a11 * t.a20)
    phi8 = -(a * a + b * c) * (
        3.0 * (c * t.b03 - b * t.a30) + 2.0 * a * t.b12 - b * t.b21
    )
    return (phi1, phi2, phi3, phi4, phi5, phi6, phi7, phi8)


def first_lyapunov_coefficient(p: ModelParams, which: str = "E8") -> HopfReport:
    """Hopf direction at a diagonal weak center.

    p.s must already sit at the critical value (trace zero to ~1e-10);
    use hopf_critical_s to find it.  The sign of sigma decides the
    direction: negative = supercritical (stable cycle), positive =
    subcritical (unstable cycle).
    """
    x = _diagonal_root(p, which)
    t = taylor_at(p, State(x, x))
    a, b, c, d = t.a10, t.a01, t.b10, t.b01
    tr = a + d
    M = a * d - b * c
    if abs(tr) > 1e-10 * max(1.0, abs(a), abs(d)):
        raise NotAWeakCenter(f"trace {tr:.3e} not zero: s is not at the critical value")
    if not M > 0:
        raise NotAWeakCenter(f"det {M:.3e} not positive: equilibrium is not a center candidate")

    phi = phi_terms(t)
    sigma = lyapunov_number(a, b, c, d, t)
    phi_scale = sum(abs(v) for v in phi)
    if phi_scale == 0.0 or abs(sum(phi)) <= 1e-12 * phi_scale:
        direction = HopfDirection.UNDETERMINED
    elif sigma < 0:
        direction = HopfDirection.SUPERCRITICAL
    else:
        direction = HopfDirection.SUBCRITICAL
    return HopfReport(
        s_critical=p.s,
        transversality=p.m - x,
        M=M,
        phi=phi,
        sigma=sigma,
        direction=direction,
    )


# ---------------------------------------------------------------------------
# Bogdanov-Takens chain
# ---------------------------------------------------------------------------

# cusp bases whose unfolding Jacobian is kept; a grid or a demo uses one
_JACOBIAN_CACHE_SIZE = 64


class BTVerdict(enum.Enum):
    BT_CODIM2 = "BTCodim2"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class BTReport:
    eta: tuple[float, float]
    ladder: dict[str, dict[str, float]]
    l00: float
    l01: float
    f20: float
    f11: float
    h11: float
    mirrored: bool
    jac_det: float
    verdict: BTVerdict


def cusp_base_params(q: float, m: float) -> ModelParams:
    """Parameter point placing the system exactly at the codimension-2 cusp.

    The harvest is pinned to the diagonal fold value h3 = 1/(4(q+1)) and the
    growth rate to the trace-zero value s1 there; raises
    CuspConditionsViolated when that growth rate is not admissible
    (requires m < 2*h3).
    """
    h3 = 1.0 / (4.0 * (q + 1.0))
    if abs(m - 2.0 * h3) <= 1e-9:
        raise CuspConditionsViolated(f"m = 2*h3 = {2 * h3}: trace cannot vanish at the fold point")
    s1 = (4.0 * h3 - 1.0) / (2.0 * (m - 2.0 * h3))
    if not s1 > 0:
        raise CuspConditionsViolated(
            f"critical growth rate s1 = {s1} is not positive (need m < {2 * h3})"
        )
    return ModelParams(q=q, s=s1, h=h3, m=m)


def _check_cusp_base(p: ModelParams) -> tuple[float, float]:
    h3 = 1.0 / (4.0 * (p.q + 1.0))
    if abs(p.h - h3) > 1e-9:
        raise CuspConditionsViolated(f"h = {p.h} is not the diagonal fold value h3 = {h3}")
    base = cusp_base_params(p.q, p.m)  # re-raises on m/s1 problems
    if abs(p.s - base.s) > 1e-9 * max(1.0, abs(base.s)):
        raise CuspConditionsViolated(f"s = {p.s} is not the cusp value s1 = {base.s}")
    return h3, base.s


def _quad_taylor(p: ModelParams, x0: float, y0: float) -> tuple[dict[str, float], dict[str, float]]:
    t = taylor_at(p, State(x0, y0))
    a = {"00": t.a00, "10": t.a10, "01": t.a01, "20": t.a20, "11": t.a11, "02": 0.0}
    b = {"00": t.b00, "10": t.b10, "01": t.b01, "20": t.b20, "11": t.b11, "02": t.b02}
    return a, b


def _ladder(p_base: ModelParams, h3: float, s1: float, eta: tuple[float, float]) -> tuple[dict, bool]:
    """Run the coefficient chain once; returns (stages, mirrored)."""
    q, m = p_base.q, p_base.m
    x7 = 2.0 * h3
    p = ModelParams(q=q, s=s1 + eta[1], h=h3 + eta[0], m=m)
    a, b = _quad_taylor(p, x7, x7)

    # straighten the linear part: u2 = u1, v2 = a10*u1 + a01*v1
    c = {
        "00": a["00"],
        "20": a["20"] - a["11"] * a["10"] / a["01"],
        "11": a["11"] / a["01"],
    }
    d = {
        "00": a["00"] * a["10"],
        "10": a["01"] * b["10"] - a["10"] * b["01"],
        "01": a["10"] + b["01"],
        "20": (a["10"] * a["20"] + a["01"] * b["20"] - a["10"] * b["11"]
               - a["10"] ** 2 * a["11"] / a["01"] + a["10"] ** 2 * b["02"] / a["01"]),
        "11": b["11"] + a["10"] * a["11"] / a["01"] - 2.0 * a["10"] * b["02"] / a["01"],
        "02": b["02"] / a["01"],
    }

    # flatten the first equation: v3 = du2/dt (exact quadratic coefficients
    # of the transformed second equation, including the perturbation-sized
    # corrections through c00)
    c00, c20, c11 = c["00"], c["20"], c["11"]
    e = {
        "00": d["00"] - c00 * d["01"] + c00**2 * d["02"],
        "10": d["10"] + c11 * d["00"] - c00 * d["11"] - c00**2 * c11 * d["02"],
        "01": d["01"] - c00 * c11 - 2.0 * c00 * d["02"],
        "20": (d["20"] - c20 * d["01"] + c11 * d["10"]
               + 2.0 * c00 * c20 * d["02"] + c00**2 * c11**2 * d["02"]),
        "11": d["11"] + 2.0 * c20 + c00 * c11**2 + 2.0 * c00 * c11 * d["02"],
        "02": d["02"] + c11,
    }

    # time reparametrisation dt = (1 - e02*u)dtau plus v4 = v3*(1 - e02*u3)
    f = {
        "00": e["00"],
        "10": e["10"] - 2.0 * e["00"] * e["02"],
        "01": e["01"],
        "20": e["20"] - 2.0 * e["02"] * e["10"] + e["00"] * e["02"] ** 2,
        "11": e["11"] - e["01"] * e["02"],
    }

    mirrored = False
    scale = max(1.0, abs(f["11"]))
    if abs(f["20"]) <= 1e-12 * scale:
        raise SignAssumptionViolated("quadratic coefficient f20 vanishes; chain inapplicable")
    if f["20"] > 0:
        # mirrored branch: (v, t) -> (-v, -t) flips the sign of f20
        mirrored = True
        f = {"00": -f["00"], "10": -f["10"], "01": f["01"], "20": -f["20"], "11": f["11"]}

    k = math.sqrt(-f["20"])
    g = {
        "00": -f["00"] / f["20"],
        "10": -f["10"] / f["20"],
        "01": f["01"] / k,
        "11": f["11"] / k,
    }
    h = {
        "00": g["00"] + 0.25 * g["10"] ** 2,
        "01": g["01"] + 0.5 * g["10"] * g["11"],
        "11": g["11"],
    }
    l = {"00": -h["00"] * h["11"] ** 4, "01": -h["01"] * h["11"]}
    stages = {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f, "g": g, "h": h, "l": l}
    return stages, mirrored


@functools.lru_cache(maxsize=_JACOBIAN_CACHE_SIZE)
def _unfolding_jacobian_det(q: float, m: float, jac_step: float) -> float:
    """|det d(l00, l01)/d(eta)| at eta = 0 by central differences.

    The ladder reads only q, m and the h3, s1 they fix, so the value
    belongs to the cusp base and is computed once per (q, m, jac_step).
    """
    p_base = cusp_base_params(q, m)

    def l_pair(e1: float, e2: float) -> np.ndarray:
        st, _ = _ladder(p_base, p_base.h, p_base.s, (e1, e2))
        return np.array([st["l"]["00"], st["l"]["01"]])

    jac = np.zeros((2, 2))
    for j, (d1, d2) in enumerate(((jac_step, 0.0), (0.0, jac_step))):
        jac[:, j] = (l_pair(d1, d2) - l_pair(-d1, -d2)) / (2.0 * jac_step)
    return abs(float(np.linalg.det(jac)))


def bt_normal_form(
    p_base: ModelParams,
    eta: tuple[float, float] = (0.0, 0.0),
    jac_step: float = 1e-6,
) -> BTReport:
    """Run the Bogdanov-Takens chain for a perturbation (eta1, eta2) of
    (h, s) around the cusp point.

    p_base must sit exactly on the cusp (h = h3, s = s1, m != 2*h3); the
    perturbation must stay small (|eta| <= 1e-2).  The report carries every
    intermediate coefficient set, the final unfolding pair (l00, l01), and
    the determinant of the central-difference Jacobian of (l00, l01) with
    respect to eta at 0, which is computed once per (q, m, jac_step).
    """
    h3, s1 = _check_cusp_base(p_base)
    if math.hypot(*eta) > 1e-2:
        raise ValueError(f"perturbation {eta} too large; the chain is local (|eta| <= 1e-2)")

    stages, mirrored = _ladder(p_base, h3, s1, eta)
    jac_det = _unfolding_jacobian_det(p_base.q, p_base.m, jac_step)

    return BTReport(
        eta=eta,
        ladder=stages,
        l00=stages["l"]["00"],
        l01=stages["l"]["01"],
        f20=stages["f"]["20"] if not mirrored else -stages["f"]["20"],
        f11=stages["f"]["11"],
        h11=stages["h"]["11"],
        mirrored=mirrored,
        jac_det=jac_det,
        verdict=BTVerdict.BT_CODIM2 if jac_det > 1e-6 else BTVerdict.DEGENERATE,
    )
