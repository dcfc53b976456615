"""Bifurcation machinery: the Hopf direction and the Bogdanov-Takens
normal-form coefficient chain.

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
with respect to the perturbation at 0 (Kuznetsov, Elements of Applied
Bifurcation Theory, section 8.4), whose determinant has a closed form in
(q, m) on the chain anchored at the cusp identities.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from typing import NamedTuple

from .equilibria import (
    BT_JAC_DET_TOL, CUSP_BASE_TOL, F20_RTOL, HOPF_TRACE_RTOL, PHI_RTOL, WEAK_CENTER_RTOL,
    _diagonal_roots, _h3, _s1, _s_trace_zero,
)
from .errors import CuspConditionsViolated, HopfInadmissible, NotAWeakCenter, SignAssumptionViolated
from .model import (ModelParams, State, TaylorCoefficients, _check_allee_threshold,
                    _check_positive_finite)
from .normal_forms import taylor_at

__all__ = [
    "HopfDirection",
    "HopfReport",
    "BTVerdict",
    "BTReport",
    "hopf_critical_s",
    "first_lyapunov_coefficient",
    "lyapunov_number",
    "bt_normal_form",
]


# ---------------------------------------------------------------------------
# Hopf bifurcation
# ---------------------------------------------------------------------------

class HopfDirection(enum.Enum):
    SUPERCRITICAL = "Supercritical"
    SUBCRITICAL = "Subcritical"
    UNDETERMINED = "Undetermined"


class HopfReport(NamedTuple):
    s_critical: float
    transversality: float
    M: float
    phi: tuple[float, ...]
    sigma: float
    direction: HopfDirection


def _pair_member(p: ModelParams, which: str) -> float:
    # x of E8 or E9, from the diagonal solver that full_portrait uses
    pair = _diagonal_roots(p)
    if len(pair) != 2:
        raise HopfInadmissible("diagonal equilibrium pair does not exist (discriminant <= 0)")
    if which not in ("E8", "E9"):
        raise ValueError(f"which must be 'E8' or 'E9', got {which!r}")
    return pair[which == "E9"]


def hopf_critical_s(p: ModelParams, which: str = "E8") -> float:
    """Growth rate making the chosen diagonal equilibrium a weak center.

    Requires the Allee threshold on the det > 0 side of the equilibrium
    (m < x for E8, m > x for E9) and a positive critical value; everything
    else raises HopfInadmissible.  p.s is ignored: the critical value depends
    only on (q, h, m).
    """
    x = _pair_member(p, which)
    if which == "E8" and not p.m < x:
        raise HopfInadmissible(f"need m < x8 for a weak center at E8 (m={p.m}, x8={x})")
    if which == "E9" and not p.m > x:
        raise HopfInadmissible(f"need m > x9 for a weak center at E9 (m={p.m}, x9={x})")
    s_crit = _s_trace_zero(p.q, p.m, x)
    if not s_crit > 0:
        raise HopfInadmissible(
            f"critical growth rate {s_crit} is not positive, no admissible Hopf point"
        )
    return s_crit


def _lyapunov_terms(a: float, b: float, c: float, t: TaylorCoefficients) -> tuple[float, ...]:
    # the eight grouped terms of the sum in Perko, Differential Equations and
    # Dynamical Systems, section 4.4; the last one carries the cubic part
    return (
        a * c * (t.a11**2 + t.a11 * t.b02 + t.a02 * t.b11),
        a * b * (t.b11**2 + t.a20 * t.b11 + t.a11 * t.b20),
        # + 0.0: at a02 = 0 the product is -0.0 (a11 = -q), reported as 0.0
        c * c * (t.a11 * t.a02 + 2.0 * t.a02 * t.b02) + 0.0,
        -2.0 * a * c * (t.b02**2 - t.a20 * t.a02),
        -2.0 * a * b * (t.a20**2 - t.b20 * t.b02),
        -b * b * (2.0 * t.a20 * t.b20 + t.b11 * t.b20),
        (b * c - 2.0 * a * a) * (t.b11 * t.b02 - t.a11 * t.a20),
        -(a * a + b * c) * (3.0 * (c * t.b03 - b * t.a30) + 2.0 * a * (t.a21 + t.b12)
                            + (c * t.a12 - b * t.b21)),
    )


def _sigma(b: float, delta: float, terms: tuple[float, ...]) -> float:
    # summed left to right, as the closed form is written
    return -3.0 * math.pi / (2.0 * b * delta**1.5) * functools.reduce(operator.add, terms)


def lyapunov_number(a: float, b: float, c: float, d: float, t: TaylorCoefficients) -> float:
    """First Lyapunov number of a planar weak center, full closed form.

    All quadratic and cubic coefficients enter, including those that vanish
    for this model; zeros are substituted rather than dropped so the
    expression stays the generic one.
    """
    delta = a * d - b * c
    if not (delta > 0 and abs(a + d) <= WEAK_CENTER_RTOL * max(1.0, abs(a), abs(d))):
        raise NotAWeakCenter(f"need a + d = 0 and Delta > 0, got trace={a + d}, Delta={delta}")
    return _sigma(b, delta, _lyapunov_terms(a, b, c, t))


def first_lyapunov_coefficient(p: ModelParams, which: str = "E8") -> HopfReport:
    """Hopf direction at a diagonal weak center.

    p.s must already sit at the critical value (trace zero to ~1e-10);
    use hopf_critical_s to find it.  The sign of sigma decides the
    direction: negative = supercritical (stable cycle), positive =
    subcritical (unstable cycle).
    """
    x = _pair_member(p, which)
    t = taylor_at(p, State(x, x))
    a, b, c, d = t.a10, t.a01, t.b10, t.b01
    tr = a + d
    M = a * d - b * c
    if abs(tr) > HOPF_TRACE_RTOL * max(1.0, abs(a), abs(d)):
        raise NotAWeakCenter(f"trace {tr:.3e} not zero: s is not at the critical value")
    if not M > 0:
        raise NotAWeakCenter(f"det {M:.3e} not positive: equilibrium is not a center candidate")

    phi = _lyapunov_terms(a, b, c, t)
    sigma = _sigma(b, M, phi)
    phi_scale = sum(abs(v) for v in phi)
    if phi_scale == 0.0 or abs(sum(phi)) <= PHI_RTOL * phi_scale:
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

class BTVerdict(enum.Enum):
    BT_CODIM2 = "BTCodim2"
    DEGENERATE = "Degenerate"


class BTReport(NamedTuple):
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
    (requires m < 2*h3).  q and m are checked first, as ModelParams checks them.
    """
    _check_positive_finite((("q", q), ("m", m)))
    _check_allee_threshold(m)
    h3 = _h3(q)
    if abs(m - 2.0 * h3) <= CUSP_BASE_TOL * 2.0 * h3:
        raise CuspConditionsViolated(f"m = 2*h3 = {2 * h3}: trace cannot vanish at the fold point")
    s1 = _s1(h3, m)
    if not s1 > 0:
        raise CuspConditionsViolated(
            f"critical growth rate s1 = {s1} is not positive (need m < {2 * h3})"
        )
    return ModelParams(q=q, s=s1, h=h3, m=m)


def _check_cusp_base(p: ModelParams) -> ModelParams:
    """The cusp base of p's (q, m); raises unless p's h and s sit on it."""
    h3 = _h3(p.q)
    if abs(p.h - h3) > CUSP_BASE_TOL * h3:
        raise CuspConditionsViolated(f"h = {p.h} is not the diagonal fold value h3 = {h3}")
    base = cusp_base_params(p.q, p.m)  # re-raises on m/s1 problems
    if abs(p.s - base.s) > CUSP_BASE_TOL * abs(base.s):
        raise CuspConditionsViolated(f"s = {p.s} is not the cusp value s1 = {base.s}")
    return base


# the chain's stages and the coefficients each keeps, in the order a report
# lists them
_QUADRATIC = ("00", "10", "01", "20", "11", "02")
_LADDER_KEYS = (("a", _QUADRATIC), ("b", _QUADRATIC), ("c", ("00", "20", "11")),
                ("d", _QUADRATIC), ("e", _QUADRATIC), ("f", _QUADRATIC[:5]),
                ("g", ("00", "10", "01", "11")), ("h", ("00", "01", "11")), ("l", ("00", "01")))
# coefficients a stage passes on unchanged: (stage, key) pairs whose cells
# are the same float objects wherever the chain does not change them
_PASSED_ON = ((("a", "00"), ("c", "00")), (("e", "00"), ("f", "00")),
              (("e", "01"), ("f", "01")), (("g", "11"), ("h", "11")))


def _halves(base: ModelParams, eta1: float, eta2: float) -> tuple[tuple[float, ...], ...]:
    """The chain's inputs at base, the exact cusp point, moved by (eta1, eta2),
    from one expansion; returns (the eta1 half, the eta2 half).

    At (x7, x7) the prey equation never reads s and the predator equation
    never reads h, so the eta1 half (stages a and c, and d00) is the same
    at every eta2, and the eta2 half (stage b and the rest of stage d,
    which also read the h-free a10, a01, a20 and a11) at every eta1.  The
    expansion leaves rounding residues where the cusp fixes exact values,
    so those are imposed, each in its one home: a00 = -eta1 in the eta1
    half, and b00 = 0 (the factor 1 - y/x), det J = -d10 = 0 at (x7, x7)
    for every s and tr J = d01 = eta2*(m - x7) in the eta2 half.  The
    0.0 +- keeps 0.0 and -0.0, which share their halves, at +0.0.
    """
    x7 = 2.0 * base.h
    t = taylor_at(ModelParams(base.q, base.s + eta2, base.h + eta1, base.m), State(x7, x7))
    a00, a10, a01, a20, a11, a02 = 0.0 - eta1, *t[1:6]
    b10, b01, b20, b11, b02 = t[11:16]

    # straighten the linear part: u2 = u1, v2 = a10*u1 + a01*v1
    c20, c11 = a20 - a11 * a10 / a01, a11 / a01
    d20 = (a10 * a20 + a01 * b20 - a10 * b11
           - a10 ** 2 * a11 / a01 + a10 ** 2 * b02 / a01)
    d11 = b11 + a10 * a11 / a01 - 2.0 * a10 * b02 / a01
    return ((a00, a10, a01, a20, a11, a02, a00, c20, c11, a00 * a10),
            (0.0, b10, b01, b20, b11, b02, 0.0, 0.0 + eta2 * (base.m - x7), d20, d11, b02 / a01))


def _ladder(eta1_half: tuple[float, ...],
            eta2_half: tuple[float, ...]) -> tuple[tuple[float, ...], bool]:
    """Stages e to l of the chain on one point's halves; returns (their
    coefficients in _LADDER_KEYS order, mirrored)."""
    c00, c20, c11, d00 = eta1_half[6:]
    d10, d01, d20, d11, d02 = eta2_half[6:]

    # flatten the first equation: v3 = du2/dt (exact quadratic coefficients
    # of the transformed second equation, including the perturbation-sized
    # corrections through c00)
    e00 = d00 - c00 * d01 + c00**2 * d02
    e10 = d10 + c11 * d00 - c00 * d11 - c00**2 * c11 * d02
    e01 = d01 - c00 * c11 - 2.0 * c00 * d02
    e20 = (d20 - c20 * d01 + c11 * d10
           + 2.0 * c00 * c20 * d02 + c00**2 * c11**2 * d02)
    e11 = d11 + 2.0 * c20 + c00 * c11**2 + 2.0 * c00 * c11 * d02
    e02 = d02 + c11

    # time reparametrisation dt = (1 - e02*u)dtau plus v4 = v3*(1 - e02*u3)
    f00, f10, f01 = e00, e10 - 2.0 * e00 * e02, e01
    f20 = e20 - 2.0 * e02 * e10 + e00 * e02 ** 2
    f11 = e11 - e01 * e02

    if abs(f20) <= F20_RTOL * max(1.0, abs(f11)):
        raise SignAssumptionViolated("quadratic coefficient f20 vanishes; chain inapplicable")
    mirrored = f20 > 0
    if mirrored:
        # mirrored branch: (v, t) -> (-v, -t) flips the sign of f20
        f00, f10, f20 = -f00, -f10, -f20

    k = math.sqrt(-f20)
    g00, g10, g01, g11 = -f00 / f20, -f10 / f20, f01 / k, f11 / k
    h00, h01, h11 = g00 + 0.25 * g10 ** 2, g01 + 0.5 * g10 * g11, g11
    return (e00, e10, e01, e20, e11, e02, f00, f10, f01, f20, f11, g00, g10, g01, g11,
            h00, h01, h11, -h00 * h11 ** 4, -h01 * h11), mirrored


def _unfolding_jacobian_det(base: ModelParams) -> float:
    """|det d(l00, l01)/d(eta)| at eta = 0, in closed form.

    On the anchored chain e00 = 0 wherever eta1 = 0, so dl00/deta2 = 0 and
    the determinant is dl00/deta1 * dl01/deta2 = (-h11**4 * a10/f20) *
    (-h11 * (m - x7)/k).  With a10 = q*x7, f20 = -q/2 and f11 = -w,
    w = s1 + 2 + q, its size is 16 x7 |m - x7| w**5 / q**3, taken in
    factors that do not overflow on the way.
    """
    q, x7, w = base.q, 2.0 * base.h, base.s + 2.0 + base.q
    return 16.0 * (x7 * w) * (abs(base.m - x7) * w) * (w / q) ** 3


def bt_normal_form(p_base: ModelParams, eta: tuple[float, float] = (0.0, 0.0)) -> BTReport:
    """Run the Bogdanov-Takens chain for a perturbation (eta1, eta2) of
    (h, s) around the cusp point.

    p_base must sit exactly on the cusp (h = h3, s = s1, m != 2*h3); the
    perturbation must stay small (|eta| <= 1e-2).  The report carries every
    intermediate coefficient set, the final unfolding pair (l00, l01), and
    the determinant of the Jacobian of (l00, l01) with respect to eta at 0,
    in its closed form on the cusp base.
    """
    grid = _bt_grid(p_base, [eta])
    cell = {name: getattr(grid, name)[0]
            for name in ("l00", "l01", "f20", "f11", "h11", "mirrored", "jac_det")}
    ladder = {stage: {key: column[0] for key, column in keys.items()}
              for stage, keys in grid.ladder.items()}
    return BTReport(eta=eta, ladder=ladder, verdict=grid.verdict, **cell)


def _bt_grid(p_base: ModelParams, etas: list[tuple[float, float]]) -> BTReport:
    """bt_normal_form at each of `etas`, as one BTReport whose fields but
    the verdict are columns: tuples with one value per eta.

    The cusp base is checked once and its unfolding Jacobian is shared by
    every cell; each eta is checked and run through the chain in order, so
    a grid fails as its first failing point would alone.  The
    halves are kept by eta1 and by eta2: a point that brings a new eta1 or
    eta2 costs one expansion, so an N x N grid costs 2N - 1.
    """
    base = _check_cusp_base(p_base)
    eta1_halves, eta2_halves = {}, {}  # 0.0 and -0.0 share a key and their halves
    chains, mirrored = [], []
    for eta in etas:
        size = math.hypot(*eta)
        if size > 1e-2:
            raise ValueError(f"perturbation {eta} too large; the chain is local (|eta| <= 1e-2)")
        if size != size:  # a NaN, which no bound rejects
            raise ValueError(f"perturbation {eta} is not finite")
        eta1, eta2 = eta
        if not base.h + eta1 > 0:
            raise ValueError(f"perturbation {eta} exceeds h3 = {base.h}: h3 + eta1 must be > 0")
        if not base.s + eta2 > 0:
            raise ValueError(f"perturbation {eta} exceeds s1 = {base.s}: s1 + eta2 must be > 0")
        if eta1 not in eta1_halves or eta2 not in eta2_halves:
            halves = _halves(base, eta1, eta2)
            eta1_halves.setdefault(eta1, halves[0])
            eta2_halves.setdefault(eta2, halves[1])
        values, flipped = _ladder(eta1_halves[eta1], eta2_halves[eta2])
        chains.append(values)
        mirrored.append(flipped)
    jac_det = _unfolding_jacobian_det(base)
    eta1s, eta2s = zip(*etas)
    prey = list(zip(*map(eta1_halves.__getitem__, eta1s)))
    predator = list(zip(*map(eta2_halves.__getitem__, eta2s)))
    # stages a, b, c with d00, the rest of d, then e to l
    columns = iter([*prey[:6], *predator[:6], *prey[6:], *predator[6:], *zip(*chains)])
    stages = {stage: {key: next(columns) for key in keys} for stage, keys in _LADDER_KEYS}
    for (stage, key), (to_stage, to_key) in _PASSED_ON:  # one tuple, written once
        if all(map(operator.is_, stages[stage][key], stages[to_stage][to_key])):
            stages[to_stage][to_key] = stages[stage][key]
    f20 = stages["f"]["20"]
    if any(mirrored):  # the report's f20 is the one before mirroring
        f20 = tuple(-v if flipped else v for v, flipped in zip(f20, mirrored))
    return BTReport(
        eta=(eta1s, eta2s), ladder=stages, l00=stages["l"]["00"], l01=stages["l"]["01"],
        f20=f20, f11=stages["f"]["11"], h11=stages["h"]["11"], mirrored=tuple(mirrored),
        jac_det=(jac_det,) * len(etas),
        verdict=BTVerdict.BT_CODIM2 if jac_det > BT_JAC_DET_TOL else BTVerdict.DEGENERATE,
    )
