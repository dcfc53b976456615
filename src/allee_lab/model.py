"""The harvested Leslie-Gower predator-prey system with a predator Allee effect.

Dimensional form (densities x = prey, y = predator):

    dx/dt = r*x*(1 - x/K) - q*x*y - h
    dy/dt = s*y*(1 - y/(b*x))*(y - m)

Rescaling state and time (x/K, y/(bK), r*t) gives the dimensionless system
analysed everywhere else in this package:

    dx/dt = x*(1 - x) - q*x*y - h
    dy/dt = s*y*(1 - y/x)*(y - m),        0 < m < 1

The prey equation is a quadratic polynomial in (x, y); every partial of it
of order >= 3 vanishes identically.  The predator equation is rational in x
and singular at x = 0, so all operations reject states with x <= 0.

All functions here are pure: derivatives are hand-derived closed forms
(cross-checked against finite differences in the test suite), never
finite-difference approximations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlleeThresholdOutOfRange,
    DomainViolation,
    NonFiniteParameter,
    NonPositiveParameter,
)

__all__ = [
    "DimensionalParams",
    "ModelParams",
    "State",
    "DerivativeBundle",
    "nondimensionalize",
    "vector_field",
    "derivatives",
]


def _check_positive_finite(params, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise NonFiniteParameter(f"{name} must be finite, got {value}")
        if not value > 0:
            raise NonPositiveParameter(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class DimensionalParams:
    """Parameters of the dimensional system.

    r : intrinsic prey growth rate (1/time)
    K : prey carrying capacity (density)
    q : predation rate (1/(density*time))
    b : predator-to-prey carrying-capacity ratio (dimensionless)
    s : predator growth rate (1/(density*time))
    h : constant harvest intensity (density/time)
    m : Allee threshold (density)
    """

    r: float
    K: float
    q: float
    b: float
    s: float
    h: float
    m: float

    def __post_init__(self) -> None:
        _check_positive_finite(self, ("r", "K", "q", "b", "s", "h", "m"))


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless parameter vector (q, s, h, m); requires 0 < m < 1."""

    q: float
    s: float
    h: float
    m: float

    def __post_init__(self) -> None:
        _check_positive_finite(self, ("q", "s", "h", "m"))
        if not self.m < 1:
            raise AlleeThresholdOutOfRange(f"m must lie in (0, 1), got {self.m}")


@dataclass(frozen=True)
class State:
    """A point (x, y) of the phase plane; admissible states have x > 0, y >= 0."""

    x: float
    y: float


@dataclass(frozen=True)
class DerivativeBundle:
    """Vector field plus all partials needed by the normal-form machinery.

    Holds the field value, the Jacobian, all second-order partials, and the
    third-order partials of the predator component only: the prey component
    is quadratic, so its third-order partials are identically zero and are
    not stored.
    """

    f1: float
    f2: float
    f1_x: float
    f1_y: float
    f2_x: float
    f2_y: float
    f1_xx: float
    f1_xy: float
    f1_yy: float
    f2_xx: float
    f2_xy: float
    f2_yy: float
    f2_xxx: float
    f2_xxy: float
    f2_xyy: float
    f2_yyy: float

    @property
    def f(self) -> np.ndarray:
        return np.array([self.f1, self.f2])

    @property
    def jacobian(self) -> np.ndarray:
        return np.array([[self.f1_x, self.f1_y], [self.f2_x, self.f2_y]])


def nondimensionalize(p: DimensionalParams) -> ModelParams:
    """Rescale a dimensional parameter set to the dimensionless one.

    Uses x -> x/K, y -> y/(bK), t -> r*t, which maps the parameters to

        q' = b*q*K/r,  s' = s*b*K/r,  h' = h/(K*r),  m' = m/(b*K).

    Raises AlleeThresholdOutOfRange if the rescaled Allee threshold does not
    land in (0, 1).
    """
    bk = p.b * p.K
    m_nd = p.m / bk
    if m_nd >= 1:
        raise AlleeThresholdOutOfRange(
            f"rescaled Allee threshold m/(b*K) = {m_nd} must be < 1"
        )
    return ModelParams(q=p.b * p.q * p.K / p.r, s=p.s * bk / p.r, h=p.h / (p.K * p.r), m=m_nd)


def _field(q: float, s: float, h: float, m: float, x: float, y: float) -> tuple[float, float]:
    # hot path shared with the integrator; no State/dataclass overhead
    return x * (1.0 - x) - q * x * y - h, s * y * (1.0 - y / x) * (y - m)


def _jacobian(q: float, s: float, m: float, x: float, y: float) -> tuple[float, float, float, float]:
    # (f1_x, f1_y, f2_x, f2_y); arithmetic only like _field, so arrays work too
    g = y * y * (y - m)
    g_y = 3.0 * y * y - 2.0 * m * y
    ix = 1.0 / x
    return 1.0 - 2.0 * x - q * y, -q * x, s * g * (ix * ix), s * (2.0 * y - m - g_y * ix)


def vector_field(p: ModelParams, u: State) -> np.ndarray:
    """Evaluate the dimensionless vector field at a state with x > 0."""
    if not u.x > 0:
        raise DomainViolation(f"prey density must be positive, got x = {u.x}")
    return np.array(_field(p.q, p.s, p.h, p.m, u.x, u.y))


def derivatives(p: ModelParams, u: State) -> DerivativeBundle:
    """Evaluate the field and all partials up to third order analytically.

    The predator component is written as f2 = s*(y^2 - m*y - g/x) with
    g = y^3 - m*y^2, so the x-dependence sits entirely in the 1/x factor.
    """
    if not u.x > 0:
        raise DomainViolation(f"prey density must be positive, got x = {u.x}")
    q, s, m = p.q, p.s, p.m
    x, y = u.x, u.y

    g = y * y * (y - m)                # y^3 - m y^2
    g_y = 3.0 * y * y - 2.0 * m * y
    g_yy = 6.0 * y - 2.0 * m
    ix = 1.0 / x
    ix2 = ix * ix

    # positional: keyword arguments make this hot constructor slower
    return DerivativeBundle(
        *_field(q, s, p.h, m, x, y),    # f1, f2
        *_jacobian(q, s, m, x, y),      # f1_x, f1_y, f2_x, f2_y
        -2.0, -q, 0.0,                  # f1_xx, f1_xy, f1_yy
        -2.0 * s * g * ix2 * ix,        # f2_xx
        s * g_y * ix2,                  # f2_xy
        s * (2.0 - g_yy * ix),          # f2_yy
        6.0 * s * g * ix2 * ix2,        # f2_xxx
        -2.0 * s * g_y * ix2 * ix,      # f2_xxy
        s * g_yy * ix2,                 # f2_xyy
        -6.0 * s * ix,                  # f2_yyy
    )
