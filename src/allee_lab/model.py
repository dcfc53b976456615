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

All functions here are pure.  `derivatives` returns the local expansion
as one record, the Taylor coefficients up to third order written in closed
form (cross-checked against finite differences in the test suite, never
approximated by them); linearisation, classification and the normal forms
all read that record.  Only `vector_field` and `TaylorCoefficients.jacobian`
return arrays; they import numpy when called.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

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
    "TaylorCoefficients",
    "nondimensionalize",
    "vector_field",
    "derivatives",
]

if TYPE_CHECKING:
    import numpy as np


def _check_positive_finite(values) -> None:
    # values: (name, value) pairs
    for name, value in values:
        if not math.isfinite(value):
            raise NonFiniteParameter(f"{name} must be finite, got {value}")
        if not value > 0:
            raise NonPositiveParameter(f"{name} must be > 0, got {value}")


def _check_allee_threshold(m: float) -> None:
    if not m < 1:
        raise AlleeThresholdOutOfRange(f"m must lie in (0, 1), got {m}")


class _Checked:
    """Base of a named-tuple record whose `_check` runs on every record
    built: by the constructor, by `_make` and so by `_replace`, which
    builds through `_make`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _DimensionalFields(NamedTuple):
    r: float
    K: float
    q: float
    b: float
    s: float
    h: float
    m: float


class DimensionalParams(_Checked, _DimensionalFields):
    """Parameters of the dimensional system.

    r : intrinsic prey growth rate (1/time)
    K : prey carrying capacity (density)
    q : predation rate (1/(density*time))
    b : predator-to-prey carrying-capacity ratio (dimensionless)
    s : predator growth rate (1/(density*time))
    h : constant harvest intensity (density/time)
    m : Allee threshold (density)
    """

    __slots__ = ()

    def _check(self) -> None:
        _check_positive_finite(zip(self._fields, self))


class _ModelFields(NamedTuple):
    q: float
    s: float
    h: float
    m: float


class ModelParams(_Checked, _ModelFields):
    """Dimensionless parameter vector (q, s, h, m); requires 0 < m < 1."""

    __slots__ = ()

    def _check(self) -> None:
        _check_positive_finite(zip(self._fields, self))
        _check_allee_threshold(self.m)


class State(NamedTuple):
    """A point (x, y) of the phase plane; admissible states have x > 0, y >= 0."""

    x: float
    y: float


class TaylorCoefficients(NamedTuple):
    """Taylor coefficients (i + j <= 3) of both components around a point.

    a_ij multiplies dx^i dy^j in the prey component, b_ij in the predator
    component, so a_ij = (d^(i+j) f1 / dx^i dy^j) / (i! j!).  The prey
    component is quadratic: a02 and every a_ij with i + j = 3 are zero.
    A named tuple, as every record of the package: `derivatives` builds
    one per call.
    """

    a00: float
    a10: float
    a01: float
    a20: float
    a11: float
    a02: float
    a30: float
    a21: float
    a12: float
    a03: float
    b00: float
    b10: float
    b01: float
    b20: float
    b11: float
    b02: float
    b30: float
    b21: float
    b12: float
    b03: float

    @property
    def jacobian(self) -> np.ndarray:
        import numpy as np

        return np.array([[self.a10, self.a01], [self.b10, self.b01]])

    def evaluate(self, du: float, dv: float) -> tuple[float, float]:
        """Sum the expansion at displacement (du, dv) from the base point."""
        f1 = (self.a00 + self.a10 * du + self.a01 * dv
              + self.a20 * du * du + self.a11 * du * dv)
        f2 = (self.b00 + self.b10 * du + self.b01 * dv
              + self.b20 * du * du + self.b11 * du * dv + self.b02 * dv * dv
              + self.b30 * du**3 + self.b21 * du * du * dv
              + self.b12 * du * dv * dv + self.b03 * dv**3)
        return f1, f2


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
    # hot path shared with the integrator; no State record built
    return x * (1.0 - x) - q * x * y - h, s * y * (1.0 - y / x) * (y - m)


def _jacobian(q: float, s: float, m: float, x: float, y: float) -> tuple[float, float, float, float]:
    # (a10, a01, b10, b01); arithmetic only like _field, so arrays work too
    g = y * y * (y - m)
    g_y = 3.0 * y * y - 2.0 * m * y
    ix = 1.0 / x
    return 1.0 - 2.0 * x - q * y, -q * x, s * g * (ix * ix), s * (2.0 * y - m - g_y * ix)


def vector_field(p: ModelParams, u: State) -> np.ndarray:
    """Evaluate the dimensionless vector field at a state with x > 0."""
    if not u.x > 0:
        raise DomainViolation(f"prey density must be positive, got x = {u.x}")
    import numpy as np

    return np.array(_field(p.q, p.s, p.h, p.m, u.x, u.y))


def derivatives(p: ModelParams, u: State) -> TaylorCoefficients:
    """Taylor coefficients of the field up to third order, in closed form.

    The predator component is written as f2 = s*(y^2 - m*y - g/x) with
    g = y^3 - m*y^2, so the x-dependence sits entirely in the 1/x factor.
    """
    q, s, h, m = p  # unpacked: a named tuple's fields read slower one by one
    x, y = u
    if not x > 0:
        raise DomainViolation(f"prey density must be positive, got x = {x}")

    g = y * y * (y - m)                # y^3 - m y^2
    g_y = 3.0 * y * y - 2.0 * m * y
    g_yy = 6.0 * y - 2.0 * m
    ix = 1.0 / x
    ix2 = ix * ix
    a00, b00 = _field(q, s, h, m, x, y)
    a10, a01, b10, b01 = _jacobian(q, s, m, x, y)

    # positional: keyword arguments make this hot constructor slower
    return TaylorCoefficients(
        a00, a10, a01,
        -1.0, -q, 0.0,                  # a20, a11, a02
        0.0, 0.0, 0.0, 0.0,             # a30, a21, a12, a03
        b00, b10, b01,
        -s * g * ix2 * ix,              # b20
        s * g_y * ix2,                  # b11
        0.5 * (s * (2.0 - g_yy * ix)),  # b02
        # b30 and b03 keep the third partial's rounding: 6.0*s*ix/6.0 and
        # s*ix are not always the same double
        6.0 * s * g * ix2 * ix2 / 6.0,  # b30
        -s * g_y * ix2 * ix,            # b21
        0.5 * (s * g_yy * ix2),         # b12
        -6.0 * s * ix / 6.0,            # b03
    )


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    # np.linspace(lo, hi, n) in the same floats, without importing numpy
    delta = hi - lo
    if n == 1:
        return [0.0 * delta + lo]  # NaN, as numpy's, when delta overflows
    step = delta / (n - 1)
    if step == 0.0:  # an underflowing step: numpy scales i / (n - 1) instead
        values = [i / (n - 1) * delta + lo for i in range(n)]
    else:
        values = [i * step + lo for i in range(n)]
    values[-1] = hi
    return values
