"""Shared numerical oracles for the test suite.

The finite-difference derivative oracles differentiate the raw vector
field only; they never touch the closed-form derivative code they are
checking.  Third derivatives use Richardson-extrapolated central stencils
with steps scaled by x (the field's high derivatives grow like powers of
1/x).  The Bogdanov-Takens oracles difference the coefficient chain
itself, in floats or in mpmath at the exact cusp, to check the closed form
of its unfolding Jacobian.  `stepper_global_errors` measures the package's
integrator against scipy's DOP853.
"""
from __future__ import annotations

import contextlib
import math
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np

from allee_lab import bifurcations, dynamics
from allee_lab.model import ModelParams, _field


def random_params(rng: np.random.Generator) -> ModelParams:
    return ModelParams(
        q=rng.uniform(0.05, 4.0),
        s=rng.uniform(0.05, 4.0),
        h=rng.uniform(0.01, 0.35),
        m=rng.uniform(0.05, 0.95),
    )


def random_state(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(0.08, 1.8)), float(rng.uniform(0.0, 1.8))


def component(p: ModelParams, i: int):
    def f(x: float, y: float) -> float:
        return _field(p.q, p.s, p.h, p.m, x, y)[i]

    return f


def fd_gradient(f, x: float, y: float, h: float = 1e-6) -> tuple[float, float]:
    return (
        (f(x + h, y) - f(x - h, y)) / (2 * h),
        (f(x, y + h) - f(x, y - h)) / (2 * h),
    )


def fd_second(f, x: float, y: float, h: float = 1e-4) -> tuple[float, float, float]:
    fxx = (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / h**2
    fyy = (f(x, y + h) - 2 * f(x, y) + f(x, y - h)) / h**2
    fxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4 * h**2)
    return fxx, fxy, fyy


def _d3_xxx(f, x, y, h):
    return (f(x + 2 * h, y) - 2 * f(x + h, y) + 2 * f(x - h, y) - f(x - 2 * h, y)) / (2 * h**3)


def _d3_yyy(f, x, y, h):
    return (f(x, y + 2 * h) - 2 * f(x, y + h) + 2 * f(x, y - h) - f(x, y - 2 * h)) / (2 * h**3)


def _d3_xxy(f, x, y, h):
    return ((f(x + h, y + h) - 2 * f(x, y + h) + f(x - h, y + h))
            - (f(x + h, y - h) - 2 * f(x, y - h) + f(x - h, y - h))) / (2 * h**3)


def _d3_xyy(f, x, y, h):
    return ((f(x + h, y + h) - 2 * f(x + h, y) + f(x + h, y - h))
            - (f(x - h, y + h) - 2 * f(x - h, y) + f(x - h, y - h))) / (2 * h**3)


def _richardson(stencil, f, x, y, h):
    return (4.0 * stencil(f, x, y, h / 2) - stencil(f, x, y, h)) / 3.0


def fd_third(f, x: float, y: float, scale_with_x: bool) -> tuple[float, float, float, float]:
    """(f_xxx, f_xxy, f_xyy, f_yyy) by Richardson-extrapolated stencils."""
    h = 4e-3 * x if scale_with_x else 1e-2
    return (
        _richardson(_d3_xxx, f, x, y, h),
        _richardson(_d3_xxy, f, x, y, h),
        _richardson(_d3_xyy, f, x, y, h),
        _d3_yyy(f, x, y, 1e-2),  # cubic in y: stencil is exact, large step kills roundoff
    )


def bt_jacobian_det_fd(base: ModelParams, step):
    """|det d(l00, l01)/d(eta)| at eta = 0 by central differences of the
    Bogdanov-Takens chain at `base`, in the number type of base and step."""
    def column(d1, d2):
        plus, _ = bifurcations._ladder(*bifurcations._halves(base, d1, d2))
        minus, _ = bifurcations._ladder(*bifurcations._halves(base, -d1, -d2))
        return [(a - b) / (2 * step) for a, b in zip(plus[-2:], minus[-2:])]

    (a, c), (b, d) = column(step, 0 * step), column(0 * step, step)
    return abs(a * d - b * c)


@contextlib.contextmanager
def mp_cusp_chain(q: float, m: float, digits: int = 50):
    """Run the chain in mpmath at `digits` digits, its one square root
    mpmath's; yields the exact cusp base of (q, m), h3 and s1 unrounded."""
    with mpmath.workdps(digits), mock.patch.object(bifurcations, "math",
                                                   SimpleNamespace(sqrt=mpmath.sqrt)):
        q, m = mpmath.mpf(q), mpmath.mpf(m)
        h3 = 1 / (4 * (q + 1))
        yield ModelParams(q, (4 * h3 - 1) / (2 * (m - 2 * h3)), h3, m)


def rel_err(analytic: float, approx: float) -> float:
    return abs(analytic - approx) / max(1.0, abs(analytic))


def stepper_global_errors(tols=(1e-6, 1e-8, 1e-10)) -> list[float]:
    """Global error at t = 1 of `dynamics.solve_ivp` on the model flow at
    (q, s, h, m) = (1, 1, 0.21, 0.2) from (0.8, 0.3), one per rtol in `tols`
    (atol 100 times smaller), against scipy's DOP853 at rtol 1e-13."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    p = ModelParams(q=1.0, s=1.0, h=0.21, m=0.2)
    ref = scipy_solve_ivp(lambda t, u: _field(p.q, p.s, p.h, p.m, *u), (0.0, 1.0), (0.8, 0.3),
                          method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
    errors = []
    for tol in tols:
        sol = dynamics.solve_ivp(p, (0.0, 1.0), (0.8, 0.3), rtol=tol, atol=tol * 1e-2,
                                 max_step=math.inf)
        errors.append(math.hypot(sol.y[0][-1] - ref[0], sol.y[1][-1] - ref[1]))
    return errors
