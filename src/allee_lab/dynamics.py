"""Simulation oracle: adaptive integration, limit-cycle detection, and
black-box equilibrium classification.

Everything here deliberately avoids the analytic machinery of the other
modules (classification is inferred from orbits, time scales from a
finite-difference Jacobian, a limit cycle is a root of the one-turn return
map), so it can serve as an independent cross-check on the closed-form
results.

Integration uses the embedded Dormand-Prince 5(4) pair with per-step error
control (`solve_ivp`) for two components on Python floats, the tableau in
locals and the field one closure call per stage (`_rhs`): of a cycle hunt's
6 us step (2-core Xeon, CPython 3.11) the six calls take about 1.7 us, the
stage sums the rest.  Its tableau, step-size controller, event location and
`nfev` count follow the usual RK45 solver contract.  The predator equation
is singular at x = 0, so every run carries a terminal "domain floor" event
instead of ever evaluating 1/x at rounding-scale prey densities.  A run may
take `MAX_STEPS` accepted steps; the reversed flows of
`classify_by_simulation` are the same field integrated backward in time.
The accuracy settings are fixed module constants: `integrate` runs at
`RTOL`/`ATOL` with no step cap, each turn of a cycle hunt at the tighter
`HUNT_RTOL`/`HUNT_ATOL` with steps of at most `HUNT_MAX_STEP`, and the
probes of `classify_by_simulation` at `PROBE_RTOL`/`PROBE_ATOL`; callers
choose only the horizon `t_max` (and a hunt's smallest radius).  Results
are lists of Python floats: nothing here imports numpy.
"""
from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_left
from types import SimpleNamespace
from typing import NamedTuple

from .errors import DomainViolation, NoCrossings, StepBudgetExceeded
from .model import ModelParams, State, _field, _linspace

__all__ = [
    "TerminalReason",
    "Trajectory",
    "CycleStability",
    "CycleDetection",
    "SimVerdict",
    "integrate",
    "detect_cycle",
    "classify_by_simulation",
]

DIVERGENCE_BOUND = 1e6  # |u| at which a run counts as diverged
X_FLOOR = 1e-8  # prey density at which every run stops (the domain floor)
CAPTURE_FRACTION = 0.8  # cycle hunts stay within this share of the center's x
PROBE_RADIUS = 1e-4  # distance of classify_by_simulation's probes from the point
MAX_STEPS = 200_000  # accepted steps one solve_ivp run may take
RTOL, ATOL = 1e-8, 1e-10  # integrate's tolerances; its steps are uncapped
# a cycle hunt's tolerances and step cap: its return map needs the tighter ones
HUNT_RTOL, HUNT_ATOL, HUNT_MAX_STEP = 1e-10, 1e-12, 1.0
PROBE_RTOL, PROBE_ATOL = 1e-9, 1e-13  # classify_by_simulation's probe runs
_SCAN_RATIO = 1.5  # a cycle hunt scans start radii start_radius * 1.5**k


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Sec. II.5) with Shampine's
# quartic dense output, in the usual RK45 floats.  Stage 2 has zero weight in
# B, E and P, so those sums skip it; _Pjk is P's weight of stage k in the
# power-j coefficient, and power 1 takes stage 1 alone.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21, _A31, _A32 = 1 / 5, 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                                -22 / 525, 1 / 40)
_P21, _P23, _P24, _P25, _P26, _P27 = (
    -8048581381 / 2820520608, 131558114200 / 32700410799, -1754552775 / 470086768,
    127303824393 / 49829197408, -282668133 / 205662961, 40617522 / 29380423)
_P31, _P33, _P34, _P35, _P36, _P37 = (
    8663915743 / 2820520608, -68118460800 / 10900136933, 14199869525 / 1410260304,
    -318862633887 / 49829197408, 2019193451 / 616988883, -110615467 / 29380423)
_P41, _P43, _P44, _P45, _P46, _P47 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10.0, -1 / 5
_EPS = sys.float_info.epsilon
_SQRT2 = 2**0.5
# where IEEE arithmetic would give inf or nan, Python floats raise one of these
_FLOAT_FAULTS = (ZeroDivisionError, OverflowError)


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def _initial_step(fun, t0, x, y, fx, fy, interval, max_step, d, rtol, atol) -> float:
    # the starting-step rule of Hairer, Norsett & Wanner, Sec. II.4
    try:
        sx, sy = atol + abs(x) * rtol, atol + abs(y) * rtol
        d0, d1 = _rms(x / sx, y / sy), _rms(fx / sx, fy / sy)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
        gx, gy = fun(t0 + h0 * d, (x + h0 * d * fx, y + h0 * d * fy))
        d2 = _rms((gx - fx) / sx, (gy - fy) / sy) / h0
    except _FLOAT_FAULTS:
        return 0.0  # h0 = 0 when the field is infinite, and the rule gives 0 then
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, max_step)


def _coefficients(k1, k3, k4, k5, k6, k7):
    # one component's coefficients, summed as sum() sums them, from 0 (so a -0.0
    # first term reads 0.0); power 1's zero weights add nothing to a finite k
    return (0.0 + k1,
            0.0 + k1 * _P21 + k3 * _P23 + k4 * _P24 + k5 * _P25 + k6 * _P26 + k7 * _P27,
            0.0 + k1 * _P31 + k3 * _P33 + k4 * _P34 + k5 * _P35 + k6 * _P36 + k7 * _P37,
            0.0 + k1 * _P41 + k3 * _P43 + k4 * _P44 + k5 * _P45 + k6 * _P46 + k7 * _P47)


def _dense_output(t_old, h, x_old, y_old, kx, ky):
    """The quartic interpolant `sol(t)` of one step from t_old to t_old + h."""
    (qx1, qx2, qx3, qx4), (qy1, qy2, qy3, qy4) = _coefficients(*kx), _coefficients(*ky)

    def sol(t):
        s1 = (t - t_old) / h
        s2 = s1 * s1
        s3 = s2 * s1
        s4 = s3 * s1
        return (x_old + h * (qx1 * s1 + qx2 * s2 + qx3 * s3 + qx4 * s4),
                y_old + h * (qy1 * s1 + qy2 * s2 + qy3 * s3 + qy4 * s4))

    return sol


def _brentq(f, xpre, xcur, xtol=4 * _EPS, rtol=4 * _EPS, maxiter=100) -> float:
    """Root of f bracketed by [xpre, xcur]: Brent's method as the classic
    `brentq` runs it, step for step; a zero divisor means bisect, as the
    inf or nan it gives in IEEE arithmetic does there."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations")


def solve_ivp(fun, t_span, y0, *, t_eval=None, events=None,
              rtol=1e-3, atol=1e-6, max_step=math.inf) -> SimpleNamespace:
    """Integrate `fun(t, (x, y)) -> (dx/dt, dy/dt)` by the RK45 contract.

    Standard RK45 initial step and controller (RMS error norm, safety 0.9,
    step factors 0.2-10, no growth right after a rejection); events located
    on the dense output, honouring `.terminal` and `.direction`; `t_eval`
    (ordered along `t_span`) sampled from it.  A stage that divides by zero
    or overflows rejects the step, as an inf or nan error norm does, so a
    blow-up ends in a step-size underflow.  Returns lists of floats: `t`,
    `y` as the pair `(xs, ys)`, and per event `t_events` (times) and
    `y_events` (`(x, y)` tuples), or None without `events`; then `status`
    (0 end of span, 1 terminal event, -1 step-size underflow) and `nfev`
    (2 + 6 per attempted step).  A run that needs more than `MAX_STEPS`
    accepted steps raises StepBudgetExceeded.  The keywords are scipy's for
    its default RK45, which has no `method` here.  Call sites look this name
    up at call time, so a caller can swap in a wrapper.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    x, y = float(y0[0]), float(y0[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    if not max_step > 0 or t0 == tf:
        raise ValueError("`max_step` and the length of `t_span` must be positive.")
    d = 1.0 if tf > t0 else -1.0
    samples = [float(v) for v in t_eval] if t_eval is not None else None
    n_sampled = 0
    evs = list(events or ())
    directions = [getattr(ev, "direction", 0) for ev in evs]
    terminal = [bool(getattr(ev, "terminal", False)) for ev in evs]
    t_events, y_events = [[] for _ in evs], [[] for _ in evs]
    g = [ev(t0, (x, y)) for ev in evs]

    t = t0
    k1x, k1y = fun(t, (x, y))
    h_abs = _initial_step(fun, t, x, y, k1x, k1y, abs(tf - t0), max_step, d, rtol, atol)
    nfev = 2
    ts, us = ([t0], [(x, y)]) if samples is None else ([], [])
    status = None
    budget, n_steps = MAX_STEPS, 0
    # bound once: the loop reads each of these every step, and a local is cheapest
    c2, c3, c4, c5, a21, a31, a32 = _C2, _C3, _C4, _C5, _A21, _A31, _A32
    a41, a42, a43, a51, a52, a53, a54 = _A41, _A42, _A43, _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor, exponent = _SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT
    sqrt, sqrt2, nextafter, toward = math.sqrt, _SQRT2, math.nextafter, d * math.inf
    n_evs = range(len(evs))
    while status is None:
        if n_steps == budget:
            raise StepBudgetExceeded(
                f"integration stopped after {budget} steps at t = {t!r} of {tf!r}: "
                "the step size is too small for this horizon"
            )
        n_steps += 1
        min_step = 10 * abs(nextafter(t, toward) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs * d
            if d * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)
            nfev += 6
            try:
                k2x, k2y = fun(t + c2 * h, (x + (a21 * k1x) * h, y + (a21 * k1y) * h))
                k3x, k3y = fun(t + c3 * h, (x + (a31 * k1x + a32 * k2x) * h,
                                            y + (a31 * k1y + a32 * k2y) * h))
                k4x, k4y = fun(t + c4 * h, (x + (a41 * k1x + a42 * k2x + a43 * k3x) * h,
                                            y + (a41 * k1y + a42 * k2y + a43 * k3y) * h))
                k5x, k5y = fun(t + c5 * h, (
                    x + (a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x) * h,
                    y + (a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y) * h))
                k6x, k6y = fun(t + h, (
                    x + (a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x) * h,
                    y + (a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y) * h))
                x_new = x + h * (b1 * k1x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x)
                y_new = y + h * (b1 * k1y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
                u_new = (x_new, y_new)
                k7x, k7y = fun(t_new, u_new)
                ex = (e1 * k1x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x
                      + e7 * k7x) * h / (atol + max(abs(x), abs(x_new)) * rtol)
                ey = (e1 * k1y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y
                      + e7 * k7y) * h / (atol + max(abs(y), abs(y_new)) * rtol)
                error = sqrt(ex * ex + ey * ey) / sqrt2
            except _FLOAT_FAULTS:
                error = math.inf
            if error < 1:
                factor = (max_factor if error == 0
                          else min(max_factor, safety * error**exponent))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(min_factor, safety * error**exponent)
            rejected = True
        else:
            status = -1
            break
        t_old, x_old, y_old = t, x, y
        t, x, y, u = t_new, x_new, y_new, u_new
        if d * (t - tf) >= 0:
            status = 0
        active = ()
        for i in n_evs:  # g holds each event's value at the step's start, then its end
            a, b, s = g[i], evs[i](t, u), directions[i]
            g[i] = b
            if (s >= 0 and a <= 0 <= b) or (s <= 0 and a >= 0 >= b):
                active = [*active, i]
        if active or (samples is not None and n_sampled < len(samples)
                      and d * (samples[n_sampled] - t) <= 0):
            sol = _dense_output(t_old, h, x_old, y_old, (k1x, k3x, k4x, k5x, k6x, k7x),
                                (k1y, k3y, k4y, k5y, k6y, k7y))
        if active:
            hits = []
            for i in active:
                hits.append((i, _brentq(lambda tt, ev=evs[i]: ev(tt, sol(tt)), t_old, t)))
            if any(terminal[i] for i in active):
                hits.sort(key=lambda hit: d * hit[1])
                last = next(j for j, (i, _) in enumerate(hits) if terminal[i])
                del hits[last + 1:]
                status = 1
                t = hits[-1][1]
                x, y = u = sol(t)
            for i, te in hits:
                t_events[i].append(te)
                y_events[i].append(sol(te))
        if samples is None:
            ts.append(t)
            us.append(u)
        else:
            while n_sampled < len(samples) and d * (samples[n_sampled] - t) <= 0:
                ts.append(samples[n_sampled])
                us.append(sol(samples[n_sampled]))
                n_sampled += 1
        k1x, k1y = k7x, k7y
    has_events = events is not None
    return SimpleNamespace(
        t=ts, y=([u[0] for u in us], [u[1] for u in us]), status=status, nfev=nfev,
        t_events=t_events if has_events else None,
        y_events=y_events if has_events else None)


class TerminalReason(enum.Enum):
    HORIZON_REACHED = "HorizonReached"
    CONVERGED_TO_POINT = "ConvergedToPoint"
    HIT_DOMAIN_FLOOR = "HitDomainFloor"
    DIVERGED = "Diverged"


class Trajectory(NamedTuple):
    t: list[float]
    x: list[float]
    y: list[float]
    terminal: TerminalReason


def _rhs(p: ModelParams):
    # model._field in one frame; reversed flows run it backward, over (t0, -t_end)
    q, s, h, m = p.q, p.s, p.h, p.m

    def field(t, u):
        x, y = u
        return x * (1.0 - x) - q * x * y - h, s * y * (1.0 - y / x) * (y - m)

    return field


def _event(g, direction: float, terminal: bool = True):
    """Mark `g(t, u)` as a solver event: its zeros count when g rises
    (direction +1), falls (-1) or either (0); a terminal one ends the run."""
    g.direction = direction
    g.terminal = terminal
    return g


def _floor_event():
    return _event(lambda t, u: u[0] - X_FLOOR, -1.0)


def _ball_event(center: State, radius: float, direction: float):
    """|u - center|^2 - radius^2: direction +1 leaves the ball, -1 enters it."""
    cx, cy, r2 = center.x, center.y, radius * radius

    def ev(t, u):
        dx, dy = u[0] - cx, u[1] - cy
        return dx * dx + dy * dy - r2

    return _event(ev, direction)


def _divergence_event():
    return _ball_event(State(0.0, 0.0), DIVERGENCE_BOUND, 1.0)


def _check_start(u0: State) -> None:
    """Reject a state off the domain: ValueError, or DomainViolation for y < 0."""
    if not (math.isfinite(u0.x) and math.isfinite(u0.y)):
        raise ValueError(f"state ({u0.x}, {u0.y}) not admissible: a coordinate is not finite")
    if not u0.x > X_FLOOR:
        raise ValueError(f"state ({u0.x}, {u0.y}) not admissible: x must exceed the floor {X_FLOOR}")
    if u0.y < 0:
        raise DomainViolation(f"predator density must be non-negative, got y = {u0.y}")


def _check_run(u0: State, t_max: float) -> None:
    """Reject a horizon that is not positive and finite, and a start off the domain."""
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if t_max == math.inf:
        raise ValueError("t_max must be finite")
    _check_start(u0)


def integrate(p: ModelParams, u0: State, *, t_max: float = 200.0) -> Trajectory:
    """Integrate from u0 until the horizon t_max, the domain floor, or divergence.

    The terminal tag distinguishes four outcomes: the horizon was reached
    while still moving, the orbit settled onto a point (speed and recent
    displacement both negligible), the prey density hit the floor
    `X_FLOOR`, or the solution blew up / the stepper failed.
    """
    _check_run(u0, t_max)
    sol = solve_ivp(_rhs(p), (0.0, t_max), (u0.x, u0.y), rtol=RTOL, atol=ATOL,
                    events=[_floor_event(), _divergence_event()])
    t, (xs, ys) = sol.t, sol.y
    if sol.status == 1:
        terminal = (
            TerminalReason.HIT_DOMAIN_FLOOR if len(sol.t_events[0]) else TerminalReason.DIVERGED
        )
    elif sol.status < 0:
        terminal = TerminalReason.DIVERGED  # step-size underflow / solver failure
    else:
        terminal = TerminalReason.HORIZON_REACHED
        speed = math.hypot(*_field(p.q, p.s, p.h, p.m, xs[-1], ys[-1]))
        tail = bisect_left(t, t[-1] - 0.1 * t_max)
        tail_x, tail_y = xs[tail:], ys[tail:]
        drift = math.hypot(max(tail_x) - min(tail_x), max(tail_y) - min(tail_y))
        if speed <= 1e-8 * (1.0 + math.hypot(xs[-1], ys[-1])) and drift <= 1e-6:
            terminal = TerminalReason.CONVERGED_TO_POINT
    return Trajectory(t=t, x=xs, y=ys, terminal=terminal)


class CycleStability(enum.Enum):
    ATTRACTING = "Attracting"
    REPELLING = "Repelling"
    INCONCLUSIVE = "Inconclusive"


class CycleDetection(NamedTuple):
    found: bool
    period: float | None
    amplitude: float | None
    section_crossings: list[float]
    stability: CycleStability


def _one_turn(p: ModelParams, center: State, r: float, orientation: float,
              t_max: float) -> tuple[float, float] | None:
    """One turn of the return map: (x, time) of the first crossing of
    {y = yc, x > xc} in `orientation` (+1 rising) after leaving (xc + r, yc).

    The turn runs as two half-turns, each ended by the section line in one
    orientation.  The section is zero at each half's start, where a
    terminal event of the orbit's own orientation would fire at once, so
    the first half ends at the crossing of the other orientation and the
    second at the next one of the start's.  The return is undefined (None)
    if the start is outside the capture ball or not a transversal crossing
    in `orientation`, or if the orbit leaves the ball, reaches the domain
    floor, returns at x <= xc or not within `t_max`.
    """
    rhs = _rhs(p)
    xc, yc = center.x, center.y
    ball = CAPTURE_FRACTION * xc
    if not (r < ball and orientation * rhs(0.0, (xc + r, yc))[1] > 1e-10):
        return None
    stops = [_floor_event(), _ball_event(center, ball, 1.0)]
    t, u = 0.0, (xc + r, yc)
    for direction in (-orientation, orientation):
        section = _event(lambda t, u: u[1] - yc, direction)
        sol = solve_ivp(rhs, (t, t_max), u, rtol=HUNT_RTOL, atol=HUNT_ATOL,
                        max_step=HUNT_MAX_STEP, events=[section, *stops])
        if not sol.t_events[0]:
            return None
        t, u = sol.t_events[0][0], sol.y_events[0][0]
    return (u[0], t) if u[0] > xc else None


def _one_period(p: ModelParams, center: State, x_start: float, t_end: float) -> float:
    sol = solve_ivp(_rhs(p), (0.0, t_end), (x_start, center.y), rtol=HUNT_RTOL,
                    atol=HUNT_ATOL, t_eval=_linspace(0.0, t_end, 2000))
    return max(math.hypot(x - center.x, y - center.y) for x, y in zip(*sol.y))


def detect_cycle(p: ModelParams, center: State, *, t_max: float = 6000.0,
                 start_radius: float = 1e-2) -> CycleDetection:
    """Look for a limit cycle around a focus-type equilibrium.

    A cycle through (xc + r, yc) is a root of d(r) = P(r) - r, where P is
    the one-turn return map to the section {y = yc, x > xc}, crossed in the
    orientation the flow has at the start (Perko, Differential Equations
    and Dynamical Systems, section 3.4).  The hunt scans r = start_radius *
    1.5**k outward and stops at the first r where P is undefined: the orbit
    leaves the capture ball, reaches the domain floor or does not return
    within `t_max`, so that start lies outside every cycle inside the ball.
    The first sign change of d is refined by Illinois regula falsi until
    the bracket is within the hunt's accuracy at the section; d falling
    through zero means an attracting cycle, d rising a repelling one.  The
    period is the time of the final turn, the amplitude the largest
    distance from the center over one period from its start, and
    `section_crossings` lists P(r) (an x) for every turn computed.  With no
    sign change the result is Inconclusive.

    The capture ball has radius `CAPTURE_FRACTION` times the center's x,
    the distance to the singular axis x = 0.  Each turn runs for at most
    `t_max`, at the hunt's fixed accuracy `HUNT_RTOL`, `HUNT_ATOL` and
    `HUNT_MAX_STEP`.  The start must lie in the domain, as for `integrate`,
    and `start_radius` must be positive (else ValueError); where the flow
    does not cross the section there transversally, the hunt raises
    NoCrossings.
    """
    start = State(center.x + start_radius, center.y)
    _check_run(start, t_max)
    if not start_radius > 0:
        raise ValueError("start_radius must be positive")
    f2 = _rhs(p)(0.0, (start.x, start.y))[1]
    if abs(f2) <= 1e-10:
        raise NoCrossings("orbit does not cross the section through the center transversally")
    orientation = math.copysign(1.0, f2)
    crossings: list[float] = []

    def gap(r: float) -> tuple[float, float] | None:
        # d(r) and the turn's time, or None where P(r) is undefined
        turn = _one_turn(p, center, r, orientation, t_max)
        if turn is None:
            return None
        crossings.append(turn[0])
        return turn[0] - center.x - r, turn[1]

    def inconclusive() -> CycleDetection:
        return CycleDetection(found=False, period=None, amplitude=None,
                              section_crossings=crossings,
                              stability=CycleStability.INCONCLUSIVE)

    r_a = d_a = None
    r_b = start_radius
    while True:
        turn = gap(r_b)
        if turn is None:
            return inconclusive()
        d_b, period = turn
        if d_a is not None and (d_a < 0) != (d_b < 0):
            break
        r_a, d_a, r_b = r_b, d_b, r_b * _SCAN_RATIO
    stability = CycleStability.REPELLING if d_a < 0 else CycleStability.ATTRACTING
    while d_b != 0 and abs(r_b - r_a) > HUNT_ATOL + HUNT_RTOL * (center.x + r_b):
        r = r_b - d_b * (r_b - r_a) / (d_b - d_a)
        turn = gap(r)
        if turn is None:
            return inconclusive()
        if (turn[0] < 0) != (d_b < 0):
            r_a, d_a = r_b, d_b
        else:
            d_a /= 2  # Illinois: halve the end kept twice
        r_b, (d_b, period) = r, turn
    return CycleDetection(found=True, period=period,
                          amplitude=_one_period(p, center, center.x + r_b, period),
                          section_crossings=crossings, stability=stability)


class SimVerdict(enum.Enum):
    STABLE_NODE = "StableNode"
    STABLE_FOCUS = "StableFocus"
    STABLE = "StableNodeOrFocus"
    UNSTABLE_NODE = "UnstableNode"
    UNSTABLE_FOCUS = "UnstableFocus"
    UNSTABLE = "UnstableNodeOrFocus"
    SADDLE = "Saddle"
    INCONCLUSIVE = "Inconclusive"


def _fd_jacobian(p: ModelParams, x: float, y: float, step: float = 1e-6):
    """(df1/dx, df1/dy, df2/dx, df2/dy) by central differences: the
    oracle-side Jacobian uses no closed forms."""
    if x - step <= 0:
        raise ValueError(f"x = {x} is within the finite-difference step {step} of x = 0")
    q, s, h, m = p.q, p.s, p.h, p.m
    (fx1, fx2), (bx1, bx2) = _field(q, s, h, m, x + step, y), _field(q, s, h, m, x - step, y)
    (fy1, fy2), (by1, by2) = _field(q, s, h, m, x, y + step), _field(q, s, h, m, x, y - step)
    w = 2 * step
    return (fx1 - bx1) / w, (fy1 - by1) / w, (fx2 - bx2) / w, (fy2 - by2) / w


def _winding(xs: list[float], ys: list[float], cx: float, cy: float) -> float:
    """|Total angle| the points turn about (cx, cy), unwrapped as np.unwrap
    does: a step of more than pi one way is taken as less than pi the other."""
    angles = [math.atan2(y - cy, x - cx) for x, y in zip(xs, ys)]
    turns = 0
    for a, b in zip(angles, angles[1:]):
        if b - a > math.pi:
            turns -= 1
        elif b - a < -math.pi:
            turns += 1
    return abs(angles[-1] - angles[0] + 2 * math.pi * turns)


def _probe(p: ModelParams, center: State, u0: tuple[float, float], events: list,
           t_end: float, max_step: float) -> tuple[str, float]:
    """Integrate one probe over (0, t_end); returns (outcome, |winding angle|).

    `events` are the inner ball, the outer ball and the floor.  Outcome is
    'A' if the probe fell into the inner ball, 'E' if it left the outer
    one (or the domain), 'U' otherwise.
    """
    sol = solve_ivp(
        _rhs(p), (0.0, t_end), u0,
        rtol=PROBE_RTOL, atol=PROBE_ATOL, max_step=max_step, events=events,
    )
    winding = _winding(*sol.y, center.x, center.y)
    if sol.status == 0:
        return "U", winding
    return ("A" if sol.status == 1 and len(sol.t_events[0]) else "E"), winding


def classify_by_simulation(p: ModelParams, e) -> SimVerdict:
    """Infer the local type of an equilibrium from trajectories.

    Eight probes at distance `PROBE_RADIUS` are integrated forward and (all
    over again) in reversed time, each until it comes within PROBE_RADIUS/100
    of the point or gets 100*PROBE_RADIUS away.  Attraction patterns decide
    stability:

        forward all-in,  reversed all-out  ->  stable node/focus
        forward all-out, reversed all-in   ->  unstable node/focus
        forward all-out, reversed all-out  ->  saddle (saddles survive
                                               time reversal)

    The node/focus refinement combines the accumulated winding angle with
    the measured (finite-difference) linearisation; see `subtype` below.
    Any other pattern, or probes that cannot decide within the horizon, is
    reported Inconclusive rather than guessed.  `e` is anything with x/y
    attributes (an Equilibrium or a State); a point off the domain, as
    `integrate` checks it, or within the finite-difference step of x = 0
    raises ValueError (DomainViolation for y < 0).
    """
    xc, yc = float(e.x), float(e.y)
    center = State(xc, yc)
    _check_start(center)
    j11, j12, j21, j22 = _fd_jacobian(p, xc, yc)
    tr_fd, det_fd = j11 + j22, j11 * j22 - j12 * j21
    disc_fd = tr_fd * tr_fd - 4.0 * det_fd
    # the slowest rate |Re lambda| and the rotation |Im lambda|; of two real
    # roots the small one is det / large root, which does not cancel
    if disc_fd < 0:
        min_rate, rot = abs(tr_fd) / 2, math.sqrt(-disc_fd) / 2
    else:
        large = (tr_fd + math.copysign(math.sqrt(disc_fd), tr_fd)) / 2
        min_rate, rot = (abs(det_fd / large) if large else 0.0), 0.0
    if not min_rate >= 1e-6:
        return SimVerdict.INCONCLUSIVE  # effectively non-hyperbolic at probe scale
    t_max = min(3000.0, max(50.0, 30.0 / min_rate))
    max_step = 0.7 / max(rot, 1.0 / t_max)
    events = [_ball_event(center, PROBE_RADIUS * 1e-2, -1.0),
              _ball_event(center, PROBE_RADIUS * 1e2, 1.0), _floor_event()]

    outcomes: dict[bool, list[str]] = {False: [], True: []}
    windings: dict[bool, list[float]] = {False: [], True: []}
    for reverse in (False, True):
        for k in range(8):
            # small offset keeps probes off the axis-aligned eigendirections
            # of the boundary/Allee-line saddles
            ang = 2.0 * math.pi * k / 8.0 + math.pi / 16.0
            u0 = (xc + PROBE_RADIUS * math.cos(ang), yc + PROBE_RADIUS * math.sin(ang))
            if u0[0] <= X_FLOOR or u0[1] < 0.0:
                continue  # probe would start outside the admissible domain
            out, wind = _probe(p, center, u0, events, -t_max if reverse else t_max, max_step)
            outcomes[reverse].append(out)
            windings[reverse].append(wind)

    fwd, rev = outcomes[False], outcomes[True]
    if not fwd or not rev or "U" in fwd or "U" in rev:
        return SimVerdict.INCONCLUSIVE

    disc_margin = 1e-6 * max(1.0, j11 * j11 + j12 * j12 + j21 * j21 + j22 * j22)

    def subtype(stable: bool) -> SimVerdict:
        # Stability itself is decided purely from orbits.  The node/focus
        # subtype is not always orbit-decidable: a node's winding is
        # rigorously below pi, but a slowly rotating focus may also stay
        # below pi for the whole observable decay.  Windings above pi prove
        # a focus; otherwise the measured (finite-difference) linearisation
        # breaks the tie, and any conflict falls back to the composite.
        w = windings[False] if stable else windings[True]
        orbit_focus = min(w) >= 2.0 * math.pi or max(w) > 1.05 * math.pi
        if orbit_focus and disc_fd < disc_margin:
            return SimVerdict.STABLE_FOCUS if stable else SimVerdict.UNSTABLE_FOCUS
        if disc_fd < -disc_margin and not orbit_focus:
            return SimVerdict.STABLE_FOCUS if stable else SimVerdict.UNSTABLE_FOCUS
        if disc_fd > disc_margin and not orbit_focus:
            return SimVerdict.STABLE_NODE if stable else SimVerdict.UNSTABLE_NODE
        return SimVerdict.STABLE if stable else SimVerdict.UNSTABLE

    if all(o == "A" for o in fwd) and all(o == "E" for o in rev):
        return subtype(stable=True)
    if all(o == "E" for o in fwd) and all(o == "A" for o in rev):
        return subtype(stable=False)
    # saddles escape in both time directions; tolerate a couple of probes
    # landing close enough to an invariant manifold to fall in instead
    if fwd.count("A") <= 2 and rev.count("A") <= 2:
        return SimVerdict.SADDLE
    return SimVerdict.INCONCLUSIVE
