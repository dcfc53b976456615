"""Simulation oracle: adaptive integration, limit-cycle detection, and
black-box equilibrium classification.

Everything here deliberately avoids the analytic machinery of the other
modules (classification is inferred from orbits, time scales from a
finite-difference Jacobian), so it can serve as an independent
cross-check on the closed-form results.

Integration uses an embedded Dormand-Prince 4(5) pair with per-step error
control.  The predator equation is singular at x = 0, so every run carries
a terminal "domain floor" event instead of ever evaluating 1/x at
rounding-scale prey densities.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainViolation, NoCrossings
from .model import ModelParams, State, _field

__all__ = [
    "IntegratorConfig",
    "TerminalReason",
    "Trajectory",
    "CycleStability",
    "CycleDetection",
    "SimVerdict",
    "integrate",
    "detect_cycle",
    "classify_by_simulation",
]

DIVERGENCE_BOUND = 1e6


def solve_ivp(*args, **kwargs):
    """`scipy.integrate.solve_ivp`, imported on the first integration.

    scipy takes most of the package's import time and only this module
    integrates, so the closed-form analyses never load it.  Call sites look
    this name up at call time, which lets a caller swap it for a wrapper.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = math.inf
    t_max: float = 200.0
    x_floor: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "max_step", "t_max", "x_floor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


class TerminalReason(enum.Enum):
    HORIZON_REACHED = "HorizonReached"
    CONVERGED_TO_POINT = "ConvergedToPoint"
    HIT_DOMAIN_FLOOR = "HitDomainFloor"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    terminal: TerminalReason

    @property
    def samples(self) -> np.ndarray:
        """(n, 3) array of rows (t, x, y)."""
        return np.column_stack([self.t, self.x, self.y])

    @property
    def final_state(self) -> State:
        return State(float(self.x[-1]), float(self.y[-1]))


def _rhs(p: ModelParams, reverse: bool = False):
    q, s, h, m = p.q, p.s, p.h, p.m
    sign = -1.0 if reverse else 1.0

    def rhs(t, u):
        f1, f2 = _field(q, s, h, m, u[0], u[1])
        return (sign * f1, sign * f2)

    return rhs


def _floor_event(cfg: IntegratorConfig):
    def ev(t, u):
        return u[0] - cfg.x_floor

    ev.terminal = True
    ev.direction = -1.0
    return ev


def _divergence_event():
    def ev(t, u):
        return u[0] * u[0] + u[1] * u[1] - DIVERGENCE_BOUND**2

    ev.terminal = True
    ev.direction = 1.0
    return ev


def integrate(p: ModelParams, u0: State, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate from u0 until the horizon, the domain floor, or divergence.

    The terminal tag distinguishes four outcomes: the horizon was reached
    while still moving, the orbit settled onto a point (speed and recent
    displacement both negligible), the prey density hit the configured
    floor, or the solution blew up / the stepper failed.
    """
    cfg = cfg or IntegratorConfig()
    if not (u0.x > cfg.x_floor and math.isfinite(u0.x) and math.isfinite(u0.y)):
        raise ValueError(f"initial state ({u0.x}, {u0.y}) not admissible (x must exceed the floor)")
    if u0.y < 0:
        raise DomainViolation(f"predator density must be non-negative, got y = {u0.y}")
    sol = solve_ivp(
        _rhs(p),
        (0.0, cfg.t_max),
        (u0.x, u0.y),
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        events=[_floor_event(cfg), _divergence_event()],
    )
    t, xs, ys = sol.t, sol.y[0], sol.y[1]
    if sol.status == 1:
        terminal = (
            TerminalReason.HIT_DOMAIN_FLOOR if len(sol.t_events[0]) else TerminalReason.DIVERGED
        )
    elif sol.status < 0:
        terminal = TerminalReason.DIVERGED  # step-size underflow / solver failure
    else:
        terminal = TerminalReason.HORIZON_REACHED
        speed = math.hypot(*_field(p.q, p.s, p.h, p.m, xs[-1], ys[-1]))
        tail = t >= t[-1] - 0.1 * cfg.t_max
        drift = math.hypot(
            float(xs[tail].max() - xs[tail].min()), float(ys[tail].max() - ys[tail].min())
        )
        if speed <= 1e-8 * (1.0 + math.hypot(xs[-1], ys[-1])) and drift <= 1e-6:
            terminal = TerminalReason.CONVERGED_TO_POINT
    return Trajectory(t=t, x=xs, y=ys, terminal=terminal)


class CycleStability(enum.Enum):
    ATTRACTING = "Attracting"
    REPELLING = "Repelling"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CycleDetection:
    found: bool
    period: float | None
    amplitude: float | None
    section_crossings: list[float]
    stability: CycleStability
    forward_terminal: TerminalReason | None = None


def _section_crossings(p: ModelParams, center: State, start: State, cfg: IntegratorConfig,
                       reverse: bool, capture_radius: float | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Times and x-locations of oriented crossings of {y = yc, x > xc}.

    The crossing orientation is fixed to "upward for the forward flow";
    reversed runs flip the event direction so they record the same
    geometric section.  Integration proceeds in windows and stops early
    once the return map has converged (or clearly spiralled into the
    center), which keeps long-horizon cycle hunts affordable.
    """
    rhs = _rhs(p, reverse)
    probe = rhs(0.0, (center.x + 1e-3, center.y))
    direction = 1.0 if probe[1] > 0 else -1.0

    def section(t, u):
        return u[1] - center.y

    section.direction = direction

    escape_r = capture_radius if capture_radius is not None else 0.8 * center.x

    def escape(t, u):
        return (u[0] - center.x) ** 2 + (u[1] - center.y) ** 2 - escape_r**2

    escape.terminal = True
    escape.direction = 1.0

    times: list[float] = []
    locs: list[float] = []
    window = max(cfg.t_max / 8.0, 100.0)
    t0 = 0.0
    u = (start.x, start.y)
    while t0 < cfg.t_max:
        sol = solve_ivp(
            rhs,
            (t0, min(t0 + window, cfg.t_max)),
            u,
            method="RK45",
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
            max_step=cfg.max_step,
            events=[section, _floor_event(cfg), escape],
        )
        te, ue = sol.t_events[0], sol.y_events[0]
        for t, state in zip(te, ue):
            # keep transversal crossings only; an orbit gliding inside the
            # section itself (invariant axis) fires the event every step
            if state[0] > center.x and abs(rhs(t, state)[1]) > 1e-10:
                times.append(float(t))
                locs.append(float(state[0]))
        if sol.status != 0:
            break  # left the capture region or hit the domain floor
        t0 = float(sol.t[-1])
        u = (float(sol.y[0, -1]), float(sol.y[1, -1]))
        radii = np.asarray(locs) - center.x
        if _analyze_returns(radii, cfg.abs_tol)[0]:
            break
        if len(radii) >= 12:
            tail = radii[-12:]
            d_last = abs(radii[-1] - radii[-2])
            # monotone spiral toward the center, still far from any cycle:
            # nothing to find inward of the start radius
            if (np.all(np.diff(tail) < 0)
                    and radii[-1] < 0.2 * (start.x - center.x)
                    and d_last > 1e-6):
                break
    return np.asarray(times), np.asarray(locs)


def _analyze_returns(radii: np.ndarray, abs_tol: float) -> tuple[bool, float | None]:
    """Attracting fixed radius of the return map, if the returns converge.

    Requires three successive return gaps below 1e-7 plus a certificate
    that the radius itself is settling at a positive value: either the
    gaps are negligible relative to the radius (stationary to solver
    precision), or the tail contracts visibly and its geometric
    extrapolation stays bounded away from zero.  A slow spiral into the
    center also drives the gaps below any fixed threshold, but its
    gap-to-radius ratio stays pinned at (1 - contraction factor), so both
    certificates reject it.
    """
    if len(radii) < 5:
        return False, None
    deltas = np.diff(radii)
    gaps = np.abs(deltas)
    if not bool((gaps[-3:] < 1e-7).all()):
        return False, None
    r_last = float(radii[-1])
    if r_last <= 10.0 * abs_tol:
        return False, None
    if gaps[-1] <= 1e-4 * r_last:
        return True, r_last
    if gaps[-2] > 0:
        ratio = gaps[-1] / gaps[-2]
        if ratio < 0.99:
            limit = float(r_last + deltas[-1] * ratio / (1.0 - ratio))
            if limit > 10.0 * abs_tol and limit > 0.5 * r_last:
                return True, limit
    return False, None


def _one_period(p: ModelParams, center: State, x_start: float, period: float,
                cfg: IntegratorConfig, reverse: bool) -> float:
    tt = np.linspace(0.0, period, 2000)
    sol = solve_ivp(
        _rhs(p, reverse),
        (0.0, period),
        (x_start, center.y),
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        t_eval=tt,
    )
    return float(np.hypot(sol.y[0] - center.x, sol.y[1] - center.y).max())


def detect_cycle(p: ModelParams, center: State, cfg: IntegratorConfig | None = None,
                 start_radius: float = 1e-2,
                 capture_radius: float | None = None) -> CycleDetection:
    """Look for a limit cycle around a focus-type equilibrium.

    Strategy: record returns to the horizontal section through the center
    (crossings with x > center.x, oriented with the forward flow).  If the
    forward returns converge to a fixed positive radius the cycle is
    attracting.  Otherwise the run is repeated with time reversed: an
    attracting cycle of the reversed flow is a repelling cycle of the
    forward flow.  Period comes from the final pair of crossing times,
    amplitude is the maximum distance from the center over one period.

    The hunt stays local: orbits leaving `capture_radius` (default: 80% of
    the center's distance to the singular axis) abandon the search.
    """
    cfg = cfg or IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_max=6000.0, max_step=1.0)
    start = State(center.x + start_radius, center.y)

    fwd = integrate(p, start, replace(cfg, t_max=min(cfg.t_max, 400.0)))
    any_crossings = False
    forward_crossings: list[float] = []
    for reverse, stability in ((False, CycleStability.ATTRACTING),
                               (True, CycleStability.REPELLING)):
        te, xe = _section_crossings(p, center, start, cfg, reverse, capture_radius)
        any_crossings = any_crossings or len(te) > 0
        found, radius = _analyze_returns(xe - center.x, cfg.abs_tol)
        if found:
            period = float(te[-1] - te[-2])
            amplitude = _one_period(p, center, float(xe[-1]), period, cfg, reverse)
            return CycleDetection(
                found=True,
                period=period,
                amplitude=amplitude,
                section_crossings=list(map(float, xe)),
                stability=stability,
                forward_terminal=fwd.terminal,
            )
        if reverse is False:
            forward_crossings = list(map(float, xe))
    if not any_crossings:
        raise NoCrossings("orbit never returned to the section through the center")
    return CycleDetection(
        found=False,
        period=None,
        amplitude=None,
        section_crossings=forward_crossings,
        stability=CycleStability.INCONCLUSIVE,
        forward_terminal=fwd.terminal,
    )


class SimVerdict(enum.Enum):
    STABLE_NODE = "StableNode"
    STABLE_FOCUS = "StableFocus"
    STABLE = "StableNodeOrFocus"
    UNSTABLE_NODE = "UnstableNode"
    UNSTABLE_FOCUS = "UnstableFocus"
    UNSTABLE = "UnstableNodeOrFocus"
    SADDLE = "Saddle"
    INCONCLUSIVE = "Inconclusive"


def _fd_jacobian(p: ModelParams, x: float, y: float, step: float = 1e-6) -> np.ndarray:
    # oracle-side Jacobian: finite differences only, no closed forms
    def f(a, b):
        return np.array(_field(p.q, p.s, p.h, p.m, a, b))

    return np.column_stack([
        (f(x + step, y) - f(x - step, y)) / (2 * step),
        (f(x, y + step) - f(x, y - step)) / (2 * step),
    ])


def _probe(p: ModelParams, center: State, u0: tuple[float, float], radius: float,
           t_max: float, max_step: float, x_floor: float, reverse: bool) -> tuple[str, float]:
    """Integrate one probe; returns (outcome, |winding angle|).

    Outcome is 'A' if the probe fell inside radius/100 of the center,
    'E' if it left the 100*radius ball (or the domain), 'U' otherwise.
    """
    in_r, out_r = radius * 1e-2, radius * 1e2

    def ev_in(t, u):
        return (u[0] - center.x) ** 2 + (u[1] - center.y) ** 2 - in_r**2

    ev_in.terminal = True
    ev_in.direction = -1.0

    def ev_out(t, u):
        return (u[0] - center.x) ** 2 + (u[1] - center.y) ** 2 - out_r**2

    ev_out.terminal = True
    ev_out.direction = 1.0

    def ev_floor(t, u):
        return u[0] - x_floor

    ev_floor.terminal = True
    ev_floor.direction = -1.0

    sol = solve_ivp(
        _rhs(p, reverse), (0.0, t_max), u0, method="RK45",
        rtol=1e-9, atol=1e-13, max_step=max_step,
        events=[ev_in, ev_out, ev_floor],
    )
    dx, dy = sol.y[0] - center.x, sol.y[1] - center.y
    ang = np.unwrap(np.arctan2(dy, dx))
    winding = float(abs(ang[-1] - ang[0])) if len(ang) > 1 else 0.0
    if sol.status == 1:
        if len(sol.t_events[0]):
            return "A", winding
        return "E", winding
    if sol.status < 0:
        return "E", winding
    return "U", winding


def classify_by_simulation(p: ModelParams, e, radius: float = 1e-4) -> SimVerdict:
    """Infer the local type of an equilibrium from trajectories.

    Eight probes at the given radius are integrated forward and (all over
    again) in reversed time.  Attraction patterns decide stability:

        forward all-in,  reversed all-out  ->  stable node/focus
        forward all-out, reversed all-in   ->  unstable node/focus
        forward all-out, reversed all-out  ->  saddle (saddles survive
                                               time reversal)

    The node/focus refinement combines the accumulated winding angle with
    the measured (finite-difference) linearisation; see `subtype` below.
    Any other pattern, or probes that cannot decide within the horizon, is
    reported Inconclusive rather than guessed.  `e` is anything with x/y
    attributes (an Equilibrium or a State).
    """
    xc, yc = float(e.x), float(e.y)
    center = State(xc, yc)
    J = _fd_jacobian(p, xc, yc)
    lam = np.linalg.eigvals(J)
    min_rate = float(np.abs(lam.real).min())
    if min_rate < 1e-6:
        return SimVerdict.INCONCLUSIVE  # effectively non-hyperbolic at probe scale
    t_max = min(3000.0, max(50.0, 30.0 / min_rate))
    rot = float(np.abs(lam.imag).max())
    max_step = 0.7 / max(rot, 1.0 / t_max)
    x_floor = min(1e-8, 0.5 * xc)

    outcomes: dict[bool, list[str]] = {False: [], True: []}
    windings: dict[bool, list[float]] = {False: [], True: []}
    for reverse in (False, True):
        for k in range(8):
            # small offset keeps probes off the axis-aligned eigendirections
            # of the boundary/Allee-line saddles
            ang = 2.0 * math.pi * k / 8.0 + math.pi / 16.0
            u0 = (xc + radius * math.cos(ang), yc + radius * math.sin(ang))
            if u0[0] <= x_floor or u0[1] < 0.0:
                continue  # probe would start outside the admissible domain
            out, wind = _probe(p, center, u0, radius, t_max, max_step, x_floor, reverse)
            outcomes[reverse].append(out)
            windings[reverse].append(wind)

    fwd, rev = outcomes[False], outcomes[True]
    if not fwd or not rev or "U" in fwd or "U" in rev:
        return SimVerdict.INCONCLUSIVE

    tr_fd = float(J[0, 0] + J[1, 1])
    det_fd = float(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
    disc_fd = tr_fd * tr_fd - 4.0 * det_fd
    disc_margin = 1e-6 * max(1.0, float(np.linalg.norm(J)) ** 2)

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
