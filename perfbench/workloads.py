"""Seeded inputs of the four workloads.

Each workload turns a seed into one pass: a fixed list of operations that
the timed loop repeats.  Parameters are drawn stratified (one draw per
stratum of each range), so every seed carries the same mix of cheap and
costly operations and the run-to-run spread stays small.  Points on
critical surfaces come from `checks`' closed forms, never from the
package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    kind: str
    argv: list[str] | None  # CLI arguments; None for a library call
    points: int  # parameter points the operation evaluates
    check: Callable[[str], list[str]]
    call: Callable[[], str] | None = None  # library call returning the output text


def _flags(**values) -> list[str]:
    # `--flag=value` keeps negative numbers from reading as options
    return [f"--{k.replace('_', '-')}={v!r}" if isinstance(v, float) else f"--{k}={v}"
            for k, v in values.items()]


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return [float(lo + (hi - lo) * v) for v in rng.permutation(u)]


def _analyze(q, s, h, m, at=(), flags=frozenset()) -> Op:
    params = {"q": q, "s": s, "h": h, "m": m}
    return Op("analyze", ["analyze", *_flags(**params)], 1,
              lambda out: checks.check_analysis(out, params, at, flags))


def _weak_centre_point(rng, q: float) -> tuple[float, float, float]:
    """(h, m, x8) with E8 a weak centre candidate: the diagonal pair exists,
    m < x8 and x8 < 1/(q+2), so that s2 > 0."""
    c = 1.0 / (q + 1.0)
    x8 = 0.5 * c + rng.uniform(0.2, 0.8) * (1.0 / (q + 2.0) - 0.5 * c)
    h = x8 * (c - x8) / c
    x8 = checks.diagonal_roots(q, h)[0]
    return h, rng.uniform(0.2, 0.8) * x8, x8


def _cusp_m(rng, q: float) -> float:
    return rng.uniform(0.2, 0.8) * 2.0 * checks.h3(q)


def cli_cold(rng: np.random.Generator) -> list[Op]:
    """analyze, hopf, bt, a 50-point sweep and a 20-time-unit simulation."""
    q, s, h, m = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                  rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.5))
    hq = rng.uniform(0.5, 2.0)
    hh, hm, _ = _weak_centre_point(rng, hq)
    bq = rng.uniform(0.5, 2.0)
    bm = _cusp_m(rng, bq)
    eta = (rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3))
    lo, hi = rng.uniform(0.02, 0.08), rng.uniform(0.3, 0.4)
    fixed = {"q": rng.uniform(0.5, 2.0), "s": rng.uniform(0.5, 2.0), "m": rng.uniform(0.05, 0.5)}
    x0, y0 = rng.uniform(0.4, 0.9), rng.uniform(0.05, 0.5)
    return [
        _analyze(q, s, h, m),
        Op("hopf", ["hopf", *_flags(q=hq, h=hh, m=hm), "--which=E8"], 1,
           lambda out: checks.check_hopf(out, hq, hh, hm)),
        Op("bt", ["bt", *_flags(q=bq, m=bm, eta1=eta[0], eta2=eta[1])], 1,
           lambda out: checks.check_bt(out, bq, bm, eta)),
        Op("sweep", ["sweep", "--parameter=h", *_flags(lo=lo, hi=hi), "--steps=50",
                     *_flags(**fixed)], 50,
           lambda out: checks.check_sweep(out, "h", lo, hi, 50, fixed)),
        Op("simulate", ["simulate", *_flags(q=q, s=s, h=h, m=m, x0=x0, y0=y0, tmax=20.0)], 1,
           lambda out: checks.check_simulate(out, x0, y0, 20.0)),
    ]


SWEEP_STEPS = 2000

# parameter -> (lo range, hi range, fixed-value ranges); every grid point is
# valid, each sweep crosses at least one fold, and the ranges are narrow
# enough that every seed sees the same branches, hence the same cost
SWEEPS = {
    "h": ((0.045, 0.055), (0.345, 0.355), {"q": (0.95, 1.05), "s": (0.8, 1.2), "m": (0.18, 0.22)}),
    "q": ((0.1, 0.2), (3.8, 4.0), {"s": (0.8, 1.2), "h": (0.13, 0.14), "m": (0.18, 0.22)}),
    "m": ((0.02, 0.04), (0.85, 0.9), {"q": (0.95, 1.05), "s": (0.8, 1.2), "h": (0.10, 0.11)}),
    "s": ((0.1, 0.2), (3.8, 4.0), {"q": (0.95, 1.05), "h": (0.08, 0.1), "m": (0.18, 0.22)}),
}

def sweep_generic(rng: np.random.Generator) -> list[Op]:
    """One SWEEP_STEPS-point sweep in each of h, q, m and s."""
    ops = []
    for parameter, (lo_r, hi_r, fixed_r) in SWEEPS.items():
        lo, hi = rng.uniform(*lo_r), rng.uniform(*hi_r)
        fixed = {k: rng.uniform(*r) for k, r in fixed_r.items()}
        ops.append(Op(
            "sweep-" + parameter,
            ["sweep", f"--parameter={parameter}", *_flags(lo=lo, hi=hi),
             f"--steps={SWEEP_STEPS}", *_flags(**fixed)],
            SWEEP_STEPS,
            lambda out, p=parameter, lo=lo, hi=hi, f=fixed:
                checks.check_sweep(out, p, lo, hi, SWEEP_STEPS, f),
        ))
    return ops


BT_GRID = 21
DEGENERATE_GROUPS = 2


def degenerate_mix(rng: np.random.Generator) -> list[Op]:
    """analyze exactly on h2, h1, h3, the cusp and an E8 weak centre, then
    hopf, single-point bt and a BT_GRID x BT_GRID bt grid, at
    DEGENERATE_GROUPS values of q."""
    qs = _strata(rng, DEGENERATE_GROUPS, 0.5, 2.0)
    ops = []
    for q in qs:
        s = rng.uniform(0.5, 2.0)
        m = rng.uniform(0.1, 0.8) / (q + 1.0)  # h1 > 0
        ops.append(_analyze(q, s, 0.25, m, [(0.5, 0.0, {"SaddleNode"})], {"h2"}))
        ops.append(_analyze(q, s, checks.h1(q, m), m, [(m, m, {"SaddleNode"})], {"h1"}))
        h3 = checks.h3(q)
        m_fold = rng.uniform(2.0 * h3 + 0.05, 0.9)  # m > 2 h3: no cusp on this fold
        ops.append(_analyze(q, s, h3, m_fold, [(2.0 * h3, 2.0 * h3, {"SaddleNode"})], {"h3"}))
        cm = _cusp_m(rng, q)
        ops.append(_analyze(q, checks.s1_cusp(q, cm), h3, cm,
                            [(2.0 * h3, 2.0 * h3, {"Cusp"})], {"h3", "s1"}))
        wh, wm, x8 = _weak_centre_point(rng, q)
        ops.append(_analyze(q, checks.s_weak_centre(q, wm, x8), wh, wm,
                            [(x8, x8, {"WeakCenter"})], {"s2"}))
        ops.append(Op("hopf", ["hopf", *_flags(q=q, h=wh, m=wm), "--which=E8"], 1,
                      lambda out, q=q, h=wh, m=wm: checks.check_hopf(out, q, h, m)))
        eta = (rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3))
        ops.append(Op("bt", ["bt", *_flags(q=q, m=cm, eta1=eta[0], eta2=eta[1])], 1,
                      lambda out, q=q, m=cm, eta=eta: checks.check_bt(out, q, m, eta)))
        box = rng.uniform(5e-4, 2e-3)
        ops.append(Op("bt-grid", ["bt", *_flags(q=q, m=cm), f"--grid={BT_GRID}",
                                  *_flags(eta_box=box)], BT_GRID * BT_GRID,
                      lambda out, q=q, m=cm, box=box:
                          checks.check_bt_grid(out, q, m, BT_GRID, box)))
    return ops


# criterion-5 family: E8 = (0.3, 0.3) is a weak centre at s2 = 0.5 and the
# Hopf point is subcritical, so a repelling cycle exists for s = s2 + delta
HUNT_Q, HUNT_H, HUNT_M = 1.0, 0.12, 0.1
HUNT_STRATA = 6


def _cycle_text(det) -> str:
    return (f"found={det.found} stability={det.stability.value} period={det.period!r} "
            f"amplitude={det.amplitude!r} crossings={det.section_crossings!r}\n")


def _hyperbolic_equilibria(rng: np.random.Generator, n: int) -> list[tuple]:
    """n seeded (q, s, h, m, x, y, classes), one per parameter point, with
    every eigenvalue at least 0.05 from the imaginary axis and clear of the
    node/focus boundary."""
    found = []
    while len(found) < n:
        q, s, h, m = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                      rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.3))
        candidates = []
        for S, P, line in checks.branches(q, h, m).values():
            for x in map(float, checks.branch_roots(S, P)[:2]):
                y = x if line is None else line
                if not x > 0.05:
                    continue
                J = checks.jacobian(q, s, h, m, x, y)
                tr, det = np.trace(J), np.linalg.det(J)
                if min(abs(np.linalg.eigvals(J).real)) >= 0.05 and abs(tr * tr - 4 * det) >= 0.05:
                    candidates.append((q, s, h, m, x, y, checks.accepted_classes(J)[()]))
        if candidates:
            found.append(candidates[rng.integers(len(candidates))])
    return found


def _sim_agrees(verdict: str, classes) -> bool:
    if verdict == "Inconclusive":
        return True
    if verdict in ("StableNodeOrFocus", "UnstableNodeOrFocus"):
        return any(c.startswith(verdict[:-len("NodeOrFocus")]) for c in classes)
    return verdict in classes


def cycle_hunt(rng: np.random.Generator, al) -> list[Op]:
    """detect_cycle on both sides of s2 and classify_by_simulation at seeded
    hyperbolic equilibria, HUNT_STRATA of each per pass.  `al` is the imported
    package; library calls look their target up at call time, so a traced
    run sees them."""
    x8 = checks.diagonal_roots(HUNT_Q, HUNT_H)[0]
    s2 = checks.s_weak_centre(HUNT_Q, HUNT_M, x8)
    ops = []

    def hunt(s: float) -> str:
        p = al.ModelParams(q=HUNT_Q, s=s, h=HUNT_H, m=HUNT_M)
        return _cycle_text(al.detect_cycle(p, al.State(x8, x8)))

    def sim(q, s, h, m, x, y) -> str:
        verdict = al.classify_by_simulation(al.ModelParams(q=q, s=s, h=h, m=m), al.State(x, y))
        return verdict.value + "\n"

    def hunt_check(out: str, cycle_side: bool) -> list[str]:
        if cycle_side and not out.startswith("found=True stability=Repelling"):
            return [f"no repelling cycle on the cycle side: {out[:80]}"]
        if not cycle_side and not out.startswith("found=False"):
            return [f"cycle reported on the off side: {out[:80]}"]
        return []

    for (q, s, h, m, x, y, classes), d_on, d_off in zip(
            _hyperbolic_equilibria(rng, HUNT_STRATA),
            _strata(rng, HUNT_STRATA, 0.01, 0.04), _strata(rng, HUNT_STRATA, 0.01, 0.04)):
        ops.append(Op("classify_by_simulation", None, 1,
                      lambda out, c=classes: [] if _sim_agrees(out.strip(), c)
                      else [f"simulation says {out.strip()}, closed form {sorted(c)}"],
                      call=lambda a=(q, s, h, m, x, y): sim(*a)))
        ops.append(Op("detect_cycle-on", None, 1, lambda out: hunt_check(out, True),
                      call=lambda s=s2 + d_on: hunt(s)))
        ops.append(Op("detect_cycle-off", None, 1, lambda out: hunt_check(out, False),
                      call=lambda s=s2 - d_off: hunt(s)))
    return ops
