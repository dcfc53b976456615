"""Differential test: the array sweep against the scalar reference.

`run_sweep` evaluates a grid with `equilibria.portrait_batch` into one list
per column and sends the points it leaves undecided through `_sweep_row`,
the scalar path that builds one `full_portrait` per point.  Every cell must
equal the scalar row's, on seeded random grids and on grids with points
tight on the folds h1, h2, h3 and the Allee-line fold, the cusp s1, the Hopf
surfaces s2 and s3, harvests from 1e-300 to 1e200, and sweeps of s, q, h
and m over many decades.
"""
from __future__ import annotations

import numpy as np
import pytest

from allee_lab import equilibria as eq
from allee_lab import reporting
from allee_lab.model import ModelParams
from allee_lab.reporting import SWEEP_COLUMNS, SweepSpec, _sweep_row, run_sweep, sweep_csv

STEPS = 125


def _through(rng, parameter: str, target: float, fixed: dict, width: float) -> SweepSpec:
    """A grid with one point (up to rounding) on `target`."""
    step = width / (STEPS - 1)
    lo = target - int(rng.integers(1, STEPS - 1)) * step
    return SweepSpec(parameter, lo, lo + (STEPS - 1) * step, STEPS, fixed)


def _specs(seed: int) -> list[SweepSpec]:
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(18):
        q, s, m = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(0.02, 0.9)
        A = 1.0 - q * m
        folds = [m - (q + 1.0) * m * m, 0.25, 1.0 / (4.0 * (q + 1.0)), 0.25 * A * A if A > 0 else 0]
        folds = [f for f in folds if f > 0]
        target = folds[int(rng.integers(len(folds)))]
        specs.append(_through(rng, "h", target, {"q": q, "s": s, "m": m}, rng.uniform(0.01, 0.3)))

        # s through the cusp s1 on the diagonal fold h = h3 (m < 2 h3), and
        # through the weak centre s2 or s3 below the fold
        h3 = 1.0 / (4.0 * (q + 1.0))
        m = rng.uniform(0.05, 0.95) * 2.0 * h3
        t = eq.thresholds(ModelParams(q=q, s=1.0, h=h3, m=m))
        specs.append(_through(rng, "s", t.s1, {"q": q, "h": h3, "m": m}, 0.5 * t.s1))
        h = rng.uniform(0.5, 0.99) * h3
        t = eq.thresholds(ModelParams(q=q, s=1.0, h=h, m=m))
        target = t.s2 if t.s2 is not None and t.s2 > 0 else t.s3
        if target is not None and target > 0:
            specs.append(_through(rng, "s", target, {"q": q, "h": h, "m": m}, 0.5 * target))

        lo, hi = np.sort(rng.uniform(0.05, 4.0, size=2))
        specs.append(SweepSpec("q", lo, hi, STEPS, {"s": s, "h": rng.uniform(0.01, 0.3), "m": m}))
        lo, hi = np.sort(rng.uniform(-0.1, 1.1, size=2))
        specs.append(SweepSpec("m", lo, hi, STEPS, {"q": q, "s": s, "h": rng.uniform(0.01, 0.3)}))
    return specs


TINY_HARVESTS = [
    SweepSpec("h", 1e-300, 1e-298, 40, {"q": 1.0, "s": 1.0, "m": 0.2}),
    SweepSpec("h", 1e-300, 0.3, 40, {"q": 1.0, "s": 1.0, "m": 0.2}),
]

# harvests past every fold, where the discriminant has the size of the
# root product: no branch has a root and no row may be skipped
LARGE_HARVESTS = [
    SweepSpec("h", 1e10, 1e11, 40, {"q": 1.0, "s": 1.0, "m": 0.2}),
    SweepSpec("h", 1e11, 1e200, 40, {"q": 3.0, "s": 0.5, "m": 0.7}),
]

# sweeps over many decades of one parameter, where both paths skip rows or
# call generic points degenerate alike: the bands are relative to the
# Jacobian's norm, not to the rounding scale of each quantity
EXTREME_SCALES = [
    SweepSpec("s", 1e6, 1e12, 60, {"q": 1.0, "h": 0.1, "m": 0.2}),
    SweepSpec("s", 1e-12, 1e-6, 60, {"q": 1.0, "h": 0.1, "m": 0.2}),
    SweepSpec("q", 1e6, 1e11, 60, {"s": 1.0, "h": 0.1, "m": 0.2}),
    SweepSpec("h", 1e-13, 1e-9, 60, {"q": 1.0, "s": 1.0, "m": 0.2}),
    SweepSpec("m", 1e-12, 1e-6, 60, {"q": 1e3, "s": 1e3, "h": 1e-4}),
    SweepSpec("s", 1e9, 1e11, 3, {"q": 1.0, "h": 0.1, "m": 0.2}),
]


def _transposed(rows: list[dict]) -> dict[str, list]:
    return {name: [row[name] for row in rows] for name in SWEEP_COLUMNS}


@pytest.fixture
def fallbacks(monkeypatch) -> list[float]:
    """Grid values that `run_sweep` sent through the scalar path."""
    seen: list[float] = []

    def counting(spec, value):
        seen.append(value)
        return _sweep_row(spec, value)

    monkeypatch.setattr(reporting, "_sweep_row", counting)
    return seen


def test_batch_rows_equal_scalar_rows(fallbacks):
    points, off_fold, off_fold_fallbacks = 0, 0, 0
    for spec in _specs(20261018) + TINY_HARVESTS + LARGE_HARVESTS + EXTREME_SCALES:
        before = len(fallbacks)
        scalar = _transposed([_sweep_row(spec, v) for v in spec.grid()])
        columns = run_sweep(spec)
        assert list(columns) == list(SWEEP_COLUMNS), spec
        assert columns == scalar, spec
        assert sweep_csv(columns) == sweep_csv(scalar), spec
        if spec in LARGE_HARVESTS:
            assert not any(columns["skipped"]), spec
        points += spec.steps
        on_fold = spec.fixed.get("h") == 1.0 / (4.0 * (spec.fixed.get("q", 0.0) + 1.0))
        if not on_fold and spec not in EXTREME_SCALES:
            off_fold += spec.steps
            off_fold_fallbacks += len(fallbacks) - before
    assert points >= 10_000
    # off the diagonal fold h = h3 and the extreme scales the array pass
    # decides nearly every row; the scalar path takes the fold, merge and
    # band rows, invalid parameters and the harvests near 1e-300
    assert off_fold_fallbacks <= 0.1 * off_fold


def test_degenerate_rows_take_the_scalar_path(fallbacks):
    spec = SweepSpec("h", 0.2, 0.3, 101, {"q": 1.0, "s": 1.0, "m": 0.2})
    columns = run_sweep(spec)
    assert columns["class_E1"][50] == "SaddleNode" and columns["on_h2"][50] == 1
    # (0.6, 0) at h = 0.24 sits on the node/focus boundary
    assert fallbacks == [spec.grid()[40], columns["value"][50]]
