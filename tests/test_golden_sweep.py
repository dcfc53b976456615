"""Byte-for-byte regression of `allee-lab sweep` against a frozen corpus.

Each case's CSV in tests/golden/sweep/ was written by the scalar sweep
(one `full_portrait` per grid point).  The cases cross the folds h1, h2
and h3, the Allee-line root sum A = 0, the E8 weak centre at s2, the cusp
s1, and m >= 1 grid points that are skipped; the 2000-step cases use the
ranges of the benchmark's generic sweeps.

Regenerate (only when an output change is intended and justified) with

    PYTHONPATH=src python tests/test_golden_sweep.py
"""
from __future__ import annotations

from pathlib import Path

import pytest

from allee_lab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "sweep"

CASES = {
    # test_cli's fold sweep: 2 -> 1 -> 0 prey-axis equilibria across h2 = 1/4
    "h_fold_h2": "--parameter h --lo 0.2 --hi 0.3 --steps 101 --q 1 --s 1 --m 0.2",
    # grid points on h1 = 0.12 (merge at (m, m)), h3 = 0.125 and h2 = 0.25
    "h_folds_h1_h3_h2": "--parameter h --lo 0.005 --hi 0.305 --steps 301 --q 1 --s 1 --m 0.2",
    # test_cli's s grid: exactly one WeakCenter row at s2 = 0.5
    "s_weak_centre": "--parameter s --lo 0.3 --hi 0.7 --steps 101 --q 1 --h 0.12 --m 0.1",
    # on the diagonal fold h = h3 throughout, through the cusp s1 = 5/3
    "s_cusp": "--parameter s --lo 1 --hi 2 --steps 31 --q 1 --h 0.125 --m 0.1",
    # grid point on h1 at q = 0.625
    "q_h1_h3": "--parameter q --lo 0.125 --hi 6.125 --steps 301 --s 1 --h 0.135 --m 0.2",
    # test_cli's m grid: six m >= 1 points skipped with an error
    "m_skipped": "--parameter m --lo 0.5 --hi 1.5 --steps 11 --q 1 --s 1 --h 0.1",
    # grid points on h1 at m = 0.15 and m = 0.35
    "m_h1": "--parameter m --lo 0.02 --hi 0.9 --steps 89 --q 1 --s 1 --h 0.105",
    "h_2000": "--parameter h --lo 0.05 --hi 0.35 --steps 2000 --q 1 --s 1 --m 0.2",
    "q_2000": "--parameter q --lo 0.15 --hi 3.9 --steps 2000 --s 1 --h 0.135 --m 0.2",
    "m_2000": "--parameter m --lo 0.03 --hi 0.875 --steps 2000 --q 1 --s 1 --h 0.105",
    "s_2000": "--parameter s --lo 0.15 --hi 3.9 --steps 2000 --q 1 --h 0.09 --m 0.2",
}


def _sweep(case: str, out: Path) -> int:
    return main(["sweep", *CASES[case].split(), "--out", str(out)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_matches_golden(case, tmp_path):
    out = tmp_path / f"{case}.csv"
    assert _sweep(case, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        assert _sweep(name, GOLDEN / f"{name}.csv") == 0, name
