"""Byte-for-byte regression of the simulation oracle against a frozen corpus.

The CLI and sweep corpora never integrate, so this one pins what
`dynamics` computes.  tests/golden/oracle/ holds `simulate` CSVs for a
start that converges to a stable node, a start below the Allee threshold
that hits the prey floor, a start whose stages overflow (every step is
rejected until the step size underflows) and a start on the cycle side of
the criterion-5 Hopf point s2; and the `repr` of each `detect_cycle`
field plus the `classify_by_simulation` verdict of every equilibrium at
s2 +- 0.02 in the criterion-5 family (q, h, m) = (1, 0.12, 0.1).

Regenerate (only when an output change is intended and justified) with

    PYTHONPATH=src python tests/test_golden_oracle.py
"""
from __future__ import annotations

from pathlib import Path

import pytest

import allee_lab as al
from allee_lab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "oracle"

SIMULATE_CASES = {
    "simulate_converge": "--q 1 --s 1 --h 0.21 --m 0.2 --x0 0.701 --y0 0.001",
    "simulate_floor": "--q 1 --s 1 --h 0.1 --m 0.2 --x0 0.1 --y0 0.5",
    "simulate_overflow": "--q 1 --s 1 --h 0.1 --m 0.2 --x0 0.5 --y0 1e154 --tmax 20",
    # s = s2 + 0.02: a stable focus inside the repelling cycle
    "simulate_cycle_side": "--q 1 --s 0.52 --h 0.12 --m 0.1 --x0 0.33 --y0 0.3 --tmax 100",
}
HOPF_FAMILY = (1.0, 0.12, 0.1)
HOPF_DELTAS = (0.02, -0.02)
CYCLE_FIELDS = ("found", "stability", "period", "amplitude", "section_crossings")


def _simulate(case: str, out: Path) -> int:
    return main(["simulate", *SIMULATE_CASES[case].split(), "--out", str(out)])


def _hopf_text() -> str:
    q, h, m = HOPF_FAMILY
    s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1.0, h=h, m=m), "E8")
    lines = []
    for delta in HOPF_DELTAS:
        p = al.ModelParams(q=q, s=s2 + delta, h=h, m=m)
        det = al.detect_cycle(p, al.State(0.3, 0.3))
        lines.append(f"s = s2 {delta:+}")
        lines += [f"  detect_cycle.{name} = {getattr(det, name)!r}" for name in CYCLE_FIELDS]
        lines += [f"  classify_by_simulation {e.label} = {al.classify_by_simulation(p, e).value}"
                  for e in al.full_portrait(p)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_matches_golden(case, tmp_path):
    out = tmp_path / f"{case}.csv"
    assert _simulate(case, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()


def test_hopf_oracle_matches_golden():
    assert _hopf_text().encode() == (GOLDEN / "hopf_e8.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sorted(SIMULATE_CASES):
        assert _simulate(name, GOLDEN / f"{name}.csv") == 0, name
    (GOLDEN / "hopf_e8.txt").write_bytes(_hopf_text().encode())
