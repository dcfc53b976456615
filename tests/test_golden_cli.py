"""Byte-for-byte regression of the JSON subcommands against a frozen corpus.

Each `analyze` and `hopf` case's JSON in tests/golden/cli/ was written by
`allee-lab` before the argument parser was built once per process.  The
`bt` cases and the grid digests were rewritten when the chain was anchored
at the exact cusp identities and its unfolding Jacobian took a closed form:
every value they changed moved closer to the chain run in 50-digit mpmath
at the exact cusp.  The `analyze` cases sit at a generic
point, on the folds h1, h2 and h3 (no cusp), at the cusp s1 and at the E8
weak centre s2; `hopf` solves the E8 Hopf point; `bt` runs at eta = 0, at a
perturbed eta and on grids.  Two 21 x 21 grids (about 0.9 MB each) are
pinned by their SHA-256 instead of a file.

Regenerate (only when an output change is intended and justified) with

    PYTHONPATH=src python tests/test_golden_cli.py

which rewrites the files and prints the 21 x 21 grids' digests for
BT_GRID21_SHA256 and BT_GRID21_MIRRORED_SHA256.
"""
from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from allee_lab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

CASES = {
    "analyze_generic": "analyze --q 1 --s 1 --h 0.21 --m 0.2",
    # E6 and E9 merge at (m, m) on h1 = 0.12; E8 is a weak centre there too
    "analyze_h1": "analyze --q 1 --s 1 --h 0.12 --m 0.2",
    # the prey-axis pair merges into E1 on h2 = 1/4
    "analyze_h2": "analyze --q 1 --s 1 --h 0.25 --m 0.2",
    # the diagonal pair merges into E7 on h3 = 1/8, off the cusp (s1 = 5 here)
    "analyze_h3_fold": "analyze --q 1 --s 1 --h 0.125 --m 0.2",
    "analyze_cusp": "analyze --q 1 --s 1.6666666666666667 --h 0.125 --m 0.1",
    "analyze_weak_centre_e8": "analyze --q 1 --s 0.5 --h 0.12 --m 0.1",
    "hopf_e8": "hopf --q 1 --h 0.12 --m 0.1 --which E8",
    "bt_eta0": "bt --q 1 --m 0.1",
    "bt_eta_perturbed": "bt --q 1 --m 0.1 --eta1=3e-4 --eta2=-5e-4",
    "bt_other_base": "bt --q 0.5 --m 0.05 --eta1=-2e-4 --eta2=7e-4",
    "bt_grid5": "bt --q 1 --m 0.1 --grid 5",
    "bt_grid5_box": "bt --q 2 --m 0.02 --grid 5 --eta-box 5e-4",
}

# SHA-256 of the output of `bt --q 1 --m 0.1 --grid 21`
BT_GRID21_SHA256 = "8143d1ac3060536b4ecc8473f4e0a79a0b8c0a2b60d165de0b462d30ef69f4c9"
# and of `bt --q 1 --m 0.225 --grid 21 --eta-box 1e-3`, whose top three rows
# take the chain's mirrored branch
BT_GRID21_MIRRORED_SHA256 = "b6a987ea55fee08af3b33e583d582057928b625087b7f91b0044e8747c133795"


def _run(argv: str, out: Path) -> int:
    return main([*argv.split(), "--out", str(out)])


GRID21 = "bt --q 1 --m 0.1 --grid 21"
GRID21_MIRRORED = "bt --q 1 --m 0.225 --grid 21 --eta-box 1e-3"


def _grid21_digest(out: Path, argv: str = GRID21) -> str:
    assert _run(argv, out) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_matches_golden(case, tmp_path):
    out = tmp_path / f"{case}.json"
    assert _run(CASES[case], out) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.json").read_bytes()


def test_bt_grid21_matches_pinned_digest(tmp_path):
    assert _grid21_digest(tmp_path / "bt_grid21.json") == BT_GRID21_SHA256


def test_bt_mirrored_grid21_matches_pinned_digest(tmp_path):
    digest = _grid21_digest(tmp_path / "bt_grid21.json", GRID21_MIRRORED)
    assert digest == BT_GRID21_MIRRORED_SHA256


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        assert _run(CASES[name], GOLDEN / f"{name}.json") == 0, name
    with tempfile.TemporaryDirectory() as tmp:
        print("BT_GRID21_SHA256 =", _grid21_digest(Path(tmp) / "bt_grid21.json"))
        print("BT_GRID21_MIRRORED_SHA256 =",
              _grid21_digest(Path(tmp) / "bt_grid21.json", GRID21_MIRRORED))
