"""Report assembly and serialisation (canonical JSON, CSV).

JSON is emitted with a fixed field order and shortest round-trip float
representation, so re-parsing and re-serialising a report is
byte-identical.  CSV uses LF line endings, UTF-8, and full-precision
floats.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NamedTuple

from . import equilibria as eq
from .bifurcations import BTReport, HopfReport
from .dynamics import Trajectory
from .model import ModelParams, _Checked, _field

__all__ = [
    "SweepSpec",
    "dumps_canonical",
    "dumps_canonical_rows",
    "params_dict",
    "analysis_report",
    "hopf_report_dict",
    "bt_report_dict",
    "trajectory_csv",
    "run_sweep",
    "sweep_csv",
    "sweep_parallelism",
]

# critical surfaces; the first letter names the parameter that crosses them
SURFACES = ("h1", "h2", "h3", "s1", "s2", "s3")

# fixed sweep-CSV column layout; one classification column per label
SWEEP_LABELS = [f"E{i}" for i in range(1, 10)]
SWEEP_COLUMNS = (
    ["value", "n_prey_axis", "n_allee_line", "n_diagonal"]
    + [f"class_{lab}" for lab in SWEEP_LABELS]
    + ["delta1", "delta2", "h1", "h2", "h3", "s1", "s2", "s3"]
    + ["on_h1", "on_h2", "on_h3", "on_s1", "on_s2", "on_s3"]
    + ["skipped", "error"]
)


def dumps_canonical(obj) -> str:
    """Serialise to the canonical JSON form (stable order, full precision).

    The text is byte-equal to the json module's `dumps(obj, indent=2,
    allow_nan=False)` plus a final line break, but it is written directly
    instead of through json's pure-Python indenting encoder.  Keys must be
    str (json would coerce int, float, bool and None keys); any other key,
    and any value that is not a str, int, float, bool, None, list, tuple or
    dict, raises TypeError.  NaN and infinities raise ValueError.
    """
    parts: list[str] = []
    emit = parts.append

    def float_text(x: float) -> str:
        if not math.isfinite(x):
            raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
        return float.__repr__(x)  # np.float64's own repr is "np.float64(...)"

    def write(o, nl: str) -> None:
        # nl: the line break and indent of the line `o` ends on
        if isinstance(o, str):
            emit(_encode_str(o))
        elif o is None:
            emit("null")
        elif o is True:
            emit("true")
        elif o is False:
            emit("false")
        elif isinstance(o, int):
            emit(int.__repr__(o))
        elif isinstance(o, float):
            emit(float_text(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                emit("[]")
                return
            inner = nl + "  "
            sep, comma = "[" + inner, "," + inner
            for v in o:
                emit(sep)
                sep = comma
                if type(v) is float:  # most leaves of a report
                    emit(float_text(v))
                else:
                    write(v, inner)
            emit(nl + "]")
        elif isinstance(o, dict):
            if not o:
                emit("{}")
                return
            inner = nl + "  "
            sep, comma = "{" + inner, "," + inner
            for k, v in o.items():
                emit(sep)
                sep = comma
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                emit(_encode_str(k) + ": ")
                if type(v) is float:
                    emit(float_text(v))
                else:
                    write(v, inner)
            emit(nl + "}")
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(obj, "\n")
    emit("\n")
    return "".join(parts)


def dumps_canonical_rows(doc: dict) -> str:
    """dumps_canonical of the reports that `doc` holds as columns: each
    tuple in it is a column of floats or bools, one value per report.

    Each row fills the text dumps_canonical writes for one report with a
    hole per column, so the bytes are equal by construction.  A column is
    turned into text once, by the CSV writer's _column_text.  No str in
    `doc` may be "\0", the text of a hole.
    """
    columns = []

    def hole(o):
        if isinstance(o, tuple):
            columns.append(o)
            return "\0"
        if isinstance(o, dict):
            return {k: hole(v) for k, v in o.items()}
        return [hole(v) for v in o] if isinstance(o, list) else o

    head, *layout = dumps_canonical([hole(doc)]).split(_encode_str("\0"))
    layout = [head[1:], *layout[:-1], layout[-1][:-3]]  # one report, without "[" and "\n]\n"
    if not all(math.isfinite(sum(column)) for column in columns):  # or an overflowing sum
        for row in zip(*columns):  # dumps_canonical names the first non-finite value
            dumps_canonical(row)
    texts = {id(column): column for column in columns}  # a repeated column once
    texts = {key: _column_text(column) if type(column[0]) is not bool
             else ["true" if v else "false" for v in column] for key, column in texts.items()}
    row_format = "%s".join(part.replace("%", "%%") for part in layout)
    rows = map(row_format.__mod__, zip(*(texts[id(column)] for column in columns)))
    return "[" + ",".join(rows) + "\n]\n"


def params_dict(p: ModelParams) -> dict:
    return {"q": p.q, "s": p.s, "h": p.h, "m": p.m}


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _thresholds_dict(t: eq.Thresholds) -> dict:
    return {
        "h1": t.h1,
        "h2": t.h2,
        "h3": t.h3,
        "s1": t.s1,
        "s2": t.s2,
        "s3": t.s3,
        "absent": dict(sorted(t.absent.items())),
    }


def _on_surface(actual, target, xp=eq.FLOATS):
    # a NaN (absent) target is never hit, on floats or arrays
    return abs(actual - target) <= eq.SURFACE_RTOL * xp.maximum(1.0, abs(target))


def _surface_flags(p: ModelParams, t: eq.Thresholds) -> list[str]:
    return [name for name in SURFACES
            if getattr(t, name) is not None and _on_surface(getattr(p, name[0]), getattr(t, name))]


def _equilibrium_dict(p: ModelParams, e: eq.Equilibrium) -> dict:
    return {
        "label": e.label,
        "x": e.x,
        "y": e.y,
        "branches": [b.value for b in e.branches],
        "classification": e.classification.value if e.classification else None,
        "trace": e.trace,
        "det": e.det,
        "eigenvalues": [_complex_dict(z) for z in e.eigenvalues],
        "residual": math.hypot(*_field(p.q, p.s, p.h, p.m, e.x, e.y)),
    }


def analysis_report(p: ModelParams) -> dict:
    """Full portrait + thresholds + active critical-surface flags."""
    portrait = eq.full_portrait(p)
    t = eq.thresholds(p)
    return {
        "params": params_dict(p),
        "equilibria": [_equilibrium_dict(p, e) for e in portrait],
        "thresholds": _thresholds_dict(t),
        "bifurcation_flags": _surface_flags(p, t),
    }


def hopf_report_dict(p: ModelParams, which: str, rep: HopfReport) -> dict:
    return {
        "which": which,
        "params": params_dict(p),
        "s_critical": rep.s_critical,
        "transversality": rep.transversality,
        "M": rep.M,
        "phi": list(rep.phi),
        "sigma": rep.sigma,
        "direction": rep.direction.value,
    }


def bt_report_dict(p: ModelParams, rep: BTReport) -> dict:
    return {
        "params": params_dict(p),
        "eta": list(rep.eta),
        "l00": rep.l00,
        "l01": rep.l01,
        "f20": rep.f20,
        "f11": rep.f11,
        "h11": rep.h11,
        "mirrored": rep.mirrored,
        "jac_det": rep.jac_det,
        "verdict": rep.verdict.value,
        "ladder": {k: dict(v) for k, v in rep.ladder.items()},
    }


class _Texts(dict):
    """Cell -> text; a cell it lacks, a zero, is formatted at each lookup."""

    def __missing__(self, cell) -> str:
        return str(cell)


def _looks_distinct(column) -> bool:
    # a guess from two samples of up to 32 cells, the first ones and ones
    # spread over the column; a wrong guess costs time, never bytes
    spread = column[::len(column) // 32 or 1][:32]
    return all(len(set(sample)) == len(sample) for sample in (column[:32], spread))


def _column_text(column: list) -> list[str]:
    # str() of each cell, a float's being its shortest round-trip repr.
    # That repr is the costly part: a float column that looks distinct is
    # formatted by float.__repr__ alone, and any other column formats each
    # distinct value once.  Equal cells must print alike: float zeros are
    # never memoised, since 0.0 == -0.0, and a column mixing ints and
    # floats is never memoised, since 1 == 1.0
    if column and type(column[0]) is float and _looks_distinct(column):
        try:
            return list(map(float.__repr__, column))
        except TypeError:  # a cell that is not a float
            pass
    kinds = set(map(type, column))
    if kinds == {str}:  # already text
        return column
    if kinds <= {int, str}:
        distinct = dict.fromkeys(column)
        texts = dict(zip(distinct, map(str, distinct)))
    elif kinds <= {float, str}:
        texts = _Texts((cell, str(cell)) for cell in dict.fromkeys(column) if cell != 0)
    else:
        return list(map(str, column))
    return list(map(texts.__getitem__, column))


def _csv(header, columns) -> str:
    """CSV text of equal-length columns under `header`, one row per index:
    each column is turned into text once, and the rows are joined."""
    rows = map(",".join, zip(*map(_column_text, columns)))
    return "\n".join([",".join(header), *rows]) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    return _csv(("t", "x", "y"), (traj.t, traj.x, traj.y))


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

class _SweepFields(NamedTuple):
    parameter: str
    lo: float
    hi: float
    steps: int
    fixed: dict[str, float]


class SweepSpec(_Checked, _SweepFields):
    """A one-parameter grid: sweep `parameter` over [lo, hi] in `steps`
    points, holding the other three parameters at `fixed` values."""

    __slots__ = ()

    def _check(self) -> None:
        if self.parameter not in ("q", "s", "h", "m"):
            raise ValueError(f"parameter must be one of q, s, h, m, got {self.parameter!r}")
        for name, value in (("lo", self.lo), ("hi", self.hi), *self.fixed.items()):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.steps < 2:
            raise ValueError(f"need at least 2 steps, got {self.steps}")
        if not math.isfinite((self.hi - self.lo) / (self.steps - 1)):
            raise ValueError(f"grid step overflows for lo = {self.lo}, hi = {self.hi}")
        missing = {"q", "s", "h", "m"} - {self.parameter} - set(self.fixed)
        if missing:
            raise ValueError(f"missing fixed parameter values: {sorted(missing)}")
        unknown = set(self.fixed) - {"q", "s", "h", "m"}
        if unknown:
            raise ValueError(f"unknown fixed parameters: {sorted(unknown)}")

    def grid(self) -> list[float]:
        step = (self.hi - self.lo) / (self.steps - 1)
        return [self.lo + i * step for i in range(self.steps)]


# the largest grid run_sweep evaluates row by row, through _sweep_row alone.
# Measured on 2 CPUs, Python 3.11.7, numpy 2.4.6: a row costs 60-100 us
# warm; the array pass 0.6-0.9 ms plus about 2 us per row, once numpy is
# loaded; and a cold import of numpy 160-170 ms.  A fresh process pays that
# import on its first array pass, so up to this size the rows (8-12 ms) cost
# it far less; a warm caller loses at most about 11 ms a sweep to them.
ROW_SWEEP_MAX = 128


def sweep_parallelism() -> int:
    """Threads a sweep runs on: one."""
    return 1


def _sweep_row(spec: SweepSpec, value: float) -> dict:
    row: dict[str, object] = {c: "" for c in SWEEP_COLUMNS}
    row["value"] = value
    kwargs = dict(spec.fixed)
    kwargs[spec.parameter] = value
    try:
        p = ModelParams(**kwargs)
        portrait = eq.full_portrait(p)
        d = eq.discriminants(p)
        t = eq.thresholds(p)
    except Exception as err:  # invalid point: report and skip, do not abort the sweep
        row["skipped"] = 1
        # keep the CSV well-formed: no commas or newlines inside the cell
        row["error"] = f"{type(err).__name__}: {err}".replace(",", ";").replace("\n", " ")
        return row
    row["skipped"] = 0
    counts = {eq.Branch.PREY_AXIS: 0, eq.Branch.ALLEE_LINE: 0, eq.Branch.DIAGONAL: 0}
    for e in portrait:
        for b in set(e.branches):
            counts[b] += 1
        for lab in e.labels:
            row[f"class_{lab}"] = e.classification.value if e.classification else ""
    row["n_prey_axis"] = counts[eq.Branch.PREY_AXIS]
    row["n_allee_line"] = counts[eq.Branch.ALLEE_LINE]
    row["n_diagonal"] = counts[eq.Branch.DIAGONAL]
    row["delta1"], row["delta2"] = d.delta1, d.delta2
    flags = _surface_flags(p, t)
    for name in SURFACES:
        val = getattr(t, name)
        row[name] = "" if val is None else val
        row[f"on_{name}"] = int(name in flags)
    return row


def run_sweep(spec: SweepSpec) -> dict[str, list]:
    """Evaluate the grid: one list per SWEEP_COLUMNS name, in grid order.

    A grid of at most ROW_SWEEP_MAX points is evaluated row by row by the
    scalar `_sweep_row`, which never imports numpy; a larger one in one
    array pass.  Both give the same cells.
    """
    if spec.steps > ROW_SWEEP_MAX:
        return _sweep_arrays(spec)
    rows = [_sweep_row(spec, value) for value in spec.grid()]
    return {name: [row[name] for row in rows] for name in SWEEP_COLUMNS}


def _sweep_arrays(spec: SweepSpec) -> dict[str, list]:
    """run_sweep's columns from one array pass over the grid.

    Points the array pass leaves undecided (invalid or degenerate points
    and points near a tolerance band) are evaluated by the scalar
    `_sweep_row`, whose cells are written into the columns at their index;
    every array-built cell equals the scalar one.
    """
    import numpy as np

    grid = spec.grid()
    n = len(grid)
    params = {name: np.full(n, float(value)) for name, value in spec.fixed.items()}
    params[spec.parameter] = np.array(grid)
    batch = eq.portrait_batch(params["q"], params["s"], params["h"], params["m"])
    t = batch.thresholds
    columns = {
        "value": grid,
        "n_prey_axis": batch.counts[eq.Branch.PREY_AXIS].tolist(),
        "n_allee_line": batch.counts[eq.Branch.ALLEE_LINE].tolist(),
        "n_diagonal": batch.counts[eq.Branch.DIAGONAL].tolist(),
        "delta1": batch.delta1.tolist(),
        "delta2": batch.delta2.tolist(),
        "skipped": [0] * n,
        "error": [""] * n,
    }
    for lab in SWEEP_LABELS:
        column = batch.classes.get(lab)
        columns[f"class_{lab}"] = [""] * n if column is None else column.tolist()
    for name in SURFACES:
        columns[name] = ["" if v != v else v for v in t[name].tolist()]  # NaN: absent
        on = _on_surface(params[name[0]], t[name], np)
        columns[f"on_{name}"] = on.astype(int).tolist()
    for i in np.flatnonzero(~batch.generic).tolist():
        for name, cell in _sweep_row(spec, grid[i]).items():
            columns[name][i] = cell
    return {name: columns[name] for name in SWEEP_COLUMNS}


def sweep_csv(columns: dict[str, list]) -> str:
    """The sweep table of `run_sweep`'s columns, in SWEEP_COLUMNS order."""
    return _csv(SWEEP_COLUMNS, [columns[name] for name in SWEEP_COLUMNS])
