"""Output checks, built on the benchmark's own closed forms.

Nothing here calls `allee_lab`: the vector field, the Jacobian, the
branch quadratics and the critical surfaces are written out again from
the model

    dx/dt = x(1 - x) - q x y - h,    dy/dt = s y (1 - y/x)(y - m)

so that a check can fail when the package is wrong.  Every check returns
a list of messages; an empty list means the output passed.

Points closer to a fold or to a zero eigenvalue than GUARD (relative) are
left to the package's own tolerance bands: there the count or generic
class is not checked, only the degenerate verdicts the workload asks for.
"""
from __future__ import annotations

import json
import math

import numpy as np

GUARD = 1e-7
RESIDUAL_TOL = 1e-9


def canonical(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def field(q, s, h, m, x, y):
    return x * (1.0 - x) - q * x * y - h, s * y * (1.0 - y / x) * (y - m)


def jacobian(q, s, h, m, x, y) -> np.ndarray:
    """Jacobian of the field; broadcasts over arrays to shape (..., 2, 2)."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    j11 = 1.0 - 2.0 * x - q * y
    j12 = -q * x
    j21 = s * y * y * (y - m) / (x * x)
    j22 = s * ((1.0 - y / x) * (y - m) - (y / x) * (y - m) + y * (1.0 - y / x))
    j11, j12, j21, j22 = np.broadcast_arrays(j11, j12, j21, j22)
    return np.stack([np.stack([j11, j12], -1), np.stack([j21, j22], -1)], -2)


def h1(q, m):
    return m - (q + 1.0) * m * m


def h3(q):
    return 1.0 / (4.0 * (q + 1.0))


def s1_cusp(q, m):
    """Trace-zero growth rate at the diagonal fold point, h = h3."""
    return (4.0 * h3(q) - 1.0) / (2.0 * (m - 2.0 * h3(q)))


def diagonal_roots(q, h):
    """(x8, x9) on y = x, or None when the pair does not exist."""
    c = 1.0 / (q + 1.0)
    disc = c * c - 4.0 * h * c
    if disc <= 0:
        return None
    big = 0.5 * (c + math.sqrt(disc))
    return big, h * c / big


def s_weak_centre(q, m, x):
    """Growth rate that zeroes the trace at the diagonal point (x, x)."""
    return (2.0 * x + q * x - 1.0) / (m - x)


def branches(q, h, m):
    """Per branch: (root sum, root product, y of the line or None for y = x).

    Returns {branch: (S, P, line)} for the quadratics x^2 - S x + P = 0."""
    c = 1.0 / (q + 1.0)
    return {
        "prey_axis": (1.0, h, 0.0),
        "allee_line": (1.0 - q * m, h, m),
        "diagonal": (c, h * c, None),
    }


def branch_roots(S, P):
    """Roots (big, small) of x^2 - S x + P, with NaN where absent, and a
    mask of points inside the fold guard band.  Broadcasts over arrays."""
    S, P = np.broadcast_arrays(np.asarray(S, float), np.asarray(P, float))
    disc = S * S - 4.0 * P
    rel = disc / np.maximum(1.0, np.maximum(S * S, P * P))
    near = np.abs(rel) <= GUARD
    ok = (disc > 0) & (S > 0) & ~near
    root = np.sqrt(np.where(ok, disc, 0.0))
    big = np.where(ok, 0.5 * (S + root), np.nan)
    small = np.where(ok, P / np.where(ok, big, 1.0), np.nan)
    return big, small, near & (S > 0)


def accepted_classes(J: np.ndarray):
    """Generic classes allowed by the signs of numpy's eigenvalues of J.

    Returns an object array (one frozenset per matrix, or None where an
    eigenvalue sits within GUARD of the imaginary axis, so the class is the
    normal forms' to decide)."""
    J = np.asarray(J, float)
    lam = np.linalg.eigvals(J)
    norm = np.linalg.norm(J, axis=(-2, -1))
    re = np.sort(lam.real, axis=-1)
    tr = J[..., 0, 0] + J[..., 1, 1]
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    disc = tr * tr - 4.0 * det
    band = GUARD * np.maximum(norm * norm, 1e-30)
    flat = []
    for r0, r1, n, d, b in zip(re.reshape(-1, 2)[:, 0], re.reshape(-1, 2)[:, 1],
                               norm.ravel(), disc.ravel(), band.ravel()):
        tol = GUARD * max(n, 1e-30)
        if min(abs(r0), abs(r1)) <= tol:
            flat.append(None)
        elif r0 < 0 < r1:
            flat.append(frozenset({"Saddle"}))
        else:
            side = "Stable" if r1 < 0 else "Unstable"
            kinds = ["Node", "Focus"] if abs(d) <= b else (["Node"] if d > 0 else ["Focus"])
            flat.append(frozenset(side + k for k in kinds))
    out = np.empty(len(flat), dtype=object)
    out[:] = flat
    return out.reshape(norm.shape)


def _close(a, b, rtol=1e-12) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_json_roundtrip(text: str):
    """Parse and re-serialise; returns (object or None, messages)."""
    try:
        obj = json.loads(text)
    except ValueError as err:
        return None, [f"output is not JSON: {err}"]
    if canonical(obj) != text:
        return obj, ["JSON does not re-serialise byte-identically"]
    return obj, []


def check_analysis(text: str, params: dict, at: list[tuple[float, float, set[str]]] = (),
                   flags: set[str] = frozenset()) -> list[str]:
    """Check an `analyze` report.

    `at` lists (x, y, classes): an equilibrium must sit at (x, y) with one
    of `classes`; `flags` must be among the reported bifurcation flags."""
    rep, errs = check_json_roundtrip(text)
    if rep is None:
        return errs
    q, s, h, m = params["q"], params["s"], params["h"], params["m"]
    if rep["params"] != params:
        errs.append(f"params {rep['params']} != {params}")
    t = rep["thresholds"]
    for name, want in (("h1", h1(q, m)), ("h2", 0.25), ("h3", h3(q))):
        if not _close(t[name], want):
            errs.append(f"threshold {name} = {t[name]!r}, closed form gives {want!r}")
    missing = set(flags) - set(rep["bifurcation_flags"])
    if missing:
        errs.append(f"missing bifurcation flags {sorted(missing)}")

    counts = dict.fromkeys(("prey_axis", "allee_line", "diagonal"), 0)
    for e in rep["equilibria"]:
        x, y, cls = e["x"], e["y"], e["classification"]
        res = math.hypot(*field(q, s, h, m, x, y))
        if not (res <= RESIDUAL_TOL and e["residual"] <= RESIDUAL_TOL):
            errs.append(f"{e['label']} residual {res:.3e} (reported {e['residual']:.3e})")
        for b in e["branches"]:
            counts[b] += 1
        J = jacobian(q, s, h, m, x, y)
        norm, tr, det = float(np.linalg.norm(J)), float(np.trace(J)), float(np.linalg.det(J))
        if not (abs(e["trace"] - tr) <= 1e-9 * max(1.0, norm)
                and abs(e["det"] - det) <= 1e-9 * max(1.0, norm * norm)):
            errs.append(f"{e['label']} trace/det {e['trace']!r}, {e['det']!r} disagree "
                        f"with the Jacobian's {tr!r}, {det!r}")
        allowed = accepted_classes(J)[()]
        if allowed is not None and cls not in allowed:
            errs.append(f"{e['label']} at ({x!r}, {y!r}) is {cls}, "
                        f"eigenvalues allow {sorted(allowed)}")
    for b, (S, P, _) in branches(q, h, m).items():
        big, _, near = branch_roots(S, P)
        want = 0 if math.isnan(big) else 2
        if not near and counts[b] != want:
            errs.append(f"{counts[b]} equilibria on {b}, quadratic has {want}")
    for x, y, classes in at:
        hits = [e for e in rep["equilibria"] if math.hypot(e["x"] - x, e["y"] - y) <= 1e-9]
        if not hits:
            errs.append(f"no equilibrium at ({x!r}, {y!r})")
        elif hits[0]["classification"] not in classes:
            errs.append(f"{hits[0]['label']} is {hits[0]['classification']}, "
                        f"expected {sorted(classes)}")
    return errs


def check_hopf(text: str, q: float, h: float, m: float) -> list[str]:
    rep, errs = check_json_roundtrip(text)
    if rep is None:
        return errs
    x8 = diagonal_roots(q, h)[0]
    s2 = s_weak_centre(q, m, x8)
    if not _close(rep["s_critical"], s2, 1e-10):
        errs.append(f"s_critical {rep['s_critical']!r}, closed form s2 = {s2!r}")
    if not _close(rep["transversality"], m - x8, 1e-10):
        errs.append(f"transversality {rep['transversality']!r} != m - x8 = {m - x8!r}")
    want = "Subcritical" if rep["sigma"] > 0 else "Supercritical"
    if rep["direction"] != want or not math.isfinite(rep["sigma"]):
        errs.append(f"direction {rep['direction']} with sigma {rep['sigma']!r}")
    return errs


def _check_bt_report(rep: dict, q: float, m: float, eta) -> list[str]:
    errs = []
    if not (_close(rep["params"]["h"], h3(q)) and _close(rep["params"]["s"], s1_cusp(q, m))):
        errs.append(f"bt base {rep['params']} is not the cusp h3, s1")
    if rep["eta"] != list(eta):
        errs.append(f"eta {rep['eta']} != {list(eta)}")
    if rep["verdict"] != "BTCodim2" or not (rep["jac_det"] > 1e-6):
        errs.append(f"verdict {rep['verdict']} with jac_det {rep['jac_det']!r}")
    if rep["l00"] != rep["ladder"]["l"]["00"] or rep["l01"] != rep["ladder"]["l"]["01"]:
        errs.append("l00/l01 disagree with the ladder's last stage")
    if not (math.isfinite(rep["l00"]) and math.isfinite(rep["l01"])):
        errs.append("non-finite unfolding coefficients")
    return errs


def check_bt(text: str, q: float, m: float, eta) -> list[str]:
    rep, errs = check_json_roundtrip(text)
    return errs if rep is None else errs + _check_bt_report(rep, q, m, eta)


def check_bt_grid(text: str, q: float, m: float, n: int, box: float) -> list[str]:
    reps, errs = check_json_roundtrip(text)
    if reps is None:
        return errs
    values = np.linspace(-box, box, n)
    etas = [[float(a), float(b)] for a in values for b in values]
    if len(reps) != len(etas):
        return errs + [f"{len(reps)} grid cells, expected {len(etas)}"]
    for rep, eta in zip(reps, etas):
        errs += _check_bt_report(rep, q, m, eta)
        if errs:
            break
    return errs


def check_simulate(text: str, x0: float, y0: float, t_max: float) -> list[str]:
    lines = text.split("\n")
    if lines[0] != "t,x,y" or lines[-1] != "":
        return ["trajectory CSV header or final newline wrong"]
    data = np.array([[float(v) for v in row.split(",")] for row in lines[1:-1]])
    errs = []
    if data.shape[0] < 2 or tuple(data[0]) != (0.0, x0, y0):
        errs.append("trajectory does not start at (0, x0, y0)")
    if not np.isfinite(data).all():
        errs.append("non-finite trajectory sample")
    if not (np.diff(data[:, 0]) > 0).all() or data[-1, 0] > t_max:
        errs.append("trajectory times not increasing within the horizon")
    if not (data[:, 1] > 0).all():
        errs.append("trajectory left the x > 0 domain")
    return errs


SWEEP_LABELS = {"prey_axis": ("E2", "E3"), "allee_line": ("E5", "E6"), "diagonal": ("E8", "E9")}
COUNT_COLUMNS = {"prey_axis": "n_prey_axis", "allee_line": "n_allee_line", "diagonal": "n_diagonal"}


def check_sweep(text: str, parameter: str, lo: float, hi: float, steps: int,
                fixed: dict[str, float]) -> list[str]:
    """Row count, grid values, branch counts and generic classes of a sweep."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["sweep CSV lacks the final newline"]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
    if len(rows) != steps:
        return [f"{len(rows)} sweep rows, expected {steps}"]
    step = (hi - lo) / (steps - 1)
    grid = np.array([lo + i * step for i in range(steps)])
    errs = []
    if [float(r["value"]) for r in rows] != grid.tolist():
        errs.append("sweep values differ from the grid")
    bad = [r["error"] for r in rows if r["skipped"] != "0"]
    if bad:
        return errs + [f"{len(bad)} sweep rows skipped, e.g. {bad[0]}"]
    p = {k: np.full(steps, v, float) for k, v in fixed.items()}
    p[parameter] = grid
    q, s, h, m = p["q"], p["s"], p["h"], p["m"]
    for name, want in (("h1", h1(q, m)), ("h3", h3(q)),
                       ("delta1", (1.0 - q * m) ** 2 - 4.0 * h),
                       ("delta2", (1.0 / (q + 1.0)) ** 2 - 4.0 * h / (q + 1.0))):
        got = np.array([float(r[name]) for r in rows])
        if not np.allclose(got, want, rtol=1e-12, atol=1e-15):
            errs.append(f"sweep column {name} disagrees with its closed form")
    for branch, (S, P, line) in branches(q, h, m).items():
        big, small, near = branch_roots(S, P)
        want = np.where(np.isnan(big), 0, 2)
        got = np.array([int(r[COUNT_COLUMNS[branch]]) for r in rows])
        wrong = (got != want) & ~near
        if wrong.any():
            i = int(np.argmax(wrong))
            errs.append(f"{branch} count {got[i]} at value {grid[i]!r}, quadratic gives {want[i]}")
        for label, x in zip(SWEEP_LABELS[branch], (big, small)):
            y = x if line is None else np.full(steps, line)
            exists = ~np.isnan(x)
            classes = np.array([r["class_" + label] for r in rows])
            stray = ~exists & ~near & (classes != "")
            if stray.any():
                errs.append(f"class_{label} set where the quadratic has no root")
            idx = np.flatnonzero(exists)
            if not idx.size:
                continue
            allowed = accepted_classes(jacobian(q[idx], s[idx], h[idx], m[idx], x[idx], y[idx]))
            for i, ok in zip(idx, allowed):
                if ok is not None and classes[i] not in ok:
                    errs.append(f"class_{label} = {classes[i]} at value {grid[i]!r}, "
                                f"eigenvalues allow {sorted(ok)}")
                    break
    return errs
