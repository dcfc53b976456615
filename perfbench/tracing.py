"""In-memory span tracer for the traced benchmark run.

`Tracer.install` replaces each function in TRACED, in every `allee_lab`
module namespace where it is bound, by a wrapper that records one span:
(id, name, start, end, parent id, operation id, extra).  Spans stay in
memory until the run ends.  `summarize` turns spans into the raw sums
behind the per-layer metrics and `layer_metrics` into the metrics.

Self time is a span's duration minus the union of its children's
intervals.  A span opened on a thread with no open span of its own (the
sweep's thread pool) takes as parent the innermost open span of the
thread that installed the tracer, which is the caller waiting on the pool.
Pool threads interleave under the interpreter lock, so in a threaded
sweep the self times of the per-point layers are wall time summed over
the threads and may add up to more than the sweep's duration.
"""
from __future__ import annotations

import functools
import itertools
import json
import re
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, function) -> layer name; the three branch solvers share a name
TRACED = {
    ("cli", "main"): "cli.main",
    ("model", "derivatives"): "model.derivatives",
    ("equilibria", "solve_branch_prey_axis"): "equilibria.solve_branch",
    ("equilibria", "solve_branch_allee_line"): "equilibria.solve_branch",
    ("equilibria", "solve_branch_diagonal"): "equilibria.solve_branch",
    ("equilibria", "classify"): "equilibria.classify",
    ("equilibria", "full_portrait"): "equilibria.full_portrait",
    ("equilibria", "thresholds"): "equilibria.thresholds",
    ("normal_forms", "taylor_at"): "normal_forms.taylor_at",
    ("normal_forms", "saddle_node_check"): "normal_forms.saddle_node_check",
    ("normal_forms", "cusp_check"): "normal_forms.cusp_check",
    ("bifurcations", "bt_normal_form"): "bifurcations.bt_normal_form",
    ("bifurcations", "hopf_critical_s"): "bifurcations.hopf_critical_s",
    ("bifurcations", "first_lyapunov_coefficient"): "bifurcations.first_lyapunov_coefficient",
    ("dynamics", "integrate"): "dynamics.integrate",
    ("dynamics", "detect_cycle"): "dynamics.detect_cycle",
    ("dynamics", "classify_by_simulation"): "dynamics.classify_by_simulation",
    ("dynamics", "solve_ivp"): "dynamics.solve_ivp",
    ("reporting", "analysis_report"): "reporting.analysis_report",
    ("reporting", "run_sweep"): "reporting.run_sweep",
    ("reporting", "sweep_csv"): "reporting.sweep_csv",
    ("reporting", "dumps_canonical"): "reporting.dumps_canonical",
}
LAYERS = sorted(set(TRACED.values()))
PACKAGE = "allee_lab"
IMPORT_PACKAGES = (PACKAGE, "numpy", "scipy")

# per-layer metrics that are not a layer's calls/self_s
EXTRA_METRICS = {
    "import.allee_lab_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "equilibria.derivatives_per_equilibrium": "ratio",
    "bifurcations.taylor_per_bt": "ratio",
    "dynamics.solve_ivp.nfev": "count",
    "dynamics.solve_ivp.steps": "count",
    "dynamics.nfev_per_hunt": "ratio",
    "reporting.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


def _extra(name: str, result, kwargs) -> object:
    if name == "equilibria.full_portrait":
        return len(result)
    if name == "dynamics.solve_ivp":
        # without t_eval the solution holds one point per accepted step
        steps = len(result.t) - 1 if kwargs.get("t_eval") is None else None
        return [int(result.nfev), steps]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._home: list[int] = []
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        self._home = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for (mod, attr), name in TRACED.items():
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home[-1] if self._home else None)
            sid = next(self._ids)
            stack.append(sid)
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                extra = _extra(name, result, kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op, extra))

        return traced


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[tuple]) -> Counter:
    """Raw per-layer sums of one span set; sets add with `+`."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[4] in by_id:
            children[s[4]].append((s[2], s[3]))

    def under(s, ancestor: str) -> bool:
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[1] == ancestor:
                return True
            parent = by_id.get(parent[4])
        return False

    acc: Counter = Counter()
    for s in spans:
        name, extra = s[1], s[6]
        acc[name + ".calls"] += 1
        acc[name + ".self_s"] += (s[3] - s[2]) - _union_length(children.get(s[0], []))
        if name == "model.derivatives" and under(s, "equilibria.full_portrait"):
            acc["derivatives_in_portrait"] += 1
        elif name == "equilibria.full_portrait" and extra is not None:
            acc["portrait_equilibria"] += extra
        elif name == "normal_forms.taylor_at" and under(s, "bifurcations.bt_normal_form"):
            acc["taylor_in_bt"] += 1
        elif name == "dynamics.solve_ivp" and extra is not None:
            acc["dynamics.solve_ivp.nfev"] += extra[0]
            acc["dynamics.solve_ivp.steps"] += extra[1] or 0
            if under(s, "dynamics.detect_cycle"):
                acc["nfev_in_hunt"] += extra[0]
    return acc


def layer_metrics(acc: Counter) -> dict[str, float]:
    """Per-layer metrics from summed raw sums (a ratio with no base is 0)."""
    def ratio(num: str, den: str) -> float:
        return acc[num] / acc[den] if acc[den] else 0.0

    out = {}
    for layer in LAYERS:
        out[layer + ".calls"] = acc[layer + ".calls"]
        out[layer + ".self_s"] = acc[layer + ".self_s"]
    out["equilibria.derivatives_per_equilibrium"] = ratio(
        "derivatives_in_portrait", "portrait_equilibria")
    out["bifurcations.taylor_per_bt"] = ratio("taylor_in_bt", "bifurcations.bt_normal_form.calls")
    out["dynamics.solve_ivp.nfev"] = acc["dynamics.solve_ivp.nfev"]
    out["dynamics.solve_ivp.steps"] = acc["dynamics.solve_ivp.steps"]
    out["dynamics.nfev_per_hunt"] = ratio("nfev_in_hunt", "dynamics.detect_cycle.calls")
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_seconds(stderr: str) -> dict[str, float]:
    """Cumulative import time of each package from `python -X importtime`.

    The log lists a module after the modules it imports, one indent level
    deeper per nesting.  A package's time is the sum over its outermost
    entries, so `scipy.integrate` pulled in by `allee_lab.dynamics` counts
    once, with everything it imports."""
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((len(match.group(3)), int(match.group(2)), match.group(4)))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    open_pkgs: list[tuple[int, str | None]] = []  # (depth, package) of enclosing entries
    for depth, cumulative, module in reversed(entries):
        while open_pkgs and open_pkgs[-1][0] >= depth:
            open_pkgs.pop()
        pkg = next((p for p in IMPORT_PACKAGES if module == p or module.startswith(p + ".")), None)
        if pkg is not None and all(p != pkg for _, p in open_pkgs):
            totals[pkg] += cumulative
        open_pkgs.append((depth, pkg))
    return {f"import.{p}_s": us * 1e-6 for p, us in totals.items()}
