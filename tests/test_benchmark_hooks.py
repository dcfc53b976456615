"""The benchmark in perfbench/ reaches into the package by name: the traced
run wraps every (module, function) in `tracing.TRACED`, and the worker
records `reporting.sweep_parallelism()`.  A rename or deletion in
`allee_lab` breaks those runs without failing any other test, and so does a
lazy import: the traced CLI installs its tracer after `import allee_lab.cli`
alone and reads each traced module from `sys.modules`.  A wrapped function
records nothing when its caller binds it elsewhere, so the sweep must reach
its traced layers through the `reporting` module."""
from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _tracing_module()
    assert tracing.TRACED
    missing = [f"{mod}.{attr}" for mod, attr in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{mod}"),
                                       attr, None))]
    assert missing == []


def test_importing_the_cli_loads_every_traced_module():
    tracing = _tracing_module()
    modules = sorted({f"{tracing.PACKAGE}.{mod}" for mod, _ in tracing.TRACED})
    script = ("import json, sys\nimport allee_lab.cli\n"
              "print(json.dumps([m for m in json.loads(sys.argv[1]) if m not in sys.modules]))")
    res = subprocess.run([sys.executable, "-c", script, json.dumps(modules)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []


def test_worker_hook_exists():
    from allee_lab import reporting

    assert reporting.sweep_parallelism() == 1


def test_sweep_calls_the_traced_reporting_layers(monkeypatch, tmp_path):
    from allee_lab import cli, reporting

    calls = []
    for name in ("run_sweep", "sweep_csv"):
        def wrapper(*args, _name=name, _inner=getattr(reporting, name)):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(reporting, name, wrapper)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--parameter", "h", "--lo", "0.2", "--hi", "0.3", "--steps", "11",
                   "--q", "1", "--s", "1", "--m", "0.2", "--out", str(out)])
    assert rc == 0
    assert calls == ["run_sweep", "sweep_csv"]
    assert len(out.read_text(encoding="utf-8").splitlines()) == 12
