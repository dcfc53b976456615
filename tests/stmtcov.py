"""Statement coverage of `src/` with the standard library only: a pytest plugin.

    PYTHONPATH=src:tests python -m pytest -q -p stmtcov

traces, with `sys.settrace`, every line that runs under `src/` in the main
thread of the pytest process, and at the end of the session lists each line
that has bytecode but never ran.  The session fails if one of them is in a
gated module (`GATED`).  The body of an `if TYPE_CHECKING:` block never runs
and is never listed.  Lines run only in subprocesses (`python -m allee_lab`)
or other threads are not seen.  The tracer roughly doubles the suite's time,
so it is loaded only by `-p`.
"""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GATED = ("model.py", "equilibria.py", "normal_forms.py", "bifurcations.py", "reporting.py",
         "dynamics.py", "cli.py", "__main__.py")


def _code_lines(code) -> set[int]:
    # a module's first instruction sits on line 0
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _type_checking_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def _line_tracer(lines: set[int]):
    def trace(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace
    return trace


class StatementTracer:
    """The lines run per file under SRC while `trace` is the trace function."""

    def __init__(self) -> None:
        self.hits: dict[str, set[int]] = {}  # resolved path -> lines run
        self.tracers: dict[str, object] = {}  # co_filename -> line tracer, None outside SRC
        self.unrun: dict[Path, list[int]] = {}

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self.tracers[filename]
        except KeyError:
            path = os.path.realpath(filename)
            inside = path.startswith(str(SRC) + os.sep)
            tracer = _line_tracer(self.hits.setdefault(path, set())) if inside else None
            self.tracers[filename] = tracer
            return tracer

    def unrun_lines(self, path: Path) -> list[int]:
        """Lines of `path` with bytecode that did not run."""
        source = path.read_text(encoding="utf-8")
        code = compile(source, str(path), "exec")
        skip = _type_checking_lines(ast.parse(source))
        ran = self.hits.get(os.path.realpath(path), set())
        return sorted(_code_lines(code) - ran - skip)

    def gate_fails(self) -> bool:
        return any(path.name in GATED for path in self.unrun)

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        for path in sorted(SRC.rglob("*.py")):
            lines = self.unrun_lines(path)
            if lines:
                self.unrun[path] = lines
        if self.gate_fails() and session.exitstatus == 0:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        total = sum(map(len, self.unrun.values()))
        terminalreporter.write_sep("-", f"stmtcov: {total} lines under src/ never ran")
        for path, lines in self.unrun.items():
            gate = "  (gated)" if path.name in GATED else ""
            terminalreporter.write_line(
                f"{path.relative_to(SRC)}: {', '.join(map(str, lines))}{gate}")
        if self.gate_fails():
            terminalreporter.write_line("stmtcov: a gated module has lines that never ran",
                                        red=True)


def pytest_configure(config):
    # before collection, so the modules under SRC are traced from their import on
    tracer = StatementTracer()
    config.pluginmanager.register(tracer, "stmtcov-tracer")
    sys.settrace(tracer.trace)
