"""One workload run in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Imports the package, runs the pass's first operation untimed and
unchecked, prints `ready`, and exits there with --setup-only.  Otherwise it repeats the pass
until --seconds have passed, stopping only at the end of a pass, checks
every output, and prints one JSON line with the raw measurements.

With --trace 1 the untraced run is followed by exactly one traced pass
over the same operations; its spans are written to .perfbench/ and the
per-layer metrics ride along in the JSON line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench"
OP_TIMEOUT_S = 120.0
IMPORT_RUNS = 3  # `-X importtime` runs behind each import.* median


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Executes operations of one workload and returns their output text."""

    def __init__(self, workload: str, al, scratch: Path) -> None:
        self.workload, self.al, self.scratch = workload, al, scratch
        self.env = child_env()
        self.tracer = None
        self.child_spans: list[list[tuple]] = []

    def run(self, op, op_id: int) -> tuple[str, float, list[str]]:
        """(output, seconds, errors from the exit status)."""
        if self.workload == "cli-cold":
            return self._subprocess(op, op_id)
        if op.call is not None:
            t0 = time.perf_counter()
            out = op.call()
            return out, time.perf_counter() - t0, []
        main = self.al.cli.main  # looked up per call, so a traced run sees its wrapper
        if self.workload == "sweep-generic":
            path = self.scratch / "sweep.csv"
            t0 = time.perf_counter()
            rc = main(op.argv + [f"--out={path}"])
            dt = time.perf_counter() - t0
            out = path.read_text(encoding="utf-8") if rc == 0 else ""
        else:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = main(op.argv)
            dt = time.perf_counter() - t0
            out = buf.getvalue()
        return out, dt, [] if rc == 0 else [f"exit code {rc}"]

    def _subprocess(self, op, op_id: int) -> tuple[str, float, list[str]]:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "allee_lab", *op.argv]
        else:
            span_path = self.scratch / f"cli-spans-{op_id}.jsonl"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_path), *op.argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=OP_TIMEOUT_S)
        dt = time.perf_counter() - t0
        errs = [] if proc.returncode == 0 else [
            f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-200:]}"]
        if self.tracer is not None:
            import tracing
            spans = tracing.read_spans(span_path)
            span_path.unlink()
            self.child_spans.append([s[:5] + (op_id,) + s[6:] for s in spans])
        return proc.stdout.decode("utf-8"), dt, errs


def run_pass(runner: Runner, ops, results: list, digests: list, failures: list,
             first_id: int) -> None:
    for i, op in enumerate(ops):
        if runner.tracer is not None:
            runner.tracer.op = first_id + i
        try:
            out, dt, errs = runner.run(op, first_id + i)
            errs = errs or op.check(out)
        except Exception as err:  # a crash is a failed operation, not a failed run
            out, dt, errs = "", float("nan"), [f"{type(err).__name__}: {err}"]
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if len(digests) < len(ops):
            digests.append(digest)
        elif digests[i] != digest and not errs:
            errs = ["output differs from the same operation's first output"]
        results.append((op.kind, dt, op.points, len(out.encode("utf-8")), not errs))
        if errs:
            failures.append(f"{op.kind} #{first_id + i}: {'; '.join(errs)}")


def import_times() -> dict[str, float]:
    import tracing
    samples = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import allee_lab"],
                              capture_output=True, text=True, env=child_env(),
                              timeout=OP_TIMEOUT_S, check=True)
        samples.append(tracing.import_seconds(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import allee_lab as al
    import allee_lab.cli  # noqa: F401  (cli is not imported by the package)
    import numpy as np
    import workloads

    rng = np.random.default_rng(args.seed)
    builders = {
        "cli-cold": workloads.cli_cold,
        "sweep-generic": workloads.sweep_generic,
        "degenerate-mix": workloads.degenerate_mix,
        "cycle-hunt": lambda r: workloads.cycle_hunt(r, al),
    }
    ops = builders[args.workload](rng)
    scratch = RUN_DIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, al, scratch)
        runner.run(ops[0], -1)  # untimed, unchecked warm-up; every timed pass checks it
        print("ready", flush=True)
        if args.setup_only:
            return 0

        results, digests, failures = [], [], []
        start = time.perf_counter()
        while True:
            run_pass(runner, ops, results, digests, failures, len(results))
            if time.perf_counter() - start >= args.seconds:
                break
        wall = time.perf_counter() - start
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        report = {
            "results": results,
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "pass_ops": len(ops),
            "sweep_threads": al.reporting.sweep_parallelism(),
            "failures": failures,
        }
        if args.trace:
            report["trace"], traced = traced_pass(runner, ops, results[:len(ops)], digests,
                                                  failures)
            report["results"] += traced
        print(json.dumps(report), flush=True)
        return 0
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()


def traced_pass(runner: Runner, ops, untraced: list, digests: list,
                failures: list) -> tuple[dict, list]:
    """One traced pass over `ops`; outputs must match the untraced pass."""
    import tracing
    tracer = tracing.Tracer()
    runner.tracer = tracer
    if runner.workload != "cli-cold":
        tracer.install()
    traced: list = []
    try:
        run_pass(runner, ops, traced, digests, failures, 0)
    finally:
        tracer.uninstall()
    span_sets = runner.child_spans or [tracer.spans]
    metrics = tracing.layer_metrics(sum(map(tracing.summarize, span_sets), Counter()))
    metrics.update(import_times())
    metrics["reporting.bytes_out"] = sum(r[3] for r in traced)
    metrics["trace.overhead_s"] = (statistics.median(r[1] for r in traced)
                                   - statistics.median(r[1] for r in untraced))
    tracing.write_spans(RUN_DIR / f"spans-{runner.workload}.jsonl",
                        [s for group in span_sets for s in group])
    return metrics, traced


if __name__ == "__main__":
    sys.exit(main())
