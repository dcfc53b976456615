"""allee-lab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src; nothing
is installed or built.  Workloads (one client, closed loop, one operation
at a time; inputs drawn from --seed):

    cli-cold        each operation is a fresh `python -m allee_lab`
                    subprocess: analyze, hopf, bt, a 50-point sweep and a
                    short simulate at generic points
    sweep-generic   in one warm interpreter, `cli.main(["sweep", ...])`
                    over 2000-point grids in h, q, m and s
    degenerate-mix  in one warm interpreter, `analyze` exactly on the h1,
                    h2 and h3 folds, on the cusp and at an E8 weak centre,
                    plus hopf, single-point bt and a 21 x 21 bt grid
    cycle-hunt      in one warm interpreter, detect_cycle on both sides of
                    the criterion-5 Hopf point and classify_by_simulation at
                    hyperbolic equilibria

Each workload repeats a fixed pass of operations in a fresh worker process
(perfbench/worker.py) until --seconds have passed, ending on a whole pass.
Every output is checked; an operation fails on an unexpected exit code, an
exception or a failed check.

End-to-end metrics (--trace 0), every workload:
    setup_s       median over SETUP_RUNS worker launches of the wall time
                  from launch until `import allee_lab` and one untimed
                  warm-up operation have finished
    op_s_p50      median wall time of one operation
    ops_per_s     operations per second of operation wall time
    points_per_s  parameter points per second of operation wall time: a
                  sweep row, a bt grid cell, else one per operation
    peak_rss_mb   peak resident memory of the worker (cli-cold: of its
                  largest child)
Also printed, not gated: fail_ratio (always 0 when the program is right,
reported through `failed`), and op_s_p90 on workloads whose runs carry at
least 100 operations, with each metric's sample count, the sweep thread
count and a SHA-256 over the outputs of one pass.

Per-layer metrics (--trace 1): after the untraced run, one traced pass over
the same operations; see tracing.py.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "sweep-generic", "degenerate-mix", "cycle-hunt")
SETUP_RUNS = 3
P90_MIN_OPS = 100
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _worker(args, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def launch(args, setup_only: bool, deadline: float):
    """Start a worker; returns (setup seconds, remaining stdout lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker(args, setup_only), stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker did not finish within {DEADLINE_S:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"worker failed (exit code {proc.returncode}) before reporting")
    return setup, rest.splitlines()


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "allee_lab" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'allee_lab'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S

    setups = [launch(args, True, deadline)[0] for _ in range(SETUP_RUNS - 1)]
    setup, lines = launch(args, False, deadline)
    setups.append(setup)
    report = json.loads(lines[-1])

    results = report["results"][:len(report["results"]) - (report["pass_ops"] if args.trace else 0)]
    times = [r[1] for r in results if not math.isnan(r[1])]
    op_wall = sum(times)
    attempted = len(report["results"])
    failed = len(report["failures"])
    e2e = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(times) / op_wall,
        "points_per_s": sum(r[2] for r in results if not math.isnan(r[1])) / op_wall,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}

    print(f"workload {args.workload}  seed {args.seed}  sweep threads {report['sweep_threads']}  "
          f"{len(results)} operations in {report['wall_s']:.2f} s wall "
          f"({report['pass_ops']} per pass)")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:>14.6g} {END_TO_END_UNITS[name]:<4} "
              f"n={samples.get(name, len(times))}")
    print(f"  {'fail_ratio':<14} {failed / attempted:>14.6g} {'':<4} n={attempted}")
    if len(times) >= P90_MIN_OPS:
        print(f"  {'op_s_p90':<14} {quantile(times, 0.9):>14.6g} {'s':<4} n={len(times)}")
    else:
        print(f"  {'op_s_p90':<14} {'-':>14} {'s':<4} n={len(times)} (< {P90_MIN_OPS} operations)")
    print(f"  output sha256 {report['digest']} (one pass)")
    for line in report["failures"][:5]:
        print(f"  FAILED {line}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in report["trace"].items()}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    import tracing
    if name in tracing.EXTRA_METRICS:
        return tracing.EXTRA_METRICS[name]
    return "count" if name.endswith(".calls") else "s"


if __name__ == "__main__":
    sys.exit(main())
