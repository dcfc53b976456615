"""Repeat the benchmark over ten seeds and record medians and spreads.

    python3 perfbench/record.py [--first-seed N]

Runs run.py once per seed (N, N + 1, ..., N + 9; N defaults to 1) on every
workload, for BENCHMARK.json's run_seconds, plus one traced run per
workload on seed N.  It prints, per end-to-end metric, the median, the
quartiles and the spread (distance between the quartiles of
`statistics.quantiles(values, n=4)` as a share of the median), and stores
the set, with the machine it ran on, under "seeds N-(N+9)" in RESULTS.
When RESULTS holds other seed sets it also prints how far each median
moved from theirs, in the metric's worse direction, against its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results" / "BENCH_1.json"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[2] for line in lines if "output sha256" in line)
    result["run_wall_s"] = time.perf_counter() - t0
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3, "spread": (q3 - q1) / middle,
            "values": values}


def machine() -> dict:
    import numpy
    import scipy
    sys.path.insert(0, str(ROOT / "src"))
    from allee_lab.reporting import sweep_parallelism
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sweep_threads": sweep_parallelism(),
        "platform": platform.platform(),
    }


def compare(this: dict, other: dict, other_name: str, metrics: dict) -> None:
    """Print how much worse than `other` each median of `this` is."""
    print(f"against {other_name} (worse by, as a share of its median; bound in brackets):")
    for workload, entry in this["workloads"].items():
        for name, m in entry["metrics"].items():
            base = other["workloads"][workload]["metrics"][name]["median"]
            worse = (m["median"] - base) / base
            if metrics[name]["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= metrics[name]["bound"] else "OUTSIDE BOUND"
            print(f"  {workload:<15} {name:<14} {worse:+.4f} [{metrics[name]['bound']}] {verdict}")


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    first = ap.parse_args().first_seed
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = range(first, first + RUNS)

    record = {"machine": machine(), "runs": RUNS, "seconds": seconds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "digests": [r["digest"] for r in runs],
            "run_wall_s": [r["run_wall_s"] for r in runs],
            "metrics": {name: dict(summary([r["metrics"][name]["value"] for r in runs]),
                                   unit=runs[0]["metrics"][name]["unit"])
                        for name in runs[0]["metrics"]},
        }
        print(f"{workload}: fail_ratio {entry['failed'] / entry['attempted']:.6g} "
              f"({entry['failed']} of {entry['attempted']} operations)")
        for name, m in entry["metrics"].items():
            print(f"  {name:<14} {m['unit']:<4} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f} n={RUNS} runs")
        traced = run_once(workload, first, seconds, 1)
        entry["traced"] = {"seed": first, "failed": traced["failed"],
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        record["workloads"][workload] = entry
        sys.stdout.flush()

    sets = json.loads(RESULTS.read_text()) if RESULTS.exists() else {}
    key = f"seeds {first}-{first + RUNS - 1}"
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    for other_key, other in sets.items():
        if other_key != key:
            compare(record, other, other_key, metrics)
    sets[key] = record
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps(sets, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
