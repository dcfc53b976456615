"""Command-line interface.

Subcommands:

    analyze    equilibria, classifications, thresholds (JSON)
    hopf       critical growth rate and Hopf direction at E8/E9 (JSON)
    bt         Bogdanov-Takens unfolding coefficients (JSON)
    simulate   integrate one trajectory (CSV: t,x,y)
    sweep      one-parameter grid, counts/classes per point (CSV)

Exit codes: 0 success, 2 invalid input or contract violation, 3 internal
numerical failure.  A flat `key = value` config file can supply defaults
for any flag; explicit flags win.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import reporting
from .bifurcations import bt_normal_form, cusp_base_params, first_lyapunov_coefficient, hopf_critical_s
from .dynamics import IntegratorConfig, integrate
from .errors import AlleeLabError
from .model import ModelParams, State
from .reporting import SweepSpec, dumps_canonical

__all__ = ["main"]


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise AlleeLabError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    values = _read_config(args.config)
    for key, raw in values.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue  # unknown keys ignored, explicit flags win
        try:
            setattr(args, key, type_of_flag(key)(raw))
        except ValueError as err:
            raise AlleeLabError(f"config value {key} = {raw!r} invalid: {err}") from None


_INT_FLAGS = {"steps", "grid"}
_STR_FLAGS = {"parameter", "which", "out"}


def type_of_flag(name: str):
    if name in _INT_FLAGS:
        return int
    if name in _STR_FLAGS:
        return str
    return float


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise AlleeLabError(f"missing required value(s): {flags}")


def _check_format(args: argparse.Namespace, native: str) -> None:
    requested = getattr(args, "fmt", None)
    if requested is not None and requested != native:
        raise AlleeLabError(
            f"this subcommand emits {native} only; --{requested} is not available"
        )


def _params(args: argparse.Namespace) -> ModelParams:
    _require(args, "q", "s", "h", "m")
    return ModelParams(q=args.q, s=args.s, h=args.h, m=args.m)


def _cmd_analyze(args: argparse.Namespace) -> int:
    _check_format(args, "json")
    report = reporting.analysis_report(_params(args))
    _emit(args, dumps_canonical(report))
    return 0


def _cmd_hopf(args: argparse.Namespace) -> int:
    _check_format(args, "json")
    _require(args, "q", "h", "m")
    if args.s is None:
        probe = ModelParams(q=args.q, s=1.0, h=args.h, m=args.m)  # s ignored by the solver
        s_val = hopf_critical_s(probe, args.which)
    else:
        s_val = args.s
    p = ModelParams(q=args.q, s=s_val, h=args.h, m=args.m)
    rep = first_lyapunov_coefficient(p, args.which)
    _emit(args, dumps_canonical(reporting.hopf_report_dict(p, args.which, rep)))
    return 0


def _cmd_bt(args: argparse.Namespace) -> int:
    _check_format(args, "json")
    _require(args, "q", "m")
    base = cusp_base_params(args.q, args.m)
    if args.h is not None and abs(args.h - base.h) > 1e-9:
        raise AlleeLabError(f"--h {args.h} is not the cusp harvest h3 = {base.h}")
    if args.s is not None and abs(args.s - base.s) > 1e-9 * max(1.0, abs(base.s)):
        raise AlleeLabError(f"--s {args.s} is not the cusp growth rate s1 = {base.s}")
    if args.grid is not None:
        box = args.eta_box if args.eta_box is not None else 1e-3
        values = np.linspace(-box, box, args.grid)
        reports = []
        for e1 in values:
            for e2 in values:
                rep = bt_normal_form(base, (float(e1), float(e2)))
                reports.append(reporting.bt_report_dict(base, rep))
        _emit(args, dumps_canonical(reports))
        return 0
    eta = (args.eta1 if args.eta1 is not None else 0.0,
           args.eta2 if args.eta2 is not None else 0.0)
    rep = bt_normal_form(base, eta)
    _emit(args, dumps_canonical(reporting.bt_report_dict(base, rep)))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _check_format(args, "csv")
    p = _params(args)
    _require(args, "x0", "y0")
    cfg = IntegratorConfig(t_max=args.tmax if args.tmax is not None else 200.0)
    traj = integrate(p, State(args.x0, args.y0), cfg)
    _emit(args, reporting.trajectory_csv(traj))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_format(args, "csv")
    _require(args, "parameter", "lo", "hi", "steps")
    fixed = {}
    for name in ("q", "s", "h", "m"):
        if name != args.parameter:
            _require(args, name)
            fixed[name] = getattr(args, name)
    spec = SweepSpec(parameter=args.parameter, lo=args.lo, hi=args.hi,
                     steps=args.steps, fixed=fixed)
    rows = reporting.run_sweep(spec)
    if all(row["skipped"] == 1 for row in rows):
        raise AlleeLabError("every grid point was skipped; check the fixed parameters")
    _emit(args, reporting.sweep_csv(rows))
    return 0


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=float, help="predation rate (dimensionless)")
    sub.add_argument("--s", type=float, help="predator growth rate (dimensionless)")
    sub.add_argument("--h", type=float, help="harvest intensity (dimensionless)")
    sub.add_argument("--m", type=float, help="Allee threshold, in (0, 1)")
    sub.add_argument("--config", help="flat key = value file supplying defaults")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allee-lab",
        description="equilibrium and bifurcation analysis of a harvested "
                    "predator-prey system with a predator Allee effect",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="equilibria, classes, thresholds (JSON)")
    _add_param_flags(analyze)

    hopf = subs.add_parser("hopf", help="Hopf point and first Lyapunov coefficient (JSON)")
    _add_param_flags(hopf)
    hopf.add_argument("--which", choices=("E8", "E9"), default="E8")

    bt = subs.add_parser("bt", help="Bogdanov-Takens unfolding coefficients (JSON)")
    _add_param_flags(bt)
    bt.add_argument("--eta1", type=float, help="harvest perturbation")
    bt.add_argument("--eta2", type=float, help="growth-rate perturbation")
    bt.add_argument("--grid", type=int, help="emit an N x N grid over the eta box")
    bt.add_argument("--eta-box", dest="eta_box", type=float,
                    help="half-width of the eta grid box (default 1e-3)")

    simulate = subs.add_parser("simulate", help="integrate one trajectory (CSV)")
    _add_param_flags(simulate)
    simulate.add_argument("--x0", type=float, help="initial prey density")
    simulate.add_argument("--y0", type=float, help="initial predator density")
    simulate.add_argument("--tmax", type=float, help="integration horizon (default 200)")

    sweep = subs.add_parser("sweep", help="one-parameter bifurcation sweep (CSV)")
    _add_param_flags(sweep)
    sweep.add_argument("--parameter", choices=("q", "s", "h", "m"))
    sweep.add_argument("--lo", type=float)
    sweep.add_argument("--hi", type=float)
    sweep.add_argument("--steps", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        # looked up at call time: the parser is shared, the handlers may be replaced
        return globals()[f"_cmd_{args.command}"](args)
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        # LinAlgError subclasses ValueError, so this branch must come first
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (AlleeLabError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
