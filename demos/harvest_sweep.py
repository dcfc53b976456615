"""Sweep the harvest through the boundary fold and write a diagram table.

Below h = 1/4 the prey axis carries two equilibria (a stable node and a
saddle); they collide at h = 1/4 and vanish above it, taking the prey
population with them: with y = 0 and h > 1/4 every trajectory hits the
extinction floor.  The same CSV is what `allee-lab sweep` emits.
"""
from allee_lab import ModelParams, State, TerminalReason, integrate
from allee_lab.reporting import SweepSpec, run_sweep, sweep_csv

spec = SweepSpec(parameter="h", lo=0.2, hi=0.3, steps=21,
                 fixed={"q": 1.0, "s": 1.0, "m": 0.2})
columns = run_sweep(spec)  # one list per CSV column, in grid order

print(f"{'h':>8s} {'boundary':>9s} {'classes':>30s}")
for h, n, e1, e2, e3, on_h2 in zip(columns["value"], columns["n_prey_axis"], columns["class_E1"],
                                   columns["class_E2"], columns["class_E3"], columns["on_h2"]):
    classes = ", ".join(filter(None, (e1, e2, e3)))
    marker = "  <- fold" if on_h2 == 1 else ""
    print(f"{h:8.3f} {n:>9} {classes:>30s}{marker}")

out = "harvest_sweep.csv"
with open(out, "w", encoding="utf-8", newline="\n") as fh:
    fh.write(sweep_csv(columns))
print(f"\nfull table written to {out}")

print("\nprey-only runs above the fold all go extinct:")
p = ModelParams(q=1.0, s=1.0, h=0.26, m=0.2)
for x0 in (0.3, 0.5, 0.8):
    traj = integrate(p, State(x0, 0.0), t_max=500.0)
    assert traj.terminal is TerminalReason.HIT_DOMAIN_FLOOR
    print(f"  x0={x0:g}: extinct at t={traj.t[-1]:.1f}")
