"""Hopf bifurcation at the upper diagonal equilibrium, checked two ways.

At q=1, h=0.12, m=0.1 the equilibrium (0.3, 0.3) becomes a weak center at
s = 0.5.  The first Lyapunov coefficient is positive, so the bifurcation
is subcritical: an unstable limit cycle coexists with the stable focus for
s slightly above 0.5 and shrinks onto it as s decreases.  The orbit-level
detector confirms both the side and the instability of the cycle (as a
root of the one-turn return map that the map crosses rising), and the
amplitudes follow the square-root law.
"""
import math

import allee_lab as al

q, h, m = 1.0, 0.12, 0.1
center = al.State(0.3, 0.3)

s2 = al.hopf_critical_s(al.ModelParams(q=q, s=1.0, h=h, m=m), "E8")
rep = al.first_lyapunov_coefficient(al.ModelParams(q=q, s=s2, h=h, m=m), "E8")
print(f"critical growth rate s2 = {s2:.6f}")
print(f"transversality d(trace)/ds = {rep.transversality:+.3f}")
print(f"first Lyapunov coefficient sigma = {rep.sigma:.2f} -> {rep.direction.value}")

side = +1.0 if rep.sigma > 0 else -1.0
print(f"\ncycle side: s2 {'+' if side > 0 else '-'} delta (where the point is stable)")
for delta in (0.01, 0.02, 0.04):
    p = al.ModelParams(q=q, s=s2 + side * delta, h=h, m=m)
    det = al.detect_cycle(p, center)
    print(f"  delta={delta:<5g} found={det.found} stability={det.stability.value:10s} "
          f"period={det.period:7.3f} amplitude={det.amplitude:.5f} "
          f"amp/sqrt(delta)={det.amplitude / math.sqrt(delta):.4f}")

p_off = al.ModelParams(q=q, s=s2 - side * 0.02, h=h, m=m)
det_off = al.detect_cycle(p_off, center)
print(f"\nother side (s = {p_off.s:g}): found={det_off.found} "
      f"(the equilibrium is unstable there, no nearby cycle)")
