"""A rectangle of spins: geometry decides which nodes can be reached.

Four nodes at the corners of a rectangle with unit side along x and
side b = delta**(-1/3) in the field-dependent direction.  With the
field along side b and delta = 4.3 every node is visited with
probability above 0.9 before tau = 3.3.  Shrink the rectangle to the
degenerate aspect ratio (coupling magnitude 1 across side b) and two
of the nodes are locked below probability 1/4 forever.
"""

import numpy as np

from spintransfer import System, fp_value, hpst_times, tau_grid

delta = 4.3
system = System("rect-along", delta=delta)

records, window = hpst_times(system, 3.5, 0.01)
print(f"field along side b, delta = {delta}")
print("node  tau*     P*")
for r in records:
    print(f"  {r.target}   {r.tau_star:6.4f}  {r.p_star:.4f}")
print(f"transfer window T = {window:.4f}")
print(f"worst-case best probability F_P = {fp_value(system, 3.5, 0.01):.4f}")

print()
print("Degenerate geometries never pass the threshold:")
for kind, delta, label in (
    ("rect-perp", 1.0, "perpendicular field, b = 1"),
    ("rect-along", 0.5, "field along b, b = 2**(1/3)"),
):
    probs = System(kind, delta=delta).probability_grid(tau_grid(100.0, 0.002))
    print(f"  {label}: max P_12 = {probs[1].max():.6f}, max P_14 = {probs[3].max():.6f}")
print("  (both are capped at 1/4 = 0.25 by the closed form)")

print()
print("The same cap blocks the cube, delta1 = delta2 = 1:")
probs = System("box", delta1=1.0, delta2=1.0).probability_grid(tau_grid(100.0, 0.002))
print(f"  max P_12 = {probs[1].max():.6f}  (1/16 = {1/16:.6f})")
print(f"  max P_16 = {probs[5].max():.6f}  (cap 1/4)")
