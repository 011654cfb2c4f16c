"""Find both solution branches at a fixed deposition rate and recover the
height profiles.

Below the critical rate the boundary condition pins two values of the
shooting coefficient: a lower branch (small profile) and an upper branch
(large profile).  The height profile phi follows from w = r phi' with
phi(1) = 0.
"""

import numpy as np

from epibvp import BoundaryKind, evaluate, find_branches

bc = BoundaryKind.NAVIER_ONE
lam = 15.0

roots = find_branches(lam, bc)
print(f"{len(roots)} branches at lam={lam} under {bc.value} conditions\n")

grid = np.linspace(0.0, 1.0, 11)
for root in roots:
    # each root carries its iterate w and the profile phi recovered from it
    sup = np.max(np.abs(evaluate(root.phi, np.linspace(0, 1, 101))))
    print(f"{root.label.value:5s} branch: a* = {root.a_star:.8f}, "
          f"sup|phi| = {sup:.4f}")
    print("   r    :", "  ".join(f"{r:7.1f}" for r in grid))
    print("   phi  :", "  ".join(f"{v:7.4f}" for v in evaluate(root.phi, grid)))
    print("   w    :", "  ".join(f"{v:7.4f}" for v in evaluate(root.w, grid)))
    print()

print("the two profiles are ordered: lower <= upper pointwise on [0, 1]")

print("\nabove the critical rate (about 31.94 here) no branch survives:")
print("  branches at lam=40:", find_branches(40.0, bc))
