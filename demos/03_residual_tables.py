"""Tabulate pointwise equation residuals of the converged iterates.

The defect R(r) = r^2 w'' - r w' - w^2/2 - lam r^4/2 of an approximate
solution, evaluated on the grid r = 0.0, 0.1, ..., 0.9, measures how well
the truncated iteration solves the equation; exact solutions give an
identically zero column (realised exactly by the trivial branch at lam=0).
"""

from epibvp import BoundaryKind, find_branches

bc = BoundaryKind.NAVIER_ONE
rates = [0.0, 15.0, 20.0, 31.0]

columns = {}
for lam in rates:
    # each root carries the exact residual table of its iterate
    for root in find_branches(lam, bc):
        columns[(root.label.value, lam)] = root.table

for label in ("upper", "lower"):
    print(f"{label} branch residuals, {bc.value} conditions")
    header = "   r   " + "".join(f"  lam={lam:<10g}" for lam in rates)
    print(header)
    grid = columns[(label, rates[0])].grid
    for i, r in enumerate(grid):
        row = f"  {r:4.1f} "
        for lam in rates:
            row += f"  {columns[(label, lam)].values[i]:14.6e}"
        print(row)
    print()

for label in ("upper", "lower"):
    maxima = ", ".join(f"{columns[(label, lam)].max_abs():.3g}" for lam in rates)
    print(f"{label} column maxima at lam = {rates}: {maxima}")
print("the lam=0 lower column is exactly zero (trivial solution).")
