"""Track the two branches toward their fold and locate the critical rate.

As the deposition rate grows the branch profiles move toward each other;
past a critical rate the boundary condition has no real solution and the
branch pair disappears.  Newton's method on B = 0, dB/da = 0, with the
derivatives the iteration steps along with B, locates the fold lambda*, and
the branch count, which stays robust where a double root defeats sign
bracketing, certifies it: two branches 0.45 tol below it and none 0.45 tol
above give the bracket.
"""

from epibvp import (
    BoundaryKind,
    branch_gap,
    depth_sensitivity,
    find_critical_lambda,
    sweep,
)

bc = BoundaryKind.NAVIER_TWO

print(f"branch census under {bc.value} conditions:")
records = sweep([0.0, 8.0, 10.0, 11.0], bc)
for record in records:
    gap = branch_gap(record) if record.branch_count == 2 else float("nan")
    print(f"  lam={record.lam:6g}: {record.branch_count} branches, "
          f"profile gap {gap:.4f}")

print("\nNewton fold checked by branch counts between lam=5 (two) "
      "and lam=20 (none):")
estimate = find_critical_lambda(bc, 5.0, 20.0, 0.01)
print(f"  fold lambda* = {estimate.lambda_star:.6f} at a = "
      f"{estimate.a_fold:.6f} (depth {estimate.n_iter_used})")
print(f"  count bracket {estimate.bracket[0]:.4f}..{estimate.bracket[1]:.4f}"
      f", critical rate ~ {estimate.lambda_crit:.4f}")

print("\nthe fold depends mildly on the truncation depth:")
for depth, value in depth_sensitivity(bc, 5.0, 20.0, 0.01).items():
    print(f"  depth {depth}: {value if value is not None else 'not resolved'}")

print("\nnegative rates never fold; both branches persist and separate:")
for record in sweep([-1.0, -50.0, -100.0], bc):
    print(f"  lam={record.lam:6g}: {record.branch_count} branches, "
          f"gap {branch_gap(record):.4f}")
