"""Cross-validate the polynomial solver against a Taylor-series integrator.

A completely independent path to the same branches: integrate the equation
as an initial value problem in t = ln r, by order-24 Taylor steps from
the Frobenius series at the singular origin, shoot on the quadratic coefficient,
and recover the profile by trapezoidal quadrature.  Roots and profiles
from the two methods agree to a few hundredths at the default truncation
depth.  The Taylor order is fixed; that doubling it moves the endpoint
by less than 1e-9 is checked in tests/test_acceptance.py (test_09).
"""

import numpy as np

from epibvp import (
    BoundaryKind,
    evaluate,
    find_branches,
    ivp_trajectory,
    oracle_branches,
    profile_from_trajectory,
)

lam = 1.0
for bc in BoundaryKind:
    vim_roots = find_branches(lam, bc)
    ivp_roots = oracle_branches(lam, bc)
    print(f"{bc.value}: lam={lam}")
    for root in vim_roots:
        nearest = min(ivp_roots, key=lambda x: abs(x - root.a_star))
        rs, ws, _ = ivp_trajectory(nearest, lam)
        phi_taylor = profile_from_trajectory(rs, ws)
        sample = slice(0, rs.size, 40)
        dphi = np.max(np.abs(evaluate(root.phi, rs[sample]) - phi_taylor[sample]))
        print(f"  {root.label.value:5s}: iteration root {root.a_star:12.6f}  "
              f"integrator root {nearest:12.6f}  "
              f"|da| {abs(nearest - root.a_star):.2e}  "
              f"profile gap {dphi:.2e}")
