"""Cross-validate the polynomial solver against a Taylor-series integrator.

A completely independent path to the same branches: integrate the equation
as an initial value problem in t = ln r, by order-24 Taylor steps from
the Frobenius series at the singular origin, shoot on the quadratic coefficient,
and recover the profile by trapezoidal quadrature.  Roots and profiles
from the two methods agree to a few hundredths at the default truncation
depth.  Doubling the Taylor order moves the endpoint by less than 1e-12
at a = -0.126, where classic RK4 on 2000 steps from r = 1e-4 lies 2e-10
from RK4 on 8000.
"""

import numpy as np

from epibvp import (
    BoundaryKind,
    IvpConfig,
    evaluate,
    find_branches,
    ivp_integrate,
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

w24, v24 = ivp_integrate(-0.126, 1.0, IvpConfig(r0=1e-2, order=24))
w48, v48 = ivp_integrate(-0.126, 1.0, IvpConfig(r0=1e-2, order=48))
print(f"\norder doubling at a = -0.126: w(1) moves by {abs(w24 - w48):.1e}, "
      f"w'(1) by {abs(v24 - v48):.1e}")
