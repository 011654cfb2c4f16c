"""Cross-validate the polynomial solver against a Runge-Kutta integrator.

A completely independent path to the same branches: integrate the equation
as an initial value problem from a series start near the singular origin,
shoot on the quadratic coefficient, and recover the profile by trapezoidal
quadrature.  Roots and profiles from the two methods agree to a few
hundredths at the default truncation depth.
"""

import numpy as np

from epibvp import (
    BoundaryKind,
    IvpConfig,
    evaluate,
    find_branches,
    ivp_trajectory,
    oracle_branches,
    profile_from_trajectory,
    step_halving_order,
)

lam = 1.0
for bc in BoundaryKind:
    vim_roots = find_branches(lam, bc)
    ivp_roots = oracle_branches(lam, bc, cfg=IvpConfig(steps=640))
    print(f"{bc.value}: lam={lam}")
    for root in vim_roots:
        nearest = min(ivp_roots, key=lambda x: abs(x - root.a_star))
        rs, ws, _ = ivp_trajectory(nearest, lam, IvpConfig(steps=640))
        phi_rk = profile_from_trajectory(rs, ws)
        sample = slice(0, rs.size, 40)
        dphi = np.max(np.abs(evaluate(root.phi, rs[sample]) - phi_rk[sample]))
        print(f"  {root.label.value:5s}: iteration root {root.a_star:12.6f}  "
              f"integrator root {nearest:12.6f}  "
              f"|da| {abs(nearest - root.a_star):.2e}  "
              f"profile gap {dphi:.2e}")

order, d1, d2 = step_halving_order(-0.126, 1.0, IvpConfig(r0=1e-2, steps=1000))
print(f"\nintegrator order by step halving: {order:.2f} "
      f"(differences {d1:.2e} -> {d2:.2e}; fourth order gives a ratio of 16)")
