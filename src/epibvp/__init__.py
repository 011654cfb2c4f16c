"""Solver for the radial boundary value problem of epitaxial deposition.

The stationary height profile phi(r) of a film growing on the unit disk
reduces, through w = r phi', to the singular second-order problem

    r**2 w'' - r w' = w**2 / 2 + lam * r**4 / 2,    w'(0) = 0,

closed by one of three right-boundary conditions on w at r = 1.  The
package solves it by a polynomial correction-functional iteration plus
shooting on the quadratic start coefficient, recovers phi, tabulates
pointwise residuals, tracks the two coexisting solution branches and
locates the critical deposition rate where they merge, and cross-checks
everything against an independent Taylor-series integrator.
"""

from .critical import *
from .oracle import *
from .polyring import *
from .recover import *
from .shooting import *
from .vim import *

__version__ = "0.1.0"

__all__ = (critical.__all__ + oracle.__all__ + polyring.__all__
           + recover.__all__ + shooting.__all__ + vim.__all__)
