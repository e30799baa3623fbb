"""harnacklab: exact verification of Harnack-type identities on Ricci solitons.

Two independent routes check every identity:

* the jet route: fields are truncated multivariate Taylor expansions at
  randomly sampled chart points, PDE constraints are imposed exactly on the
  coefficients, and each identity must cancel to roundoff;
* the grid route: fields are sampled on a periodic torus, derivatives come
  from 4th-order stencils, evolution from RK4, and each identity must vanish
  at the stencils' design order under refinement.

``run_suite`` and ``run_grid_suite`` drive the two routes; the ``harnacklab``
command line wraps both.
"""

__version__ = "0.1.0"

from .checks import (CheckReport, REGISTRY, get_check, run_check,  # noqa: F401
                     run_suite)
from .gridlab import (ConvergenceReport, GRID_CHECKS,  # noqa: F401
                      run_grid_check, run_grid_suite)
from .jet import (Jet, JetCapError, JetOrderError, SingularPointError,  # noqa: F401
                  jet_space)
from .solitons import CATALOG, build_context, catalog_get  # noqa: F401
