"""Linear-programming substrate.

The paper uses Gurobi to solve the repair LPs.  This package provides the
same capability with two interchangeable backends:

* :class:`repro.lp.backends.scipy_backend.ScipyBackend` — scipy's HiGHS
  solver (the default; handles the large repair LPs).
* :class:`repro.lp.backends.highs_native.HighsNativeBackend` — HiGHS via
  its own ``highspy`` bindings, with real basis handles and append-only
  row growth (degrades to the scipy path when ``highspy`` is missing).
* :class:`repro.lp.backends.simplex.SimplexBackend` — a from-scratch dense
  two-phase simplex implementation, useful for small LPs and as an
  independent cross-check of the default backend.

The modelling layer (:class:`repro.lp.model.LPModel`) supports named scalar
and vector variables, ``≤``/``≥``/``=`` constraints, box bounds, linear
objectives, and the ℓ1/ℓ∞ norm objectives used by the repair algorithms
(encoded with auxiliary variables, see :mod:`repro.lp.norms`).
"""

from repro.lp.model import LPModel, LPSession, LPSolution, WarmStart
from repro.lp.status import LPStatus
from repro.lp.expression import LinearExpression
from repro.lp.backends import (
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
    unregister_backend,
)

__all__ = [
    "LPModel",
    "LPSession",
    "LPSolution",
    "WarmStart",
    "LPStatus",
    "LinearExpression",
    "available_backends",
    "backend_capabilities",
    "get_backend",
    "register_backend",
    "unregister_backend",
]
