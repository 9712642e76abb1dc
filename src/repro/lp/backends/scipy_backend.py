"""LP backend delegating to scipy's HiGHS solver.

HiGHS consumes the CSR standard form as-is; the legacy ``linprog`` methods
(e.g. ``"revised simplex"``) reject sparse input, so for them the backend
densifies the constraint matrices on entry.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

import repro.obs as obs
from repro.lp.backends.base import LPBackend
from repro.lp.model import LPSolution, WarmStart
from repro.lp.status import LPStatus

#: Mapping from ``scipy.optimize.linprog`` status codes to :class:`LPStatus`.
_STATUS_MAP = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ERROR,       # iteration limit
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.ERROR,
}

#: ``linprog`` methods that accept an ``x0`` initial guess.  HiGHS (the
#: default) does not — passing ``x0`` there only raises an OptimizeWarning —
#: so warm starts silently fall back to cold solves for every other method.
_X0_METHODS = frozenset({"revised simplex"})

#: ``linprog`` methods that accept ``scipy.sparse`` constraint matrices.
_SPARSE_METHODS = frozenset({"highs", "highs-ds", "highs-ipm"})


def _count_warmstart_fallback(backend: str, reason: str) -> None:
    """Count a warm start that was supplied but could not be exploited.

    Without this counter, ``warm_start_used=False`` is indistinguishable
    from "no handle supplied" — a session can thread handles through every
    round while the solver quietly cold-starts each one.  Reasons:
    ``method_rejects_x0`` (solver method takes no initial guess — the HiGHS
    default), ``shape_mismatch`` (stale handle from a different variable
    space), ``guess_rejected`` (solver tried ``x0`` and bounced, retried
    cold).
    """
    if obs.enabled():
        obs.counter(
            "repro_lp_warmstart_fallback_total",
            "Warm-start handles supplied to a solve but not exploited.",
            labels=("backend", "reason"),
        ).inc(backend=backend, reason=reason)


def _num_entries(matrix) -> int:
    """Logical entry count of a dense or sparse matrix (rows × cols).

    Deliberately not ``nnz``: an all-zero block still carries rows whose
    right-hand sides constrain feasibility (e.g. ``0 == b_eq``).
    """
    rows, cols = matrix.shape
    return rows * cols


class ScipyBackend(LPBackend):
    """Solve LPs with ``scipy.optimize.linprog(method="highs")``.

    HiGHS is a sparsity-exploiting solver, so the CSR constraint matrices
    from ``LPModel.standard_form`` are forwarded as-is — no densification
    happens on this path.
    """

    name = "scipy"

    def __init__(self, method: str = "highs") -> None:
        self.method = method

    @property
    def warm_start_is_exact(self) -> bool:
        """HiGHS ignores warm starts entirely, so they cannot change bytes."""
        return self.method not in _X0_METHODS

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=None) -> LPSolution:
        bounds_list = [(row[0], row[1]) for row in np.asarray(bounds, dtype=float)]
        if self.method not in _SPARSE_METHODS:
            a_ub, a_eq = self.as_dense(a_ub), self.as_dense(a_eq)
        x0 = None
        if warm_start is not None:
            if self.method not in _X0_METHODS:
                _count_warmstart_fallback(self.name, "method_rejects_x0")
            elif warm_start.values.shape != np.shape(c):
                _count_warmstart_fallback(self.name, "shape_mismatch")
            else:
                x0 = warm_start.values

        def run(guess):
            return linprog(
                c,
                A_ub=a_ub if _num_entries(a_ub) else None,
                b_ub=b_ub if _num_entries(a_ub) else None,
                A_eq=a_eq if _num_entries(a_eq) else None,
                b_eq=b_eq if _num_entries(a_eq) else None,
                bounds=bounds_list,
                method=self.method,
                x0=guess,
            )

        result = run(x0)
        if x0 is not None and result.status != 0:
            # The guess was rejected (linprog status 4 when x0 cannot be
            # converted to a basic feasible solution — the normal case once
            # appended rows cut off the previous optimum) or otherwise did
            # not reach optimality: per the warm-start contract, retry cold
            # rather than surface a spurious failure — but count it.
            _count_warmstart_fallback(self.name, "guess_rejected")
            x0 = None
            result = run(None)
        status = _STATUS_MAP.get(result.status, LPStatus.ERROR)
        iterations = int(result.nit) if getattr(result, "nit", None) is not None else None
        if status is LPStatus.OPTIMAL and result.x is not None:
            values = np.asarray(result.x, dtype=np.float64)
            return LPSolution(
                status=status,
                values=values,
                objective=float(result.fun),
                message=str(result.message),
                iterations=iterations,
                warm_start=WarmStart(backend=self.name, values=values),
                warm_start_used=x0 is not None,
            )
        return LPSolution(
            status=status,
            message=str(result.message),
            iterations=iterations,
            warm_start_used=x0 is not None,
        )
