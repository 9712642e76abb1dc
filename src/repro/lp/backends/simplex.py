"""A from-scratch dense two-phase simplex LP solver.

This backend exists so the package's core algorithm (LP-based repair) does
not depend on any external solver implementation.  It converts the general
standard form produced by :class:`repro.lp.model.LPModel` into equational
form (all variables non-negative, equality constraints only) and runs a
textbook two-phase primal simplex with Bland's anti-cycling rule.

It is intended for the small-to-medium LPs that appear in unit tests,
examples, and ablation benchmarks; the scipy/HiGHS backend remains the
default for the large experiment LPs.

Conversion to equational form
-----------------------------
Every free variable ``x`` is split into ``x = x⁺ - x⁻`` with
``x⁺, x⁻ ≥ 0``.  Finite lower bounds are shifted into the constant term,
finite upper bounds become extra ``≤`` rows, and every ``≤`` row receives a
slack variable.  Phase 1 minimizes the sum of artificial variables; if that
optimum is positive the problem is infeasible.  Phase 2 minimizes the real
objective starting from the Phase-1 basis.

Warm starts
-----------
An optimal solve returns a :class:`~repro.lp.model.WarmStart` whose payload
records the final basis as *labels* — ``x⁺``/``x⁻`` columns by variable
index, slack columns by the row they slacken — plus the equational layout
they were minted under.  A later solve of the same model with extra ``≤``
rows (the incremental CEGIS case) maps the labels into the new layout,
extends the basis with the new rows' slacks (the classic dual-feasible
extension), canonicalizes the tableau with one dense solve against the
basis matrix, and restores primal feasibility with **dual simplex** pivots —
skipping Phase 1 entirely.  Any incompatibility (different variables,
changed bounds, a singular basis) falls back to the cold two-phase path
silently.  Warm starts change the pivot path, so on a degenerate optimal
face they may return a *different* optimal vertex than a cold solve
(``warm_start_is_exact`` is ``False``).
"""

from __future__ import annotations

import numpy as np

from repro.lp.backends.base import LPBackend
from repro.lp.model import LPSolution, WarmStart
from repro.lp.status import LPStatus

_TOLERANCE = 1e-9


class _EquationalProblem:
    """Equational-form data plus the mapping back to original variables.

    The layout fields describe how columns and rows are ordered — which is
    what warm-start basis labels are resolved against:

    * columns: ``[x⁺ (n), x⁻ (n), slacks (one per ≤ row)]``;
    * ``≤`` rows: ``[a_ub rows, finite-upper-bound rows, finite-lower-bound
      rows]``, each with its slack in the same order;
    * equality rows last.
    """

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        recover,
        *,
        n: int,
        num_a_ub: int,
        finite_upper: np.ndarray,
        finite_lower: np.ndarray,
        num_eq: int,
    ) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.recover = recover
        self.n = n
        self.num_a_ub = num_a_ub
        self.finite_upper = finite_upper
        self.finite_lower = finite_lower
        self.num_eq = num_eq

    @property
    def num_slack(self) -> int:
        return self.num_a_ub + self.finite_upper.size + self.finite_lower.size

    def column_label(self, column: int) -> tuple[str, int]:
        """A layout-independent label for an equational column."""
        if column < self.n:
            return ("plus", column)
        if column < 2 * self.n:
            return ("minus", column - self.n)
        slack = column - 2 * self.n
        if slack < self.num_a_ub:
            return ("slack_ub", slack)
        slack -= self.num_a_ub
        if slack < self.finite_upper.size:
            return ("slack_bu", slack)
        return ("slack_bl", slack - self.finite_upper.size)

    def label_column(self, label: tuple[str, int]) -> int | None:
        """Resolve a label minted under an older (row-subset) layout."""
        kind, index = label
        if kind == "plus":
            return index if index < self.n else None
        if kind == "minus":
            return self.n + index if index < self.n else None
        if kind == "slack_ub":
            return 2 * self.n + index if index < self.num_a_ub else None
        if kind == "slack_bu":
            if index >= self.finite_upper.size:
                return None
            return 2 * self.n + self.num_a_ub + index
        if kind == "slack_bl":
            if index >= self.finite_lower.size:
                return None
            return 2 * self.n + self.num_a_ub + self.finite_upper.size + index
        return None


def _to_equational(c, a_ub, b_ub, a_eq, b_eq, bounds) -> _EquationalProblem:
    """Convert the LPModel standard form into ``min c@y, A y = b, y >= 0``."""
    n = c.shape[0]
    lower = bounds[:, 0].copy()
    upper = bounds[:, 1].copy()

    # Variable substitution: for each original variable produce columns in the
    # non-negative space.  We use the generic split x = x+ - x- and then add
    # bound rows for finite bounds; this is less economical than shifting but
    # much simpler to reason about and adequate for the solver's scope.
    plus = np.arange(n)
    minus = np.arange(n, 2 * n)
    width = 2 * n

    def expand(matrix: np.ndarray) -> np.ndarray:
        expanded = np.zeros((matrix.shape[0], width))
        expanded[:, plus] = matrix
        expanded[:, minus] = -matrix
        return expanded

    ub_rows = [expand(a_ub)] if a_ub.size else []
    ub_rhs = [b_ub] if a_ub.size else []

    # Finite bounds become inequality rows on the split variables.
    finite_upper = np.where(np.isfinite(upper))[0]
    if finite_upper.size:
        rows = np.zeros((finite_upper.size, width))
        rows[np.arange(finite_upper.size), plus[finite_upper]] = 1.0
        rows[np.arange(finite_upper.size), minus[finite_upper]] = -1.0
        ub_rows.append(rows)
        ub_rhs.append(upper[finite_upper])
    finite_lower = np.where(np.isfinite(lower))[0]
    if finite_lower.size:
        rows = np.zeros((finite_lower.size, width))
        rows[np.arange(finite_lower.size), plus[finite_lower]] = -1.0
        rows[np.arange(finite_lower.size), minus[finite_lower]] = 1.0
        ub_rows.append(rows)
        ub_rhs.append(-lower[finite_lower])

    a_ub_full = np.vstack(ub_rows) if ub_rows else np.zeros((0, width))
    b_ub_full = np.concatenate(ub_rhs) if ub_rhs else np.zeros(0)
    a_eq_full = expand(a_eq) if a_eq.size else np.zeros((0, width))
    b_eq_full = b_eq if a_eq.size else np.zeros(0)

    # Add slack variables for the inequality rows.
    num_slack = a_ub_full.shape[0]
    total = width + num_slack
    a_rows = []
    b_values = []
    if num_slack:
        block = np.hstack([a_ub_full, np.eye(num_slack)])
        a_rows.append(block)
        b_values.append(b_ub_full)
    if a_eq_full.shape[0]:
        block = np.hstack([a_eq_full, np.zeros((a_eq_full.shape[0], num_slack))])
        a_rows.append(block)
        b_values.append(b_eq_full)

    a_full = np.vstack(a_rows) if a_rows else np.zeros((0, total))
    b_full = np.concatenate(b_values) if b_values else np.zeros(0)

    c_full = np.zeros(total)
    c_full[plus] = c
    c_full[minus] = -c

    def recover(y: np.ndarray) -> np.ndarray:
        return y[plus] - y[minus]

    return _EquationalProblem(
        a_full,
        b_full,
        c_full,
        recover,
        n=n,
        num_a_ub=int(a_ub.shape[0]) if a_ub.size else 0,
        finite_upper=finite_upper,
        finite_lower=finite_lower,
        num_eq=int(a_eq_full.shape[0]),
    )


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the simplex tableau on (row, col) in place."""
    tableau[row] /= tableau[row, col]
    for other in range(tableau.shape[0]):
        if other != row and abs(tableau[other, col]) > 0:
            tableau[other] -= tableau[other, col] * tableau[row]
    basis[row] = col


def _simplex_iterate(
    tableau: np.ndarray, basis: np.ndarray, num_cols: int, max_iter: int
) -> tuple[str, int]:
    """Run primal simplex iterations on the tableau.

    The last row of the tableau holds the (negated) reduced costs and the
    last column holds the right-hand side.  Returns ``(outcome, iterations)``
    where outcome is ``"optimal"``, ``"unbounded"``, or ``"iteration_limit"``.
    """
    num_rows = tableau.shape[0] - 1
    for iteration in range(max_iter):
        costs = tableau[-1, :num_cols]
        entering_candidates = np.where(costs < -_TOLERANCE)[0]
        if entering_candidates.size == 0:
            return "optimal", iteration
        entering = int(entering_candidates[0])  # Bland's rule

        column = tableau[:num_rows, entering]
        positive = np.where(column > _TOLERANCE)[0]
        if positive.size == 0:
            return "unbounded", iteration
        ratios = tableau[positive, -1] / column[positive]
        best = np.min(ratios)
        # Bland's rule tie-break: smallest basis variable index.
        ties = positive[np.where(np.abs(ratios - best) <= _TOLERANCE * (1 + abs(best)))[0]]
        leaving = int(ties[np.argmin(basis[ties])])
        _pivot(tableau, basis, leaving, entering)
    return "iteration_limit", max_iter


def _dual_simplex_iterate(
    tableau: np.ndarray, basis: np.ndarray, num_cols: int, max_iter: int
) -> tuple[str, int]:
    """Restore primal feasibility of a dual-feasible tableau in place.

    The tableau must carry non-negative reduced costs in its last row (up to
    tolerance); rows with negative right-hand sides are pivoted out.
    Returns ``("optimal" | "infeasible" | "iteration_limit", iterations)``.
    """
    num_rows = tableau.shape[0] - 1
    for iteration in range(max_iter):
        rhs = tableau[:num_rows, -1]
        negative = np.where(rhs < -_TOLERANCE)[0]
        if negative.size == 0:
            return "optimal", iteration
        # Bland-style leaving choice: smallest basic variable index.
        leaving = int(negative[np.argmin(basis[negative])])
        row_entries = tableau[leaving, :num_cols]
        candidates = np.where(row_entries < -_TOLERANCE)[0]
        if candidates.size == 0:
            # The row reads  (nonnegative coefficients) @ y = negative rhs
            # over y >= 0: the added constraints are unsatisfiable.
            return "infeasible", iteration
        costs = tableau[-1, candidates]
        ratios = costs / (-row_entries[candidates])
        best = np.min(ratios)
        ties = candidates[np.where(np.abs(ratios - best) <= _TOLERANCE * (1 + abs(best)))[0]]
        entering = int(ties[0])  # smallest column index on ties
        _pivot(tableau, basis, leaving, entering)
    return "iteration_limit", max_iter


class SimplexBackend(LPBackend):
    """Two-phase dense primal simplex with Bland's rule (dual-simplex warm starts)."""

    name = "simplex"

    def __init__(self, max_iterations: int = 20000) -> None:
        self.max_iterations = max_iterations

    @property
    def warm_start_is_exact(self) -> bool:
        """Hot starts pivot differently, so a degenerate face may resolve elsewhere."""
        return False

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=None) -> LPSolution:
        # The tableau works on dense arrays: the CSR standard form is
        # densified here, on entry.
        problem = _to_equational(
            np.asarray(c, dtype=float),
            self.as_dense(a_ub),
            np.asarray(b_ub, dtype=float),
            self.as_dense(a_eq),
            np.asarray(b_eq, dtype=float),
            np.asarray(bounds, dtype=float),
        )
        if warm_start is not None and warm_start.payload is not None:
            hot = self._warm_solve(problem, warm_start.payload, np.asarray(c, dtype=float))
            if hot is not None:
                return hot
        return self._cold_solve(problem, np.asarray(c, dtype=float))

    # ------------------------------------------------------------------
    # Cold path: textbook two-phase primal simplex
    # ------------------------------------------------------------------
    def _cold_solve(self, problem: _EquationalProblem, c: np.ndarray) -> LPSolution:
        a, b, costs = problem.a.copy(), problem.b.copy(), problem.c.copy()
        num_rows, num_cols = a.shape

        if num_rows == 0:
            # No constraints: optimum is at the origin of the split space
            # unless the objective is non-zero in a direction with no bound,
            # in which case it is unbounded.
            if np.any(costs != 0):
                return LPSolution(LPStatus.UNBOUNDED, message="no constraints")
            return LPSolution(
                LPStatus.OPTIMAL, problem.recover(np.zeros(num_cols)), 0.0, iterations=0
            )

        # Make every right-hand side non-negative before adding artificials.
        negative = b < 0
        a[negative] *= -1
        b[negative] *= -1

        # Phase 1: add one artificial variable per row.
        tableau = np.zeros((num_rows + 1, num_cols + num_rows + 1))
        tableau[:num_rows, :num_cols] = a
        tableau[:num_rows, num_cols:num_cols + num_rows] = np.eye(num_rows)
        tableau[:num_rows, -1] = b
        basis = np.arange(num_cols, num_cols + num_rows)
        # Phase-1 objective: sum of artificials; express reduced costs.
        tableau[-1, :num_cols] = -a.sum(axis=0)
        tableau[-1, -1] = -b.sum()

        outcome, phase1_iterations = _simplex_iterate(
            tableau, basis, num_cols + num_rows, self.max_iterations
        )
        if outcome == "iteration_limit":
            return LPSolution(LPStatus.ERROR, message="phase-1 iteration limit reached")
        phase1_objective = -tableau[-1, -1]
        if phase1_objective > 1e-6:
            return LPSolution(
                LPStatus.INFEASIBLE,
                message="phase-1 optimum positive",
                iterations=phase1_iterations,
            )

        # Drive any artificial variables out of the basis if possible.
        for row in range(num_rows):
            if basis[row] >= num_cols:
                pivot_candidates = np.where(np.abs(tableau[row, :num_cols]) > _TOLERANCE)[0]
                if pivot_candidates.size:
                    _pivot(tableau, basis, row, int(pivot_candidates[0]))

        # Phase 2: restore the true objective over the current basis.
        phase2 = np.zeros((num_rows + 1, num_cols + 1))
        phase2[:num_rows, :num_cols] = tableau[:num_rows, :num_cols]
        phase2[:num_rows, -1] = tableau[:num_rows, -1]
        phase2[-1, :num_cols] = costs
        # Zero out reduced costs of basic variables.
        for row in range(num_rows):
            col = basis[row]
            if col < num_cols and abs(phase2[-1, col]) > 0:
                phase2[-1] -= phase2[-1, col] * phase2[row]

        outcome, phase2_iterations = _simplex_iterate(
            phase2, basis, num_cols, self.max_iterations
        )
        iterations = phase1_iterations + phase2_iterations
        if outcome == "iteration_limit":
            return LPSolution(LPStatus.ERROR, message="phase-2 iteration limit reached")
        if outcome == "unbounded":
            return LPSolution(
                LPStatus.UNBOUNDED, message="phase-2 unbounded", iterations=iterations
            )
        return self._extract(
            problem, phase2, basis, c, iterations, warm_used=False, message="simplex optimal"
        )

    # ------------------------------------------------------------------
    # Warm path: dual simplex from a prior basis
    # ------------------------------------------------------------------
    def _warm_solve(
        self, problem: _EquationalProblem, payload: dict, c: np.ndarray
    ) -> LPSolution | None:
        """Hot-start from a prior basis; ``None`` means "fall back to cold"."""
        if (
            payload.get("n") != problem.n
            or payload.get("num_eq") != problem.num_eq
            or payload.get("num_a_ub", problem.num_a_ub + 1) > problem.num_a_ub
            or not np.array_equal(payload.get("finite_upper"), problem.finite_upper)
            or not np.array_equal(payload.get("finite_lower"), problem.finite_lower)
        ):
            return None
        num_rows, num_cols = problem.a.shape
        if num_rows == 0:
            return None

        # Prior basic columns, remapped into this layout, then extended with
        # the new rows' slacks: the classic dual-feasible basis extension.
        basis_columns: list[int] = []
        for label in payload["basis_labels"]:
            column = problem.label_column(tuple(label))
            if column is None:
                return None
            basis_columns.append(column)
        old_num_a_ub = int(payload["num_a_ub"])
        basis_columns.extend(
            2 * problem.n + row for row in range(old_num_a_ub, problem.num_a_ub)
        )
        if len(basis_columns) != num_rows or len(set(basis_columns)) != num_rows:
            return None
        basis = np.array(basis_columns, dtype=int)

        basis_matrix = problem.a[:, basis]
        try:
            body = np.linalg.solve(basis_matrix, problem.a)
            rhs = np.linalg.solve(basis_matrix, problem.b)
        except np.linalg.LinAlgError:
            return None
        if not (np.all(np.isfinite(body)) and np.all(np.isfinite(rhs))):
            return None

        tableau = np.zeros((num_rows + 1, num_cols + 1))
        tableau[:num_rows, :num_cols] = body
        tableau[:num_rows, -1] = rhs
        reduced = problem.c - problem.c[basis] @ body
        if np.min(reduced) < -1e-6:
            # The prior basis is not dual feasible here (objective changed?):
            # dual simplex does not apply, let the cold path handle it.
            return None
        tableau[-1, :num_cols] = reduced
        tableau[-1, -1] = -float(problem.c[basis] @ rhs)

        outcome, dual_iterations = _dual_simplex_iterate(
            tableau, basis, num_cols, self.max_iterations
        )
        if outcome == "iteration_limit":
            return None
        if outcome == "infeasible":
            return LPSolution(
                LPStatus.INFEASIBLE,
                message="dual simplex: appended rows are unsatisfiable",
                iterations=dual_iterations,
                warm_start_used=True,
            )
        # Clean up any reduced costs the canonicalization left slightly
        # negative; from a primal-feasible tableau this is ordinary phase 2.
        outcome, primal_iterations = _simplex_iterate(
            tableau, basis, num_cols, self.max_iterations
        )
        iterations = dual_iterations + primal_iterations
        if outcome == "iteration_limit":
            return None
        if outcome == "unbounded":
            return LPSolution(
                LPStatus.UNBOUNDED, message="phase-2 unbounded", iterations=iterations
            )
        return self._extract(
            problem,
            tableau,
            basis,
            c,
            iterations,
            warm_used=True,
            message="simplex optimal (warm start)",
        )

    # ------------------------------------------------------------------
    def _extract(
        self,
        problem: _EquationalProblem,
        tableau: np.ndarray,
        basis: np.ndarray,
        c: np.ndarray,
        iterations: int,
        warm_used: bool,
        message: str,
    ) -> LPSolution:
        """Read the solution off an optimal tableau and mint a warm handle."""
        num_rows = tableau.shape[0] - 1
        num_cols = tableau.shape[1] - 1
        solution = np.zeros(num_cols)
        artificial_basic = False
        for row in range(num_rows):
            if basis[row] < num_cols:
                solution[basis[row]] = tableau[row, -1]
            else:
                artificial_basic = True
        x = problem.recover(solution)
        handle = None
        if not artificial_basic:
            handle = WarmStart(
                backend=self.name,
                values=x,
                payload={
                    "n": problem.n,
                    "num_a_ub": problem.num_a_ub,
                    "finite_upper": problem.finite_upper,
                    "finite_lower": problem.finite_lower,
                    "num_eq": problem.num_eq,
                    "basis_labels": [problem.column_label(int(col)) for col in basis],
                },
            )
        return LPSolution(
            LPStatus.OPTIMAL,
            values=x,
            objective=float(np.dot(c, x)),
            message=message,
            iterations=iterations,
            warm_start=handle,
            warm_start_used=warm_used,
        )
