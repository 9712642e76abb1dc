"""LP modelling layer.

:class:`LPModel` collects variables, linear constraints, bounds, and a linear
objective, and hands a standard-form problem to one of the backends in
:mod:`repro.lp.backends`.  The repair algorithms use it through the helpers
in :mod:`repro.lp.norms`, which add the auxiliary variables needed for
ℓ1/ℓ∞ norm minimization.

Standard form passed to backends::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lb <= x <= ub        (entries may be ±inf)

Constraint blocks are stored narrow — each block keeps only the columns it
actually touches.  One assembler widens them: every block becomes a
full-width ``scipy.sparse`` CSR matrix (:func:`_widen_block`) and the blocks
of each sense are stacked in insertion order (:func:`_stack_blocks`).  Both
:meth:`LPModel.standard_form` and the incremental :class:`LPSession` build
through that pair, so a cold and an incremental assembly of the same model
are the same arrays.  The CSR form is the only representation handed to a
backend; a backend that needs dense arrays densifies on entry
(:meth:`~repro.lp.backends.base.LPBackend.as_dense`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

import repro.obs as obs
from repro.exceptions import LPError
from repro.lp.expression import LinearExpression
from repro.lp.status import LPStatus
from repro.utils.timing import wall_cpu_now


def _solve_form(solver, form, warm_start: WarmStart | None = None) -> LPSolution:
    """Solve one assembled standard form, mirroring it into the telemetry layer.

    The shared solve of :meth:`LPModel.solve` and :meth:`LPSession.solve`.
    A model without variables never reaches the backend: each of its rows
    reads ``0 <= b_ub`` or ``0 == b_eq``, so it is ``INFEASIBLE`` exactly
    when one of those constant rows is violated, and ``OPTIMAL`` otherwise.

    A real solve runs inside an ``lp.solve`` span plus per-backend
    solve-time histogram and solve/iteration counters.  Telemetry reads the
    finished solution only — it never influences which backend runs or
    what it returns.
    """
    c, _, b_ub, _, b_eq, _ = form
    if c.size == 0:
        if np.any(b_ub < 0.0) or np.any(b_eq != 0.0):
            return LPSolution(LPStatus.INFEASIBLE, message="empty model with a violated row")
        return LPSolution(LPStatus.OPTIMAL, np.zeros(0), 0.0, "empty model")
    if not obs.enabled():
        return solver.solve(*form, warm_start=warm_start)
    start_wall, _ = wall_cpu_now()
    with obs.span("lp.solve", backend=solver.name):
        solution = solver.solve(*form, warm_start=warm_start)
    elapsed = wall_cpu_now()[0] - start_wall
    obs.histogram(
        "repro_lp_solve_seconds",
        "Wall-clock seconds per LP solve, by backend.",
        labels=("backend",),
    ).observe(elapsed, backend=solver.name)
    obs.counter(
        "repro_lp_solves_total",
        "LP solves by backend, outcome, and warm-start use.",
        labels=("backend", "status", "warm"),
    ).inc(
        backend=solver.name,
        status=solution.status.value,
        warm="true" if solution.warm_start_used else "false",
    )
    if solution.iterations:
        obs.counter(
            "repro_lp_iterations_total",
            "Simplex/IPM iterations spent, by backend.",
            labels=("backend",),
        ).inc(solution.iterations, backend=solver.name)
    return solution


@dataclass
class WarmStart:
    """Solver state captured from one solve, reusable on an extended model.

    A warm start is only meaningful between two solves of the *same model
    family*: the same variables (count, order, bounds) and a constraint set
    that only grew — exactly what an :class:`LPSession` produces round after
    round.  The handle is backend-specific: ``payload`` is opaque to
    everything except the backend whose ``backend`` name it carries, and a
    backend handed a handle it cannot use (or from another backend) must
    fall back to a cold solve silently.

    Attributes
    ----------
    backend:
        Name of the backend that produced the handle.
    values:
        The primal solution of the previous solve.
    payload:
        Backend-specific extra state (e.g. the simplex basis labels).
    """

    backend: str
    values: np.ndarray
    payload: dict | None = None


@dataclass
class LPSolution:
    """Result of solving an :class:`LPModel`.

    Attributes
    ----------
    status:
        Outcome of the solve.
    values:
        Dense variable assignment (``None`` unless ``status.is_optimal``).
    objective:
        Objective value at ``values`` (``None`` unless optimal).
    message:
        Backend-specific diagnostic text.
    iterations:
        Solver iteration count, when the backend reports one.
    warm_start:
        A :class:`WarmStart` handle for re-solving an extended version of
        the same model (``None`` when the backend cannot produce one).
    warm_start_used:
        Whether this solve actually consumed a warm-start handle.  Backends
        fall back to cold solves silently, so callers that thread handles
        through repeated solves read this flag for reporting.
    """

    status: LPStatus
    values: np.ndarray | None = None
    objective: float | None = None
    message: str = ""
    iterations: int | None = None
    warm_start: WarmStart | None = None
    warm_start_used: bool = False

    def value_of(self, indices) -> np.ndarray:
        """Extract the assignment of a block of variables by index array."""
        if self.values is None:
            raise LPError("solution has no variable values (status: %s)" % self.status)
        return self.values[np.asarray(indices, dtype=int)]


@dataclass
class _ConstraintBlock:
    """A block of constraints ``matrix @ x[columns] (sense) rhs``.

    ``matrix`` is either a dense float64 array or a canonical CSR matrix;
    :func:`_widen_block` turns either into full-width CSR.
    """

    matrix: np.ndarray | sp.csr_matrix
    rhs: np.ndarray
    columns: np.ndarray
    equality: bool = False


def _coerce_block_matrix(matrix):
    """Normalize a block matrix: canonical float64 CSR, or dense 2-D array.

    Sparse inputs stay sparse — densifying here would defeat the streamed
    row pipeline, whose whole point is that full-width dense blocks never
    exist.  ``sum_duplicates``/``sort_indices`` pin the canonical form so
    equality of two CSR matrices reduces to equality of their three arrays.
    """
    if sp.issparse(matrix):
        csr = matrix.tocsr().astype(np.float64, copy=False)
        csr.sum_duplicates()
        csr.sort_indices()
        return csr
    return np.atleast_2d(np.asarray(matrix, dtype=np.float64))


@dataclass
class LPModel:
    """An LP under construction.

    Variables are created with :meth:`add_variable` / :meth:`add_variables`
    and identified by integer index.  Constraints may be added either one at
    a time from :class:`LinearExpression` objects, or as dense blocks
    (matrix form), which is how the repair algorithms add the
    ``A_x (N(x) + J_x Δ) ≤ b_x`` rows.
    """

    _num_variables: int = 0
    _names: list[str] = field(default_factory=list)
    _lower: list[float] = field(default_factory=list)
    _upper: list[float] = field(default_factory=list)
    _objective: dict[int, float] = field(default_factory=dict)
    _blocks: list[_ConstraintBlock] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of variables added so far."""
        return self._num_variables

    def add_variable(
        self,
        name: str | None = None,
        lower: float = -np.inf,
        upper: float = np.inf,
    ) -> int:
        """Add one variable and return its index."""
        if lower > upper:
            raise LPError(f"variable lower bound {lower} exceeds upper bound {upper}")
        index = self._num_variables
        self._names.append(name if name is not None else f"x{index}")
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._num_variables += 1
        return index

    def add_variables(
        self,
        count: int,
        name: str | None = None,
        lower: float = -np.inf,
        upper: float = np.inf,
    ) -> np.ndarray:
        """Add ``count`` variables and return their indices as an array.

        The whole block is appended in one vectorized extend — repair LPs
        create tens of thousands of delta variables at once, so this must
        not fall back to per-variable :meth:`add_variable` calls.
        """
        if count < 0:
            raise LPError("count must be non-negative")
        if lower > upper:
            raise LPError(f"variable lower bound {lower} exceeds upper bound {upper}")
        base = name if name is not None else "x"
        start = self._num_variables
        self._names.extend(f"{base}[{offset}]" for offset in range(count))
        self._lower.extend([float(lower)] * count)
        self._upper.extend([float(upper)] * count)
        self._num_variables += count
        return np.arange(start, start + count, dtype=int)

    def variable_name(self, index: int) -> str:
        """Name of variable ``index``."""
        return self._names[index]

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def add_leq_block(self, matrix, rhs, columns=None) -> None:
        """Add constraints ``matrix @ x[columns] <= rhs``.

        ``columns`` defaults to all variables currently in the model, in
        which case ``matrix`` must have ``num_variables`` columns.  The
        block matrix may be a ``scipy.sparse`` matrix; it is stored as
        canonical CSR without ever being densified, which is what the
        chunked Jacobian stream relies on to keep blocks out of core.
        """
        matrix = _coerce_block_matrix(matrix)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if columns is None:
            columns = np.arange(self._num_variables)
        columns = np.asarray(columns, dtype=int)
        self._check_block(matrix, rhs, columns)
        self._blocks.append(_ConstraintBlock(matrix, rhs, columns, equality=False))

    def add_eq_block(self, matrix, rhs, columns=None) -> None:
        """Add constraints ``matrix @ x[columns] == rhs``."""
        matrix = _coerce_block_matrix(matrix)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if columns is None:
            columns = np.arange(self._num_variables)
        columns = np.asarray(columns, dtype=int)
        self._check_block(matrix, rhs, columns)
        self._blocks.append(_ConstraintBlock(matrix, rhs, columns, equality=True))

    def add_leq(self, expression: LinearExpression, rhs: float) -> None:
        """Add a single constraint ``expression <= rhs``."""
        row, columns = self._expression_row(expression)
        self.add_leq_block(row[None, :], [rhs - expression.constant], columns)

    def add_geq(self, expression: LinearExpression, rhs: float) -> None:
        """Add a single constraint ``expression >= rhs``."""
        self.add_leq(expression * -1.0, -float(rhs))

    def add_eq(self, expression: LinearExpression, rhs: float) -> None:
        """Add a single constraint ``expression == rhs``."""
        row, columns = self._expression_row(expression)
        self.add_eq_block(row[None, :], [rhs - expression.constant], columns)

    def _expression_row(self, expression: LinearExpression):
        coefficients = expression.coefficients
        if not coefficients:
            raise LPError("constraint expression has no variables")
        columns = np.array(sorted(coefficients), dtype=int)
        row = np.array([coefficients[index] for index in columns], dtype=np.float64)
        return row, columns

    def _check_block(self, matrix: np.ndarray, rhs: np.ndarray, columns: np.ndarray) -> None:
        if matrix.ndim != 2:
            raise LPError("constraint matrix must be 2-D")
        if rhs.ndim != 1 or rhs.shape[0] != matrix.shape[0]:
            raise LPError("constraint rhs length must match the number of rows")
        if columns.ndim != 1 or columns.shape[0] != matrix.shape[1]:
            raise LPError("columns length must match the number of matrix columns")
        if columns.size and (columns.min() < 0 or columns.max() >= self._num_variables):
            raise LPError("constraint references an unknown variable index")
        if np.unique(columns).size != columns.size:
            # The CSR assembly would silently sum duplicate columns.
            raise LPError("constraint block columns must be unique")

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    def set_objective_coefficient(self, index: int, coefficient: float) -> None:
        """Set the objective coefficient of variable ``index``."""
        if not 0 <= index < self._num_variables:
            raise LPError(f"unknown variable index {index}")
        if coefficient == 0.0:
            self._objective.pop(index, None)
        else:
            self._objective[index] = float(coefficient)

    def add_objective_term(self, index: int, coefficient: float) -> None:
        """Add ``coefficient`` to the objective coefficient of ``index``."""
        current = self._objective.get(index, 0.0)
        self.set_objective_coefficient(index, current + coefficient)

    def set_objective(self, expression: LinearExpression) -> None:
        """Replace the objective with the given linear expression."""
        self._objective = {}
        for index, coefficient in expression.coefficients.items():
            self.set_objective_coefficient(index, coefficient)

    # ------------------------------------------------------------------
    # Standard form assembly & solving
    # ------------------------------------------------------------------
    def standard_form(self):
        """Assemble ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``.

        The constraint matrices are ``scipy.sparse`` CSR matrices built from
        the narrow constraint blocks without materializing full-width rows;
        ``c``, the right-hand sides, and ``bounds`` are dense.
        """
        n = self._num_variables
        a_ub, b_ub = _stack_blocks(
            [(_widen_block(block, n), block.rhs) for block in self._blocks if not block.equality], n
        )
        a_eq, b_eq = _stack_blocks(
            [(_widen_block(block, n), block.rhs) for block in self._blocks if block.equality], n
        )
        c, bounds = self._objective_and_bounds()
        return c, a_ub, b_ub, a_eq, b_eq, bounds

    def _objective_and_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense objective vector and the ``(n, 2)`` variable bounds."""
        n = self._num_variables
        c = np.zeros(n)
        for index, coefficient in self._objective.items():
            c[index] = coefficient
        bounds = np.column_stack([self._lower, self._upper]) if n else np.zeros((0, 2))
        return c, bounds

    @property
    def num_constraints(self) -> int:
        """Total number of constraint rows added so far."""
        return sum(block.matrix.shape[0] for block in self._blocks)

    def solve(self, backend: str | None = None) -> LPSolution:
        """Solve the model with the named backend (default: ``"scipy"``)."""
        from repro.lp.backends import get_backend

        return _solve_form(get_backend(backend), self.standard_form())

    def incremental_session(self, *, backend: str | None = None) -> "LPSession":
        """Open an :class:`LPSession` over this model's current blocks.

        See :class:`LPSession` for the incremental-assembly contract.
        """
        return LPSession(self, backend=backend)


def _widen_block(block: _ConstraintBlock, num_variables: int) -> sp.csr_matrix:
    """One narrow constraint block as a full-width CSR matrix."""
    if sp.issparse(block.matrix):
        matrix = block.matrix
        if matrix.shape[1] == num_variables and np.array_equal(
            block.columns, np.arange(num_variables)
        ):
            # Identity column map (the repair LPs' delta-variable prefix):
            # the narrow CSR *is* the widened CSR.  Sharing its arrays keeps
            # the streamed path zero-copy per appended chunk.
            return sp.csr_matrix(
                (matrix.data, matrix.indices, matrix.indptr),
                shape=(matrix.shape[0], num_variables),
            )
        coo = matrix.tocoo()
        return sp.coo_matrix(
            (coo.data, (coo.row, block.columns[coo.col])),
            shape=(matrix.shape[0], num_variables),
        ).tocsr()
    # Canonical CSR → COO keeps entries in row-major order, exactly the
    # order np.nonzero gives here, so a dense block and its CSR twin widen
    # to the same arrays byte for byte.
    local_rows, local_cols = np.nonzero(block.matrix)
    return sp.coo_matrix(
        (block.matrix[local_rows, local_cols], (local_rows, block.columns[local_cols])),
        shape=(block.matrix.shape[0], num_variables),
    ).tocsr()


def _stack_blocks(
    parts: list[tuple[sp.csr_matrix, np.ndarray]], num_variables: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Widened ``(matrix, rhs)`` blocks of one sense, stacked in order."""
    if not parts:
        return sp.csr_matrix((0, num_variables)), np.zeros(0)
    matrices = [matrix for matrix, _ in parts]
    matrix = sp.vstack(matrices).tocsr() if len(matrices) > 1 else matrices[0]
    return matrix, np.concatenate([rhs for _, rhs in parts])


class LPSession:
    """An incremental solve session over a growing :class:`LPModel`.

    A CEGIS repair driver solves the *same* LP round after round, each time
    with a few more constraint rows (every round's LP is a superset of the
    last).  Re-running :meth:`LPModel.standard_form` each round walks every
    block again; a session instead assembles the standard form once, keeps
    the widened per-block matrices, and :meth:`append_rows` converts only
    the blocks added to the model since the previous call — so per-round
    assembly cost scales with the *new* rows, not the whole model.

    Appended rows go below every earlier row of their sense, exactly where
    a cold :meth:`LPModel.standard_form` over the same model puts them, so
    the session's standard form is row-for-row the cold one — which is what
    keeps incremental and cold solves byte-identical for a deterministic
    backend.  (The repair LPs add their norm-objective rows first for this
    reason; see :mod:`repro.core.point_repair`.)

    Sessions do not support adding variables after creation
    (:meth:`append_rows` raises); the repair LPs fix their delta and
    auxiliary variables up front.
    """

    def __init__(self, model: LPModel, *, backend: str | None = None) -> None:
        from repro.lp.backends import get_backend

        self.model = model
        self._solver = get_backend(backend)
        self._num_variables = model.num_variables
        # Widened (matrix, rhs) blocks per sense (keyed by ``equality``), in
        # row order.
        self._parts: dict[bool, list] = {False: [], True: []}
        self._consumed = 0
        self._cached_matrices: tuple | None = None
        self._consume()

    def _consume(self) -> int:
        """Widen the model's blocks not yet in the session; returns their rows."""
        rows = 0
        for block in self.model._blocks[self._consumed :]:
            self._parts[block.equality].append(
                (_widen_block(block, self._num_variables), block.rhs)
            )
            rows += block.matrix.shape[0]
        self._consumed = len(self.model._blocks)
        return rows

    def append_rows(self, stream=None) -> int:
        """Widen the blocks added to the model since the last call.

        With ``stream`` given — an iterator of ``(matrix, rhs, columns)``
        triples, where ``matrix`` may be dense or CSR — each item is added
        to the model and consumed into the session *immediately*, so only
        one chunk of the stream is in flight at a time.  This is the
        ingestion point for :class:`~repro.core.jacobian.JacobianChunkStream`:
        the model still records every block (cold re-assembly of the same
        model stays byte-identical), but no dense full-width intermediate
        ever exists.

        Returns the number of constraint rows appended.  Raises
        :class:`LPError` if variables were added after session creation —
        widened matrices from earlier rounds would be too narrow.
        """
        if self.model.num_variables != self._num_variables:
            raise LPError(
                "the model grew from "
                f"{self._num_variables} to {self.model.num_variables} variables; "
                "incremental sessions only support appending constraint rows"
            )
        rows = self._consume()
        if stream is not None:
            for matrix, rhs, columns in stream:
                self.model.add_leq_block(matrix, rhs, columns)
                if self.model.num_variables != self._num_variables:
                    raise LPError(
                        "the model grew variables while a row stream was "
                        "being consumed; incremental sessions only support "
                        "appending constraint rows"
                    )
                rows += self._consume()
        if rows:
            self._cached_matrices = None
        return rows

    @property
    def num_rows(self) -> int:
        """Constraint rows currently assembled."""
        return sum(int(rhs.shape[0]) for blocks in self._parts.values() for _, rhs in blocks)

    def standard_form(self):
        """The assembled ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``.

        The constraint matrices are cached between :meth:`append_rows`
        calls; ``c`` and ``bounds`` are rebuilt from the model each time
        (both are O(variables) and objective coefficients may legally change
        between solves).
        """
        if self.model.num_variables != self._num_variables:
            raise LPError(
                "the model grew variables after session creation; "
                "incremental sessions only support appending constraint rows"
            )
        if self._cached_matrices is None:
            n = self._num_variables
            self._cached_matrices = (
                *_stack_blocks(self._parts[False], n),
                *_stack_blocks(self._parts[True], n),
            )
        c, bounds = self.model._objective_and_bounds()
        return c, *self._cached_matrices, bounds

    def solve(self, warm_start: WarmStart | None = None) -> LPSolution:
        """Solve the current form, optionally warm-started.

        The returned solution carries a fresh ``warm_start`` handle (when
        the backend produces one) for the next, further-extended solve;
        handles from a different backend are dropped here rather than handed
        to a solver that cannot interpret them.
        """
        if warm_start is not None and not self._solver.accepts_handle(warm_start):
            warm_start = None
        return _solve_form(self._solver, self.standard_form(), warm_start)
