"""Native ``highspy`` LP backend with true basis reuse across appended rows.

The default :class:`~repro.lp.backends.scipy_backend.ScipyBackend` drives
HiGHS through ``scipy.optimize.linprog``, which re-presolves every solve
from scratch — the one cost the incremental CEGIS machinery (append-only
:class:`~repro.lp.model.LPSession` row growth, round-over-round warm
starts) cannot amortize through that API.  This backend talks to HiGHS
directly through its ``highspy`` bindings instead:

* the backend instance **keeps the HiGHS model alive between solves**.
  When the next standard form is the previous one plus extra inequality
  rows (exactly what an ``LPSession`` produces round after round), the new
  rows are handed to ``Highs.addRows`` and the solver re-runs from its
  retained basis/factorization — no model rebuild, no re-presolve, a
  dual-simplex cleanup of the appended rows only;
* every optimal solve mints a :class:`~repro.lp.model.WarmStart` whose
  payload carries the final **HiGHS basis** (column/row statuses), so a
  *different* backend instance — a resumed session, for example —
  can still seed ``Highs.setBasis`` with the previous basis extended by
  basic slacks for the new rows (the classic dual-feasible extension);
* any mismatch (variables changed, equality block changed, bounds or
  objective moved, a stale or foreign handle) falls back to a cold
  ``passModel`` solve silently, per the
  :meth:`~repro.lp.backends.base.LPBackend.solve` contract.

Basis reuse steers the pivot path, so a warm solve may land on a different
vertex of a degenerate optimal face than a cold solve:
``warm_start_is_exact`` is honestly ``False`` on the native path.  Callers
that pin byte-level reproducibility (the incremental differential tests)
keep using the scipy backend; callers that want the fastest rounds use this
one and compare at verdict level.

``highspy`` is an **optional** dependency.  When it is not importable the
backend stays registered but degrades to the scipy path with a loud
capability flag: ``available`` is ``False``, a one-time warning is logged,
every degraded solve increments ``repro_lp_backend_fallback_total``, and
``warm_start_is_exact`` reverts to the scipy backend's honest ``True``
(the fallback ignores handles entirely).  The registry's capability probe
(:func:`repro.lp.backends.backend_capabilities`) surfaces all of this.
"""

from __future__ import annotations

import importlib.util
import itertools
import logging
import threading

import numpy as np
import scipy.sparse as sp

import repro.obs as obs
from repro.lp.backends.base import LPBackend
from repro.lp.backends.scipy_backend import ScipyBackend
from repro.lp.model import LPSolution, WarmStart
from repro.lp.status import LPStatus

#: Whether the native bindings are importable in this process.  Probed once
#: at import time (cheap: metadata only, the module itself loads lazily).
HIGHSPY_AVAILABLE: bool = importlib.util.find_spec("highspy") is not None

_LOGGER = logging.getLogger("repro.lp")
_FALLBACK_ANNOUNCED = False

#: Process-wide unique tokens stamped into minted basis payloads, so an
#: instance can tell "the handle I just minted from my retained basis" apart
#: from a stale or foreign handle without comparing whole basis vectors.
_BASIS_TOKENS = itertools.count(1)


def _announce_fallback() -> None:
    """Log the degraded-capability warning once per process."""
    global _FALLBACK_ANNOUNCED
    if not _FALLBACK_ANNOUNCED:
        _FALLBACK_ANNOUNCED = True
        _LOGGER.warning(
            "LP backend 'highs_native' requested but highspy is not installed; "
            "degrading to the scipy/linprog path (no native basis reuse). "
            "Install highspy to enable it."
        )


def _count_fallback(reason: str) -> None:
    if obs.enabled():
        obs.counter(
            "repro_lp_backend_fallback_total",
            "Solves degraded to a fallback backend, by backend and reason.",
            labels=("backend", "reason"),
        ).inc(backend="highs_native", reason=reason)


class _RetainedModel:
    """The constraint state the live HiGHS model was last built from.

    Rows are laid out ``[equality block; inequality block]`` so append-only
    inequality growth — the only growth :class:`~repro.lp.model.LPSession`
    produces — is always an append at the *bottom* of the HiGHS model.
    Prefix equality is checked on the raw CSR arrays, which is a few
    ``memcmp``-speed comparisons, orders of magnitude cheaper than the
    presolve it avoids.
    """

    def __init__(self, c, a_ub, b_ub, a_eq, b_eq, bounds) -> None:
        self.c = np.array(c, dtype=np.float64, copy=True)
        self.bounds = np.array(bounds, dtype=np.float64, copy=True)
        self.ub = sp.csr_matrix(a_ub, dtype=np.float64, copy=True)
        self.b_ub = np.array(b_ub, dtype=np.float64, copy=True)
        self.eq = sp.csr_matrix(a_eq, dtype=np.float64, copy=True)
        self.b_eq = np.array(b_eq, dtype=np.float64, copy=True)

    @property
    def num_rows(self) -> int:
        return int(self.eq.shape[0] + self.ub.shape[0])

    def appended_rows(self, other: "_RetainedModel") -> slice | None:
        """The slice of ``other``'s ub rows beyond ours, if everything else
        (variables, objective, bounds, equality block, our ub prefix) is
        unchanged; ``None`` means "not an append — rebuild"."""
        if other.c.shape != self.c.shape or not np.array_equal(other.c, self.c):
            return None
        if not np.array_equal(other.bounds, self.bounds):
            return None
        if other.eq.shape != self.eq.shape or not _csr_equal(other.eq, self.eq):
            return None
        if not np.array_equal(other.b_eq, self.b_eq):
            return None
        old_rows = self.ub.shape[0]
        if other.ub.shape[1] != self.ub.shape[1] or other.ub.shape[0] < old_rows:
            return None
        if not _csr_prefix_equal(other.ub, self.ub, old_rows):
            return None
        if not np.array_equal(other.b_ub[:old_rows], self.b_ub):
            return None
        return slice(old_rows, other.ub.shape[0])


def _csr_equal(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def _csr_prefix_equal(grown: sp.csr_matrix, prefix: sp.csr_matrix, rows: int) -> bool:
    if not np.array_equal(grown.indptr[: rows + 1], prefix.indptr[: rows + 1]):
        return False
    nnz = int(prefix.indptr[rows])
    return np.array_equal(grown.indices[:nnz], prefix.indices[:nnz]) and np.array_equal(
        grown.data[:nnz], prefix.data[:nnz]
    )


class HighsNativeBackend(LPBackend):
    """Direct ``highspy`` driver with retained-model incremental re-solves.

    Without ``highspy`` installed the instance is a loudly-flagged shim
    around :class:`ScipyBackend` (``available`` is ``False``); with it, the
    instance owns one ``highspy.Highs`` object whose model, basis, and
    factorization persist across :meth:`solve` calls for the lifetime of
    the instance — which is the lifetime of an
    :class:`~repro.lp.model.LPSession`, since sessions resolve their
    backend once at construction.
    """

    name = "highs_native"
    available = HIGHSPY_AVAILABLE

    def __init__(self) -> None:
        self._fallback = None if HIGHSPY_AVAILABLE else ScipyBackend()
        if self._fallback is not None:
            _announce_fallback()
        self._highs = None
        self._retained: _RetainedModel | None = None
        #: Token of the handle minted from the currently retained basis
        #: (``None`` when the retained basis was never handed out).
        self._retained_token: int | None = None
        # The instance retains one live ``highspy.Highs`` across solves, so
        # callers sharing an instance across threads must serialize.
        self._native_lock = threading.Lock()

    @property
    def native(self) -> bool:
        """Whether solves actually go through ``highspy`` in this process."""
        return self._fallback is None

    @property
    def warm_start_is_exact(self) -> bool:
        """Basis reuse steers the pivot path — honest ``False`` natively.

        The degraded (scipy) path ignores handles entirely, so there a warm
        solve *is* a cold solve and the flag reverts to ``True``.
        """
        if self._fallback is not None:
            return self._fallback.warm_start_is_exact
        return False

    def accepts_handle(self, warm_start: WarmStart) -> bool:
        """Accept our own handles; degraded instances also accept scipy's."""
        if warm_start.backend == self.name:
            return True
        return self._fallback is not None and self._fallback.accepts_handle(warm_start)

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=None) -> LPSolution:
        if self._fallback is not None:
            _count_fallback("highspy_missing")
            return self._fallback.solve(
                c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=warm_start
            )
        with self._native_lock:
            return self._solve_native(c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start)

    # ------------------------------------------------------------------
    # Native path (everything below only runs with highspy importable)
    # ------------------------------------------------------------------
    def _solve_native(self, c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start) -> LPSolution:
        import highspy

        incoming = _RetainedModel(c, a_ub, b_ub, a_eq, b_eq, bounds)
        appended = (
            self._retained.appended_rows(incoming)
            if self._highs is not None and self._retained is not None
            else None
        )
        warm_used = False
        try:
            if appended is not None:
                new_rows = incoming.ub.shape[0] - appended.start
                if new_rows:
                    self._add_ub_rows(incoming, appended)
                if warm_start is None:
                    # The caller asked for cold semantics: drop the retained
                    # basis/solution so HiGHS solves from scratch.
                    self._highs.clearSolver()
                else:
                    payload = warm_start.payload or {}
                    token = payload.get("token")
                    if token is not None and token == self._retained_token:
                        # The handle was minted from the basis this instance
                        # still retains: reusing the retained state *is*
                        # using the handle.
                        warm_used = True
                    else:
                        # A stale or foreign handle: install its basis
                        # explicitly, or solve cold — never report a payload
                        # that was not actually used.
                        warm_used = self._seed_basis(payload, incoming)
                        if not warm_used:
                            self._highs.clearSolver()
            else:
                self._pass_model(incoming)
                if warm_start is not None and warm_start.payload is not None:
                    warm_used = self._seed_basis(warm_start.payload, incoming)
            run_status = self._highs.run()
        except Exception as error:  # pragma: no cover - defensive: binding drift
            self._highs = None
            self._retained = None
            self._retained_token = None
            return LPSolution(
                LPStatus.ERROR, message=f"highspy failure: {error}", warm_start_used=False
            )
        self._retained = incoming
        if run_status != highspy.HighsStatus.kOk and run_status != highspy.HighsStatus.kWarning:
            return LPSolution(
                LPStatus.ERROR,
                message=f"highspy run status {run_status}",
                warm_start_used=warm_used,
            )
        return self._extract(incoming, warm_used)

    def _ensure_highs(self):
        import highspy

        if self._highs is None:
            self._highs = highspy.Highs()
            # Deterministic, quiet solves: one thread, pinned seed, no tty
            # chatter.  Dual simplex (the HiGHS default) is what basis
            # reuse across appended rows wants.
            self._highs.setOptionValue("output_flag", False)
            self._highs.setOptionValue("threads", 1)
            self._highs.setOptionValue("random_seed", 0)
        return self._highs

    def _pass_model(self, retained: _RetainedModel) -> None:
        import highspy

        highs = self._ensure_highs()
        highs.clear()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("threads", 1)
        self._highs.setOptionValue("random_seed", 0)
        infinity = highs.getInfinity()
        n = retained.c.shape[0]
        matrix = sp.vstack([retained.eq, retained.ub], format="csr")
        num_eq = retained.eq.shape[0]
        row_lower = np.concatenate(
            [retained.b_eq, np.full(retained.ub.shape[0], -infinity)]
        )
        row_upper = np.concatenate([retained.b_eq, retained.b_ub])
        lp = highspy.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = num_eq + retained.ub.shape[0]
        lp.col_cost_ = retained.c
        lp.col_lower_ = np.clip(retained.bounds[:, 0], -infinity, infinity)
        lp.col_upper_ = np.clip(retained.bounds[:, 1], -infinity, infinity)
        lp.row_lower_ = np.clip(row_lower, -infinity, infinity)
        lp.row_upper_ = np.clip(row_upper, -infinity, infinity)
        lp.a_matrix_.format_ = highspy.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = matrix.indptr.astype(np.int32)
        lp.a_matrix_.index_ = matrix.indices.astype(np.int32)
        lp.a_matrix_.value_ = matrix.data.astype(np.float64)
        highs.passModel(lp)

    def _add_ub_rows(self, incoming: _RetainedModel, appended: slice) -> None:
        highs = self._ensure_highs()
        infinity = highs.getInfinity()
        ub = incoming.ub
        first = appended.start
        base_nnz = int(ub.indptr[first])
        num_new = ub.shape[0] - first
        highs.addRows(
            num_new,
            np.full(num_new, -infinity),
            np.clip(incoming.b_ub[first:], -infinity, infinity),
            int(ub.indptr[-1]) - base_nnz,
            (ub.indptr[first:] - base_nnz).astype(np.int32),
            ub.indices[base_nnz:].astype(np.int32),
            ub.data[base_nnz:].astype(np.float64),
        )

    def _seed_basis(self, payload: dict, incoming: _RetainedModel) -> bool:
        """Install a prior basis (extended with basic slacks); False = cold."""
        import highspy

        col_status = payload.get("col_status")
        row_status = payload.get("row_status")
        if col_status is None or row_status is None:
            return False
        if len(col_status) != incoming.c.shape[0]:
            return False
        total_rows = incoming.num_rows
        if len(row_status) > total_rows:
            return False
        try:
            basis = highspy.HighsBasis()
            basis.col_status = [highspy.HighsBasisStatus(v) for v in col_status]
            basis.row_status = [
                highspy.HighsBasisStatus(v) for v in row_status
            ] + [highspy.HighsBasisStatus.kBasic] * (total_rows - len(row_status))
            status = self._highs.setBasis(basis)
            return status == highspy.HighsStatus.kOk
        except Exception:  # pragma: no cover - binding drift / invalid basis
            return False

    def _disambiguate(self, model_status):
        """Pin down ``kUnboundedOrInfeasible`` with one presolve-off re-solve.

        HiGHS reports the combined status when *presolve* detects the model
        cannot be optimal but cannot tell unbounded from infeasible; the
        scipy backend (and the backend-equivalence oracle) always gets a
        definitive answer, so guessing either way here would make the
        portfolio disagree with itself.  Returns the (possibly still
        ambiguous) model status after the re-solve.
        """
        import highspy

        try:
            self._highs.setOptionValue("presolve", "off")
            self._highs.clearSolver()
            self._highs.run()
            model_status = self._highs.getModelStatus()
        except Exception:  # pragma: no cover - binding drift
            pass
        finally:
            try:
                self._highs.setOptionValue("presolve", "choose")
            except Exception:  # pragma: no cover - binding drift
                pass
        return model_status

    def _extract(self, incoming: _RetainedModel, warm_used: bool) -> LPSolution:
        import highspy

        model_status = self._highs.getModelStatus()
        if model_status == highspy.HighsModelStatus.kUnboundedOrInfeasible:
            model_status = self._disambiguate(model_status)
        status_map = {
            highspy.HighsModelStatus.kOptimal: LPStatus.OPTIMAL,
            highspy.HighsModelStatus.kInfeasible: LPStatus.INFEASIBLE,
            highspy.HighsModelStatus.kUnbounded: LPStatus.UNBOUNDED,
            # Still ambiguous after the presolve-off re-solve: refuse to
            # guess rather than diverge from the other backends' answer.
            highspy.HighsModelStatus.kUnboundedOrInfeasible: LPStatus.ERROR,
        }
        status = status_map.get(model_status, LPStatus.ERROR)
        info = self._highs.getInfo()
        iterations = int(getattr(info, "simplex_iteration_count", 0)) or None
        message = f"highspy: {self._highs.modelStatusToString(model_status)}"
        if status is not LPStatus.OPTIMAL:
            self._retained_token = None
            return LPSolution(
                status, message=message, iterations=iterations, warm_start_used=warm_used
            )
        solution = self._highs.getSolution()
        values = np.asarray(solution.col_value, dtype=np.float64)
        handle = None
        try:
            basis = self._highs.getBasis()
            token = next(_BASIS_TOKENS)
            handle = WarmStart(
                backend=self.name,
                values=values,
                payload={
                    "col_status": [int(v) for v in basis.col_status],
                    "row_status": [int(v) for v in basis.row_status],
                    "token": token,
                },
            )
            self._retained_token = token
        except Exception:  # pragma: no cover - basis unavailable (IPM etc.)
            handle = WarmStart(backend=self.name, values=values)
            self._retained_token = None
        return LPSolution(
            status=status,
            values=values,
            objective=float(info.objective_function_value),
            message=message,
            iterations=iterations,
            warm_start=handle,
            warm_start_used=warm_used,
        )
