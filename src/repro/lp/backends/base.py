"""Abstract interface implemented by every LP backend.

Every backend receives the standard form as ``scipy.sparse`` CSR constraint
matrices (see :meth:`repro.lp.model.LPModel.standard_form`); a backend whose
solver needs dense arrays densifies them on entry with :meth:`LPBackend.as_dense`.
"""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp

from repro.lp.model import LPSolution, WarmStart


class LPBackend(abc.ABC):
    """Solves LPs given in the standard form produced by ``LPModel``."""

    #: Human-readable backend name.
    name: str = "abstract"

    #: Whether this backend's solver is actually present in the process.
    #: Backends wrapping an optional native dependency (``highs_native``)
    #: set this ``False`` when the dependency is missing and degrade to a
    #: fallback path; the registry's capability probe surfaces the flag so
    #: callers (and the test-suite's ``requires_highspy`` marker) can tell a
    #: real native solve from a degraded one.
    available: bool = True

    @property
    def warm_start_is_exact(self) -> bool:
        """Whether warm-started solves are byte-identical to cold solves.

        A warm start that changes the solver's pivot path may land on a
        *different* vertex of a degenerate optimal face — still optimal, but
        not the same bytes a cold solve returns.  Backends that exploit a
        handle must override this to ``False``; the default ``True`` covers
        backends that ignore handles entirely (a cold solve *is* the warm
        solve).  Callers that pin byte-level reproducibility (the
        incremental repair driver's differential tests) consult this flag.
        """
        return True

    @abc.abstractmethod
    def solve(
        self,
        c: np.ndarray,
        a_ub,
        b_ub: np.ndarray,
        a_eq,
        b_eq: np.ndarray,
        bounds: np.ndarray,
        warm_start: WarmStart | None = None,
    ) -> LPSolution:
        """Solve ``min c@x  s.t.  a_ub@x<=b_ub, a_eq@x==b_eq, bounds``.

        ``a_ub`` and ``a_eq`` are ``scipy.sparse`` CSR matrices from
        ``LPModel.standard_form`` (dense arrays are accepted too, which is
        how tests hand-build problems); ``bounds`` is an ``(n, 2)``
        array of per-variable ``(lower, upper)`` pairs; entries may be
        ``±inf``.

        ``warm_start`` is a handle from a previous solve of a smaller
        version of the same model (same variables, fewer rows).  Backends
        may exploit it, but must fall back to a cold solve *silently* when
        they cannot — an incompatible or stale handle is never an error.
        The returned solution's ``warm_start_used`` says what happened, and
        its ``warm_start`` carries the handle for the next solve.
        """
        raise NotImplementedError

    def accepts_handle(self, warm_start: WarmStart) -> bool:
        """Whether a :class:`WarmStart` minted by ``warm_start.backend`` may
        be handed to this backend's :meth:`solve` at all.

        :class:`~repro.lp.model.LPSession` consults this before threading a
        handle through, so handles never reach a solver that cannot even
        recognize their provenance.  The default accepts only this backend's
        own handles; a backend that delegates to another (the degraded
        ``highs_native`` answers through scipy) overrides it to accept the
        delegate's handles too.
        """
        return warm_start.backend == self.name

    @staticmethod
    def as_dense(matrix) -> np.ndarray:
        """Densify a constraint matrix for a solver that needs dense arrays."""
        if sp.issparse(matrix):
            return matrix.toarray()
        return np.asarray(matrix, dtype=float)
