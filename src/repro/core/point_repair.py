"""Provable Pointwise Repair — Algorithm 1 of the paper.

Given a network ``N``, a layer index ``i``, and a pointwise repair
specification ``(X, A·, b·)``, the algorithm:

1. constructs the trivially equivalent DDNN (Theorem 4.4);
2. for every point ``x ∈ X`` computes the output ``N(x)`` and the Jacobian
   ``J_x`` of the DDNN output with respect to the parameters of value layer
   ``i`` (exact by Theorem 4.5);
3. collects the linear constraints ``A_x (N(x) + J_x Δ) ≤ b_x``;
4. solves an LP minimizing the ℓ∞ and/or ℓ1 norm of ``Δ``;
5. adds the optimal ``Δ`` into the value layer.

The result is either a repaired DDNN that provably satisfies the
specification with a minimal single-layer change, or a proof (LP
infeasibility) that no single-layer repair of layer ``i`` exists.

Steps 2–3 compute all Jacobians in one vectorized multi-point pass
(:meth:`~repro.core.ddnn.DecoupledNetwork.batch_parameter_jacobian`) and
assemble the constraint rows of every point with grouped einsums into a
single LP block, which the LP layer assembles into a CSR standard form.  With
a byte budget the same rows arrive as bounded CSR chunks from a
:class:`~repro.core.jacobian.JacobianChunkStream` instead, assembling the
same standard form byte for byte.

Cold :func:`point_repair` and the round-by-round
:class:`IncrementalPointRepairSession` build the same LP: the dimension check,
the delta-variable and norm setup, and the result construction are shared
helpers, so the two differ only in how rows reach the model.
"""

from __future__ import annotations

import numpy as np

from repro.core.ddnn import DecoupledNetwork
from repro.core.jacobian import (
    JacobianChunkStream,
    encode_constraints_batched,
    encode_constraints_padded,
)
from repro.core.result import RepairResult, RepairTiming
from repro.core.specs import PointRepairSpec
from repro.exceptions import SpecificationError
from repro.lp.model import LPModel, LPSolution
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus
from repro.nn.network import Network
from repro.utils.timing import Stopwatch


def point_repair(
    network: Network | DecoupledNetwork,
    layer_index: int,
    spec: PointRepairSpec,
    *,
    norm: str = "linf",
    backend: str | None = None,
    delta_bound: float | None = None,
    timing: RepairTiming | None = None,
    max_chunk_bytes: int | None = None,
    engine=None,
) -> RepairResult:
    """Repair one (value-channel) layer so every spec point satisfies its constraint.

    Parameters
    ----------
    network:
        The buggy network.  A plain :class:`Network` is decoupled first
        (Theorem 4.4); an existing :class:`DecoupledNetwork` is copied.
    layer_index:
        Index of the layer to repair; must be a parameterized layer.
    spec:
        The pointwise repair specification.
    norm:
        Norm of ``Δ`` to minimize — ``"linf"``, ``"l1"``, or ``"l1+linf"``.
    backend:
        LP backend name (``None`` = default scipy/HiGHS backend).
    delta_bound:
        Optional box bound ``|Δ_i| ≤ delta_bound`` added to every delta
        variable; occasionally useful to keep very large repairs numerically
        tame.  ``None`` (the default, and the paper's setting) leaves the
        deltas free.
    timing:
        An existing :class:`RepairTiming` to accumulate into (used by the
        polytope repair algorithm, which has already spent time computing
        linear regions).
    max_chunk_bytes:
        ``None`` (default) keeps the in-memory path: one dense
        ``(total_rows, params)`` block.  A byte budget switches to the
        out-of-core path — a :class:`~repro.core.jacobian.JacobianChunkStream`
        feeds bounded CSR row blocks straight into the model, so the dense
        intermediate never exceeds the budget.  Both paths assemble the
        same standard form byte for byte.
    engine:
        Optional :class:`~repro.engine.engine.ShardedSyrennEngine` used to
        shard chunk encoding across workers (chunked path only; merged in
        input order, so results stay byte-identical to serial).
    """
    _check_input_dimension(spec, network)
    watch = Stopwatch()
    timing = timing if timing is not None else RepairTiming()
    ddnn, layer_index, model, delta_indices = _repair_lp(
        network, layer_index, norm, delta_bound
    )

    with watch.phase("jacobian"):
        if max_chunk_bytes is None:
            blocks = [encode_constraints_batched(ddnn, layer_index, spec)]
        else:
            blocks = JacobianChunkStream(
                ddnn, layer_index, spec, max_chunk_bytes=max_chunk_bytes, engine=engine
            )
        constraint_rows = 0
        for matrix, rhs in blocks:
            model.add_leq_block(matrix, rhs, delta_indices)
            constraint_rows += int(rhs.size)

    with watch.phase("lp"):
        solution = model.solve(backend)

    timing.jacobian_seconds += watch.total("jacobian")
    timing.lp_seconds += watch.total("lp")
    timing.other_seconds += watch.other()
    return _repair_result(
        solution,
        ddnn,
        layer_index,
        delta_indices,
        timing=timing,
        num_key_points=spec.num_points,
        num_constraint_rows=constraint_rows,
        num_variables=model.num_variables,
        norm=norm,
    )


def _check_input_dimension(
    spec: PointRepairSpec, network: Network | DecoupledNetwork
) -> None:
    if spec.input_dimension != network.input_size:
        raise SpecificationError(
            f"specification points have dimension {spec.input_dimension}, "
            f"network expects {network.input_size}"
        )


def _repair_lp(
    network: Network | DecoupledNetwork,
    layer_index: int,
    norm: str,
    delta_bound: float | None,
) -> tuple[DecoupledNetwork, int, LPModel, np.ndarray]:
    """A private DDNN copy and its repair LP before any constraint row.

    Returns ``(ddnn, layer_index, model, delta_indices)``: the model holds
    one delta variable per parameter of value layer ``layer_index`` (boxed
    by ``delta_bound`` when given) and the norm objective.  The norm rows go
    in *first* so constraint rows always occupy the tail of the inequality
    block: an incremental session that appends counterexample rows round
    after round then produces exactly the row order of a cold repair of the
    whole pool, which is what keeps the two byte-identical.
    """
    if isinstance(network, DecoupledNetwork):
        ddnn = network.copy()
    else:
        ddnn = DecoupledNetwork.from_network(network)
    layer_index = ddnn._check_repairable(layer_index)
    model = LPModel()
    bound = np.inf if delta_bound is None else float(delta_bound)
    delta_indices = model.add_variables(
        ddnn.value.layers[layer_index].num_parameters, "delta", lower=-bound, upper=bound
    )
    add_norm_objective(model, delta_indices, norm)
    return ddnn, layer_index, model, delta_indices


def _repair_result(
    solution: LPSolution,
    ddnn: DecoupledNetwork,
    layer_index: int,
    delta_indices: np.ndarray,
    **fields,
) -> RepairResult:
    """The :class:`RepairResult` of one solved repair LP.

    A feasible result carries a fresh copy of ``ddnn`` with the optimal
    delta applied (``ddnn`` itself is never mutated); an infeasible one
    reports the LP status, with every status other than ``INFEASIBLE`` and
    ``UNBOUNDED`` collapsed to ``ERROR``.  ``fields`` are the remaining
    :class:`RepairResult` fields (timing and size counts).
    """
    if not solution.status.is_optimal:
        status = solution.status
        if status not in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
            status = LPStatus.ERROR
        return RepairResult(
            feasible=False,
            network=None,
            delta=None,
            layer_index=layer_index,
            lp_status=status,
            **fields,
        )
    delta = solution.value_of(delta_indices)
    repaired = ddnn.copy()
    repaired.apply_parameter_delta(layer_index, delta)
    return RepairResult(
        feasible=True,
        network=repaired,
        delta=delta,
        layer_index=layer_index,
        lp_status=solution.status,
        objective_value=solution.objective,
        **fields,
    )


class IncrementalPointRepairSession:
    """A pointwise repair LP that grows across CEGIS rounds.

    A repair driver solves ``point_repair(base, layer, pool)`` every round
    with a pool that only ever grows, so round *k*'s LP is round *k-1*'s
    plus the new counterexamples' rows.  This session exploits that: it
    keeps one :class:`~repro.lp.model.LPModel` (delta variables plus the
    norm objective) alive, :meth:`append_points` encodes **only the new
    points'** Jacobian rows (the per-round Jacobian cost scales with the new
    points, not the pool), and :meth:`solve` re-solves through an
    :class:`~repro.lp.model.LPSession` that threads each round's
    :class:`~repro.lp.model.WarmStart` handle into the next solve.

    The session builds its LP with the same helper as :func:`point_repair`
    (norm rows first), so its standard form is row-for-row identical to
    what a cold ``point_repair`` of the whole accumulated spec would build —
    for a backend whose warm start is exact (``warm_start_is_exact``),
    incremental solves return byte-identical deltas to cold ones.

    The session encodes against a private copy of the base network and never
    mutates it; each feasible :meth:`solve` returns a *fresh* repaired copy.
    """

    def __init__(
        self,
        network: Network | DecoupledNetwork,
        layer_index: int,
        *,
        norm: str = "linf",
        backend: str | None = None,
        delta_bound: float | None = None,
        warm_start: bool = True,
        max_chunk_bytes: int | None = None,
        engine=None,
    ) -> None:
        self.ddnn, self.layer_index, self.model, self.delta_indices = _repair_lp(
            network, layer_index, norm, delta_bound
        )
        self.norm = norm
        self.warm_start = bool(warm_start)
        self.max_chunk_bytes = max_chunk_bytes
        self.engine = engine
        self.session = self.model.incremental_session(backend=backend)
        self.num_points = 0
        self.constraint_rows = 0
        self.last_solution = None
        self._handle = None
        self._pending_timing = RepairTiming()

    def append_points(self, spec: PointRepairSpec) -> int:
        """Encode and append the constraint rows of ``spec``'s points.

        Returns the number of LP rows appended.  ``spec`` must contain only
        points *not* previously appended — the caller (the driver) slices
        its pool.
        """
        _check_input_dimension(spec, self.ddnn)
        watch = Stopwatch()
        with watch.phase("jacobian"):
            if self.max_chunk_bytes is None:
                # The single-point pad (see encode_constraints_padded): NumPy
                # routes one-row matmuls through a different BLAS kernel than
                # larger batches, whose last-bit rounding differs — padding
                # keeps every appended row on the same batched code path as a
                # cold whole-pool encoding, preserving byte-identity.
                blocks = [encode_constraints_padded(self.ddnn, self.layer_index, spec)]
            else:
                # Out-of-core append: the chunk stream yields bounded CSR row
                # blocks which append_rows ingests one at a time, so neither
                # the dense intermediate nor more than one chunk is ever in
                # flight.
                blocks = JacobianChunkStream(
                    self.ddnn,
                    self.layer_index,
                    spec,
                    max_chunk_bytes=self.max_chunk_bytes,
                    engine=self.engine,
                )
            rows = self.session.append_rows(
                stream=((matrix, rhs, self.delta_indices) for matrix, rhs in blocks)
            )
        self.num_points += spec.num_points
        self.constraint_rows += rows
        self._pending_timing.jacobian_seconds += watch.total("jacobian")
        self._pending_timing.other_seconds += watch.other()
        return rows

    def solve(self) -> RepairResult:
        """Solve the accumulated LP, warm-started from the previous round."""
        watch = Stopwatch()
        with watch.phase("lp"):
            solution = self.session.solve(
                warm_start=self._handle if self.warm_start else None
            )
        self.last_solution = solution
        timing = self._pending_timing
        timing.lp_seconds += watch.total("lp")
        timing.other_seconds += watch.other()
        self._pending_timing = RepairTiming()
        if solution.status.is_optimal:
            self._handle = solution.warm_start
        return _repair_result(
            solution,
            self.ddnn,
            self.layer_index,
            self.delta_indices,
            timing=timing,
            num_key_points=self.num_points,
            num_constraint_rows=self.constraint_rows,
            num_variables=self.model.num_variables,
            norm=self.norm,
        )
