"""A per-point reference encoder for the repair LP — test oracle only.

Algorithm 1 read literally: for every specification point ``x`` take one
``parameter_jacobian`` (``N(x)`` and ``J_x``) and emit the rows of
``A_x (N(x) + J_x Δ) ≤ b_x`` as ``(A_x J_x) Δ ≤ b_x - A_x N(x)``.  It
shares nothing with the production encoder
(:func:`repro.core.jacobian.encode_constraints_batched` — one vectorized
multi-point pass plus grouped einsums) beyond the single-point Jacobian, so
agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ddnn import DecoupledNetwork
from repro.core.specs import PointRepairSpec
from repro.lp.backends import get_backend
from repro.lp.model import LPModel
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus


def reference_encode(
    ddnn: DecoupledNetwork, layer_index: int, spec: PointRepairSpec
) -> tuple[np.ndarray, np.ndarray]:
    """``(lhs, rhs)`` with ``lhs @ Δ ≤ rhs``, one point at a time, in spec order."""
    lhs, rhs = [], []
    for index in range(spec.num_points):
        output, jacobian = ddnn.parameter_jacobian(
            layer_index, spec.points[index], spec.activation_point(index)
        )
        constraint = spec.constraints[index]
        lhs.append(constraint.a @ jacobian)
        rhs.append(constraint.b - constraint.a @ output)
    return np.vstack(lhs), np.concatenate(rhs)


@dataclass
class ReferenceRepair:
    """Outcome of :func:`reference_point_repair`."""

    lp_status: LPStatus
    delta: np.ndarray | None
    objective_value: float | None
    num_constraint_rows: int

    @property
    def feasible(self) -> bool:
        return self.lp_status.is_optimal


def reference_point_repair(
    network, layer_index: int, spec: PointRepairSpec, *, norm: str = "linf", backend=None
) -> ReferenceRepair:
    """The repair LP over :func:`reference_encode`, solved on dense arrays."""
    ddnn = (
        network.copy()
        if isinstance(network, DecoupledNetwork)
        else DecoupledNetwork.from_network(network)
    )
    layer_index = ddnn._check_repairable(layer_index)
    model = LPModel()
    delta = model.add_variables(ddnn.value.layers[layer_index].num_parameters, "delta")
    add_norm_objective(model, delta, norm)
    lhs, rhs = reference_encode(ddnn, layer_index, spec)
    model.add_leq_block(lhs, rhs, delta)
    # Densified here, in test code, so the oracle never hands a backend the
    # CSR form the production path uses.
    c, a_ub, b_ub, a_eq, b_eq, bounds = model.standard_form()
    solution = get_backend(backend).solve(c, a_ub.toarray(), b_ub, a_eq.toarray(), b_eq, bounds)
    optimal = solution.status.is_optimal
    return ReferenceRepair(
        lp_status=solution.status,
        delta=solution.value_of(delta) if optimal else None,
        objective_value=solution.objective if optimal else None,
        num_constraint_rows=int(rhs.size),
    )
