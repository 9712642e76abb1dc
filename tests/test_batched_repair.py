"""Differential tests for the repair encoder and the CSR LP assembly.

The production encoder (vectorized multi-point Jacobians + grouped-einsum
constraint rows, dense or streamed as CSR chunks) is checked against the
per-point reference encoder in ``tests/reference_encoder.py``: same
Jacobians, same LP rows, same statuses, same deltas.  The CSR standard-form
assembly is checked against a dense widening written here.  Together these
pin the one repair data path at every level — layer, DDNN, LP model, and
the two repair algorithms.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.ddnn import DecoupledNetwork
from repro.core.jacobian import JacobianChunkStream, encode_constraints_batched
from repro.core.point_repair import point_repair
from repro.core.polytope_repair import polytope_repair, reduce_to_key_points
from repro.core.specs import PointRepairSpec, PolytopeRepairSpec
from repro.lp.backends import get_backend
from repro.lp.model import LPModel
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus
from repro.nn.activations import ReLULayer
from repro.nn.conv import Conv2DLayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.nn.pooling import MaxPool2DLayer
from repro.nn.reshape import FlattenLayer
from repro.polytope.hpolytope import HPolytope
from repro.polytope.segment import LineSegment

from tests.conftest import make_random_relu_network, make_random_tanh_network
from tests.reference_encoder import reference_encode, reference_point_repair


def make_conv_network(rng: np.random.Generator) -> Network:
    """A small conv + maxpool + dense network exercising every layer kind."""
    return Network(
        [
            Conv2DLayer.from_shape(
                1, 3, 3, input_height=8, input_width=8, stride=1, padding=1, rng=rng
            ),
            ReLULayer(3 * 8 * 8),
            MaxPool2DLayer(3, 8, 8, pool_size=2),
            FlattenLayer(3 * 4 * 4),
            FullyConnectedLayer.from_shape(3 * 4 * 4, 5, rng),
        ]
    )


NETWORKS = {
    "relu": make_random_relu_network,
    "tanh": make_random_tanh_network,
    "conv": make_conv_network,
}


def labelled_spec(rng, network, count, margin=0.0, activation_noise=0.0):
    """A random argmax spec; optional activation points near the inputs."""
    points = rng.normal(size=(count, network.input_size))
    labels = rng.integers(0, network.output_size, size=count)
    spec = PointRepairSpec.from_labels(
        points, labels, num_classes=network.output_size, margin=margin
    )
    if activation_noise:
        spec = PointRepairSpec(
            points=spec.points,
            constraints=spec.constraints,
            activation_points=points + activation_noise * rng.normal(size=points.shape),
        )
    return spec


def assert_repairs_agree(result, reference):
    assert result.lp_status == reference.lp_status
    assert result.feasible == reference.feasible
    assert result.num_constraint_rows == reference.num_constraint_rows
    if result.feasible:
        np.testing.assert_allclose(result.delta, reference.delta, atol=1e-6)
        assert result.objective_value == pytest.approx(reference.objective_value, abs=1e-7)


class TestBatchedJacobians:
    """batch_parameter_jacobian == one parameter_jacobian per point."""

    @pytest.mark.parametrize("use_activation_points", [False, True])
    def test_fully_connected_network(self, rng, use_activation_points):
        network = make_random_relu_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        points = rng.normal(size=(7, network.input_size))
        activation_points = (
            points + 0.1 * rng.normal(size=points.shape) if use_activation_points else None
        )
        for layer_index in ddnn.repairable_layer_indices():
            outputs, jacobians = ddnn.batch_parameter_jacobian(
                layer_index, points, activation_points
            )
            for index in range(points.shape[0]):
                output, jacobian = ddnn.parameter_jacobian(
                    layer_index,
                    points[index],
                    None if activation_points is None else activation_points[index],
                )
                np.testing.assert_allclose(outputs[index], output, atol=1e-12)
                np.testing.assert_allclose(jacobians[index], jacobian, atol=1e-12)

    def test_tanh_network(self, rng):
        network = make_random_tanh_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        points = rng.normal(size=(5, network.input_size))
        outputs, jacobians = ddnn.batch_parameter_jacobian(0, points)
        for index in range(points.shape[0]):
            output, jacobian = ddnn.parameter_jacobian(0, points[index])
            np.testing.assert_allclose(outputs[index], output, atol=1e-12)
            np.testing.assert_allclose(jacobians[index], jacobian, atol=1e-12)

    @pytest.mark.parametrize("layer_index", [0, 4])
    def test_conv_maxpool_network(self, rng, layer_index):
        network = make_conv_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        points = rng.normal(size=(4, network.input_size))
        activation_points = points + 0.05 * rng.normal(size=points.shape)
        outputs, jacobians = ddnn.batch_parameter_jacobian(
            layer_index, points, activation_points
        )
        for index in range(points.shape[0]):
            output, jacobian = ddnn.parameter_jacobian(
                layer_index, points[index], activation_points[index]
            )
            np.testing.assert_allclose(outputs[index], output, atol=1e-12)
            np.testing.assert_allclose(jacobians[index], jacobian, atol=1e-12)

    def test_batch_channel_traces_match_single(self, rng):
        network = make_random_relu_network(rng)
        ddnn = DecoupledNetwork.from_network(network)
        points = rng.normal(size=(3, network.input_size))
        batched_act, batched_val = ddnn.batch_channel_traces(points)
        for index in range(3):
            single_act, single_val = ddnn.channel_traces(points[index])
            for entry, batch_entry in zip(single_act, batched_act):
                np.testing.assert_allclose(entry[0], batch_entry[index], atol=1e-12)
            for entry, batch_entry in zip(single_val, batched_val):
                np.testing.assert_allclose(entry[0], batch_entry[index], atol=1e-12)


class TestReferenceEncoder:
    """The production encoder == the per-point reference encoder, row for row."""

    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    def test_encoder_matches_reference(self, rng, kind):
        network = NETWORKS[kind](rng)
        ddnn = DecoupledNetwork.from_network(network)
        spec = labelled_spec(rng, network, 6, activation_noise=0.05)
        for layer_index in ddnn.repairable_layer_indices():
            lhs, rhs = encode_constraints_batched(ddnn, layer_index, spec)
            ref_lhs, ref_rhs = reference_encode(ddnn, layer_index, spec)
            np.testing.assert_allclose(lhs, ref_lhs, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(rhs, ref_rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["relu", "conv"])
    @pytest.mark.parametrize("chunk_bytes", [1, 2_000, 50_000, 10**9])
    def test_chunk_stream_matches_reference(self, rng, kind, chunk_bytes):
        # From one point and one parameter per chunk up to a single chunk.
        network = NETWORKS[kind](rng)
        ddnn = DecoupledNetwork.from_network(network)
        spec = labelled_spec(rng, network, 7, activation_noise=0.05)
        layer_index = ddnn.repairable_layer_indices()[-1]
        blocks = list(
            JacobianChunkStream(ddnn, layer_index, spec, max_chunk_bytes=chunk_bytes)
        )
        assert all(sp.issparse(block) for block, _ in blocks)
        ref_lhs, ref_rhs = reference_encode(ddnn, layer_index, spec)
        np.testing.assert_allclose(
            sp.vstack([block for block, _ in blocks]).toarray(), ref_lhs, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            np.concatenate([rhs for _, rhs in blocks]), ref_rhs, rtol=1e-12, atol=1e-12
        )


class TestDifferentialPointRepair:
    """point_repair must agree with the repair LP over the reference encoding."""

    @pytest.mark.parametrize("norm", ["linf", "l1", "l1+linf"])
    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_feasible_repair_agrees(self, rng, norm, backend):
        network = make_random_relu_network(rng)
        spec = labelled_spec(rng, network, 5, margin=1e-3)
        result = point_repair(network, 2, spec, norm=norm, backend=backend)
        reference = reference_point_repair(network, 2, spec, norm=norm, backend=backend)
        assert_repairs_agree(result, reference)
        if result.feasible:
            assert spec.is_satisfied_by(result.network)

    @pytest.mark.parametrize("norm", ["linf", "l1", "l1+linf"])
    @pytest.mark.parametrize("kind", ["tanh", "conv"])
    def test_network_kinds_agree(self, rng, kind, norm):
        network = NETWORKS[kind](rng)
        spec = labelled_spec(rng, network, 3, margin=1e-3, activation_noise=0.05)
        layer_index = DecoupledNetwork.from_network(network).repairable_layer_indices()[-1]
        result = point_repair(network, layer_index, spec, norm=norm)
        assert_repairs_agree(result, reference_point_repair(network, layer_index, spec, norm=norm))
        assert result.feasible

    @pytest.mark.parametrize("chunk_bytes", [1, 4_000, 10**9])
    def test_chunked_repair_agrees(self, rng, chunk_bytes):
        network = make_random_relu_network(rng)
        spec = labelled_spec(rng, network, 6, margin=1e-3)
        result = point_repair(network, 2, spec, norm="l1", max_chunk_bytes=chunk_bytes)
        assert_repairs_agree(result, reference_point_repair(network, 2, spec, norm="l1"))

    def test_infeasible_repair_agrees(self, toy_network):
        # Contradictory constraints on the same input point: provably infeasible.
        spec = PointRepairSpec(
            points=np.array([[0.5], [0.5]]),
            constraints=[
                HPolytope.from_interval(1, 0, -1.0, -0.8),
                HPolytope.from_interval(1, 0, 0.5, 1.0),
            ],
        )
        result = point_repair(toy_network, 0, spec)
        reference = reference_point_repair(toy_network, 0, spec)
        assert result.lp_status is LPStatus.INFEASIBLE
        assert reference.lp_status is LPStatus.INFEASIBLE

    def test_mixed_constraint_row_counts(self, rng):
        # Points with different numbers of constraint rows exercise the
        # grouped-einsum encoder's row placement.
        network = make_random_relu_network(rng)
        points = rng.normal(size=(4, network.input_size))
        constraints = [
            HPolytope.argmax_region(network.output_size, 0),      # 2 rows
            HPolytope.from_interval(network.output_size, 1, -5.0, 5.0),  # 2 rows
            HPolytope(np.ones((1, network.output_size)), np.array([10.0])),  # 1 row
            HPolytope.argmax_region(network.output_size, 2),      # 2 rows
        ]
        spec = PointRepairSpec(points=points, constraints=constraints)
        result = point_repair(network, 0, spec, norm="l1")
        assert_repairs_agree(result, reference_point_repair(network, 0, spec, norm="l1"))


def reference_polytope_repair(network, layer_index, spec, **kwargs):
    """Algorithm 2's reduction followed by the reference repair LP."""
    key_points, activation_points, constraints = reduce_to_key_points(network, spec)
    point_spec = PointRepairSpec(
        points=np.array(key_points),
        constraints=constraints,
        activation_points=np.array(activation_points),
    )
    return reference_point_repair(network, layer_index, point_spec, **kwargs)


class TestDifferentialPolytopeRepair:
    """Polytope repair must agree with the reference encoding of its key points."""

    def test_segment_spec_agrees(self, toy_network):
        spec = PolytopeRepairSpec()
        spec.add_segment(
            LineSegment(np.array([0.5]), np.array([1.5])),
            HPolytope.from_interval(1, 0, -0.8, -0.4),
        )
        result = polytope_repair(toy_network, 0, spec, norm="l1")
        reference = reference_polytope_repair(toy_network, 0, spec, norm="l1")
        assert result.feasible and reference.feasible
        assert_repairs_agree(result, reference)

    def test_random_relu_segments_agree(self, rng):
        network = make_random_relu_network(rng)
        segments = [
            LineSegment(rng.normal(size=network.input_size), rng.normal(size=network.input_size))
            for _ in range(2)
        ]
        constraints = [
            HPolytope.from_interval(network.output_size, 0, -50.0, 50.0) for _ in segments
        ]
        spec = PolytopeRepairSpec.from_segments(segments, constraints)
        assert_repairs_agree(
            polytope_repair(network, 2, spec), reference_polytope_repair(network, 2, spec)
        )


def random_lp_model(rng: np.random.Generator) -> LPModel:
    """A random LPModel mixing narrow dense/CSR blocks, eq rows, bounds, and norms."""
    model = LPModel()
    delta = model.add_variables(int(rng.integers(2, 6)), "delta", lower=-10.0, upper=10.0)
    extra = model.add_variables(int(rng.integers(1, 4)), "extra")
    for _ in range(int(rng.integers(1, 4))):
        columns = rng.permutation(delta if rng.random() < 0.5 else extra)
        matrix = rng.normal(size=(int(rng.integers(1, 4)), columns.size))
        matrix[rng.random(size=matrix.shape) < 0.3] = 0.0  # structural zeros
        rhs = rng.normal(size=matrix.shape[0]) + 5.0
        if rng.random() < 0.3:
            matrix = sp.csr_matrix(matrix)
        if rng.random() < 0.3:
            model.add_eq_block(matrix, rhs, columns)
        else:
            model.add_leq_block(matrix, rhs, columns)
    add_norm_objective(model, delta, "l1+linf")
    return model


def reference_dense_form(model: LPModel, equality: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every block of one sense widened densely by column assignment."""
    rows, rhs = [np.zeros((0, model.num_variables))], [np.zeros(0)]
    for block in model._blocks:
        if block.equality is equality:
            narrow = block.matrix.toarray() if sp.issparse(block.matrix) else block.matrix
            wide = np.zeros((narrow.shape[0], model.num_variables))
            wide[:, block.columns] = narrow
            rows.append(wide)
            rhs.append(block.rhs)
    return np.vstack(rows), np.concatenate(rhs)


class TestSparseStandardForm:
    """The CSR standard form == a dense widening of the same blocks."""

    def test_random_models_agree(self, rng):
        for _ in range(25):
            model = random_lp_model(rng)
            c, a_ub, b_ub, a_eq, b_eq, bounds = model.standard_form()
            assert a_ub.format == "csr" and a_eq.format == "csr"
            assert c.shape == (model.num_variables,)
            assert bounds.shape == (model.num_variables, 2)
            for equality, matrix, rhs in ((False, a_ub, b_ub), (True, a_eq, b_eq)):
                ref_matrix, ref_rhs = reference_dense_form(model, equality)
                np.testing.assert_array_equal(matrix.toarray(), ref_matrix)
                np.testing.assert_array_equal(rhs, ref_rhs)

    def test_empty_model_sparse(self):
        model = LPModel()
        model.add_variables(3)
        _, a_ub, b_ub, a_eq, b_eq, _ = model.standard_form()
        assert a_ub.shape == (0, 3) and a_eq.shape == (0, 3)
        assert b_ub.size == 0 and b_eq.size == 0

    def test_all_zero_rows_preserved(self):
        # A zero row with a non-trivial rhs must survive sparse assembly:
        # "0 @ x == 1" is infeasible and dropping it would change the answer.
        model = LPModel()
        indices = model.add_variables(2)
        model.add_eq_block(np.zeros((1, 2)), [1.0], indices)
        _, _, _, a_eq, b_eq, _ = model.standard_form()
        assert a_eq.shape == (1, 2)
        np.testing.assert_array_equal(b_eq, [1.0])
        solution = model.solve("scipy")
        assert solution.status is LPStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_solve_sparse_matches_dense(self, rng, backend):
        # Backends receive the CSR form; hand-built dense arrays must solve
        # to the same answer.
        solver = get_backend(backend)
        for _ in range(5):
            c, a_ub, b_ub, a_eq, b_eq, bounds = random_lp_model(rng).standard_form()
            sparse = solver.solve(c, a_ub, b_ub, a_eq, b_eq, bounds)
            dense = solver.solve(c, a_ub.toarray(), b_ub, a_eq.toarray(), b_eq, bounds)
            assert dense.status == sparse.status
            if dense.status is LPStatus.OPTIMAL:
                assert dense.objective == pytest.approx(sparse.objective, abs=1e-7)


class TestVectorizedAddVariables:
    """The vectorized add_variables must match the old per-variable loop."""

    def test_block_indices_names_and_bounds(self):
        model = LPModel()
        model.add_variable("first")
        indices = model.add_variables(3, "delta", lower=-2.0, upper=4.0)
        np.testing.assert_array_equal(indices, [1, 2, 3])
        assert model.num_variables == 4
        assert [model.variable_name(i) for i in indices] == ["delta[0]", "delta[1]", "delta[2]"]
        _, _, _, _, _, bounds = model.standard_form()
        np.testing.assert_array_equal(bounds[1:], [[-2.0, 4.0]] * 3)

    def test_default_name_and_empty_block(self):
        model = LPModel()
        empty = model.add_variables(0)
        assert empty.size == 0 and model.num_variables == 0
        indices = model.add_variables(2)
        assert [model.variable_name(i) for i in indices] == ["x[0]", "x[1]"]

    def test_invalid_bounds_rejected(self):
        from repro.exceptions import LPError

        model = LPModel()
        with pytest.raises(LPError):
            model.add_variables(2, lower=1.0, upper=-1.0)
        assert model.num_variables == 0

    def test_negative_count_rejected(self):
        from repro.exceptions import LPError

        with pytest.raises(LPError):
            LPModel().add_variables(-1)

    def test_duplicate_block_columns_rejected(self):
        # Duplicate columns would be overwritten by the dense assembly but
        # summed by the sparse one; the model must refuse them outright.
        from repro.exceptions import LPError

        model = LPModel()
        model.add_variables(2)
        with pytest.raises(LPError):
            model.add_leq_block(np.array([[1.0, 1.0]]), [1.0], columns=[0, 0])
