"""Tests for the LP modelling layer, norm objectives, and the backend portfolio."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.exceptions import LPError
from repro.lp.backends import (
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.lp.backends.highs_native import HIGHSPY_AVAILABLE, HighsNativeBackend
from repro.lp.expression import LinearExpression
from repro.lp.model import LPModel, WarmStart
from repro.lp.norms import add_l1_objective, add_linf_objective, add_norm_objective
from repro.lp.status import LPStatus

BACKENDS = ("scipy", "simplex")

#: Every backend the equivalence oracle runs: all registered names (the
#: ``highs`` alias included, and ``highs_native`` in whichever mode the
#: environment provides — native or degraded).
PORTFOLIO = available_backends()


class TestLPModelConstruction:
    def test_add_variables_returns_indices(self):
        model = LPModel()
        indices = model.add_variables(3, "delta")
        assert list(indices) == [0, 1, 2]
        assert model.num_variables == 3
        assert model.variable_name(1) == "delta[1]"

    def test_invalid_bounds_rejected(self):
        model = LPModel()
        with pytest.raises(LPError):
            model.add_variable(lower=1.0, upper=0.0)

    def test_block_shape_validation(self):
        model = LPModel()
        model.add_variables(2)
        with pytest.raises(LPError):
            model.add_leq_block(np.ones((1, 3)), [1.0])
        with pytest.raises(LPError):
            model.add_leq_block(np.ones((2, 2)), [1.0])
        with pytest.raises(LPError):
            model.add_leq_block(np.ones((1, 1)), [1.0], columns=[5])

    def test_num_constraints_counts_rows(self):
        model = LPModel()
        model.add_variables(2)
        model.add_leq_block(np.eye(2), np.ones(2))
        model.add_eq_block(np.ones((1, 2)), [1.0])
        assert model.num_constraints == 3

    def test_objective_coefficient_validation(self):
        model = LPModel()
        model.add_variable()
        with pytest.raises(LPError):
            model.set_objective_coefficient(5, 1.0)

    def test_empty_model_solves_trivially(self):
        solution = LPModel().solve()
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == 0.0

    @pytest.mark.parametrize(
        "add_block,rhs,expected",
        [
            ("add_leq_block", -1.0, LPStatus.INFEASIBLE),
            ("add_leq_block", 0.0, LPStatus.OPTIMAL),
            ("add_leq_block", 2.0, LPStatus.OPTIMAL),
            ("add_eq_block", 1.0, LPStatus.INFEASIBLE),
            ("add_eq_block", 0.0, LPStatus.OPTIMAL),
        ],
    )
    def test_empty_model_verdict_reads_its_constant_rows(self, add_block, rhs, expected):
        # Without variables every row reads ``0 <= rhs`` or ``0 == rhs``.
        model = LPModel()
        getattr(model, add_block)(np.zeros((1, 0)), [rhs], [])
        assert model.solve().status is expected
        session = model.incremental_session()
        assert session.solve().status is expected
        if expected is LPStatus.OPTIMAL:
            assert session.solve().values.size == 0

    def test_standard_form_shapes(self):
        model = LPModel()
        indices = model.add_variables(2, lower=0.0)
        model.add_leq_block(np.eye(2), np.ones(2), indices)
        model.add_eq_block(np.ones((1, 2)), [1.0], indices)
        c, a_ub, b_ub, a_eq, b_eq, bounds = model.standard_form()
        assert c.shape == (2,)
        assert a_ub.shape == (2, 2)
        assert a_eq.shape == (1, 2)
        assert bounds.shape == (2, 2)
        assert np.all(bounds[:, 0] == 0.0)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendsOnKnownProblems:
    def test_simple_bounded_minimization(self, backend):
        # minimize x + y  s.t.  x + y >= 1, x, y >= 0   → optimum 1.
        model = LPModel()
        x, y = model.add_variable(lower=0.0), model.add_variable(lower=0.0)
        model.add_geq(LinearExpression({x: 1.0, y: 1.0}), 1.0)
        model.set_objective_coefficient(x, 1.0)
        model.set_objective_coefficient(y, 1.0)
        solution = model.solve(backend)
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0, abs=1e-6)

    def test_equality_constraint(self, backend):
        # minimize x subject to x == 3.
        model = LPModel()
        x = model.add_variable()
        model.add_eq(LinearExpression({x: 1.0}), 3.0)
        model.set_objective_coefficient(x, 1.0)
        solution = model.solve(backend)
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values[x] == pytest.approx(3.0, abs=1e-6)

    def test_infeasible_detected(self, backend):
        model = LPModel()
        x = model.add_variable()
        model.add_leq(LinearExpression({x: 1.0}), 0.0)
        model.add_geq(LinearExpression({x: 1.0}), 1.0)
        solution = model.solve(backend)
        assert solution.status is LPStatus.INFEASIBLE

    def test_unbounded_detected(self, backend):
        model = LPModel()
        x = model.add_variable()
        model.add_leq(LinearExpression({x: 1.0}), 5.0)
        model.set_objective_coefficient(x, 1.0)  # minimize x, unbounded below
        solution = model.solve(backend)
        assert solution.status in (LPStatus.UNBOUNDED, LPStatus.INFEASIBLE, LPStatus.ERROR)
        assert solution.status is not LPStatus.OPTIMAL

    def test_negative_rhs_handled(self, backend):
        # minimize x subject to -x <= -2  (i.e. x >= 2).
        model = LPModel()
        x = model.add_variable(lower=0.0)
        model.add_leq_block(np.array([[-1.0]]), [-2.0], [x])
        model.set_objective_coefficient(x, 1.0)
        solution = model.solve(backend)
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values[x] == pytest.approx(2.0, abs=1e-6)

    def test_box_bounds_respected(self, backend):
        model = LPModel()
        x = model.add_variable(lower=-2.0, upper=2.0)
        model.set_objective_coefficient(x, 1.0)
        solution = model.solve(backend)
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values[x] == pytest.approx(-2.0, abs=1e-6)


class TestNormObjectives:
    def test_linf_objective_value(self):
        # Force delta = (3, -1); the linf objective should be 3.
        model = LPModel()
        delta = model.add_variables(2)
        model.add_eq_block(np.eye(2), [3.0, -1.0], delta)
        add_linf_objective(model, delta)
        solution = model.solve()
        assert solution.objective == pytest.approx(3.0, abs=1e-6)

    def test_l1_objective_value(self):
        model = LPModel()
        delta = model.add_variables(2)
        model.add_eq_block(np.eye(2), [3.0, -1.0], delta)
        add_l1_objective(model, delta)
        solution = model.solve()
        assert solution.objective == pytest.approx(4.0, abs=1e-6)

    def test_l1_prefers_sparse_solutions(self):
        # x + y >= 1 with l1 objective: any point on the segment is optimal
        # with total norm 1; the solver must achieve exactly 1.
        model = LPModel()
        delta = model.add_variables(2)
        model.add_leq_block(np.array([[-1.0, -1.0]]), [-1.0], delta)
        add_l1_objective(model, delta)
        solution = model.solve()
        assert solution.objective == pytest.approx(1.0, abs=1e-6)

    def test_combined_norm_accepted(self):
        model = LPModel()
        delta = model.add_variables(2)
        model.add_eq_block(np.eye(2), [1.0, 1.0], delta)
        add_norm_objective(model, delta, "l1+linf")
        solution = model.solve()
        assert solution.status is LPStatus.OPTIMAL

    def test_unknown_norm_rejected(self):
        model = LPModel()
        delta = model.add_variables(1)
        with pytest.raises(LPError):
            add_norm_objective(model, delta, "l7")

    def test_empty_block_rejected(self):
        model = LPModel()
        with pytest.raises(LPError):
            add_linf_objective(model, np.array([], dtype=int))
        with pytest.raises(LPError):
            add_l1_objective(model, np.array([], dtype=int))


class TestBackendRegistry:
    def test_available_backends(self):
        names = available_backends()
        assert "scipy" in names and "simplex" in names and "highs_native" in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(LPError):
            get_backend("gurobi")

    def test_default_backend(self):
        assert get_backend(None).name == "scipy"

    def test_register_backend_roundtrip(self):
        class StubBackend(get_backend("simplex").__class__):
            name = "stub_for_registry_test"

        register_backend("stub_for_registry_test", StubBackend)
        try:
            assert "stub_for_registry_test" in available_backends()
            assert isinstance(get_backend("stub_for_registry_test"), StubBackend)
        finally:
            unregister_backend("stub_for_registry_test")
        assert "stub_for_registry_test" not in available_backends()

    def test_capability_probe_reports_degradation(self):
        probe = backend_capabilities("highs_native")
        assert probe["name"] == "highs_native"
        assert probe["available"] is HIGHSPY_AVAILABLE


class TestBackendAgreement:
    """Property-based cross-check of the two backends on random feasible LPs."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_backends_agree_on_random_feasible_lps(self, data):
        num_vars = data.draw(st.integers(1, 4))
        num_rows = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        matrix = rng.normal(size=(num_rows, num_vars))
        interior = rng.normal(size=num_vars)
        rhs = matrix @ interior + rng.uniform(0.1, 1.0, size=num_rows)

        solutions = {}
        for backend in BACKENDS:
            model = LPModel()
            delta = model.add_variables(num_vars, lower=-50.0, upper=50.0)
            model.add_leq_block(matrix, rhs, delta)
            add_l1_objective(model, delta)
            solutions[backend] = model.solve(backend)

        for backend, solution in solutions.items():
            assert solution.status is LPStatus.OPTIMAL, backend
            values = solution.values[:num_vars]
            assert np.all(matrix @ values <= rhs + 1e-6)
        assert solutions["scipy"].objective == pytest.approx(
            solutions["simplex"].objective, abs=1e-5, rel=1e-5
        )


class TestBackendPortfolioOracle:
    """Property-based equivalence oracle over the whole backend portfolio.

    Random standard forms with a *known* status class (feasible-bounded,
    infeasible, unbounded) are solved by every registered backend — aliases
    and the (possibly degraded) native backend included.  All solves must agree on status, and on the
    objective within tolerance when optimal: any backend's answer can stand
    in for any other's.
    """

    @staticmethod
    def _build(kind: str, rng: np.random.Generator, num_vars: int, num_rows: int) -> LPModel:
        model = LPModel()
        if kind == "unbounded":
            # Free variables, minimized, constrained from above only: the
            # objective improves without limit along -e1 from the feasible
            # origin, so every solver must report UNBOUNDED.
            delta = model.add_variables(num_vars)
            model.add_leq_block(np.eye(num_vars), rng.uniform(1.0, 5.0, size=num_vars), delta)
            model.set_objective_coefficient(int(delta[0]), 1.0)
            return model
        # Box-bounded variables rule unboundedness out; a guaranteed
        # interior point rules (accidental) infeasibility in.
        delta = model.add_variables(num_vars, lower=-50.0, upper=50.0)
        matrix = rng.normal(size=(num_rows, num_vars))
        interior = rng.uniform(-1.0, 1.0, size=num_vars)
        rhs = matrix @ interior + rng.uniform(0.1, 1.0, size=num_rows)
        model.add_leq_block(matrix, rhs, delta)
        if kind == "infeasible":
            # An inconsistent pair on top: sum(x) <= t and sum(x) >= t + 1.
            row = np.ones((1, num_vars))
            threshold = float(rng.normal())
            model.add_leq_block(row, [threshold], delta)
            model.add_leq_block(-row, [-(threshold + 1.0)], delta)
        add_l1_objective(model, delta)
        return model

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_portfolio_agrees_on_random_standard_forms(self, data):
        kind = data.draw(st.sampled_from(["feasible", "infeasible", "unbounded"]))
        num_vars = data.draw(st.integers(1, 4))
        num_rows = data.draw(st.integers(1, 5))
        seed = data.draw(st.integers(0, 10_000))

        expected = {
            "feasible": LPStatus.OPTIMAL,
            "infeasible": LPStatus.INFEASIBLE,
            "unbounded": LPStatus.UNBOUNDED,
        }[kind]
        solutions = {}
        for backend in PORTFOLIO:
            # A fresh, identically-seeded generator per backend: every member
            # of the portfolio sees the exact same standard form.
            model = self._build(kind, np.random.default_rng(seed), num_vars, num_rows)
            solutions[backend] = model.solve(backend)

        statuses = {backend: solution.status for backend, solution in solutions.items()}
        assert set(statuses.values()) == {expected}, statuses
        if expected is LPStatus.OPTIMAL:
            objectives = [solution.objective for solution in solutions.values()]
            for objective in objectives[1:]:
                assert objective == pytest.approx(objectives[0], abs=1e-5, rel=1e-5)


class TestScipyWarmStartFallback:
    """The scipy backend must account for every handle it cannot exploit."""

    @staticmethod
    def _simple_form():
        model = LPModel()
        x = model.add_variable(lower=0.0)
        model.add_leq_block(np.array([[-1.0]]), [-2.0], [x])
        model.set_objective_coefficient(x, 1.0)
        return model.standard_form()

    def test_default_method_counts_rejected_handle(self):
        form = self._simple_form()
        backend = get_backend("scipy")
        handle = WarmStart(backend="scipy", values=np.array([2.0]))
        with obs.isolated():
            solution = backend.solve(*form, warm_start=handle)
            counted = obs.counter(
                "repro_lp_warmstart_fallback_total", labels=("backend", "reason")
            ).value(backend="scipy", reason="method_rejects_x0")
        # HiGHS takes no x0: the solve is cold, and — unlike a solve that was
        # never handed a handle — the drop is visible in telemetry.
        assert solution.status is LPStatus.OPTIMAL
        assert solution.warm_start_used is False
        assert counted == 1.0

    def test_no_handle_supplied_counts_nothing(self):
        form = self._simple_form()
        backend = get_backend("scipy")
        with obs.isolated():
            solution = backend.solve(*form)
            counted = obs.counter(
                "repro_lp_warmstart_fallback_total", labels=("backend", "reason")
            ).value(backend="scipy", reason="method_rejects_x0")
        assert solution.warm_start_used is False
        assert counted == 0.0

    # scipy deprecates "revised simplex" (the one linprog method with x0);
    # the shape-mismatch path is only reachable through it, so tolerate the
    # deprecation here rather than suite-wide.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_shape_mismatch_counted(self):
        from repro.lp.backends.scipy_backend import ScipyBackend

        form = self._simple_form()
        backend = ScipyBackend(method="revised simplex")
        stale = WarmStart(backend="scipy", values=np.array([1.0, 2.0, 3.0]))
        with obs.isolated():
            solution = backend.solve(*form, warm_start=stale)
            counted = obs.counter(
                "repro_lp_warmstart_fallback_total", labels=("backend", "reason")
            ).value(backend="scipy", reason="shape_mismatch")
        assert solution.status is LPStatus.OPTIMAL
        assert solution.warm_start_used is False
        assert counted == 1.0


class TestHighsNativeDegraded:
    """Without ``highspy`` the native backend degrades — loudly."""

    def test_degradation_is_flagged(self):
        if HIGHSPY_AVAILABLE:
            pytest.skip("highspy installed; degraded path not reachable")
        backend = HighsNativeBackend()
        assert backend.available is False
        form = TestScipyWarmStartFallback._simple_form()
        with obs.isolated():
            solution = backend.solve(*form)
            counted = obs.counter(
                "repro_lp_backend_fallback_total", labels=("backend", "reason")
            ).value(backend="highs_native", reason="highspy_missing")
        assert solution.status is LPStatus.OPTIMAL
        assert counted == 1.0

    def test_degraded_backend_accepts_scipy_handles(self):
        if HIGHSPY_AVAILABLE:
            pytest.skip("highspy installed; degraded path not reachable")
        backend = HighsNativeBackend()
        assert backend.accepts_handle(WarmStart(backend="scipy", values=np.zeros(1)))
        assert backend.accepts_handle(WarmStart(backend="highs_native", values=np.zeros(1)))
        assert not backend.accepts_handle(WarmStart(backend="simplex", values=np.zeros(1)))


@pytest.mark.requires_highspy
class TestHighsNativeBackend:
    """Native-API behaviour; the whole class skips without ``highspy``."""

    def test_native_solve_matches_scipy(self):
        model = LPModel()
        delta = model.add_variables(3, lower=-10.0, upper=10.0)
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(4, 3))
        rhs = matrix @ rng.uniform(-1, 1, size=3) + 0.5
        model.add_leq_block(matrix, rhs, delta)
        add_l1_objective(model, delta)
        native = model.solve("highs_native")
        reference = model.solve("scipy")
        assert native.status is LPStatus.OPTIMAL
        assert native.objective == pytest.approx(reference.objective, abs=1e-6)

    def test_native_mints_basis_handles(self):
        model = LPModel()
        x = model.add_variable(lower=0.0)
        model.add_leq_block(np.array([[-1.0]]), [-2.0], [x])
        model.set_objective_coefficient(x, 1.0)
        backend = get_backend("highs_native")
        solution = backend.solve(*model.standard_form())
        assert solution.warm_start is not None
        assert solution.warm_start.backend == "highs_native"
        assert "col_status" in solution.warm_start.payload
        assert "row_status" in solution.warm_start.payload
        assert "token" in solution.warm_start.payload

    def test_payloadless_handle_on_append_not_reported_used(self):
        """On the append path a handle whose payload was never installed
        must not be reported as used — ``warm_start_used`` means *this*
        handle steered the solve, not merely "warm state existed"."""
        model = LPModel()
        delta = model.add_variables(2, lower=-5.0, upper=5.0)
        model.add_leq_block(np.array([[1.0, 1.0]]), [4.0], delta)
        add_l1_objective(model, delta)
        session = model.incremental_session(backend="highs_native")
        first = session.solve()
        assert first.status is LPStatus.OPTIMAL
        model.add_leq_block(np.array([[-1.0, 0.0]]), [-1.0], delta)
        session.append_rows()
        bare = WarmStart(backend="highs_native", values=first.values)
        second = session.solve(warm_start=bare)
        assert second.status is LPStatus.OPTIMAL
        assert second.warm_start_used is False

    def test_foreign_handle_on_append_installed_via_basis(self):
        """A handle minted by a *different* native instance is genuinely
        installed (basis extended with basic slacks), so reporting it used
        is honest."""
        model = LPModel()
        delta = model.add_variables(2, lower=-5.0, upper=5.0)
        model.add_leq_block(np.array([[1.0, 1.0]]), [4.0], delta)
        add_l1_objective(model, delta)
        foreign = get_backend("highs_native").solve(*model.standard_form())
        assert foreign.warm_start is not None and foreign.warm_start.payload
        session = model.incremental_session(backend="highs_native")
        first = session.solve()
        assert first.status is LPStatus.OPTIMAL
        model.add_leq_block(np.array([[-1.0, 0.0]]), [-1.0], delta)
        session.append_rows()
        second = session.solve(warm_start=foreign.warm_start)
        assert second.status is LPStatus.OPTIMAL
        assert second.warm_start_used is True

    def test_incremental_session_reuses_basis(self):
        model = LPModel()
        delta = model.add_variables(2, lower=-5.0, upper=5.0)
        model.add_leq_block(np.array([[1.0, 1.0]]), [4.0], delta)
        add_l1_objective(model, delta)
        session = model.incremental_session(backend="highs_native")
        first = session.solve()
        assert first.status is LPStatus.OPTIMAL
        model.add_leq_block(np.array([[-1.0, 0.0]]), [-1.0], delta)
        session.append_rows()
        second = session.solve(warm_start=first.warm_start)
        assert second.status is LPStatus.OPTIMAL
        assert second.warm_start_used is True

    def test_exactness_honestly_reported(self):
        backend = get_backend("highs_native")
        assert backend.warm_start_is_exact is False
