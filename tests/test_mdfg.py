"""Tests for M-DFG nodes, graph, cost models, builder, layout, schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.stats import WindowStats
from repro.errors import ConfigurationError, GraphError
from repro.mdfg import (
    MDFG,
    MDFGNode,
    NodeType,
    build_linear_solver_mdfg,
    build_marginalization_mdfg,
    build_window_mdfg,
    choose_s_matrix_layout,
    node_cost,
    optimal_linear_solver_blocking,
    optimal_marginalization_blocking,
    schedule_mdfg,
)
from repro.mdfg.builder import build_nls_iteration_mdfg
from repro.mdfg.cost import CostModel
from repro.mdfg.schedule import HardwareBlockType

STATS = WindowStats(
    num_features=100,
    avg_observations=4.0,
    num_keyframes=10,
    num_marginalized=12,
    num_observations=400,
)


class TestNodes:
    def test_dims_validation(self):
        with pytest.raises(ValueError):
            MDFGNode(NodeType.MATMUL, (3, 4))  # needs 3 dims
        with pytest.raises(ValueError):
            MDFGNode(NodeType.CD, (4, 4))  # needs 1 dim
        with pytest.raises(ValueError):
            MDFGNode(NodeType.CD, (-1,))

    def test_signature_ignores_identity(self):
        a = MDFGNode(NodeType.MATMUL, (2, 3, 4))
        b = MDFGNode(NodeType.MATMUL, (2, 3, 4), label="other")
        assert a.uid != b.uid
        assert a.signature() == b.signature()


class TestCost:
    def test_matmul_cubic(self):
        model = CostModel()
        assert node_cost(MDFGNode(NodeType.MATMUL, (10, 10, 10)), model) == 1000

    def test_diagonal_ops_linear(self):
        model = CostModel()
        assert node_cost(MDFGNode(NodeType.DMATMUL, (50, 10)), model) == 500
        assert node_cost(MDFGNode(NodeType.DMATINV, (50,)), model) == 200  # 4x divide

    def test_transpose_free(self):
        assert node_cost(MDFGNode(NodeType.MATTP, (30, 40))) == 0.0

    def test_cholesky_cubic_leading_term(self):
        model = CostModel(divide=0.0, sqrt=0.0)
        big = node_cost(MDFGNode(NodeType.CD, (60,)), model)
        assert big == pytest.approx(60**3 / 6.0)

    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=20)
    def test_costs_positive(self, n):
        for node_type, dims in [
            (NodeType.MATMUL, (n, n, n)),
            (NodeType.CD, (n,)),
            (NodeType.FBSUB, (n,)),
            (NodeType.VJAC, (n,)),
            (NodeType.IJAC, (n,)),
        ]:
            assert node_cost(MDFGNode(node_type, dims)) > 0


class TestGraph:
    def test_empty_graph_invalid(self):
        with pytest.raises(GraphError):
            MDFG().validate()

    def test_cycle_detected(self):
        graph = MDFG()
        a = graph.add(NodeType.CD, (4,))
        b = graph.add(NodeType.FBSUB, (4,), after=[a])
        graph.add_edge(b, a)
        with pytest.raises(GraphError):
            graph.validate()

    def test_edge_requires_known_nodes(self):
        graph = MDFG()
        a = graph.add(NodeType.CD, (4,))
        stray = MDFGNode(NodeType.FBSUB, (4,))
        with pytest.raises(GraphError):
            graph.add_edge(a, stray)

    def test_total_vs_critical_path(self):
        graph = MDFG()
        a = graph.add(NodeType.MATMUL, (10, 10, 10))
        graph.add(NodeType.MATMUL, (10, 10, 10), after=[a])
        parallel = MDFG()
        parallel.add(NodeType.MATMUL, (10, 10, 10))
        parallel.add(NodeType.MATMUL, (10, 10, 10))
        assert graph.total_cost() == parallel.total_cost()
        assert graph.critical_path_cost() == 2 * parallel.critical_path_cost()

    def test_shareable_signatures(self):
        graph = MDFG()
        graph.add(NodeType.CD, (10,))
        graph.add(NodeType.CD, (10,))
        graph.add(NodeType.CD, (12,))
        assert graph.shareable_signatures() == [(NodeType.CD, (10,))]


class TestBlockingOptimization:
    def test_diagonal_landmarks_win(self):
        """The paper's key observation: the optimum blocks A with a
        diagonal U (the landmark block)."""
        choice = optimal_linear_solver_blocking(100, 10)
        assert choice.diagonal
        assert choice.split == 100

    def test_diagonal_beats_dense_same_split(self):
        choice = optimal_linear_solver_blocking(100, 10)
        dense_same = choice.alternatives["schur-dense-p100"]
        assert choice.cost < dense_same

    def test_schur_beats_direct(self):
        choice = optimal_linear_solver_blocking(150, 12)
        assert choice.cost < choice.alternatives["direct"]

    @given(
        st.integers(min_value=20, max_value=400), st.integers(min_value=4, max_value=20)
    )
    @settings(max_examples=30)
    def test_diagonal_always_optimal_in_slam_regime(self, a, b):
        choice = optimal_linear_solver_blocking(a, b)
        assert choice.diagonal

    def test_marginalization_blocking_diagonal(self):
        choice = optimal_marginalization_blocking(12)
        assert choice.diagonal
        assert choice.split == 12

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            optimal_linear_solver_blocking(0, 10)
        with pytest.raises(ConfigurationError):
            optimal_marginalization_blocking(-1)


class TestBuilders:
    def test_linear_solver_graph_shape(self):
        graph = build_linear_solver_mdfg(100, 10)
        counts = graph.count_by_type()
        assert counts[NodeType.CD] == 1
        assert counts[NodeType.FBSUB] == 1
        assert counts[NodeType.DMATINV] == 1
        graph.validate()

    def test_marginalization_graph(self):
        graph = build_marginalization_mdfg(STATS)
        counts = graph.count_by_type()
        assert counts[NodeType.VJAC] == 1
        assert counts[NodeType.DMATINV] == 1  # M11^-1, the embedded D-type
        graph.validate()

    def test_iteration_graph_connects_solver(self):
        graph = build_nls_iteration_mdfg(STATS)
        graph.validate()
        sinks = [n for n in graph.nodes if not graph.successors(n)]
        assert len(sinks) == 1
        assert sinks[0].label == "update p"

    def test_window_graph_scales_with_iterations(self):
        one = build_window_mdfg(STATS, iterations=1)
        three = build_window_mdfg(STATS, iterations=3)
        assert three.num_nodes > one.num_nodes
        # Serialized iterations: critical path grows proportionally.
        assert three.critical_path_cost() > 2 * one.critical_path_cost() * 0.9

    def test_window_graph_rejects_zero_iterations(self):
        with pytest.raises(ConfigurationError):
            build_window_mdfg(STATS, iterations=0)


class TestLayoutDecision:
    def test_compact_chosen_for_typical_window(self):
        decision = choose_s_matrix_layout(15, 15)
        assert decision.chosen == "compact-si-sc"
        assert decision.saving_vs_dense == pytest.approx(0.78, abs=0.01)
        assert decision.saving_vs_csr > 0.0

    def test_candidates_complete(self):
        decision = choose_s_matrix_layout(15, 10)
        assert set(decision.candidates) == {
            "dense",
            "symmetric",
            "csr-symmetric",
            "compact-si-sc",
        }


class TestSchedule:
    def test_all_nodes_assigned(self):
        graph = build_window_mdfg(STATS, iterations=2)
        schedule = schedule_mdfg(graph)
        assert len(schedule.assignments) == graph.num_nodes

    def test_cholesky_shared_across_phases(self):
        """NLS and marginalization Cholesky map to one physical block."""
        graph = build_window_mdfg(STATS, iterations=2)
        schedule = schedule_mdfg(graph)
        assert schedule.sharing_factor(HardwareBlockType.CHOLESKY) >= 3

    def test_dschur_shared_between_nls_and_marginalization(self):
        graph = build_window_mdfg(STATS, iterations=1)
        schedule = schedule_mdfg(graph)
        # D-type Schur work exists in both phases but one physical block.
        assert schedule.sharing_factor(HardwareBlockType.DSCHUR) > 5
        assert schedule.num_physical_blocks <= len(HardwareBlockType)

    def test_jacobian_dschur_pipelined(self):
        graph = build_window_mdfg(STATS, iterations=1)
        schedule = schedule_mdfg(graph)
        assert (
            HardwareBlockType.VISUAL_JACOBIAN,
            HardwareBlockType.DSCHUR,
        ) in schedule.pipelined_pairs
