"""Tests for SpeedPPR and SpeedPPR+."""

import pytest

from repro.graph import EdgeUpdate
from repro.ppr import SpeedPPR, SpeedPPRPlus, ppr_exact


class TestSpeedPPR:
    def test_query_accuracy(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.seed(0)
        exact = ppr_exact(small_ba_graph, 0, alpha=params.alpha)
        estimate = alg.query(0)
        errors = [abs(estimate[v] - exact[v]) for v in range(120)]
        assert max(errors) < 0.02

    def test_power_iteration_phase_runs(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.query(0)
        assert alg.last_query_stats.extra["sweeps"] >= 1
        assert alg.timers.count("Power Iteration") == 1

    def test_smaller_r_max_more_sweeps(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.seed(1)
        alg.set_hyperparameters(r_max=1e-2)
        alg.query(0)
        coarse_sweeps = alg.last_query_stats.extra["sweeps"]
        alg.set_hyperparameters(r_max=1e-6)
        alg.query(0)
        assert alg.last_query_stats.extra["sweeps"] > coarse_sweeps

    def test_update_is_graph_only(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.apply_update(EdgeUpdate(0, 60))
        assert alg.timers.count("Graph Update") == 1
        assert alg.timers.count("Index Build") == 0

    def test_transition_matrix_cached_between_queries(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.query(0)
        matrix_a = alg._matrix_t
        alg.query(1)
        assert alg._matrix_t is matrix_a
        alg.apply_update(EdgeUpdate(2, 70))
        alg.query(0)
        assert alg._matrix_t is not matrix_a

    def test_query_reflects_update(self, params):
        from repro.graph import DynamicGraph

        g = DynamicGraph.from_edges([(0, 1), (1, 0)])
        alg = SpeedPPR(g, params)
        alg.seed(2)
        alg.apply_update(EdgeUpdate(0, 2))
        assert alg.query(0)[2] > 0.0


class TestSpeedPPRPlus:
    def test_query_accuracy(self, small_ba_graph, params):
        alg = SpeedPPRPlus(small_ba_graph, params)
        alg.seed(0)
        exact = ppr_exact(small_ba_graph, 3, alpha=params.alpha)
        estimate = alg.query(3)
        errors = [abs(estimate[v] - exact[v]) for v in range(120)]
        assert max(errors) < 0.03

    def test_update_rebuilds_index(self, small_ba_graph, params):
        alg = SpeedPPRPlus(small_ba_graph, params)
        builds_before = alg.timers.count("Index Build")
        alg.apply_update(EdgeUpdate(0, 40))
        assert alg.timers.count("Index Build") == builds_before + 1

    def test_compaction_does_not_rebuild_index(self, small_ba_graph, params):
        """Same-version fresh view object must not force an index
        rebuild (mirror of the ForaPlus regression)."""
        alg = SpeedPPRPlus(small_ba_graph, params)
        alg.seed(1)
        builds_before = alg.timers.count("Index Build")
        small_ba_graph._csr_cache = None
        alg.query(0)
        assert alg.timers.count("Index Build") == builds_before

    def test_hyperparameter_change_rebuilds_index(self, small_ba_graph, params):
        alg = SpeedPPRPlus(small_ba_graph, params)
        builds_before = alg.timers.count("Index Build")
        alg.set_hyperparameters(r_max=alg.r_max / 2)
        assert alg.timers.count("Index Build") == builds_before + 1


class TestBatchedPowerPhaseCap:
    """The documented B = 16 batched power-phase regression.

    The whole-batch SpMM keeps a live ``(n, B)`` float write-set; at
    B = 16 it spills cache and the batch loses to sequential frontier
    runs.  The fix: the dispatcher caps the effective sub-batch size
    from its cost model (its ``sigma`` is BatchAwareCostModel's shared
    fraction)
    instead of honoring the constant ``max_batch`` — and because
    scipy's CSR SpMM accumulates each output column in the same index
    order as the single-vector matvec, the split changes no bits.
    """

    SOURCES = list(range(16))

    def _batch(self, graph, params, monkeypatch=None, budget_rows=None):
        from repro.ppr.dispatch import ENV_RESIDENT_KB, set_dispatcher

        if monkeypatch is not None and budget_rows is not None:
            budget_kb = max(
                (2 * 8 * graph.num_nodes * budget_rows) // 1024, 1
            )
            monkeypatch.setenv(ENV_RESIDENT_KB, str(budget_kb))
        set_dispatcher(None)  # rebuild with the env in effect
        try:
            alg = SpeedPPR(graph, params, engine="batched")
            alg.seed(11)
            results = alg.query_batch(self.SOURCES)
            return results, dict(alg.last_query_stats.extra)
        finally:
            set_dispatcher(None)

    def test_b16_capped_under_tight_residency_budget(
        self, small_ba_graph, params, monkeypatch
    ):
        pytest.importorskip("scipy")
        _, extra = self._batch(
            small_ba_graph, params, monkeypatch, budget_rows=4
        )
        assert extra["backend"] == "spmm"
        assert extra["batch_size"] == 16
        assert extra["effective_batch"] < 16  # no constant max_batch

    def test_b16_runs_whole_when_resident(self, small_ba_graph, params):
        pytest.importorskip("scipy")
        # n = 120: the (n, 16) state is far below the default budget
        _, extra = self._batch(small_ba_graph, params)
        assert extra["effective_batch"] == 16

    def test_capped_batch_is_bit_for_bit(
        self, small_ba_graph, params, monkeypatch
    ):
        pytest.importorskip("scipy")
        whole, _ = self._batch(small_ba_graph, params)
        capped, extra = self._batch(
            small_ba_graph, params, monkeypatch, budget_rows=3
        )
        assert extra["effective_batch"] < 16
        import numpy as np

        for a, b in zip(whole, capped):
            np.testing.assert_array_equal(a.values, b.values)
