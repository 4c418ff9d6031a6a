"""Property tests for the multi-backend kernel dispatcher.

The contract (see ``repro.ppr.dispatch``): routing must never change
answers.  Whatever the dispatcher decides — whole batch, locality-split
sub-batches, sequential frontier fallback — executing the decision must
reproduce the scalar oracle (:func:`reference_frontier_push` for the
sync-push family, a pure-Python jj-order sweep loop for the scipy SpMM
family) **bit-for-bit**, on packed and slack-patched CSR views, and on
the forced-fallback path (scipy treated as absent).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DynamicGraph, barabasi_albert_graph
from repro.obs import MetricsRegistry
from repro.ppr import PPRParams, SpeedPPR, csr_view
from repro.ppr.dispatch import (
    AUTO,
    ENGINE_CHOICES,
    ENV_BACKEND,
    ENV_DISABLE,
    ENV_RESIDENT_KB,
    POWER,
    PUSH,
    REGISTRY,
    DispatchCostModel,
    KernelDispatcher,
    frontier_density,
    get_dispatcher,
    plan_chunks,
    resolve_engine_choice,
    set_dispatcher,
)
from repro.ppr.kernels import (
    ENGINES,
    batched_frontier_push,
    frontier_push,
    reference_frontier_push,
)
from repro.ppr.power_iteration import transition_matrix

ALPHA = 0.2

edges_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    min_size=0,
    max_size=35,
)


def build_graph(edges, n=10):
    g = DynamicGraph(num_nodes=n)
    for u, v in edges:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def slack_view(edges, extra_edges, n=10):
    """CSR view with slack rows (materialize packed, then patch)."""
    g = build_graph(edges, n=n)
    csr_view(g)
    for u, v in extra_edges:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return csr_view(g)


def execute_push_decision(view, decision, source_indices, alpha, r_max):
    """Run a push-family routing decision exactly as the algorithms do.

    Returns ``(B, n)`` reserve/residue matrices in input order.
    """
    b = len(source_indices)
    reserve = np.zeros((b, view.n), dtype=np.float64)
    residue = np.zeros((b, view.n), dtype=np.float64)
    if decision.backend == "frontier":
        for i, s in enumerate(source_indices):
            single = frontier_push(view, int(s), alpha, r_max)
            reserve[i] = single.reserve
            residue[i] = single.residue
        return reserve, residue
    assert decision.backend == "batched"
    chunks = decision.chunks
    if chunks is None:
        chunks = (np.arange(b, dtype=np.int64),)
    seen = np.concatenate(chunks)
    # a split must be a permutation of the batch positions
    assert sorted(seen.tolist()) == list(range(b))
    arr = np.asarray(source_indices, dtype=np.int64)
    for chunk in chunks:
        part = batched_frontier_push(view, arr[chunk], alpha, r_max)
        reserve[chunk] = part.reserve
        residue[chunk] = part.residue
    return reserve, residue


@pytest.fixture(autouse=True)
def _fresh_default_dispatcher():
    """Keep the process-wide dispatcher out of cross-test state."""
    set_dispatcher(None)
    yield
    set_dispatcher(None)


# ----------------------------------------------------------------------
# registry and capability declarations
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_backends_declared(self):
        assert set(REGISTRY) == {
            "scalar", "frontier", "batched", "power", "spmm"
        }
        for name in ENGINES:
            assert name in REGISTRY  # every engine is a backend

    def test_engine_choices_are_auto_plus_engines(self):
        assert ENGINE_CHOICES == (AUTO,) + ENGINES
        for choice in ENGINE_CHOICES:
            assert resolve_engine_choice(choice) == choice
        with pytest.raises(ValueError, match="unknown kernel engine"):
            resolve_engine_choice("gpu")

    def test_families(self):
        assert REGISTRY["frontier"].family == PUSH
        assert REGISTRY["batched"].family == PUSH
        assert REGISTRY["power"].family == POWER
        assert REGISTRY["spmm"].family == POWER

    def test_spmm_probe_matches_scipy(self):
        try:
            import scipy  # noqa: F401
            have = True
        except ImportError:  # pragma: no cover
            have = False
        assert REGISTRY["spmm"].probe() is have

    def test_describe_lists_every_backend(self):
        rows = KernelDispatcher(metrics=MetricsRegistry()).describe()
        assert {r[0] for r in rows} == set(REGISTRY)


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
class TestDispatchCostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DispatchCostModel(sigma=1.5)
        with pytest.raises(ValueError):
            DispatchCostModel(resident_bytes=0)
        with pytest.raises(ValueError):
            DispatchCostModel(min_batch=1)
        with pytest.raises(ValueError):
            DispatchCostModel(min_resident_rows=0)

    def test_single_source_never_batched(self):
        assert DispatchCostModel().effective_batch(1000, 1) == 1

    def test_resident_cap_shrinks_with_n(self):
        model = DispatchCostModel(resident_bytes=1 << 20)
        assert model.resident_cap(500) > model.resident_cap(20_000)
        # the documented losing cell: 2 * 20k * 8 float64 cells per
        # batch row exceed a 1 MiB budget at B >= 4
        assert model.resident_cap(20_000) < 8

    def test_large_n_disables_batching(self):
        model = DispatchCostModel(resident_bytes=1 << 20)
        assert model.effective_batch(200_000, 16, r_max=1e-5) == 1

    def test_spill_regime_disables_batching_entirely(self):
        """The measured PR-5 losing cell: at n = 20k sequential wins at
        *every* batch size (even B = 2), so once fewer than
        ``min_resident_rows`` rows fit the budget the model goes fully
        sequential rather than splitting into still-losing chunks."""
        model = DispatchCostModel(resident_bytes=1 << 20)
        assert model.resident_cap(20_000) < model.min_resident_rows
        assert model.effective_batch(20_000, 2, r_max=1e-5) == 1
        assert model.effective_batch(20_000, 16, r_max=1e-5) == 1

    def test_oversize_batch_splits_on_mid_graphs(self):
        """Above the floor the cap still splits oversize batches."""
        model = DispatchCostModel(resident_bytes=1 << 20)
        cap = model.resident_cap(5_000)
        assert cap >= model.min_resident_rows
        assert model.effective_batch(5_000, 64, r_max=1e-5) == cap

    def test_small_n_keeps_full_batch(self):
        model = DispatchCostModel(resident_bytes=1 << 20)
        assert model.effective_batch(500, 16, r_max=1e-5) == 16

    def test_sparse_frontier_disables_batching(self):
        # huge r_max => a handful of pushes => nothing to amortize
        model = DispatchCostModel()
        assert model.effective_batch(500, 16, r_max=0.9) == 1

    def test_batch_speedup_curve(self):
        model = DispatchCostModel(sigma=0.5)
        assert model.batch_speedup(1) == pytest.approx(1.0)
        assert model.batch_speedup(8) > model.batch_speedup(2) > 1.0

    def test_env_override_resident_kb(self):
        model = DispatchCostModel().with_env({ENV_RESIDENT_KB: "4"})
        assert model.resident_bytes == 4096
        # invalid and non-positive values are ignored
        assert DispatchCostModel().with_env(
            {ENV_RESIDENT_KB: "zero"}
        ).resident_bytes == DispatchCostModel().resident_bytes
        assert DispatchCostModel().with_env(
            {ENV_RESIDENT_KB: "-3"}
        ).resident_bytes == DispatchCostModel().resident_bytes

    def test_frontier_density_bounds(self):
        assert frontier_density(0, 1e-3, ALPHA) == 0.0
        assert 0.0 < frontier_density(10**6, 1e-3, ALPHA) <= 1.0
        assert frontier_density(10, 1e-6, ALPHA) == 1.0


# ----------------------------------------------------------------------
# chunk planning
# ----------------------------------------------------------------------
class TestPlanChunks:
    @settings(max_examples=50, deadline=None)
    @given(
        sources=st.lists(st.integers(0, 999), min_size=1, max_size=40),
        b_eff=st.integers(1, 10),
    )
    def test_partition_is_exact_and_bounded(self, sources, b_eff):
        arr = np.asarray(sources, dtype=np.int64)
        chunks = plan_chunks(arr, b_eff)
        seen = np.concatenate(chunks)
        assert sorted(seen.tolist()) == list(range(len(sources)))
        assert all(c.size <= max(b_eff, len(sources)) for c in chunks)
        if b_eff < len(sources):
            assert all(c.size <= b_eff for c in chunks)

    def test_locality_sort(self):
        chunks = plan_chunks(np.asarray([9, 1, 8, 2, 7, 3]), 2)
        # positions ordered by node index: 1,2,3,7,8,9
        flat = np.concatenate(chunks)
        nodes = np.asarray([9, 1, 8, 2, 7, 3])[flat]
        assert nodes.tolist() == sorted(nodes.tolist())


# ----------------------------------------------------------------------
# routing: overrides, fallback, metrics
# ----------------------------------------------------------------------
class TestRouting:
    def make(self, env=None, **cost_kwargs):
        metrics = MetricsRegistry()
        dispatcher = KernelDispatcher(
            cost_model=DispatchCostModel(**cost_kwargs),
            env=env if env is not None else {},
            metrics=metrics,
        )
        return dispatcher, metrics

    def test_single_source_routes_to_frontier(self):
        dispatcher, metrics = self.make()
        view = csr_view(build_graph([(0, 1), (1, 2)]))
        decision = dispatcher.route_push(view, 1, 1e-4)
        assert decision.backend == "frontier"
        assert decision.effective_batch == 1
        assert metrics.counters()["dispatch.decisions"] == 1

    def test_env_override_forces_backend(self):
        dispatcher, metrics = self.make(env={ENV_BACKEND: "scalar"})
        view = csr_view(build_graph([(0, 1)]))
        decision = dispatcher.route_push(view, 4, 1e-4)
        assert decision.backend == "scalar"
        assert decision.overridden
        assert metrics.counters()["dispatch.overrides"] == 1

    def test_env_override_wrong_family_ignored(self):
        dispatcher, _ = self.make(env={ENV_BACKEND: "spmm"})
        view = csr_view(build_graph([(0, 1)]))
        assert dispatcher.route_push(view, 1, 1e-4).backend == "frontier"

    def test_env_override_unknown_ignored(self):
        dispatcher, _ = self.make(env={ENV_BACKEND: "gpu"})
        view = csr_view(build_graph([(0, 1)]))
        decision = dispatcher.route_push(view, 1, 1e-4)
        assert not decision.overridden

    def test_env_disable_forces_power_fallback(self):
        dispatcher, metrics = self.make(env={ENV_DISABLE: "spmm"})
        view = csr_view(build_graph([(0, 1)]))
        decision = dispatcher.route_power(view, 8)
        assert decision.backend == "power"
        assert decision.fallback
        assert metrics.counters()["dispatch.fallbacks"] == 1

    def test_unavailable_override_falls_back_to_auto(self):
        dispatcher, metrics = self.make(
            env={ENV_BACKEND: "spmm", ENV_DISABLE: "spmm"}
        )
        view = csr_view(build_graph([(0, 1)]))
        decision = dispatcher.route_power(view, 2)
        assert decision.backend == "power"
        assert metrics.counters()["dispatch.fallbacks"] >= 1

    def test_probe_failure_is_cached_and_clearable(self):
        calls = []
        from repro.ppr.dispatch import BackendSpec, register_backend

        def flaky_probe():
            calls.append(1)
            raise RuntimeError("probe exploded")

        register_backend(
            BackendSpec(
                name="_test_flaky",
                family=POWER,
                result_class="power-raw",
                batched=False,
                probe=flaky_probe,
                description="test-only",
            )
        )
        try:
            dispatcher, _ = self.make()
            assert not dispatcher.available("_test_flaky")
            assert not dispatcher.available("_test_flaky")
            assert len(calls) == 1  # cached
            dispatcher.clear_probe_cache()
            assert not dispatcher.available("_test_flaky")
            assert len(calls) == 2
        finally:
            del REGISTRY["_test_flaky"]

    def test_split_counted(self):
        # budget fits 2 rows of a 10-node graph's (n, B) state; the
        # profitability floor is lowered so the split path is taken
        # (at the default floor this budget routes fully sequential)
        dispatcher, metrics = self.make(
            resident_bytes=2 * 8 * 10 * 2, min_resident_rows=2
        )
        view = csr_view(build_graph([(0, 1), (1, 2), (2, 3)]))
        decision = dispatcher.route_push(
            view, 6, 1e-4, source_indices=np.arange(6, dtype=np.int64)
        )
        assert decision.backend == "batched"
        assert decision.effective_batch == 2
        assert decision.chunks is not None and len(decision.chunks) == 3
        assert metrics.counters()["dispatch.splits"] == 1

    def test_spill_regime_routes_sequential(self):
        """Below the profitability floor the router goes sequential
        instead of emitting still-losing chunks."""
        dispatcher, _ = self.make(resident_bytes=2 * 8 * 10 * 2)
        view = csr_view(build_graph([(0, 1), (1, 2), (2, 3)]))
        decision = dispatcher.route_push(
            view, 6, 1e-4, source_indices=np.arange(6, dtype=np.int64)
        )
        assert decision.backend == "frontier"
        assert decision.effective_batch == 1
        assert decision.chunks is None

    def test_get_set_dispatcher_roundtrip(self):
        custom = KernelDispatcher(metrics=MetricsRegistry())
        set_dispatcher(custom)
        assert get_dispatcher() is custom
        set_dispatcher(None)
        assert get_dispatcher() is not custom


# ----------------------------------------------------------------------
# routing invariance: any decision == the scalar push oracle, bitwise
# ----------------------------------------------------------------------
class TestPushRoutingInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        edges=edges_strategy,
        sources=st.lists(st.integers(0, 9), min_size=1, max_size=8),
        r_max_exp=st.integers(-5, -1),
        resident_rows=st.integers(1, 12),
    )
    def test_any_decision_matches_oracle_packed(
        self, edges, sources, r_max_exp, resident_rows
    ):
        view = csr_view(build_graph(edges))
        r_max = 10.0**r_max_exp
        # resident budget in units of batch rows => decisions range
        # over sequential / split / whole-batch as hypothesis varies it
        dispatcher = KernelDispatcher(
            cost_model=DispatchCostModel(
                resident_bytes=2 * 8 * max(view.n, 1) * resident_rows,
                min_push_work=0.0,
                # floor lowered so hypothesis reaches every decision
                # shape (sequential / split / whole) on tiny graphs
                min_resident_rows=1,
            ),
            env={},
            metrics=MetricsRegistry(),
        )
        decision = dispatcher.route_push(
            view,
            len(sources),
            r_max,
            alpha=ALPHA,
            source_indices=np.asarray(sources, dtype=np.int64),
        )
        reserve, residue = execute_push_decision(
            view, decision, sources, ALPHA, r_max
        )
        for i, s in enumerate(sources):
            oracle = reference_frontier_push(view, s, ALPHA, r_max)
            np.testing.assert_array_equal(reserve[i], oracle.reserve)
            np.testing.assert_array_equal(residue[i], oracle.residue)

    @settings(max_examples=30, deadline=None)
    @given(
        edges=edges_strategy,
        extra=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=1,
            max_size=15,
        ),
        sources=st.lists(st.integers(0, 9), min_size=2, max_size=6),
        r_max_exp=st.integers(-5, -1),
        resident_rows=st.integers(1, 8),
    )
    def test_any_decision_matches_oracle_slack(
        self, edges, extra, sources, r_max_exp, resident_rows
    ):
        view = slack_view(edges, extra)
        r_max = 10.0**r_max_exp
        dispatcher = KernelDispatcher(
            cost_model=DispatchCostModel(
                resident_bytes=2 * 8 * max(view.n, 1) * resident_rows,
                min_push_work=0.0,
                # floor lowered so hypothesis reaches every decision
                # shape (sequential / split / whole) on tiny graphs
                min_resident_rows=1,
            ),
            env={},
            metrics=MetricsRegistry(),
        )
        decision = dispatcher.route_push(
            view,
            len(sources),
            r_max,
            alpha=ALPHA,
            source_indices=np.asarray(sources, dtype=np.int64),
        )
        reserve, residue = execute_push_decision(
            view, decision, sources, ALPHA, r_max
        )
        for i, s in enumerate(sources):
            oracle = reference_frontier_push(view, s, ALPHA, r_max)
            np.testing.assert_array_equal(reserve[i], oracle.reserve)
            np.testing.assert_array_equal(residue[i], oracle.residue)


# ----------------------------------------------------------------------
# scipy SpMM family: chunked == whole == pure-Python jj-order oracle
# ----------------------------------------------------------------------
def reference_spmm_sweeps(matrix_t, source_indices, n, alpha, stop_mass):
    """Pure-Python power sweeps in scipy's per-element jj order.

    scipy's CSR matvec/SpMM kernels accumulate each output element
    sequentially over the row's jj index range, so this loop performs
    the exact IEEE-754 operations of the C kernels — the scalar oracle
    of the spmm backend.
    """
    indptr, indices, data = (
        matrix_t.indptr, matrix_t.indices, matrix_t.data
    )

    def matvec(x):
        out = np.zeros(n, dtype=np.float64)
        for i in range(n):
            acc = 0.0
            for jj in range(indptr[i], indptr[i + 1]):
                acc += data[jj] * x[indices[jj]]
            out[i] = acc
        return out

    results = []
    for s in source_indices:
        residue = np.zeros(n, dtype=np.float64)
        residue[s] = 1.0
        reserve = np.zeros(n, dtype=np.float64)
        sweeps = 0
        while residue.sum() > stop_mass and sweeps < 200:
            reserve = reserve + alpha * residue
            residue = (1.0 - alpha) * matvec(residue)
            sweeps += 1
        results.append((reserve, residue))
    return results


class TestSpmmRoutingInvariance:
    @settings(max_examples=15, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=1,
            max_size=25,
        ),
        sources=st.lists(st.integers(0, 7), min_size=2, max_size=6),
        resident_rows=st.integers(1, 8),
    )
    def test_chunked_spmm_matches_jj_order_oracle(
        self, edges, sources, resident_rows
    ):
        pytest.importorskip("scipy")
        view = csr_view(build_graph(edges, n=8))
        matrix_t = transition_matrix(view).T.tocsr()
        stop_mass = 1e-4
        dispatcher = KernelDispatcher(
            cost_model=DispatchCostModel(
                resident_bytes=2 * 8 * view.n * resident_rows,
                min_push_work=0.0,
            ),
            env={},
            metrics=MetricsRegistry(),
        )
        decision = dispatcher.route_power(view, len(sources))
        assert decision.backend == "spmm"
        arr = np.asarray(sources, dtype=np.int64)
        chunks = decision.chunks or (
            np.arange(len(sources), dtype=np.int64),
        )
        got = [None] * len(sources)
        for chunk in chunks:
            cols = arr[chunk]
            residues = np.zeros((view.n, cols.size), dtype=np.float64)
            residues[cols, np.arange(cols.size)] = 1.0
            reserves = np.zeros((view.n, cols.size), dtype=np.float64)
            sweeps = 0
            while residues[:, 0].sum() > stop_mass and sweeps < 200:
                reserves += ALPHA * residues
                residues = (1.0 - ALPHA) * (matrix_t @ residues)
                sweeps += 1
            for j, pos in enumerate(chunk):
                got[pos] = (reserves[:, j].copy(), residues[:, j].copy())
        want = reference_spmm_sweeps(
            matrix_t, sources, view.n, ALPHA, stop_mass
        )
        for (g_res, g_rem), (w_res, w_rem) in zip(got, want):
            np.testing.assert_array_equal(g_res, w_res)
            np.testing.assert_array_equal(g_rem, w_rem)


# ----------------------------------------------------------------------
# forced fallback through a full algorithm (scipy treated as absent)
# ----------------------------------------------------------------------
class TestForcedFallback:
    def test_speedppr_auto_falls_back_without_scipy(self, monkeypatch):
        monkeypatch.setenv(ENV_DISABLE, "spmm")
        set_dispatcher(None)  # rebuild with the env in effect
        g = barabasi_albert_graph(60, attach=2, seed=8)
        algo = SpeedPPR(g, PPRParams(walk_cap=500), engine="auto")
        algo.seed(3)
        batch = algo.query_batch([0, 1, 2, 3])
        assert algo.last_query_stats.extra.get("backend") == "power"
        # the fallback loops single queries: each must equal a fresh
        # identically-seeded single query bit-for-bit
        solo = SpeedPPR(g, PPRParams(walk_cap=500), engine="auto")
        solo.seed(3)
        for source, result in zip([0, 1, 2, 3], batch):
            np.testing.assert_array_equal(
                result.values, solo.query(source).values
            )

    def test_speedppr_single_query_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_DISABLE, "spmm")
        set_dispatcher(None)
        g = barabasi_albert_graph(40, attach=2, seed=9)
        algo = SpeedPPR(g, PPRParams(walk_cap=200), engine="auto")
        algo.query(1)
        assert algo.last_query_stats.extra["backend"] == "power"

    def test_scalar_only_algorithms_degrade_auto_to_scalar(self):
        from repro.ppr import ResAcc

        g = barabasi_albert_graph(30, attach=2, seed=1)
        algo = ResAcc(g, PPRParams(walk_cap=100))
        algo.set_engine("auto")
        assert algo.engine == "scalar"


# ----------------------------------------------------------------------
# chunked auto batches through a full algorithm
# ----------------------------------------------------------------------
class TestForaChunkedAuto:
    def test_chunked_auto_batch_is_bit_for_bit(self):
        """A locality-split auto batch equals the legacy whole-batch
        engine exactly: the push scatter is result-invariant and the
        walk phase stays one whole-batch call (identical RNG draws)."""
        from repro.ppr import Fora

        g = barabasi_albert_graph(300, attach=2, seed=5)
        static = Fora(g, PPRParams(walk_cap=200), engine="batched")
        static.seed(7)
        want = static.query_batch(list(range(12)))
        # a budget of 4 rows with a lowered profitability floor forces
        # a 3-way split of the 12-source batch
        set_dispatcher(
            KernelDispatcher(
                cost_model=DispatchCostModel(
                    resident_bytes=2 * 8 * 300 * 4,
                    min_push_work=0.0,
                    min_resident_rows=2,
                ),
                env={},
                metrics=MetricsRegistry(),
            )
        )
        auto = Fora(g, PPRParams(walk_cap=200), engine="auto")
        auto.seed(7)
        got = auto.query_batch(list(range(12)))
        extra = auto.last_query_stats.extra
        assert extra["backend"] == "batched"
        assert extra["effective_batch"] == 4
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a.values, b.values)

    def test_spill_regime_auto_batch_goes_sequential(self):
        """Below the profitability floor, an auto batch serves each
        source with the sequential frontier path (no batched kernel)."""
        from repro.ppr import Fora

        g = barabasi_albert_graph(300, attach=2, seed=5)
        set_dispatcher(
            KernelDispatcher(
                cost_model=DispatchCostModel(
                    resident_bytes=2 * 8 * 300 * 4, min_push_work=0.0
                ),
                env={},
                metrics=MetricsRegistry(),
            )
        )
        auto = Fora(g, PPRParams(walk_cap=200), engine="auto")
        auto.seed(7)
        results = auto.query_batch(list(range(12)))
        assert len(results) == 12
        # the batched-kernel extras are absent on the sequential path
        assert "effective_batch" not in auto.last_query_stats.extra
