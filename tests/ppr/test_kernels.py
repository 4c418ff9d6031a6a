"""Property tests for the vectorized frontier/batched push kernels.

The contract under test (see ``repro.ppr.kernels``): the vectorized
kernels perform the exact IEEE-754 operations of the pure-Python
synchronous reference, in the exact same order, so reserve *and*
residue must match :func:`reference_frontier_push` **bit-for-bit** —
on packed views, on slack-slot patched views, and with dangling nodes.
Row ``b`` of a batched push must likewise be bit-for-bit the
single-source frontier push of ``sources[b]``, so splitting a batch
into sub-batches (the residency rule, :func:`push_batch_size`) must
change no bits either.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DynamicGraph, barabasi_albert_graph, ring_graph
from repro.ppr import (
    Fora,
    PPRParams,
    ResAcc,
    csr_view,
    ppr_exact_all_pairs,
)
from repro.ppr import fora as fora_module
from repro.ppr import kernels
from repro.ppr.kernels import (
    ENGINES,
    batched_frontier_push,
    chunked_batch_push,
    frontier_push,
    plan_chunks,
    power_phase,
    push_batch_size,
    reference_frontier_push,
    resolve_engine,
)
from repro.ppr.pushwalk import WalkPhaseResult

ALPHA = 0.2

edges_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    min_size=0,
    max_size=35,
)


def build_graph(edges, n=10):
    """Graph with ``n`` nodes; self-loops dropped, duplicates ignored.

    Nodes not reached by any edge stay isolated and nodes with only
    in-edges are dangling — both paths the kernels must handle.
    """
    g = DynamicGraph(num_nodes=n)
    for u, v in edges:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def slack_view(edges, extra_edges, n=10):
    """A CSR view whose rows carry slack slots.

    Materialize the packed store first, then add edges so the second
    ``csr_view`` call patches rows in place (slack-slot layout, where
    ``indptr[t + 1]`` is no longer the end of row ``t``).  Only the
    *fresh* view is valid — reads through the first facade are
    undefined after the patch (see ``repro.ppr.csr``).
    """
    g = build_graph(edges, n=n)
    csr_view(g)  # materialize the packed store
    for u, v in extra_edges:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return csr_view(g)


def assert_bit_for_bit(result, oracle):
    np.testing.assert_array_equal(result.reserve, oracle.reserve)
    np.testing.assert_array_equal(result.residue, oracle.residue)
    assert result.pushes == oracle.pushes


# ----------------------------------------------------------------------
# engine registry
# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_known_engines(self):
        assert ENGINES == ("frontier", "scalar")
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel engine"):
            resolve_engine("gpu")
        with pytest.raises(ValueError, match="unknown kernel engine"):
            Fora(ring_graph(5), PPRParams(walk_cap=10), engine="auto")

    def test_scalar_only_algorithms_run_scalar(self):
        """An algorithm without a frontier kernel runs its deque push
        under the frontier default instead of rejecting it."""
        algo = ResAcc(
            barabasi_albert_graph(30, attach=2, seed=1),
            PPRParams(walk_cap=100),
        )
        algo.set_engine("frontier")
        assert algo.engine == "scalar"


# ----------------------------------------------------------------------
# frontier kernel vs the pure-Python synchronous oracle
# ----------------------------------------------------------------------
class TestFrontierBitForBit:
    @settings(max_examples=60, deadline=None)
    @given(
        edges=edges_strategy,
        source=st.integers(0, 9),
        r_max_exp=st.integers(-6, -1),
    )
    def test_matches_reference_on_packed_views(
        self, edges, source, r_max_exp
    ):
        view = csr_view(build_graph(edges))
        r_max = 10.0**r_max_exp
        got = frontier_push(view, source, ALPHA, r_max)
        want = reference_frontier_push(view, source, ALPHA, r_max)
        assert_bit_for_bit(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        edges=edges_strategy,
        extra=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=1,
            max_size=15,
        ),
        source=st.integers(0, 9),
        r_max_exp=st.integers(-6, -1),
    )
    def test_matches_reference_on_slack_views(
        self, edges, extra, source, r_max_exp
    ):
        view = slack_view(edges, extra)
        r_max = 10.0**r_max_exp
        got = frontier_push(view, source, ALPHA, r_max)
        want = reference_frontier_push(view, source, ALPHA, r_max)
        assert_bit_for_bit(got, want)

    def test_warm_start_matches_reference(self):
        g = barabasi_albert_graph(80, attach=2, seed=9)
        view = csr_view(g)
        coarse = frontier_push(view, 0, ALPHA, 1e-2)
        oracle = reference_frontier_push(
            view, 0, ALPHA, 1e-6,
            residue=coarse.residue.copy(),
            reserve=coarse.reserve.copy(),
        )
        resumed = frontier_push(
            view, 0, ALPHA, 1e-6,
            residue=coarse.residue, reserve=coarse.reserve,
        )
        assert_bit_for_bit(resumed, oracle)

    def test_dangling_only_target(self):
        g = DynamicGraph.from_edges([(0, 1)])  # node 1 dangling
        view = csr_view(g)
        got = frontier_push(view, view.to_index(0), ALPHA, 1e-10)
        want = reference_frontier_push(view, view.to_index(0), ALPHA, 1e-10)
        assert_bit_for_bit(got, want)
        assert got.reserve[view.to_index(1)] == pytest.approx(
            1 - ALPHA, abs=1e-8
        )

    def test_empty_graph(self):
        view = csr_view(DynamicGraph())
        result = frontier_push(view, 0, ALPHA, 0.1)
        assert result.pushes == 0
        assert result.reserve.size == 0

    @settings(max_examples=25, deadline=None)
    @given(edges=edges_strategy, r_max_exp=st.integers(-6, -1))
    def test_invariant_against_exact(self, edges, r_max_exp):
        """The FORA invariant holds for the synchronous schedule too."""
        g = build_graph(edges)
        view = csr_view(g)
        result = frontier_push(view, 0, ALPHA, 10.0**r_max_exp)
        pi_all = ppr_exact_all_pairs(g, alpha=ALPHA)
        reconstructed = result.reserve + result.residue @ pi_all
        np.testing.assert_allclose(reconstructed, pi_all[0], atol=1e-8)


# ----------------------------------------------------------------------
# batched kernel: per-row equality + mass conservation
# ----------------------------------------------------------------------
class TestBatchedKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        edges=edges_strategy,
        sources=st.lists(st.integers(0, 9), min_size=1, max_size=6),
        r_max_exp=st.integers(-5, -1),
    )
    def test_rows_match_single_source_push(self, edges, sources, r_max_exp):
        view = csr_view(build_graph(edges))
        r_max = 10.0**r_max_exp
        batch = batched_frontier_push(
            view, np.asarray(sources), ALPHA, r_max
        )
        for b, source in enumerate(sources):
            single = frontier_push(view, source, ALPHA, r_max)
            np.testing.assert_array_equal(batch.reserve[b], single.reserve)
            np.testing.assert_array_equal(batch.residue[b], single.residue)

    @settings(max_examples=30, deadline=None)
    @given(
        edges=edges_strategy,
        extra=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=1,
            max_size=15,
        ),
        sources=st.lists(st.integers(0, 9), min_size=2, max_size=5),
        r_max_exp=st.integers(-5, -1),
    )
    def test_rows_match_reference_on_slack_views(
        self, edges, extra, sources, r_max_exp
    ):
        view = slack_view(edges, extra)
        r_max = 10.0**r_max_exp
        batch = batched_frontier_push(
            view, np.asarray(sources), ALPHA, r_max
        )
        for b, source in enumerate(sources):
            oracle = reference_frontier_push(view, source, ALPHA, r_max)
            np.testing.assert_array_equal(batch.reserve[b], oracle.reserve)
            np.testing.assert_array_equal(batch.residue[b], oracle.residue)

    @settings(max_examples=30, deadline=None)
    @given(
        edges=edges_strategy,
        sources=st.lists(st.integers(0, 9), min_size=1, max_size=8),
        r_max_exp=st.integers(-6, -1),
    )
    def test_mass_conservation_per_row(self, edges, sources, r_max_exp):
        view = csr_view(build_graph(edges))
        batch = batched_frontier_push(
            view, np.asarray(sources), ALPHA, 10.0**r_max_exp
        )
        totals = batch.reserve.sum(axis=1) + batch.residue.sum(axis=1)
        np.testing.assert_allclose(totals, 1.0, atol=1e-12)
        assert np.all(batch.reserve >= 0)
        assert np.all(batch.residue >= -1e-15)

    def test_duplicate_sources_identical_rows(self):
        view = csr_view(barabasi_albert_graph(50, attach=2, seed=6))
        batch = batched_frontier_push(
            view, np.asarray([3, 3, 3]), ALPHA, 1e-4
        )
        np.testing.assert_array_equal(batch.reserve[0], batch.reserve[1])
        np.testing.assert_array_equal(batch.reserve[0], batch.reserve[2])

    def test_empty_batch(self):
        view = csr_view(ring_graph(5))
        batch = batched_frontier_push(
            view, np.asarray([], dtype=np.int64), ALPHA, 1e-4
        )
        assert batch.reserve.shape == (0, 5)
        assert batch.pushes == 0
        assert batch.sweeps == 0


# ----------------------------------------------------------------------
# SpeedPPR power phase on raw CSR rows
# ----------------------------------------------------------------------
class TestPowerPhase:
    @settings(max_examples=25, deadline=None)
    @given(edges=edges_strategy, source=st.integers(0, 9))
    def test_mass_conserved_each_state(self, edges, source):
        view = csr_view(build_graph(edges))
        residue = np.zeros(view.n)
        residue[source] = 1.0
        reserve = np.zeros(view.n)
        reserve, residue, sweeps = power_phase(
            view, residue, reserve, ALPHA, stop_mass=1e-6
        )
        assert reserve.sum() + residue.sum() == pytest.approx(1.0)
        assert float(residue.sum()) <= 1e-6 or sweeps == 200

    def test_converges_to_exact(self):
        g = ring_graph(7)
        view = csr_view(g)
        residue = np.zeros(view.n)
        residue[0] = 1.0
        reserve, residue, _ = power_phase(
            view, residue, np.zeros(view.n), ALPHA, stop_mass=1e-12
        )
        exact = ppr_exact_all_pairs(g, alpha=ALPHA)[0]
        np.testing.assert_allclose(reserve, exact, atol=1e-9)

    def test_slack_view_matches_packed(self):
        """The power phase reads slack rows exactly like packed rows."""
        edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
        extra = [(0, 5), (4, 6), (2, 7)]
        patched = slack_view(edges, extra)
        packed = csr_view(build_graph(edges + extra))

        def run(view):
            residue = np.zeros(view.n)
            residue[0] = 1.0
            reserve, _, _ = power_phase(
                view, residue, np.zeros(view.n), ALPHA, stop_mass=1e-10
            )
            return reserve

        np.testing.assert_allclose(run(patched), run(packed), atol=1e-12)


# ----------------------------------------------------------------------
# residency rule: which batches run batched, and in what sub-batches
# ----------------------------------------------------------------------
class TestPushBatchSize:
    @pytest.mark.parametrize(
        "n, b, r_max, want",
        [
            (500, 16, 1e-5, 16),  # resident: the whole batch
            (5_000, 64, 1e-5, 13),  # oversize: min(b, cap), cap = 13
            (8_192, 16, 1e-5, 8),  # the last n where 8 rows fit
            (8_193, 16, 1e-5, 1),  # fewer than 8 rows fit: sequential
            (20_000, 2, 1e-5, 1),  # spilled state loses even at B = 2
            (500, 16, 0.078, 16),  # 1 / (alpha r_max) just above 64
            (500, 16, 0.08, 1),  # below 64 expected pushes
            (500, 1, 1e-5, 1),  # a single source never batches
        ],
    )
    def test_decision_table(self, n, b, r_max, want):
        assert push_batch_size(n, b, ALPHA, r_max) == want

    def test_cap_follows_resident_bytes(self):
        assert kernels.RESIDENT_BYTES == 1 << 20
        cap = kernels.RESIDENT_BYTES // (16 * 5_000)
        assert push_batch_size(5_000, 10**6, ALPHA, 1e-5) == cap


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


class TestChunkedBatchPush:
    """Any sub-batch size reproduces the pure-Python oracle bitwise."""

    @settings(max_examples=40, deadline=None)
    @given(
        edges=edges_strategy,
        sources=st.lists(st.integers(0, 9), min_size=1, max_size=8),
        r_max_exp=st.integers(-5, -1),
        b_eff=st.integers(1, 9),
    )
    def test_any_chunking_matches_oracle_packed(
        self, edges, sources, r_max_exp, b_eff
    ):
        view = csr_view(build_graph(edges))
        r_max = 10.0**r_max_exp
        batch = chunked_batch_push(
            view, np.asarray(sources), ALPHA, r_max, b_eff
        )
        for i, s in enumerate(sources):
            oracle = reference_frontier_push(view, s, ALPHA, r_max)
            np.testing.assert_array_equal(batch.reserve[i], oracle.reserve)
            np.testing.assert_array_equal(batch.residue[i], oracle.residue)

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
        b_eff=st.integers(1, 7),
    )
    def test_any_chunking_matches_oracle_slack(
        self, edges, extra, sources, r_max_exp, b_eff
    ):
        view = slack_view(edges, extra)
        r_max = 10.0**r_max_exp
        batch = chunked_batch_push(
            view, np.asarray(sources), ALPHA, r_max, b_eff
        )
        for i, s in enumerate(sources):
            oracle = reference_frontier_push(view, s, ALPHA, r_max)
            np.testing.assert_array_equal(batch.reserve[i], oracle.reserve)
            np.testing.assert_array_equal(batch.residue[i], oracle.residue)


# ----------------------------------------------------------------------
# FORA batches through the rule
# ----------------------------------------------------------------------
class TestForaChunkedBatch:
    """A FORA batch on a 300-node graph, with the resident budget set
    to 4, 8 and 64 rows: sequential, chunked (8 + 8 + 4) and whole."""

    N = 300
    SOURCES = list(range(20))

    def _fora(self, monkeypatch, rows):
        monkeypatch.setattr(kernels, "RESIDENT_BYTES", 16 * self.N * rows)
        graph = barabasi_albert_graph(self.N, attach=2, seed=5)
        algo = Fora(graph, PPRParams(walk_cap=200), r_max=1e-4)
        algo.seed(7)
        return algo

    @pytest.mark.parametrize("rows, b_eff", [(4, None), (8, 8), (64, 20)])
    def test_batch_push_is_per_source_frontier_push(
        self, monkeypatch, rows, b_eff
    ):
        # without the walk phase an answer is its push reserve, which
        # must be the per-source frontier push bit-for-bit
        def no_walks(*args, **kwargs):
            return WalkPhaseResult(0, 0)

        monkeypatch.setattr(fora_module, "add_walk_estimates", no_walks)
        monkeypatch.setattr(fora_module, "add_walk_estimates_batch", no_walks)
        algo = self._fora(monkeypatch, rows)
        got = algo.query_batch(self.SOURCES)
        assert algo.last_query_stats.extra.get("effective_batch") == b_eff
        view = algo.view
        for source, result in zip(self.SOURCES, got):
            want = frontier_push(view, view.to_index(source), ALPHA, 1e-4)
            np.testing.assert_array_equal(result.values, want.reserve)

    def test_chunked_batch_is_bit_for_bit(self, monkeypatch):
        """A split batch equals the whole batch exactly, walks included:
        the push is split-invariant and the walk phase stays one
        whole-batch call (identical RNG draws)."""
        whole = self._fora(monkeypatch, 64).query_batch(self.SOURCES)
        chunked = self._fora(monkeypatch, 8)
        got = chunked.query_batch(self.SOURCES)
        assert chunked.last_query_stats.extra["effective_batch"] == 8
        for a, b in zip(whole, got):
            np.testing.assert_array_equal(a.values, b.values)

    def test_spill_regime_batch_goes_sequential(self, monkeypatch):
        """Below 8 resident rows the batch is served per source."""
        algo = self._fora(monkeypatch, 4)
        assert len(algo.query_batch(self.SOURCES)) == len(self.SOURCES)
        assert "effective_batch" not in algo.last_query_stats.extra
