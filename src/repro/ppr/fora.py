"""FORA and FORA+ (Wang et al., KDD 2017) adapted to dynamic graphs.

Both answer SSPPR queries with the Push+Walk framework: forward push
with threshold ``r_max`` followed by K-scaled random walks on the
remaining residues.

* :class:`Fora` (index-free) simulates walks online; an edge update only
  mutates the graph, so its update cost is a small constant — the
  ``t_u = tau_3`` row of Table I.
* :class:`ForaPlus` (index-based) reads walk terminals from a
  precomputed :class:`~repro.ppr.random_walk.WalkIndex`; an edge update
  must regenerate the index (O(m r_max K) walks) — the
  ``t_u = r_max * tau_3`` row of Table I.

The paper's default threshold r_max = 1/sqrt(alpha m K) equalizes the
two complexity terms; Quota's whole point is that this is generally
*not* the response-time optimum.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import (
    DynamicPPRAlgorithm,
    PPRParams,
    PPRVector,
    QueryStats,
    clip_unit,
)
from repro.ppr.forward_push import forward_push
from repro.ppr.kernels import ENGINES, chunked_batch_push, push_batch_size
from repro.ppr.pushwalk import add_walk_estimates, add_walk_estimates_batch
from repro.ppr.random_walk import WalkIndex


class Fora(DynamicPPRAlgorithm):
    """Index-free FORA.

    Hyperparameters
    ---------------
    r_max:
        Forward-push threshold; smaller means more push work and fewer
        walks.  Default 1/sqrt(alpha m K).
    """

    name = "FORA"
    is_index_based = False
    hyperparameter_names = ("r_max",)
    supported_engines = ENGINES

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        engine: str = "frontier",
    ) -> None:
        super().__init__(graph, params)
        self.r_max = r_max if r_max is not None else self.default_r_max()
        self.set_engine(engine)

    def default_r_max(self) -> float:
        """The paper's complexity-balancing default 1/sqrt(alpha m K)."""
        view = self.view
        k = self.params.num_walks(view.n)
        m = max(view.m, 1)
        return clip_unit(1.0 / math.sqrt(self.params.alpha * m * k))

    def default_hyperparameters(self) -> dict[str, float]:
        return {"r_max": self.default_r_max()}

    # ------------------------------------------------------------------
    def query(self, source: int) -> PPRVector:
        view = self.view
        stats = QueryStats()
        with self.timers.measure("Forward Push"):
            push = forward_push(
                view,
                view.to_index(source),
                self.params.alpha,
                self.r_max,
                engine=self.engine,
            )
            stats.pushes = push.pushes
        with self.timers.measure("Random Walk"):
            walk = add_walk_estimates(
                view,
                push.reserve,
                push.residue,
                self.params.alpha,
                self.params.num_walks(view.n),
                self._rng,
                index=self._walk_index(),
            )
            stats.walks = walk.num_walks
        self.last_query_stats = stats
        return PPRVector(push.reserve, view, source)

    def query_batch(self, sources: Sequence[int]) -> list[PPRVector]:
        """Same-snapshot batch through the batched push kernel.

        With the ``frontier`` engine the push runs as locality-sorted
        cache-resident sub-batches sized by
        :func:`~repro.ppr.kernels.push_batch_size`, or falls back to
        per-source queries when batching cannot win.  Every split is
        bit-for-bit result-invariant: each batched row equals its
        single-source frontier push.
        """
        view = self.view
        alpha = self.params.alpha
        b_eff = push_batch_size(view.n, len(sources), alpha, self.r_max)
        if self.engine != "frontier" or b_eff == 1:
            return super().query_batch(sources)
        source_indices = np.array(
            [view.to_index(s) for s in sources], dtype=np.int64
        )
        stats = QueryStats()
        with self.timers.measure("Forward Push"):
            push = chunked_batch_push(
                view, source_indices, alpha, self.r_max, b_eff
            )
            stats.pushes = push.pushes
        with self.timers.measure("Random Walk"):
            walk = add_walk_estimates_batch(
                view,
                push.reserve,
                push.residue,
                alpha,
                self.params.num_walks(view.n),
                self._rng,
                index=self._walk_index(),
            )
            stats.walks = walk.num_walks
        stats.extra["batch_size"] = len(sources)
        stats.extra["effective_batch"] = b_eff
        stats.extra["sweeps"] = push.sweeps
        self.last_query_stats = stats
        return [
            PPRVector(push.reserve[b], view, source)
            for b, source in enumerate(sources)
        ]

    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        with self.timers.measure("Graph Update"):
            resolved = update.apply(self.graph)
            self.view  # refresh the CSR snapshot inside the update cost
        return resolved

    def _walk_index(self) -> WalkIndex | None:
        """Index-free FORA samples online."""
        return None


#: valid WalkIndex maintenance policies for the index-based methods
INDEX_MAINTENANCE_MODES = ("rebuild", "incremental")


class ForaPlus(Fora):
    """Index-based FORA+ — fast queries, index maintained per update.

    ``index_maintenance`` selects the update policy:

    * ``"rebuild"`` (default) — regenerate the whole walk index on the
      new snapshot, the paper's O(m r_max K) update cost.  This is the
      distributional oracle the incremental path is tested against.
    * ``"incremental"`` — FIRM-style suffix resampling of only the
      walks the edge mutation affects (:mod:`repro.ppr.incremental`),
      charged through ``ForaPlusIncrementalCostModel``.
    """

    name = "FORA+"
    is_index_based = True

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        engine: str = "frontier",
        index_maintenance: str = "rebuild",
    ) -> None:
        if index_maintenance not in INDEX_MAINTENANCE_MODES:
            raise ValueError(
                f"index_maintenance must be one of "
                f"{INDEX_MAINTENANCE_MODES}, got {index_maintenance!r}"
            )
        self.index_maintenance = index_maintenance
        super().__init__(graph, params, r_max, engine)
        self._index: WalkIndex | None = None
        self._ensure_index()

    @property
    def index(self) -> WalkIndex:
        self._ensure_index()
        return self._index

    def _walks_per_unit(self) -> float:
        view = self.view
        return self.r_max * self.params.num_walks(view.n)

    def _build_index(self) -> None:
        with self.timers.measure("Index Build"):
            self._index = WalkIndex(
                self.view,
                self.params.alpha,
                self._walks_per_unit(),
                self._rng,
                track_edges=self.index_maintenance == "incremental",
            )

    def _ensure_index(self) -> None:
        # keyed on the snapshot *version*, not view object identity: a
        # slack-slot compaction yields a fresh view object at the same
        # version and must not trigger an O(m r_max K) rebuild.
        if (
            self._index is None
            or self._index.view.version != self.view.version
        ):
            self._build_index()

    def _on_hyperparameters_changed(self) -> None:
        """Changing r_max changes the index budget; rebuild it."""
        self._build_index()

    def _walk_index(self) -> WalkIndex:
        self._ensure_index()
        return self._index

    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        if self.index_maintenance == "incremental" and self._index is not None:
            with self.timers.measure("Graph Update"):
                resolved = update.apply(self.graph)
                view = self.view
            with self.timers.measure("Index Update"):
                # resample only the affected walks; runs inside the
                # caller's writer critical section (serving runtime)
                self._index.apply_edge_update(
                    view,
                    view.to_index(resolved.u),
                    view.to_index(resolved.v),
                    resolved.kind,
                )
            return resolved
        with self.timers.measure("Graph Update"):
            resolved = update.apply(self.graph)
        with self.timers.measure("Index Build"):
            # rebuild policy: regenerate the walk index on the new
            # snapshot (the O(m r_max K) update cost).
            self._index = WalkIndex(
                self.view, self.params.alpha, self._walks_per_unit(), self._rng
            )
        return resolved


class ForaPlusIncremental(ForaPlus):
    """FORA+ with incremental walk-index maintenance by default.

    Registered as its own algorithm ("FORA+inc") so the Quota
    optimizer can weigh its much smaller t̃_u against plain FORA+ and
    the index-free methods.
    """

    name = "FORA+inc"

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        engine: str = "frontier",
        index_maintenance: str = "incremental",
    ) -> None:
        super().__init__(graph, params, r_max, engine, index_maintenance)
