"""SpeedPPR and SpeedPPR+ (Wu et al., SIGMOD 2021).

SpeedPPR unifies the *global* approach (whole-graph power iteration)
with the *local* one (forward push): it runs vectorized power-iteration
sweeps — which act like a simultaneous push on every node — until the
total residue drops below ``r_max * m``, then hands the remaining
residues to the random-walk estimator.

Query cost ~ m * log(1 / (r_max m)) + m * r_max * W, the Table I form
``log(1/(r_max m)) tau_1 + r_max tau_2`` once the graph-size factors are
folded into the constants.

* :class:`SpeedPPR` — index-free; O(1)-ish updates (``tau_3``).
* :class:`SpeedPPRPlus` — walk index; update regenerates the index
  (``r_max * tau_3``).

The power phase runs :func:`repro.ppr.kernels.power_phase`:
gather/scatter sweeps over the raw (possibly slack) CSR rows, so a
graph delta never forces a packed transition-matrix rebuild.  The
``engine`` choice does not change it; batches loop single queries.
"""

from __future__ import annotations

import math

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
from repro.ppr.kernels import ENGINES, power_phase
from repro.ppr.pushwalk import add_walk_estimates
from repro.ppr.random_walk import WalkIndex


class SpeedPPR(DynamicPPRAlgorithm):
    """Index-free SpeedPPR (PowerPush + online walks).

    Hyperparameters
    ---------------
    r_max:
        Residue-sum stopping threshold of the power-iteration phase,
        expressed per edge: sweeps stop once sum(residue) <= r_max * m.
    """

    name = "SpeedPPR"
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
        """Default that balances sweeps against walks: 1/sqrt(m W)."""
        view = self.view
        w = self._num_walks()
        m = max(view.m, 1)
        return clip_unit(1.0 / math.sqrt(m * w))

    def default_hyperparameters(self) -> dict[str, float]:
        return {"r_max": self.default_r_max()}

    def _num_walks(self) -> int:
        """SpeedPPR's W = 2 (2 eps/3 + 2) log(n) / (eps^2 delta), capped."""
        n = max(self.view.n, 2)
        params = self.params
        delta = params.resolved_delta(n)
        w = 2 * (2 * params.epsilon / 3 + 2) * math.log(n) / (
            params.epsilon**2 * delta
        )
        return max(1, min(int(math.ceil(w)), params.walk_cap))

    # ------------------------------------------------------------------
    def query(self, source: int) -> PPRVector:
        view = self.view
        stats = QueryStats()
        alpha = self.params.alpha
        stop_mass = min(self.r_max * max(view.m, 1), 0.999)
        with self.timers.measure("Power Iteration"):
            residue = np.zeros(view.n, dtype=np.float64)
            residue[view.to_index(source)] = 1.0
            reserve = np.zeros(view.n, dtype=np.float64)
            reserve, residue, sweeps = power_phase(
                view, residue, reserve, alpha, stop_mass
            )
            stats.extra["sweeps"] = sweeps
        with self.timers.measure("Random Walk"):
            walk = add_walk_estimates(
                view,
                reserve,
                residue,
                alpha,
                self._num_walks(),
                self._rng,
                index=self._walk_index(),
            )
            stats.walks = walk.num_walks
        self.last_query_stats = stats
        return PPRVector(reserve, view, source)

    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        with self.timers.measure("Graph Update"):
            resolved = update.apply(self.graph)
            self.view  # refresh snapshot within the update cost
        return resolved

    def _walk_index(self) -> WalkIndex | None:
        return None


class SpeedPPRPlus(SpeedPPR):
    """Index-based SpeedPPR+ — precomputed walks, maintained per update.

    ``index_maintenance`` selects "rebuild" (the paper's full
    regeneration, the default and test oracle) or "incremental"
    (FIRM-style affected-walk resampling, :mod:`repro.ppr.incremental`).
    """

    name = "SpeedPPR+"
    is_index_based = True

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        engine: str = "frontier",
        index_maintenance: str = "rebuild",
    ) -> None:
        from repro.ppr.fora import INDEX_MAINTENANCE_MODES

        if index_maintenance not in INDEX_MAINTENANCE_MODES:
            raise ValueError(
                f"index_maintenance must be one of "
                f"{INDEX_MAINTENANCE_MODES}, got {index_maintenance!r}"
            )
        self.index_maintenance = index_maintenance
        super().__init__(graph, params, r_max, engine)
        self._index: WalkIndex | None = None
        self._ensure_index()

    def _walks_per_unit(self) -> float:
        return self.r_max * self._num_walks()

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
        # version-keyed (not view identity): compaction must not force
        # an index rebuild — see ForaPlus._ensure_index.
        if (
            self._index is None
            or self._index.view.version != self.view.version
        ):
            self._build_index()

    def _on_hyperparameters_changed(self) -> None:
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
            self._index = WalkIndex(
                self.view, self.params.alpha, self._walks_per_unit(), self._rng
            )
        return resolved


class SpeedPPRPlusIncremental(SpeedPPRPlus):
    """SpeedPPR+ with incremental walk-index maintenance by default."""

    name = "SpeedPPR+inc"

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        engine: str = "frontier",
        index_maintenance: str = "incremental",
    ) -> None:
        super().__init__(graph, params, r_max, engine, index_maintenance)
