"""Modeled k-server replay with Seed reordering and idle drain.

:class:`SeedAwareQueueSimulator` is the modeled front-end of the shared
:class:`~repro.queueing.scheduler.VirtualTimeScheduler` that also runs
:class:`~repro.core.system.QuotaSystem`: service durations come from
the caller's ``service_fn`` (a cost model), while updates *do* mutate
the supplied graph so Seed's degree-dependent bookkeeping tracks the
true structure, exactly as in a measured run.  Modeled and measured
runs of one workload are therefore directly comparable (see
docs/DEVELOPMENT.md, "One scheduling core").

Single-writer approximation: in the measured runtime, updates and
flushes serialize through one writer and briefly exclude readers; here
a flush occupies only the server that triggered it.  The approximation
is documented rather than modeled — it biases the simulation slightly
optimistic under heavy update traffic.
"""

from __future__ import annotations

from repro.cache.staleness import ReplayCache
from repro.core.seed import SeedQueue
from repro.graph.digraph import DynamicGraph
from repro.queueing.scheduler import (
    ApplyFn,
    ModeledService,
    ServiceFn,
    SimulationResult,
    VirtualTimeScheduler,
)
from repro.queueing.workload import Request, Workload


class SeedAwareQueueSimulator:
    """Discrete-event replay: k FCFS servers + Seed reordering + drain.

    Parameters
    ----------
    service_fn:
        Maps a request to its *modeled* service duration in virtual
        seconds.  Flushed updates are charged through the same
        function (one call per flushed update), so query/update/flush
        costs stay mutually consistent.
    graph:
        The live graph; updates mutate it (structure is real, time is
        modeled) so the Seed bound sees true degrees.
    alpha, epsilon_r:
        Seed parameters; ``epsilon_r = 0`` restores strict FCFS and
        makes ``servers=1`` runs coincide with
        :class:`~repro.queueing.simulator.FCFSQueueSimulator`.
    servers:
        Number of modeled servers (k of the parallel-serving bench).
    apply_update:
        Override for how an update is executed (default: toggle the
        edge on ``graph``).  An index-based algorithm's
        ``apply_update`` can be passed to keep its index in sync.
    cache:
        Optional :class:`~repro.cache.ReplayCache` reproducing the
        serving runtime's hit/miss mixture: a query that hits is
        charged ``cache.hit_service_s`` and skips the Seed flush
        check (its staleness budget covers applied updates; deferred
        ones are invisible to a fresh recompute too); a miss runs
        normally and is admitted.  Every applied update — direct,
        idle-drained, or flushed — charges the cache's staleness
        tracker right after mutating the graph.
    """

    def __init__(
        self,
        service_fn: ServiceFn,
        graph: DynamicGraph,
        alpha: float = 0.2,
        epsilon_r: float = 0.0,
        servers: int = 1,
        apply_update: ApplyFn | None = None,
        cache: ReplayCache | None = None,
    ) -> None:
        if servers < 1:
            raise ValueError("servers must be >= 1")
        self._graph = graph
        self._alpha = alpha
        self._epsilon_r = epsilon_r
        self._servers = servers
        self._source = ModeledService(
            service_fn,
            apply_update
            if apply_update is not None
            else lambda update: update.apply(graph),
            cache,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        workload: Workload | list[Request],
        t_end: float | None = None,
    ) -> SimulationResult:
        """Replay ``workload`` through the modeled Seed-aware servers."""
        return VirtualTimeScheduler(
            self._source,
            servers=self._servers,
            seed_queue=SeedQueue(self._graph, self._alpha, self._epsilon_r),
        ).run(workload, t_end)


__all__ = ["SeedAwareQueueSimulator"]
