"""One virtual-time scheduling core behind every replay front-end.

:class:`VirtualTimeScheduler` runs the paper's serving loop — FCFS
arrivals, Seed deferral (Algorithm 2), a forced flush once a query's
Lemma 2 bound passes ``epsilon_r``, idle-time draining — on ``k``
servers.  :class:`~repro.queueing.simulator.FCFSQueueSimulator` and
:class:`~repro.queueing.seed_simulator.SeedAwareQueueSimulator` drive
it with :class:`ModeledService`; :meth:`repro.core.system.QuotaSystem.process`
with measured service.  docs/DEVELOPMENT.md ("One scheduling core")
states the service-source contract and the flush charging rule.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np
from numpy.typing import NDArray

from repro.cache.staleness import ReplayCache
from repro.graph.updates import EdgeUpdate
from repro.obs import MetricsRegistry
from repro.queueing.workload import QUERY, UPDATE, Request, Workload

if TYPE_CHECKING:  # runtime import would cycle: repro.core imports us
    from repro.core.seed import PendingUpdate, SeedQueue


@dataclass(frozen=True, slots=True)
class CompletedRequest:
    """A request with its simulated timing."""

    request: Request
    start: float
    finish: float
    service: float

    @property
    def arrival(self) -> float:
        return self.request.arrival

    @property
    def kind(self) -> str:
        return self.request.kind

    @property
    def waiting_time(self) -> float:
        return self.start - self.request.arrival

    @property
    def response_time(self) -> float:
        return self.finish - self.request.arrival


class SimulationResult:
    """Aggregated outcome of one simulated workload replay."""

    def __init__(self, completed: list[CompletedRequest], t_end: float) -> None:
        self.completed = completed
        self.t_end = t_end

    def __len__(self) -> int:
        return len(self.completed)

    def of_kind(self, kind: str) -> list[CompletedRequest]:
        return [c for c in self.completed if c.kind == kind]

    def query_response_times(self) -> NDArray[np.float64]:
        return np.array(
            [c.response_time for c in self.completed if c.kind == QUERY],
            dtype=np.float64,
        )

    def mean_query_response_time(self) -> float:
        """The paper's headline metric R_q."""
        times = self.query_response_times()
        return float(times.mean()) if times.size else 0.0

    def percentile_query_response_time(self, q: float) -> float:
        """Response-time percentile of the queries.

        ``q`` is on the 0-100 scale (``99`` is the p99, matching
        ``np.percentile``).  Values in the open interval (0, 1) are
        rejected: they almost always mean the caller passed a fraction
        (``0.99``) where a percentage was intended, which would silently
        return roughly the *minimum* instead of the tail.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if 0.0 < q < 1.0:
            raise ValueError(
                f"q={q} looks like a fraction; percentiles are on the "
                f"0-100 scale (use {q * 100:g} for the p{q * 100:g})"
            )
        times = self.query_response_times()
        return float(np.percentile(times, q)) if times.size else 0.0

    def mean_service_time(self, kind: str) -> float:
        services = [c.service for c in self.completed if c.kind == kind]
        return float(np.mean(services)) if services else 0.0

    def total_busy_time(self) -> float:
        return float(sum(c.service for c in self.completed))

    @property
    def horizon(self) -> float:
        """Virtual-time span the load metrics are normalized by.

        The workload window ``t_end`` extended to the last completion:
        the server may legitimately stay busy past the arrival window,
        and dividing busy time by a span shorter than the work it
        contains would report rho > 1 for an underloaded system.  Both
        :meth:`utilization` and :meth:`empirical_load` use this same
        denominator.
        """
        if not self.completed:
            return self.t_end
        return max(self.t_end, max(c.finish for c in self.completed))

    def utilization(self) -> float:
        """Fraction of virtual time the server was busy."""
        if not self.completed:
            return 0.0
        horizon = self.horizon
        return self.total_busy_time() / horizon if horizon > 0 else 0.0

    def empirical_load(self) -> float:
        """lambda_q t_q + lambda_u t_u estimated from the replay.

        Shares :attr:`horizon` with :meth:`utilization` so the two
        never disagree about the denominator.
        """
        horizon = self.horizon
        if horizon <= 0:
            return 0.0
        return self.total_busy_time() / horizon


ServiceFn = Callable[[Request], float]
ApplyFn = Callable[[EdgeUpdate], EdgeUpdate]
#: ``(request, earliest server free time) -> its new free time``
ArrivalHook = Callable[[Request, float], float]


def validate_service(service: float, request: Request) -> float:
    """Reject negative / NaN / infinite service durations.

    The seed implementation only rejected ``service < 0``; a NaN or
    inf (a cost model dividing by a zero rate, an uninitialized probe)
    passed the check and silently poisoned every later finish time and
    all derived metrics — NaN compares false against everything, so
    the Lindley recursion never noticed.
    """
    if service < 0 or not math.isfinite(service):
        raise ValueError(
            f"service_fn returned invalid duration {service!r} "
            f"for request {request!r}"
        )
    return service


class ServiceSource(Protocol):
    """Runs or models one operation and returns its service time.

    ``hit`` answers a query from the cache (None on a miss), ``query``
    computes a miss, ``update`` applies an update now, and ``deferred``
    applies the head of a non-empty Seed queue via ``flush_one``.
    """

    def hit(self, request: Request) -> float | None: ...

    def query(self, request: Request) -> float: ...

    def update(self, request: Request) -> float: ...

    def deferred(self, queue: SeedQueue) -> tuple[PendingUpdate, float]: ...


def deferred_request(item: PendingUpdate) -> Request:
    """The update request a deferred item completes as."""
    return Request(item.arrival, UPDATE, update=item.update)


class ModeledService:
    """Durations from ``service_fn``; structure from an optional apply.

    A duration is taken before its update is applied.  ``cache``
    mirrors the runtime's hit/miss mixture: a hit costs
    ``cache.hit_service_s`` and skips ``service_fn``, a miss is
    admitted at its cost, and every update charges the cache with what
    ``apply`` returned (the raw update when there is no apply).
    """

    __slots__ = ("_service_fn", "_apply", "_cache")

    def __init__(
        self,
        service_fn: ServiceFn,
        apply: ApplyFn | None = None,
        cache: ReplayCache | None = None,
    ) -> None:
        self._service_fn = service_fn
        self._apply = apply
        self._cache = cache

    def _service(self, request: Request) -> float:
        return validate_service(float(self._service_fn(request)), request)

    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        """Apply plus cache charge (the ``UpdateApplier`` of a flush)."""
        resolved = update if self._apply is None else self._apply(update)
        if self._cache is not None:
            self._cache.on_update(resolved)
        return resolved

    def hit(self, request: Request) -> float | None:
        cache = self._cache
        if cache is None or request.source is None:
            return None
        return cache.hit_service_s if cache.hit(request.source) else None

    def query(self, request: Request) -> float:
        service = self._service(request)
        if self._cache is not None and request.source is not None:
            self._cache.admit(request.source, cost_s=service)
        return service

    def update(self, request: Request) -> float:
        service = self._service(request)
        if request.update is not None:
            self.apply_update(request.update)
        return service

    def deferred(self, queue: SeedQueue) -> tuple[PendingUpdate, float]:
        head = queue.peek()
        assert head is not None  # callers check the queue first
        service = self._service(deferred_request(head))
        queue.flush_one(self)
        return head, service


class VirtualTimeScheduler:
    """Arrival → idle drain → Seed defer → cache hit → flush → serve.

    Each executed request takes the earliest-free of ``servers``
    servers: for one server, the Lindley recursion.  Updates are
    deferred into ``seed_queue`` when its ``epsilon_r > 0``; without
    one the replay is strict FCFS.  ``on_arrival`` runs first on every
    arrival.  ``metrics``, when given, receives ``service.query`` /
    ``service.query_hit`` / ``service.update`` per operation and one
    ``service.flush`` (the total) per forced flush or final drain.
    """

    def __init__(
        self,
        source: ServiceSource,
        servers: int = 1,
        seed_queue: SeedQueue | None = None,
        on_arrival: ArrivalHook | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if servers < 1:
            raise ValueError("servers must be >= 1")
        self._source = source
        self._servers = servers
        self._queue = seed_queue
        self._on_arrival = on_arrival
        self._metrics = metrics

    def run(
        self,
        workload: Workload | Iterable[Request],
        t_end: float | None = None,
    ) -> SimulationResult:
        """Replay ``workload`` in arrival order.

        The horizon is ``t_end``, else the workload window; a bare
        iterable without ``t_end`` spans its last arrival or completion,
        whichever is later (service may run past the last arrival).
        """
        if isinstance(workload, Workload):
            requests = workload.requests
            horizon = workload.t_end if t_end is None else t_end
        else:
            requests = sorted(workload, key=lambda r: r.arrival)
            horizon = t_end
        source, queue = self._source, self._queue
        defer = queue is not None and queue.epsilon_r > 0.0
        completed: list[CompletedRequest] = []
        free_at = [0.0] * self._servers  # a valid min-heap as built

        def serve(request: Request, start: float, service: float) -> float:
            completed.append(
                CompletedRequest(request, start, start + service, service)
            )
            return start + service

        def flush(start: float) -> float:
            # the sequential rule: back to back, each at its own cost
            clock = start
            while queue is not None and len(queue):
                item, service = source.deferred(queue)
                clock = serve(deferred_request(item), clock, service)
            self._observe("service.flush", clock - start)
            return clock

        for request in requests:
            if self._on_arrival is not None:
                heapq.heapreplace(
                    free_at, self._on_arrival(request, free_at[0])
                )
            # idle servers drain deferred updates, so deferral steals
            # time from queries only under contention (Lemma 3)
            while queue is not None and len(queue) and (
                free_at[0] < request.arrival
            ):
                item, service = source.deferred(queue)
                self._observe("service.update", service)
                start = max(heapq.heappop(free_at), item.arrival)
                heapq.heappush(
                    free_at, serve(deferred_request(item), start, service)
                )
            if request.kind == UPDATE and defer:
                assert queue is not None and request.update is not None
                queue.add(request.update, request.arrival)
                continue
            start = max(request.arrival, heapq.heappop(free_at))
            if request.kind == UPDATE:
                service = source.update(request)
                self._observe("service.update", service)
            elif (hit := source.hit(request)) is not None:
                # a hit skips the flush check: epsilon_c covers applied
                # updates, and a recompute would not see deferred ones
                service = hit
                self._observe("service.query_hit", service)
            else:
                assert request.source is not None  # QUERY carries one
                if queue is not None and len(queue) and queue.should_flush(
                    request.source
                ):
                    start = flush(start)
                service = source.query(request)
                self._observe("service.query", service)
            heapq.heappush(free_at, serve(request, start, service))

        if queue is not None and len(queue):
            # the final drain, once the last pending update has arrived
            flush(max(free_at[0], max(p.arrival for p in queue.pending)))
        completed.sort(key=lambda c: (c.start, c.arrival))
        if horizon is None:
            last_arrival = requests[-1].arrival if requests else 0.0
            last_finish = max((c.finish for c in completed), default=0.0)
            horizon = max(last_arrival, last_finish)
        return SimulationResult(completed, horizon)

    def _observe(self, name: str, seconds: float) -> None:
        if self._metrics is not None:
            self._metrics.histogram(name).observe(seconds)


__all__ = [
    "ArrivalHook",
    "CompletedRequest",
    "ModeledService",
    "ServiceSource",
    "SimulationResult",
    "VirtualTimeScheduler",
    "validate_service",
]
