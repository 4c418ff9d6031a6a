"""QuotaSystem: the end-to-end serving loop (Algorithm 2 + simulator).

Glues everything together: a base PPR algorithm, the Quota controller
(optional — omit it to replay the algorithm at its default setting, the
paper's baselines), the Seed reordering queue (epsilon_r > 0), online
arrival-rate monitoring with periodic re-optimization, and the
virtual-time FCFS clock of the shared
:class:`~repro.queueing.scheduler.VirtualTimeScheduler`.

Timing model (the DESIGN.md substitution): the server's virtual clock
advances by the *measured wall time* of each executed operation —
query, update, each flushed deferred update, and (optionally)
reconfiguration work such as index rebuilds triggered by a
hyperparameter change.  Response time of a query = (virtual
completion) - (virtual arrival), matching the paper's R_q.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TypeVar, cast

from repro.cache import (
    VECTOR,
    CacheKey,
    ChargingApplier,
    PPRCache,
    StalenessTracker,
    make_key,
)
from repro.core.quota import QuotaController, QuotaDecision
from repro.core.seed import PendingUpdate, SeedQueue, UpdateApplier
from repro.obs import MetricsRegistry, get_metrics
from repro.ppr.base import DynamicPPRAlgorithm, PPRVector
from repro.queueing.scheduler import SimulationResult, VirtualTimeScheduler
from repro.queueing.workload import QUERY, Request, Workload

if TYPE_CHECKING:  # runtime import stays lazy (serving imports core)
    from repro.serving.runtime import ServingRuntime

QueryCallback = Callable[[Request, PPRVector, int], None]

_T = TypeVar("_T")


@dataclass(slots=True)
class RateEstimator:
    """Sliding-window arrival-rate monitor (Section VIII-D: "we
    continuously monitor the rates")."""

    window: float = 10.0
    _queries: deque[float] = field(default_factory=deque)
    _updates: deque[float] = field(default_factory=deque)

    def observe(self, kind: str, arrival: float) -> None:
        store = self._queries if kind == QUERY else self._updates
        store.append(arrival)
        self._evict(arrival)

    def _evict(self, now: float) -> None:
        horizon = now - self.window
        for store in (self._queries, self._updates):
            while store and store[0] < horizon:
                store.popleft()

    def rates(self, now: float) -> tuple[float, float]:
        """Estimated (lambda_q, lambda_u) over the trailing window."""
        self._evict(now)
        span = min(self.window, max(now, 1e-9))
        return len(self._queries) / span, len(self._updates) / span

    @property
    def observed(self) -> int:
        """Events currently inside the trailing window."""
        return len(self._queries) + len(self._updates)


@dataclass(slots=True)
class RateDriftDetector:
    """Flags when the *observed* rates drift from the *configured* pair.

    The online re-optimization loop (ROADMAP "scenario fuzzing at
    production scale"): a serving stack configured for
    ``(lambda_q, lambda_u)`` keeps monitoring the empirical arrival
    rates over a sliding window; once either rate drifts past
    ``threshold`` (relative), :meth:`check` returns the monitored pair
    so the caller can re-run the Quota controller — through
    :meth:`QuotaSystem._maybe_reoptimize` on the virtual clock, or
    :meth:`repro.serving.ServingRuntime.reconfigure` on the measured
    one — and :meth:`rearm` the detector at the new configuration.

    ``min_events`` guards the cold window: a handful of arrivals says
    nothing about the rate, and re-solving on noise would thrash the
    controller (every re-configuration is an index rebuild for the
    index-based algorithms).
    """

    configured_q: float
    configured_u: float
    window: float = 5.0
    threshold: float = 0.5
    min_events: int = 20
    estimator: RateEstimator = field(default_factory=RateEstimator)

    def __post_init__(self) -> None:
        if self.configured_q < 0 or self.configured_u < 0:
            raise ValueError("configured rates must be non-negative")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        self.estimator.window = self.window

    def observe(self, kind: str, arrival: float) -> None:
        self.estimator.observe(kind, arrival)

    def _drifted(self, observed: float, configured: float) -> bool:
        if configured <= 0:
            return observed > 0
        return abs(observed - configured) / configured > self.threshold

    def check(self, now: float) -> tuple[float, float] | None:
        """Monitored (lambda_q, lambda_u) when drifted, else None."""
        if self.estimator.observed < self.min_events:
            return None
        lambda_q, lambda_u = self.estimator.rates(now)
        if self._drifted(lambda_q, self.configured_q) or self._drifted(
            lambda_u, self.configured_u
        ):
            return lambda_q, lambda_u
        return None

    def rearm(self, lambda_q: float, lambda_u: float) -> None:
        """Accept the new configuration as the drift baseline."""
        self.configured_q = lambda_q
        self.configured_u = lambda_u


class QuotaSystem:
    """Serves an interleaved query/update workload on a virtual clock.

    Parameters
    ----------
    algorithm:
        The base PPR algorithm instance (owns the graph).
    controller:
        Quota controller; None replays the algorithm as-is (baseline).
    epsilon_r:
        Seed reorder threshold; 0 keeps strict FCFS (no reordering).
    reoptimize_every:
        Re-run the controller every this many virtual seconds using the
        monitored rates; None configures only when
        :meth:`configure_static` is called.
    rate_window:
        Sliding-window length (virtual seconds) of the rate monitor.
    charge_solve:
        Charge the controller's solve time to the virtual server clock.
        Default False: the search runs out-of-band (a side thread in a
        real deployment; the paper's Table IV reports it separately
        from serving).
    charge_apply:
        Charge the cost of *applying* a new beta — an index rebuild for
        index-based algorithms — to the server clock.  Default True:
        the index is shared state the server must rebuild in-line.
    cache:
        Optional :class:`~repro.cache.PPRCache`.  Queries look up
        before computing (a hit costs only the measured lookup time on
        the virtual clock and skips the Seed flush check — the budget
        ``epsilon_c`` already covers every applied update) and insert
        after computing; every update-application path charges the
        staleness tracker immediately, via a
        :class:`~repro.cache.ChargingApplier` on the flush paths so a
        batch flush charges each update against the degrees it saw.
    metrics:
        Observability registry receiving the per-operation service-time
        histograms (``service.query`` / ``service.update`` /
        ``service.flush`` / ``service.reconfigure``) that let reports
        attribute time to sub-processes as the paper's Table I does.
        Defaults to the process-wide registry from
        :func:`repro.obs.get_metrics`.
    """

    def __init__(
        self,
        algorithm: DynamicPPRAlgorithm,
        controller: QuotaController | None = None,
        epsilon_r: float = 0.0,
        reoptimize_every: float | None = None,
        rate_window: float = 10.0,
        charge_solve: bool = False,
        charge_apply: bool = True,
        rate_change_threshold: float = 0.15,
        beta_change_threshold: float = 0.10,
        cache: PPRCache | None = None,
        metrics: MetricsRegistry | None = None,
        drift_detector: RateDriftDetector | None = None,
    ) -> None:
        if reoptimize_every is not None and reoptimize_every <= 0:
            raise ValueError("reoptimize_every must be positive")
        self.algorithm = algorithm
        self.controller = controller
        self.epsilon_r = epsilon_r
        self.reoptimize_every = reoptimize_every
        self.drift_detector = drift_detector
        self.rate_estimator = RateEstimator(window=rate_window)
        self.charge_solve = charge_solve
        self.charge_apply = charge_apply
        # hysteresis for the online loop: skip re-solving when the
        # monitored rates barely moved, and skip re-applying beta (an
        # index rebuild for index-based algorithms) when the solution
        # barely moved
        self.rate_change_threshold = rate_change_threshold
        self.beta_change_threshold = beta_change_threshold
        self.cache = cache
        # every apply path charges the cache against the degrees the
        # update actually saw (not post-flush degrees)
        self._applier: UpdateApplier = (
            ChargingApplier(
                algorithm,
                StalenessTracker(
                    cache, algorithm.graph, algorithm.params.alpha
                ),
            )
            if cache is not None
            else algorithm
        )
        self.metrics = metrics if metrics is not None else get_metrics()
        self.decisions: list[QuotaDecision] = []
        self._last_reoptimize = 0.0
        self._configured_rates: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    def configure_static(
        self, lambda_q: float, lambda_u: float
    ) -> QuotaDecision | None:
        """One-shot configuration for known rates (the Figure 3 mode)."""
        if self.controller is None:
            return None
        decision = self.controller.configure(lambda_q, lambda_u)
        self.algorithm.set_hyperparameters(**decision.beta)
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    def make_runtime(
        self,
        workers: int = 2,
        queue_capacity: int = 256,
        deadline_s: float | None = None,
        drain_idle: bool = True,
        max_batch: int = 1,
        batch_window_s: float = 0.0,
    ) -> "ServingRuntime":
        """Build a live :class:`~repro.serving.ServingRuntime` sharing
        this system's algorithm, controller, Seed budget, and metrics.

        ``process`` replays a workload on a virtual clock; the runtime
        returned here executes the same policy — Seed-aware dispatch,
        idle draining, Quota reconfiguration — on real threads, so a
        ``configure_static`` decision made here drives measured
        serving directly.
        """
        from repro.serving.runtime import ServingRuntime

        return ServingRuntime(
            self.algorithm,
            workers=workers,
            epsilon_r=self.epsilon_r,
            queue_capacity=queue_capacity,
            deadline_s=deadline_s,
            controller=self.controller,
            drain_idle=drain_idle,
            max_batch=max_batch,
            batch_window_s=batch_window_s,
            cache=self.cache,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    def process(
        self,
        workload: Workload,
        query_callback: QueryCallback | None = None,
    ) -> SimulationResult:
        """Replay ``workload`` in arrival order; returns timed results.

        ``query_callback(request, estimate, pending_updates)`` fires
        after every query with the PPR estimate and the number of
        not-yet-applied (Seed-deferred) updates — the hook the accuracy
        experiments use.
        """
        seed_queue = SeedQueue(
            self.algorithm.graph, self.algorithm.params.alpha, self.epsilon_r
        )
        self._last_reoptimize = 0.0
        return VirtualTimeScheduler(
            _MeasuredService(self, seed_queue, query_callback),
            seed_queue=seed_queue,
            on_arrival=self._on_arrival,
            metrics=self.metrics,
        ).run(workload)

    def _on_arrival(self, request: Request, server_free: float) -> float:
        """Rate monitoring plus any charged online reconfiguration."""
        self.rate_estimator.observe(request.kind, request.arrival)
        if self.drift_detector is not None:
            self.drift_detector.observe(request.kind, request.arrival)
        return self._maybe_reoptimize(request.arrival, server_free)

    def _maybe_reoptimize(self, now: float, server_free: float) -> float:
        """Online reconfiguration from monitored rates.

        Two trigger modes: the paper's fixed-period loop
        (``reoptimize_every``) with rate-change hysteresis, or — when a
        :class:`RateDriftDetector` is attached — event-driven
        re-configuration the moment the monitored rates drift past the
        detector's threshold (the ROADMAP online re-optimization loop).
        """
        if self.controller is None:
            return server_free
        if self.drift_detector is not None:
            drifted = self.drift_detector.check(now)
            if drifted is None:
                return server_free
            lambda_q, lambda_u = drifted
            if lambda_q <= 0:
                return server_free
            self.drift_detector.rearm(lambda_q, lambda_u)
        else:
            if self.reoptimize_every is None:
                return server_free
            if now - self._last_reoptimize < self.reoptimize_every:
                return server_free
            self._last_reoptimize = now
            lambda_q, lambda_u = self.rate_estimator.rates(now)
            if lambda_q <= 0:
                return server_free
            if self._configured_rates is not None and not self._rates_moved(
                lambda_q, lambda_u
            ):
                return server_free

        current = self.algorithm.get_hyperparameters()
        decision = self.controller.configure(
            lambda_q, lambda_u, warm_start=current, quick=True
        )
        self._configured_rates = (lambda_q, lambda_u)
        self.decisions.append(decision)
        apply_elapsed = 0.0
        if self._beta_moved(current, decision.beta):
            _, apply_elapsed = _timed(
                lambda: self.algorithm.set_hyperparameters(**decision.beta)
            )
            self.metrics.histogram("service.reconfigure").observe(apply_elapsed)
        charged = 0.0
        if self.charge_solve:
            charged += decision.configure_seconds
        if self.charge_apply:
            charged += apply_elapsed
        if charged > 0.0:
            return max(now, server_free) + charged
        return server_free

    def _rates_moved(self, lambda_q: float, lambda_u: float) -> bool:
        """True when either monitored rate drifted past the threshold."""
        assert self._configured_rates is not None  # caller checked
        last_q, last_u = self._configured_rates
        threshold = self.rate_change_threshold

        def moved(new: float, old: float) -> bool:
            if old <= 0:
                return new > 0
            return abs(new - old) / old > threshold

        return moved(lambda_q, last_q) or moved(lambda_u, last_u)

    def _beta_moved(
        self, current: dict[str, float], proposed: dict[str, float]
    ) -> bool:
        """True when any hyperparameter changed enough to be worth the
        re-application cost (index rebuild for index-based methods)."""
        for name, new in proposed.items():
            old = current.get(name, 0.0)
            if old <= 0:
                return True
            if abs(new - old) / old > self.beta_change_threshold:
                return True
        return False

    def _cache_key(self, source: int) -> CacheKey:
        """Cache identity of a query at the current configuration."""
        return make_key(
            source,
            self.algorithm.name,
            self.algorithm.get_hyperparameters(),
            VECTOR,
        )


def _timed(fn: Callable[[], _T]) -> tuple[_T, float]:
    """(result, elapsed_wall_seconds) of ``fn()``."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


class _MeasuredService:
    """The service source of :meth:`QuotaSystem.process`: each
    operation runs for real and its measured wall time is the virtual
    service time."""

    __slots__ = ("_system", "_queue", "_callback")

    def __init__(
        self,
        system: QuotaSystem,
        queue: SeedQueue,
        callback: QueryCallback | None,
    ) -> None:
        self._system = system
        self._queue = queue
        self._callback = callback

    def _answered(self, request: Request, estimate: PPRVector) -> None:
        if self._callback is not None:
            self._callback(request, estimate, len(self._queue))

    def hit(self, request: Request) -> float | None:
        cache = self._system.cache
        if cache is None:
            return None
        assert request.source is not None  # QUERY requests carry one
        key = self._system._cache_key(request.source)
        entry, elapsed = _timed(lambda: cache.lookup(key))
        if entry is None:
            return None  # the miss's lookup is not charged
        self._answered(request, cast(PPRVector, entry.value))
        return elapsed

    def query(self, request: Request) -> float:
        source = request.source
        assert source is not None  # QUERY requests carry one
        algorithm = self._system.algorithm
        estimate, elapsed = _timed(lambda: algorithm.query(source))
        cache = self._system.cache
        if cache is not None:
            cache.insert(
                self._system._cache_key(source),
                estimate,
                algorithm.graph.version,
                cost_s=elapsed,
                pi_estimate=estimate.get,
            )
        self._answered(request, estimate)
        return elapsed

    def update(self, request: Request) -> float:
        update = request.update
        assert update is not None  # UPDATE requests carry one
        applier = self._system._applier
        return _timed(lambda: applier.apply_update(update))[1]

    def deferred(self, queue: SeedQueue) -> tuple[PendingUpdate, float]:
        applier = self._system._applier
        item, elapsed = _timed(lambda: queue.flush_one(applier))
        assert item is not None  # caller checked the queue
        return item, elapsed
