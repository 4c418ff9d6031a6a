"""Multi-backend kernel dispatcher with cost-model routing.

PR 5 shipped three kernel engines (``scalar``/``frontier``/``batched``)
behind a static per-algorithm flag, and its own benchmark documented
where the static choice is wrong: the node-major ``(n, B)`` batched
state loses cache residency at ``n >= 20k``, and SpeedPPR's batched
power phase regresses at ``B = 16``.  This module replaces the flag
with a **capability-probing dispatcher** that routes every kernel call
per ``(n, nnz, frontier density estimate, B, epsilon)``:

* :data:`REGISTRY` — each backend declares its capabilities
  (:class:`BackendSpec`): which kernel *family* it serves (local push
  vs whole-graph power sweeps), whether it is batched, which **result
  class** it belongs to (see below), and an optional-dependency
  ``probe`` evaluated lazily and cached (the scipy SpMM backend is the
  probed one).
* :class:`DispatchCostModel` — cost curves calibrated from
  :class:`~repro.core.cost_models.BatchAwareCostModel`: the batched
  amortization factor ``(1 - sigma) + sigma / B`` gated by a
  cache-residency cap on the ``2 * n * B`` float state, plus a
  frontier-density floor below which batching cannot win.
* :class:`KernelDispatcher` — routing decisions with env-var override
  (``REPRO_KERNEL_BACKEND``), per-backend disabling
  (``REPRO_KERNEL_DISABLE``, used by the forced-fallback tests), and
  graceful fallback when a probe fails.  Every decision is counted in
  the ``dispatch.*`` metrics.

Result invariance
-----------------
Routing must never change answers.  Backends therefore carry a
*result class* and the dispatcher only ever routes **within** one:

* ``sync-push`` — the synchronous (Jacobi) push schedule:
  ``frontier``, ``batched`` and any split/tiling of a batch.  Row
  ``b`` of a batched push is bit-for-bit its single-source frontier
  push, so *any* partition of the sources into sub-batches — which is
  how the dispatcher restores cache residency at large ``n`` — is
  bit-for-bit invariant.  The pure-Python
  :func:`~repro.ppr.kernels.reference_frontier_push` is the scalar
  oracle of this class.
* ``power-scipy`` — power sweeps through scipy's CSR kernels.  Column
  ``b`` of an SpMM (``matrix @ (n, B)``) accumulates in the same
  ``jj``-index order as the single-vector matvec, so chunking a batch
  of sources is bit-for-bit invariant here too (property-tested).
* ``power-raw`` — :func:`~repro.ppr.kernels.power_phase` gather/
  scatter sweeps over raw (possibly slack) CSR rows; the fallback when
  the scipy probe fails.
* ``gauss-seidel`` — the scalar deque push.  It is a *different*
  schedule (results agree with sync-push only up to the r_max slack),
  so ``auto`` never silently routes to or from it; it remains
  selectable explicitly (``engine=scalar`` or the env override).

Switching *between* classes (e.g. the scipy probe failing on one
machine and not another) can change low-order bits — that is the
documented cross-environment caveat, identical to the pre-dispatcher
``engine`` flag semantics.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from repro.obs import MetricsRegistry, get_metrics
from repro.ppr.csr import CSRView
from repro.ppr.kernels import ENGINES

#: pseudo-engine accepted by algorithms and the CLI: let the
#: dispatcher choose per call.
AUTO = "auto"

#: engine names accepted at the algorithm/CLI layer: the concrete
#: kernels plus ``auto``.
ENGINE_CHOICES: tuple[str, ...] = (AUTO,) + ENGINES

#: env var forcing one backend for every routable call (an explicit
#: user override: it may cross result classes, unlike auto routing)
ENV_BACKEND = "REPRO_KERNEL_BACKEND"
#: env var with a comma-separated list of backends to treat as
#: unavailable (probe forced to fail; exercised by the fallback tests)
ENV_DISABLE = "REPRO_KERNEL_DISABLE"
#: env var overriding the cache-residency budget, in KiB
ENV_RESIDENT_KB = "REPRO_DISPATCH_RESIDENT_KB"

#: kernel families a backend can serve
PUSH = "push"
POWER = "power"

#: result classes (see module docstring)
SYNC_PUSH = "sync-push"
GAUSS_SEIDEL = "gauss-seidel"
POWER_SCIPY = "power-scipy"
POWER_RAW = "power-raw"


def _always_available() -> bool:
    return True


def scipy_probe() -> bool:
    """Optional-dependency probe for the scipy sparse kernels."""
    try:
        from scipy import sparse  # noqa: F401
    except Exception:  # pragma: no cover - import environment dependent
        return False
    return True


@dataclass(frozen=True, slots=True)
class BackendSpec:
    """Declared capabilities of one kernel backend.

    Attributes
    ----------
    name:
        Registry key (also the ``REPRO_KERNEL_BACKEND`` value).
    family:
        Kernel family served: :data:`PUSH` or :data:`POWER`.
    result_class:
        Bit-for-bit equivalence class; auto routing stays inside one.
    batched:
        Whether the backend executes multi-source batches natively.
    probe:
        Zero-arg availability check (optional-dependency import,
        hardware feature, ...).  Evaluated lazily, cached per
        dispatcher.
    description:
        One line for ``python -m repro.cli`` / docs.
    """

    name: str
    family: str
    result_class: str
    batched: bool
    probe: Callable[[], bool]
    description: str


#: the backend registry.  Order matters only for documentation; the
#: dispatcher picks by (family, availability, cost model).
REGISTRY: dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register (or replace) a backend declaration."""
    REGISTRY[spec.name] = spec
    return spec


register_backend(
    BackendSpec(
        name="scalar",
        family=PUSH,
        result_class=GAUSS_SEIDEL,
        batched=False,
        probe=_always_available,
        description="deque-based Gauss-Seidel push (algorithm oracle; "
        "never auto-routed, results differ from sync-push)",
    )
)
register_backend(
    BackendSpec(
        name="frontier",
        family=PUSH,
        result_class=SYNC_PUSH,
        batched=False,
        probe=_always_available,
        description="vectorized whole-frontier synchronous push",
    )
)
register_backend(
    BackendSpec(
        name="batched",
        family=PUSH,
        result_class=SYNC_PUSH,
        batched=True,
        probe=_always_available,
        description="node-major (n, B) multi-source synchronous push",
    )
)
register_backend(
    BackendSpec(
        name="power",
        family=POWER,
        result_class=POWER_RAW,
        batched=False,
        probe=_always_available,
        description="gather/scatter power sweeps on raw CSR rows "
        "(no packed-matrix rebuild; scipy-free fallback)",
    )
)
register_backend(
    BackendSpec(
        name="spmm",
        family=POWER,
        result_class=POWER_SCIPY,
        batched=True,
        probe=scipy_probe,
        description="scipy-sparse SpMM power sweeps (packed matrix, "
        "one (n, B) product per sweep)",
    )
)


def frontier_density(n: int, r_max: float, alpha: float) -> float:
    """Estimated fraction of nodes active per synchronous sweep.

    Forward push performs ~``1 / (alpha * r_max)`` pushes total; with
    sweeps touching disjoint frontier slices the per-sweep active
    fraction is bounded by total pushes spread over the node set.  The
    estimate is deliberately crude — it only gates the *batching*
    decision (a near-empty frontier has nothing to amortize), never
    correctness.
    """
    if n <= 0:
        return 0.0
    pushes = 1.0 / max(alpha * r_max, 1e-300)
    return float(min(1.0, pushes / n))


@dataclass(frozen=True, slots=True)
class DispatchCostModel:
    """Cost curves behind the routing decisions.

    The batched-vs-sequential trade is the
    :class:`~repro.core.cost_models.BatchAwareCostModel` amortization
    curve ``t_batch(B) = t_seq * ((1 - sigma) + sigma / B)`` — valid
    while the batch's ``2 * n * B`` float residue/reserve state stays
    cache-resident — with batching declared lost (factor > 1) once the
    state spills.  :meth:`effective_batch` inverts this into the
    largest sub-batch worth running, which is how the dispatcher fixes
    the two documented PR-5 performance bugs: ``(n, B)`` push batches
    at ``n >= 20k`` route to sequential frontier pushes (and oversize
    batches on small/mid graphs split into resident locality-sorted
    chunks), and SpeedPPR's power phase gets an adaptive ``B`` cap
    instead of honoring a constant ``max_batch``.

    Parameters
    ----------
    sigma:
        Shared-work fraction of a batch (the BatchAwareCostModel
        ``shared_fraction``).
    resident_bytes:
        Cache budget for the ``2 * n * B * 8``-byte batch state.  The
        default is L2-sized; override per deployment or with
        ``REPRO_DISPATCH_RESIDENT_KB``.
    min_batch:
        Smallest sub-batch worth the (n, B) bookkeeping.
    min_push_work:
        Expected push count below which batching cannot win (the
        frontier-density floor: nothing to amortize).
    min_resident_rows:
        Profitability floor for *push* batching: how many batch rows
        must fit the resident budget before batching can win at all.
        What batching amortizes is the fixed per-sweep numpy dispatch
        overhead; on graphs large enough that only a few rows stay
        resident, per-sweep memory traffic dwarfs that overhead and
        sequential pushes (one cache-hot ``(n,)`` state each) win at
        *every* batch size — measured on the PR-5 bench, ``n = 20k``
        loses even at ``B = 2``.  Splitting such a batch into resident
        chunks narrows the loss but cannot flip the sign, so the
        router goes fully sequential below this floor.  With the
        default 1 MiB budget, 8 rows ~= the ``n <= 8k`` win region the
        bench measures.  (Power-family routing ignores this floor:
        SpMM sweeps amortize a whole matrix traversal per column, so
        chunked SpMM wins even at small caps.)
    """

    sigma: float = 0.5
    resident_bytes: int = 1 << 20
    min_batch: int = 2
    min_push_work: float = 64.0
    min_resident_rows: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must be in [0, 1], got {self.sigma}")
        if self.resident_bytes < 1:
            raise ValueError("resident_bytes must be >= 1")
        if self.min_batch < 2:
            raise ValueError("min_batch must be >= 2")
        if self.min_resident_rows < 1:
            raise ValueError("min_resident_rows must be >= 1")

    def with_env(self, env: Mapping[str, str]) -> "DispatchCostModel":
        """Apply ``REPRO_DISPATCH_RESIDENT_KB`` if set (and valid)."""
        raw = env.get(ENV_RESIDENT_KB)
        if not raw:
            return self
        try:
            kb = int(raw)
        except ValueError:
            return self
        if kb < 1:
            return self
        return replace(self, resident_bytes=kb * 1024)

    # ------------------------------------------------------------------
    def batch_speedup(self, b: float) -> float:
        """Predicted sequential/batched time ratio at sub-batch ``b``
        (cache-resident regime): ``1 / ((1 - sigma) + sigma / b)``."""
        if b < 1.0:
            b = 1.0
        return 1.0 / ((1.0 - self.sigma) + self.sigma / b)

    def resident_cap(self, n: int) -> int:
        """Largest B whose ``2 * n * B`` float state stays resident."""
        if n <= 0:
            return 1 << 30
        return max(int(self.resident_bytes // (2 * 8 * n)), 1)

    def effective_batch(
        self,
        n: int,
        b: int,
        density: float | None = None,
        alpha: float = 0.2,
        r_max: float | None = None,
    ) -> int:
        """Largest sub-batch size predicted to beat sequential pushes.

        Returns 1 when batching is predicted to lose: fewer than
        ``min_resident_rows`` rows fit the resident budget (the graph
        is too large for dispatch amortization to matter — see the
        field docs), or the expected push work (from
        ``r_max``/``density``) is too small to amortize anything.
        """
        if b <= 1:
            return 1
        if r_max is not None and n > 0:
            pushes = 1.0 / max(alpha * r_max, 1e-300)
            if pushes < self.min_push_work:
                return 1
        elif density is not None and density * n < 1.0:
            return 1
        cap = self.resident_cap(n)
        if cap < max(self.min_batch, self.min_resident_rows):
            return 1
        b_eff = min(b, cap)
        if b_eff < self.min_batch:
            return 1
        if self.batch_speedup(b_eff) <= 1.0:
            return 1
        return b_eff


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    """One routing outcome.

    Attributes
    ----------
    backend:
        Chosen backend name (a :data:`REGISTRY` key).
    effective_batch:
        Sub-batch size the call should execute at (1 = sequential).
    chunks:
        Positions of the input sources per sub-batch, in execution
        order, when the decision splits a batch; ``None`` when the
        batch runs whole (or the call is single-source).
    reason:
        Human-readable routing rationale (also useful in test output).
    fallback:
        True when the preferred backend's probe failed and the
        decision is the graceful degradation.
    overridden:
        True when ``REPRO_KERNEL_BACKEND`` forced the choice.
    """

    backend: str
    effective_batch: int = 1
    chunks: tuple[NDArray[np.int64], ...] | None = None
    reason: str = ""
    fallback: bool = False
    overridden: bool = False


def plan_chunks(
    source_indices: NDArray[np.int64], b_eff: int
) -> tuple[NDArray[np.int64], ...]:
    """Partition batch positions into locality-sorted sub-batches.

    Sources are ordered by node index before slicing, so each
    sub-batch touches a (roughly) contiguous slice of the adjacency
    arrays — rows pushing neighboring nodes share cache lines, which
    is where the batched kernel's win comes from.  Returns arrays of
    *positions into the input batch* (results must be scattered back
    to input order); any partition is bit-for-bit result-invariant
    because every batched row equals its single-source push.
    """
    b = int(source_indices.size)
    if b_eff >= b:
        return (np.arange(b, dtype=np.int64),)
    order = np.argsort(source_indices, kind="stable").astype(np.int64)
    return tuple(
        order[start:start + b_eff] for start in range(0, b, b_eff)
    )


class KernelDispatcher:
    """Routes kernel calls to registered backends via the cost model.

    Parameters
    ----------
    cost_model:
        Routing cost curves; defaults to :class:`DispatchCostModel`
        with the ``REPRO_DISPATCH_RESIDENT_KB`` override applied.
    env:
        Environment mapping (injectable for tests); defaults to
        ``os.environ``, re-read per decision so tests using
        ``monkeypatch.setenv`` behave naturally.
    metrics:
        Observability registry for the ``dispatch.*`` metrics.
    disabled:
        Extra backends to treat as unavailable (union of the
        ``REPRO_KERNEL_DISABLE`` env list; forced-fallback testing).
    """

    def __init__(
        self,
        cost_model: DispatchCostModel | None = None,
        env: Mapping[str, str] | None = None,
        metrics: MetricsRegistry | None = None,
        disabled: Iterable[str] = (),
    ) -> None:
        self._env = env
        base_env = env if env is not None else os.environ
        self.cost_model = (
            cost_model if cost_model is not None else DispatchCostModel()
        ).with_env(base_env)
        self.metrics = metrics if metrics is not None else get_metrics()
        self._disabled = frozenset(disabled)
        self._probe_cache: dict[str, bool] = {}

    # ------------------------------------------------------------------
    def _environ(self) -> Mapping[str, str]:
        return self._env if self._env is not None else os.environ

    def _env_disabled(self) -> frozenset[str]:
        raw = self._environ().get(ENV_DISABLE, "")
        names = {part.strip() for part in raw.split(",") if part.strip()}
        return self._disabled | frozenset(names)

    def available(self, name: str) -> bool:
        """Availability of one backend: registered, not disabled, and
        its (cached) probe passed."""
        spec = REGISTRY.get(name)
        if spec is None or name in self._env_disabled():
            return False
        cached = self._probe_cache.get(name)
        if cached is None:
            try:
                cached = bool(spec.probe())
            except Exception:  # pragma: no cover - defensive probe guard
                cached = False
            self._probe_cache[name] = cached
        return cached

    def clear_probe_cache(self) -> None:
        """Forget cached probe results (tests / dependency hot-plug)."""
        self._probe_cache.clear()

    def _override(self, family: str) -> str | None:
        """The env-forced backend for ``family``, if usable."""
        forced = self._environ().get(ENV_BACKEND, "").strip()
        if not forced:
            return None
        spec = REGISTRY.get(forced)
        if spec is None or spec.family != family:
            return None
        if not self.available(forced):
            # forced backend unusable: count it and fall back to auto
            self.metrics.counter("dispatch.fallbacks").inc()
            return None
        return forced

    def _count(self, decision: RoutingDecision) -> RoutingDecision:
        self.metrics.counter("dispatch.decisions").inc()
        if decision.overridden:
            self.metrics.counter("dispatch.overrides").inc()
        if decision.fallback:
            self.metrics.counter("dispatch.fallbacks").inc()
        if decision.chunks is not None and len(decision.chunks) > 1:
            self.metrics.counter("dispatch.splits").inc()
        self.metrics.histogram("dispatch.effective_batch").observe(
            float(decision.effective_batch)
        )
        return decision

    # ------------------------------------------------------------------
    def route_push(
        self,
        view: CSRView,
        b: int,
        r_max: float,
        alpha: float = 0.2,
        epsilon: float | None = None,
        source_indices: NDArray[np.int64] | None = None,
    ) -> RoutingDecision:
        """Route one push-family call of batch size ``b``.

        ``epsilon`` is the per-request accuracy class of the multi-eps
        direction: when given (and ``r_max`` is not already resolved
        per-request), a looser epsilon scales the effective push
        threshold the density estimate sees, keeping routing
        parameterized by request accuracy.  Routing stays inside the
        sync-push result class — ``scalar`` is never auto-chosen.
        """
        n = view.n
        effective_r_max = r_max
        if epsilon is not None and epsilon > 0.0:
            # looser accuracy => proportionally coarser push threshold
            effective_r_max = r_max * max(epsilon, 1e-12) / 0.5
        override = self._override(PUSH)
        if override is not None:
            b_eff = b if REGISTRY[override].batched else 1
            return self._count(
                RoutingDecision(
                    backend=override,
                    effective_batch=max(b_eff, 1),
                    chunks=None,
                    reason=f"env override {ENV_BACKEND}={override}",
                    overridden=True,
                )
            )
        density = frontier_density(n, effective_r_max, alpha)
        if b <= 1:
            return self._count(
                RoutingDecision(
                    backend="frontier",
                    effective_batch=1,
                    reason="single source: whole-frontier kernel",
                )
            )
        b_eff = self.cost_model.effective_batch(
            n, b, density=density, alpha=alpha, r_max=effective_r_max
        )
        if b_eff <= 1 or not self.available("batched"):
            return self._count(
                RoutingDecision(
                    backend="frontier",
                    effective_batch=1,
                    reason=(
                        f"B={b} at n={n}: batch state not cache-resident "
                        f"(cap {self.cost_model.resident_cap(n)}) or too "
                        f"little push work; sequential frontier pushes"
                    ),
                )
            )
        chunks: tuple[NDArray[np.int64], ...] | None = None
        if source_indices is not None:
            chunks = plan_chunks(
                np.asarray(source_indices, dtype=np.int64), b_eff
            )
        return self._count(
            RoutingDecision(
                backend="batched",
                effective_batch=b_eff,
                chunks=chunks,
                reason=(
                    f"B={b} at n={n}: resident sub-batches of {b_eff} "
                    f"(predicted speedup "
                    f"{self.cost_model.batch_speedup(b_eff):.2f}x)"
                ),
            )
        )

    def route_power(
        self,
        view: CSRView,
        b: int,
        epsilon: float | None = None,
    ) -> RoutingDecision:
        """Route one power-family call (SpeedPPR's PowerPush stage).

        Prefers the scipy SpMM backend when its probe passes — packed
        matrix, one ``(n, B)`` product per sweep — with the raw-row
        :func:`~repro.ppr.kernels.power_phase` as the graceful
        fallback.  Batches are capped at the cost model's resident
        sub-batch size (the adaptive ``B`` that fixes the ``B = 16``
        regression).
        """
        del epsilon  # accuracy does not change the power-backend choice
        n = view.n
        override = self._override(POWER)
        if override is not None:
            b_eff = b if REGISTRY[override].batched else 1
            return self._count(
                RoutingDecision(
                    backend=override,
                    effective_batch=max(b_eff, 1),
                    reason=f"env override {ENV_BACKEND}={override}",
                    overridden=True,
                )
            )
        if not self.available("spmm"):
            return self._count(
                RoutingDecision(
                    backend="power",
                    effective_batch=1,
                    reason="scipy probe failed: raw-row power sweeps",
                    fallback=True,
                )
            )
        if b <= 1:
            return self._count(
                RoutingDecision(
                    backend="spmm",
                    effective_batch=1,
                    reason="single source: scipy matvec power sweeps",
                )
            )
        # power sweeps touch the whole graph every sweep, so the whole
        # (n, B) state streams regardless; the residency cap still
        # bounds the live write-set (the B=16 regression's cause)
        cap = self.cost_model.resident_cap(n)
        b_eff = max(min(b, cap), 1)
        return self._count(
            RoutingDecision(
                backend="spmm",
                effective_batch=b_eff,
                chunks=(
                    tuple(
                        np.arange(start, min(start + b_eff, b), dtype=np.int64)
                        for start in range(0, b, b_eff)
                    )
                    if b_eff < b
                    else None
                ),
                reason=(
                    f"SpMM sub-batches of {b_eff} (resident cap {cap} "
                    f"at n={n})"
                ),
            )
        )

    # ------------------------------------------------------------------
    def describe(self) -> list[tuple[str, str, bool, str]]:
        """(name, family, available, description) per backend."""
        return [
            (
                spec.name,
                spec.family,
                self.available(spec.name),
                spec.description,
            )
            for spec in REGISTRY.values()
        ]

    def __repr__(self) -> str:
        avail = ",".join(
            name for name in REGISTRY if self.available(name)
        )
        return f"KernelDispatcher(available=[{avail}], {self.cost_model!r})"


_default_dispatcher: KernelDispatcher | None = None


def get_dispatcher() -> KernelDispatcher:
    """The process-wide default dispatcher (created on first use)."""
    global _default_dispatcher
    if _default_dispatcher is None:
        _default_dispatcher = KernelDispatcher()
    return _default_dispatcher


def set_dispatcher(dispatcher: KernelDispatcher | None) -> None:
    """Replace the process-wide dispatcher (None resets to lazy default)."""
    global _default_dispatcher
    _default_dispatcher = dispatcher


def resolve_engine_choice(engine: str) -> str:
    """Validate an engine name against :data:`ENGINE_CHOICES`."""
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown kernel engine {engine!r}; choose one of "
            f"{ENGINE_CHOICES}"
        )
    return engine


__all__ = [
    "AUTO",
    "ENGINE_CHOICES",
    "ENV_BACKEND",
    "ENV_DISABLE",
    "ENV_RESIDENT_KB",
    "BackendSpec",
    "DispatchCostModel",
    "KernelDispatcher",
    "REGISTRY",
    "RoutingDecision",
    "frontier_density",
    "get_dispatcher",
    "plan_chunks",
    "register_backend",
    "resolve_engine_choice",
    "scipy_probe",
    "set_dispatcher",
]
