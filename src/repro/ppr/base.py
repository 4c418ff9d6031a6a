"""Shared abstractions for the PPR algorithms.

* :class:`PPRParams` — the (alpha, epsilon, delta, p_f) accuracy setting
  of Definition 1 plus the derived walk count K.
* :class:`PPRVector` — a dense single-source PPR estimate with node-id
  accessors and top-k extraction.
* :class:`SubProcessTimers` — wall-clock accounting per sub-process
  (Forward Push, Random Walk, ...), feeding both the tau-calibration of
  Quota (Step 1) and the Table VIII cost-balance experiment.
* :class:`DynamicPPRAlgorithm` — the query/update interface every base
  algorithm implements and Quota configures.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.ppr.csr import CSRView, csr_view
from repro.ppr.kernels import resolve_engine

# Default cap on the walk-count parameter K.  The paper's theoretical K
# with delta = p_f = 1/n is Theta(n log n), far beyond what pure Python
# sustains at interactive rates; capping K preserves every push/walk
# trade-off Quota tunes (see DESIGN.md, substitutions table).
DEFAULT_WALK_CAP = 20_000


@dataclass(frozen=True, slots=True)
class PPRParams:
    """Accuracy configuration of an SSPPR query (Definition 1).

    Parameters
    ----------
    alpha:
        Teleport (termination) probability of the random walk.
    epsilon:
        Relative error bound of Eq. 1.
    delta:
        PPR threshold above which the guarantee applies.  ``None``
        means the paper's default 1/n, resolved against the live graph.
    p_f:
        Failure probability.  ``None`` means 1/n.
    walk_cap:
        Upper cap applied to the derived walk count K (reproduction
        substitution; see DESIGN.md).
    """

    alpha: float = 0.2
    epsilon: float = 0.5
    delta: float | None = None
    p_f: float | None = None
    walk_cap: int = DEFAULT_WALK_CAP

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        for name in ("delta", "p_f"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.walk_cap < 1:
            raise ValueError("walk_cap must be >= 1")

    def resolved_delta(self, n: int) -> float:
        """delta, defaulting to 1/n as in the paper's experiments."""
        return self.delta if self.delta is not None else 1.0 / max(n, 2)

    def resolved_p_f(self, n: int) -> float:
        """p_f, defaulting to 1/n as in the paper's experiments."""
        return self.p_f if self.p_f is not None else 1.0 / max(n, 2)

    def num_walks(self, n: int) -> int:
        """The FORA walk count K = (2eps/3 + 2) ln(2/p_f) / (eps^2 delta).

        Capped at ``walk_cap`` (see class docstring).
        """
        delta = self.resolved_delta(n)
        p_f = self.resolved_p_f(n)
        k = (2 * self.epsilon / 3 + 2) * math.log(2 / p_f) / (self.epsilon**2 * delta)
        return max(1, min(int(math.ceil(k)), self.walk_cap))


class PPRVector:
    """Single-source PPR estimate over a graph snapshot.

    Wraps the dense estimate array together with the CSR snapshot it was
    computed on, so callers can address entries by node id.
    """

    __slots__ = ("values", "_view", "source")

    def __init__(self, values: np.ndarray, view: CSRView, source: int) -> None:
        self.values = values
        self._view = view
        self.source = source

    def __getitem__(self, node: int) -> float:
        return float(self.values[self._view.to_index(node)])

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self._view.nodes)

    def get(self, node: int, default: float = 0.0) -> float:
        try:
            return self[node]
        except KeyError:
            return default

    def as_dict(self, threshold: float = 0.0) -> dict[int, float]:
        """Materialize {node: estimate} for entries > ``threshold``."""
        mask = self.values > threshold
        nodes = self._view.nodes[mask]
        vals = self.values[mask]
        return {int(v): float(p) for v, p in zip(nodes, vals)}

    def top_k(self, k: int) -> list[tuple[int, float]]:
        """The k largest (node, estimate) pairs, descending by estimate."""
        k = min(k, self.values.size)
        if k == 0:
            return []
        idx = np.argpartition(-self.values, k - 1)[:k]
        idx = idx[np.argsort(-self.values[idx], kind="stable")]
        return [(int(self._view.nodes[i]), float(self.values[i])) for i in idx]

    def total_mass(self) -> float:
        return float(self.values.sum())


class SubProcessTimers:
    """Accumulates wall time and invocation counts per sub-process.

    The paper's cost model (Table VI) is built from exactly these
    measurements: "the values of tau are easy to be gauged as we can
    independently time the actual sub-process costs".
    """

    def __init__(self) -> None:
        self._total: dict[str, float] = {}
        self._count: dict[str, int] = {}

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Context manager charging elapsed wall time to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._total[name] = self._total.get(name, 0.0) + elapsed
            self._count[name] = self._count.get(name, 0) + 1

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Charge a pre-measured duration (used by vectorized paths)."""
        self._total[name] = self._total.get(name, 0.0) + seconds
        self._count[name] = self._count.get(name, 0) + count

    def total(self, name: str) -> float:
        return self._total.get(name, 0.0)

    def count(self, name: str) -> int:
        return self._count.get(name, 0)

    def mean(self, name: str) -> float:
        count = self._count.get(name, 0)
        return self._total.get(name, 0.0) / count if count else 0.0

    def names(self) -> list[str]:
        return sorted(self._total)

    def snapshot(self) -> dict[str, float]:
        """Copy of the accumulated totals (seconds per sub-process)."""
        return dict(self._total)

    def reset(self) -> None:
        self._total.clear()
        self._count.clear()


@dataclass(slots=True)
class QueryStats:
    """Bookkeeping for the most recent query (exposed for tests/benches)."""

    pushes: int = 0
    walks: int = 0
    walk_steps: int = 0
    refreshed_nodes: int = 0
    extra: dict = field(default_factory=dict)


class DynamicPPRAlgorithm(ABC):
    """A PPR algorithm serving interleaved queries and edge updates.

    Subclasses implement :meth:`query` and :meth:`apply_update` and
    declare their tunable hyperparameters.  Quota treats instances
    uniformly through this interface: it reads/writes hyperparameters,
    reads the sub-process timers for calibration, and replays workloads.
    """

    #: short name used in reports ("Agenda", "FORA+", ...)
    name: str = "base"
    #: True when updates must maintain a precomputed walk index
    is_index_based: bool = False
    #: names of tunable hyperparameters, in beta-vector order
    hyperparameter_names: tuple[str, ...] = ()
    #: kernel engines this algorithm can execute (subset of
    #: ``repro.ppr.kernels.ENGINES``); algorithms opt in per engine
    supported_engines: tuple[str, ...] = ("scalar",)

    def __init__(
        self, graph: DynamicGraph, params: PPRParams | None = None
    ) -> None:
        self.graph = graph
        self.params = params or PPRParams()
        self.timers = SubProcessTimers()
        self.last_query_stats = QueryStats()
        self.engine = "scalar"
        self._rng = np.random.default_rng()

    def seed(self, seed: int) -> None:
        """Reseed the algorithm's internal randomness (reproducibility).

        Index-based algorithms also rebuild their walk index from the
        new generator (via the hyperparameter-change hook) so that two
        identically seeded instances produce identical estimates.
        """
        self._rng = np.random.default_rng(seed)
        self._on_hyperparameters_changed()

    # -- hyperparameters ------------------------------------------------
    def get_hyperparameters(self) -> dict[str, float]:
        """Current values of the tunable hyperparameters."""
        return {name: getattr(self, name) for name in self.hyperparameter_names}

    def set_hyperparameters(self, **values: float) -> None:
        """Set tunable hyperparameters; unknown names raise ValueError.

        As in the paper, tuning these never affects the worst-case
        accuracy guarantee — only the split of work between
        sub-processes.
        """
        for name, value in values.items():
            if name not in self.hyperparameter_names:
                raise ValueError(
                    f"{self.name} has no hyperparameter {name!r}; "
                    f"tunable: {self.hyperparameter_names}"
                )
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
            setattr(self, name, float(value))
        self._on_hyperparameters_changed()

    def _on_hyperparameters_changed(self) -> None:
        """Hook for index-based algorithms to resize their index."""

    # -- kernel engine ----------------------------------------------------
    def set_engine(self, engine: str) -> None:
        """Select the push-kernel engine for this algorithm instance.

        ``engine`` must be one of ``repro.ppr.kernels.ENGINES``.  An
        algorithm whose only push is the scalar deque (``frontier``
        not in :attr:`supported_engines`) runs ``"scalar"`` under
        either name, so the ``frontier`` default suits every
        algorithm.
        """
        resolve_engine(engine)
        self.engine = engine if engine in self.supported_engines else "scalar"

    # -- views -----------------------------------------------------------
    @property
    def view(self) -> CSRView:
        """CSR snapshot of the current graph (cached per version)."""
        return csr_view(self.graph)

    # -- the core interface ----------------------------------------------
    @abstractmethod
    def query(self, source: int) -> PPRVector:
        """Answer an SSPPR query from ``source`` on the current graph."""

    @abstractmethod
    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        """Apply one edge arrival (graph + any index maintenance).

        Returns the resolved update (insert/delete).
        """

    def query_batch(self, sources: Sequence[int]) -> list[PPRVector]:
        """Answer B same-snapshot queries (one result per source).

        The default loops :meth:`query`; FORA's ``frontier`` engine
        overrides this to push the sources through shared ``(B, n)``
        kernel sweeps.  Callers must not interleave updates
        within a batch — the serving runtime flushes updates between
        batches to keep every row on one snapshot.
        """
        return [self.query(source) for source in sources]

    # -- defaults shared by Push+Walk algorithms --------------------------
    def default_hyperparameters(self) -> dict[str, float]:
        """Paper-default hyperparameter values for the current graph."""
        return {}

    def reset_to_defaults(self) -> None:
        defaults = self.default_hyperparameters()
        if defaults:
            self.set_hyperparameters(**defaults)

    def __repr__(self) -> str:
        hps = ", ".join(
            f"{k}={v:.3g}" for k, v in self.get_hyperparameters().items()
        )
        return f"{type(self).__name__}({hps})"


def clip_unit(value: float, lo: float = 1e-12, hi: float = 1.0 - 1e-12) -> float:
    """Clamp a hyperparameter into the open unit interval."""
    return min(max(value, lo), hi)
