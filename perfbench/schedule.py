"""Seeded open-loop request schedules.

A schedule is a sorted list of :class:`Item` — when each request is due
(seconds from the phase start) and what it asks.  Queries and updates
arrive as independent Poisson processes.  Everything is drawn from a
``random.Random`` seeded by (workload, phase, seed) strings, so the same
seed always yields the same requests, independent of how fast the
server answered earlier phases.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass

QUERY = "query"
UPDATE = "update"


@dataclass(frozen=True, slots=True)
class Item:
    """One scheduled request."""

    due_s: float
    kind: str
    #: query source, or the update's tail
    a: int
    #: the update's head (-1 for queries)
    b: int = -1


class SourceSampler:
    """Query sources: uniform, or Zipf(s) over a seeded hot ranking."""

    def __init__(
        self, num_nodes: int, dist: str, zipf_s: float, seed: int
    ) -> None:
        if dist not in ("uniform", "zipf"):
            raise ValueError(f"unknown source distribution {dist!r}")
        self.num_nodes = num_nodes
        self.dist = dist
        self._ranking: list[int] = []
        self._cumulative: list[float] = []
        if dist == "zipf":
            ranking = list(range(num_nodes))
            random.Random(f"hot-set/{seed}").shuffle(ranking)
            self._ranking = ranking
            self._cumulative = list(
                itertools.accumulate(
                    1.0 / rank**zipf_s for rank in range(1, num_nodes + 1)
                )
            )

    def draw(self, rng: random.Random) -> int:
        if self.dist == "uniform":
            return rng.randrange(self.num_nodes)
        pick = rng.random() * self._cumulative[-1]
        rank = bisect.bisect_right(self._cumulative, pick)
        return self._ranking[min(rank, self.num_nodes - 1)]


def _arrivals(rng: random.Random, rate: float, duration_s: float) -> list[float]:
    times: list[float] = []
    if rate <= 0.0:
        return times
    t = rng.expovariate(rate)
    while t < duration_s:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def build_schedule(
    *,
    tag: str,
    seed: int,
    duration_s: float,
    lambda_q: float,
    lambda_u: float,
    sources: SourceSampler,
    base_edges: Sequence[tuple[int, int]],
) -> list[Item]:
    """Poisson queries and updates for one phase, sorted by due time.

    Half the updates toggle an edge of the base graph (a delete, or a
    re-insert of one deleted earlier); the other half toggle a random
    pair (almost always an insert), so the edge count stays level.
    """
    rng = random.Random(f"{tag}/{seed}")
    n = sources.num_nodes
    items = [
        Item(t, QUERY, sources.draw(rng))
        for t in _arrivals(rng, lambda_q, duration_s)
    ]
    for t in _arrivals(rng, lambda_u, duration_s):
        if base_edges and rng.random() < 0.5:
            u, v = base_edges[rng.randrange(len(base_edges))]
        else:
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            v += v >= u  # any node but u
        items.append(Item(t, UPDATE, u, v))
    items.sort(key=lambda item: (item.due_s, item.kind))
    return items
