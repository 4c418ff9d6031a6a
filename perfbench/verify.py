"""Correctness gate: answers against exact PPR at the version they name.

The benchmark keeps every update it sent, keyed by the fabric version
the server acknowledged.  A shard builds its replica by inserting the
sorted base edges (``repro.shard.worker.build_graph``) and bumps the
graph version once per applied update, so a reply's ``version`` names
the base graph plus a prefix of the acknowledged updates.  A seeded
sample of answers is replayed to its version and compared with
``ppr_exact`` under FORA's (epsilon, delta) guarantee: every returned
entry whose exact value exceeds delta must be within relative error
epsilon.  delta is the threshold the configured walk count K (capped by
the dataset's ``walk_cap``) actually guarantees.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from repro.graph.updates import EdgeUpdate
from repro.ppr.base import PPRParams
from repro.ppr.power_iteration import ppr_exact
from repro.shard.messages import ShardSpec
from repro.shard.worker import build_graph

#: accuracy parameters ``repro.evaluation.runner.build_algorithm`` serves with
ALPHA = 0.2
EPSILON = 0.5


def guaranteed_delta(num_nodes: int, walk_cap: int) -> float:
    """Smallest delta FORA's walk count K guarantees at p_f = 1/n."""
    params = PPRParams(alpha=ALPHA, epsilon=EPSILON, walk_cap=walk_cap)
    k = params.num_walks(num_nodes)
    p_f = params.resolved_p_f(num_nodes)
    needed = (2 * EPSILON / 3 + 2) * math.log(2 / p_f) / EPSILON**2
    return max(params.resolved_delta(num_nodes), needed / k)


class Replica:
    """The benchmark's own copy of the served graph, replayed forward."""

    def __init__(self, num_nodes: int, edges: Sequence[tuple[int, int]]):
        spec = ShardSpec(
            shard_id=0, num_shards=1, num_nodes=num_nodes,
            edges=tuple(sorted(edges)),
        )
        self.graph = build_graph(spec)
        self.base_version = self.graph.version
        self.applied = 0

    def advance_to(self, version: int, updates: dict[int, tuple[int, int]]) -> None:
        """Apply acknowledged updates until the graph is at ``version``."""
        while self.graph.version < version:
            fabric = self.applied + 1
            if fabric not in updates:
                raise LookupError(f"no acknowledged update for version {fabric}")
            u, v = updates[fabric]
            EdgeUpdate(u, v, "toggle").apply(self.graph)
            self.applied = fabric
        if self.graph.version != version:
            raise LookupError(f"version {version} is not on the replay path")


def check_answer(
    values: Sequence[Sequence[float]], exact, delta: float
) -> str | None:
    """None when every returned entry meets the guarantee, else why not."""
    for node, value in values:
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            return f"entry {node} has value {value}"
        truth = exact.get(int(node))
        if truth > delta and abs(value - truth) > EPSILON * truth:
            return (
                f"entry {int(node)}: {value:.6g} vs exact {truth:.6g} "
                f"(relative error above {EPSILON})"
            )
    return None


def verify(
    replica: Replica,
    answers: Sequence[tuple[int, int, list]],
    updates: dict[int, tuple[int, int]],
    delta: float,
    sample: int,
    seed: int,
) -> tuple[int, list[tuple[int, str]]]:
    """Check a seeded sample of ``(source, version, values)`` answers.

    Returns the number checked and ``(answer index, why)`` per failure.
    """
    chosen = random.Random(f"verify/{seed}").sample(
        range(len(answers)), min(sample, len(answers))
    )
    failures: list[tuple[int, str]] = []
    for i in sorted(chosen, key=lambda i: answers[i][1]):
        source, version, values = answers[i]
        try:
            replica.advance_to(version, updates)
        except LookupError as exc:
            failures.append((i, f"source {source} @v{version}: {exc}"))
            continue
        problem = check_answer(values, ppr_exact(replica.graph, source, ALPHA), delta)
        if problem is not None:
            failures.append((i, f"source {source} @v{version}: {problem}"))
    return len(chosen), failures
