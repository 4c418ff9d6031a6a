"""ShardManager control plane: routing, admission, health, respawn.

Everything here runs on the deterministic in-process backend; the
cross-process paths are covered by the stress-marked equivalence
oracle in ``test_equivalence.py`` and the smoke in the bench.
"""

import time

import pytest

from repro.graph import DynamicGraph
from repro.obs import MetricsRegistry
from repro.shard import ShardManager
from repro.shard.manager import RETRY_AFTER_UNHEALTHY_S


def ring_graph(n=24):
    edges = [(u, (u + 1) % n) for u in range(n)]
    edges += [(u, (u + 5) % n) for u in range(0, n, 3)]
    return DynamicGraph.from_edges(sorted(set(edges)))


def make_manager(num_shards=2, **overrides):
    options = dict(
        backend="inproc",
        walk_cap=64,
        query_mode="exact",
        metrics=MetricsRegistry(),
    )
    options.update(overrides)
    return ShardManager(ring_graph(), num_shards, **options)


def wait_until(predicate, timeout_s=30.0, interval_s=0.005):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(interval_s)
    return True


def test_query_routes_to_owner_and_serves():
    with make_manager() as manager:
        for source in range(8):
            outcome = manager.query_sync(source, timeout_s=60.0)
            assert outcome.ok, outcome
            assert outcome.shard_id == manager.router.route(source)
            assert outcome.values, "full vector expected"
            # the source holds the largest mass in its own PPR vector
            top_node = max(outcome.values, key=lambda pair: pair[1])[0]
            assert top_node == source


def test_top_k_truncation():
    with make_manager(num_shards=1) as manager:
        outcome = manager.query_sync(0, top_k=3, timeout_s=60.0)
        assert outcome.ok
        assert len(outcome.values) == 3
        scores = [value for _, value in outcome.values]
        assert scores == sorted(scores, reverse=True)


def test_negative_source_rejected():
    with make_manager(num_shards=1) as manager:
        with pytest.raises(ValueError):
            manager.query(-1)


def test_update_broadcast_reaches_every_shard():
    with make_manager(num_shards=3) as manager:
        first = manager.update(0, 7)
        second = manager.update(1, 8)
        assert (first.version, second.version) == (1, 2)
        assert first.acked_shards == (0, 1, 2)
        assert not first.skipped_shards
        assert manager.fabric_version == 2
        health = manager.healthz()
        assert health["healthy"]
        assert all(
            shard["applied_broadcasts"] == 2 for shard in health["shards"]
        )


def test_unhealthy_shard_sheds_with_retry_hint():
    with make_manager(num_shards=2, auto_respawn=False) as manager:
        victim = manager.shard_handle(0)
        victim.crash()
        assert wait_until(lambda: not victim.healthy)
        # a source owned by the dead shard sheds with the respawn hint
        shed_source = next(
            s for s in range(24) if manager.router.route(s) == 0
        )
        outcome = manager.query_sync(shed_source, timeout_s=60.0)
        assert outcome.status == "shed"
        assert outcome.shed_reason == "shard-unhealthy"
        assert outcome.retry_after_s == RETRY_AFTER_UNHEALTHY_S
        # the surviving shard keeps serving its own range
        live_source = next(
            s for s in range(24) if manager.router.route(s) == 1
        )
        assert manager.query_sync(live_source, timeout_s=60.0).ok
        health = manager.healthz()
        assert not health["healthy"]
        assert health["healthy_shards"] == 1
        # updates keep flowing to the healthy shard, dead one skipped
        outcome = manager.update(0, 9)
        assert outcome.acked_shards == (1,)
        assert outcome.skipped_shards == (0,)


def test_crash_then_respawn_replays_log():
    metrics = MetricsRegistry()
    with make_manager(num_shards=2, metrics=metrics) as manager:
        manager.update(0, 7)
        manager.update(2, 9)
        victim = manager.shard_handle(1)
        victim.crash()
        assert wait_until(lambda: not victim.healthy)
        assert wait_until(lambda: manager.healthy_shard_count() == 2)
        health = manager.healthz()
        assert health["healthy"]
        assert all(
            shard["applied_broadcasts"] == 2 for shard in health["shards"]
        )
        # the respawned owner serves its range again
        source = next(s for s in range(24) if manager.router.route(s) == 1)
        assert manager.query_sync(source, timeout_s=60.0).ok
        counters = metrics.snapshot()["counters"]
        assert counters["shard.respawns"] == 1
        assert counters.get("shard.order_faults", 0) == 0


def test_inflight_bound_sheds_and_recovers():
    with make_manager(
        num_shards=1, max_inflight_per_shard=2, auto_respawn=False
    ) as manager:
        handle = manager.shard_handle(0)
        handle.pause()  # deterministic backlog: nothing completes
        admitted = [manager.query(0), manager.query(1)]
        shed = manager.query_sync(2, timeout_s=60.0)
        assert shed.status == "shed"
        assert shed.shed_reason == "inflight-full"
        assert shed.retry_after_s is not None
        assert shed.retry_after_s > 0
        handle.resume()
        for future in admitted:
            assert future.result(60.0).ok
        # the window drained; admission works again
        assert manager.query_sync(3, timeout_s=60.0).ok


def test_metrics_snapshot_aggregates_workers():
    with make_manager(num_shards=2) as manager:
        manager.query_sync(0, timeout_s=60.0)
        manager.update(0, 7)
        snapshot = manager.metrics_snapshot()
        counters = snapshot["manager"]["counters"]
        assert counters["shard.queries_routed"] == 1
        assert counters["shard.updates_broadcast"] == 1
        assert set(snapshot["shards"]) == {"0", "1"}
        for payload in snapshot["shards"].values():
            assert "metrics" in payload
            assert payload["state"]["applied_broadcasts"] == 1


def test_metrics_snapshot_exports_process_counters():
    """The CSR store and walk index count into the process-wide
    registry; each shard's snapshot exports them next to its own."""
    with make_manager(num_shards=1) as manager:

        def delta_applies():
            shard = manager.metrics_snapshot()["shards"]["0"]
            return shard["metrics"]["counters"].get("csr_delta_applies")

        before = delta_applies()
        assert before is not None
        manager.update(0, 7)
        assert wait_until(lambda: delta_applies() > before)


def test_stop_is_terminal():
    manager = make_manager(num_shards=1)
    manager.stop()
    with pytest.raises(RuntimeError):
        manager.update(0, 7)
