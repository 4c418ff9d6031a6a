"""Tests for the concurrent serving runtime and its building blocks."""

import gc
import threading
import time

import pytest

from repro.core.system import QuotaSystem
from repro.graph import DynamicGraph, EdgeUpdate
from repro.obs import MetricsRegistry
from repro.ppr import Fora, PPRParams
from repro.queueing.workload import QUERY, UPDATE, Request
from repro.serving import (
    FAILED,
    OK,
    SHED,
    SHED_QUEUE_FULL,
    TIMEOUT,
    AdmissionQueue,
    RWLock,
    ServedRequest,
    ServingRuntime,
    Ticket,
)


def make_graph():
    return DynamicGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0)]
    )


def make_algorithm(graph=None):
    return Fora(graph if graph is not None else make_graph(),
                PPRParams(walk_cap=100))


def make_runtime(algorithm=None, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("idle_tick_s", 0.005)
    return ServingRuntime(
        algorithm if algorithm is not None else make_algorithm(), **kwargs
    )


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        assert lock.acquire_read()
        assert lock.acquire_read()
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = RWLock()
        lock.acquire_write()
        assert not lock.acquire_read(timeout=0.01)
        lock.release_write()
        assert lock.acquire_read()
        lock.release_read()

    def test_write_preference_blocks_new_readers(self):
        """Once a writer waits, later readers queue behind it."""
        lock = RWLock()
        lock.acquire_read()
        got_write = []

        def writer():
            got_write.append(lock.acquire_write(timeout=2.0))
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)  # writer is now waiting
        assert not lock.acquire_read(timeout=0.01)
        lock.release_read()  # writer proceeds
        thread.join()
        assert got_write == [True]

    def test_write_timeout(self):
        lock = RWLock()
        lock.acquire_read()
        assert not lock.acquire_write(timeout=0.01)
        lock.release_read()
        assert lock.acquire_write(timeout=0.01)
        lock.release_write()

    def test_contextmanagers(self):
        lock = RWLock()
        with lock.write_locked():
            pass
        with lock.read_locked():
            with lock.read_locked():
                pass
        # fully released afterwards
        assert lock.acquire_write(timeout=0.01)
        lock.release_write()


class TestAdmissionQueue:
    def test_sheds_when_full(self):
        metrics = MetricsRegistry()
        q = AdmissionQueue(capacity=2, metrics=metrics)
        t = Ticket(Request(0.0, QUERY, source=0), 0.0)
        assert q.offer(t) and q.offer(t)
        assert not q.offer(t)
        assert metrics.snapshot()["counters"]["serving.shed"] == 1
        assert q.depth == 2

    def test_depth_gauge_tracks(self):
        metrics = MetricsRegistry()
        q = AdmissionQueue(capacity=4, metrics=metrics)
        t = Ticket(Request(0.0, QUERY, source=0), 0.0)
        q.offer(t)
        q.offer(t)
        assert metrics.snapshot()["gauges"]["serving.queue_depth"][
            "high_water"
        ] == 2
        q.take(0.01)
        assert q.depth == 1

    def test_take_times_out(self):
        q = AdmissionQueue(capacity=1, metrics=MetricsRegistry())
        assert q.take(0.01) is None

    def test_ticket_expiry(self):
        t = Ticket(Request(0.0, QUERY, source=0), 0.0, deadline_s=1.0)
        assert not t.expired(now_s=0.5)
        assert t.expired(now_s=1.5)
        assert not Ticket(
            Request(0.0, QUERY, source=0), 0.0
        ).expired(now_s=1e9)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=-1, metrics=MetricsRegistry())


class TestServingRuntime:
    def test_serves_queries_and_updates(self):
        graph = make_graph()
        runtime = make_runtime(make_algorithm(graph), workers=2,
                               queue_capacity=0)
        requests = [
            Request(0.0, QUERY, source=0),
            Request(0.0, UPDATE, update=EdgeUpdate(0, 9)),
            Request(0.0, QUERY, source=2),
        ]
        with runtime:
            report = runtime.serve(requests)
        assert len(report.records) == 3
        assert all(r.status == OK for r in report.records)
        assert graph.has_edge(0, 9)
        assert len(report.completed_queries()) == 2
        assert report.query_throughput() > 0

    def test_requires_start(self):
        runtime = make_runtime()
        with pytest.raises(RuntimeError, match="not started"):
            runtime.submit(Request(0.0, QUERY, source=0))

    def test_double_start_rejected(self):
        runtime = make_runtime()
        runtime.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                runtime.start()
        finally:
            runtime.stop()

    def test_sheds_on_full_queue(self):
        records = []
        runtime = make_runtime(workers=1, queue_capacity=1, on_complete=records.append)
        with runtime:
            results = [
                runtime.submit(Request(0.0, QUERY, source=0))
                for _ in range(60)
            ]
            runtime.drain()
        assert not all(results)
        shed = [r for r in records if r.status == SHED]
        assert shed and all(r.shed_reason == SHED_QUEUE_FULL for r in shed)

    def test_deadline_timeout(self):
        metrics = MetricsRegistry()
        slow = lambda graph, source: time.sleep(0.05)  # noqa: E731
        records = []
        runtime = make_runtime(
            workers=1, queue_capacity=0, deadline_s=0.01,
            query_fn=slow, metrics=metrics,
            on_complete=records.append,
        )
        with runtime:
            for _ in range(8):
                runtime.submit(Request(0.0, QUERY, source=0))
            runtime.drain()
        statuses = {r.status for r in records}
        assert TIMEOUT in statuses
        assert metrics.snapshot()["counters"]["serving.timeout"] >= 1

    def test_seed_deferral_and_drain(self):
        """Updates defer through the Seed queue and are all applied by
        the time drain() returns."""
        graph = make_graph()
        records = []
        runtime = make_runtime(
            make_algorithm(graph), workers=2, epsilon_r=100.0,
            queue_capacity=0,
            on_complete=records.append,
        )
        with runtime:
            runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(0, 9)))
            runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(9, 5)))
            runtime.submit(Request(0.0, QUERY, source=0))
            runtime.drain()
        assert runtime.pending_updates == 0
        assert graph.has_edge(0, 9) and graph.has_edge(9, 5)
        applied = [
            r for r in records
            if r.kind == UPDATE and r.status == OK
        ]
        assert len(applied) == 2
        assert all(r.version > 0 for r in applied)

    def test_fault_degrades_to_fcfs(self):
        graph = make_graph()
        algorithm = make_algorithm(graph)
        original = algorithm.apply_update
        calls = []

        def flaky(update):
            calls.append(update)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return original(update)

        algorithm.apply_update = flaky
        metrics = MetricsRegistry()
        records = []
        runtime = make_runtime(
            algorithm, workers=2, epsilon_r=100.0, queue_capacity=0,
            metrics=metrics,
            on_complete=records.append,
        )
        updates = [EdgeUpdate(0, 9), EdgeUpdate(9, 5), EdgeUpdate(5, 4)]
        with runtime:
            for update in updates:
                runtime.submit(Request(0.0, UPDATE, update=update))
            runtime.submit(Request(0.0, QUERY, source=0))
            runtime.drain()
        assert runtime.degraded
        failed = [r for r in records if r.status == FAILED]
        assert len(failed) == 1 and "injected" in failed[0].error
        assert metrics.snapshot()["counters"]["serving.faults"] == 1
        # the two surviving updates were applied despite the fault
        ok_updates = [
            r for r in records
            if r.kind == UPDATE and r.status == OK
        ]
        assert len(ok_updates) == 2
        assert runtime.pending_updates == 0

    def test_query_results_returned(self):
        seen = []
        records = []
        runtime = make_runtime(
            workers=1, queue_capacity=0,
            query_fn=lambda graph, source: ("answer", source),
            on_complete=records.append,
        )
        with runtime:
            runtime.submit(Request(0.0, QUERY, source=3))
            runtime.drain()
        seen = [r.result for r in records if r.status == OK]
        assert seen == [("answer", 3)]

    def test_runtime_retains_no_records(self):
        """Long uptime keeps memory bounded: a runtime driven through
        submit + on_complete holds none of its records (each pins a
        dense result vector) once they were handed out."""
        requests = [
            Request(0.0, UPDATE, update=EdgeUpdate(0, 9))
            if i % 5 == 0
            else Request(0.0, QUERY, source=i % 4)
            for i in range(500)
        ]
        statuses = []
        runtime = make_runtime(
            workers=2, epsilon_r=100.0, queue_capacity=0,
            on_complete=lambda record: statuses.append(record.status),
        )
        with runtime:
            for request in requests:
                runtime.submit(request)
            runtime.drain()
        assert statuses == [OK] * 500
        gc.collect()
        # a deferred update completes under a fresh Request that
        # carries the submitted EdgeUpdate object
        ours = {id(request) for request in requests}
        ours |= {id(request.update) for request in requests if request.update}
        retained = [
            obj for obj in gc.get_objects()
            if isinstance(obj, ServedRequest)
            and (id(obj.request) in ours or id(obj.request.update) in ours)
        ]
        assert retained == []

    def test_stop_flushes_pending(self):
        graph = make_graph()
        runtime = make_runtime(
            make_algorithm(graph), workers=1, epsilon_r=100.0,
            queue_capacity=0, drain_idle=False,
        )
        runtime.start()
        runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(0, 9)))
        runtime.stop()  # flush=True default
        assert graph.has_edge(0, 9)
        assert runtime.pending_updates == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_runtime(workers=0)
        with pytest.raises(ValueError):
            make_runtime(deadline_s=0.0)

    def test_wait_and_response_histograms(self):
        metrics = MetricsRegistry()
        runtime = make_runtime(workers=1, queue_capacity=0, metrics=metrics)
        with runtime:
            runtime.serve([Request(0.0, QUERY, source=0)])
        hist = metrics.snapshot()["histograms"]
        assert hist["serving.wait"]["count"] == 1
        assert hist["serving.response"]["count"] == 1


class TestQuotaIntegration:
    def test_make_runtime_shares_config(self):
        graph = make_graph()
        system = QuotaSystem(make_algorithm(graph), epsilon_r=7.0)
        runtime = system.make_runtime(workers=3, queue_capacity=11)
        assert runtime.algorithm is system.algorithm
        assert runtime.epsilon_r == 7.0
        assert runtime.workers == 3
        assert runtime.metrics is system.metrics
        assert runtime.controller is None

    def test_make_runtime_serves(self):
        system = QuotaSystem(make_algorithm(), epsilon_r=5.0)
        runtime = system.make_runtime(workers=1, queue_capacity=0)
        with runtime:
            report = runtime.serve([
                Request(0.0, QUERY, source=0),
                Request(0.0, UPDATE, update=EdgeUpdate(0, 9)),
            ])
        assert all(r.status == OK for r in report.records)

    def test_reconfigure_without_controller_is_noop(self):
        runtime = make_runtime()
        with runtime:
            assert runtime.reconfigure(1.0, 1.0) is None
