"""The shared virtual-time scheduling core and its charging rules."""

import pytest

from repro.core.seed import SeedQueue
from repro.core.system import QuotaSystem
from repro.graph import DynamicGraph, EdgeUpdate
from repro.obs import MetricsRegistry
from repro.ppr import Fora, PPRParams
from repro.queueing import FCFSQueueSimulator, generate_workload
from repro.queueing.scheduler import ModeledService, VirtualTimeScheduler
from repro.queueing.workload import QUERY, UPDATE, Request, Workload
from repro.scenarios.oracles import fcfs_reference


def make_graph():
    return DynamicGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0)]
    )


def service(request):
    """Queries cost 1.0; an update of edge (u, v) costs v / 10."""
    if request.kind == QUERY:
        return 1.0
    return request.update.v / 10


def run_modeled(requests, epsilon_r, metrics=None):
    graph = make_graph()
    return VirtualTimeScheduler(
        ModeledService(service, lambda update: update.apply(graph)),
        seed_queue=SeedQueue(graph, 0.2, epsilon_r),
        metrics=metrics,
    ).run(requests)


def updates(result):
    return sorted(
        (c for c in result.completed if c.kind == UPDATE),
        key=lambda c: c.start,
    )


class TestFlushCharging:
    def test_forced_flush_charges_each_update_in_turn(self):
        """A forced flush applies the deferred updates back to back,
        each with its own service time; the query starts after the
        last one."""
        requests = [
            Request(0.0, QUERY, source=2),  # busy until 1.0
            Request(0.1, UPDATE, update=EdgeUpdate(0, 5)),
            Request(0.2, UPDATE, update=EdgeUpdate(1, 7)),
            Request(0.3, UPDATE, update=EdgeUpdate(2, 9)),
            Request(0.4, QUERY, source=2),  # tiny budget: must flush
        ]
        metrics = MetricsRegistry()
        result = run_modeled(requests, epsilon_r=1e-9, metrics=metrics)
        spans = [(c.start, c.finish, c.service) for c in updates(result)]
        assert spans == pytest.approx(
            [(1.0, 1.5, 0.5), (1.5, 2.2, 0.7), (2.2, 3.1, 0.9)]
        )
        query = max(
            (c for c in result.completed if c.kind == QUERY),
            key=lambda c: c.start,
        )
        assert query.start == pytest.approx(3.1)
        flush = metrics.histogram("service.flush")
        assert flush.count == 1
        assert flush.mean() == pytest.approx(2.1)

    def test_final_drain_charges_each_update_in_turn(self):
        requests = [
            Request(0.0, QUERY, source=2),  # busy until 1.0
            Request(0.1, UPDATE, update=EdgeUpdate(0, 5)),
            Request(0.2, UPDATE, update=EdgeUpdate(1, 7)),
        ]
        result = run_modeled(requests, epsilon_r=100.0)
        spans = [(c.start, c.finish) for c in updates(result)]
        assert spans == pytest.approx([(1.0, 1.5), (1.5, 2.2)])

    def test_measured_flush_is_sequential(self):
        """QuotaSystem charges a forced flush by the same rule: each
        flushed update gets its own measured span, back to back."""
        requests = [Request(0.0, QUERY, source=2)]
        requests += [
            Request(1e-7 * (i + 1), UPDATE, update=EdgeUpdate(i, 8 + i))
            for i in range(3)
        ]
        requests.append(Request(4e-7, QUERY, source=2))
        system = QuotaSystem(
            Fora(make_graph(), PPRParams(walk_cap=100)),
            epsilon_r=1e-9,
            metrics=MetricsRegistry(),
        )
        result = system.process(Workload(requests, 1.0, 2.0, 3.0))
        flushed = updates(result)
        assert len(flushed) == 3
        for before, after in zip(flushed, flushed[1:]):
            assert after.start == before.finish
        for c in flushed:
            assert c.finish == pytest.approx(c.start + c.service)
        second_query = max(
            (c for c in result.completed if c.kind == QUERY),
            key=lambda c: c.start,
        )
        assert second_query.start == flushed[-1].finish


class TestFcfsFrontEnd:
    @pytest.mark.parametrize("servers", [1, 3])
    def test_matches_independent_reference(self, servers):
        graph = make_graph()
        workload = generate_workload(graph, 30.0, 30.0, 2.0, rng=4)
        result = FCFSQueueSimulator(
            service, servers=servers, modeled=True
        ).run(workload)
        reference = fcfs_reference(workload, service, servers=servers)

        def timeline(r):
            return sorted((c.arrival, c.start, c.finish) for c in r.completed)

        assert timeline(result) == pytest.approx(timeline(reference))

    def test_arrival_hook_charges_earliest_server(self):
        """The hook's returned free time delays the next request."""
        requests = [Request(0.0, QUERY, source=0), Request(0.5, QUERY, source=1)]
        result = VirtualTimeScheduler(
            ModeledService(lambda r: 1.0),
            on_arrival=lambda request, free: max(free, request.arrival) + 0.25,
        ).run(requests)
        starts = [c.start for c in result.completed]
        assert starts == pytest.approx([0.25, 1.5])
