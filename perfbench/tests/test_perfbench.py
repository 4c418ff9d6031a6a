"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time

import pytest

import loadgen
import proctree
import stats
import steal
from schedule import QUERY, UPDATE, Item, SourceSampler, build_schedule

EDGES = [(0, 1), (1, 2), (2, 0), (3, 4)]


def _schedule(seed: int, dist: str = "zipf") -> list[Item]:
    return build_schedule(
        tag="test/main",
        seed=seed,
        duration_s=5.0,
        lambda_q=40.0,
        lambda_u=10.0,
        sources=SourceSampler(50, dist, 1.1, seed),
        base_edges=EDGES,
    )


@pytest.mark.parametrize("dist", ["uniform", "zipf"])
def test_same_seed_same_schedule(dist):
    first, again, other = _schedule(7, dist), _schedule(7, dist), _schedule(8, dist)
    assert first == again
    assert first != other
    assert [i.due_s for i in first] == sorted(i.due_s for i in first)
    kinds = {i.kind for i in first}
    assert kinds == {QUERY, UPDATE}
    assert all(i.a != i.b for i in first if i.kind == UPDATE)


def test_zipf_sources_concentrate_on_a_hot_set():
    sources = [i.a for i in _schedule(3, "zipf") if i.kind == QUERY]
    hottest = max(set(sources), key=sources.count)
    assert sources.count(hottest) > 5 * len(sources) / 50


@pytest.mark.parametrize("q, need", [(50, 20), (90, 100), (95, 200), (99, 1000)])
def test_percentile_refuses_thin_tails(q, need):
    values = [float(i) for i in range(need)]
    assert stats.percentile(values, q) == pytest.approx(q / 100 * (need - 1))
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:-1], q)


def test_spread_is_iqr_over_median():
    assert stats.relative_spread([1.0, 1.0, 1.0]) == 0.0
    q1, med, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (q3 - q1) / med


async def _stall_once_server(stall_s: float):
    """HTTP stub answering every request at once except the first."""
    calls = 0

    async def handle(reader, writer):
        nonlocal calls
        await reader.readuntil(b"\r\n\r\n")
        calls += 1
        if calls == 1:
            await asyncio.sleep(stall_s)
        body = json.dumps({"status": "ok", "source": 0, "version": 1}).encode()
        writer.write(
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
            % (len(body), body)
        )
        await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_latency_counts_from_due_time():
    stall_s = 0.3
    items = [Item(0.05 * i, QUERY, 0) for i in range(10)]

    async def scenario():
        server = await _stall_once_server(stall_s)
        port = server.sockets[0].getsockname()[1]
        try:
            return await loadgen.replay("127.0.0.1", port, items, concurrency=1)
        finally:
            server.close()
            await server.wait_closed()

    outcomes = asyncio.run(scenario())
    assert all(o.ok for o in outcomes)
    stalled, queued, late = outcomes[0], outcomes[1], outcomes[-1]
    assert stalled.latency_s >= stall_s
    # due 50 ms after the stall began: it waited for the slot, and that counts
    assert queued.latency_s >= stall_s - 0.05 - 0.01
    assert queued.done - queued.sent < 0.1  # its own exchange was fast
    assert queued.slot_wait_s > 0.2
    assert queued.loop_late_s < 0.05  # the generator itself kept time
    assert late.latency_s < 0.1  # the queue drained before the last one


def test_proc_accounting_covers_the_whole_tree():
    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass\ntime.sleep(30)"
    parent_code = (
        "import subprocess, sys, time\n"
        f"child = subprocess.Popen([sys.executable, '-c', {burn!r}])\n"
        "print(child.pid, flush=True)\n"
        "time.sleep(30)\n"
    )
    parent = subprocess.Popen([sys.executable, "-c", parent_code], stdout=subprocess.PIPE, text=True)
    try:
        child = int(parent.stdout.readline())
        deadline = time.time() + 10
        while proctree.cpu_seconds(child) < 0.25 and time.time() < deadline:
            time.sleep(0.05)
        pids = proctree.tree(parent.pid)
        assert pids[0] == parent.pid and child in pids
        assert sum(proctree.cpu_by_pid(pids).values()) >= 0.25
        assert all(proctree.status_kb(pid, "VmHWM") > 0 for pid in pids)
        assert os.getpid() not in pids
    finally:
        for pid in reversed(proctree.tree(parent.pid)):
            os.kill(pid, 9)
        parent.wait(10)
        parent.stdout.close()


def test_quiet_slots_have_at_most_the_median_steal():
    sampler = steal.Sampler()
    shares = [0.0, 0.2, 0.05, 0.0, 0.3, 0.0]
    sampler.slots = [(float(i), float(i + 1), s) for i, s in enumerate(shares)]
    sampler.classify()
    assert [sampler.is_quiet(i + 0.5) for i in range(6)] == [True, False, False, True, False, True]
    assert sampler.is_quiet(-1.0) and sampler.is_quiet(99.0)  # nearest slot
    assert sampler.quiet_share() == 0.5
    assert sampler.steal_share() == pytest.approx(sum(shares) / 6)
    # too few samples in the quiet half: the next quietest slots join
    sampler.classify(lambda quiet: sum(quiet) >= 5)
    assert [sampler.is_quiet(i + 0.5) for i in range(6)] == [True, True, True, True, False, True]
    # no steal at all (bare metal): every slot is quiet
    sampler.slots = [(float(i), float(i + 1), 0.0) for i in range(4)]
    sampler.classify()
    assert sampler.quiet_share() == 1.0


def test_sampler_covers_the_phase_in_slots():
    with steal.Sampler(slot_s=0.05) as sampler:
        time.sleep(0.3)
    starts = [start for start, _, _ in sampler.slots]
    assert len(starts) >= 3 and starts == sorted(starts)
    assert all(0.0 <= share <= 1.0 for _, _, share in sampler.slots)
    assert all(a[1] == b[0] for a, b in zip(sampler.slots, sampler.slots[1:]))


def test_correctness_gate_flags_a_wrong_answer():
    from repro.graph.generators import barabasi_albert_graph
    from repro.ppr.power_iteration import ppr_exact

    import verify

    graph = barabasi_albert_graph(200, attach=3, directed=True, seed=1)
    replica = verify.Replica(200, sorted(graph.edges()))
    exact = ppr_exact(replica.graph, 5, verify.ALPHA)
    delta = verify.guaranteed_delta(200, 2000)
    top = exact.top_k(10)
    assert verify.check_answer([list(e) for e in top], exact, delta) is None
    node, value = top[0]
    assert verify.check_answer([[node, value * 1.6]], exact, delta) is not None


def test_replica_replays_acknowledged_updates_to_a_version():
    import verify

    replica = verify.Replica(5, EDGES)
    base = replica.base_version
    replica.advance_to(base + 2, {1: (0, 1), 2: (3, 0)})
    assert not replica.graph.has_edge(0, 1) and replica.graph.has_edge(3, 0)
    with pytest.raises(LookupError):
        replica.advance_to(base + 3, {})


def test_compare_verdicts():
    from compare import verdict

    base = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    assert verdict(base, {s: v * 1.3 for s, v in base.items()}, "lower", 0.15) == "regression"
    assert verdict(base, {s: v * 1.05 for s, v in base.items()}, "lower", 0.15) == "within bound"
    assert verdict(base, {s: v * 0.8 for s, v in base.items()}, "lower", 0.15) == "better"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert verdict(base, noisy, "lower", 0.15) == "unresolved"
    assert verdict(base, {s: v * 1.3 for s, v in base.items()}, "higher", 0.15) == "better"


def test_compare_refuses_mixed_hosts(tmp_path):
    import compare

    def record(nproc):
        return json.dumps({
            "workload": "read-compute", "trace": 0, "seed": 1, "valid": True, "correct": True,
            "host": {"nproc": nproc, "platform": "p", "cpu": "c", "python": "3", "numpy": "2"},
            "metrics": {},
        })

    (tmp_path / "a.jsonl").write_text(record(2) + "\n")
    (tmp_path / "b.jsonl").write_text(record(4) + "\n")
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 2


def test_spans_nest_per_thread_and_join_their_request():
    from types import SimpleNamespace

    import tracing
    from ledger import Ledger

    tracing._spans.clear()

    @tracing.traced("ppr.push", lambda args, result: {"pushes": result})
    def push():
        time.sleep(0.002)
        return 7

    @tracing.traced("ppr.query", lambda args, result: {"source": args[0]})
    def query(source):
        push()
        time.sleep(0.002)

    query(5)
    request = SimpleNamespace(kind="query", source=5)
    record = SimpleNamespace(
        request=request, cached=False, version=3, response_s=0.05, status="ok",
        submitted_s=time.perf_counter() - 0.05, started_s=0.0, finished_s=0.0,
    )
    tracing._on_record(record)
    spans = {s[2]: s for s in tracing._spans}
    assert spans["ppr.push"][1] == spans["ppr.query"][0]
    assert spans["ppr.query"][1] == spans["serving.query"][0]
    assert spans["serving.query"][5]["service_s"] == spans["ppr.query"][4] - spans["ppr.query"][3]

    ledger = Ledger([{"pid": 1, "spans": tracing._spans, "global_metrics": {"counters": {}}}])
    query_ms = ledger.durations_ms("ppr.query")[0]
    push_ms = ledger.durations_ms("ppr.push")[0]
    assert ledger.self_ms("ppr.query")[0] == pytest.approx(query_ms - push_ms)
    assert ledger.wait_ms()[0] == pytest.approx(50.0 - query_ms)
    tracing._spans.clear()
