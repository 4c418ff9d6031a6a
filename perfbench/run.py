"""Serving benchmark: open-loop HTTP load on ``python -m repro.cli serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-compute --seed 1 --seconds 36 --trace 0

``--trace 0`` launches ``serve`` three times (``setup_s`` is the median
set-up time), then replays a seeded open-loop Poisson schedule against
the last server for ``--seconds`` seconds and prints the end-to-end
metrics; request latencies go to the record.  ``--trace 1`` replays
the first half of the same schedule against a plain server (``/proc``
and ``/metrics`` figures, untraced latency) and the whole of it against
one with span wrappers in every process, and prints the per-layer
metrics, the client-side latencies and the tracing overhead.

Latencies are taken over the requests due in the phase's quiet slots,
those with no more host steal time than the median slot (see
``perfbench/steal.py``).  They are per-layer figures, not end-to-end
metrics with a bound: on a shared 2-vCPU host, periods of high steal
lasting minutes doubled them in a third of a set's runs, whatever the
slots, while CPU per request moved by a tenth.

Either way a seeded sample of answers is checked against exact PPR and
every shard must end healthy at the final fabric version with no order
faults or serving faults.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
when every check passed, 1 when one failed and 2 on a usage error.
Each run's full record, with a host block, is appended to
``.perfbench_out/results.jsonl``; ``perfbench/compare.py`` diffs two
such files.  Workloads are defined in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import loadgen
import proctree
import stats
import steal
from ledger import Ledger, load_spans
from schedule import QUERY, UPDATE, SourceSampler, build_schedule
from server import HOST, Serve, get_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: serve launches per untraced run; setup_s is their median
SETUPS = 3
#: unmeasured load after start-up (fills caches, finishes lazy set-up)
WARMUP_S = 1.0
#: answers per server checked against exact PPR
VERIFY_SAMPLE = 24
#: queries the mean latency needs from the quiet slots (or every query, if
#: fewer): under updates and Seed flushes latency is broad (write-churn
#: p90 is 1.6-2x its p50), and the 110 queries in the quiet half of a
#: write-churn run left its mean spreading 0.26 between runs
MEAN_SAMPLES = 200
#: a run is invalid when the generator's own loop ran later than this
#: share of the workload's latency limit (p95 over every request sent)
LOOP_LATE_SHARE = 0.25


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_block() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "platform": platform.platform(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"  # a checkout without git metadata


def p(values: list[float], q: float) -> float:
    return stats.percentile(values, q)


def p_or_zero(values: list[float], q: float) -> float:
    """Percentile of a layer's samples; 0 when the layer did no work."""
    return stats.percentile(values, q) if values else 0.0


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90 the sample supports, with its label."""
    for q in (99, 95, 90):
        if len(values) >= stats.required_samples(q):
            return f"p{q}", p(values, q)
    return "p50", p(values, 50)


class Bench:
    """One workload at one seed: its graph, schedules and servers."""

    def __init__(self, name: str, config: dict, seed: int, seconds: float, out: Path):
        from repro.evaluation.datasets import get_dataset

        self.name = name
        self.config = config
        self.seed = seed
        self.seconds = seconds
        self.out = out
        spec = get_dataset(config["dataset"])
        graph = spec.build(seed=seed)
        self.num_nodes = graph.num_nodes
        self.edges = sorted(graph.edges())
        self.walk_cap = spec.walk_cap
        self.concurrency = nproc()
        self.sampler = SourceSampler(
            self.num_nodes, config["sources"], config.get("zipf_s", 1.0), seed
        )
        self.sent: list[loadgen.Outcome] = []
        self.notes: list[str] = []

    def schedule(self, tag: str, duration_s: float):
        return build_schedule(
            tag=f"{self.name}/{tag}",
            seed=self.seed,
            duration_s=duration_s,
            lambda_q=self.config["lambda_q"],
            lambda_u=self.config["lambda_u"],
            sources=self.sampler,
            base_edges=self.edges,
        )

    def serve(self, trace_dir: Path | None = None) -> Serve:
        env = {"PERFBENCH_TRACE_DIR": str(trace_dir)} if trace_dir else None
        return Serve(
            ROOT,
            [*self.config["flags"], "--seed", str(self.seed)],
            self.out / f"serve-{os.getpid()}.log",
            traced=trace_dir is not None,
            env=env,
        )

    def stop(self, server: Serve) -> None:
        """Stop a server; a hung shutdown is recorded, not fatal."""
        if not server.stop():
            self.notes.append("serve did not exit within 10 s of SIGINT and was killed")
            print(f"perfbench: {self.notes[-1]}", file=sys.stderr)

    def replay(self, server: Serve, items) -> list[loadgen.Outcome]:
        outcomes = loadgen.run(HOST, server.port, items, self.concurrency)
        self.sent.extend(outcomes)
        return outcomes


# ----------------------------------------------------------------------
# one server's lifetime: start state, end state, correctness
# ----------------------------------------------------------------------
class Fleet:
    """A started server plus what the benchmark sent it."""

    def __init__(self, bench: Bench, server: Serve) -> None:
        self.bench = bench
        self.server = server
        status, health = get_json(server.port, "/healthz")
        versions = {s["graph_version"] for s in health["shards"]}
        if status != 200 or len(versions) != 1:
            raise RuntimeError(f"fleet not uniform at start: {health}")
        self.base_version = versions.pop()
        self.outcomes: list[loadgen.Outcome] = []
        self.problems: list[str] = []
        self.bad: set[int] = set()  # ids of outcomes failing verification
        self.checked = 0

    def replay(self, items) -> list[loadgen.Outcome]:
        outcomes = self.bench.replay(self.server, items)
        self.outcomes.extend(outcomes)
        return outcomes

    def final_state(self) -> None:
        """Every shard healthy at the final fabric version, no faults."""
        deadline = time.perf_counter() + 15.0
        while True:
            status, health = get_json(self.server.port, "/healthz")
            fabric = health.get("fabric_version", -1)
            settled = status == 200 and all(
                s.get("pending_updates") == 0 and s.get("applied_broadcasts") == fabric
                for s in health["shards"]
            )
            if settled or time.perf_counter() > deadline:
                break
            time.sleep(0.05)
        if not settled:
            self.problems.append(f"fleet did not settle at version {fabric}: {health}")
        for shard in health.get("shards", []):
            if shard.get("graph_version") != self.base_version + fabric:
                self.problems.append(
                    f"shard {shard.get('shard_id')} at graph version "
                    f"{shard.get('graph_version')}, expected {self.base_version + fabric}"
                )
        _, snapshot = get_json(self.server.port, "/metrics")
        if snapshot["manager"]["counters"].get("shard.order_faults", 0):
            self.problems.append("shard.order_faults > 0")
        for shard_id, shard in snapshot["shards"].items():
            if shard["metrics"]["counters"].get("serving.faults", 0):
                self.problems.append(f"shard {shard_id}: serving.faults > 0")
        if len(snapshot["shards"]) != len(health.get("shards", [])):
            self.problems.append("a shard did not report metrics")

    def verify(self) -> None:
        """Check a seeded sample of answers against exact PPR."""
        from verify import Replica, guaranteed_delta, verify

        updates: dict[int, tuple[int, int]] = {}
        answers: list[loadgen.Outcome] = []
        for o in self.outcomes:
            if not o.answered:
                continue
            if o.item.kind == UPDATE:
                updates[o.body["version"]] = (o.item.a, o.item.b)
            elif o.body.get("source") != o.item.a:
                self.bad.add(id(o))
                self.problems.append(f"asked source {o.item.a}, answered {o.body.get('source')}")
            else:
                answers.append(o)
        replica = Replica(self.bench.num_nodes, self.bench.edges)
        if replica.base_version != self.base_version:
            self.problems.append(
                f"replica base version {replica.base_version} != served {self.base_version}"
            )
            return
        self.checked, failures = verify(
            replica,
            [(o.item.a, o.body["version"], o.body["values"]) for o in answers],
            updates,
            guaranteed_delta(self.bench.num_nodes, self.bench.walk_cap),
            VERIFY_SAMPLE,
            self.bench.seed,
        )
        for index, message in failures:
            self.bad.add(id(answers[index]))
            self.problems.append(message)

    def good(self, o: loadgen.Outcome) -> bool:
        return o.answered and id(o) not in self.bad


def _tree(server: Serve) -> tuple[int, list[int], list[int]]:
    """(front door pid, shard pids, every pid) of a serve tree."""
    pids = server.pids()
    shards = []
    for pid in pids[1:]:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"spawn_main" in handle.read():
                    shards.append(pid)
        except OSError:
            pass
    return pids[0], shards, pids


def _hwm_mb(pids: list[int]) -> float:
    return sum(proctree.status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def _shard_hist(snapshot: dict, name: str) -> tuple[float, float]:
    count = total = 0.0
    for shard in snapshot["shards"].values():
        h = shard["metrics"]["histograms"].get(name)
        if h:
            count += h["count"]
            total += h["total"]
    return count, total


def _shard_counter(snapshot: dict, name: str) -> float:
    return sum(s["metrics"]["counters"].get(name, 0) for s in snapshot["shards"].values())


def _hist_delta_ms(before: dict, after: dict, name: str) -> tuple[float, float]:
    """(count, mean ms) of a shard histogram between two snapshots."""
    c0, t0 = _shard_hist(before, name)
    c1, t1 = _shard_hist(after, name)
    count = c1 - c0
    return count, ((t1 - t0) / count * 1e3 if count else 0.0)


class Phase:
    """Warm-up, then the measured replay, with /proc and /metrics deltas."""

    def __init__(self, fleet: Fleet, items) -> None:
        self.fleet = fleet
        fleet.replay(fleet.bench.schedule("warmup", WARMUP_S))
        front, shards, pids = _tree(fleet.server)
        _, self.metrics_before = get_json(fleet.server.port, "/metrics")
        cpu_before = proctree.cpu_by_pid(pids)
        self.start = time.perf_counter()
        with steal.Sampler() as self.steal:
            self.outcomes = fleet.replay(items)
        self.steal.classify(self._enough_quiet)
        cpu_after = proctree.cpu_by_pid(pids)
        _, self.metrics_after = get_json(fleet.server.port, "/metrics")
        self.cpu_s = {pid: cpu_after[pid] - cpu_before[pid] for pid in cpu_after}
        self.front = front
        self.shards = shards
        self.pids = pids

    def _enough_quiet(self, quiet: list[bool]) -> bool:
        """Whether the quiet slots hold enough answers: 20 of each kind
        for its p50 and ``MEAN_SAMPLES`` queries for the mean, or every
        answer of a kind that has fewer."""
        need = {UPDATE: stats.required_samples(50), QUERY: MEAN_SAMPLES}
        total: Counter[str] = Counter()
        kept: Counter[str] = Counter()
        for o in self.outcomes:
            if self.fleet.good(o):
                total[o.item.kind] += 1
                kept[o.item.kind] += quiet[self.steal.slot_of(o.due)]
        return all(kept[kind] >= min(need[kind], total[kind]) for kind in total)

    def answered(self) -> int:
        return sum(self.fleet.good(o) for o in self.outcomes) or 1

    def cpu_ms_per_req(self, pids: list[int]) -> float:
        return sum(self.cpu_s.get(pid, 0.0) for pid in pids) * 1e3 / self.answered()

    def latencies_ms(self, kind: str, quiet: bool = True, until_s: float = float("inf")) -> list[float]:
        """Latencies of answered requests due before ``until_s``.

        With ``quiet``, only requests due in a quiet slot count.
        """
        return [
            o.latency_s * 1e3
            for o in self.outcomes
            if o.item.kind == kind
            and o.item.due_s < until_s
            and self.fleet.good(o)
            and (not quiet or self.steal.is_quiet(o.due))
        ]

    def latency_summary(self, quiet: bool = True) -> dict[str, float]:
        """Query p50 and mean, update p50 (ms) of answered requests."""
        queries = self.latencies_ms(QUERY, quiet)
        return {
            "query_p50_ms": p(queries, 50),
            "query_mean_ms": stats.mean(queries),
            "update_p50_ms": p(self.latencies_ms(UPDATE, quiet), 50),
        }

    def counts(self) -> dict:
        good = sum(self.fleet.good(o) for o in self.outcomes)
        return {"sent": len(self.outcomes), "answered": good, "failed": len(self.outcomes) - good}

    def rss(self) -> tuple[float, float, float]:
        """Peak RSS (MB): whole tree, front door, shards."""
        return _hwm_mb(self.pids), _hwm_mb([self.front]), _hwm_mb(self.shards)


def loop_late_p95_ms(outcomes: list[loadgen.Outcome]) -> float:
    return p([o.loop_late_s * 1e3 for o in outcomes], 95)


class Laps:
    """Wall time of a run's stages, for the record."""

    def __init__(self) -> None:
        self.marks: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.marks[name] = now - self._last
        self._last = now


# ----------------------------------------------------------------------
# --trace 0
# ----------------------------------------------------------------------
def run_untraced(bench: Bench) -> tuple[dict, dict, list[Fleet]]:
    config = bench.config
    laps = Laps()
    setups = []
    for _ in range(SETUPS - 1):
        server = bench.serve()
        try:
            setups.append(server.start())
        finally:
            server.kill()
    server = bench.serve()
    try:
        setups.append(server.start())
        laps.lap("setups")
        fleet = Fleet(bench, server)
        phase = Phase(fleet, bench.schedule("main", bench.seconds))
        laps.lap("measured")
        fleet.final_state()
        rss_total, _, _ = phase.rss()
    finally:
        bench.stop(server)
    laps.lap("stop")
    fleet.verify()
    laps.lap("verify")

    all_queries = phase.latencies_ms(QUERY, quiet=False)
    all_updates = phase.latencies_ms(UPDATE, quiet=False)
    attempted_q = sum(o.item.kind == QUERY for o in phase.outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "query_slo_frac": sum(v <= config["latency_limit_ms"] for v in all_queries) / attempted_q,
        "ok_frac": sum(fleet.good(o) for o in phase.outcomes) / len(phase.outcomes),
        "server_cpu_ms_per_req": phase.cpu_ms_per_req(phase.pids),
        "server_rss_mb": rss_total,
    }
    query_tail, update_tail = tail(all_queries), tail(all_updates)
    details = {
        "timing_s": laps.marks,
        "setups_s": setups,
        "measured": phase.counts(),
        "samples": {
            "quiet": {"queries": len(phase.latencies_ms(QUERY)), "updates": len(phase.latencies_ms(UPDATE))},
            "whole_phase": {"queries": len(all_queries), "updates": len(all_updates)},
        },
        "steal": {
            "share": phase.steal.steal_share(),
            "quiet_slot_share": phase.steal.quiet_share(),
            "quiet_share": phase.steal.quiet_steal_share(),
        },
        "latency_quiet": phase.latency_summary(),
        "latency_whole_phase": phase.latency_summary(quiet=False),
        f"query_{query_tail[0]}_ms": query_tail[1],
        f"update_{update_tail[0]}_ms": update_tail[1],
    }
    return metrics, details, [fleet]


# ----------------------------------------------------------------------
# --trace 1
# ----------------------------------------------------------------------
def collect_spans(phase: Phase, trace_dir: Path, timeout_s: float = 30.0) -> list[dict]:
    """Have the front door and every shard write their spans; load them."""
    pids = [phase.front, *phase.shards]
    for pid in pids:
        os.kill(pid, signal.SIGUSR1)
    paths = [trace_dir / f"spans-{pid}.json" for pid in pids]
    deadline = time.perf_counter() + timeout_s
    while not all(path.exists() for path in paths):
        if time.perf_counter() > deadline:
            raise RuntimeError(f"span dumps missing in {trace_dir}")
        time.sleep(0.05)
    return load_spans(paths)


def run_traced(bench: Bench) -> tuple[dict, dict, list[Fleet]]:
    laps = Laps()
    items = bench.schedule("main", bench.seconds)
    # the untraced reference replays the first half of the same schedule
    half_s = bench.seconds / 2
    server = bench.serve()
    try:
        server.start()
        plain = Fleet(bench, server)
        ref = Phase(plain, [item for item in items if item.due_s < half_s])
        plain.final_state()
        _, front_rss, shard_rss = ref.rss()
    finally:
        bench.stop(server)
    plain.verify()
    laps.lap("untraced")

    trace_dir = bench.out / f"trace-{os.getpid()}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    server = bench.serve(trace_dir)
    try:
        server.start()
        traced = Fleet(bench, server)
        phase = Phase(traced, items)
        traced.final_state()
        dumps = collect_spans(phase, trace_dir)
    finally:
        bench.stop(server)
        shutil.rmtree(trace_dir, ignore_errors=True)
    traced.verify()
    ledger = Ledger(dumps, since=phase.start)
    laps.lap("traced")

    before, after = ref.metrics_before, ref.metrics_after
    _, query_service = _hist_delta_ms(before, after, "service.query")
    _, update_service = _hist_delta_ms(before, after, "service.update")
    flushes, flush_ms = _hist_delta_ms(before, after, "service.flush")

    def counter_delta(name: str) -> float:
        return _shard_counter(after, name) - _shard_counter(before, name)

    hits, misses = counter_delta("cache.hits"), counter_delta("cache.misses")
    ref_counts = ref.counts()
    ref_p50 = p(ref.latencies_ms(QUERY, quiet=False), 50)
    traced_p50 = p(phase.latencies_ms(QUERY, quiet=False, until_s=half_s), 50)
    wait = ledger.wait_ms()
    client = ref.latency_summary()
    metrics = {
        "client.query_p50_ms": client["query_p50_ms"],
        "client.query_mean_ms": client["query_mean_ms"],
        "client.update_p50_ms": client["update_p50_ms"],
        "api.self_ms": p(ledger.client_minus_ms("manager.query", phase.outcomes), 50),
        "api.http_ms": p(ledger.client_minus_ms("frontdoor.query", phase.outcomes), 50),
        "api.cpu_ms_per_req": ref.cpu_ms_per_req([ref.front]),
        "api.shed_frac": sum(o.status in (503, 504) for o in ref.outcomes) / len(ref.outcomes),
        "shard.roundtrip_ms": p(ledger.durations_ms("manager.query"), 50),
        "shard.ipc_ms": p(ledger.ipc_ms(), 50),
        "shard.broadcast_ms": p(ledger.durations_ms("manager.update"), 50),
        "shard.cpu_ms_per_req": ref.cpu_ms_per_req(ref.shards),
        "serving.wait_ms": p(wait, 50),
        "serving.wait_p90_ms": p(wait, 90),
        "serving.query_service_ms": query_service,
        "serving.update_service_ms": update_service,
        "seed.flushes": flushes,
        "seed.flush_ms": flush_ms,
        "cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "cache.stale_evictions": counter_delta("cache.evictions_staleness"),
        "ppr.query_ms": p(ledger.durations_ms("ppr.query"), 50),
        "ppr.push_ms": p(ledger.durations_ms("ppr.push"), 50),
        "ppr.pushes_per_query": ledger.attr_mean("ppr.push", "pushes"),
        "ppr.walk_ms": p(ledger.durations_ms("ppr.walk"), 50),
        "ppr.walks_per_query": ledger.attr_mean("ppr.walk", "walks"),
        "ppr.index_update_ms": p_or_zero(ledger.durations_ms("ppr.index_update"), 50),
        "index.walks_resampled": float(
            sum(s[5]["resampled"] for s in ledger.spans("ppr.index_update"))
        ),
        "graph.update_ms": p(ledger.self_ms("ppr.update"), 50),
        "csr.delta_applies": float(ledger.counter_total("csr_delta_applies", phase.shards)),
        "csr.rebuilds": float(ledger.counter_total("csr_rebuilds", phase.shards)),
        "mem.frontdoor_rss_mb": front_rss,
        "mem.shard_rss_mb": shard_rss,
        "loadgen.loop_late_p95_ms": loop_late_p95_ms(bench.sent),
        "loadgen.sent": float(ref_counts["sent"]),
        "loadgen.answered": float(ref_counts["answered"]),
        "loadgen.failed": float(ref_counts["failed"]),
        "trace.overhead_ms": traced_p50 - ref_p50,
        "trace.overhead_frac": (traced_p50 - ref_p50) / ref_p50,
    }
    details = {
        "timing_s": laps.marks,
        "untraced": ref_counts,
        "traced": phase.counts(),
        "untraced_query_p50_ms": ref_p50,
        "traced_query_p50_ms": traced_p50,
        "joined_share": ledger.joined_share(phase.outcomes),
    }
    return metrics, details, [plain, traced]


# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config[kind]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # serve stops on SIGINT, and inherits an ignored SIGINT (as a shell
    # gives a background job); a plain kill of the benchmark still
    # unwinds the finally blocks that stop the servers
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload, workloads[args.workload], args.seed, args.seconds, OUT)
    metrics, details, fleets = (run_traced if args.trace else run_untraced)(bench)
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    late_ms = loop_late_p95_ms(bench.sent)
    late_limit_ms = LOOP_LATE_SHARE * bench.config["latency_limit_ms"]
    valid = late_ms <= late_limit_ms
    if not valid:
        print(f"perfbench: INVALID run: generator loop p95 lateness {late_ms:.2f} ms "
              f"> {late_limit_ms:g} ms", file=sys.stderr)
    problems = [m for fleet in fleets for m in fleet.problems]
    for message in problems:
        print(f"perfbench: correctness: {message}", file=sys.stderr)
    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_block(),
        "correct": correct,
        "problems": problems,
        "valid": valid,
        "loop_late_p95_ms": late_ms,
        "checked_answers": sum(f.checked for f in fleets),
        "notes": bench.notes,
        "metrics": metrics,
        "details": details,
    }
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    for name, value in metrics.items():
        print(f"{args.workload:>13}  {name:<26} {value:>12.4f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(bench.sent),
        "failed": sum(not fleet.good(o) for fleet in fleets for o in fleet.outcomes),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
