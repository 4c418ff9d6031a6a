"""``python -m repro.cli serve`` — stand up the sharded HTTP service.

Builds a dataset graph, spins up a :class:`~repro.shard.ShardManager`
(worker processes by default), wraps it in the asyncio front door, and
serves until SIGINT or SIGTERM, then stops the front door and the
fleet.  Both handlers are installed explicitly: a process started with
SIGINT ignored (as a shell starts a background job) would otherwise
never see Ctrl-C or ``kill -INT``.  Drift-driven reconfiguration is
armed whenever ``--quota`` is given (the workers then build calibrated
QuotaControllers at start).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from collections.abc import Sequence

from repro.api.frontdoor import DriftPolicy, FrontDoor
from repro.api.http import HttpServer
from repro.evaluation.datasets import get_dataset
from repro.ppr import ALGORITHMS
from repro.shard.backend import BACKENDS
from repro.shard.manager import ShardManager
from repro.shard.router import ROUTERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve PPR queries over HTTP from a sharded fleet",
    )
    parser.add_argument("--dataset", default="dblp")
    parser.add_argument(
        "--algorithm", default="FORA", choices=sorted(ALGORITHMS)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--backend", default="process", choices=BACKENDS)
    parser.add_argument("--router", default="hash", choices=ROUTERS)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--workers-per-shard", type=int, default=1,
        help="runtime worker threads inside each shard process",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="per-shard inflight bound before the front door sheds",
    )
    parser.add_argument(
        "--top-k", type=int, default=50,
        help="default vector truncation for /query responses",
    )
    parser.add_argument(
        "--budget-s", type=float, default=None,
        help="default per-query deadline budget in seconds",
    )
    parser.add_argument(
        "--cache-epsilon", type=float, default=None,
        help="enable the per-shard result cache at this epsilon_c",
    )
    parser.add_argument(
        "--epsilon-r", type=float, default=0.0,
        help="Seed reorder threshold per shard (0 = strict FCFS)",
    )
    parser.add_argument(
        "--quota", action="store_true",
        help="build per-shard QuotaControllers and arm drift-driven "
        "reconfiguration",
    )
    parser.add_argument("--lambda-q", type=float, default=None)
    parser.add_argument("--lambda-u", type=float, default=None)
    parser.add_argument(
        "--drift-threshold", type=float, default=0.5,
        help="relative rate drift that triggers a fleet re-solve",
    )
    return parser


async def _serve(args: argparse.Namespace) -> int:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    spec = get_dataset(args.dataset)
    graph = spec.build(seed=args.seed)
    lambda_q = args.lambda_q if args.lambda_q is not None else spec.lambda_q
    lambda_u = args.lambda_u if args.lambda_u is not None else spec.lambda_q
    print(
        f"building {args.shards}-shard fleet ({args.backend}) on "
        f"{spec.name} (n={graph.num_nodes}, m={graph.num_edges})...",
        flush=True,
    )
    manager = ShardManager(
        graph,
        args.shards,
        backend=args.backend,
        router=args.router,
        algorithm=args.algorithm,
        walk_cap=spec.walk_cap,
        seed=args.seed,
        epsilon_r=args.epsilon_r,
        workers_per_shard=args.workers_per_shard,
        cache_epsilon=args.cache_epsilon,
        use_controller=args.quota,
        max_inflight_per_shard=args.max_inflight,
    )
    drift = (
        DriftPolicy(
            lambda_q=lambda_q,
            lambda_u=lambda_u,
            threshold=args.drift_threshold,
        )
        if args.quota
        else None
    )
    frontdoor = FrontDoor(
        manager,
        default_top_k=args.top_k,
        default_budget_s=args.budget_s,
        drift=drift,
    )
    server = HttpServer(frontdoor, args.host, args.port)
    try:
        await server.start()
        print(
            f"serving on http://{args.host}:{server.port}  "
            f"(endpoints: /query /update /reconfigure /healthz /metrics)",
            flush=True,
        )
        await stop.wait()
        print("signal received; stopping", file=sys.stderr, flush=True)
    finally:
        await server.stop()
        manager.stop()
    print("fleet stopped", file=sys.stderr, flush=True)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    return asyncio.run(_serve(build_parser().parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
