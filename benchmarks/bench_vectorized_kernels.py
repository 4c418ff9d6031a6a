"""Extension bench: vectorized frontier/batched push kernels.

Three views of ``repro.ppr.kernels`` (the ``engine=`` switch) and its
push-batch residency rule:

1. **Equivalence oracle** — >= 1000 randomized cases (packed and
   slack-patched CSR views, dangling nodes, swept ``r_max``).  In each,
   the frontier kernel, a whole batch, a batch split into
   :func:`~repro.ppr.kernels.plan_chunks` sub-batches of a randomized
   size, and the batch as the residency rule routes it (sequential or
   chunked) must all match the pure-Python synchronous reference
   bit-for-bit; and SpeedPPR's :func:`~repro.ppr.kernels.power_phase`
   must match dense power iteration (same sweep count, 1e-12 absolute
   tolerance: the summation order differs).  Any mismatch fails the
   bench.
2. **Frontier throughput** — scalar deque push vs the whole-frontier
   kernel on BA/ER graphs (up to n = 20k).  Both schedules run to the
   same residue threshold; the table reports wall-clock per query,
   pushes/s, and the speedup.  The scalar deque does *fewer* pushes
   (Gauss–Seidel propagates fresh residue immediately), so the honest
   headline is wall-clock, with push counts printed alongside.
3. **Batched push** — serving B same-snapshot sources as one
   ``(B, n)`` batch vs B sequential frontier pushes, across batch
   sizes including B >= 8.  One sweep loop drives all rows, so per-
   sweep numpy dispatch is amortized — a real win while the B x n
   state stays cache-resident (small/mid graphs).  On large graphs
   sequential pushes keep one cache-hot (n,) state each and the batch
   loses it back; those honest losing cells are reported too, along
   with a ``rule`` column that executes
   :func:`~repro.ppr.kernels.push_batch_size` for the same cell and
   must track the better static choice everywhere (the rule caps the
   batch to the cache-resident budget and splits the rest by
   locality).

Run as a script (CI smoke: ``python benchmarks/bench_vectorized_kernels.py
--quick``) or through pytest (``pytest benchmarks/bench_vectorized_kernels.py``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from benchmarks.common import bench_seed, scoped
from repro.evaluation import banner, format_table
from repro.graph import DynamicGraph, barabasi_albert_graph, erdos_renyi_graph
from repro.ppr import csr_view, forward_push
from repro.ppr.kernels import (
    batched_frontier_push,
    chunked_batch_push,
    frontier_push,
    power_phase,
    push_batch_size,
    reference_frontier_push,
)
from repro.ppr.power_iteration import transition_matrix

ALPHA = 0.2


def run_rule(view, sources, r_max):
    """Push ``sources`` as the residency rule routes them.

    Returns ``(reserve, residue, b_eff)`` with ``(B, n)`` matrices in
    input order; ``b_eff == 1`` means sequential frontier pushes.
    """
    b_eff = push_batch_size(view.n, len(sources), ALPHA, r_max)
    if b_eff > 1:
        batch = chunked_batch_push(view, sources, ALPHA, r_max, b_eff)
        return batch.reserve, batch.residue, b_eff
    singles = [frontier_push(view, int(s), ALPHA, r_max) for s in sources]
    reserve = np.stack([p.reserve for p in singles])
    residue = np.stack([p.residue for p in singles])
    return reserve, residue, b_eff


# ----------------------------------------------------------------------
# 1. equivalence oracle
# ----------------------------------------------------------------------
def random_case_view(rng) -> tuple:
    """A random small graph view: packed or slack-patched, with
    isolated and dangling nodes left in on purpose."""
    n = int(rng.integers(4, 16))
    graph = DynamicGraph(num_nodes=n)
    for _ in range(int(rng.integers(0, 4 * n))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    if rng.random() < 0.5:
        # materialize the packed store, then patch rows in place so the
        # fresh view carries slack slots (indptr[t+1] != end of row t)
        csr_view(graph)
        for _ in range(int(rng.integers(1, n))):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return csr_view(graph), n


def power_case_matches(view, source: int, stop_mass: float) -> bool:
    """``power_phase`` on raw rows vs dense power iteration."""
    residue = np.zeros(view.n)
    residue[source] = 1.0
    reserve, residue, sweeps = power_phase(
        view, residue, np.zeros(view.n), ALPHA, stop_mass
    )
    matrix_t = transition_matrix(view).T.toarray()
    dense_residue = np.zeros(view.n)
    dense_residue[source] = 1.0
    dense_reserve = np.zeros(view.n)
    dense_sweeps = 0
    while dense_residue.sum() > stop_mass and dense_sweeps < 200:
        dense_reserve += ALPHA * dense_residue
        dense_residue = (1.0 - ALPHA) * (matrix_t @ dense_residue)
        dense_sweeps += 1
    return (
        sweeps == dense_sweeps
        and np.allclose(reserve, dense_reserve, rtol=0.0, atol=1e-12)
        and np.allclose(residue, dense_residue, rtol=0.0, atol=1e-12)
    )


def equivalence_oracle(cases: int, seed: int) -> tuple[int, int]:
    """Run ``cases`` randomized comparisons; return (cases, mismatches)."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(cases):
        view, n = random_case_view(rng)
        r_max = 10.0 ** float(rng.uniform(-6, -1))
        b = int(rng.integers(1, 6))
        sources = rng.integers(0, n, size=b)
        want = [
            reference_frontier_push(view, int(s), ALPHA, r_max)
            for s in sources
        ]
        single = frontier_push(view, int(sources[0]), ALPHA, r_max)
        whole = batched_frontier_push(view, sources, ALPHA, r_max)
        chunked = chunked_batch_push(
            view, sources, ALPHA, r_max, int(rng.integers(1, b + 1))
        )
        routed_res, routed_rem, _ = run_rule(view, sources, r_max)
        ok = (
            np.array_equal(single.reserve, want[0].reserve)
            and np.array_equal(single.residue, want[0].residue)
            and single.pushes == want[0].pushes
        )
        for reserve, residue in (
            (whole.reserve, whole.residue),
            (chunked.reserve, chunked.residue),
            (routed_res, routed_rem),
        ):
            ok = ok and all(
                np.array_equal(reserve[i], w.reserve)
                and np.array_equal(residue[i], w.residue)
                for i, w in enumerate(want)
            )
        stop_mass = 10.0 ** float(rng.uniform(-6, -1))
        ok = ok and power_case_matches(view, int(sources[0]), stop_mass)
        if not ok:
            mismatches += 1
    return cases, mismatches


# ----------------------------------------------------------------------
# 2. frontier throughput
# ----------------------------------------------------------------------
def throughput_graphs(quick: bool):
    seed = bench_seed()
    if quick:
        yield "BA n=20k", barabasi_albert_graph(20_000, attach=3, seed=seed)
        yield "ER n=10k", erdos_renyi_graph(
            10_000, m=50_000, directed=True, seed=seed + 1
        )
    else:
        yield "BA n=20k", barabasi_albert_graph(20_000, attach=3, seed=seed)
        yield "BA n=50k", barabasi_albert_graph(50_000, attach=3, seed=seed)
        yield "ER n=10k", erdos_renyi_graph(
            10_000, m=50_000, directed=True, seed=seed + 1
        )
        yield "ER n=40k", erdos_renyi_graph(
            40_000, m=200_000, directed=True, seed=seed + 1
        )


def time_kernel(kernel, view, sources, r_max) -> tuple[float, int]:
    """Total wall seconds and pushes for ``sources`` single queries."""
    started = time.perf_counter()
    pushes = 0
    for source in sources:
        pushes += kernel(view, source, ALPHA, r_max).pushes
    return time.perf_counter() - started, pushes


def frontier_throughput(quick: bool, r_max: float = 1e-5) -> list[list]:
    rng = np.random.default_rng(bench_seed() + 3)
    num_sources = 2 if quick else 5
    rows = []
    for label, graph in throughput_graphs(quick):
        view = csr_view(graph)
        sources = [int(s) for s in rng.integers(view.n, size=num_sources)]
        t_scalar, p_scalar = time_kernel(forward_push, view, sources, r_max)
        t_frontier, p_frontier = time_kernel(
            frontier_push, view, sources, r_max
        )
        rows.append(
            [
                label,
                t_scalar / num_sources * 1e3,
                t_frontier / num_sources * 1e3,
                t_scalar / t_frontier,
                p_scalar / max(t_scalar, 1e-12),
                p_frontier / max(t_frontier, 1e-12),
            ]
        )
    return rows


# ----------------------------------------------------------------------
# 3. batched push
# ----------------------------------------------------------------------
def batched_speedup(quick: bool) -> list[list]:
    """Sequential pushes vs one (B, n) batch vs the residency rule.

    The batch kernel wins while the B x n state fits in cache (small
    and mid-size graphs) and loses it back on large graphs, where B
    sequential pushes each keep a single cache-hot (n,) state while
    the batch streams the whole matrix every sweep.  Both regimes are
    reported.  The ``rule`` column executes
    :func:`~repro.ppr.kernels.push_batch_size` for the same cell — it
    caps the batch to what stays cache-resident and splits by
    locality, so ``rule`` tracks the better static choice in every
    regime instead of inheriting the large-graph losing cells.
    """
    seed = bench_seed()
    rng = np.random.default_rng(seed + 4)
    # (label, graph, r_max): small graphs push to a moderate r_max so
    # the per-sweep numpy dispatch overhead being amortized is real
    # work, not noise; the large graph keeps the throughput-section
    # r_max to show the cache-residency cliff at the same setting.
    cells = [
        (
            "BA n=500",
            barabasi_albert_graph(500, attach=3, seed=seed),
            1e-4,
        ),
        (
            "BA n=2k",
            barabasi_albert_graph(2_000, attach=3, seed=seed),
            1e-4,
        ),
        (
            "BA n=20k",
            barabasi_albert_graph(20_000, attach=3, seed=seed),
            1e-5,
        ),
    ]
    if not quick:
        cells.insert(
            2,
            (
                "ER n=5k",
                erdos_renyi_graph(
                    5_000, m=25_000, directed=True, seed=seed + 1
                ),
                1e-4,
            ),
        )
    batch_sizes = (8, 16) if quick else (2, 4, 8, 16, 32)
    repeats = 3 if quick else 5
    rows = []
    for label, graph, r_max in cells:
        view = csr_view(graph)
        for b in batch_sizes:
            sources = rng.integers(view.n, size=b)
            t_sequential = []
            t_batched = []
            t_rule = []
            for _ in range(repeats):
                started = time.perf_counter()
                for source in sources:
                    frontier_push(view, int(source), ALPHA, r_max)
                t_sequential.append(time.perf_counter() - started)
                started = time.perf_counter()
                batch = batched_frontier_push(view, sources, ALPHA, r_max)
                t_batched.append(time.perf_counter() - started)
                started = time.perf_counter()
                _, _, b_eff = run_rule(view, sources, r_max)
                t_rule.append(time.perf_counter() - started)
            best_seq = min(t_sequential)
            best_batch = min(t_batched)
            best_rule = min(t_rule)
            best_static = min(best_seq, best_batch)
            chunks = -(-b // b_eff)
            rows.append(
                [
                    f"{label} B={b}",
                    best_seq * 1e3,
                    best_batch * 1e3,
                    best_rule * 1e3,
                    f"B_eff={b_eff}"
                    + (f" x{chunks}" if b_eff > 1 and chunks > 1 else ""),
                    best_static / max(best_rule, 1e-12),
                    batch.sweeps,
                ]
            )
    return rows


# ----------------------------------------------------------------------
# shared reporting
# ----------------------------------------------------------------------
def run_all(quick: bool, reporter, cases: int | None = None) -> int:
    """Run the three sections; return the oracle mismatch count."""
    if cases is None:
        cases = 1000 if quick else 2000
    reporter(banner("Kernel oracle: vectorized vs pure-Python reference"))
    ran, mismatches = equivalence_oracle(cases, bench_seed() + 17)
    reporter(
        f"{ran} randomized cases (packed + slack views, dangling nodes; "
        f"frontier, whole, chunked and rule-routed batches vs the "
        f"reference bit-for-bit, power_phase vs dense power iteration): "
        f"{mismatches} mismatches (must be 0)"
    )

    reporter(banner("Frontier kernel: scalar deque vs whole-frontier"))
    reporter(
        format_table(
            [
                "graph",
                "scalar (ms/q)",
                "frontier (ms/q)",
                "speedup",
                "scalar pushes/s",
                "frontier pushes/s",
            ],
            frontier_throughput(quick),
            float_format="{:,.2f}",
        )
    )
    reporter(
        "note: the deque schedule needs fewer pushes (Gauss-Seidel) but\n"
        "pays Python per push; the frontier kernel pays numpy per sweep."
    )

    reporter(
        banner("Batched kernel: sequential vs (B, n) batch vs residency rule")
    )
    reporter(
        format_table(
            [
                "cell",
                "sequential (ms)",
                "batched (ms)",
                "rule (ms)",
                "rule route",
                "rule vs best",
                "sweeps",
            ],
            batched_speedup(quick),
            float_format="{:,.2f}",
        )
    )
    reporter(
        "note: the full batch wins while the B x n state is cache-resident\n"
        "(small/mid graphs, B >= 8) and loses it back on large graphs; the\n"
        "rule caps the effective batch to the resident budget and splits\n"
        "by source locality, so `rule vs best` stays ~1.0 in every regime\n"
        "(>= 0.9 allowing timer noise) instead of inheriting the n=20k\n"
        "losing cells."
    )
    return mismatches


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_vectorized_kernels(benchmark, report):
    quick = scoped(True, False)
    mismatches = benchmark.pedantic(
        lambda: run_all(quick, report), rounds=1, iterations=1
    )
    assert mismatches == 0, (
        f"{mismatches} kernel results diverged from the scalar oracle"
    )


# ----------------------------------------------------------------------
# script entry point (CI smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: fewer graphs/batch sizes (oracle stays >= 1000 cases)",
    )
    parser.add_argument(
        "--cases", type=int, default=None,
        help="override the number of oracle cases",
    )
    args = parser.parse_args(argv)
    mismatches = run_all(args.quick, print, cases=args.cases)
    if mismatches:
        print(f"FAIL: {mismatches} oracle mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
