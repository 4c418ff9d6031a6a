"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``perfbench/run.py`` appends to
``.perfbench_out/results.jsonl``.  For every workload and end-to-end
metric it prints each side's median and quartiles and a verdict:

* ``regression`` -- the new median is worse than the base median by
  more than the metric's bound;
* ``unresolved`` -- the run-to-run spread (inter-quartile distance over
  the median) of either side exceeds the bound, unless every new run
  reads better than every base run;
* ``better`` -- at least nine tenths of the runs paired by seed favour
  the new side and the medians differ by more than the base spread;
* ``within bound`` otherwise.

Per-layer metrics of traced runs are listed with medians only (they
have no bound).  Runs marked invalid or incorrect are left out and
counted.  Pairs recorded on different hosts (nproc, platform, CPU,
Python, numpy) are refused.  Exit code: 0, 1 on any regression, 2 when
refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

HOST_KEYS = ("nproc", "platform", "cpu", "python", "numpy")


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def hosts(records: list[dict]) -> set[tuple]:
    return {tuple(r["host"].get(k) for k in HOST_KEYS) for r in records}


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    """Compare per-seed values of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base_values, new_values = list(base.values()), list(new.values())
    base_med = stats.quartiles(base_values)[1]
    new_med = stats.quartiles(new_values)[1]
    worse_by = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    spread = max(stats.relative_spread(base_values), stats.relative_spread(new_values))
    if spread > bound:
        if all(sign * n < sign * b for n in new_values for b in base_values):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "regression"
    paired = [sign * (new[s] - base[s]) for s in base if s in new]
    wins = sum(d < 0 for d in paired)
    if paired and wins >= 0.9 * len(paired) and -worse_by > stats.relative_spread(base_values):
        return "better"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument(
        "--benchmark", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCHMARK.json",
    )
    args = parser.parse_args(argv)
    config = json.loads(args.benchmark.read_text())
    sides = {"base": load(args.base), "new": load(args.new)}
    seen = hosts(sides["base"]) | hosts(sides["new"])
    if len(seen) > 1:
        print("refused: results come from different hosts:", file=sys.stderr)
        for host in sorted(seen, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, host)), file=sys.stderr)
        return 2
    usable = {}
    for side, records in sides.items():
        kept = [r for r in records if r["valid"] and r["correct"]]
        if len(kept) < len(records):
            print(f"{side}: left out {len(records) - len(kept)} invalid or incorrect runs")
        usable[side] = kept

    regressions = 0
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for workload in [w["name"] for w in config["workloads"]]:
            runs = {
                side: {r["seed"]: r["metrics"] for r in records
                       if r["workload"] == workload and r["trace"] == trace}
                for side, records in usable.items()
            }
            if not runs["base"] or not runs["new"]:
                continue
            print(f"\n{workload} ({kind}; runs: base {len(runs['base'])}, new {len(runs['new'])})")
            print(f"  {'metric (unit)':<34} {'base q1 / median / q3':>32} {'new q1 / median / q3':>32}  verdict")
            for metric in config[kind]:
                name = metric["name"]
                base = {s: m[name] for s, m in runs["base"].items()}
                new = {s: m[name] for s, m in runs["new"].items()}
                cells = [
                    "{:>10.4g} {:>10.4g} {:>10.4g}".format(*stats.quartiles(list(v.values())))
                    for v in (base, new)
                ]
                result = ""
                if "bound" in metric:
                    result = verdict(base, new, metric["better"], metric["bound"])
                    regressions += result == "regression"
                label = f"{name} ({metric['unit']})"
                print(f"  {label:<34} {cells[0]:>32} {cells[1]:>32}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
