"""Record a BENCH_*.json entry: paired benchmark runs of two checkouts.

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in the parent checkout and in the change checkout with the same
seed, alternating which of the two runs first. Seeds count up from
``--first-seed``, one per pair. After the pairs, each checkout makes one
``--trace 1`` run per workload at ``--trace-seed``. Quartiles are numpy
linear percentiles 25/75 over the pairs.

Usage, from the root of the change checkout:

    python3 tools/record_bench.py --parent ../parent --change . \\
        --pairs planar_sweep=10 --pairs closed_route=2 --pairs classical_scaling=2 \\
        --first-seed 101 --trace-seed 11 --what "..." --out BENCH_7.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one benchmark run in the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def record_workload(roots: dict, workload: str, seeds: list[int], args, spec: dict) -> dict:
    results = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(roots[side], workload, seed, args.seconds, 0)
            results[side].append(result)
            print(f"{workload} seed {seed} {side}: "
                  f"{result['metrics']['norm_ops_per_s']['value']:.4g} ops/s", file=sys.stderr)
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1.0 if metric["better"] == "higher" else -1.0
        parent_median = float(np.median(runs["parent"]))
        end_to_end[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": summary(runs["parent"]), "change": summary(runs["change"]),
            "change_better_pairs": sum(
                sign * (c - p) > 0.0 for p, c in zip(runs["parent"], runs["change"])),
            "median_change_frac": float(np.median(runs["change"])) / parent_median - 1.0,
        }
    traced = {side: run_once(roots[side], workload, args.trace_seed, args.trace_seconds, 1)
              for side in SIDES}
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "failed_ops": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        "end_to_end": end_to_end,
        f"traced_seed_{args.trace_seed}": {
            name: {side: traced[side]["metrics"].get(name, {}).get("value") for side in SIDES}
            for name in traced["change"]["metrics"]
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="change checkout root")
    parser.add_argument("--pairs", action="append", required=True,
                        help="WORKLOAD=N, run N pairs of that workload (repeatable)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, default=11)
    parser.add_argument("--trace-seconds", type=float, default=30.0)
    parser.add_argument("--what", required=True, help="what the change is and how it was run")
    parser.add_argument("--host", default="", help="a description of the machine")
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    doc = {
        "what": args.what,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "host": args.host,
        },
        "workloads": {},
        "notes": args.note,
    }
    seed = args.first_seed
    for item in args.pairs:
        workload, count = item.split("=")
        seeds = list(range(seed, seed + int(count)))
        seed += int(count)
        doc["workloads"][workload] = record_workload(roots, workload, seeds, args, spec)
        args.out.write_text(json.dumps(doc, indent=2) + "\n")  # keep what is done so far
    return 0


if __name__ == "__main__":
    sys.exit(main())
