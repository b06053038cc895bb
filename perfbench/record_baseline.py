"""Regenerate perfbench/baseline.json: machine, settings, exact per-layer call
counts and report digests for every input of one seed, the layer-to-metric
predictions, and the spread of the end-to-end metrics with the share of ops
that failed.

Usage, from the root of a checkout:

    python3 perfbench/record_baseline.py --seed 1

Every end-to-end run is a separate ``run.py`` process measuring for
BENCHMARK.json's ``run_seconds``. ``end_to_end`` holds ``RUNS`` runs of the
seed itself, so its spread is run-to-run noise on fixed inputs;
``cross_seed`` holds one run each of seeds ``seed`` to ``seed + RUNS - 1``,
whose spread also carries the variation between inputs. For each metric the
file records the median and the quartile spread (third minus first
quartile, over the median).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from layers import LayerTracer
from run import HERE, REFERENCE_S, SETUP_REPEATS, TAIL_BEYOND, Client, machine
from workloads import ROOT, WORKLOADS, generate, import_program, write_inputs

OUT = HERE / "baseline.json"
RUNS = 10

# Which end-to-end metric each layer metric should move, and on which workload.
PREDICTIONS = [
    {
        "layer_metrics": ["quantum.optimize_planar.self_s", "quantum.refine_planar.s",
                          "quantum.bell_operator.calls_per_op", "quantum.bell_operator.s"],
        "moves": ["norm_ops_per_s", "norm_op_p50_s"], "on": "planar_sweep",
        "no_change_on": ["closed_route"],
    },
    {
        "layer_metrics": ["hermitian.eig_hermitian.calls_per_op", "hermitian.eig_hermitian.s"],
        "moves": ["norm_op_p50_s", "norm_op_max_s"], "on": "closed_route",
        "note": "under 0.2% of a planar_sweep op",
    },
    {
        "layer_metrics": ["classical.classical_value.s", "classical.classical_value.calls_per_op",
                          "classical.strategies_per_s", "classical.maximizers"],
        "moves": ["norm_ops_per_s"], "on": "classical_scaling",
        "note": "about 5% of a closed_route op; the tie-heavy game moves peak_rss_mb",
    },
    {
        "layer_metrics": ["uncertainty.fine_grained_relations.calls_per_op",
                          "uncertainty.fine_grained_relations.s",
                          "steering.correspondence_verdict.self_s", "steering.steer_assemblage.s"],
        "moves": ["norm_op_p50_s"], "on": "closed_route",
    },
    {
        "layer_metrics": ["quantum.closed_form_optimum.s", "quantum.quantum_game_value.s",
                          "report.run_analyze.self_s", "report.render_report.s", "cli.main.self_s"],
        "moves": ["norm_op_p50_s"], "on": "closed_route", "note": "rendering is about 10% of an op",
    },
    {
        "layer_metrics": ["games.load_game.s"],
        "moves": ["setup_s"], "on": "every workload with game files",
    },
]


def exact_counts(program, workload: str, seed: int) -> dict:
    """Per input: report digest and the exact number of calls of each traced layer."""
    inputs = generate(workload, seed)
    write_inputs(inputs)
    client = Client(program, inputs)
    result = {}
    for item in inputs:
        client.run(item)
        tracer = LayerTracer(program.__name__)
        tracer.install()
        try:
            client.run(item)
        finally:
            tracer.uninstall()
        result[item.name] = {
            "digest": client.digests().get(item.name),
            "calls": {k: s.calls for k, s in tracer.stats.items() if s.calls},
        }
    if client.failed:
        raise SystemExit(f"{workload}: {client.failed} ops failed: {client.problems}")
    return result


def spreads(workload: str, seeds: list[int], seconds: int) -> dict:
    """Median and quartile spread of each end-to-end metric over one run per
    seed in ``seeds``, and the share of all ops that failed."""
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout[-2000:]}")
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        summary[name] = {"median": median, "spread": (q3 - q1) / median, "runs": vals}
    summary["failed_ops_frac"] = {"median": failed / attempted, "attempted": attempted}
    for name, m in summary.items():
        spread = f"  spread {m['spread']:.4f}" if "spread" in m else ""
        print(f"{workload:18} {name:16} median {m['median']:.6g}{spread}", flush=True)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    os.chdir(ROOT)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    program = import_program()
    doc = {
        "machine": machine(),
        "settings": {
            "seed": args.seed,
            "runs": RUNS,
            "seconds": seconds,
            "setup_repeats": SETUP_REPEATS,
            "tail_samples_beyond": TAIL_BEYOND,
            "reference_s": REFERENCE_S,
        },
        "predictions": PREDICTIONS,
        "seed_counts": {w: exact_counts(program, w, args.seed) for w in WORKLOADS},
    }
    print("same seed, fresh processes:")
    doc["end_to_end"] = {w: spreads(w, [args.seed] * RUNS, seconds) for w in WORKLOADS}
    print("one run per seed:")
    doc["cross_seed"] = {w: spreads(w, list(range(args.seed, args.seed + RUNS)), seconds)
                         for w in WORKLOADS}
    OUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
