"""Benchmark of the nonlocal-audit command line, end to end and per layer.

A single client drives ``nonlocal_audit.cli.main`` in-process in a closed
loop: each op (one CLI invocation) starts only after the previous one has
returned. Every op is checked against the benchmark's own oracles
(oracles.py), and repeated ops on one input must give byte-identical output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planar_sweep --seed 1 --seconds 30 --trace 0

Workloads (inputs generated from the seed in workloads.py):
  planar_sweep       analyze on random 2x2x2x2 games and chsh: grid scan and refinement
  closed_route       analyze g1, g2, cglmp: closed forms, Jacobi eigensolves, rendering
  classical_scaling  classical on 6x6, 7x7, 4x4 three-output and tie-heavy games

With ``--trace 0`` the run reports the end-to-end metrics setup_s,
peak_rss_mb and three op timings: norm_ops_per_s (ops per second of the
round-robin loop), norm_op_p50_s (median over inputs of each input's median
op) and norm_op_max_s (the slowest input's median op). The timings are in
normalized seconds: each op's wall time is divided by the time of a fixed
pure-Python reference loop timed on the same thread just before and just
after it, and multiplied by ``REFERENCE_S``. Other tenants of a shared host
slow the processor by a third for seconds to minutes at a time; that moves
the op and the reference loop alike and cancels, while a change to the
program moves the op alone. setup_s, the median wall time from the start of
a fresh interpreter to the first op being ready over ``SETUP_REPEATS``
set-ups, is not normalized: a set-up runs in a child process, which the
reference loop timed in this one does not follow. The text above the result
line also gives the loop as measured in wall time: ops_per_s, op_p50_s,
op_tail_s (the highest percentile with ``TAIL_BEYOND`` ops beyond it, or the
slowest op when too few ran) and failed_ops_frac.

With ``--trace 1`` every op runs twice, untraced
and then traced by layers.LayerTracer, and the run reports per-layer metrics:
``<module>.<function>.s`` (inclusive seconds per op), ``.self_s`` (seconds
per op outside other traced calls), ``.calls_per_op``, and the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from layers import LayerStats, LayerTracer
from oracles import check_analyze, check_classical, expected_for
from workloads import ROOT, WORKLOADS, ProgramMissing, generate, import_program, write_inputs

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # samples the tail percentile must have beyond it
# The reference loop's fastest time on the 2-vCPU Xeon KVM guest the benchmark
# was defined on, so that a normalized second reads close to a second there.
REFERENCE_S = 1.2e-3
REFERENCE_LOOPS = 20_000
REFERENCE_REPEATS = 3

# per-layer metric -> (traced layer, statistic, unit)
PER_LAYER = {
    "quantum.optimize_planar.self_s": ("quantum.optimize_planar", "self_s", "s"),
    "quantum.refine_planar.s": ("quantum.refine_planar", "inclusive_s", "s"),
    "quantum.bell_operator.calls_per_op": ("quantum.bell_operator", "calls", "count"),
    "quantum.bell_operator.s": ("quantum.bell_operator", "inclusive_s", "s"),
    "hermitian.eig_hermitian.calls_per_op": ("hermitian.eig_hermitian", "calls", "count"),
    "hermitian.eig_hermitian.s": ("hermitian.eig_hermitian", "inclusive_s", "s"),
    "classical.classical_value.calls_per_op": ("classical.classical_value", "calls", "count"),
    "classical.classical_value.s": ("classical.classical_value", "inclusive_s", "s"),
    "classical.strategies_per_s": ("classical.classical_value", "strategies_per_s", "1/s"),
    "classical.maximizers": ("classical.classical_value", "maximizers_per_call", "count"),
    "uncertainty.fine_grained_relations.calls_per_op":
        ("uncertainty.fine_grained_relations", "calls", "count"),
    "uncertainty.fine_grained_relations.s":
        ("uncertainty.fine_grained_relations", "inclusive_s", "s"),
    "steering.correspondence_verdict.self_s": ("steering.correspondence_verdict", "self_s", "s"),
    "steering.steer_assemblage.s": ("steering.steer_assemblage", "inclusive_s", "s"),
    "quantum.closed_form_optimum.s": ("quantum.closed_form_optimum", "inclusive_s", "s"),
    "quantum.quantum_game_value.s": ("quantum.quantum_game_value", "inclusive_s", "s"),
    "report.run_analyze.self_s": ("report.run_analyze", "self_s", "s"),
    "report.render_report.s": ("report.render_report", "inclusive_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
    "cli.main.s": ("cli.main", "inclusive_s", "s"),
    "games.load_game.s": ("games.load_game", "inclusive_s", "s"),
}


class Client:
    """The closed-loop client: runs ops, checks them, and keeps the tally."""

    def __init__(self, program, inputs):
        self.cli = importlib.import_module(program.__name__ + ".cli")
        self.expected = {item.name: expected_for(item, program) for item in inputs}
        self.first = {}  # input name -> (digest of its first output, problems found in it)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, item) -> float:
        """One op on ``item``; returns its wall time and records its verdict."""
        out = Path(item.out)
        if out.exists():
            out.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                status = self.cli.main(item.argv())
            except Exception as exc:  # an op that raises is a failed op, not a crash
                status = repr(exc)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = self._verdict(item, status, stdout.getvalue(), stderr.getvalue())
        if problems:
            self.failed += 1
            for p in problems:
                line = f"{item.name}: {p}"
                if line not in self.problems and len(self.problems) < 20:
                    self.problems.append(line)
        return elapsed

    def _verdict(self, item, status, stdout: str, stderr: str) -> list[str]:
        if status != 0:
            return [f"exit status {status!r}: {stderr.strip()[-300:]}"]
        if item.command == "classical":
            output = stdout
        else:
            try:
                output = Path(item.out).read_text(encoding="utf-8")
            except OSError as exc:
                return [f"no report written: {exc}"]
        digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
        if item.name not in self.first:
            check = check_classical if item.command == "classical" else check_analyze
            try:
                problems = check(self.expected[item.name], output)
            except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
                problems = [f"output does not follow the report format: {exc!r}"]
            self.first[item.name] = (digest, problems)
        first_digest, problems = self.first[item.name]
        if digest != first_digest:
            return ["output differs from the first op on the same input"]
        return problems

    def digests(self) -> dict[str, str]:
        return {name: digest for name, (digest, _) in self.first.items()}


def _reference_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def reference() -> float:
    """Fastest of ``REFERENCE_REPEATS`` timings of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _reference_loop(REFERENCE_LOOPS)
        best = min(best, time.perf_counter() - start)
    return best


def normalized(elapsed: float, before: float, after: float) -> float:
    """Wall time ``elapsed`` in normalized seconds, given the reference loop's
    times just before and just after it."""
    return elapsed * REFERENCE_S / ((before + after) / 2)


def timed_setups(workload: str, seed: int) -> list[float]:
    """Set-up times of ``SETUP_REPEATS`` fresh interpreters, in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise ProgramMissing(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    ``TAIL_BEYOND`` samples beyond it. With fewer than ``2 * TAIL_BEYOND + 1``
    ops that percentile would lie at or below the median, so the slowest op
    is reported instead."""
    ordered = sorted(times)
    if len(ordered) < 2 * TAIL_BEYOND + 1:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / len(ordered), TAIL_BEYOND


def peak_rss_mib() -> float:
    """High-water resident set size of this process image, in MiB.

    Read from /proc: on Linux, ``ru_maxrss`` keeps the parent's high-water
    mark across fork and exec, so it would report the launcher's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("/proc/self/status has no VmHWM line")


def end_to_end(client: Client, inputs, seconds: float, setups: list[float]) -> dict:
    client.run(inputs[0])  # warm-up: lazy set-up in the program and numpy, not timed
    failed_before = client.failed
    times, norms = [], []
    after = reference()
    start = time.perf_counter()
    # At least one full round, so every input has an op.
    while len(times) < len(inputs) or time.perf_counter() - start < seconds:
        before = after
        elapsed = client.run(inputs[len(times) % len(inputs)])
        after = reference()
        times.append(elapsed)
        norms.append(normalized(elapsed, before, after))
    # Per-input figures weigh every input the same: on planar_sweep a run
    # ends inside the second round.
    medians, norm_medians = [], []
    for k, item in enumerate(inputs):
        own, own_norm = times[k::len(inputs)], norms[k::len(inputs)]
        medians.append(statistics.median(own))
        norm_medians.append(statistics.median(own_norm))
        print(f"input {item.name}: {len(own)} ops, median {medians[-1]:.4f} s, "
              f"normalized median {norm_medians[-1]:.4f} s")
    ok = len(times) - (client.failed - failed_before)
    tail_s, tail_pct, beyond = tail(times)
    print(f"ops timed: {len(times)} in {sum(times):.3f} s of ops, {ok} verified")
    print(f"ops_per_s = {ok / sum(times):.6g} 1/s as measured")
    print(f"op_p50_s = {statistics.median(medians):.6g} s as measured")
    if beyond:
        print(f"op_tail_s = {tail_s:.6g} s as measured: p{tail_pct:.1f} of {len(times)} ops, "
              f"{beyond} beyond it")
    else:
        print(f"op_tail_s = {tail_s:.6g} s as measured: the slowest of {len(times)} ops, too "
              f"few for a percentile with {TAIL_BEYOND} beyond it above the median")
    print(f"failed_ops_frac = {client.failed / client.attempted:.6g} "
          f"({client.failed} of {client.attempted} ops, warm-up included)")
    print(f"setup_s runs: {', '.join(f'{s:.4f}' for s in setups)}")
    return {
        "norm_ops_per_s": (len(inputs) / sum(norm_medians), "1/s"),
        "norm_op_p50_s": (statistics.median(norm_medians), "s"),
        "norm_op_max_s": (max(norm_medians), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }


def per_layer(client: Client, inputs, seconds: float, program) -> dict:
    tracer = LayerTracer(program.__name__)
    plain = traced = 0.0
    ops = 0
    start = time.perf_counter()
    while ops == 0 or time.perf_counter() - start < seconds:
        item = inputs[ops % len(inputs)]
        plain += client.run(item)
        tracer.install()
        try:
            traced += client.run(item)
        finally:
            tracer.uninstall()
        ops += 1
    print(f"traced ops: {ops}, each paired with an untraced op on the same input")
    metrics = {}
    for name, (layer, statistic, unit) in PER_LAYER.items():
        s = tracer.stats.get(layer, LayerStats())
        if statistic == "strategies_per_s":
            value = s.strategies / s.inclusive_s if s.inclusive_s else 0.0
        elif statistic == "maximizers_per_call":
            value = s.maximizers / s.calls if s.calls else 0.0
        else:
            value = getattr(s, statistic) / ops
        metrics[name] = (value, unit)
    metrics["trace.overhead_frac"] = ((traced - plain) / plain, "fraction")
    return metrics


def machine() -> dict:
    """The machine and the settings the program reads from the environment."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "NONLOCAL_AUDIT_THREADS": os.environ.get("NONLOCAL_AUDIT_THREADS", "unset (auto)"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.chdir(ROOT)
    try:
        program = import_program()
        setups = [] if args.trace else timed_setups(args.workload, args.seed)
        inputs = generate(args.workload, args.seed)
        write_inputs(inputs)
        client = Client(program, inputs)
    except (ProgramMissing, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("machine: " + " ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"workload {args.workload}, seed {args.seed}, {len(inputs)} inputs")
    if args.trace:
        metrics = per_layer(client, inputs, args.seconds, program)
    else:
        metrics = end_to_end(client, inputs, args.seconds, setups)
    for name, digest in client.digests().items():
        print(f"digest {name}: {digest}")
    for problem in client.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    correct = client.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
