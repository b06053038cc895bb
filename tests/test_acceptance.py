"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line;
without ``-s`` pytest shows the lines for failing criteria only.

Criterion 4 note: the published reference value (15+sqrt(33))/9 for the
cglmp relation bounds is asserted exactly as quoted. The spectrally
computed bound is (15+sqrt(33))/6 on the unhalved-sum scale, which is the
value forced by the saturation facts checked in criteria 5 and 6: the
fixed strategy achieves a raw sum of (15+sqrt(33))/3 spread over two
inputs, and no achieved value can exceed its bound. The quoted decimal is
therefore internally inconsistent, and that clause is kept red
deliberately rather than weakened to match it.
"""

import math
import time

import numpy as np

import nonlocal_audit as na

from conftest import (
    CGLMP_RAW_QUANTUM,
    CGLMP_XI_CANONICAL,
    OMEGA_Q_CHSH,
    OMEGA_Q_G1,
    OMEGA_Q_G2,
    bloch_grid_max,
    planar_strategy,
    random_hermitian,
    random_strategy,
    reconstruct,
)


def _verdict(num: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.2f}s) {detail}")


def _alice_relations(spec, strategy):
    return {
        r.pair: r
        for r in na.fine_grained_relations(spec, strategy.meas_b)
    }


def test_criterion_1_classical_values():
    started = time.perf_counter()
    failures = []
    value_g1, _, _ = na.classical_value(na.builtin_game("g1"))
    if abs(value_g1 - 0.5) > 1e-12:
        failures.append(f"g1 classical {value_g1!r} != 1/2")
    value_g2, _, _ = na.classical_value(na.builtin_game("g2"))
    if abs(value_g2 - 0.75) > 1e-12:
        failures.append(f"g2 classical {value_g2!r} != 3/4")
    spec = na.builtin_game("cglmp")
    value_cglmp, _, _ = na.classical_value(spec)
    if abs(4.0 * value_cglmp - 6.0) > 1e-12:
        failures.append(f"cglmp raw sum {4.0 * value_cglmp!r} != 6")
    enumerated = spec.n_a ** spec.n_x * spec.n_b ** spec.n_y
    if enumerated != 81:
        failures.append(f"cglmp enumerates {enumerated} pairs, expected 81")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(1, not failures, elapsed,
             "classical values 1/2, 3/4, raw-sum 6 by exact enumeration")
    assert not failures, failures


def test_criterion_2_g1_quantum_value():
    started = time.perf_counter()
    failures = []
    closed = na.closed_form_optimum("g1")
    if abs(closed.value - OMEGA_Q_G1) > 1e-7:
        failures.append(f"closed-form value {closed.value!r}")
    if abs(closed.residual) > 1e-9:
        failures.append(f"closed-form characteristic residual {closed.residual:.2e}")

    grid_started = time.perf_counter()
    optimized = na.optimize_planar(na.builtin_game("g1"))
    grid_elapsed = time.perf_counter() - grid_started
    if abs(optimized.value - OMEGA_Q_G1) > 1e-7:
        failures.append(f"optimizer value {optimized.value!r}")
    alpha_target, beta_target = na.closed_form_angles("g1")
    # the optimizer reports non-negative angle representatives; sign flips
    # are local X conjugations, so compare modulo sign
    if abs(optimized.angles.alpha[1] - alpha_target) > 1e-6:
        failures.append(f"optimizer alpha1 {optimized.angles.alpha[1]!r}")
    beta1 = optimized.angles.beta[1]
    if min(abs(beta1 - beta_target), abs(beta1 + beta_target)) > 1e-6:
        failures.append(f"optimizer beta1 {beta1!r}")
    if abs(optimized.residual) > 1e-9:
        failures.append(f"optimizer characteristic residual {optimized.residual:.2e}")
    if abs(optimized.value - closed.value) > 1e-7:
        failures.append("closed form and optimizer disagree")
    if grid_elapsed >= 30.0:
        failures.append(f"grid runtime {grid_elapsed:.1f}s >= 30s")
    elapsed = time.perf_counter() - started
    _verdict(2, not failures, elapsed,
             f"g1 value (16+sqrt(13))/36 by both routes, grid {grid_elapsed:.1f}s")
    assert not failures, failures


def test_criterion_3_g2_quantum_value():
    started = time.perf_counter()
    failures = []
    closed = na.closed_form_optimum("g2")
    if abs(closed.value - OMEGA_Q_G2) > 1e-7:
        failures.append(f"closed-form value {closed.value!r}")
    grid_started = time.perf_counter()
    optimized = na.optimize_planar(na.builtin_game("g2"))
    grid_elapsed = time.perf_counter() - grid_started
    if abs(optimized.value - OMEGA_Q_G2) > 1e-7:
        failures.append(f"optimizer value {optimized.value!r}")
    if abs(optimized.angles.alpha[1] - optimized.angles.beta[1]) > 1e-5:
        failures.append(
            f"optimizer angles differ: {optimized.angles.alpha[1]!r} vs "
            f"{optimized.angles.beta[1]!r}"
        )
    if abs(optimized.value - closed.value) > 1e-7:
        failures.append("closed form and optimizer disagree")
    if grid_elapsed >= 30.0:
        failures.append(f"grid runtime {grid_elapsed:.1f}s >= 30s")
    elapsed = time.perf_counter() - started
    _verdict(3, not failures, elapsed,
             f"g2 cube-root value ~0.7822178 by both routes, grid {grid_elapsed:.1f}s")
    assert not failures, failures


def test_criterion_4_uncertainty_bounds():
    started = time.perf_counter()
    failures = []

    g1 = na.closed_form_optimum("g1")
    rels_g1 = _alice_relations(na.builtin_game("g1"), g1.strategy)
    if abs(rels_g1[(1, 0)].xi_normalized - 0.8838) > 5e-4:
        failures.append(f"g1 xi(1,0) {rels_g1[(1, 0)].xi_normalized!r}")
    for pair in ((0, 0), (0, 1), (1, 1)):
        if abs(rels_g1[pair].xi_normalized - 1.0) > 1e-9:
            failures.append(f"g1 trivial xi{pair} {rels_g1[pair].xi_normalized!r}")

    g2 = na.closed_form_optimum("g2")
    rels_g2 = _alice_relations(na.builtin_game("g2"), g2.strategy)
    for pair in ((0, 0), (0, 1)):
        if abs(rels_g2[pair].xi - 0.881462) > 5e-6:
            failures.append(f"g2 xi{pair} {rels_g2[pair].xi!r}")
    if abs(rels_g2[(1, 0)].xi - 0.823244) > 5e-6:
        failures.append(f"g2 xi(1,0) {rels_g2[(1, 0)].xi!r}")
    if abs(rels_g2[(1, 1)].xi_normalized - 1.0) > 1e-9:
        failures.append(f"g2 trivial xi(1,1) {rels_g2[(1, 1)].xi_normalized!r}")

    documented = (15.0 + math.sqrt(33.0)) / 9.0
    rels_cglmp = _alice_relations(na.builtin_game("cglmp"), na.cglmp_strategy())
    for pair, rel in sorted(rels_cglmp.items()):
        unhalved = 2.0 * rel.xi
        if abs(unhalved - documented) > 1e-9:
            failures.append(
                f"cglmp 2*lambda_max{pair} = {unhalved:.12f} != documented "
                f"(15+sqrt(33))/9 = {documented:.12f}; spectral value equals "
                f"(15+sqrt(33))/6 = {(15.0 + math.sqrt(33.0)) / 6.0:.12f}"
            )
    elapsed = time.perf_counter() - started
    _verdict(4, not failures, elapsed,
             "uncertainty bounds vs documented decimals (cglmp clause expected red)")
    assert not failures, failures


def test_criterion_5_steering_gaps():
    started = time.perf_counter()
    failures = []

    g2 = na.closed_form_optimum("g2")
    verdicts = {
        v.pair: v
        for v in na.correspondence_verdict(na.builtin_game("g2"), g2.strategy).alice.verdicts
    }
    for pair in ((0, 0), (0, 1)):
        if abs(verdicts[pair].achieved - 0.8446) > 5e-4:
            failures.append(f"g2 achieved{pair} {verdicts[pair].achieved!r}")
    if abs(verdicts[(1, 1)].achieved - 0.968) > 5e-4:
        failures.append(f"g2 achieved(1,1) {verdicts[(1, 1)].achieved!r}")
    if not (verdicts[(1, 0)].saturated and verdicts[(1, 0)].gap <= 1e-6):
        failures.append(f"g2 (1,0) not exactly saturated: gap {verdicts[(1, 0)].gap!r}")
    for pair in ((0, 0), (0, 1), (1, 1)):
        if verdicts[pair].saturated:
            failures.append(f"g2 {pair} unexpectedly saturated")

    g1 = na.closed_form_optimum("g1")
    spec_g1 = na.builtin_game("g1")
    report_g1 = na.correspondence_verdict(spec_g1, g1.strategy)
    alice = {v.pair: v for v in report_g1.alice.verdicts}
    bob = {v.pair: v for v in report_g1.bob.verdicts}
    if not alice[(1, 0)].saturated:
        failures.append("g1 Alice-side (1,0) not saturated")
    if not bob[(0, 0)].saturated:
        failures.append("g1 Bob-side (0,0) not saturated")
    for pair in ((0, 0), (0, 1), (1, 1)):
        v = alice[pair]
        if v.saturated or not v.achieved < v.xi - 0.01:
            failures.append(f"g1 Alice-side {pair}: achieved {v.achieved!r} vs xi {v.xi!r}")
    for pair in ((0, 1), (1, 0), (1, 1)):
        v = bob[pair]
        if v.saturated or not v.achieved < v.xi - 0.01:
            failures.append(f"g1 Bob-side {pair}: achieved {v.achieved!r} vs xi {v.xi!r}")

    elapsed = time.perf_counter() - started
    _verdict(5, not failures, elapsed,
             "g2 gaps 0.8446/0.968 with exact saturation at (1,0); g1 saturation pattern")
    assert not failures, failures


def test_criterion_6_verdicts():
    started = time.perf_counter()
    failures = []
    expectations = {
        "g1": False,
        "g2": False,
        "chsh": True,
        "cglmp": True,
    }
    strategies = {
        "g1": na.closed_form_optimum("g1").strategy,
        "g2": na.closed_form_optimum("g2").strategy,
        "chsh": na.optimize_planar(na.builtin_game("chsh")).strategy,
        "cglmp": na.cglmp_strategy(),
    }
    for game_id, expected in expectations.items():
        report = na.correspondence_verdict(na.builtin_game(game_id), strategies[game_id])
        if report.correspondence_holds != expected:
            failures.append(
                f"{game_id}: correspondence_holds {report.correspondence_holds}, "
                f"expected {expected}"
            )
        if expected and report.alice.ns_deviation > 1e-6:
            failures.append(f"{game_id}: ns deviation {report.alice.ns_deviation:.2e} > 1e-6")
        if not expected and report.alice.ns_deviation <= 0.01:
            failures.append(f"{game_id}: ns deviation {report.alice.ns_deviation:.2e} <= 0.01")
    elapsed = time.perf_counter() - started
    _verdict(6, not failures, elapsed,
             "correspondence false/false/true/true; ns deviations split accordingly")
    assert not failures, failures


def test_criterion_7_chsh_sanity():
    started = time.perf_counter()
    failures = []
    spec = na.builtin_game("chsh")
    optimized = na.optimize_planar(spec)
    if abs(optimized.value - OMEGA_Q_CHSH) > 1e-7:
        failures.append(f"optimizer value {optimized.value!r}")
    report = na.correspondence_verdict(spec, optimized.strategy)
    for side, verdicts in (("alice_steers_bob", report.alice.verdicts),
                           ("bob_steers_alice", report.bob.verdicts)):
        for v in verdicts:
            if not v.saturated:
                failures.append(f"{side} {v.pair} not saturated (gap {v.gap:.2e})")
    elapsed = time.perf_counter() - started
    _verdict(7, not failures, elapsed,
             "optimizer recovers (2+sqrt(2))/4 with all relations saturated")
    assert not failures, failures


def test_criterion_8_property_suites():
    started = time.perf_counter()
    failures = []

    # eigensolver invariants, 1000 random Hermitian matrices
    rng = np.random.default_rng(2024)
    for d in (2, 3, 4, 9):
        for _ in range(250):
            h = random_hermitian(rng, d)
            hnorm = np.linalg.norm(h)
            eig = na.eig_hermitian(h)
            if np.linalg.norm(reconstruct(eig) - h) > 1e-9 * hnorm:
                failures.append(f"reconstruction failure at d={d}")
                break
            gram = eig.eigenvectors.conj().T @ eig.eigenvectors
            if np.abs(gram - np.eye(d)).max() > 1e-10:
                failures.append(f"orthonormality failure at d={d}")
                break

    # Bloch-grid oracle agreement for every qubit relation bound
    for game_id in ("g1", "g2"):
        solution = na.closed_form_optimum(game_id)
        spec = na.builtin_game(game_id)
        for side, game, meas in (
            ("alice_steers_bob", spec, solution.strategy.meas_b),
            ("bob_steers_alice", na.swap_parties(spec), solution.strategy.meas_a),
        ):
            for rel in na.fine_grained_relations(game, meas):
                oracle = bloch_grid_max(rel.operator)
                if abs(rel.xi - oracle) > 1e-6:
                    failures.append(
                        f"{game_id} {side} {rel.pair}: xi {rel.xi!r} vs "
                        f"Bloch oracle {oracle!r}"
                    )
    chsh_solution = na.optimize_planar(na.builtin_game("chsh"))
    for rel in na.fine_grained_relations(na.builtin_game("chsh"), chsh_solution.strategy.meas_b):
        if abs(rel.xi - bloch_grid_max(rel.operator)) > 1e-6:
            failures.append(f"chsh {rel.pair}: xi vs Bloch oracle")

    # no-signaling identity of quantum assemblages, 100 random strategies
    rng = np.random.default_rng(2025)
    for _ in range(100):
        d_a, d_b = (int(v) for v in rng.choice([2, 3], size=2))
        n_x, n_y = (int(v) for v in rng.integers(2, 4, size=2))
        strategy = random_strategy(rng, d_a, d_b, n_x, n_y)
        assemblage = na.steer_assemblage(strategy)
        if assemblage.no_signaling_deviation() > 1e-9:
            failures.append("quantum assemblage violated no-signaling")
            break

    # multistart uniqueness of the g1 optimum at the correlation level
    spec = na.builtin_game("g1")
    rng = np.random.default_rng(2026)
    tables = []
    for _ in range(28):
        a0, b0 = rng.uniform(-math.pi, math.pi, size=2)
        a1, b1, value = na.refine_planar(spec, a0, b0, halfwidth=math.pi / 2.0)
        if abs(value - OMEGA_Q_G1) > 1e-7:
            continue
        if a1 < 0.0:  # quotient the reflection symmetry
            a1, b1 = -a1, -b1
        tables.append(na.correlation_table(spec, planar_strategy(spec, a1, b1)))
    if len(tables) < 20:
        failures.append(f"only {len(tables)} of 28 starts reached the optimum")
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            if np.abs(tables[i] - tables[j]).max() > 1e-5:
                failures.append(f"correlation tables {i} and {j} disagree")

    elapsed = time.perf_counter() - started
    _verdict(8, not failures, elapsed,
             "eigensolver/oracle/no-signaling/multistart property suites")
    assert not failures, failures
