"""Planar strategies, Bell operators, closed forms, and the two-angle optimizer."""

import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit import quantum
from nonlocal_audit.errors import (
    DimensionMismatchError,
    NotPlanarApplicableError,
    UnknownGameError,
)
from nonlocal_audit.games import game_from_dict, swap_parties
from nonlocal_audit.hermitian import is_hermitian
from nonlocal_audit.quantum import (
    GAP_TOL,
    _cell_bounds,
    _curvature_bounds,
    _planar_jet,
    _planar_kernel,
    _search_kernel,
    _top_eigenvalues,
    _trig,
    best_known_solution,
    scaled_bell_charpoly_g1,
    scaled_bell_charpoly_g2,
)

from conftest import (
    CGLMP_RAW_QUANTUM,
    OMEGA_Q_CHSH,
    OMEGA_Q_G1,
    OMEGA_Q_G2,
    planar_strategy,
    planar_sweep_games,
    torus_grid_max,
)

PLUS_PROJECTOR = np.full((2, 2), 0.5, dtype=complex)


class TestPlanarMeasurements:
    def test_theta_zero(self):
        meas = na.planar_measurement(0.0)
        assert np.allclose(meas[0], PLUS_PROJECTOR, atol=1e-15)
        assert np.allclose(
            meas[1], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15
        )

    def test_theta_pi(self):
        # at theta = pi the +1 eigenprojector is |-><-|
        meas = na.planar_measurement(math.pi)
        assert np.allclose(
            meas[0], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12
        )

    def test_completeness_any_angle(self):
        rng = np.random.default_rng(31)
        for theta in rng.uniform(-math.pi, math.pi, 25):
            meas = na.planar_measurement(theta)
            strat = na.QuantumStrategy(
                state=np.array([1.0, 0.0, 0.0, 0.0]), meas_a=meas[None], meas_b=meas[None]
            )
            assert strat.validate() == []
            total = meas[0] + meas[1]
            assert np.linalg.norm(total - np.eye(2)) <= 1e-12

    def test_both_parties_at_once_match_one_angle_at_a_time(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            alpha = (0.0, *rng.uniform(-math.pi, math.pi, rng.integers(0, 4)))
            beta = (0.0, *rng.uniform(-math.pi, math.pi, rng.integers(0, 4)), math.pi, -math.pi)
            meas_a, meas_b = na.planar_measurements(na.PlanarAngles(alpha=alpha, beta=beta))
            for angles, meas in ((alpha, meas_a), (beta, meas_b)):
                assert meas.shape == (len(angles), 2, 2, 2)
                for t, projectors in zip(angles, meas):
                    assert np.array_equal(projectors, na.planar_measurement(t))
                    assert np.array_equal(projectors, na.planar_measurement(float(t)))

    def test_angle_constraints(self):
        with pytest.raises(ValueError):
            na.PlanarAngles(alpha=(0.1, 0.0), beta=(0.0, 0.0))
        with pytest.raises(ValueError):
            na.PlanarAngles(alpha=(0.0, 4.0), beta=(0.0, 0.0))


class TestStrategyValidate:
    def test_shapes_checked_first(self):
        strat = na.QuantumStrategy(state=np.ones(3), meas_a=na.planar_measurement(0.3),
                                   meas_b=np.zeros((1, 2, 2, 3)))
        assert strat.validate() == [
            "measurement A: shape (2, 2, 2) is not (inputs, outputs, d, d)",
            "measurement B: shape (1, 2, 2, 3) is not (inputs, outputs, d, d)",
        ]

    def test_faults_in_order(self, g1_solution):
        # state, then per party and input: each projector's Hermiticity and
        # idempotence, then the input's completeness
        meas_a, meas_b = g1_solution.strategy.meas_a.copy(), g1_solution.strategy.meas_b.copy()
        meas_a[1, 0] = [[1.0, 1.0], [0.0, 0.0]]  # idempotent, not Hermitian
        meas_b[0, 1] *= 2.0  # Hermitian, not idempotent
        strat = na.QuantumStrategy(state=2.0 * g1_solution.strategy.state,
                                   meas_a=meas_a, meas_b=meas_b)
        assert strat.validate() == [
            "state: not normalized",
            "A[1]: projector 0: not Hermitian",
            "A[1]: projectors do not sum to the identity",
            "B[0]: projector 1: not idempotent",
            "B[0]: projectors do not sum to the identity",
        ]
        assert strat.d_a == 2 and strat.d_b == 2

    def test_state_of_wrong_length(self, g1_solution):
        strat = na.QuantumStrategy(state=np.ones(3) / math.sqrt(3.0),
                                   meas_a=g1_solution.strategy.meas_a,
                                   meas_b=g1_solution.strategy.meas_b)
        assert strat.validate() == ["state: shape (3,) != (4,)"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_entries_are_violations(self, g1_spec, g1_solution, bad):
        # NaN fails no "deviation > tol" test, and an inf entry makes some
        # deviations NaN, so every check must refuse NaN, without a warning
        strategy = g1_solution.strategy
        state = strategy.state.copy()
        state[1] = bad
        with_state = na.QuantumStrategy(state, strategy.meas_a, strategy.meas_b)
        cases = [(with_state, ["state: not normalized"])]
        for label in ("A", "B"):
            meas = {"A": strategy.meas_a.copy(), "B": strategy.meas_b.copy()}
            meas[label][1, 0, 0, 1] = bad
            cases.append((na.QuantumStrategy(strategy.state, meas["A"], meas["B"]), [
                f"{label}[1]: projector 0: not Hermitian",
                f"{label}[1]: projector 0: not idempotent",
                f"{label}[1]: projectors do not sum to the identity",
            ]))
        for strat, violations in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert strat.validate() == violations
            with pytest.raises(DimensionMismatchError, match="^invalid strategy: "):
                na.correspondence_verdict(g1_spec, strat)


class TestBellOperator:
    def test_all_one_predicate_collapses_to_identity(self):
        spec = na.GameSpec(
            id="allone",
            predicate=np.ones((2, 2, 2, 2)), input_dist=np.full((2, 2), 0.25),
        )
        meas_a, meas_b = na.planar_measurements(
            na.PlanarAngles(alpha=(0.0, 1.1), beta=(0.0, -2.3))
        )
        op = na.bell_operator(spec, meas_a, meas_b)
        assert np.linalg.norm(op - np.eye(4)) <= 1e-12

    def test_g1_scaled_top_eigenvalue(self, g1_spec):
        alpha1, beta1 = na.closed_form_angles("g1")
        strat = planar_strategy(g1_spec, alpha1, beta1)
        op = na.bell_operator(g1_spec, strat.meas_a, strat.meas_b)
        target = (16.0 + math.sqrt(13.0)) / 9.0
        assert abs(4.0 * na.eig_hermitian(op).max_eigenvalue - target) <= 1e-10

    def test_chsh_tsirelson_point(self, chsh_spec):
        strat = planar_strategy(chsh_spec, math.pi / 2.0, math.pi / 2.0)
        op = na.bell_operator(chsh_spec, strat.meas_a, strat.meas_b)
        assert abs(na.eig_hermitian(op).max_eigenvalue - OMEGA_Q_CHSH) <= 1e-12

    def test_hermitian(self, g2_spec):
        strat = planar_strategy(g2_spec, 0.7, -0.4)
        op = na.bell_operator(g2_spec, strat.meas_a, strat.meas_b)
        assert is_hermitian(op)

    def test_measurement_count_mismatch(self, g1_spec):
        meas_a, meas_b = na.planar_measurements(
            na.PlanarAngles(alpha=(0.0, 1.0), beta=(0.0, 1.0))
        )
        with pytest.raises(DimensionMismatchError):
            na.bell_operator(g1_spec, meas_a[:1], meas_b)

    def test_correlation_table_measurement_count_mismatch(self, g1_spec, g1_solution):
        strategy = g1_solution.strategy
        for meas_a, meas_b in ((strategy.meas_a[:1], strategy.meas_b),
                               (strategy.meas_a, strategy.meas_b[[0, 1, 1]])):
            with pytest.raises(DimensionMismatchError,
                               match="^one measurement per input is required$"):
                na.correlation_table(g1_spec, na.QuantumStrategy(strategy.state, meas_a, meas_b))

    def test_output_count_mismatch_is_refused(self, chsh_spec, chsh_solution):
        # one identity projector per input passes validate(); unrefused, its
        # (2, 2, 1, 2) table broadcasts against the weights to a value of about 1
        strategy = chsh_solution.strategy
        identity = np.broadcast_to(np.eye(2, dtype=complex), (2, 1, 2, 2))
        for meas_a, meas_b in ((identity, strategy.meas_b), (strategy.meas_a, identity)):
            lopsided = na.QuantumStrategy(strategy.state, meas_a, meas_b)
            assert lopsided.validate() == []
            for refused in (na.correlation_table, na.quantum_game_value, na.correspondence_verdict):
                with pytest.raises(DimensionMismatchError, match="do not match the game$"):
                    refused(chsh_spec, lopsided)


class TestQuantumGameValue:
    def test_g1_closed_form_value(self, g1_spec, g1_solution):
        value = na.quantum_game_value(g1_spec, g1_solution.strategy)
        assert abs(value - OMEGA_Q_G1) <= 1e-12

    def test_g2_closed_form_value(self, g2_spec, g2_solution):
        value = na.quantum_game_value(g2_spec, g2_solution.strategy)
        assert abs(value - OMEGA_Q_G2) <= 1e-12

    def test_two_routes_agree_on_product_state(self, g1_spec):
        meas_a, meas_b = na.planar_measurements(
            na.PlanarAngles(alpha=(0.0, 0.9), beta=(0.0, -1.7))
        )
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0
        strat = na.QuantumStrategy(state=ket, meas_a=meas_a, meas_b=meas_b)
        via_sum = na.quantum_game_value(g1_spec, strat)
        op = na.bell_operator(g1_spec, meas_a, meas_b)
        via_operator = float(np.real(ket.conj() @ op @ ket))
        assert abs(via_sum - via_operator) <= 1e-12

    def test_variational_bound_random_states(self):
        rng = np.random.default_rng(41)
        for game_id in ("g1", "g2", "chsh"):
            spec = na.builtin_game(game_id)
            strat = planar_strategy(spec, rng.uniform(-math.pi, math.pi),
                                    rng.uniform(-math.pi, math.pi))
            op = na.bell_operator(spec, strat.meas_a, strat.meas_b)
            top = na.eig_hermitian(op).max_eigenvalue
            for _ in range(100):
                psi = rng.normal(size=4) + 1j * rng.normal(size=4)
                psi /= np.linalg.norm(psi)
                assert float(np.real(psi.conj() @ op @ psi)) <= top + 1e-10


class TestClosedForms:
    def test_g1_value_and_residual(self, g1_solution):
        assert abs(g1_solution.value - OMEGA_Q_G1) <= 1e-10
        assert abs(g1_solution.residual) <= 1e-9
        alpha1 = g1_solution.angles.alpha[1]
        assert abs(alpha1 - 2.0 * math.atan(math.sqrt((5.0 + math.sqrt(13.0)) / 6.0))) <= 1e-15
        assert abs(g1_solution.angles.beta[1] - (alpha1 - math.pi)) <= 1e-15

    def test_g2_value_and_residual(self, g2_solution):
        assert abs(g2_solution.value - OMEGA_Q_G2) <= 1e-10
        assert abs(g2_solution.residual) <= 1e-9
        assert g2_solution.angles.alpha[1] == g2_solution.angles.beta[1]

    def test_g1_charpoly_case_boundary(self):
        # at alpha1 = beta1 = pi the characteristic polynomial factors with
        # top root 2 (the classical point); it must vanish there
        assert abs(scaled_bell_charpoly_g1(2.0, math.pi, math.pi)) <= 1e-12

    def test_g2_charpoly_case_boundary(self):
        assert abs(scaled_bell_charpoly_g2(3.0, math.pi, math.pi)) <= 1e-12

    def test_strategy_value_consistency(self, g1_spec, g1_solution):
        op = na.bell_operator(g1_spec, g1_solution.strategy.meas_a, g1_solution.strategy.meas_b)
        psi = g1_solution.strategy.state
        assert abs(float(np.real(psi.conj() @ op @ psi)) - g1_solution.value) <= 1e-10

    def test_unknown_id(self):
        with pytest.raises(UnknownGameError):
            na.closed_form_optimum("chsh")

    @pytest.mark.parametrize("game_id, shown", [
        ("chsh", "'chsh'"),
        ("x" * 100, "'" + "x" * 36 + "..."),
        (7, "7"),
        (None, "None"),
        (np.array([1, 2]), "array([1, 2])"),
    ], ids=["catalog", "long", "int", "none", "array"])
    def test_angles_refusal(self, game_id, shown):
        # the id is echoed cut to SHOWN_CHARS, as builtin_game echoes it
        with pytest.raises(UnknownGameError) as info:
            na.closed_form_angles(game_id)
        assert str(info.value) == (
            f"no closed-form optimum for {shown}; closed forms exist for g1, g2")

    def test_tables_come_from_the_catalog_id(self, chsh_spec):
        # chsh's tables under the id "g1": the closed form is g1's own, built from
        # the id, and the routed spec gets chsh's optimum with no residual
        variant = na.GameSpec(
            id="g1",
            predicate=chsh_spec.predicate, input_dist=chsh_spec.input_dist,
        )
        closed = na.closed_form_optimum(variant.id)
        assert abs(closed.value - OMEGA_Q_G1) <= 1e-12
        assert abs(closed.residual) <= 1e-9
        solution = best_known_solution(variant)
        assert solution.method == "planar_search"
        assert abs(solution.value - OMEGA_Q_CHSH) <= 1e-9
        assert solution.residual is None


class TestRoutes:
    def test_each_route_names_itself(self, tmp_path, chsh_spec):
        # the route that builds a solution sets its method, whoever calls it
        assert na.closed_form_optimum("g1").method == "closed_form"
        assert best_known_solution(na.builtin_game("g1")).method == "closed_form"
        planar = na.optimize_planar(na.builtin_game("g1"))
        assert planar.method == "planar_search"
        assert abs(planar.residual) <= 1e-8
        cglmp = best_known_solution(na.builtin_game("cglmp"))
        assert cglmp.method == "fixed_catalog_strategy"
        assert cglmp.angles is None and cglmp.residual is None and cglmp.search is None
        path = tmp_path / "chsh.json"
        na.save_game(chsh_spec, path)
        loaded = best_known_solution(na.load_game(path))
        assert loaded.method == "planar_search"
        assert loaded.search is not None


class TestOptimizePlanar:
    def test_g1(self, g1_spec):
        sol = na.optimize_planar(g1_spec)
        assert abs(sol.value - OMEGA_Q_G1) <= 1e-8
        alpha_target, beta_target = na.closed_form_angles("g1")
        assert abs(sol.angles.alpha[1] - alpha_target) <= 1e-6
        # beta is reported as the non-negative sign representative
        beta1 = sol.angles.beta[1]
        assert min(abs(beta1 - beta_target), abs(beta1 + beta_target)) <= 1e-6
        assert abs(sol.residual) <= 1e-8

    def test_g2(self, g2_spec):
        sol = na.optimize_planar(g2_spec)
        assert abs(sol.value - OMEGA_Q_G2) <= 1e-8
        assert abs(sol.angles.alpha[1] - sol.angles.beta[1]) <= 1e-6

    def test_chsh(self, chsh_solution):
        assert abs(chsh_solution.value - OMEGA_Q_CHSH) <= 1e-8
        assert chsh_solution.angles.alpha[1] >= 0.0

    def test_beats_classical(self, g1_spec, g2_spec, chsh_spec):
        for spec in (g1_spec, g2_spec, chsh_spec):
            sol = na.optimize_planar(spec)
            assert sol.value >= na.classical_value(spec)[0] - 1e-9

    def test_guards(self, cglmp_spec):
        with pytest.raises(NotPlanarApplicableError):
            na.optimize_planar(cglmp_spec)

    def test_fast_path_matches_jacobi(self, g1_spec):
        rng = np.random.default_rng(51)
        for _ in range(20):
            a1, b1 = rng.uniform(-math.pi, math.pi, 2)
            strat = planar_strategy(g1_spec, a1, b1)
            op = na.bell_operator(g1_spec, strat.meas_a, strat.meas_b)
            value = _planar_jet(_planar_kernel(g1_spec), a1, b1)[0]
            assert abs(value - na.eig_hermitian(op).max_eigenvalue) <= 1e-12

    def test_deterministic(self, chsh_spec):
        first = na.optimize_planar(chsh_spec)
        second = na.optimize_planar(chsh_spec)
        assert first.value == second.value
        assert first.angles == second.angles

    def test_worker_count_does_not_change_results(self, chsh_spec, monkeypatch):
        # The former thread setting is no longer read.
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", "1")
        serial = na.optimize_planar(chsh_spec)
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", "3")
        threaded = na.optimize_planar(chsh_spec)
        assert serial.value == threaded.value
        assert serial.angles == threaded.angles
        assert np.array_equal(serial.strategy.state, threaded.strategy.state)

    def test_widening_game_finishes_above_grid(self):
        # On this game the former golden-section bracket doubled every round
        # until it could no longer shrink below its tolerance.
        spec = widening_game()
        solution = na.optimize_planar(spec)
        assert solution.residual is None
        assert solution.value >= torus_grid_max(spec, 121) - 1e-12
        # lambda_max is 3/4 all along beta1 = 0, so the open cells along that
        # ridge double every round; within MAX_CELLS they close, and the
        # certified gap is within GAP_TOL (about 3.4e-10).
        assert 0.0 <= solution.search.upper - solution.value <= GAP_TOL


def widening_game() -> na.GameSpec:
    """A binary game whose lambda_max is 3/4 all along beta1 = 0."""
    wins = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 1),
            (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 1)]
    predicate = np.zeros((2, 2, 2, 2))
    for entry in wins:
        predicate[entry] = 1.0
    return na.GameSpec(id="widening", predicate=predicate, input_dist=np.full((2, 2), 0.25))


def ridge_game() -> na.GameSpec:
    """A weighted game in which Bob's input and output never matter.

    So lambda_max is constant along beta1: its maximum is a whole ridge.
    """
    predicate = np.zeros((2, 2, 2, 2))
    predicate[0, :, 0, :] = 1.0
    predicate[:, :, 1, :] = 0.5
    return na.GameSpec(id="ridge", predicate=predicate,
                       input_dist=np.full((2, 2), 0.25), binary_predicate=False)


def random_weighted_games(seed: int, count: int = 4) -> list[na.GameSpec]:
    """Weighted 2x2x2x2 games with uniform-random predicates and non-uniform pi."""
    rng = np.random.default_rng(seed)
    games = []
    for k in range(count):
        pi = rng.uniform(0.1, 1.0, size=(2, 2))
        games.append(na.GameSpec(
            id=f"weighted-{k}",
            predicate=rng.uniform(size=(2, 2, 2, 2)), input_dist=pi / pi.sum(),
        ))
    return games


def kernel_spectrum(kernel: np.ndarray, alpha1: float, beta1: float) -> np.ndarray:
    return np.linalg.eigvalsh(np.einsum("u,v,uvij->ij", _trig(alpha1)[0], _trig(beta1)[0], kernel))


def flip_symmetric_games(seed: int, count: int = 4) -> list[na.GameSpec]:
    """Weighted 2x2x2x2 games whose weights equal their flip of both outputs,
    with uniform-random predicates and non-uniform pi."""
    games = []
    for spec in random_weighted_games(seed, count):
        predicate = spec.predicate.copy()
        predicate[:, :, 1] = predicate[:, :, 0, ::-1]  # V(1 - a, 1 - b) = V(a, b)
        games.append(dataclasses.replace(spec, id=f"flip-{spec.id}", predicate=predicate))
    return games


class TestPlanarKernel:
    GAMES = random_weighted_games(61)

    def test_real_symmetric(self):
        for spec in self.GAMES:
            kernel = _planar_kernel(spec)
            assert kernel.dtype == np.float64 and kernel.shape == (3, 3, 4, 4)
            assert np.array_equal(kernel, kernel.swapaxes(-1, -2))

    def test_spectrum_matches_bell_operator(self):
        rng = np.random.default_rng(62)
        for spec in self.GAMES:
            kernel = _planar_kernel(spec)
            for a1, b1 in rng.uniform(-math.pi, math.pi, (10, 2)):
                strat = planar_strategy(spec, a1, b1)
                reference = np.linalg.eigvalsh(na.bell_operator(spec, strat.meas_a, strat.meas_b))
                assert np.abs(kernel_spectrum(kernel, a1, b1) - reference).max() <= 1e-12

    def test_sign_symmetry(self):
        rng = np.random.default_rng(63)
        for spec in self.GAMES:
            kernel = _planar_kernel(spec)
            for a1, b1 in rng.uniform(-math.pi, math.pi, (10, 2)):
                spectrum = kernel_spectrum(kernel, a1, b1)
                for flipped in ((-a1, b1), (a1, -b1), (-a1, -b1)):
                    assert np.abs(kernel_spectrum(kernel, *flipped) - spectrum).max() <= 1e-12

    def test_grid_cells_match_objective(self):
        # Lattice cells: a vertex value is lambda_max of the complex Bell
        # operator, and ``_cell_bounds`` from the four corner values bounds
        # every sampled point of the cell. The last five cells hold the
        # maximum, which their corners alone fall short of. On the widening
        # and ridge games one of K_a, K_b is exactly 0.
        rng = np.random.default_rng(64)
        offsets = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        for spec in (*self.GAMES, widening_game(), ridge_game()):
            kernel = _planar_kernel(spec)
            k_a, k_b, _ = _curvature_bounds(kernel)
            angles = na.optimize_planar(spec).angles
            peak = np.array([angles.alpha[1], angles.beta[1]])
            for halfwidth in (0.5, 0.05, 0.005):
                lower = np.concatenate([rng.uniform(0.0, math.pi - 2.0 * halfwidth, (5, 2)),
                                        peak - rng.uniform(0.0, 2.0 * halfwidth, (5, 2))])
                corners = (lower[:, None, :] + 2.0 * halfwidth * offsets).reshape(-1, 2)
                values = _top_eigenvalues(kernel, corners @ [1.0, 1.0j])
                wrapped = np.remainder(corners + math.pi, 2.0 * math.pi) - math.pi
                for (a1, b1), value in zip(wrapped, values):
                    strat = planar_strategy(spec, a1, b1)
                    op = na.bell_operator(spec, strat.meas_a, strat.meas_b)
                    assert abs(value - na.eig_hermitian(op).max_eigenvalue) <= 1e-12
                bounds = _cell_bounds(values.reshape(-1, 4), k_a, k_b, halfwidth)
                for cell, bound in zip(lower, bounds):
                    for point in cell + rng.uniform(0.0, 2.0 * halfwidth, (10, 2)):
                        assert kernel_spectrum(kernel, *point)[-1] <= bound + 1e-12, spec.id
                assert np.all(bounds[5:] >= kernel_spectrum(kernel, *peak)[-1] - 1e-12)

    def test_parity_blocks_match_bell_operator(self):
        # Where the weights equal their flip of both outputs the search solves
        # the kernel's two parity blocks in closed form, and lambda_max must
        # match the complex Bell operator's as the 4x4 solves do; on
        # planar-xor-1 (a = b) the top eigenvalue at (0, 0) is degenerate.
        # Other games keep the 4x4 kernel.
        rng = np.random.default_rng(67)
        xor = [game_from_dict(doc) for name, doc in planar_sweep_games().items() if "xor" in name]
        for spec in (*flip_symmetric_games(68), na.builtin_game("chsh"), *xor):
            blocks = _search_kernel(spec, _planar_kernel(spec))
            assert blocks.shape == (3, 3, 3, 2), spec.id
            points = np.concatenate([[[0.0, 0.0]], rng.uniform(-math.pi, math.pi, (20, 2))])
            for (a1, b1), value in zip(points, _top_eigenvalues(blocks, points @ [1.0, 1.0j])):
                strat = planar_strategy(spec, a1, b1)
                op = na.bell_operator(spec, strat.meas_a, strat.meas_b)
                assert abs(value - na.eig_hermitian(op).max_eigenvalue) <= 1e-12, spec.id
        strat = planar_strategy(xor[1], 0.0, 0.0)
        spectrum = np.linalg.eigvalsh(na.bell_operator(xor[1], strat.meas_a, strat.meas_b))
        assert xor[1].id == "planar-xor-1" and spectrum[-1] - spectrum[-2] <= 1e-15
        for spec in (*self.GAMES, na.builtin_game("g1"), na.builtin_game("g2"), ridge_game()):
            kernel = _planar_kernel(spec)
            assert _search_kernel(spec, kernel) is kernel, spec.id

    def test_cell_bounds_cover_the_majorant(self):
        # The bound ``_cell_bounds`` proves: at offset (s, t) from a cell's
        # centre lambda_max is at most I + A (1 - s^2/r^2) + B (1 - t^2/r^2),
        # with I the bilinear interpolant of the corner values, A = K_a r^2 / 2
        # and B = K_b r^2 / 2. The bound must be at least the largest corner
        # and the largest value of that majorant on a dense grid of the cell.
        # Random corners, curvature constants (0 in about half the draws) and
        # half-widths, at scales where the slopes or the curvature terms lead.
        rng = np.random.default_rng(66)
        u = np.linspace(0.0, 1.0, 41)  # 1/2 + s/2r along alpha1 and 1/2 + t/2r along beta1
        ua, ub = u[:, None], u[None, :]
        for _ in range(300):
            corners = rng.normal(size=(8, 4)) * 10.0 ** rng.uniform(-4.0, 1.0)
            k_a, k_b = rng.integers(2, size=2) * rng.uniform(0.0, 10.0, 2)
            halfwidth = 10.0 ** rng.uniform(-3.0, 0.0)
            bounds = _cell_bounds(corners, k_a, k_b, halfwidth)
            slack = 1e-12 * (1.0 + np.abs(corners).max())
            assert np.all(bounds >= corners.max(axis=1) - slack)
            v00, v01, v10, v11 = corners.T[:, :, None, None]  # (alpha1, beta1) ends low, high
            interpolant = ((1 - ua) * (1 - ub) * v00 + (1 - ua) * ub * v01
                           + ua * (1 - ub) * v10 + ua * ub * v11)
            majorant = (interpolant + 0.5 * k_a * halfwidth**2 * (1.0 - (2.0 * ua - 1.0) ** 2)
                        + 0.5 * k_b * halfwidth**2 * (1.0 - (2.0 * ub - 1.0) ** 2))
            assert np.all(bounds >= majorant.max(axis=(1, 2)) - slack)

    def test_axis_constants_bound_second_derivatives(self):
        # K_a bounds d^2 (v^T B v) / d alpha1^2 and K_b the beta1 one, for
        # random unit v and for the worst v (an extreme eigenvector), with the
        # second derivatives of B contracted from those of f = (1, cos, sin).
        rng = np.random.default_rng(65)
        for spec in (*self.GAMES, widening_game(), ridge_game()):
            kernel = _planar_kernel(spec)
            k_a, k_b, _ = _curvature_bounds(kernel)
            for a1, b1 in rng.uniform(-math.pi, math.pi, (20, 2)):
                fa, fb = _trig(a1), _trig(b1)
                units = rng.normal(size=(10, 4))
                units /= np.linalg.norm(units, axis=1, keepdims=True)
                for order, bound in (((2, 0), k_a), ((0, 2), k_b)):
                    second = np.einsum("u,v,uvij->ij", fa[order[0]], fb[order[1]], kernel)
                    along = np.einsum("ni,ij,nj->n", units, second, units)
                    assert np.abs(along).max() <= bound + 1e-12, spec.id
                    assert np.abs(np.linalg.eigvalsh(second)).max() <= bound + 1e-12, spec.id

    def test_quarter_grid_holds_full_maximum(self):
        # The search covers only [0, pi]^2; its bound still covers the torus.
        for spec in self.GAMES:
            search = na.optimize_planar(spec).search
            full = torus_grid_max(spec, 121)
            assert search.upper >= full - 1e-12
            assert search.value >= full - 1e-3  # the best vertex, before polishing
            assert search.upper - search.value <= 0.5 * GAP_TOL


class TestCertificate:
    GAMES = ("chsh", "g1", "g2")

    @pytest.fixture(scope="class")
    def solutions(self):
        specs = [na.builtin_game(game_id) for game_id in self.GAMES]
        specs += random_weighted_games(71, count=3)
        return [(spec, na.optimize_planar(spec)) for spec in specs]

    def test_gap_certified(self, solutions):
        for spec, solution in solutions:
            assert 0.0 <= solution.search.upper - solution.value <= GAP_TOL, spec.id

    def test_bounds_reach_omega_c(self, solutions):
        # The planar family holds every deterministic strategy (angles 0 or
        # pi), so its maximum, and the bound on it, are at least omega_c:
        # then the bound covers the deterministic Jordan blocks too.
        for spec, solution in solutions:
            omega_c = na.classical_value(spec)[0]
            assert solution.search.upper >= omega_c, spec.id
            assert solution.value >= omega_c - GAP_TOL, spec.id

    def test_upper_bound_covers_torus_grid(self, solutions):
        for spec, solution in solutions:
            assert solution.search.upper >= torus_grid_max(spec), spec.id

    def test_polish_reaches_closed_form(self, solutions):
        for spec, solution in solutions[1:3]:
            alpha1, beta1 = na.closed_form_angles(spec.id)
            assert abs(solution.angles.alpha[1] - alpha1) <= 1e-12
            assert abs(solution.angles.beta[1] - abs(beta1)) <= 1e-12

    def test_value_independent_of_first_partition(self, monkeypatch):
        specs = (na.builtin_game("g1"), *random_weighted_games(72, count=2))
        default = [na.optimize_planar(spec) for spec in specs]
        for first_cells in (11, 45):
            monkeypatch.setattr(quantum, "_FIRST_CELLS", first_cells)
            for spec, reference in zip(specs, default):
                other = na.optimize_planar(spec)
                assert abs(other.value - reference.value) <= 1e-12
                angles = np.subtract(other.angles.alpha + other.angles.beta,
                                     reference.angles.alpha + reference.angles.beta)
                assert np.abs(angles).max() <= 1e-9

    def test_cell_cap_stops_with_valid_bound(self, monkeypatch):
        # Bob's output and input never matter, so lambda_max is constant
        # along beta1: the maximum is a ridge, and the open cells double
        # every round until the cap stops the search.
        spec = ridge_game()
        monkeypatch.setattr(quantum, "MAX_CELLS", 4096)
        solution = na.optimize_planar(spec)
        search = solution.search
        assert search.capped
        # one solve per lattice point: the (_FIRST_CELLS + 1)^2 first
        # vertices, then each split's new points, solved once where cells
        # share them (on this ridge fewer than one per child, so fewer than
        # the cap per round)
        first = (quantum._FIRST_CELLS + 1) ** 2
        assert search.cells <= first + (search.rounds - 1) * 4096
        assert search.upper >= torus_grid_max(spec, 65) - 1e-12
        assert search.upper >= solution.value

    def test_capped_search_logs_a_warning(self, caplog):
        # Alice's input 1 is never asked, so K_a = 0 and lambda_max is flat in
        # alpha1 at its maximum 1/2: the open cells along alpha1 double every
        # round until MAX_CELLS stops the search, which then says so.
        predicate = np.zeros((2, 2, 2, 2))
        for entry in ((0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)):
            predicate[entry] = 1.0
        spec = na.GameSpec(id="flat", predicate=predicate,
                           input_dist=np.array([[0.5, 0.5], [0.0, 0.0]]))
        with caplog.at_level(logging.WARNING, logger="nonlocal_audit"):
            solution = na.optimize_planar(spec)
            na.optimize_planar(na.builtin_game("chsh"))
        search = solution.search
        assert search.capped
        [record] = caplog.records
        assert (record.name, record.levelno) == ("nonlocal_audit", logging.WARNING)
        message = record.getMessage()
        assert f"after {search.cells} solves" in message
        excess = search.upper - solution.value
        assert excess > GAP_TOL and f"{excess:.3g} above the value" in message

    def test_ridge_maxima_certified(self):
        # Along a ridge the open cells double every round; below MAX_CELLS
        # both ridge games still close uncapped, after about 66 thousand solves.
        for spec in (widening_game(), ridge_game()):
            search = na.optimize_planar(spec).search
            assert not search.capped, spec.id
            assert 0.0 <= search.upper - search.value <= 0.5 * GAP_TOL, spec.id
            assert search.upper >= torus_grid_max(spec, 65) - 1e-12, spec.id

    def test_search_solves_far_fewer_cells_than_the_grid(self):
        # The former scan solved 361^2 quarter-grid points at 721, and the
        # first round from 45 cells per axis alone solved 46^2 vertices; the
        # search solves each lattice point once, and ``cells`` counts those
        # solves (317 to 708 on these games).
        for game_id in self.GAMES:
            search = na.optimize_planar(na.builtin_game(game_id)).search
            assert not search.capped
            assert search.cells < 1000

    def test_solves_on_the_catalog_and_benchmark_games(self):
        # The bilinear-interpolant cell bound solves 5,055 lattice points on
        # chsh, g1, g2 and the benchmark's 8 planar_sweep games from 8 first
        # cells per axis; a looser bound closes fewer cells and solves more.
        specs = [*(na.builtin_game(game_id) for game_id in self.GAMES),
                 *(game_from_dict(doc) for doc in planar_sweep_games().values())]
        assert sum(na.optimize_planar(spec).search.cells for spec in specs) <= 5055

    def test_search_solves_each_lattice_point_once(self, monkeypatch):
        # A lattice point's angles are its integer index times the spacing,
        # so a point solved again, at its own or at a finer level, repeats
        # the same complex number alpha1 + 1j beta1.
        solved = []

        def recording(kernel, points):
            solved.extend(points.tolist())
            return _top_eigenvalues(kernel, points)

        monkeypatch.setattr(quantum, "_top_eigenvalues", recording)
        for spec in (*(na.builtin_game(game_id) for game_id in self.GAMES),
                     *random_weighted_games(73, count=2)):
            solved.clear()
            search = na.optimize_planar(spec).search
            assert len(solved) == len(set(solved)) == search.cells, spec.id


class TestRefinePlanar:
    def test_the_audit_polishes_through_refine_planar(self, monkeypatch):
        # The benchmark's per-layer quantum.refine_planar.s traces this public
        # entry point; it reads 0 if the audit polishes by any other path.
        calls = []
        refine = quantum.refine_planar

        def counted(*args):
            calls.append(args)
            return refine(*args)

        monkeypatch.setattr(quantum, "refine_planar", counted)
        na.optimize_planar(na.builtin_game("chsh"))
        assert len(calls) == 1
        calls.clear()
        na.closed_form_optimum("g1")
        assert calls == []

    def test_ascends_from_any_start(self, g1_spec):
        rng = np.random.default_rng(81)
        kernel = _planar_kernel(g1_spec)
        for a0, b0 in rng.uniform(-math.pi, math.pi, (10, 2)):
            start = _planar_jet(kernel, a0, b0)[0]
            _, _, value = na.refine_planar(g1_spec, a0, b0, halfwidth=math.pi / 2.0)
            assert value >= start - 1e-13

    def test_reaches_the_optimum_from_random_starts(self):
        # From 200 starts on the whole torus, with steps of up to pi/2, the
        # polish ends at the optimum 190 times on g1, 179 on g2 and 200 on chsh.
        rng = np.random.default_rng(7)
        for game_id, omega, floor in (("g1", OMEGA_Q_G1, 190), ("g2", OMEGA_Q_G2, 179),
                                      ("chsh", OMEGA_Q_CHSH, 200)):
            spec = na.builtin_game(game_id)
            starts = rng.uniform(-math.pi, math.pi, (200, 2))
            reached = sum(abs(na.refine_planar(spec, a0, b0, math.pi / 2.0)[2] - omega) <= 1e-12
                          for a0, b0 in starts)
            assert reached >= floor, game_id

    def test_stationary_at_result(self, g2_spec):
        a1, b1, _ = na.refine_planar(g2_spec, 1.5, 1.9, halfwidth=0.5)
        value, grad, hess = _planar_jet(_planar_kernel(g2_spec), a1, b1)
        assert np.abs(grad).max() <= 1e-12
        assert np.all(np.linalg.eigvalsh(hess) < 0.0)
        assert abs(value - OMEGA_Q_G2) <= 1e-14

    @pytest.mark.parametrize("halfwidth, shortened", [(math.pi / 32.0, False), (1e-4, True)],
                             ids=["full", "shortened"])
    def test_fallback_step_ascends_by_its_bound(self, monkeypatch, halfwidth, shortened):
        # With no halvings every round takes the step g / K, K = K_aa + 2 K_ab
        # + K_bb, shortened by c = min(1, halfwidth / max|g / K|); along it the
        # Rayleigh quotient of the top eigenvector rises by at least
        # (c - c^2 / 2) |g|^2 / K, which is |g|^2 / 2K unshortened.
        monkeypatch.setattr(quantum, "_HALVINGS", 0)
        rng = np.random.default_rng(83)
        for spec in (na.builtin_game("g1"), na.builtin_game("g2")):
            kernel = _planar_kernel(spec)
            curvature = _curvature_bounds(kernel)[2]
            for a0, b0 in rng.uniform(-math.pi, math.pi, (4, 2)):
                start = _planar_jet(kernel, a0, b0)[0]
                assert na.refine_planar(spec, a0, b0, halfwidth)[2] >= start - quantum._ROUNDING
                with monkeypatch.context() as one_round:
                    one_round.setattr(quantum, "_POLISH_ROUNDS", 1)
                    point = (a0, b0)
                    for _ in range(8):
                        value, grad, _ = _planar_jet(kernel, *point)
                        step = grad / curvature
                        c = min(1.0, halfwidth / np.abs(step).max())
                        assert (c < 1.0) == shortened
                        *moved, after = na.refine_planar(spec, *point, halfwidth)
                        assert np.abs(np.subtract(moved, point) - c * step).max() <= 1e-15
                        rise = (c - c * c / 2.0) * (grad @ grad) / curvature
                        assert after >= value + rise - quantum._ROUNDING
                        point = moved


class TestCglmpStrategy:
    def test_kappa(self, cglmp_strategy_fixture):
        state = cglmp_strategy_fixture.state
        kappa = float(np.real(state[4] / state[0]))
        # oracle: evaluate (sqrt(11) - sqrt(3)) / 2 directly
        assert abs(kappa - (math.sqrt(11.0) - math.sqrt(3.0)) / 2.0) <= 1e-15
        assert abs(kappa - 0.7922869913932614) <= 1e-12

    def test_projectors_valid(self, cglmp_strategy_fixture):
        assert cglmp_strategy_fixture.validate() == []
        for meas in (*cglmp_strategy_fixture.meas_a, *cglmp_strategy_fixture.meas_b):
            total = sum(meas)
            assert np.linalg.norm(total - np.eye(3)) <= 1e-12

    def test_raw_sum_reference_value(self, cglmp_spec, cglmp_strategy_fixture):
        value = na.quantum_game_value(cglmp_spec, cglmp_strategy_fixture)
        assert abs(4.0 * value - CGLMP_RAW_QUANTUM) <= 1e-12

    def test_state_is_top_eigenvector(self, cglmp_spec, cglmp_strategy_fixture):
        op = na.bell_operator(
            cglmp_spec, cglmp_strategy_fixture.meas_a, cglmp_strategy_fixture.meas_b
        )
        eig = na.eig_hermitian(op)
        overlap = abs(np.vdot(eig.max_eigenvector, cglmp_strategy_fixture.state))
        assert overlap >= 1.0 - 1e-12


def test_swap_strategy_transposes_correlations(g2_spec, g2_solution):
    table = na.correlation_table(g2_spec, g2_solution.strategy)
    swapped_table = na.correlation_table(
        swap_parties(g2_spec), na.swap_strategy(g2_solution.strategy)
    )
    assert np.allclose(table, np.transpose(swapped_table, (1, 0, 3, 2)), atol=1e-12)
