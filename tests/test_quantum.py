"""Planar strategies, Bell operators, closed forms, and the two-angle optimizer."""

import math

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit import quantum
from nonlocal_audit.errors import (
    DimensionMismatchError,
    NotPlanarApplicableError,
    UnknownGameError,
)
from nonlocal_audit.games import swap_parties
from nonlocal_audit.hermitian import is_hermitian
from nonlocal_audit.quantum import (
    GAP_TOL,
    GRID_MAX,
    _cell_bounds,
    _curvature_bound,
    _planar_jet,
    _planar_kernel,
    _trig,
    branch_and_bound,
    scaled_bell_charpoly_g1,
    scaled_bell_charpoly_g2,
)

from conftest import (
    CGLMP_RAW_QUANTUM,
    OMEGA_Q_CHSH,
    OMEGA_Q_G1,
    OMEGA_Q_G2,
    planar_strategy,
    swap_strategy,
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


class TestBellOperator:
    def test_all_one_predicate_collapses_to_identity(self):
        spec = na.GameSpec(
            id="allone", n_x=2, n_y=2, n_a=2, n_b=2,
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


class TestOptimizePlanar:
    def test_g1(self, g1_spec):
        sol = na.optimize_planar(g1_spec, grid_points=181)
        assert abs(sol.value - OMEGA_Q_G1) <= 1e-8
        alpha_target, beta_target = na.closed_form_angles("g1")
        assert abs(sol.angles.alpha[1] - alpha_target) <= 1e-6
        # beta is reported as the non-negative sign representative
        beta1 = sol.angles.beta[1]
        assert min(abs(beta1 - beta_target), abs(beta1 + beta_target)) <= 1e-6
        assert abs(sol.residual) <= 1e-8

    def test_g2(self, g2_spec):
        sol = na.optimize_planar(g2_spec, grid_points=181)
        assert abs(sol.value - OMEGA_Q_G2) <= 1e-8
        assert abs(sol.angles.alpha[1] - sol.angles.beta[1]) <= 1e-6

    def test_chsh(self, chsh_solution):
        assert abs(chsh_solution.value - OMEGA_Q_CHSH) <= 1e-8
        assert chsh_solution.angles.alpha[1] >= 0.0

    def test_beats_classical(self, g1_spec, g2_spec, chsh_spec):
        for spec in (g1_spec, g2_spec, chsh_spec):
            sol = na.optimize_planar(spec, grid_points=121)
            assert sol.value >= na.classical_value(spec)[0] - 1e-9

    def test_guards(self, cglmp_spec, g1_spec):
        with pytest.raises(NotPlanarApplicableError):
            na.optimize_planar(cglmp_spec)
        for grid_points in (32, 0, -5, GRID_MAX + 1):
            with pytest.raises(ValueError, match="grid_points"):
                na.optimize_planar(g1_spec, grid_points=grid_points)

    def test_fast_path_matches_jacobi(self, g1_spec):
        rng = np.random.default_rng(51)
        for _ in range(20):
            a1, b1 = rng.uniform(-math.pi, math.pi, 2)
            strat = planar_strategy(g1_spec, a1, b1)
            op = na.bell_operator(g1_spec, strat.meas_a, strat.meas_b)
            value = _planar_jet(_planar_kernel(g1_spec), a1, b1)[0]
            assert abs(value - na.eig_hermitian(op).max_eigenvalue) <= 1e-12

    def test_deterministic(self, chsh_spec):
        first = na.optimize_planar(chsh_spec, grid_points=121)
        second = na.optimize_planar(chsh_spec, grid_points=121)
        assert first.value == second.value
        assert first.angles == second.angles

    def test_worker_count_does_not_change_results(self, chsh_spec, monkeypatch):
        # The former thread setting is no longer read.
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", "1")
        serial = na.optimize_planar(chsh_spec, grid_points=121)
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", "3")
        threaded = na.optimize_planar(chsh_spec, grid_points=121)
        assert serial.value == threaded.value
        assert serial.angles == threaded.angles
        assert np.array_equal(serial.strategy.state, threaded.strategy.state)

    def test_widening_game_finishes_above_grid(self):
        # On this game the former golden-section bracket doubled every round
        # until it could no longer shrink below its tolerance.
        wins = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 1),
                (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 1)]
        predicate = np.zeros((2, 2, 2, 2))
        for entry in wins:
            predicate[entry] = 1.0
        spec = na.GameSpec(id="widening", n_x=2, n_y=2, n_a=2, n_b=2,
                           predicate=predicate, input_dist=np.full((2, 2), 0.25))
        solution = na.optimize_planar(spec, grid_points=121)
        assert solution.residual is None
        assert solution.value >= torus_grid_max(spec, 121) - 1e-12
        # lambda_max is 3/4 all along beta1 = 0, so the open cells double every
        # round until MAX_CELLS stops the search; the bound reached is reported.
        assert 0.0 <= solution.upper_bound - solution.value <= 1e-7


def random_weighted_games(seed: int, count: int = 4) -> list[na.GameSpec]:
    """Weighted 2x2x2x2 games with uniform-random predicates and non-uniform pi."""
    rng = np.random.default_rng(seed)
    games = []
    for k in range(count):
        pi = rng.uniform(0.1, 1.0, size=(2, 2))
        games.append(na.GameSpec(
            id=f"weighted-{k}", n_x=2, n_y=2, n_a=2, n_b=2,
            predicate=rng.uniform(size=(2, 2, 2, 2)), input_dist=pi / pi.sum(),
        ))
    return games


def kernel_spectrum(kernel: np.ndarray, alpha1: float, beta1: float) -> np.ndarray:
    return np.linalg.eigvalsh(np.einsum("u,v,uvij->ij", _trig(alpha1)[0], _trig(beta1)[0], kernel))


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
        # Branch-and-bound cells: the centre value is lambda_max of the complex
        # Bell operator, and the bound holds at every sampled point of the cell.
        rng = np.random.default_rng(64)
        halfwidth = 0.05
        for spec in self.GAMES:
            kernel = _planar_kernel(spec)
            centres = rng.uniform(0.0, math.pi, (10, 2))
            values, bounds = _cell_bounds(
                kernel, centres, halfwidth, _curvature_bound(kernel), -math.inf)
            for (a1, b1), value, bound in zip(centres, values, bounds):
                strat = planar_strategy(spec, a1, b1)
                op = na.bell_operator(spec, strat.meas_a, strat.meas_b)
                assert abs(value - na.eig_hermitian(op).max_eigenvalue) <= 1e-12
                for da, db in rng.uniform(-halfwidth, halfwidth, (10, 2)):
                    assert kernel_spectrum(kernel, a1 + da, b1 + db)[-1] <= bound + 1e-12

    def test_quarter_grid_holds_full_maximum(self):
        # The search covers only [0, pi]^2; its bound still covers the torus.
        for spec in self.GAMES:
            search = branch_and_bound(_planar_kernel(spec), 7)
            full = torus_grid_max(spec, 121)
            assert search.upper >= full - 1e-12
            assert search.value >= full - 1e-3  # the best centre, before polishing
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
            assert 0.0 <= solution.upper_bound - solution.value <= GAP_TOL, spec.id

    def test_upper_bound_covers_torus_grid(self, solutions):
        for spec, solution in solutions:
            assert solution.upper_bound >= torus_grid_max(spec), spec.id

    def test_polish_reaches_closed_form(self, solutions):
        for spec, solution in solutions[1:3]:
            alpha1, beta1 = na.closed_form_angles(spec.id)
            assert abs(solution.angles.alpha[1] - alpha1) <= 1e-12
            assert abs(solution.angles.beta[1] - abs(beta1)) <= 1e-12

    def test_value_independent_of_first_partition(self):
        for spec in (na.builtin_game("g1"), *random_weighted_games(72, count=2)):
            coarse = na.optimize_planar(spec, grid_points=181)
            fine = na.optimize_planar(spec, grid_points=721)
            assert abs(coarse.value - fine.value) <= 1e-12

    def test_grid_max_completes(self, chsh_spec):
        solution = na.optimize_planar(chsh_spec, grid_points=GRID_MAX)
        assert abs(solution.value - OMEGA_Q_CHSH) <= 1e-12
        assert 0.0 <= solution.upper_bound - solution.value <= GAP_TOL

    def test_cell_cap_stops_with_valid_bound(self, monkeypatch):
        # Bob's output and input never matter, so lambda_max is constant
        # along beta1: the maximum is a ridge, and the open cells double
        # every round until the cap stops the search.
        predicate = np.zeros((2, 2, 2, 2))
        predicate[0, :, 0, :] = 1.0
        predicate[:, :, 1, :] = 0.5
        spec = na.GameSpec(id="ridge", n_x=2, n_y=2, n_a=2, n_b=2, predicate=predicate,
                           input_dist=np.full((2, 2), 0.25), binary_predicate=False)
        monkeypatch.setattr(quantum, "MAX_CELLS", 4096)
        search = branch_and_bound(_planar_kernel(spec), 45)
        assert search.capped
        assert search.cells <= 2025 + (search.rounds - 1) * 4096
        assert search.upper >= torus_grid_max(spec, 65) - 1e-12
        solution = na.optimize_planar(spec)
        assert solution.upper_bound >= solution.value

    def test_search_solves_far_fewer_cells_than_the_grid(self):
        # The former scan solved 361^2 quarter-grid points at 721.
        for game_id in self.GAMES:
            search = branch_and_bound(_planar_kernel(na.builtin_game(game_id)), 45)
            assert not search.capped
            assert 5 * search.cells < 361 * 361 // 2


class TestRefinePlanar:
    def test_ascends_from_any_start(self, g1_spec):
        rng = np.random.default_rng(81)
        kernel = _planar_kernel(g1_spec)
        for a0, b0 in rng.uniform(-math.pi, math.pi, (10, 2)):
            start = _planar_jet(kernel, a0, b0)[0]
            _, _, value = na.refine_planar(g1_spec, a0, b0, halfwidth=math.pi / 2.0)
            assert value >= start - 1e-13

    def test_stationary_at_result(self, g2_spec):
        a1, b1, _ = na.refine_planar(g2_spec, 1.5, 1.9, halfwidth=0.5)
        value, grad, hess = _planar_jet(_planar_kernel(g2_spec), a1, b1)
        assert np.abs(grad).max() <= 1e-12
        assert np.all(np.linalg.eigvalsh(hess) < 0.0)
        assert abs(value - OMEGA_Q_G2) <= 1e-14


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
        swap_parties(g2_spec), swap_strategy(g2_solution.strategy)
    )
    assert np.allclose(table, np.transpose(swapped_table, (1, 0, 3, 2)), atol=1e-12)
