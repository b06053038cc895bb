"""Planar strategies, Bell operators, closed forms, and the two-angle optimizer."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit import quantum
from nonlocal_audit.errors import (
    DimensionMismatchError,
    NotPlanarApplicableError,
    SettingError,
    UnknownGameError,
)
from nonlocal_audit.quantum import (
    GRID_MAX,
    _grid_lambda_max,
    _lambda_max_fast,
    _planar_kernel,
    _trig,
    _worker_count,
)

from conftest import (
    CGLMP_RAW_QUANTUM,
    OMEGA_Q_CHSH,
    OMEGA_Q_G1,
    OMEGA_Q_G2,
    planar_strategy,
)

PLUS_PROJECTOR = np.full((2, 2), 0.5, dtype=complex)


class TestPlanarMeasurements:
    def test_theta_zero(self):
        meas = na.planar_measurement(0.0)
        assert np.allclose(meas.projectors[0], PLUS_PROJECTOR, atol=1e-15)
        assert np.allclose(
            meas.projectors[1], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15
        )

    def test_theta_pi(self):
        # at theta = pi the +1 eigenprojector is |-><-|
        meas = na.planar_measurement(math.pi)
        assert np.allclose(
            meas.projectors[0], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12
        )

    def test_completeness_any_angle(self):
        rng = np.random.default_rng(31)
        for theta in rng.uniform(-math.pi, math.pi, 25):
            meas = na.planar_measurement(theta)
            assert meas.validate() == []
            total = meas.projectors[0] + meas.projectors[1]
            assert np.linalg.norm(total - np.eye(2)) <= 1e-12

    def test_angle_constraints(self):
        with pytest.raises(ValueError):
            na.PlanarAngles(alpha=(0.1, 0.0), beta=(0.0, 0.0))
        with pytest.raises(ValueError):
            na.PlanarAngles(alpha=(0.0, 4.0), beta=(0.0, 0.0))


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
        assert abs(4.0 * na.max_eigenvalue(op) - target) <= 1e-10

    def test_chsh_tsirelson_point(self, chsh_spec):
        strat = planar_strategy(chsh_spec, math.pi / 2.0, math.pi / 2.0)
        op = na.bell_operator(chsh_spec, strat.meas_a, strat.meas_b)
        assert abs(na.max_eigenvalue(op) - OMEGA_Q_CHSH) <= 1e-12

    def test_hermitian(self, g2_spec):
        strat = planar_strategy(g2_spec, 0.7, -0.4)
        op = na.bell_operator(g2_spec, strat.meas_a, strat.meas_b)
        assert na.is_hermitian(op)

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
        strat = na.QuantumStrategy(d_a=2, d_b=2, state=ket, meas_a=meas_a, meas_b=meas_b)
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
            top = na.max_eigenvalue(op)
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
        assert abs(na.scaled_bell_charpoly_g1(2.0, math.pi, math.pi)) <= 1e-12

    def test_g2_charpoly_case_boundary(self):
        assert abs(na.scaled_bell_charpoly_g2(3.0, math.pi, math.pi)) <= 1e-12

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
            assert abs(_lambda_max_fast(g1_spec, a1, b1) - na.max_eigenvalue(op)) <= 1e-12

    def test_deterministic(self, chsh_spec):
        first = na.optimize_planar(chsh_spec, grid_points=121)
        second = na.optimize_planar(chsh_spec, grid_points=121)
        assert first.value == second.value
        assert first.angles == second.angles

    def test_worker_count_does_not_change_results(self, chsh_spec, monkeypatch):
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", "1")
        serial = na.optimize_planar(chsh_spec, grid_points=121)
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", "3")
        threaded = na.optimize_planar(chsh_spec, grid_points=121)
        assert serial.value == threaded.value
        assert serial.angles == threaded.angles
        assert np.array_equal(serial.strategy.state, threaded.strategy.state)


    def test_refinement_bracket_stays_within_one_period(self, monkeypatch):
        # On this game the refinement bracket used to double every round until
        # golden section could no longer shrink it below its tolerance.
        wins = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 1),
                (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 1)]
        predicate = np.zeros((2, 2, 2, 2))
        for entry in wins:
            predicate[entry] = 1.0
        spec = na.GameSpec(id="widening", n_x=2, n_y=2, n_a=2, n_b=2,
                           predicate=predicate, input_dist=np.full((2, 2), 0.25))
        golden = quantum._golden_max

        def bounded(f, lo, hi, tol=1e-10):
            assert hi - lo <= 2.0 * math.pi + 1e-9
            return golden(f, lo, hi, tol)

        monkeypatch.setattr(quantum, "_golden_max", bounded)
        solution = na.optimize_planar(spec, grid_points=121)
        assert solution.residual is None


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
    return np.linalg.eigvalsh(np.einsum("u,v,uvij->ij", _trig(alpha1), _trig(beta1), kernel))


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
        thetas = np.linspace(-math.pi, math.pi, 70)
        rng = np.random.default_rng(64)
        for spec in self.GAMES:
            values = _grid_lambda_max(spec, thetas, workers=1)
            for i, j in rng.integers(0, 70, (10, 2)):
                assert abs(values[i, j] - _lambda_max_fast(spec, thetas[i], thetas[j])) <= 1e-12

    def test_quarter_grid_holds_full_maximum(self):
        thetas = np.linspace(-math.pi, math.pi, 121)
        for spec in self.GAMES:
            full = _grid_lambda_max(spec, thetas, workers=1)
            quarter = _grid_lambda_max(spec, thetas[121 // 2 :], workers=1)
            assert quarter.shape == (61, 61)
            assert abs(quarter.max() - full.max()) <= 1e-12


class TestWorkerCount:
    @pytest.mark.parametrize("raw", ["abc", "-3", "1.5", " "])
    def test_bad_value_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", raw)
        with pytest.raises(SettingError, match="NONLOCAL_AUDIT_THREADS"):
            _worker_count()

    def test_explicit_and_auto(self, monkeypatch):
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", "2")
        assert _worker_count() == 2
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", "0")
        auto = _worker_count()
        assert 1 <= auto <= 8
        monkeypatch.delenv("NONLOCAL_AUDIT_THREADS")
        assert _worker_count() == auto

    def test_capped_at_row_chunks(self, monkeypatch, chsh_spec):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(quantum, "ThreadPoolExecutor", RecordingPool)
        two_chunks = np.linspace(0.0, math.pi, quantum._GRID_CHUNK_ROWS + 4)
        threaded = _grid_lambda_max(chsh_spec, two_chunks, workers=3)
        assert pools == [2]
        assert np.array_equal(threaded, _grid_lambda_max(chsh_spec, two_chunks, workers=1))
        _grid_lambda_max(chsh_spec, two_chunks[: quantum._GRID_CHUNK_ROWS], workers=3)
        assert pools == [2]  # one chunk runs without a pool


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
            total = sum(meas.projectors)
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
        na.swap_parties(g2_spec), na.swap_strategy(g2_solution.strategy)
    )
    assert np.allclose(table, np.transpose(swapped_table, (1, 0, 3, 2)), atol=1e-12)
