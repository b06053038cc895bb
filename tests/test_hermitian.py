"""Hermitian eigensolver and its phase gauge, and the tensor product and partial trace
references in conftest."""

import math

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.hermitian import is_hermitian
from nonlocal_audit.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
)

from nonlocal_audit.games import game_from_dict
from nonlocal_audit.quantum import best_known_solution

from conftest import (
    OMEGA_Q_G1,
    bloch_grid_max,
    kron,
    partial_trace_first,
    planar_strategy,
    planar_sweep_games,
    random_hermitian,
    reconstruct,
)

PLANAR_SWEEP = planar_sweep_games()

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_product(self):
        d10 = np.diag([1.0, 0.0])
        assert np.array_equal(kron(d10, d10), np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_sigma_x_pair_fixes_bell_state(self):
        # oracle: direct 4x4 multiplication
        op = kron(SIGMA_X, SIGMA_X)
        assert np.allclose(op @ BELL_PHI_PLUS, BELL_PHI_PLUS, atol=1e-15)

    def test_entry_layout(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        b = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=complex)
        out = kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert out[i * 2 + k, j * 2 + l] == a[i, j] * b[k, l]

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 2)
            lhs = np.trace(kron(a, b))
            rhs = np.trace(a) * np.trace(b)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_hermitian_propagates(self):
        rng = np.random.default_rng(12)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        assert is_hermitian(kron(a, b))


class TestEigHermitian:
    def test_pauli_z_spectrum(self):
        eig = na.eig_hermitian(SIGMA_Z)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_rank_one_times_two(self):
        eig = na.eig_hermitian(np.ones((2, 2), dtype=complex))
        assert np.allclose(eig.eigenvalues, [0.0, 2.0], atol=1e-14)

    def test_g1_bell_operator_top_eigenvalue(self, g1_spec, g1_solution):
        # 4x the normalized optimum: the input-distribution-scaled operator
        op = 4.0 * na.bell_operator(
            g1_spec, g1_solution.strategy.meas_a, g1_solution.strategy.meas_b
        )
        eig = na.eig_hermitian(op)
        assert abs(eig.max_eigenvalue - (16.0 + math.sqrt(13.0)) / 9.0) <= 1e-10
        assert abs(eig.max_eigenvalue / 4.0 - OMEGA_Q_G1) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            na.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            na.eig_hermitian(np.zeros((2, 3)))

    def test_invariants_random(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4, 9):
            for _ in range(40):
                h = random_hermitian(rng, d)
                hnorm = np.linalg.norm(h)
                eig = na.eig_hermitian(h)
                assert np.all(np.diff(eig.eigenvalues) >= 0.0)
                assert np.linalg.norm(reconstruct(eig) - h) <= 1e-9 * hnorm
                gram = eig.eigenvectors.conj().T @ eig.eigenvectors
                assert np.abs(gram - np.eye(d)).max() <= 1e-10
                for k in range(d):
                    res = np.linalg.norm(
                        h @ eig.eigenvectors[:, k]
                        - eig.eigenvalues[k] * eig.eigenvectors[:, k]
                    )
                    assert res <= 1e-10 * max(1.0, hnorm)
                # phase gauge: the largest-magnitude component is real and positive
                vecs = eig.eigenvectors
                pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)]
                assert np.all(pivots.imag == 0.0) and np.all(pivots.real > 0.0)

    def test_gauge_ties_pick_the_first_component(self):
        # |v_0| = |v_1| exactly, but rounding in eigh can make either the larger
        for phi in 2.0 * math.pi * np.arange(64) / 64:
            v = np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2.0)
            eig = na.eig_hermitian(np.outer(v, v.conj()))
            first = eig.eigenvectors[0]
            assert np.all(first.imag == 0.0) and np.all(first.real > 0.0), phi
            assert abs(eig.max_eigenvector[1] - v[1]) <= 1e-12, phi

    def test_zero_matrix(self):
        eig = na.eig_hermitian(np.zeros((3, 3)))
        assert np.array_equal(eig.eigenvalues, np.zeros(3))

    def test_top_eigenspace_degenerate(self):
        eig = na.eig_hermitian(np.eye(2) / 2.0)
        basis, degenerate = eig.top_eigenspace()
        assert degenerate
        assert basis.shape == (2, 2)

    def test_top_eigenspace_simple(self):
        eig = na.eig_hermitian(SIGMA_Z)
        basis, degenerate = eig.top_eigenspace()
        assert not degenerate
        assert basis.shape == (2, 1)
        assert abs(abs(basis[0, 0]) - 1.0) <= 1e-12


class TestPartialTrace:
    def test_maximally_mixed(self):
        out = partial_trace_first(np.eye(4) / 4.0, 2, 2)
        assert np.allclose(out, np.eye(2) / 2.0)

    def test_product_state(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0  # |00>
        out = partial_trace_first(np.outer(ket, ket.conj()), 2, 2)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_bell_state(self):
        # oracle: direct expansion of |Phi+><Phi+| and index-wise trace
        rho = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
        out = partial_trace_first(rho, 2, 2)
        assert np.allclose(out, np.eye(2) / 2.0, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 6)
        out = partial_trace_first(m, 2, 3)
        assert abs(np.trace(out) - np.trace(m)) <= 1e-12 * max(1.0, abs(np.trace(m)))

    def test_kron_collapse(self):
        rng = np.random.default_rng(7)
        for da, db in ((2, 2), (2, 3), (3, 3)):
            a = random_hermitian(rng, da)
            b = random_hermitian(rng, db)
            out = partial_trace_first(kron(a, b), da, db)
            target = np.trace(a) * b
            assert np.linalg.norm(out - target) <= 1e-12 * max(1.0, np.linalg.norm(target))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_first(np.eye(4), 2, 3)


def test_eig_matches_bloch_oracle_on_planar_operator(g1_spec):
    # independent check on a non-trivial qubit operator from the domain
    strat = planar_strategy(g1_spec, 1.0, -0.5)
    op = strat.meas_b[1, 0] * 0.5 + strat.meas_b[0, 1] * 0.5
    assert abs(na.eig_hermitian(op).max_eigenvalue - bloch_grid_max(op)) <= 1e-9


def _relation_stacks(name: str):
    """Each side's relations and their (pairs, d, d) operator stack, at the best known strategy."""
    spec = game_from_dict(PLANAR_SWEEP[name]) if name in PLANAR_SWEEP else na.builtin_game(name)
    strategy = best_known_solution(spec).strategy
    for side_spec, side_strategy in ((spec, strategy),
                                     (na.swap_parties(spec), na.swap_strategy(strategy))):
        relations = na.fine_grained_relations(side_spec, side_strategy.meas_b)
        yield relations, np.array([rel.operator for rel in relations])


class TestStackedEig:
    @pytest.mark.parametrize("name", [*na.GAME_IDS, *sorted(PLANAR_SWEEP)])
    def test_stack_matches_one_matrix_at_a_time(self, name):
        for relations, stack in _relation_stacks(name):
            stacked = na.eig_hermitian(stack)
            assert stacked.eigenvalues.shape == stack.shape[:2]
            assert stacked.eigenvectors.shape == stack.shape
            for k, (rel, op) in enumerate(zip(relations, stack)):
                single = na.eig_hermitian(op)
                assert np.array_equal(stacked.eigenvalues[k], single.eigenvalues), (name, k)
                assert np.array_equal(stacked.eigenvectors[k], single.eigenvectors), (name, k)
                assert rel.xi == single.max_eigenvalue
                assert np.array_equal(rel.certain_space, single.top_eigenspace()[0])

    def test_stack_with_one_non_hermitian_member_raises(self):
        (_, stack), _ = _relation_stacks("g1")
        stack[2, 0, 1] += 1e-6
        with pytest.raises(NotHermitianError):
            na.eig_hermitian(stack)
        with pytest.raises(NotHermitianError):
            na.eig_hermitian(stack[2])
        na.eig_hermitian(np.delete(stack, 2, axis=0))

    @pytest.mark.parametrize("shape", [(3, 2, 3), (2, 3), (4,), ()])
    def test_non_square_raises(self, shape):
        with pytest.raises(NotSquareError, match=r"expected a square matrix, got shape"):
            na.eig_hermitian(np.zeros(shape))
