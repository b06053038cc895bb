"""Fine-grained relation operators, bounds, and maximally certain spaces."""

import math

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.errors import DimensionMismatchError

from conftest import (
    CGLMP_XI_CANONICAL,
    bloch_grid_max,
    planar_strategy,
    random_measurement,
    random_strategy,
)


def _relations(spec, strategy, bob_steers=False):
    if bob_steers:
        spec, strategy = na.swap_parties(spec), na.swap_strategy(strategy)
    return {r.pair: r for r in na.fine_grained_relations(spec, strategy.meas_b)}


class TestG1Relations:
    def test_bounds(self, g1_spec, g1_solution):
        rels = _relations(g1_spec, g1_solution.strategy)
        # one non-trivial relation; the other three are trivial on the
        # per-unit-mass scale (a single projector bounded by 1)
        assert abs(rels[(1, 0)].xi_normalized - 0.8838) <= 5e-4
        assert abs(rels[(1, 0)].xi - 0.883795939621999) <= 1e-9
        assert not rels[(1, 0)].trivial
        for pair in ((0, 0), (0, 1), (1, 1)):
            assert abs(rels[pair].xi_normalized - 1.0) <= 1e-9
            assert rels[pair].trivial
            assert abs(rels[pair].xi - 0.5) <= 1e-12  # canonical scale: pi mass 1/2

    def test_trivial_certain_state_is_projector_axis(self, g1_spec, g1_solution):
        # relation (0,0) involves only Bob's y=0 outcome-0 projector, whose
        # +1 eigenvector is |+>
        rels = _relations(g1_spec, g1_solution.strategy)
        basis, degenerate = rels[(0, 0)].certain_space, rels[(0, 0)].degenerate
        assert not degenerate
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert abs(abs(np.vdot(plus, basis[:, 0])) - 1.0) <= 1e-10

    def test_mirror_side(self, g1_spec, g1_solution):
        rels = _relations(g1_spec, g1_solution.strategy, bob_steers=True)
        assert abs(rels[(0, 0)].xi_normalized - 0.8838) <= 5e-4
        for pair in ((0, 1), (1, 0), (1, 1)):
            assert rels[pair].trivial


class TestG2Relations:
    def test_bounds(self, g2_spec, g2_solution):
        rels = _relations(g2_spec, g2_solution.strategy)
        assert abs(rels[(0, 0)].xi - 0.881462) <= 5e-6
        assert abs(rels[(0, 1)].xi - 0.881462) <= 5e-6
        assert abs(rels[(1, 0)].xi - 0.823244) <= 5e-6
        assert abs(rels[(1, 1)].xi_normalized - 1.0) <= 1e-9
        assert rels[(1, 1)].trivial

    def test_closed_form_bounds(self, g2_solution):
        # spectral values against the trigonometric reductions of the
        # closed-form bound expressions
        alpha1 = g2_solution.angles.alpha[1]
        rels = _relations(na.builtin_game("g2"), g2_solution.strategy)
        assert abs(rels[(0, 0)].xi - (1.0 + math.sin(alpha1 / 2.0)) / 2.0) <= 1e-12
        assert abs(rels[(1, 0)].xi - (1.0 + math.cos(alpha1 / 2.0)) / 2.0) <= 1e-12

    def test_certain_state_pair_10(self, g2_spec, g2_solution):
        # certain state proportional to -e^{i alpha1/2}|0> + |1>
        alpha1 = g2_solution.angles.alpha[1]
        rels = _relations(g2_spec, g2_solution.strategy)
        basis, degenerate = rels[(1, 0)].certain_space, rels[(1, 0)].degenerate
        assert not degenerate
        target = np.array([-np.exp(1j * alpha1 / 2.0), 1.0]) / math.sqrt(2.0)
        assert abs(abs(np.vdot(target, basis[:, 0])) - 1.0) <= 1e-10


class TestCglmpRelations:
    def test_all_six_bounds_equal(self, cglmp_spec, cglmp_strategy_fixture):
        rels = _relations(cglmp_spec, cglmp_strategy_fixture)
        assert len(rels) == 6
        for rel in rels.values():
            # canonical (pi-weighted) scale; the unhalved sum convention is
            # twice this: (15 + sqrt(33))/6
            assert abs(rel.xi - CGLMP_XI_CANONICAL) <= 1e-9
            assert rel.trivial is None  # suppressed for weighted predicates
            assert not rel.degenerate

    def test_mirror_side_equal_bounds(self, cglmp_spec, cglmp_strategy_fixture):
        rels = _relations(cglmp_spec, cglmp_strategy_fixture, bob_steers=True)
        for rel in rels.values():
            assert abs(rel.xi - CGLMP_XI_CANONICAL) <= 1e-9


class TestChshRelations:
    def test_all_relations_nontrivial_and_equal(self, chsh_spec, chsh_solution):
        rels = _relations(chsh_spec, chsh_solution.strategy)
        for rel in rels.values():
            assert abs(rel.xi - (2.0 + math.sqrt(2.0)) / 4.0) <= 1e-7
            assert not rel.trivial


class TestProperties:
    def test_degenerate_full_space(self):
        spec = na.GameSpec(
            id="halfsum",
            predicate=np.stack(
                [np.array([[[1.0, 0.0]]]), np.array([[[0.0, 1.0]]])], axis=1
            ),
            input_dist=np.array([[0.5, 0.5]]),
        )
        # both inputs project onto complementary outcomes of the same basis:
        # U = (Pi_0 + Pi_1)/2 = I/2, every state is maximally certain
        meas = na.planar_measurement(0.3)
        rels = na.fine_grained_relations(spec, np.array([meas, meas]))
        rel = rels[0]
        assert abs(rel.xi - 0.5) <= 1e-12
        basis, degenerate = rel.certain_space, rel.degenerate
        assert degenerate
        assert basis.shape == (2, 2)

    def test_weight_bound(self, g1_spec, g2_spec):
        rng = np.random.default_rng(61)
        for spec in (g1_spec, g2_spec):
            strat = planar_strategy(
                spec, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            )
            for rel in na.fine_grained_relations(spec, strat.meas_b):
                x, a = rel.pair
                bound = sum(
                    spec.pi_b_given_x(x)[y] * spec.predicate[x, y, a, :].max()
                    for y in range(spec.n_y)
                )
                assert -1e-12 <= rel.xi <= bound + 1e-12

    def test_unitary_conjugation_invariance(self, g2_spec, g2_solution):
        from conftest import random_unitary

        rng = np.random.default_rng(62)
        u = random_unitary(rng, 2)
        rotated = u @ g2_solution.strategy.meas_b @ u.conj().T
        base = na.fine_grained_relations(g2_spec, g2_solution.strategy.meas_b)
        conj = na.fine_grained_relations(g2_spec, rotated)
        for r0, r1 in zip(base, conj):
            assert abs(r0.xi - r1.xi) <= 1e-10

    def test_bloch_oracle_agreement(self, g1_spec, g1_solution):
        for rel in na.fine_grained_relations(g1_spec, g1_solution.strategy.meas_b):
            assert abs(rel.xi - bloch_grid_max(rel.operator)) <= 1e-9

    def test_certain_space_attains_bound(self, g2_solution, cglmp_strategy_fixture):
        cases = [
            (na.builtin_game("g2"), g2_solution.strategy),
            (na.builtin_game("cglmp"), cglmp_strategy_fixture),
        ]
        for spec, strategy in cases:
            for rel in na.fine_grained_relations(spec, strategy.meas_b):
                basis = rel.certain_space
                for k in range(basis.shape[1]):
                    v = basis[:, k]
                    rayleigh = float(np.real(v.conj() @ rel.operator @ v))
                    assert abs(rayleigh - rel.xi) <= 1e-9

    def test_uncertainty_bound_dominates_game_value(self):
        # sum_{x,a} pi_A(x) p(a|x) xi(x,a) >= achieved value, any strategy
        rng = np.random.default_rng(63)
        for game_id in ("g1", "g2", "chsh", "cglmp"):
            spec = na.builtin_game(game_id)
            d = 2 if spec.n_a == 2 else 3
            strat = random_strategy(rng, d, d, spec.n_x, spec.n_y)
            value = na.quantum_game_value(spec, strat)
            rels = na.fine_grained_relations(spec, strat.meas_b)
            assemblage = na.steer_assemblage(strat)
            bound = sum(
                spec.pi_a()[x] * assemblage.probabilities[x, a] * rel.xi
                for rel in rels
                for x, a in [rel.pair]
            )
            assert value <= bound + 1e-9

    def test_trivial_iff_shared_top_eigenvector(self):
        # a relation putting full weight on both inputs is trivial exactly
        # when the two selected projectors share a +1 eigenvector
        pred = np.zeros((1, 2, 1, 2))
        pred[0, 0, 0, 0] = 1.0
        pred[0, 1, 0, 0] = 1.0
        spec = na.GameSpec(
            id="pairsum",
            predicate=pred, input_dist=np.array([[0.5, 0.5]]),
        )
        same = na.planar_measurement(0.4)
        rels = na.fine_grained_relations(spec, np.array([same, same]))
        assert rels[0].trivial
        assert abs(rels[0].xi_normalized - 1.0) <= 1e-12
        other = na.planar_measurement(1.9)
        rels = na.fine_grained_relations(spec, np.array([same, other]))
        assert not rels[0].trivial
        assert rels[0].xi_normalized < 1.0 - 1e-3

    def test_measurement_count_mismatch(self, g1_spec, g1_solution):
        with pytest.raises(DimensionMismatchError):
            na.fine_grained_relations(g1_spec, g1_solution.strategy.meas_b[:1])

    def test_outcome_count_mismatch(self, g1_spec):
        rng = np.random.default_rng(64)
        meas = np.array([random_measurement(rng, 3), random_measurement(rng, 3)])
        with pytest.raises(DimensionMismatchError):
            na.fine_grained_relations(g1_spec, meas)
