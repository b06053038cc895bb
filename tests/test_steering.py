"""Steered assemblages, saturation verdicts, and the no-signaling check."""

import math

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.errors import (
    AmbiguousDegenerateError,
    DimensionMismatchError,
    InvalidDistributionError,
)

from conftest import planar_strategy, random_strategy, swap_strategy

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _strategy_with_state(base: na.QuantumStrategy, state: np.ndarray) -> na.QuantumStrategy:
    return na.QuantumStrategy(state=state, meas_a=base.meas_a, meas_b=base.meas_b)


def _unnormalized(strategy: na.QuantumStrategy) -> na.QuantumStrategy:
    return _strategy_with_state(strategy, 2.0 * strategy.state)


class TestSteerAssemblage:
    @pytest.mark.parametrize("side", list(na.Side))
    def test_invalid_strategy_refused(self, g1_solution, side):
        with pytest.raises(DimensionMismatchError, match="state: not normalized"):
            na.steer_assemblage(_unnormalized(g1_solution.strategy), side)

    def test_bell_state_projection(self, g1_spec):
        meas_a = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]], dtype=complex)
        meas_b = na.planar_measurement(0.0)[None]
        strat = na.QuantumStrategy(state=BELL_PHI_PLUS, meas_a=meas_a, meas_b=meas_b)
        assemblage = na.steer_assemblage(strat, na.Side.ALICE_STEERS_BOB)
        p, sigma = assemblage.probabilities[0, 0], assemblage.sigmas[0, 0]
        assert abs(p - 0.5) <= 1e-12
        assert np.allclose(sigma, 0.5 * np.diag([1.0, 0.0]), atol=1e-12)

    def test_product_state_no_steering(self, g1_spec, g1_solution):
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0  # |0>|0>
        strat = _strategy_with_state(g1_solution.strategy, ket)
        assemblage = na.steer_assemblage(strat, na.Side.ALICE_STEERS_BOB)
        target = np.diag([1.0, 0.0]).astype(complex)
        for x in range(2):
            for a in range(2):
                normalized = assemblage.normalized_state(x, a)
                if normalized is not None:
                    assert np.linalg.norm(normalized - target) <= 1e-10

    def test_probabilities_normalize(self, g2_solution):
        assemblage = na.steer_assemblage(g2_solution.strategy, na.Side.ALICE_STEERS_BOB)
        sums = assemblage.probabilities.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_positive_semidefinite_and_trace(self, g2_solution):
        assemblage = na.steer_assemblage(g2_solution.strategy, na.Side.ALICE_STEERS_BOB)
        for x, a in np.ndindex(assemblage.probabilities.shape):
            p, sigma = assemblage.probabilities[x, a], assemblage.sigmas[x, a]
            eigenvalues = na.eig_hermitian(sigma).eigenvalues
            assert eigenvalues.min() >= -1e-10
            assert abs(np.trace(sigma).real - p) <= 1e-10

    def test_bob_side_matches_swapped_reference(
        self, g2_solution, chsh_solution, cglmp_strategy_fixture
    ):
        # bit for bit: the Bob side must sum in the order of the swapped strategy
        rng = np.random.default_rng(74)
        strategies = [g2_solution.strategy, chsh_solution.strategy, cglmp_strategy_fixture] + [
            random_strategy(rng, d_a, d_b, n_x, n_y)
            for d_a, d_b, n_x, n_y in ((2, 3, 2, 3), (3, 2, 3, 2), (3, 3, 2, 2))
        ]
        for strat in strategies:
            bob = na.steer_assemblage(strat, na.Side.BOB_STEERS_ALICE)
            reference = na.steer_assemblage(swap_strategy(strat), na.Side.ALICE_STEERS_BOB)
            assert np.array_equal(bob.sigmas, reference.sigmas)
            assert np.array_equal(bob.probabilities, reference.probabilities)

    def test_quantum_assemblage_is_no_signaling(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            d_a, d_b = rng.choice([2, 3], size=2)
            strat = random_strategy(rng, int(d_a), int(d_b), 2, 2)
            for side in (na.Side.ALICE_STEERS_BOB, na.Side.BOB_STEERS_ALICE):
                assemblage = na.steer_assemblage(strat, side)
                assert assemblage.no_signaling_deviation() <= 1e-9

    def test_g2_steers_to_certain_state_at_10(self, g2_spec, g2_solution):
        assemblage = na.steer_assemblage(g2_solution.strategy, na.Side.ALICE_STEERS_BOB)
        rels = {
            r.pair: r
            for r in na.fine_grained_relations(
                g2_spec, na.Side.ALICE_STEERS_BOB, g2_solution.strategy.meas_b
            )
        }
        steered = assemblage.normalized_state(1, 0)
        certain = rels[(1, 0)].certain_space[:, 0]
        fidelity = float(np.real(certain.conj() @ steered @ certain))
        assert fidelity >= 1.0 - 1e-6

    def test_hjw_bell_state_steers_anywhere(self):
        # with a maximally entangled pair, projecting Alice onto the
        # conjugate of any target pure state prepares that target on Bob
        rng = np.random.default_rng(72)
        meas_b = na.planar_measurement(0.0)[None]
        for _ in range(10):
            target = rng.normal(size=2) + 1j * rng.normal(size=2)
            target /= np.linalg.norm(target)
            conj = target.conj()
            proj = np.outer(conj, conj.conj())
            meas_a = np.array([[proj, np.eye(2) - proj]])
            strat = na.QuantumStrategy(state=BELL_PHI_PLUS, meas_a=meas_a, meas_b=meas_b)
            assemblage = na.steer_assemblage(strat, na.Side.ALICE_STEERS_BOB)
            steered = assemblage.normalized_state(0, 0)
            fidelity = float(np.real(target.conj() @ steered @ target))
            assert fidelity >= 1.0 - 1e-10


class TestSaturationReport:
    def test_g1_alice_side(self, g1_spec, g1_solution):
        verdicts = {
            v.pair: v
            for v in na.saturation_report(
                g1_spec, g1_solution.strategy, na.Side.ALICE_STEERS_BOB
            )
        }
        assert verdicts[(1, 0)].saturated
        assert abs(verdicts[(1, 0)].xi - 0.8838) <= 5e-4
        for pair in ((0, 0), (0, 1), (1, 1)):
            v = verdicts[pair]
            assert not v.saturated
            assert v.achieved < v.xi - 0.01
        # frozen regression values for the unsaturated achieved levels
        assert abs(verdicts[(0, 0)].achieved - 0.787108317) <= 1e-6
        assert abs(verdicts[(1, 1)].achieved - 0.975804812) <= 1e-6

    def test_g1_bob_side(self, g1_spec, g1_solution):
        verdicts = {
            v.pair: v
            for v in na.saturation_report(
                g1_spec, g1_solution.strategy, na.Side.BOB_STEERS_ALICE
            )
        }
        assert verdicts[(0, 0)].saturated
        for pair in ((0, 1), (1, 0), (1, 1)):
            assert not verdicts[pair].saturated

    def test_g2_values(self, g2_spec, g2_solution):
        verdicts = {
            v.pair: v
            for v in na.saturation_report(
                g2_spec, g2_solution.strategy, na.Side.ALICE_STEERS_BOB
            )
        }
        assert abs(verdicts[(0, 0)].achieved - 0.8446) <= 5e-4
        assert abs(verdicts[(0, 1)].achieved - 0.8446) <= 5e-4
        assert abs(verdicts[(1, 1)].achieved - 0.968) <= 5e-4
        assert verdicts[(1, 0)].saturated and verdicts[(1, 0)].gap <= 1e-6
        for pair in ((0, 0), (0, 1), (1, 1)):
            assert not verdicts[pair].saturated

    def test_chsh_all_saturated(self, chsh_spec, chsh_solution):
        for side in (na.Side.ALICE_STEERS_BOB, na.Side.BOB_STEERS_ALICE):
            verdicts = na.saturation_report(chsh_spec, chsh_solution.strategy, side)
            assert all(v.saturated for v in verdicts)

    def test_cglmp_all_saturated(self, cglmp_spec, cglmp_strategy_fixture):
        for side in (na.Side.ALICE_STEERS_BOB, na.Side.BOB_STEERS_ALICE):
            verdicts = na.saturation_report(cglmp_spec, cglmp_strategy_fixture, side)
            assert all(v.saturated for v in verdicts)

    def test_achieved_never_exceeds_xi(self):
        rng = np.random.default_rng(73)
        for game_id in ("g1", "g2", "chsh"):
            spec = na.builtin_game(game_id)
            strat = planar_strategy(
                spec, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            )
            for v in na.saturation_report(spec, strat, na.Side.ALICE_STEERS_BOB):
                assert v.gap >= -1e-8

    def test_ordering(self, g2_spec, g2_solution):
        verdicts = na.saturation_report(
            g2_spec, g2_solution.strategy, na.Side.ALICE_STEERS_BOB
        )
        assert [v.pair for v in verdicts] == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestNoSignalingCheck:
    def _certain_and_probs(self, spec, strategy):
        relations = na.fine_grained_relations(
            spec, na.Side.ALICE_STEERS_BOB, strategy.meas_b
        )
        assemblage = na.steer_assemblage(strategy, na.Side.ALICE_STEERS_BOB)
        certain = na.certain_state_assemblage(relations, reference=assemblage)
        return assemblage.probabilities, certain

    def test_g1_fails(self, g1_spec, g1_solution):
        probs, certain = self._certain_and_probs(g1_spec, g1_solution.strategy)
        deviation, passes = na.ns_assemblage_check(probs, certain)
        assert not passes
        assert deviation > 0.01
        assert abs(deviation - 0.669516631) <= 1e-6  # frozen regression value

    def test_g2_fails(self, g2_spec, g2_solution):
        probs, certain = self._certain_and_probs(g2_spec, g2_solution.strategy)
        deviation, passes = na.ns_assemblage_check(probs, certain)
        assert not passes
        assert deviation > 0.01
        assert abs(deviation - 0.355509189) <= 1e-6

    def test_chsh_passes(self, chsh_spec, chsh_solution):
        probs, certain = self._certain_and_probs(chsh_spec, chsh_solution.strategy)
        deviation, passes = na.ns_assemblage_check(probs, certain)
        assert passes and deviation <= 1e-6

    def test_cglmp_passes(self, cglmp_spec, cglmp_strategy_fixture):
        probs, certain = self._certain_and_probs(cglmp_spec, cglmp_strategy_fixture)
        deviation, passes = na.ns_assemblage_check(probs, certain)
        assert passes and deviation <= 1e-6

    def test_invalid_distribution(self):
        states = {(x, a): np.eye(2) / 2.0 for x in range(2) for a in range(2)}
        with pytest.raises(InvalidDistributionError):
            na.ns_assemblage_check(np.array([[0.5, 0.4], [0.5, 0.5]]), states)

    def test_ambiguous_degenerate(self):
        # a relation whose operator is I/2 has the full space as its top
        # eigenspace; without a reference state the candidate is ambiguous
        spec = na.GameSpec(
            id="halfsum", n_x=1, n_y=2, n_a=1, n_b=2,
            predicate=np.stack(
                [np.array([[[1.0, 0.0]]]), np.array([[[0.0, 1.0]]])], axis=1
            ),
            input_dist=np.array([[0.5, 0.5]]),
        )
        meas = na.planar_measurement(0.3)
        relations = na.fine_grained_relations(
            spec, na.Side.ALICE_STEERS_BOB, np.array([meas, meas])
        )
        with pytest.raises(AmbiguousDegenerateError):
            na.certain_state_assemblage(relations, reference=None)


class TestCorrespondenceVerdict:
    def test_g1(self, g1_spec, g1_solution):
        report = na.correspondence_verdict(g1_spec, g1_solution.strategy)
        assert not report.correspondence_holds
        assert report.up_bound > report.omega_q
        assert report.omega_c == 0.5
        assert not report.ns_passes

    def test_g2(self, g2_spec, g2_solution):
        report = na.correspondence_verdict(g2_spec, g2_solution.strategy)
        assert not report.correspondence_holds
        assert report.up_bound > report.omega_q

    def test_chsh(self, chsh_spec, chsh_solution):
        report = na.correspondence_verdict(chsh_spec, chsh_solution.strategy)
        assert report.correspondence_holds
        assert abs(report.up_bound - report.omega_q) <= 1e-6
        assert report.ns_passes

    def test_cglmp(self, cglmp_spec, cglmp_strategy_fixture):
        report = na.correspondence_verdict(cglmp_spec, cglmp_strategy_fixture)
        assert report.correspondence_holds
        assert abs(report.up_bound - report.omega_q) <= 1e-6
        assert report.ns_passes

    def test_invalid_strategy_refused(self, g1_spec, g1_solution):
        bad = _unnormalized(g1_solution.strategy)
        with pytest.raises(DimensionMismatchError, match="state: not normalized"):
            na.correspondence_verdict(g1_spec, bad)
        with pytest.raises(DimensionMismatchError, match="state: not normalized"):
            na.saturation_report(g1_spec, bad, na.Side.BOB_STEERS_ALICE)

    def test_strategy_validated_once(self, g1_spec, g1_solution, monkeypatch):
        calls = []
        original = na.QuantumStrategy.validate

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(na.QuantumStrategy, "validate", counted)
        na.correspondence_verdict(g1_spec, g1_solution.strategy)
        assert calls == [g1_solution.strategy]
