"""Steered assemblages, saturation verdicts, and the no-signaling check."""

import math

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.errors import AmbiguousDegenerateError, DimensionMismatchError, TooLargeError

from conftest import planar_strategy, random_strategy, wide_binary_game

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _strategy_with_state(base: na.QuantumStrategy, state: np.ndarray) -> na.QuantumStrategy:
    return na.QuantumStrategy(state=state, meas_a=base.meas_a, meas_b=base.meas_b)


def _unnormalized(strategy: na.QuantumStrategy) -> na.QuantumStrategy:
    return _strategy_with_state(strategy, 2.0 * strategy.state)


class TestSteerAssemblage:
    @pytest.mark.parametrize("swap", [False, True], ids=["alice_steers_bob", "bob_steers_alice"])
    def test_invalid_strategy_refused(self, g1_solution, swap):
        bad = _unnormalized(g1_solution.strategy)
        with pytest.raises(DimensionMismatchError, match="state: not normalized"):
            na.steer_assemblage(na.swap_strategy(bad) if swap else bad)

    def test_bell_state_projection(self, g1_spec):
        meas_a = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]], dtype=complex)
        meas_b = na.planar_measurement(0.0)[None]
        strat = na.QuantumStrategy(state=BELL_PHI_PLUS, meas_a=meas_a, meas_b=meas_b)
        assemblage = na.steer_assemblage(strat)
        p, sigma = assemblage.probabilities[0, 0], assemblage.sigmas[0, 0]
        assert abs(p - 0.5) <= 1e-12
        assert np.allclose(sigma, 0.5 * np.diag([1.0, 0.0]), atol=1e-12)

    def test_product_state_no_steering(self, g1_spec, g1_solution):
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0  # |0>|0>
        strat = _strategy_with_state(g1_solution.strategy, ket)
        assemblage = na.steer_assemblage(strat)
        target = np.diag([1.0, 0.0]).astype(complex)
        for x in range(2):
            for a in range(2):
                normalized = assemblage.normalized_state(x, a)
                if normalized is not None:
                    assert np.linalg.norm(normalized - target) <= 1e-10

    def test_probabilities_normalize(self, g2_solution):
        assemblage = na.steer_assemblage(g2_solution.strategy)
        sums = assemblage.probabilities.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_positive_semidefinite_and_trace(self, g2_solution):
        assemblage = na.steer_assemblage(g2_solution.strategy)
        for x, a in np.ndindex(assemblage.probabilities.shape):
            p, sigma = assemblage.probabilities[x, a], assemblage.sigmas[x, a]
            eigenvalues = na.eig_hermitian(sigma).eigenvalues
            assert eigenvalues.min() >= -1e-10
            assert abs(np.trace(sigma).real - p) <= 1e-10

    def test_quantum_assemblage_is_no_signaling(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            d_a, d_b = rng.choice([2, 3], size=2)
            strat = random_strategy(rng, int(d_a), int(d_b), 2, 2)
            for steering in (strat, na.swap_strategy(strat)):
                assemblage = na.steer_assemblage(steering)
                assert assemblage.no_signaling_deviation() <= 1e-9

    def test_g2_steers_to_certain_state_at_10(self, g2_spec, g2_solution):
        assemblage = na.steer_assemblage(g2_solution.strategy)
        rels = {
            r.pair: r
            for r in na.fine_grained_relations(g2_spec, g2_solution.strategy.meas_b)
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
            assemblage = na.steer_assemblage(strat)
            steered = assemblage.normalized_state(0, 0)
            fidelity = float(np.real(target.conj() @ steered @ target))
            assert fidelity >= 1.0 - 1e-10


class TestSaturationReport:
    def test_g1_alice_side(self, g1_spec, g1_solution):
        verdicts = {
            v.pair: v
            for v in na.correspondence_verdict(g1_spec, g1_solution.strategy).alice.verdicts
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
            for v in na.correspondence_verdict(g1_spec, g1_solution.strategy).bob.verdicts
        }
        assert verdicts[(0, 0)].saturated
        for pair in ((0, 1), (1, 0), (1, 1)):
            assert not verdicts[pair].saturated

    def test_g2_values(self, g2_spec, g2_solution):
        verdicts = {
            v.pair: v
            for v in na.correspondence_verdict(g2_spec, g2_solution.strategy).alice.verdicts
        }
        assert abs(verdicts[(0, 0)].achieved - 0.8446) <= 5e-4
        assert abs(verdicts[(0, 1)].achieved - 0.8446) <= 5e-4
        assert abs(verdicts[(1, 1)].achieved - 0.968) <= 5e-4
        assert verdicts[(1, 0)].saturated and verdicts[(1, 0)].gap <= 1e-6
        for pair in ((0, 0), (0, 1), (1, 1)):
            assert not verdicts[pair].saturated

    def test_chsh_all_saturated(self, chsh_spec, chsh_solution):
        report = na.correspondence_verdict(chsh_spec, chsh_solution.strategy)
        for verdicts in (report.alice.verdicts, report.bob.verdicts):
            assert all(v.saturated for v in verdicts)

    def test_cglmp_all_saturated(self, cglmp_spec, cglmp_strategy_fixture):
        report = na.correspondence_verdict(cglmp_spec, cglmp_strategy_fixture)
        for verdicts in (report.alice.verdicts, report.bob.verdicts):
            assert all(v.saturated for v in verdicts)

    def test_achieved_never_exceeds_xi(self):
        rng = np.random.default_rng(73)
        for game_id in ("g1", "g2", "chsh"):
            spec = na.builtin_game(game_id)
            strat = planar_strategy(
                spec, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            )
            for v in na.correspondence_verdict(spec, strat).alice.verdicts:
                assert v.gap >= -1e-8

    def test_ordering(self, g2_spec, g2_solution):
        verdicts = na.correspondence_verdict(g2_spec, g2_solution.strategy).alice.verdicts
        assert [v.pair for v in verdicts] == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestNoSignalingCheck:
    def _deviation(self, spec, strategy):
        relations = na.fine_grained_relations(spec, strategy.meas_b)
        assemblage = na.steer_assemblage(strategy)
        return na.certain_state_assemblage(relations, assemblage).no_signaling_deviation()

    def test_g1_fails(self, g1_spec, g1_solution):
        deviation = self._deviation(g1_spec, g1_solution.strategy)
        assert deviation > 0.01
        assert abs(deviation - 0.669516631) <= 1e-6  # frozen regression value

    def test_g2_fails(self, g2_spec, g2_solution):
        deviation = self._deviation(g2_spec, g2_solution.strategy)
        assert deviation > 0.01
        assert abs(deviation - 0.355509189) <= 1e-6

    def test_chsh_passes(self, chsh_spec, chsh_solution):
        assert self._deviation(chsh_spec, chsh_solution.strategy) <= 1e-6

    def test_cglmp_passes(self, cglmp_spec, cglmp_strategy_fixture):
        assert self._deviation(cglmp_spec, cglmp_strategy_fixture) <= 1e-6


class TestCertainStateAssemblage:
    def test_weights_certain_states_by_reference(self, g1_spec, g1_solution):
        strategy = g1_solution.strategy
        relations = na.fine_grained_relations(g1_spec, strategy.meas_b)
        reference = na.steer_assemblage(strategy)
        certain = na.certain_state_assemblage(relations, reference)
        assert certain.probabilities is reference.probabilities
        for rel in relations:
            vec = rel.certain_space[:, 0]
            p = reference.probabilities[rel.pair]
            assert np.allclose(certain.sigmas[rel.pair], p * np.outer(vec, vec.conj()))
            assert np.allclose(certain.normalized_state(*rel.pair), np.outer(vec, vec.conj()))

    def test_steered_state_orthogonal_to_certain_space(self):
        # U = P(0|0) + P(1|0) on a qutrit has the degenerate top eigenspace
        # span{|0>, |1>}; a reference steered to |2> has no part in it
        spec = na.GameSpec(
            id="orthogonal",
            predicate=np.array([1.0, 1.0, 0.0]).reshape(1, 1, 1, 3),
            input_dist=np.array([[1.0]]),
        )
        meas_b = np.eye(3, dtype=complex)[:, :, None] * np.eye(3)[:, None, :]
        relations = na.fine_grained_relations(spec, meas_b[None])
        assert relations[0].degenerate
        reference = na.Assemblage(
            probabilities=np.array([[1.0]]), sigmas=meas_b[2][None, None]
        )
        with pytest.raises(AmbiguousDegenerateError, match="orthogonal to the certain space"):
            na.certain_state_assemblage(relations, reference)

    def test_reference_grid_mismatch(self, g1_spec, g1_solution):
        strategy = g1_solution.strategy
        relations = na.fine_grained_relations(g1_spec, strategy.meas_b)
        steered = na.steer_assemblage(strategy)
        reference = na.Assemblage(steered.probabilities[:1], steered.sigmas[:1])
        with pytest.raises(DimensionMismatchError, match=r"\(1, 2\)"):
            na.certain_state_assemblage(relations, reference)


class TestCorrespondenceVerdict:
    def test_g1(self, g1_spec, g1_solution):
        report = na.correspondence_verdict(g1_spec, g1_solution.strategy)
        assert not report.correspondence_holds
        assert report.alice.up_bound > report.omega_q
        assert na.classical_value(g1_spec)[0] == 0.5
        assert not report.alice.ns_passes

    def test_g2(self, g2_spec, g2_solution):
        report = na.correspondence_verdict(g2_spec, g2_solution.strategy)
        assert not report.correspondence_holds
        assert report.alice.up_bound > report.omega_q

    def test_needs_no_classical_value(self):
        # The verdict audits one strategy: a game too wide to enumerate its
        # classical strategies still gets its report, in about 10 ms.
        spec = wide_binary_game()
        with pytest.raises(TooLargeError):
            na.classical_value(spec)
        rng = np.random.default_rng(32)
        meas_a, meas_b = na.planar_measurement(rng.uniform(-math.pi, math.pi, (2, 24)))
        state = na.eig_hermitian(na.bell_operator(spec, meas_a, meas_b)).max_eigenvector
        strategy = na.QuantumStrategy(state=state, meas_a=meas_a, meas_b=meas_b)
        report = na.correspondence_verdict(spec, strategy)
        assert abs(report.omega_q - na.quantum_game_value(spec, strategy)) <= 1e-12
        assert len(report.alice.verdicts) == len(report.bob.verdicts) == 48

    def test_chsh(self, chsh_spec, chsh_solution):
        report = na.correspondence_verdict(chsh_spec, chsh_solution.strategy)
        assert report.correspondence_holds
        assert abs(report.alice.up_bound - report.omega_q) <= 1e-6
        assert report.alice.ns_passes

    def test_cglmp(self, cglmp_spec, cglmp_strategy_fixture):
        report = na.correspondence_verdict(cglmp_spec, cglmp_strategy_fixture)
        assert report.correspondence_holds
        assert abs(report.alice.up_bound - report.omega_q) <= 1e-6
        assert report.alice.ns_passes

    def test_invalid_strategy_refused(self, g1_spec, g1_solution):
        bad = _unnormalized(g1_solution.strategy)
        with pytest.raises(DimensionMismatchError, match="state: not normalized"):
            na.correspondence_verdict(g1_spec, bad)

    def test_strategy_validated_once(self, g1_spec, g1_solution, monkeypatch):
        calls = []
        original = na.QuantumStrategy.validate

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(na.QuantumStrategy, "validate", counted)
        na.correspondence_verdict(g1_spec, g1_solution.strategy)
        assert calls == [g1_solution.strategy]
