"""Steered assemblages, saturation tests, and the correspondence verdict.

Measuring one party of a shared pure state prepares conditional states on
the other side. For each of the steering party's input-output pairs the
steered state either does or does not attain the bound xi of the matching
fine-grained uncertainty relation; the game's quantum value equals the
bound implied by the relations alone exactly when every pair saturates.

The no-signaling check asks a sharper structural question: do the
maximally certain states, weighted by the steering party's outcome
probabilities, form an assemblage whose average is independent of the
measurement choice? Steered assemblages always do; assemblages assembled
from the certain states need not, and when they fail no quantum strategy
can steer to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classical import DeterministicStrategy, classical_value
from .errors import (
    AmbiguousDegenerateError,
    DimensionMismatchError,
    InvalidDistributionError,
)
from .games import GameSpec
from .quantum import QuantumStrategy, projector_stack, quantum_game_value, swap_strategy
from .uncertainty import FineGrainedRelation, Side, fine_grained_relations

SATURATION_ATOL = 1e-6
VACUOUS_ATOL = 1e-9
NS_ATOL = 1e-6
DIST_ATOL = 1e-9


@dataclass(frozen=True)
class Assemblage:
    """Map (input, outcome) -> (probability, unnormalized conditional state).

    ``sigma`` entries satisfy tr(sigma[x, a]) = p(a|x) and, for
    quantum-generated assemblages, sum_a sigma[x, a] is the same reduced
    state for every x.
    """

    n_inputs: int
    n_outcomes: int
    probabilities: np.ndarray
    sigmas: np.ndarray

    def entry(self, x: int, a: int) -> tuple[float, np.ndarray]:
        return float(self.probabilities[x, a]), self.sigmas[x, a]

    def normalized_state(self, x: int, a: int) -> np.ndarray | None:
        p = float(self.probabilities[x, a])
        if p <= VACUOUS_ATOL:
            return None
        return self.sigmas[x, a] / p

    def average_state(self, x: int) -> np.ndarray:
        return self.sigmas[x].sum(axis=0)

    def no_signaling_deviation(self) -> float:
        """max over input pairs of ||avg_state(x) - avg_state(x')||_F."""
        return _worst_distance([self.average_state(x) for x in range(self.n_inputs)])


def _worst_distance(averages: list[np.ndarray]) -> float:
    """Largest Frobenius distance between any two of the averages (0 for fewer than two)."""
    return max(
        (float(np.linalg.norm(p - q)) for p, q in combinations(averages, 2)), default=0.0
    )


def _check_strategy(strategy: QuantumStrategy) -> None:
    violations = strategy.validate()
    if violations:
        raise DimensionMismatchError("invalid strategy: " + "; ".join(violations))


def steer_assemblage(strategy: QuantumStrategy, steering_party: Side) -> Assemblage:
    """Conditional states prepared on the remote side by local measurements.

    For Alice steering: sigma_{a|x} = tr_A[(Pi^x_a (x) 1) |psi><psi|].
    The strategy is validated first (``DimensionMismatchError``).
    """
    _check_strategy(strategy)
    return _assemblage(strategy, steering_party)


def _assemblage(strategy: QuantumStrategy, steering_party: Side) -> Assemblage:
    """``steer_assemblage`` for a strategy that has already been validated."""
    if steering_party is Side.BOB_STEERS_ALICE:
        strategy = swap_strategy(strategy)
    psi = strategy.state.reshape(strategy.d_a, strategy.d_b)
    projectors = projector_stack(strategy.meas_a)
    n_inputs, n_outcomes = projectors.shape[:2]
    # sigma[x, a][k, l] = sum_{i,j} Pi^x_a[i, j] psi[j, k] conj(psi[i, l])
    sigmas = np.einsum("xaij,jk,il->xakl", projectors, psi, psi.conj())
    probabilities = np.einsum("xakk->xa", sigmas).real
    return Assemblage(
        n_inputs=n_inputs,
        n_outcomes=n_outcomes,
        probabilities=probabilities,
        sigmas=sigmas,
    )


@dataclass(frozen=True)
class SteeringVerdict:
    """Saturation verdict for one steering pair, on the normalized scale.

    ``xi`` and ``achieved`` are divided by the relation's participating
    pi-mass so a trivial relation reads xi = 1; ``gap = xi - achieved``.
    ``vacuous`` marks pairs the strategy never produces (p <= 1e-9).
    """

    pair: tuple[int, int]
    probability: float
    xi: float
    achieved: float
    gap: float
    saturated: bool
    vacuous: bool
    trivial_relation: bool | None


def _verdicts(
    relations: list[FineGrainedRelation], assemblage: Assemblage
) -> list[SteeringVerdict]:
    verdicts = []
    for rel in relations:
        x, a = rel.pair
        p, _ = assemblage.entry(x, a)
        state = assemblage.normalized_state(x, a)
        if state is None:
            verdicts.append(
                SteeringVerdict(
                    pair=rel.pair,
                    probability=p,
                    xi=rel.xi_normalized,
                    achieved=0.0,
                    gap=rel.xi_normalized,
                    saturated=False,
                    vacuous=True,
                    trivial_relation=rel.trivial,
                )
            )
            continue
        mass = rel.weight_mass if rel.weight_mass > 0.0 else 1.0
        achieved = float(np.real(np.trace(state @ rel.operator))) / mass
        gap = rel.xi_normalized - achieved
        verdicts.append(
            SteeringVerdict(
                pair=rel.pair,
                probability=p,
                xi=rel.xi_normalized,
                achieved=achieved,
                gap=gap,
                saturated=bool(gap <= SATURATION_ATOL),
                vacuous=False,
                trivial_relation=rel.trivial,
            )
        )
    return verdicts


def _side_audit(
    spec: GameSpec, strategy: QuantumStrategy, side: Side
) -> tuple[list[FineGrainedRelation], Assemblage, list[SteeringVerdict]]:
    """Relations on the steered party, the steered assemblage, and their verdicts.

    The strategy must already be validated.
    """
    remote = strategy.meas_b if side is Side.ALICE_STEERS_BOB else strategy.meas_a
    relations = fine_grained_relations(spec, side, remote)
    assemblage = _assemblage(strategy, side)
    return relations, assemblage, _verdicts(relations, assemblage)


def saturation_report(
    spec: GameSpec, strategy: QuantumStrategy, side: Side
) -> list[SteeringVerdict]:
    """Per-pair saturation verdicts for one steering direction.

    Ordered lexicographically by pair; ``achieved`` is the steered state's
    value in the matching relation.
    """
    _check_strategy(strategy)
    return _side_audit(spec, strategy, side)[2]


def certain_state_assemblage(
    relations: list[FineGrainedRelation],
    reference: Assemblage | None = None,
) -> dict[tuple[int, int], np.ndarray]:
    """Candidate assemblage built from each relation's maximally certain state.

    Non-degenerate relations contribute their unique top eigenvector.
    Degenerate ones use the projection of the actually-steered state onto
    the eigenspace when a reference assemblage is supplied; otherwise the
    choice is ambiguous and an error is raised. A degenerate pair the
    reference never produces (p <= 1e-9) carries no weight in the
    no-signaling average and takes the first certain-space column, which
    the eigensolver's phase gauge fixes.
    """
    states: dict[tuple[int, int], np.ndarray] = {}
    for rel in relations:
        basis = rel.certain_space
        steered = None
        if basis.shape[1] > 1:
            if reference is None:
                raise AmbiguousDegenerateError(
                    f"relation {rel.pair} has a degenerate certain space and no reference state"
                )
            steered = reference.normalized_state(*rel.pair)
        if steered is None:
            vec = basis[:, 0]
            states[rel.pair] = np.outer(vec, vec.conj())
            continue
        proj = basis @ basis.conj().T
        projected = proj @ steered @ proj
        trace = float(np.real(np.trace(projected)))
        if trace <= VACUOUS_ATOL:
            raise AmbiguousDegenerateError(
                f"relation {rel.pair}: steered state is orthogonal to the certain space"
            )
        states[rel.pair] = projected / trace
    return states


def ns_assemblage_check(
    probabilities: np.ndarray,
    certain_states: dict[tuple[int, int], np.ndarray],
) -> tuple[float, bool]:
    """No-signaling test of the certain-state assemblage.

    ``probabilities[x, a]`` must be a conditional distribution over a for
    each x. Deviation is the worst Frobenius distance between the
    probability-weighted averages sum_a p(a|x) sigma(x,a) across inputs;
    the check passes when it does not exceed 1e-6.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 2:
        raise InvalidDistributionError("probability table must be 2-dimensional")
    if np.any(probabilities < -DIST_ATOL):
        raise InvalidDistributionError("negative conditional probability")
    sums = probabilities.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > DIST_ATOL):
        raise InvalidDistributionError(
            f"conditional probabilities sum to {sums!r}, expected 1 per input"
        )
    n_inputs, n_outcomes = probabilities.shape
    averages = [
        sum(probabilities[x, a] * certain_states[(x, a)] for a in range(n_outcomes))
        for x in range(n_inputs)
    ]
    deviation = _worst_distance(averages)
    return deviation, deviation <= NS_ATOL


@dataclass(frozen=True)
class CorrespondenceReport:
    """Whether the game value is pinned by the uncertainty relations alone.

    ``up_bound`` is sum_{x,a} pi_A(x) p(a|x) xi(x,a) with the canonical
    (pi-weighted) xi; it upper-bounds the achieved value, with equality
    exactly when every non-vacuous pair saturates. ``correspondence_holds``
    requires full saturation on at least one steering side. The classical
    maximizers and both sides' relations are the ones the verdict was
    computed from.
    """

    game_id: str
    omega_c: float
    classical_maximizers: list[DeterministicStrategy]
    omega_q: float
    relations_alice: list[FineGrainedRelation]
    relations_bob: list[FineGrainedRelation]
    verdicts_alice: list[SteeringVerdict]
    verdicts_bob: list[SteeringVerdict]
    ns_deviation: float
    ns_passes: bool
    up_bound: float
    correspondence_holds: bool


def _side_saturated(verdicts: list[SteeringVerdict]) -> bool:
    live = [v for v in verdicts if not v.vacuous]
    return bool(live) and all(v.saturated for v in live)


def correspondence_verdict(spec: GameSpec, strategy: QuantumStrategy) -> CorrespondenceReport:
    """Assemble the full audit for one strategy.

    The report records the value this strategy achieves; optimality of the
    strategy is the caller's responsibility. The strategy is validated once,
    before anything is computed (``DimensionMismatchError``).
    """
    _check_strategy(strategy)
    omega_c, maximizers = classical_value(spec)
    omega_q = quantum_game_value(spec, strategy)

    relations_ab, assemblage_ab, verdicts_alice = _side_audit(
        spec, strategy, Side.ALICE_STEERS_BOB
    )
    relations_ba, _, verdicts_bob = _side_audit(spec, strategy, Side.BOB_STEERS_ALICE)

    certain = certain_state_assemblage(relations_ab, reference=assemblage_ab)
    ns_deviation, ns_passes = ns_assemblage_check(assemblage_ab.probabilities, certain)

    pi_a = spec.pi_a()
    up_bound = 0.0
    for rel in relations_ab:
        x, a = rel.pair
        up_bound += float(pi_a[x] * assemblage_ab.probabilities[x, a] * rel.xi)

    correspondence = _side_saturated(verdicts_alice) or _side_saturated(verdicts_bob)
    return CorrespondenceReport(
        game_id=spec.id,
        omega_c=omega_c,
        classical_maximizers=maximizers,
        omega_q=omega_q,
        relations_alice=relations_ab,
        relations_bob=relations_ba,
        verdicts_alice=verdicts_alice,
        verdicts_bob=verdicts_bob,
        ns_deviation=ns_deviation,
        ns_passes=ns_passes,
        up_bound=up_bound,
        correspondence_holds=correspondence,
    )
