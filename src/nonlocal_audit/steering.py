"""Steered assemblages, saturation tests, and the correspondence verdict.

Measuring one party of a shared pure state prepares conditional states on
the other side. For each of the steering party's input-output pairs the
steered state either does or does not attain the bound xi of the matching
fine-grained uncertainty relation; the game's quantum value equals the
bound implied by the relations alone exactly when every pair saturates.

The no-signaling check asks a sharper structural question: do the
maximally certain states, weighted by the steering party's outcome
probabilities, form an assemblage whose average is independent of the
measurement choice? By Hughston-Jozsa-Wootters an assemblage can be
steered to exactly when it passes that test. Steered assemblages always
do; the certain-state assemblage need not, and when it fails no quantum
strategy can steer to it. Both are ``Assemblage`` values and share one
test, ``Assemblage.no_signaling_deviation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import AmbiguousDegenerateError, DimensionMismatchError
from .games import GameSpec, swap_parties
from .quantum import QuantumStrategy, _check_counts, quantum_game_value, swap_strategy
from .uncertainty import FineGrainedRelation, fine_grained_relations

SATURATION_ATOL = 1e-6
VACUOUS_ATOL = 1e-9
NS_ATOL = 1e-6


@dataclass(frozen=True)
class Assemblage:
    """Map (input, outcome) -> (probability, unnormalized conditional state).

    ``sigma`` entries satisfy tr(sigma[x, a]) = p(a|x) and, for
    quantum-generated assemblages, sum_a sigma[x, a] is the same reduced
    state for every x.
    """

    probabilities: np.ndarray
    sigmas: np.ndarray

    def normalized_state(self, x: int, a: int) -> np.ndarray | None:
        p = float(self.probabilities[x, a])
        if p <= VACUOUS_ATOL:
            return None
        return self.sigmas[x, a] / p

    def no_signaling_deviation(self) -> float:
        """max over input pairs of ||sum_a sigma[x, a] - sum_a sigma[x', a]||_F (0 if no pair)."""
        averages = self.sigmas.sum(axis=1)
        return max(
            (float(np.linalg.norm(p - q)) for p, q in combinations(averages, 2)), default=0.0
        )


def _check_strategy(strategy: QuantumStrategy) -> None:
    violations = strategy.validate()
    if violations:
        raise DimensionMismatchError("invalid strategy: " + "; ".join(violations))


def steer_assemblage(strategy: QuantumStrategy) -> Assemblage:
    """Conditional states prepared on Bob's side by Alice's measurements.

    sigma_{a|x} = tr_A[(Pi^x_a (x) 1) |psi><psi|]; Bob steering Alice is
    ``steer_assemblage(swap_strategy(strategy))``. The strategy is validated
    first (``DimensionMismatchError``).
    """
    _check_strategy(strategy)
    return _assemblage(strategy)


def _assemblage(strategy: QuantumStrategy) -> Assemblage:
    """``steer_assemblage`` for a strategy that has already been validated."""
    psi = strategy.state.reshape(strategy.d_a, strategy.d_b)
    # sigma[x, a][k, l] = sum_{i,j} Pi^x_a[i, j] psi[j, k] conj(psi[i, l])
    sigmas = np.einsum("xaij,jk,il->xakl", strategy.meas_a, psi, psi.conj())
    probabilities = np.einsum("xakk->xa", sigmas).real
    return Assemblage(probabilities=probabilities, sigmas=sigmas)


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


def certain_state_assemblage(
    relations: list[FineGrainedRelation], reference: Assemblage
) -> Assemblage:
    """The assemblage of each relation's maximally certain state.

    ``probabilities`` are the reference's and ``sigmas[x, a] = p(a|x)
    rho(x, a)``. A non-degenerate relation's rho is its unique top
    eigenvector; a degenerate one's is the reference's steered state
    projected onto the eigenspace. A degenerate pair the reference never
    produces (p <= 1e-9) carries no weight in the no-signaling average and
    takes the first certain-space column, which the eigensolver's phase
    gauge fixes. A reference whose (input, outcome) grid is not the
    relations' pairs raises ``DimensionMismatchError``; a steered state
    orthogonal to its certain space raises ``AmbiguousDegenerateError``.
    """
    probabilities = reference.probabilities
    if [rel.pair for rel in relations] != list(np.ndindex(probabilities.shape)):
        raise DimensionMismatchError(
            f"reference assemblage has (inputs, outputs) {probabilities.shape}, "
            "which does not match the relations' pairs"
        )
    states = []
    for rel in relations:
        basis = rel.certain_space
        steered = reference.normalized_state(*rel.pair) if basis.shape[1] > 1 else None
        if steered is None:
            vec = basis[:, 0]
            states.append(np.outer(vec, vec.conj()))
            continue
        proj = basis @ basis.conj().T
        projected = proj @ steered @ proj
        trace = float(np.real(np.trace(projected)))
        if trace <= VACUOUS_ATOL:
            raise AmbiguousDegenerateError(
                f"relation {rel.pair}: steered state is orthogonal to the certain space"
            )
        states.append(projected / trace)
    rhos = np.array(states).reshape(probabilities.shape + states[0].shape)
    return Assemblage(probabilities=probabilities, sigmas=probabilities[:, :, None, None] * rhos)


@dataclass(frozen=True)
class SideAudit:
    """One steering side: relations on the steered system, the steered assemblage, verdicts.

    ``ns_passes`` when the certain-state assemblage's ``ns_deviation`` is
    within ``NS_ATOL``. ``up_bound``, sum_{x,a} pi(x) p(a|x) xi(x,a) over the
    steering party's inputs with the canonical xi, bounds the achieved value,
    with equality exactly when every non-vacuous pair saturates (``saturated``).
    """

    relations: list[FineGrainedRelation]
    assemblage: Assemblage
    verdicts: list[SteeringVerdict]
    ns_deviation: float
    ns_passes: bool
    up_bound: float
    saturated: bool


def _side_audit(spec: GameSpec, strategy: QuantumStrategy) -> SideAudit:
    """Alice steering Bob, for a validated strategy; one pass over the relations."""
    relations = fine_grained_relations(spec, strategy.meas_b)
    assemblage = _assemblage(strategy)
    pi_a = spec.pi_a()
    verdicts = []
    up_bound = 0.0
    for rel in relations:
        x, a = rel.pair
        probability = assemblage.probabilities[x, a]
        state = assemblage.normalized_state(x, a)
        achieved = 0.0
        if state is not None:
            mass = rel.weight_mass if rel.weight_mass > 0.0 else 1.0
            achieved = float(np.real(np.trace(state @ rel.operator))) / mass
        gap = rel.xi_normalized - achieved
        verdicts.append(
            SteeringVerdict(
                pair=rel.pair,
                probability=float(probability),
                xi=rel.xi_normalized,
                achieved=achieved,
                gap=gap,
                saturated=state is not None and bool(gap <= SATURATION_ATOL),
                vacuous=state is None,
                trivial_relation=rel.trivial,
            )
        )
        up_bound += float(pi_a[x] * probability * rel.xi)
    ns_deviation = certain_state_assemblage(relations, assemblage).no_signaling_deviation()
    live = [v for v in verdicts if not v.vacuous]
    return SideAudit(
        relations=relations,
        assemblage=assemblage,
        verdicts=verdicts,
        ns_deviation=ns_deviation,
        ns_passes=ns_deviation <= NS_ATOL,
        up_bound=up_bound,
        saturated=bool(live) and all(v.saturated for v in live),
    )


@dataclass(frozen=True)
class CorrespondenceReport:
    """Whether the game value is pinned by the uncertainty relations alone.

    It audits one strategy only: ``omega_q`` is the value that strategy
    achieves, and the game's classical value takes no part. ``alice`` is
    Alice steering Bob and ``bob`` Bob steering Alice, each a ``SideAudit``;
    ``correspondence_holds`` requires full saturation on at least one side.
    The JSON report reads ``no_signaling_certain_states`` and
    ``verdict.up_bound`` from ``alice``; ``bob``'s own figures are not
    printed yet.
    """

    omega_q: float
    alice: SideAudit
    bob: SideAudit
    correspondence_holds: bool


def correspondence_verdict(spec: GameSpec, strategy: QuantumStrategy) -> CorrespondenceReport:
    """Assemble the steering audit for one strategy.

    The report records the value this strategy achieves; optimality of the
    strategy is the caller's responsibility. The strategy is validated once,
    before anything is computed, and its (inputs, outputs) must be the
    game's (``DimensionMismatchError`` for either).
    """
    _check_strategy(strategy)
    _check_counts(spec, strategy.meas_a, strategy.meas_b)
    alice = _side_audit(spec, strategy)
    # Bob steering Alice is Alice steering Bob in the game with the parties exchanged
    bob = _side_audit(swap_parties(spec), swap_strategy(strategy))
    return CorrespondenceReport(
        omega_q=quantum_game_value(spec, strategy),
        alice=alice,
        bob=bob,
        correspondence_holds=alice.saturated or bob.saturated,
    )
