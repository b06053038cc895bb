"""Fine-grained uncertainty relations induced by a game on one party's system.

Conditioning on the steering party's input-output pair (x, a) turns the game
expression into one operator per pair on the steered party's space,

    U(x,a) = sum_{y,b} pi_B(y|x) V(a,b|x,y) Pi^y_b ,

whose top eigenvalue xi bounds the pi-weighted sum of outcome probabilities
over all states. States attaining xi span the top eigenspace ("maximally
certain" states).

Two scales are reported for each relation. ``xi`` is the canonical value,
lambda_max of the pi-weighted operator above. ``xi_normalized`` divides by
the pi-mass of the inputs that actually participate (those with a non-zero
predicate row), which is the scale on which a trivial relation reads
exactly 1; for relations where every input participates the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError
from .games import GameSpec, swap_parties
from .hermitian import eig_hermitian

TRIVIAL_ATOL = 1e-9


class Side(Enum):
    """Which party steers; relations live on the other party's system."""

    ALICE_STEERS_BOB = "alice_steers_bob"
    BOB_STEERS_ALICE = "bob_steers_alice"


@dataclass(frozen=True)
class FineGrainedRelation:
    """One uncertainty relation, for one (input, output) pair of the steering party.

    ``pair`` is (x, a) when Alice steers and (y, b) when Bob steers.
    ``weights`` is the table pi_B(y|x) V(a,b|x,y) indexed [y, b] (the
    steered party's input and output) that ``operator`` sums the steered
    party's projectors against. ``certain_space`` holds an orthonormal basis (columns) of the top
    eigenspace of ``operator``. ``trivial`` is only meaningful for binary
    predicates and is None for weighted games.
    """

    side: Side
    pair: tuple[int, int]
    weights: np.ndarray
    operator: np.ndarray
    xi: float
    weight_mass: float
    xi_normalized: float
    certain_space: np.ndarray
    degenerate: bool
    trivial: bool | None


def fine_grained_relations(
    spec: GameSpec, side: Side, remote_meas: np.ndarray
) -> list[FineGrainedRelation]:
    """All relations for one steering direction, ordered lexicographically by pair.

    ``remote_meas`` is the steered party's (inputs, outputs, d, d) projector
    array: Bob's when Alice steers, Alice's when Bob steers.
    """
    if side is Side.BOB_STEERS_ALICE:
        spec = swap_parties(spec)  # the steering party is "Alice" from here on
    if remote_meas.shape[:2] != (spec.n_y, spec.n_b):
        raise DimensionMismatchError(
            f"steered party's projectors have (inputs, outputs) {remote_meas.shape[:2]}, "
            f"game expects {(spec.n_y, spec.n_b)}")
    pi_b = np.array([spec.pi_b_given_x(x) for x in range(spec.n_x)])  # [x, y]
    weights = pi_b[:, :, None, None] * spec.predicate
    operators = np.einsum("xyab,ybij->xaij", weights, remote_meas)
    # pi-mass of the inputs y whose predicate row (x, y, a, .) is non-zero
    participates = spec.predicate.max(axis=3) > 0.0  # [x, y, a]
    masses = np.einsum("xy,xya->xa", pi_b, participates)
    relations = []
    for x, a in np.ndindex(spec.n_x, spec.n_a):
        op = operators[x, a]
        eig = eig_hermitian(op)
        xi = eig.max_eigenvalue
        basis, degenerate = eig.top_eigenspace()
        mass = float(masses[x, a])
        xi_norm = float(xi / mass) if mass > 0.0 else 0.0
        trivial = (
            bool(abs(xi_norm - 1.0) <= TRIVIAL_ATOL) if spec.binary_predicate else None
        )
        relations.append(
            FineGrainedRelation(
                side=side,
                pair=(x, a),
                weights=weights[x, :, a, :],
                operator=op,
                xi=xi,
                weight_mass=mass,
                xi_normalized=xi_norm,
                certain_space=basis,
                degenerate=degenerate,
                trivial=trivial,
            )
        )
    return relations

