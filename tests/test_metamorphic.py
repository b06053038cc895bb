"""Relabelings: the audit does not depend on which party is called Alice,
nor on how the paper's counter-examples label their inputs and outputs.

``correspondence_verdict`` on the game and strategy with the parties
exchanged must report each side's relations, verdicts, certain-state
no-signaling test and ``up_bound`` of the original, bit for bit, with the
sides exchanged. The cases are the catalog games and the benchmark's
``planar_sweep`` games with their best known strategies, and the random
weighted 3x2-input cases of ``test_contractions.py``.

g1 and g2 under every relabeling of inputs and outputs, and the party
swap, keep their quantum value, classical value and failed correspondence.
"""

import itertools

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.games import game_from_dict
from nonlocal_audit.quantum import best_known_solution

from conftest import planar_sweep_games, random_weighted_case

PLANAR_SWEEP = planar_sweep_games()
RANDOM_CASES = 5


def _case(name: str) -> tuple[na.GameSpec, na.QuantumStrategy]:
    if name.startswith("random-"):
        return random_weighted_case(int(name.removeprefix("random-")))
    spec = game_from_dict(PLANAR_SWEEP[name]) if name in PLANAR_SWEEP else na.builtin_game(name)
    return spec, best_known_solution(spec).strategy


def _assert_same_relations(mine, theirs):
    assert [r.pair for r in mine] == [r.pair for r in theirs]
    for r, s in zip(mine, theirs):
        assert r.xi == s.xi
        assert np.array_equal(r.operator, s.operator)
        assert np.array_equal(r.certain_space, s.certain_space)


def _assert_same_side(mine, theirs):
    _assert_same_relations(mine.relations, theirs.relations)
    assert mine.verdicts == theirs.verdicts
    assert mine.ns_deviation == theirs.ns_deviation
    assert mine.ns_passes == theirs.ns_passes
    assert mine.up_bound == theirs.up_bound


@pytest.mark.parametrize("name", [
    *na.GAME_IDS, *sorted(PLANAR_SWEEP), *(f"random-{k}" for k in range(RANDOM_CASES)),
])
def test_party_swap(name):
    spec, strategy = _case(name)
    report = na.correspondence_verdict(spec, strategy)
    swapped = na.correspondence_verdict(na.swap_parties(spec), na.swap_strategy(strategy))
    _assert_same_side(report.alice, swapped.bob)
    _assert_same_side(report.bob, swapped.alice)
    assert report.correspondence_holds == swapped.correspondence_holds
    # the swapped sums run in another order
    assert abs(na.classical_value(spec)[0] - na.classical_value(na.swap_parties(spec))[0]) <= 1e-12
    assert abs(report.omega_q - swapped.omega_q) <= 1e-12


def _relabeled(spec: na.GameSpec, labels: tuple[int, ...]) -> na.GameSpec:
    """A 2x2x2x2 game under new labels, not its catalog id: with the bits of
    ``labels``, input x becomes x ^ sx, output a on input x becomes a ^ fa[x],
    likewise for Bob, and the parties swap last if ``swap``."""
    sx, sy, *flips, swap = labels
    fa, fb = flips[:2], flips[2:]
    predicate, pi = np.zeros_like(spec.predicate), np.zeros_like(spec.input_dist)
    for x, y, a, b in np.ndindex(*spec.predicate.shape):
        predicate[x ^ sx, y ^ sy, a ^ fa[x], b ^ fb[y]] = spec.predicate[x, y, a, b]
        pi[x ^ sx, y ^ sy] = spec.input_dist[x, y]
    relabeled = na.GameSpec(id=f"{spec.id}-relabeled", predicate=predicate, input_dist=pi)
    return na.swap_parties(relabeled) if swap else relabeled


@pytest.mark.parametrize("game_id", ["g1", "g2"])
def test_counter_examples_do_not_depend_on_labels(game_id):
    # The paper's counter-examples under each of the 128 relabelings (input
    # swaps, an output flip per input on each side, the party swap): the
    # planar route finds the closed-form value, and the correspondence still
    # fails with the same classical value and, on each side, the no-signaling
    # outcome of the side it maps to: the other side when the parties swap.
    spec = na.builtin_game(game_id)
    closed = na.correspondence_verdict(spec, best_known_solution(spec).strategy)
    omega_c = na.classical_value(spec)[0]
    assert not closed.correspondence_holds
    for labels in itertools.product(range(2), repeat=7):
        relabeled = _relabeled(spec, labels)
        solution = best_known_solution(relabeled)
        assert solution.method == "planar_search", labels
        report = na.correspondence_verdict(relabeled, solution.strategy)
        assert abs(report.omega_q - closed.omega_q) <= 1e-12, labels
        assert na.classical_value(relabeled)[0] == omega_c, labels
        assert not report.correspondence_holds, labels
        closed_sides = (closed.bob, closed.alice) if labels[-1] else (closed.alice, closed.bob)
        assert report.alice.ns_passes == closed_sides[0].ns_passes, labels
        assert report.bob.ns_passes == closed_sides[1].ns_passes, labels
