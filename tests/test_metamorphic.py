"""Party swap: the audit does not depend on which party is called Alice.

``correspondence_verdict`` on the game and strategy with the parties
exchanged must report each side's relations and verdicts of the original,
bit for bit, with the sides exchanged. The cases are the catalog games and
the benchmark's ``planar_sweep`` games with their best known strategies,
and the random weighted 3x2-input cases of ``test_contractions.py``.
"""

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.games import game_from_dict
from nonlocal_audit.report import best_known_solution

from conftest import planar_sweep_games, random_weighted_case

PLANAR_SWEEP = planar_sweep_games()
RANDOM_CASES = 5


def _case(name: str) -> tuple[na.GameSpec, na.QuantumStrategy]:
    if name.startswith("random-"):
        return random_weighted_case(int(name.removeprefix("random-")))
    spec = game_from_dict(PLANAR_SWEEP[name]) if name in PLANAR_SWEEP else na.builtin_game(name)
    return spec, best_known_solution(spec)[1].strategy


def _assert_same_relations(mine, theirs):
    assert [r.pair for r in mine] == [r.pair for r in theirs]
    for r, s in zip(mine, theirs):
        assert r.xi == s.xi
        assert np.array_equal(r.operator, s.operator)
        assert np.array_equal(r.certain_space, s.certain_space)


@pytest.mark.parametrize("name", [
    *na.GAME_IDS, *sorted(PLANAR_SWEEP), *(f"random-{k}" for k in range(RANDOM_CASES)),
])
def test_party_swap(name):
    spec, strategy = _case(name)
    report = na.correspondence_verdict(spec, strategy)
    swapped = na.correspondence_verdict(na.swap_parties(spec), na.swap_strategy(strategy))
    _assert_same_relations(report.relations_alice, swapped.relations_bob)
    _assert_same_relations(report.relations_bob, swapped.relations_alice)
    assert report.verdicts_alice == swapped.verdicts_bob
    assert report.verdicts_bob == swapped.verdicts_alice
    assert report.correspondence_holds == swapped.correspondence_holds
    # the swapped sums run in another order
    assert abs(report.omega_c - swapped.omega_c) <= 1e-12
    assert abs(report.omega_q - swapped.omega_q) <= 1e-12
    # ns_deviation and ns_passes are not compared: the certain-state test runs
    # on the Alice-steers-Bob side only, and ns_passes flips under the swap on
    # planar-weighted-0, -1 and -2 until it runs on both sides.
