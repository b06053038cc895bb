"""The best-response classical value against hand-computed oracles and a full enumeration.

``classical_value`` enumerates the response functions of the side with fewer
of them and rescores the near-best pairs exactly; ``enumerate_classical``
(conftest) scores every strategy pair one by one and must agree bit for bit.
``ENUMERATION_GUARD`` bounds the enumerated side's score table and the
candidate maximizers.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.classical import ENUMERATION_GUARD, DeterministicStrategy
from nonlocal_audit.errors import TooLargeError
from nonlocal_audit.games import swap_parties

from conftest import enumerate_classical, strategy_value


def test_strategy_value_g1_all_zero(g1_spec):
    s = DeterministicStrategy(f_a=(0, 0), f_b=(0, 0))
    # only the (x,y) = (0,0) cell wins for outputs (0,0)
    assert strategy_value(g1_spec, s) == 0.25


def test_strategy_value_chsh_all_zero(chsh_spec):
    s = DeterministicStrategy(f_a=(0, 0), f_b=(0, 0))
    assert strategy_value(chsh_spec, s) == 0.75


def test_strategy_value_zero_predicate():
    spec = na.GameSpec(
        id="zero", n_x=2, n_y=2, n_a=2, n_b=2,
        predicate=np.zeros((2, 2, 2, 2)), input_dist=np.full((2, 2), 0.25),
    )
    s = DeterministicStrategy(f_a=(1, 0), f_b=(0, 1))
    assert strategy_value(spec, s) == 0.0


def _hand_enumeration(spec):
    # independent oracle: explicit loop over the 4 x 4 response functions
    best = -1.0
    for a0, a1, b0, b1 in product(range(2), repeat=4):
        total = 0.0
        for x, fa in ((0, a0), (1, a1)):
            for y, fb in ((0, b0), (1, b1)):
                total += 0.25 * spec.predicate[x, y, fa, fb]
        best = max(best, total)
    return best


def test_classical_value_g1(g1_spec):
    value, maximizers = na.classical_value(g1_spec)
    assert value == 0.5
    assert value == _hand_enumeration(g1_spec)
    assert all(strategy_value(g1_spec, s) == value for s in maximizers)


def test_classical_value_g2(g2_spec):
    value, _ = na.classical_value(g2_spec)
    assert value == 0.75
    assert value == _hand_enumeration(g2_spec)


def test_classical_value_chsh(chsh_spec):
    value, _ = na.classical_value(chsh_spec)
    assert value == 0.75


def test_classical_value_cglmp_raw_sum(cglmp_spec):
    value, maximizers = na.classical_value(cglmp_spec)
    assert 4.0 * value == 6.0
    # 81 = 3^2 * 3^2 strategy pairs were enumerated; spot-check one maximizer
    assert maximizers
    assert all(4.0 * strategy_value(cglmp_spec, s) == 6.0 for s in maximizers)


def test_maximizer_order_deterministic(g1_spec):
    _, first = na.classical_value(g1_spec)
    _, second = na.classical_value(g1_spec)
    assert first == second
    # lexicographic: Alice's function is the outer loop
    keys = [(s.f_a, s.f_b) for s in first]
    assert keys == sorted(keys)


def test_relabeling_invariance(g2_spec):
    # swap Alice's output labels together with the matching predicate slice
    perm_pred = np.array(g2_spec.predicate)[:, :, ::-1, :]
    relabeled = na.GameSpec(
        id="g2-relabeled", n_x=2, n_y=2, n_a=2, n_b=2,
        predicate=perm_pred, input_dist=g2_spec.input_dist,
    )
    assert na.classical_value(relabeled)[0] == na.classical_value(g2_spec)[0]


def test_per_cell_upper_bound():
    rng = np.random.default_rng(21)
    for _ in range(10):
        pred = rng.integers(0, 2, size=(2, 2, 2, 2)).astype(float)
        spec = na.GameSpec(
            id="rand", n_x=2, n_y=2, n_a=2, n_b=2,
            predicate=pred, input_dist=np.full((2, 2), 0.25),
        )
        value, _ = na.classical_value(spec)
        bound = max(pred[x, y].max() for x in range(2) for y in range(2))
        assert value <= bound + 1e-12


def test_enumeration_guard():
    spec = na.GameSpec(
        id="huge", n_x=8, n_y=8, n_a=8, n_b=8,
        predicate=np.zeros((8, 8, 8, 8)),
        input_dist=np.full((8, 8), 1.0 / 64.0),
    )
    with pytest.raises(TooLargeError):
        na.classical_value(spec)


# n_x < n_y and n_x > n_y, so that each party's side is the enumerated one
REFERENCE_SHAPES = [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3),
                    (2, 4), (4, 2), (3, 4), (4, 3), (4, 4), (1, 4)]
REFERENCE_KINDS = ["binary", "weighted", "integer", "ties", "three-output"]


def _reference_game(kind: str, n_x: int, n_y: int, seed: int) -> na.GameSpec:
    rng = np.random.default_rng(seed)
    n_a = n_b = 2
    pi = np.full((n_x, n_y), 1.0 / (n_x * n_y))
    if kind == "three-output":
        n_a, n_b = (3, 2) if seed % 2 else (2, 3)
    shape = (n_x, n_y, n_a, n_b)
    if kind in ("binary", "three-output"):
        predicate = (rng.random(shape) < 0.5).astype(float)
    elif kind == "weighted":
        predicate = np.where(rng.random(shape) < 0.5, rng.uniform(0.5, 1.5, shape), 0.0)
        pi = rng.uniform(0.5, 1.5, (n_x, n_y))
        pi /= pi.sum()
    elif kind == "integer":
        # small integer weights and pi in small integer ratios: many pairs tie
        # exactly, and many only up to the rounding of their sums
        predicate = rng.integers(0, 3, size=shape).astype(float)
        pi = rng.integers(1, 4, size=(n_x, n_y)).astype(float)
        pi /= pi.sum()
    else:
        # every output pair wins on some input pairs and none on the rest
        rows = rng.random((n_x, n_y)) < 0.6
        predicate = np.broadcast_to(rows[:, :, None, None], shape).astype(float)
    return na.GameSpec(
        id=f"{kind}-{n_x}x{n_y}", n_x=n_x, n_y=n_y, n_a=n_a, n_b=n_b,
        predicate=predicate, input_dist=pi,
        binary_predicate=kind not in ("weighted", "integer"),
    )


REFERENCE_CASES = [
    pytest.param(kind, n_x, n_y, id=f"{kind}-{n_x}x{n_y}")
    for kind in REFERENCE_KINDS
    for n_x, n_y in REFERENCE_SHAPES
] + [pytest.param("catalog", game_id, None, id=game_id) for game_id in na.GAME_IDS]


@pytest.mark.parametrize("kind, n_x, n_y", REFERENCE_CASES)
def test_matches_full_enumeration(kind, n_x, n_y):
    if kind == "catalog":
        spec = na.builtin_game(n_x)
    else:
        seed = 1000 * REFERENCE_KINDS.index(kind) + REFERENCE_SHAPES.index((n_x, n_y))
        spec = _reference_game(kind, n_x, n_y, seed)
    value, maximizers = na.classical_value(spec)
    expected_value, expected_maximizers = enumerate_classical(spec)
    assert float(value).hex() == float(expected_value).hex()
    assert maximizers == expected_maximizers


def test_ten_by_ten_binary_game():
    rng = np.random.default_rng(10)
    spec = na.GameSpec(
        id="binary-10x10", n_x=10, n_y=10, n_a=2, n_b=2,
        predicate=(rng.random((10, 10, 2, 2)) < 0.5).astype(float),
        input_dist=np.full((10, 10), 0.01),
    )
    value, maximizers = na.classical_value(spec)
    assert maximizers
    assert all(strategy_value(spec, s) == value for s in maximizers)
    # the swapped game enumerates the other party's functions
    swapped_value, swapped_maximizers = na.classical_value(swap_parties(spec))
    assert abs(swapped_value - value) <= 1e-12
    assert sorted((s.f_b, s.f_a) for s in swapped_maximizers) == [
        (s.f_a, s.f_b) for s in maximizers
    ]


def test_candidate_guard_before_allocation():
    # 2^24 strategy pairs all tie: over the guard, refused before any list is built
    rng = np.random.default_rng(12)
    rows = rng.random((12, 12)) < 0.6
    spec = na.GameSpec(
        id="ties-12x12", n_x=12, n_y=12, n_a=2, n_b=2,
        predicate=np.broadcast_to(rows[:, :, None, None], (12, 12, 2, 2)).astype(float),
        input_dist=np.full((12, 12), 1.0 / 144.0),
    )
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match=f"16777216 candidate maximizers exceed "
                                                f"the guard of {ENUMERATION_GUARD}"):
            na.classical_value(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
