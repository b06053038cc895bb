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
from nonlocal_audit.classical import ENUMERATION_GUARD, DeterministicStrategy, _scores
from nonlocal_audit.errors import TooLargeError
from nonlocal_audit.games import swap_parties

from conftest import enumerate_classical, strategy_value


def test_deterministic_strategy_contract():
    s = DeterministicStrategy(f_a=(0, 0), f_b=(0, 0))
    assert repr(s) == "DeterministicStrategy(f_a=(0, 0), f_b=(0, 0))"
    assert (s.f_a, s.f_b) == ((0, 0), (0, 0))
    with pytest.raises(AttributeError):
        s.f_a = (1, 1)
    same = DeterministicStrategy(f_a=(0, 0), f_b=(0, 0))
    assert s == same and hash(s) == hash(same) == hash(((0, 0), (0, 0)))
    assert len({s, same}) == 1
    assert s != DeterministicStrategy(f_a=(0, 0), f_b=(0, 1))


def test_strategy_value_g1_all_zero(g1_spec):
    s = DeterministicStrategy(f_a=(0, 0), f_b=(0, 0))
    # only the (x,y) = (0,0) cell wins for outputs (0,0)
    assert strategy_value(g1_spec, s) == 0.25


def test_strategy_value_chsh_all_zero(chsh_spec):
    s = DeterministicStrategy(f_a=(0, 0), f_b=(0, 0))
    assert strategy_value(chsh_spec, s) == 0.75


def test_strategy_value_zero_predicate():
    spec = na.GameSpec(
        id="zero",
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
        id="g2-relabeled",
        predicate=perm_pred, input_dist=g2_spec.input_dist,
    )
    assert na.classical_value(relabeled)[0] == na.classical_value(g2_spec)[0]


def test_per_cell_upper_bound():
    rng = np.random.default_rng(21)
    for _ in range(10):
        pred = rng.integers(0, 2, size=(2, 2, 2, 2)).astype(float)
        spec = na.GameSpec(
            id="rand",
            predicate=pred, input_dist=np.full((2, 2), 0.25),
        )
        value, _ = na.classical_value(spec)
        bound = max(pred[x, y].max() for x in range(2) for y in range(2))
        assert value <= bound + 1e-12


def test_enumeration_guard():
    spec = na.GameSpec(
        id="huge",
        predicate=np.zeros((8, 8, 8, 8)),
        input_dist=np.full((8, 8), 1.0 / 64.0),
    )
    with pytest.raises(TooLargeError):
        na.classical_value(spec)


# (n_x, n_y, n_a, n_b): n_a != n_b, one-output and one-input sides, and
# n_a * n_b > 255, where uint8 labels times n_b would wrap without a cast
SCORE_SHAPES = [(1, 1, 1, 1), (3, 2, 1, 4), (2, 3, 4, 1), (1, 4, 3, 2), (4, 1, 2, 5),
                (3, 3, 2, 3), (1, 2, 20, 20), (2, 1, 17, 16)]


@pytest.mark.parametrize("n_x, n_y, n_a, n_b", SCORE_SHAPES,
                         ids=["x".join(map(str, s)) for s in SCORE_SHAPES])
def test_scores_match_term_by_term_sum(n_x, n_y, n_a, n_b):
    rng = np.random.default_rng(SCORE_SHAPES.index((n_x, n_y, n_a, n_b)))
    shape = (n_x, n_y, n_a, n_b)
    spec = na.GameSpec(
        id="scores",
        predicate=np.where(rng.random(shape) < 0.7, rng.uniform(0.5, 1.5, shape), 0.0),
        input_dist=rng.dirichlet(np.ones(n_x * n_y)).reshape(n_x, n_y),
        binary_predicate=False,
    )
    pi, weight = spec.input_dist.tolist(), spec.predicate.tolist()
    label = np.min_scalar_type(max(n_a, n_b))  # as classical_value stores them
    for rows in (1, 2, 37, 300):
        f_a = rng.integers(0, n_a, (rows, n_x)).astype(label)
        f_b = rng.integers(0, n_b, (rows, n_y)).astype(label)
        expected = []
        for fa, fb in zip(f_a.tolist(), f_b.tolist()):
            total = 0.0
            for x in range(n_x):
                for y in range(n_y):
                    total += pi[x][y] * weight[x][y][fa[x]][fb[y]]
            expected.append(total.hex())
        assert [v.hex() for v in _scores(spec, f_a, f_b).tolist()] == expected


# n_x < n_y and n_x > n_y, so that each party's side is the enumerated one
REFERENCE_SHAPES = [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3),
                    (2, 4), (4, 2), (3, 4), (4, 3), (4, 4), (1, 4),
                    (5, 3), (3, 5), (6, 2), (2, 6), (5, 4)]
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
        id=f"{kind}-{n_x}x{n_y}",
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
        id="binary-10x10",
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
        id="ties-12x12",
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


def test_tie_heavy_memory_peak():
    # 2^16 strategy pairs all tie: the list holds one tuple per distinct
    # function, and no buffer of rows times inputs is kept beside it
    rng = np.random.default_rng(8)
    rows = rng.random((8, 8)) < 0.6
    spec = na.GameSpec(
        id="ties-8x8",
        predicate=np.broadcast_to(rows[:, :, None, None], (8, 8, 2, 2)).astype(float),
        input_dist=np.full((8, 8), 1.0 / 64.0),
    )
    tracemalloc.start()
    try:
        value, maximizers = na.classical_value(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(maximizers) == 2**16
    assert value == float(rows.sum()) / 64.0
    assert peak <= 14 * 2**20
