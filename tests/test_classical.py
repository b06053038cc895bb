"""The best-response classical value against hand-computed oracles and a full enumeration.

``classical_value`` enumerates the response functions of the side with fewer
of them and rescores the near-best pairs exactly, in blocks of
``BLOCK_LABELS`` labels; ``enumerate_classical`` (conftest) scores every
strategy pair one by one and must agree bit for bit on the value and the
count, and on the first ``MAX_LISTED_MAXIMIZERS`` maximizers, which are all
that is listed. ``ENUMERATION_GUARD`` bounds the enumerated side's score
table and the candidate maximizers.
"""

import tracemalloc
from functools import cache
from itertools import product

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit import classical
from nonlocal_audit.classical import (
    ENUMERATION_GUARD,
    MAX_LISTED_MAXIMIZERS,
    DeterministicStrategy,
    _scores,
)
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
    value, maximizers, count = na.classical_value(g1_spec)
    assert value == 0.5
    assert count == len(maximizers)
    assert value == _hand_enumeration(g1_spec)
    assert all(strategy_value(g1_spec, s) == value for s in maximizers)


def test_classical_value_g2(g2_spec):
    value, _, _ = na.classical_value(g2_spec)
    assert value == 0.75
    assert value == _hand_enumeration(g2_spec)


def test_classical_value_chsh(chsh_spec):
    value, _, _ = na.classical_value(chsh_spec)
    assert value == 0.75


def test_classical_value_cglmp_raw_sum(cglmp_spec):
    value, maximizers, count = na.classical_value(cglmp_spec)
    assert 4.0 * value == 6.0
    # 81 = 3^2 * 3^2 strategy pairs were enumerated; spot-check one maximizer
    assert maximizers and count == len(maximizers)
    assert all(4.0 * strategy_value(cglmp_spec, s) == 6.0 for s in maximizers)


def test_maximizer_order_deterministic(g1_spec):
    _, first, _ = na.classical_value(g1_spec)
    _, second, _ = na.classical_value(g1_spec)
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
        value, _, _ = na.classical_value(spec)
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
    value, maximizers, count = na.classical_value(spec)
    expected_value, expected_maximizers = enumerate_classical(spec)
    assert float(value).hex() == float(expected_value).hex()
    assert count == len(expected_maximizers)
    assert maximizers == expected_maximizers[:MAX_LISTED_MAXIMIZERS]


def test_ten_by_ten_binary_game():
    rng = np.random.default_rng(10)
    spec = na.GameSpec(
        id="binary-10x10",
        predicate=(rng.random((10, 10, 2, 2)) < 0.5).astype(float),
        input_dist=np.full((10, 10), 0.01),
    )
    value, maximizers, count = na.classical_value(spec)
    assert 0 < count == len(maximizers)
    assert all(strategy_value(spec, s) == value for s in maximizers)
    # the swapped game enumerates the other party's functions
    swapped_value, swapped_maximizers, swapped_count = na.classical_value(swap_parties(spec))
    assert abs(swapped_value - value) <= 1e-12 and swapped_count == count
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


def _traced_peak(spec):
    """``classical_value(spec)`` and the peak of memory it allocated."""
    tracemalloc.start()
    try:
        result = na.classical_value(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _all_tie_game(game_id, n, seed):
    # every output pair wins on a random set of input pairs and none on the
    # rest: all 2^(2n) strategy pairs tie
    rows = np.random.default_rng(seed).random((n, n)) < 0.6
    spec = na.GameSpec(
        id=game_id,
        predicate=np.broadcast_to(rows[:, :, None, None], (n, n, 2, 2)).astype(float),
        input_dist=np.full((n, n), 1.0 / (n * n)),
    )
    return spec, float(rows.sum()) / (n * n)


def test_tie_heavy_memory_peak():
    # 2^16 strategy pairs all tie: one score per pair is kept, no buffer of
    # pairs times inputs, and only the listed pairs become tuples
    spec, expected_value = _all_tie_game("ties-8x8", 8, 8)
    (value, maximizers, count), peak = _traced_peak(spec)
    assert count == 2**16
    assert len(maximizers) == MAX_LISTED_MAXIMIZERS
    assert value == expected_value
    assert peak <= 14 * 2**20


def test_ten_by_ten_tie_memory_peak():
    spec, _ = _all_tie_game("ties-10x10", 10, 20)
    (value, maximizers, count), peak = _traced_peak(spec)
    assert count == 2**20
    assert value == strategy_value(spec, maximizers[0])
    assert maximizers[-1] == ((0,) * 10, tuple(int(b) for b in f"{999:010b}"))
    # two passes over 21 blocks hold one block's scores at a time, not one per pair
    assert peak <= 14 * 2**20


def test_wide_tie_memory_peak():
    # Alice has one input and one output; Bob has 800 inputs, 14 of which
    # tie between his two outputs, and on the rest one output wins
    rng = np.random.default_rng(800)
    n_y = 800
    tied = np.sort(rng.choice(n_y, 14, replace=False))
    win = rng.integers(0, 2, n_y)
    predicate = np.zeros((1, n_y, 1, 2))
    predicate[0, np.arange(n_y), 0, win] = 1.0
    predicate[0, tied, 0, :] = 1.0
    spec = na.GameSpec(id="wide-ties", predicate=predicate,
                       input_dist=np.full((1, n_y), 1.0 / n_y))
    (value, maximizers, count), peak = _traced_peak(spec)
    assert count == 2**14
    assert value == strategy_value(spec, maximizers[0])
    # the k-th maximizer sets the tied inputs to k's binary digits, first input first
    expected = []
    for k in range(MAX_LISTED_MAXIMIZERS):
        f_b = win.copy()
        f_b[tied] = [int(b) for b in f"{k:014b}"]
        expected.append(DeterministicStrategy(f_a=(0,), f_b=tuple(f_b.tolist())))
    assert maximizers == expected
    assert peak <= 32 * 2**20


# Tie games with more maximizers than are listed, with Alice's functions
# enumerated (6x6) and with Bob's (7x5): every strategy pair ties ("all"),
# or only those with f_a(0) = f_b(0) != f_a(1), a quarter of them ("some").
OVER_CAP_CASES = [(6, 6, "all"), (7, 5, "all"), (6, 6, "some"), (7, 5, "some")]


@cache
def _over_cap_game(n_x, n_y, kind):
    """The game of one ``OVER_CAP_CASES`` entry and its full enumeration."""
    spec = _reference_game("ties", n_x, n_y, 10 * n_x + n_y)
    if kind == "some":
        predicate = np.array(spec.predicate)
        predicate[0, 0] = np.eye(2)
        predicate[1, 0] = 1.0 - np.eye(2)
        spec = na.GameSpec(id=f"some-ties-{n_x}x{n_y}", predicate=predicate,
                           input_dist=spec.input_dist)
    return spec, enumerate_classical(spec)


@pytest.mark.parametrize("block_rows", [None, 13], ids=["default-blocks", "13-row-blocks"])
@pytest.mark.parametrize("n_x, n_y, kind", OVER_CAP_CASES,
                         ids=[f"{kind}-{n_x}x{n_y}" for n_x, n_y, kind in OVER_CAP_CASES])
def test_over_cap_lists_first_maximizers(monkeypatch, n_x, n_y, kind, block_rows):
    spec, (expected_value, expected_maximizers) = _over_cap_game(n_x, n_y, kind)
    if block_rows is not None:
        # block seams fall inside candidates, and Bob's side merges 316 blocks
        monkeypatch.setattr(classical, "BLOCK_LABELS", block_rows * (n_x + n_y))
    value, maximizers, count = na.classical_value(spec)
    assert len(expected_maximizers) > MAX_LISTED_MAXIMIZERS
    assert float(value).hex() == float(expected_value).hex()
    assert count == len(expected_maximizers)
    assert maximizers == expected_maximizers[:MAX_LISTED_MAXIMIZERS]
