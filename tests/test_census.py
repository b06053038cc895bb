"""The census of binary 2x2x2x2 games with uniform pi, and its advantage classes.

A game is coded as sum V(a,b|x,y) 2^(8x+4y+2a+b). The 128 relabelings
(swap a party's inputs, flip a party's outputs on one input, swap the
parties) split the 65,536 games into 805 classes; a class's code is the
least code over its images. Only the 9 classes with a quantum advantage
are audited here (auditing all 805 takes over a minute); chsh's is the one
that keeps the correspondence, and the other 8 cover 640 games.
"""

import itertools

import numpy as np
import pytest

import nonlocal_audit as na

# code -> (orbit size, omega_c, omega_q, correspondence_holds, ns_passes and
# saturated of Alice steering Bob and of Bob steering Alice)
ADVANTAGE_CLASSES = {
    5158: (64, 0.5, 0.544598646541, False, (False, False), (False, False)),  # g1
    5166: (64, 0.5, 0.551776695297, False, (False, False), (False, False)),
    5734: (64, 0.75, 0.782217771624, False, (False, False), (False, False)),  # g2
    5735: (64, 0.75, 0.786558622379, False, (False, False), (False, False)),
    5817: (128, 0.75, 0.788675134595, False, (False, False), (False, False)),
    5821: (128, 0.75, 0.794598646541, False, (False, False), (False, False)),
    7606: (64, 0.75, 0.794598646541, False, (False, False), (False, False)),
    7614: (64, 0.75, 0.801776695297, False, (False, False), (False, False)),
    26217: (8, 0.75, 0.853553390593, True, (True, True), (True, True)),  # chsh
}


def relabelings() -> np.ndarray:
    """Each relabeling as the map of bit 8x+4y+2a+b to its image's bit, shape (128, 16)."""
    x, y, a, b = np.array(list(np.ndindex(2, 2, 2, 2))).T
    maps = []
    for swap, sx, sy, fa0, fa1, fb0, fb1 in itertools.product(range(2), repeat=7):
        x2, y2 = x ^ sx, y ^ sy
        a2, b2 = a ^ np.array([fa0, fa1])[x], b ^ np.array([fb0, fb1])[y]
        if swap:
            x2, y2, a2, b2 = y2, x2, b2, a2
        maps.append(8 * x2 + 4 * y2 + 2 * a2 + b2)
    return np.array(maps)


def images(codes: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """The code of every game's image under every map, shape (len(codes), len(maps))."""
    bits = (codes[:, None] >> np.arange(16)) & 1
    return bits @ (1 << maps).T


def census_spec(code: int) -> na.GameSpec:
    predicate = ((code >> np.arange(16)) & 1).reshape(2, 2, 2, 2).astype(float)
    return na.GameSpec(id=f"census-{code}", predicate=predicate,
                       input_dist=np.full((2, 2), 0.25))


@pytest.fixture(scope="module")
def maps():
    return relabelings()


@pytest.fixture(scope="module")
def classes(maps):
    """Class codes and the number of games in each."""
    canonical = np.full(1 << 16, 1 << 16)
    codes = np.arange(1 << 16)
    for block in np.array_split(maps, 8):  # 8 MiB of images at a time, not 64
        canonical = np.minimum(canonical, images(codes, block).min(axis=1))
    return np.unique(canonical, return_counts=True)


def test_relabelings_form_a_group(maps):
    assert len(np.unique(maps, axis=0)) == 128
    assert all(sorted(m) == list(range(16)) for m in maps.tolist())
    composed = maps[:, maps].reshape(-1, 16)  # [i, j] maps bit k to maps[i, maps[j, k]]
    assert len(np.unique(np.concatenate([maps, composed]), axis=0)) == 128


def test_805_classes_cover_every_game(maps, classes):
    codes, games = classes
    assert len(codes) == 805
    orbits = np.array([len(np.unique(row)) for row in images(codes, maps)])
    assert orbits.tolist() == games.tolist()
    assert orbits.sum() == 1 << 16


def test_classical_value_matches_a_plain_loop(classes):
    responses = list(itertools.product(range(2), repeat=2))
    for code in classes[0].tolist():
        spec = census_spec(code)
        best = max(
            sum(0.25 * spec.predicate[x, y, f_a[x], f_b[y]] for x in range(2) for y in range(2))
            for f_a in responses for f_b in responses
        )
        assert na.classical_value(spec)[0] == best, code


@pytest.mark.parametrize("code", sorted(ADVANTAGE_CLASSES))
def test_advantage_class(code, classes):
    orbit, omega_c, omega_q, holds, alice, bob = ADVANTAGE_CLASSES[code]
    codes, games = classes
    assert code in codes
    assert games[np.searchsorted(codes, code)] == orbit
    spec = census_spec(code)
    assert na.classical_value(spec)[0] == omega_c
    solution = na.optimize_planar(spec)
    assert not solution.search.capped
    assert abs(solution.value - omega_q) <= 1e-9
    report = na.correspondence_verdict(spec, solution.strategy)
    assert report.correspondence_holds is holds
    assert (report.alice.ns_passes, report.alice.saturated) == alice
    assert (report.bob.ns_passes, report.bob.saturated) == bob
