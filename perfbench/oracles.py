"""Correctness oracles owned by the benchmark.

Each reference is recomputed here with numpy from the game tables, apart from
the published values of the catalog games, which come from ``catalog()``.
A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

TOL = 1e-9
# A planar optimum must beat every point of this coarse grid. Its points are
# a subset of the program's default 721-point grid (720 = 12 * 60 steps).
COARSE_GRID = 61
EXPECTED_CORRESPONDENCE = {"chsh": True, "cglmp": True, "g1": False, "g2": False}


def tables(game: dict) -> tuple[np.ndarray, np.ndarray]:
    """(pi, V) of a game document, V indexed [x, y, a, b]."""
    n_x, n_y = game["inputs"]
    n_a, n_b = game["outputs"]
    predicate = np.zeros((n_x, n_y, n_a, n_b))
    for e in game["predicate"]:
        predicate[e["x"], e["y"], e["a"], e["b"]] = e["v"]
    return np.array(game["pi"], dtype=float), predicate


def classical_reference(pi: np.ndarray, predicate: np.ndarray):
    """Classical value and every maximizer, by best response over Alice's functions.

    For a fixed Alice function f the score splits over y: Bob picks, per y,
    the outputs b maximizing S[y, b] = sum_x pi(x, y) V(f(x), b | x, y).
    Maximizers are listed in lexicographic (f_a, f_b) order.
    """
    n_x, n_y, n_a, n_b = predicate.shape
    weighted = pi[:, :, None, None] * predicate
    f_a = np.array(list(itertools.product(range(n_a), repeat=n_x)))
    scores = weighted[np.arange(n_x)[None, :], :, f_a, :].sum(axis=1)  # (F, y, b)
    best_y = scores.max(axis=2)
    totals = best_y.sum(axis=1)
    value = float(totals.max())
    maximizers = []
    for f in np.nonzero(totals >= value - TOL)[0]:
        ties = [np.nonzero(scores[f, y] >= best_y[f, y] - TOL)[0].tolist() for y in range(n_y)]
        fa = tuple(int(a) for a in f_a[f])
        maximizers.extend((fa, fb) for fb in itertools.product(*ties))
    return value, maximizers


def _planar_projectors(theta: np.ndarray) -> np.ndarray:
    """(..., 2 outputs, 2, 2) projectors onto (e^{i theta}, +-1)/sqrt(2)."""
    phase = np.exp(1j * np.asarray(theta, dtype=float))
    plus = np.stack([phase, np.ones_like(phase)], axis=-1) / math.sqrt(2.0)
    minus = np.stack([phase, -np.ones_like(phase)], axis=-1) / math.sqrt(2.0)
    vecs = np.stack([plus, minus], axis=-2)
    return np.einsum("...oi,...oj->...oij", vecs, vecs.conj())


def planar_lambda_max(pi, predicate, alpha1, beta1) -> np.ndarray:
    """lambda_max of the Bell operator for angles alpha = (0, alpha1), beta = (0, beta1).

    ``alpha1`` and ``beta1`` broadcast against each other.
    """
    alpha1, beta1 = np.broadcast_arrays(np.asarray(alpha1, float), np.asarray(beta1, float))
    zero = np.zeros_like(alpha1)
    proj_a = np.stack([_planar_projectors(zero), _planar_projectors(alpha1)], axis=-4)
    proj_b = np.stack([_planar_projectors(zero), _planar_projectors(beta1)], axis=-4)
    weights = pi[:, :, None, None] * predicate
    bell = np.einsum("xyab,...xaij,...ybkl->...ikjl", weights, proj_a, proj_b)
    bell = bell.reshape(bell.shape[:-4] + (4, 4))
    return np.linalg.eigvalsh(bell)[..., -1]


@dataclass(frozen=True)
class Expected:
    """Reference answers for one input, computed once at set-up."""

    pi: np.ndarray
    predicate: np.ndarray
    classical_value: float
    maximizers: list
    coarse_max: float | None = None  # planar route only
    catalog_values: tuple[float, float] | None = None  # normalized (omega_c, omega_q)
    correspondence: bool | None = None


def expected_for(item, program) -> Expected:
    """Reference answers for a workload input."""
    if item.catalog_id is not None:
        spec = program.builtin_game(item.catalog_id)
        pi, predicate = np.array(spec.input_dist), np.array(spec.predicate)
    else:
        pi, predicate = tables(item.game)
    value, maximizers = classical_reference(pi, predicate)
    coarse_max = catalog_values = correspondence = None
    if item.command == "analyze" and predicate.shape == (2, 2, 2, 2):
        grid = np.linspace(-math.pi, math.pi, COARSE_GRID)
        coarse_max = float(planar_lambda_max(pi, predicate, grid[:, None], grid[None, :]).max())
    if item.catalog_id is not None:
        entry = program.catalog()[item.catalog_id]
        scale = pi.size if entry.value_convention == "raw_sum" else 1.0
        catalog_values = (entry.known_classical_value / scale, entry.known_quantum_value / scale)
        correspondence = EXPECTED_CORRESPONDENCE[item.catalog_id]
    return Expected(pi, predicate, value, maximizers, coarse_max, catalog_values, correspondence)


def _maximizers_match(reference: list, count: int, listed: list) -> bool:
    """The count is exact and the listed maximizers open the reference list in
    order; a report may list fewer than it counts."""
    return count == len(reference) and listed == reference[:len(listed)]


def _normalized(values: list[dict]) -> float:
    return next(v["value"] for v in values if v["convention"] == "normalized")


def check_analyze(expected: Expected, report_text: str) -> list[str]:
    """Problems with one ``analyze --format json`` report."""
    doc = json.loads(report_text)
    omega_c = _normalized(doc["classical"]["value"])
    omega_q = _normalized(doc["quantum"]["value"])
    problems = []
    if abs(omega_c - expected.classical_value) > TOL:
        problems.append(f"classical value {omega_c!r} != oracle {expected.classical_value!r}")
    listed = [(tuple(m["f_a"]), tuple(m["f_b"])) for m in doc["classical"]["maximizers"]]
    if not _maximizers_match(expected.maximizers, doc["classical"]["maximizer_count"], listed):
        problems.append("classical maximizers differ from the oracle")
    if omega_c > omega_q + TOL:
        problems.append(f"classical value {omega_c!r} exceeds quantum value {omega_q!r}")
    if abs(_normalized(doc["verdict"]["omega_q"]) - omega_q) > TOL:
        problems.append("verdict omega_q differs from the quantum value")
    angles = doc["quantum"]["angles"]
    if angles is not None:
        rebuilt = float(planar_lambda_max(
            expected.pi, expected.predicate, angles["alpha"][1], angles["beta"][1]))
        if angles["alpha"][0] != 0.0 or angles["beta"][0] != 0.0:
            problems.append("first planar angles are not pinned to 0")
        if abs(rebuilt - omega_q) > TOL:
            problems.append(f"quantum value {omega_q!r} != lambda_max {rebuilt!r} at the angles")
    if expected.coarse_max is not None and omega_q < expected.coarse_max - TOL:
        problems.append(f"quantum value {omega_q!r} below the coarse-grid maximum")
    if expected.catalog_values is not None:
        known_c, known_q = expected.catalog_values
        if abs(omega_c - known_c) > TOL or abs(omega_q - known_q) > TOL:
            problems.append(f"values ({omega_c!r}, {omega_q!r}) != catalog ({known_c!r}, {known_q!r})")
        if doc["verdict"]["correspondence_holds"] is not expected.correspondence:
            problems.append(f"correspondence_holds is not {expected.correspondence}")
    return problems


_OMEGA_LINE = re.compile(r"game '.*': omega_c = (\S+) \(normalized\)$")
_COUNT_LINE = re.compile(r"(\d+) maximizing deterministic strategies:$")
_STRATEGY_LINE = re.compile(r"  f_a = \[([\d, ]*)\]  f_b = \[([\d, ]*)\]$")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",")) if text.strip() else ()


def check_classical(expected: Expected, stdout: str) -> list[str]:
    """Problems with the standard output of one ``classical`` command."""
    lines = stdout.splitlines()
    head = _OMEGA_LINE.match(lines[0]) if lines else None
    count_at = next((i for i, ln in enumerate(lines) if _COUNT_LINE.match(ln)), None)
    if head is None or count_at is None:
        return ["unrecognised classical output"]
    problems = []
    value = float(head.group(1))
    if abs(value - expected.classical_value) > TOL:
        problems.append(f"classical value {value!r} != oracle {expected.classical_value!r}")
    count = int(_COUNT_LINE.match(lines[count_at]).group(1))
    listed = []
    for ln in lines[count_at + 1:]:
        m = _STRATEGY_LINE.match(ln)
        if m is None:
            return problems + [f"unrecognised maximizer line {ln!r}"]
        listed.append((_ints(m.group(1)), _ints(m.group(2))))
    if not _maximizers_match(expected.maximizers, count, listed):
        problems.append(f"{count} maximizers reported, oracle has {len(expected.maximizers)}")
    return problems
