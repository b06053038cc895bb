"""Seeded inputs for the benchmark workloads, and the import of the program.

Game documents are generated with numpy and the standard library only, so
the inputs and the oracles built from them do not depend on the program
under test. The same ``(workload, seed)`` always yields the same documents,
file names and command lines.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Generated inputs and reports; relative to the checkout root, which is the
# working directory of every run, so reports name the same paths everywhere.
WORK = Path(".perfbench_work")

WORKLOADS = ("planar_sweep", "closed_route", "classical_scaling")
CLOSED_ROUTE_IDS = ("g1", "g2", "cglmp")
PLANAR_GAMES_SEED = 0


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``nonlocal_audit`` package under src/."""


def import_program():
    """Import ``nonlocal_audit`` from this checkout's src/, never from elsewhere."""
    init = SRC / "nonlocal_audit" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program source at {init}")
    sys.path.insert(0, str(SRC))
    import nonlocal_audit

    if Path(nonlocal_audit.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported {nonlocal_audit.__file__}, expected {init}")
    return nonlocal_audit


@dataclass(frozen=True)
class Input:
    """One input of a workload: a game file to write, or a catalog id."""

    name: str
    command: str  # "analyze" or "classical"
    game: dict | None = None  # game document (docs/game-file-format.md)
    catalog_id: str | None = None

    @property
    def ref(self) -> str:
        return self.catalog_id or str(WORK / "games" / f"{self.name}.json")

    @property
    def out(self) -> str:
        return str(WORK / "reports" / f"{self.name}.json")

    def argv(self) -> list[str]:
        if self.command == "classical":
            return ["classical", self.ref]
        return ["analyze", self.ref, "--format", "json", "--out", self.out]


def _document(name, n_x, n_y, n_a, n_b, pi, predicate, binary) -> dict:
    entries = [
        {"x": int(x), "y": int(y), "a": int(a), "b": int(b),
         "v": float(predicate[x, y, a, b])}
        for x, y, a, b in zip(*np.nonzero(predicate))
    ]
    return {
        "id": name,
        "inputs": [n_x, n_y],
        "outputs": [n_a, n_b],
        "pi": [[float(p) for p in row] for row in pi],
        "predicate": entries,
        "binary_predicate": binary,
    }


def _xor_game(rng: np.random.Generator, name: str) -> dict:
    # Binary games are XOR-type: every input pair rewards either equal or
    # unequal outputs (b = a xor c), as chsh does. General random binary games
    # are not used: analyze exits 1 on about a quarter of them ("relation
    # (x,a) is degenerate and the reference never produces it"), and the
    # workload must be one on which no op fails.
    predicate = np.zeros((2, 2, 2, 2))
    for x, y in itertools.product(range(2), range(2)):
        c = rng.integers(2)
        for a in range(2):
            predicate[x, y, a, a ^ c] = 1.0
    return _document(name, 2, 2, 2, 2, _planar_pi(rng), predicate, True)


def _weighted_game(rng: np.random.Generator, name: str) -> dict:
    # A general random predicate: each (x, y, a, b) wins with probability 1/2
    # and a weight drawn from a continuum, so the exact ties that make a
    # relation degenerate do not arise.
    # Games in which some output of some input wins for no (y, b), or (x, a),
    # are drawn again: that output carries no relation.
    while True:
        wins = rng.random((2, 2, 2, 2)) < 0.5
        predicate = np.where(wins, rng.uniform(0.5, 1.5, size=wins.shape), 0.0)
        if wins.any(axis=(1, 3)).all() and wins.any(axis=(0, 2)).all():
            return _document(name, 2, 2, 2, 2, _planar_pi(rng), predicate, False)


def _planar_pi(rng: np.random.Generator) -> np.ndarray:
    # Non-uniform and bounded away from zero, so no input pair drops out.
    raw = rng.uniform(0.5, 1.5, size=(2, 2))
    return raw / raw.sum()


def _binary_game(rng, name, n_x, n_y, n_a, n_b) -> dict:
    predicate = (rng.random((n_x, n_y, n_a, n_b)) < 0.5).astype(float)
    pi = np.full((n_x, n_y), 1.0 / (n_x * n_y))
    return _document(name, n_x, n_y, n_a, n_b, pi, predicate, True)


def _tie_heavy_game(rng, name, n_x, n_y) -> dict:
    # On a random set of input pairs every output pair wins and on the rest
    # none does, so every deterministic strategy scores the same and all of
    # them are maximizers.
    rows = rng.random((n_x, n_y)) < 0.6
    predicate = np.broadcast_to(rows[:, :, None, None], (n_x, n_y, 2, 2)).astype(float)
    pi = np.full((n_x, n_y), 1.0 / (n_x * n_y))
    return _document(name, n_x, n_y, 2, 2, pi, predicate, True)


def generate(workload: str, seed: int) -> list[Input]:
    """The inputs of one workload, in the round-robin order of its loop."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "planar_sweep":
        # The random games are drawn from a fixed seed and the run's seed sets
        # only their order, as on closed_route. A planar op costs 1.8 to 3.9 s
        # with the game (its refinement makes 190 to 2300 bell_operator calls)
        # and a run covers about ten ops, so games drawn from the run's seed
        # moved the run's figures by up to a quarter from seed to seed.
        games = np.random.default_rng([WORKLOADS.index(workload), PLANAR_GAMES_SEED])
        inputs = [Input("chsh", "analyze", catalog_id="chsh")]
        for k in range(4):
            inputs.append(Input(f"planar-xor-{k}", "analyze", game=_xor_game(games, f"planar-xor-{k}")))
            inputs.append(Input(f"planar-weighted-{k}", "analyze",
                                game=_weighted_game(games, f"planar-weighted-{k}")))
        return [inputs[i] for i in rng.permutation(len(inputs))]
    if workload == "closed_route":
        order = rng.permutation(len(CLOSED_ROUTE_IDS))
        return [Input(CLOSED_ROUTE_IDS[i], "analyze", catalog_id=CLOSED_ROUTE_IDS[i])
                for i in order]
    if workload == "classical_scaling":
        # Two 6x6 games keep the median op inside the cluster of short ops
        # (4x4 three-output and 6x6), the 7x7 game sets the tail.
        return [
            Input("classical-6x6-0", "classical", game=_binary_game(rng, "classical-6x6-0", 6, 6, 2, 2)),
            Input("classical-6x6-1", "classical", game=_binary_game(rng, "classical-6x6-1", 6, 6, 2, 2)),
            Input("classical-7x7", "classical", game=_binary_game(rng, "classical-7x7", 7, 7, 2, 2)),
            Input("classical-4x4x3", "classical", game=_binary_game(rng, "classical-4x4x3", 4, 4, 3, 3)),
            Input("classical-ties-6x6", "classical", game=_tie_heavy_game(rng, "classical-ties-6x6", 6, 6)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_inputs(inputs: list[Input]) -> None:
    """Write every generated game file and make room for the reports."""
    (WORK / "games").mkdir(parents=True, exist_ok=True)
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    for item in inputs:
        if item.game is not None:
            with open(item.ref, "w", encoding="utf-8") as fh:
                json.dump(item.game, fh, indent=2)
                fh.write("\n")
