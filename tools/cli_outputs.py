"""Write the command-line outputs that a refactor must keep byte-identical.

Runs 102 commands in-process through ``nonlocal_audit.cli.main`` and writes
one file per command into OUTDIR, holding its argv, exit code, stdout and
stderr. On each of the 4 catalog games and the 8 generated ``planar_sweep``
games: ``analyze --format json``, ``analyze --format text``,
``uncertainty --side alice`` and ``--side bob``, ``steer`` and
``quantum``; the text report's ``wall time`` line is written as
``WALL_TIME``, since its seconds differ from run to run. On the 2
``flip_symmetric_games``: ``analyze --format json``, ``analyze --format
text`` and ``quantum``. On the 5
``classical_scaling`` games and the 4 ``swap_games``: ``classical``. On
``classical-4x4x3``, which no quantum route covers: ``analyze --format
json``, whose refusal (exit 2) is checked too. Then ``list-games``, and
``analyze --format json`` on the 4 ``EMPTY_SIZES`` game files, each refused
(exit 2) with an empty input or output set. Last, ``classical`` and
``analyze --format json`` on ``INTEGER_WEIGHTS``, a 2x2x2x2 game file whose
weights are JSON integers and whose entries run in reverse table order, and
``classical`` on ``REPEATED_KEY``, a game file refused (exit 2) since an
entry repeats its key ``v``; ``analyze --format json``, ``analyze --format
text`` and ``quantum`` on ``CAPPED_SEARCH``, whose planar search a cap
stops, so its bound and the logged warning are checked; and ``analyze
--format json`` on ``WIDE_GAME``, which the planar route refuses (exit 2)
before its classical strategies, too many to enumerate, are counted; and
``analyze --format json`` on the two ``CENSUS_CLASSES`` game files.
Game files are the benchmark's own inputs,
``perfbench/workloads.generate(workload, 0)``, the ``swap_games``,
drawn with the benchmark's generators from seed ``SWAP_GAMES_SEED``, the
``flip_symmetric_games``, drawn from seed ``FLIP_GAMES_SEED``, and the
``EMPTY_SIZES``, ``INTEGER_WEIGHTS``, ``REPEATED_KEY``, ``CAPPED_SEARCH``,
``WIDE_GAME`` and ``CENSUS_CLASSES`` documents,
written under ``.perfbench_work/`` in the checkout root; the program is
the one in the checkout's ``src/``.

Usage, with this file copied into each checkout:

    python3 tools/cli_outputs.py OUTDIR
    diff -r PARENT_OUTDIR CHANGE_OUTDIR
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.dont_write_bytecode = True  # read perfbench/ without writing into it

from perfbench import workloads  # noqa: E402

# (inputs, outputs) of game files that leave an axis empty; they list no
# predicate entry, since none can index an empty axis.
EMPTY_SIZES = {
    "empty-outputs-zero": ([2, 2], [0, 2]),
    "empty-outputs-negative": ([2, 2], [-1, 2]),
    "empty-inputs-zero": ([2, 0], [2, 2]),
    "empty-inputs-zero-by-2e6": ([0, 2000000], [2, 2]),
}
# The CHSH wins, a xor b = x y, written as a file with "v": 1 and the entries
# from the last (x, y, a, b) in table order to the first; its id is not a
# catalog id, so analyze runs the planar search on it.
INTEGER_WEIGHTS = {
    "id": "integer-weights-reversed", "inputs": [2, 2], "outputs": [2, 2],
    "pi": [[0.25, 0.25], [0.25, 0.25]],
    "predicate": [{"x": x, "y": y, "a": a, "b": b, "v": 1}
                  for x, y, a, b in reversed(list(np.ndindex(2, 2, 2, 2))) if a ^ b == x * y],
}
# A 1x1x1x1 game file whose one entry gives its weight twice, 1 then 0; it
# is written as text, since a dict cannot hold a key twice.
REPEATED_KEY = ('{"id": "repeated-key", "inputs": [1, 1], "outputs": [1, 1], "pi": [[1.0]], '
                '"predicate": [{"x": 0, "y": 0, "a": 0, "b": 0, "v": 1, "v": 0}]}')
# A binary 2x2x2x2 game whose Alice never gets input 1: lambda_max is flat
# in alpha1 at its maximum 1/2, the open cells along alpha1 double every
# round, and MAX_CELLS stops the search with a bound above the value.
CAPPED_SEARCH = {
    "id": "capped-search", "inputs": [2, 2], "outputs": [2, 2],
    "pi": [[0.5, 0.5], [0.0, 0.0]],
    "predicate": [{"x": x, "y": y, "a": a, "b": b, "v": 1.0}
                  for x, y, a, b in ((0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0))],
}
# A binary game with 24 inputs per party: not 2x2x2x2, and 2^48 strategy pairs.
WIDE_GAME = workloads._binary_game(np.random.default_rng(0), "wide-binary-24x24", 24, 24, 2, 2)
# Two binary 2x2x2x2 games with uniform pi, coded as sum V(a,b|x,y)
# 2^(8x+4y+2a+b): the least codes of two relabeling classes outside the
# catalog with a quantum advantage, omega_q = 1/2 + (sqrt 2 - 1)/8 and
# 3/4 + (sqrt 2 - 1)/8, found by the planar search; the correspondence
# fails on both steering sides.
CENSUS_CLASSES = (5166, 7614)
# Seed of the four generated games on which classical_value enumerates
# Bob's response functions (n_b**n_y < n_a**n_x) and sorts the pairs
# afterwards: one plain binary game, one on which every pair ties, one
# with three outputs for Alice, two for Bob, weights 0, 1 or 2 and a
# non-uniform pi in small integer ratios, on which many scores tie exactly
# or up to the rounding of their sums, and a wide one (16 inputs for Alice)
# on which all 2^18 pairs tie, so only the first 1,000 are listed, after a
# note line, on rows of 16 labels.
SWAP_GAMES_SEED = 0
# Seed of the two 2x2x2x2 games whose weights equal their flip of both
# outputs, which the planar search solves on the Bell operator's two parity
# blocks: weights of three decimals, not dyadic, and a non-uniform pi. Each
# input pair weighs equal outputs above unequal ones except one pair, as in
# CHSH, so the optimum is not a classical corner.
FLIP_GAMES_SEED = 0
# What the text report's "wall time: 0.01 s" line is written as.
WALL_TIME = "wall time: (elided) s"


def _integer_weighted_game(rng, name, n_x, n_y, n_a, n_b) -> dict:
    predicate = rng.integers(0, 3, size=(n_x, n_y, n_a, n_b)).astype(float)
    pi = rng.integers(1, 4, size=(n_x, n_y)).astype(float)
    return workloads._document(name, n_x, n_y, n_a, n_b, pi / pi.sum(), predicate, False)


def census_game(code: int) -> dict:
    predicate = ((code >> np.arange(16)) & 1).reshape(2, 2, 2, 2).astype(float)
    return workloads._document(f"census-{code}", 2, 2, 2, 2, np.full((2, 2), 0.25), predicate,
                               True)


def swap_games() -> list:
    rng = np.random.default_rng(SWAP_GAMES_SEED)
    plain, ties = "classical-swap-7x5", "classical-swap-ties-6x4"
    weighted = "classical-swap-weighted-5x4"
    wide = "classical-swap-wide-ties-16x2"
    return [
        workloads.Input(plain, "classical", game=workloads._binary_game(rng, plain, 7, 5, 2, 2)),
        workloads.Input(ties, "classical", game=workloads._tie_heavy_game(rng, ties, 6, 4)),
        workloads.Input(weighted, "classical",
                        game=_integer_weighted_game(rng, weighted, 5, 4, 3, 2)),
        workloads.Input(wide, "classical", game=workloads._tie_heavy_game(rng, wide, 16, 2)),
    ]


def flip_symmetric_games() -> list:
    rng = np.random.default_rng(FLIP_GAMES_SEED)
    games = []
    for k in range(2):
        name = f"planar-flip-symmetric-{k}"
        high = np.round(rng.uniform(0.8, 1.0, (2, 2)), 3)
        low = np.round(rng.uniform(0.0, 0.2, (2, 2)), 3)
        odd = (1, 1) if k == 0 else (0, 1)  # the pair that weighs unequal outputs higher
        high[odd], low[odd] = low[odd], high[odd]
        predicate = np.empty((2, 2, 2, 2))
        predicate[:, :, 0, 0] = predicate[:, :, 1, 1] = high
        predicate[:, :, 0, 1] = predicate[:, :, 1, 0] = low
        doc = workloads._document(name, 2, 2, 2, 2, workloads._planar_pi(rng), predicate, False)
        games.append(workloads.Input(name, "analyze", game=doc))
    return games


def commands(game_ids) -> list[tuple[str, list[str]]]:
    """(file name, argv) of every command, with the game files written."""
    planar = [i for i in workloads.generate("planar_sweep", 0) if i.game is not None]
    scaling = workloads.generate("classical_scaling", 0)
    swapped = swap_games()
    symmetric = flip_symmetric_games()
    workloads.write_inputs(planar + scaling + swapped + symmetric)
    games = [(g, g) for g in game_ids] + sorted((i.name, i.ref) for i in planar)
    out = []
    for name, ref in games:
        out += [
            (f"analyze-{name}", ["analyze", ref, "--format", "json"]),
            (f"analyze-text-{name}", ["analyze", ref, "--format", "text"]),
            (f"uncertainty-{name}-alice", ["uncertainty", ref, "--side", "alice"]),
            (f"uncertainty-{name}-bob", ["uncertainty", ref, "--side", "bob"]),
            (f"steer-{name}", ["steer", ref]),
            (f"quantum-{name}", ["quantum", ref]),
        ]
    for i in symmetric:
        out += [
            (f"analyze-{i.name}", ["analyze", i.ref, "--format", "json"]),
            (f"analyze-text-{i.name}", ["analyze", i.ref, "--format", "text"]),
            (f"quantum-{i.name}", ["quantum", i.ref]),
        ]
    out += [(f"classical-{i.name}", ["classical", i.ref]) for i in scaling + swapped]
    refused = next(i for i in scaling if i.name == "classical-4x4x3")
    out.append((f"analyze-{refused.name}", ["analyze", refused.ref, "--format", "json"]))
    out.append(("list-games", ["list-games"]))
    for name, (inputs, outputs) in EMPTY_SIZES.items():
        path = workloads.WORK / "games" / f"{name}.json"
        path.write_text(json.dumps({"id": name, "inputs": inputs, "outputs": outputs,
                                    "pi": [[0.25, 0.25], [0.25, 0.25]], "predicate": []}))
        out.append((f"analyze-{name}", ["analyze", str(path), "--format", "json"]))
    name = INTEGER_WEIGHTS["id"]
    path = workloads.WORK / "games" / f"{name}.json"
    path.write_text(json.dumps(INTEGER_WEIGHTS))
    out.append((f"classical-{name}", ["classical", str(path)]))
    out.append((f"analyze-{name}", ["analyze", str(path), "--format", "json"]))
    path = workloads.WORK / "games" / "repeated-key.json"
    path.write_text(REPEATED_KEY)
    out.append(("classical-repeated-key", ["classical", str(path)]))
    path = workloads.WORK / "games" / "capped-search.json"
    path.write_text(json.dumps(CAPPED_SEARCH))
    out += [
        ("analyze-capped-search", ["analyze", str(path), "--format", "json"]),
        ("analyze-text-capped-search", ["analyze", str(path), "--format", "text"]),
        ("quantum-capped-search", ["quantum", str(path)]),
    ]
    path = workloads.WORK / "games" / "wide-binary-24x24.json"
    path.write_text(json.dumps(WIDE_GAME))
    out.append(("analyze-wide-binary-24x24", ["analyze", str(path), "--format", "json"]))
    for code in CENSUS_CLASSES:
        path = workloads.WORK / "games" / f"census-{code}.json"
        path.write_text(json.dumps(census_game(code)))
        out.append((f"analyze-census-{code}", ["analyze", str(path), "--format", "json"]))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)  # game paths in the outputs are relative to the checkout root
    na = workloads.import_program()
    from nonlocal_audit import cli

    for name, args in commands(na.GAME_IDS):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        out = re.sub(r"^wall time: .* s$", WALL_TIME, stdout.getvalue(), flags=re.MULTILINE)
        (outdir / f"{name}.txt").write_text(
            f"argv: {' '.join(args)}\nexit: {code}\n"
            f"--- stdout\n{out}--- stderr\n{stderr.getvalue()}",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
