"""Write the command-line outputs that a refactor must keep byte-identical.

Runs every command in-process through ``nonlocal_audit.cli.main`` and
writes one file per command into OUTDIR, holding its argv, exit code,
stdout and stderr. The rule: seven views on each catalog id and on each
game file of ``documents()``, then ``list-games`` once. The views, and the
file each writes, are ``analyze --format json`` (``analyze-NAME``),
``analyze --format text`` (``analyze-text-NAME``), ``uncertainty --side
alice`` and ``--side bob`` (``uncertainty-NAME-alice``, ``-bob``),
``steer`` (``steer-NAME``), ``quantum`` (``quantum-NAME``) and
``classical`` (``classical-NAME``). A refusal (exit 2) is written like any
other output; the text report's ``wall time`` line is written as
``WALL_TIME``, since its seconds differ from run to run. With the 4
catalog ids and 32 game files that makes 253 files. The tool stops before
writing anything if two commands would write the same file.

The game files, written as ``.perfbench_work/games/NAME.json`` in the
checkout root: the benchmark's own inputs,
``perfbench/workloads.generate(workload, 0)`` for ``planar_sweep`` and
``classical_scaling``; the ``swap_games``, drawn with the benchmark's
generators from seed ``SWAP_GAMES_SEED``; the ``flip_symmetric_games``,
drawn from seed ``FLIP_GAMES_SEED``; and the ``EMPTY_SIZES``,
``INTEGER_WEIGHTS``, ``REPEATED_KEY``, ``CAPPED_SEARCH``, ``WIDE_GAME``,
``CENSUS_CLASSES`` and ``polish_start_games`` documents, each described
where it is defined. The program is the one in the checkout's ``src/``.

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
from collections import Counter
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


def polish_start_games() -> list[dict]:
    """Three 2x2x2x2 games with uniform pi on which the planar polish starts where
    lambda_max does not curve: ``all-win``, where every answer wins, so B = I, K = 0
    and the gradient is 0; ``widening``, whose lambda_max is 3/4 all along beta1 = 0;
    and ``ridge``, in which Bob's input and output never matter, so lambda_max is
    constant along beta1. The last two are the tests' ``widening_game`` and
    ``ridge_game``."""
    widening = np.zeros((2, 2, 2, 2))
    for entry in ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 1),
                  (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 1)):
        widening[entry] = 1.0
    ridge = np.zeros((2, 2, 2, 2))
    ridge[0, :, 0, :] = 1.0
    ridge[:, :, 1, :] = 0.5
    pi = np.full((2, 2), 0.25)
    return [workloads._document(name, 2, 2, 2, 2, pi, predicate, binary)
            for name, predicate, binary in (("all-win", np.ones((2, 2, 2, 2)), True),
                                            ("widening", widening, True),
                                            ("ridge", ridge, False))]


def swap_games() -> list[dict]:
    rng = np.random.default_rng(SWAP_GAMES_SEED)
    return [
        workloads._binary_game(rng, "classical-swap-7x5", 7, 5, 2, 2),
        workloads._tie_heavy_game(rng, "classical-swap-ties-6x4", 6, 4),
        _integer_weighted_game(rng, "classical-swap-weighted-5x4", 5, 4, 3, 2),
        workloads._tie_heavy_game(rng, "classical-swap-wide-ties-16x2", 16, 2),
    ]


def flip_symmetric_games() -> list[dict]:
    rng = np.random.default_rng(FLIP_GAMES_SEED)
    games = []
    for k in range(2):
        high = np.round(rng.uniform(0.8, 1.0, (2, 2)), 3)
        low = np.round(rng.uniform(0.0, 0.2, (2, 2)), 3)
        odd = (1, 1) if k == 0 else (0, 1)  # the pair that weighs unequal outputs higher
        high[odd], low[odd] = low[odd], high[odd]
        predicate = np.empty((2, 2, 2, 2))
        predicate[:, :, 0, 0] = predicate[:, :, 1, 1] = high
        predicate[:, :, 0, 1] = predicate[:, :, 1, 0] = low
        games.append(workloads._document(f"planar-flip-symmetric-{k}", 2, 2, 2, 2,
                                         workloads._planar_pi(rng), predicate, False))
    return games


def documents() -> list[tuple[str, dict | str]]:
    """(name, document or its text) of every game file."""
    docs = [i.game for workload in ("planar_sweep", "classical_scaling")
            for i in workloads.generate(workload, 0) if i.game is not None]
    docs += swap_games() + flip_symmetric_games()
    docs += [{"id": name, "inputs": inputs, "outputs": outputs,
              "pi": [[0.25, 0.25], [0.25, 0.25]], "predicate": []}
             for name, (inputs, outputs) in EMPTY_SIZES.items()]
    docs += [INTEGER_WEIGHTS, CAPPED_SEARCH, WIDE_GAME, *map(census_game, CENSUS_CLASSES),
             *polish_start_games()]
    return [(doc["id"], doc) for doc in docs] + [("repeated-key", REPEATED_KEY)]


def game_path(name: str) -> Path:
    return workloads.WORK / "games" / f"{name}.json"


def commands(game_ids, names) -> list[tuple[str, list[str]]]:
    """(file name, argv) of every command: the seven views of each catalog id
    and of each named game file, then ``list-games``."""
    out = []
    for name, ref in [(g, g) for g in game_ids] + [(n, str(game_path(n))) for n in names]:
        out += [
            (f"analyze-{name}", ["analyze", ref, "--format", "json"]),
            (f"analyze-text-{name}", ["analyze", ref, "--format", "text"]),
            (f"uncertainty-{name}-alice", ["uncertainty", ref, "--side", "alice"]),
            (f"uncertainty-{name}-bob", ["uncertainty", ref, "--side", "bob"]),
            (f"steer-{name}", ["steer", ref]),
            (f"quantum-{name}", ["quantum", ref]),
            (f"classical-{name}", ["classical", ref]),
        ]
    return out + [("list-games", ["list-games"])]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    os.chdir(ROOT)  # game paths in the outputs are relative to the checkout root
    na = workloads.import_program()
    from nonlocal_audit import cli

    docs = documents()
    todo = commands(na.GAME_IDS, [name for name, _ in docs])
    clashes = sorted(name for name, n in Counter(name for name, _ in todo).items() if n > 1)
    if clashes:
        print(f"more than one command would write {', '.join(clashes)}", file=sys.stderr)
        return 2
    (workloads.WORK / "games").mkdir(parents=True, exist_ok=True)
    for name, doc in docs:
        game_path(name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    outdir.mkdir(parents=True, exist_ok=True)
    for name, args in todo:
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
