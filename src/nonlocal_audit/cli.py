"""Command-line front end.

Exit codes: 0 success, 1 internal numeric failure or standard output closed
by its reader, 2 usage or input error. ``--grid`` sets the first partition
of the planar branch and bound, (grid - 1) // 16 cells per axis of the
quarter [0, pi]^2. The argument parser is built once per process and reused
by every call of ``main``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .classical import classical_value
from .errors import (
    NonlocalAuditError,
    NotPlanarApplicableError,
    ParseError,
    TooLargeError,
    UnknownGameError,
    ValidationError,
)
from .games import catalog
from .quantum import GRID_MAX, GRID_MIN
from .report import (
    AnalysisOptions,
    best_known_solution,
    render_report,
    resolve_game,
    run_analyze,
    steering_lines,
)

USAGE_ERRORS = (
    UnknownGameError,
    ParseError,
    ValidationError,
    TooLargeError,
    NotPlanarApplicableError,
)


def _cmd_list_games(_args) -> int:
    entries = catalog()
    width = max(len(game_id) for game_id in entries)
    for game_id, entry in entries.items():
        print(f"{game_id:<{width}}  {entry.provenance}")
    return 0


def _cmd_classical(args) -> int:
    spec, _ = resolve_game(args.game)
    value, maximizers = classical_value(spec)
    print(f"game {spec.id!r}: omega_c = {value:.12g} (normalized)")
    if spec.is_uniform():
        print(f"raw sum over input pairs: {value * spec.n_x * spec.n_y:.12g}")
    print(f"{len(maximizers)} maximizing deterministic strategies:")
    for s in maximizers:
        print(f"  f_a = {list(s.f_a)}  f_b = {list(s.f_b)}")
    return 0


def _cmd_quantum(args) -> int:
    spec, _ = resolve_game(args.game)
    method, solution = best_known_solution(
        spec, AnalysisOptions(grid_points=args.grid, closed_form=args.closed_form)
    )
    print(f"game {spec.id!r}: omega_q = {solution.value:.12g} (normalized) [{method}]")
    if spec.is_uniform():
        print(f"raw sum over input pairs: {solution.value * spec.n_x * spec.n_y:.12g}")
    if solution.upper_bound is not None:
        print(f"certified upper bound over the planar family: {solution.upper_bound:.12g}")
    if solution.angles is not None:
        print(f"alpha = {[f'{t:.9g}' for t in solution.angles.alpha]}")
        print(f"beta  = {[f'{t:.9g}' for t in solution.angles.beta]}")
    if solution.residual is not None:
        print(f"characteristic-polynomial residual: {solution.residual:.3e}")
    _print_state(solution.strategy.state)
    return 0


def _print_state(state) -> None:
    print("state amplitudes:")
    for k, amp in enumerate(state):
        print(f"  |{k}> : {amp.real:+.9f} {amp.imag:+.9f}i")


def _cmd_uncertainty(args) -> int:
    report = run_analyze(args.game, AnalysisOptions(grid_points=args.grid)).report
    if args.side == "alice":
        relations, steering, steered = report.relations_alice, "alice_steers_bob", "Bob"
    else:
        relations, steering, steered = report.relations_bob, "bob_steers_alice", "Alice"
    print(f"game {report.game_id!r}, side {steering}: relations on {steered}'s system")
    for rel in relations:
        x, a = rel.pair
        weights = [
            f"{w:.6g}*P({b}|{y})"
            for y, row in enumerate(rel.weights)
            for b, w in enumerate(row)
            if w != 0.0
        ]
        flag = " [trivial]" if rel.trivial else ""
        print(f"  pair ({x},{a}): sum = {' + '.join(weights) if weights else '0'}")
        print(
            f"    xi = {rel.xi:.12g} (canonical)  "
            f"{rel.xi_normalized:.12g} (per unit input mass {rel.weight_mass:.6g}){flag}"
        )
        for k in range(rel.certain_space.shape[1]):
            vec = rel.certain_space[:, k]
            amps = "  ".join(f"{v.real:+.6f}{v.imag:+.6f}i" for v in vec)
            print(f"    certain state {k}: {amps}")
    return 0


def _cmd_steer(args) -> int:
    run = run_analyze(args.game, AnalysisOptions(grid_points=args.grid))
    print("\n".join(steering_lines(run.report)))
    return 0


def _cmd_analyze(args) -> int:
    options = AnalysisOptions(grid_points=args.grid, closed_form=args.closed_form)
    run = run_analyze(args.game, options)
    text = render_report(run, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _grid_points(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not GRID_MIN <= n <= GRID_MAX:
        raise argparse.ArgumentTypeError(f"must lie in [{GRID_MIN}, {GRID_MAX}], got {n}")
    return n


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=_grid_points, default=721,
                   help=f"grid points per angle axis, {GRID_MIN} to {GRID_MAX} (default 721); "
                   "the planar search starts from (GRID - 1) // 16 cells per quarter axis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocal-audit",
        description=(
            "Classical and quantum values of two-party non-local games, the "
            "fine-grained uncertainty relations they induce, steered "
            "assemblages, and the correspondence verdict between them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-games", help="print catalog ids and provenance").set_defaults(
        func=_cmd_list_games
    )

    p = sub.add_parser("classical", help="exact classical value and maximizers by best response")
    p.add_argument("game", help="catalog id or JSON game file")
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("quantum", help="quantum value (certified planar search or closed form)")
    p.add_argument("game")
    _add_grid(p)
    p.add_argument("--closed-form", action="store_true", help="use the exact closed form")
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("uncertainty", help="fine-grained relations for one side")
    p.add_argument("game")
    p.add_argument("--side", choices=("alice", "bob"), required=True,
                   help="which party steers (relations live on the other system)")
    _add_grid(p)
    p.set_defaults(func=_cmd_uncertainty)

    p = sub.add_parser("steer", help="saturation verdicts and no-signaling check")
    p.add_argument("game")
    _add_grid(p)
    p.set_defaults(func=_cmd_steer)

    p = sub.add_parser("analyze", help="full report (classical, quantum, steering, verdict)")
    p.add_argument("game")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report to a file")
    _add_grid(p)
    p.add_argument("--closed-form", action=argparse.BooleanOptionalAction, default=None,
                   help="force the closed form on or off (default: auto)")
    p.set_defaults(func=_cmd_analyze)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonlocalAuditError as exc:
        print(f"internal numeric failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does): not a usage error. Send
        # the rest, and the flush at interpreter exit, to the null device.
        sys.stdout = open(os.devnull, "w")
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
