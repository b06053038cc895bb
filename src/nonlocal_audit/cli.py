"""Command-line front end.

Exit codes: 0 success, 1 internal numeric failure or standard output closed
by its reader, 2 usage or input error: argparse's, a ``UsageError`` or an
``OSError``. The argument parser is built once per process and reused by
every call of ``main``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .classical import classical_value
from .errors import NonlocalAuditError, UsageError
from .games import catalog
from .quantum import best_known_solution
from .report import (
    fmt_fixed,
    render_report,
    resolve_game,
    run_analyze,
    steering_lines,
    tagged_values,
)


def _cmd_list_games(_args) -> int:
    entries = catalog()
    width = max(len(game_id) for game_id in entries)
    for game_id, entry in entries.items():
        print(f"{game_id:<{width}}  {entry.provenance}")
    return 0


class _Shown(dict):
    """Response function -> its text ``[0, 1, ...]``, formatted on first use."""

    def __missing__(self, f: tuple[int, ...]) -> str:
        text = self[f] = str(list(f))
        return text


def _cmd_classical(args) -> int:
    spec, _ = resolve_game(args.game)
    value, maximizers, count = classical_value(spec)
    print(f"game {spec.id!r}: omega_c = {value:.12g} (normalized)")
    for raw in tagged_values(spec, value)[1:]:  # uniform games only
        print(f"raw sum over input pairs: {raw['value']:.12g}")
    if count > len(maximizers):
        print(f"maximizers listed: the first {len(maximizers)} in lexicographic (f_a, f_b) order")
    print(f"{count} maximizing deterministic strategies:")
    # Maximizers share few distinct functions: each is formatted once, and
    # the lines are written as they are made, never joined into one string.
    shown = _Shown()
    sys.stdout.writelines(f"  f_a = {shown[a]}  f_b = {shown[b]}\n" for a, b in maximizers)
    return 0


def _cmd_quantum(args) -> int:
    spec, _ = resolve_game(args.game)
    solution = best_known_solution(spec)
    print(f"game {spec.id!r}: omega_q = {solution.value:.12g} (normalized) [{solution.method}]")
    for raw in tagged_values(spec, solution.value)[1:]:
        print(f"raw sum over input pairs: {raw['value']:.12g}")
    if solution.search is not None:
        print(f"certified upper bound: {solution.search.upper:.12g}")
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
        print(f"  |{k}> : {fmt_fixed(amp.real, '+.9f')} {fmt_fixed(amp.imag, '+.9f')}i")


def _cmd_uncertainty(args) -> int:
    run = run_analyze(args.game)
    steered = "bob" if args.side == "alice" else "alice"
    print(f"game {run.spec.id!r}, side {args.side}_steers_{steered}: "
          f"relations on {steered.title()}'s system")
    for rel in getattr(run.report, args.side).relations:
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
            amps = "  ".join(
                f"{fmt_fixed(v.real, '+.6f')}{fmt_fixed(v.imag, '+.6f')}i" for v in vec
            )
            print(f"    certain state {k}: {amps}")
    return 0


def _cmd_steer(args) -> int:
    run = run_analyze(args.game)
    print("\n".join(steering_lines(run.report)))
    return 0


def _cmd_analyze(args) -> int:
    run = run_analyze(args.game)
    text = render_report(run, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


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
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("uncertainty", help="fine-grained relations for one side")
    p.add_argument("game")
    p.add_argument("--side", choices=("alice", "bob"), required=True,
                   help="which party steers (relations live on the other system)")
    p.set_defaults(func=_cmd_uncertainty)

    p = sub.add_parser("steer", help="saturation verdicts and no-signaling check")
    p.add_argument("game")
    p.set_defaults(func=_cmd_steer)

    p = sub.add_parser("analyze", help="full report (classical, quantum, steering, verdict)")
    p.add_argument("game")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report to a file")
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
    except UsageError as exc:
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
