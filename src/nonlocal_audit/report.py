"""End-to-end analysis runs and their text/JSON rendering.

The JSON document follows the schema in ``docs/report-schema.md``: key
order is fixed, and nothing volatile (wall time) enters the document, so
identical inputs produce byte-identical reports. Wall time is reported on
the text rendering only. ``run_document`` rounds every real to 12
significant digits (``_real``) where it builds the field, and
``json.dumps`` writes the document compactly; the text rendering prints
the unrounded values.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classical import DeterministicStrategy, classical_value
from .errors import UnknownGameError
from .games import GAME_IDS, GameSpec, builtin_game, load_game
from .quantum import OptimalSolution, best_known_solution
from .steering import CorrespondenceReport, SteeringVerdict, correspondence_verdict
from .uncertainty import FineGrainedRelation


@dataclass(frozen=True)
class AnalysisRun:
    """One record per ``analyze`` stage; ``classical`` is ``classical_value``'s triple."""

    game_ref: str
    source: str
    spec: GameSpec
    solution: OptimalSolution
    classical: tuple[float, list[DeterministicStrategy], int]
    report: CorrespondenceReport
    wall_time_seconds: float


def resolve_game(game_ref: str) -> tuple[GameSpec, str]:
    """Catalog id or path to a JSON game file -> (spec, source label)."""
    if game_ref in GAME_IDS:
        return builtin_game(game_ref), "catalog"
    path = Path(game_ref)
    # Path("") is the current directory, which exists but is no game file
    if game_ref and (path.suffix == ".json" or path.exists()):
        return load_game(path), f"file:{game_ref}"
    raise UnknownGameError(
        f"{game_ref!r} is neither a catalog id ({', '.join(GAME_IDS)}) nor a game file"
    )


def run_analyze(game_ref: str) -> AnalysisRun:
    """optimal strategy -> classical value -> relations -> steering -> verdict.

    A game no quantum route covers is refused before its strategies are enumerated.
    """
    started = time.perf_counter()
    spec, source = resolve_game(game_ref)
    solution = best_known_solution(spec)
    classical = classical_value(spec)
    report = correspondence_verdict(spec, solution.strategy)
    return AnalysisRun(
        game_ref=game_ref,
        source=source,
        spec=spec,
        solution=solution,
        classical=classical,
        report=report,
        wall_time_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Value conventions
# ---------------------------------------------------------------------------


def tagged_values(spec: GameSpec, normalized: float) -> list[dict]:
    """A normalized game value plus its conventional rescalings.

    Uniform-input games (``spec.is_uniform()``) also quote it times the number
    of input pairs: ``times4``, the raw Bell sum, on binary 2x2-input games,
    else ``raw_sum``.
    """
    values = [{"convention": "normalized", "value": normalized}]
    if spec.is_uniform():
        scale = float(spec.n_x * spec.n_y)
        tag = "times4" if (spec.binary_predicate and scale == 4.0) else "raw_sum"
        values.append({"convention": tag, "value": normalized * scale})
    return values


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------


def _real(v) -> float | int:
    """A real rounded to 12 significant digits, as ``json.dumps`` should print it.

    The nearest double to a decimal of at most 12 digits has that decimal as
    its shortest repr, which is what the encoder prints. Whole values below
    1e12 become ints, so 2.0 prints "2" and -0.0 prints "0".
    """
    r = float(format(float(v), ".12g"))
    return int(r) if r.is_integer() and abs(r) < 1e12 else r


def _state_doc(state: np.ndarray) -> dict:
    return {
        "re": [_real(v) for v in np.real(state)],
        "im": [_real(v) for v in np.imag(state)],
    }


def _relation_doc(rel: FineGrainedRelation) -> dict:
    basis = rel.certain_space
    return {
        "pair": [int(rel.pair[0]), int(rel.pair[1])],
        "xi": _real(rel.xi),
        "weight_mass": _real(rel.weight_mass),
        "xi_normalized": _real(rel.xi_normalized),
        "trivial": rel.trivial,
        "degenerate": bool(rel.degenerate),
        "certain_space": [_state_doc(basis[:, k]) for k in range(basis.shape[1])],
    }


def _verdict_doc(v: SteeringVerdict) -> dict:
    return {
        "pair": [int(v.pair[0]), int(v.pair[1])],
        "probability": _real(v.probability),
        "xi": _real(v.xi),
        "achieved": _real(v.achieved),
        "gap": _real(v.gap),
        "saturated": bool(v.saturated),
        "vacuous": bool(v.vacuous),
        "trivial_relation": v.trivial_relation,
    }


def run_document(run: AnalysisRun) -> dict:
    """The JSON-ready document for an analysis run (schema in docs/), every real
    rounded by ``_real``."""
    spec = run.spec
    solution = run.solution
    angles = solution.angles
    search = solution.search
    residual = solution.residual
    omega_c, maximizers, maximizer_count = run.classical
    report = run.report
    sides = (("alice_steers_bob", report.alice), ("bob_steers_alice", report.bob))

    def tagged(normalized: float) -> list[dict]:
        return [{**t, "value": _real(t["value"])} for t in tagged_values(spec, normalized)]

    return {
        "tool": {"name": "nonlocal-audit", "version": __version__},
        "game": {
            "ref": run.game_ref,
            "id": spec.id,
            "source": run.source,
            "inputs": [spec.n_x, spec.n_y],
            "outputs": [spec.n_a, spec.n_b],
            "binary_predicate": spec.binary_predicate,
        },
        "classical": {
            "value": tagged(omega_c),
            "maximizer_count": maximizer_count,
            "maximizers": [{"f_a": list(s.f_a), "f_b": list(s.f_b)} for s in maximizers],
        },
        "quantum": {
            "method": solution.method,
            "value": tagged(solution.value),
            "omega_q_upper": None if search is None else _real(search.upper),
            "angles": None
            if angles is None
            else {"alpha": [_real(a) for a in angles.alpha],
                  "beta": [_real(b) for b in angles.beta]},
            "residual": None if residual is None else _real(residual),
            "state": _state_doc(solution.strategy.state),
        },
        "uncertainty": {key: [_relation_doc(r) for r in side.relations] for key, side in sides},
        "steering": {key: [_verdict_doc(v) for v in side.verdicts] for key, side in sides},
        "no_signaling_certain_states": {
            "deviation": _real(report.alice.ns_deviation),
            "passes": report.alice.ns_passes,
        },
        "verdict": {
            "omega_c": tagged(omega_c),
            "omega_q": tagged(report.omega_q),
            "up_bound": _real(report.alice.up_bound),
            "correspondence_holds": report.correspondence_holds,
        },
    }


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def fmt_fixed(v: float, spec: str = ".6f") -> str:
    """``format(v, spec)``, except that a value that rounds to zero prints as 0.0 does.

    Rounding noise carries no sign: a gap of -1e-12 prints "0.000000", and an
    amplitude of -1e-17 under "+.9f" prints "+0.000000000".
    """
    text = format(v, spec)
    return format(0.0, spec) if float(text) == 0.0 else text


def _values_line(values: list[dict]) -> str:
    return "  ".join(f"{v['value']:.9g} ({v['convention']})" for v in values)


def _verdict_table(title: str, verdicts: list[SteeringVerdict]) -> list[str]:
    lines = [title, "  pair    p(out|in)   xi          achieved    gap         verdict"]
    for v in verdicts:
        if v.vacuous:
            status = "vacuous"
        elif v.saturated:
            status = "saturated"
        else:
            status = "not saturated"
        if v.trivial_relation:
            status += " [trivial]"
        lines.append(
            f"  ({v.pair[0]},{v.pair[1]})   {fmt_fixed(v.probability)}    {fmt_fixed(v.xi)}    "
            f"{fmt_fixed(v.achieved)}    {fmt_fixed(v.gap)}    {status}"
        )
    return lines


def steering_lines(report: CorrespondenceReport) -> list[str]:
    """Both verdict tables, the no-signaling line and the verdict."""
    return [
        *_verdict_table("Alice steers Bob:", report.alice.verdicts),
        "",
        *_verdict_table("Bob steers Alice:", report.bob.verdicts),
        "",
        "certain-state assemblage no-signaling deviation: "
        f"{report.alice.ns_deviation:.6f} ({'passes' if report.alice.ns_passes else 'fails'})",
        f"correspondence_holds: {report.correspondence_holds}",
    ]


def render_text(run: AnalysisRun) -> str:
    report = run.report
    lines = [
        f"nonlocal-audit {__version__}: analysis of game {run.spec.id!r} ({run.source})",
        f"classical value  : {_values_line(tagged_values(run.spec, run.classical[0]))}",
        f"quantum value    : {_values_line(tagged_values(run.spec, run.solution.value))}"
        f"  [method: {run.solution.method}]",
    ]
    if run.solution.angles is not None:
        a = run.solution.angles
        lines.append(
            f"planar angles    : alpha = ({a.alpha[0]:.9g}, {a.alpha[1]:.9g})"
            f"  beta = ({a.beta[0]:.9g}, {a.beta[1]:.9g})"
        )
    if run.solution.search is not None:
        lines.append(f"certified bound  : {run.solution.search.upper:.9g} (normalized)")
    if run.solution.residual is not None:
        lines.append(f"charpoly residual: {run.solution.residual:.3e}")
    lines.append(f"uncertainty bound: {report.alice.up_bound:.9g} (normalized)")
    lines.append("")
    lines.extend(steering_lines(report))
    lines.append(f"wall time: {run.wall_time_seconds:.2f} s")
    return "\n".join(lines) + "\n"


def render_report(run: AnalysisRun, fmt: str = "text") -> str:
    """Render an analysis run. ``fmt`` is 'text' or 'json'."""
    if fmt == "json":
        return json.dumps(run_document(run), separators=(",", ":")) + "\n"
    if fmt == "text":
        return render_text(run)
    raise ValueError(f"unknown report format {fmt!r}")
