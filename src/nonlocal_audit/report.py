"""End-to-end analysis runs and their text/JSON rendering.

The JSON document follows the schema in ``docs/report-schema.md``: every
real number is printed with 12 significant digits, key order is fixed, and
nothing volatile (wall time) enters the document, so identical inputs and
options produce byte-identical reports. Wall time is reported on the text
rendering only.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NotPlanarApplicableError, UnknownGameError
from .games import GAME_IDS, GameSpec, builtin_game, load_game, matches_catalog
from .quantum import (
    OptimalSolution,
    cglmp_strategy,
    closed_form_available,
    closed_form_optimum,
    optimize_planar,
    quantum_game_value,
)
from .steering import CorrespondenceReport, SteeringVerdict, correspondence_verdict
from .uncertainty import FineGrainedRelation


@dataclass(frozen=True)
class AnalysisOptions:
    grid_points: int = 721
    closed_form: bool | None = None  # None = use a closed form when one exists


@dataclass(frozen=True)
class AnalysisRun:
    """Everything one ``analyze`` invocation computed; the audit itself is ``report``."""

    game_ref: str
    source: str
    spec: GameSpec
    options: AnalysisOptions
    method: str
    solution: OptimalSolution
    report: CorrespondenceReport
    version: str
    wall_time_seconds: float


def resolve_game(game_ref: str) -> tuple[GameSpec, str]:
    """Catalog id or path to a JSON game file -> (spec, source label)."""
    if game_ref in GAME_IDS:
        return builtin_game(game_ref), "catalog"
    path = Path(game_ref)
    if path.suffix == ".json" or path.exists():
        return load_game(path), f"file:{game_ref}"
    raise UnknownGameError(
        f"{game_ref!r} is neither a catalog id ({', '.join(GAME_IDS)}) nor a game file"
    )


def best_known_solution(spec: GameSpec, options: AnalysisOptions) -> tuple[str, OptimalSolution]:
    """Pick the strategy source: closed form, planar optimizer, or fixed catalog strategy.

    Closed forms and the fixed qutrit strategy only apply to games whose
    tables match the catalog entry; a file-loaded variant that merely
    reuses a catalog id goes through the optimizer. ``closed_form=True`` on
    a game without a closed form raises ``UnknownGameError``.
    """
    closed_available = closed_form_available(spec)
    if options.closed_form and not closed_available:
        raise UnknownGameError(
            f"--closed-form applies to the catalog games g1 and g2, not {spec.id!r}"
        )
    if closed_available and options.closed_form is not False:
        return "closed_form", closed_form_optimum(spec.id)
    if matches_catalog(spec, "cglmp"):
        strategy = cglmp_strategy()
        value = quantum_game_value(spec, strategy)
        return "fixed_catalog_strategy", OptimalSolution(
            strategy=strategy, value=value, angles=None, residual=None
        )
    if (spec.n_x, spec.n_y, spec.n_a, spec.n_b) == (2, 2, 2, 2):
        return "planar_grid", optimize_planar(spec, grid_points=options.grid_points)
    raise NotPlanarApplicableError(
        f"no optimization route for game {spec.id!r}: not 2x2 inputs/outputs "
        "and no fixed catalog strategy"
    )


def run_analyze(game_ref: str, options: AnalysisOptions | None = None) -> AnalysisRun:
    """classical value -> optimal strategy -> relations -> steering -> verdict."""
    options = options or AnalysisOptions()
    started = time.perf_counter()
    spec, source = resolve_game(game_ref)
    method, solution = best_known_solution(spec, options)
    report = correspondence_verdict(spec, solution.strategy)
    return AnalysisRun(
        game_ref=game_ref,
        source=source,
        spec=spec,
        options=options,
        method=method,
        solution=solution,
        report=report,
        version=__version__,
        wall_time_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Value conventions
# ---------------------------------------------------------------------------


def tagged_values(spec: GameSpec, normalized: float) -> list[dict]:
    """A normalized game value plus its conventional rescalings.

    Uniform-input binary games also quote ``times4`` (the raw Bell sum for
    2x2 games); weighted-predicate games quote ``raw_sum``. Both equal the
    normalized value times the number of input pairs.
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


def _fmt_real(v: float) -> str:
    # 12 significant digits; repr-parse keeps the document a fixed point of
    # render(parse(render(...))). Adding 0.0 turns -0.0 into 0.0: "-0" would
    # re-parse as the integer 0 and re-serialize as "0".
    return format(float(v) + 0.0, ".12g")


def _write_json(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _write_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        out.append(json.dumps(bool(obj) if obj is not None else None))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_real(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


def _state_doc(state: np.ndarray) -> dict:
    return {
        "re": [float(v) for v in np.real(state)],
        "im": [float(v) for v in np.imag(state)],
    }


def _relation_doc(rel: FineGrainedRelation) -> dict:
    basis = rel.certain_space
    return {
        "pair": [int(rel.pair[0]), int(rel.pair[1])],
        "xi": float(rel.xi),
        "weight_mass": float(rel.weight_mass),
        "xi_normalized": float(rel.xi_normalized),
        "trivial": rel.trivial,
        "degenerate": bool(rel.degenerate),
        "certain_space": [_state_doc(basis[:, k]) for k in range(basis.shape[1])],
    }


def _verdict_doc(v: SteeringVerdict) -> dict:
    return {
        "pair": [int(v.pair[0]), int(v.pair[1])],
        "probability": float(v.probability),
        "xi": float(v.xi),
        "achieved": float(v.achieved),
        "gap": float(v.gap),
        "saturated": bool(v.saturated),
        "vacuous": bool(v.vacuous),
        "trivial_relation": v.trivial_relation,
    }


def run_document(run: AnalysisRun) -> dict:
    """The JSON-ready document for an analysis run (schema in docs/)."""
    spec = run.spec
    solution = run.solution
    angles = solution.angles
    report = run.report
    doc = {
        "tool": {"name": "nonlocal-audit", "version": run.version},
        "game": {
            "ref": run.game_ref,
            "id": spec.id,
            "source": run.source,
            "inputs": [spec.n_x, spec.n_y],
            "outputs": [spec.n_a, spec.n_b],
            "binary_predicate": spec.binary_predicate,
        },
        "options": asdict(run.options),
        "classical": {
            "value": tagged_values(spec, report.omega_c),
            "maximizer_count": len(report.classical_maximizers),
            "maximizers": [
                {"f_a": list(s.f_a), "f_b": list(s.f_b)} for s in report.classical_maximizers
            ],
        },
        "quantum": {
            "method": run.method,
            "value": tagged_values(spec, solution.value),
            "omega_q_upper": solution.upper_bound,
            "angles": None
            if angles is None
            else {"alpha": list(angles.alpha), "beta": list(angles.beta)},
            "residual": solution.residual,
            "state": _state_doc(solution.strategy.state),
        },
        "uncertainty": {
            "alice_steers_bob": [_relation_doc(r) for r in report.relations_alice],
            "bob_steers_alice": [_relation_doc(r) for r in report.relations_bob],
        },
        "steering": {
            "alice_steers_bob": [_verdict_doc(v) for v in report.verdicts_alice],
            "bob_steers_alice": [_verdict_doc(v) for v in report.verdicts_bob],
        },
        "no_signaling_certain_states": {
            "deviation": report.ns_deviation,
            "passes": report.ns_passes,
        },
        "verdict": {
            "omega_c": tagged_values(spec, report.omega_c),
            "omega_q": tagged_values(spec, report.omega_q),
            "up_bound": report.up_bound,
            "correspondence_holds": report.correspondence_holds,
        },
    }
    return doc


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _fmt6(v: float) -> str:
    # A value that rounds to zero prints unsigned: a gap of -1e-12 is "0.000000".
    text = f"{v:.6f}"
    return text[1:] if text == "-0.000000" else text


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
            f"  ({v.pair[0]},{v.pair[1]})   {_fmt6(v.probability)}    {_fmt6(v.xi)}    "
            f"{_fmt6(v.achieved)}    {_fmt6(v.gap)}    {status}"
        )
    return lines


def steering_lines(report: CorrespondenceReport) -> list[str]:
    """Both verdict tables, the no-signaling line and the verdict."""
    return [
        *_verdict_table("Alice steers Bob:", report.verdicts_alice),
        "",
        *_verdict_table("Bob steers Alice:", report.verdicts_bob),
        "",
        "certain-state assemblage no-signaling deviation: "
        f"{report.ns_deviation:.6f} ({'passes' if report.ns_passes else 'fails'})",
        f"correspondence_holds: {report.correspondence_holds}",
    ]


def render_text(run: AnalysisRun) -> str:
    report = run.report
    lines = [
        f"nonlocal-audit {run.version}: analysis of game {run.spec.id!r} ({run.source})",
        f"classical value  : {_values_line(tagged_values(run.spec, report.omega_c))}",
        f"quantum value    : {_values_line(tagged_values(run.spec, run.solution.value))}"
        f"  [method: {run.method}]",
    ]
    if run.solution.angles is not None:
        a = run.solution.angles
        lines.append(
            f"planar angles    : alpha = ({a.alpha[0]:.9g}, {a.alpha[1]:.9g})"
            f"  beta = ({a.beta[0]:.9g}, {a.beta[1]:.9g})"
        )
    if run.solution.upper_bound is not None:
        lines.append(f"certified bound  : {run.solution.upper_bound:.9g} (normalized, planar family)")
    if run.solution.residual is not None:
        lines.append(f"charpoly residual: {run.solution.residual:.3e}")
    lines.append(f"uncertainty bound: {report.up_bound:.9g} (normalized)")
    lines.append("")
    lines.extend(steering_lines(report))
    lines.append(f"wall time: {run.wall_time_seconds:.2f} s")
    return "\n".join(lines) + "\n"


def render_report(run: AnalysisRun, fmt: str = "text") -> str:
    """Render an analysis run. ``fmt`` is 'text' or 'json'."""
    if fmt == "json":
        return canonical_json(run_document(run)) + "\n"
    if fmt == "text":
        return render_text(run)
    raise ValueError(f"unknown report format {fmt!r}")
