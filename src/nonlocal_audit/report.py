"""End-to-end analysis runs and their text/JSON rendering.

The JSON document follows the schema in ``docs/report-schema.md``: every
real number is printed with 12 significant digits, key order is fixed, and
nothing volatile (wall time) enters the document, so identical inputs
produce byte-identical reports. Wall time is reported on the text rendering
only. ``canonical_json`` writes a document in one loop, with each value's
form looked up by its exact type.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import UnknownGameError
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
class AnalysisRun:
    """Everything one ``analyze`` invocation computed; the audit itself is ``report``."""

    game_ref: str
    source: str
    spec: GameSpec
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


def best_known_solution(spec: GameSpec) -> tuple[str, OptimalSolution]:
    """Pick the strategy source: closed form, fixed catalog strategy, or planar optimizer.

    Closed forms and the fixed qutrit strategy only apply to games whose
    tables match the catalog entry; a file-loaded variant that merely
    reuses a catalog id goes through the optimizer, which refuses games
    that are not 2x2x2x2 with ``NotPlanarApplicableError``.
    """
    if closed_form_available(spec):
        return "closed_form", closed_form_optimum(spec)
    if matches_catalog(spec, "cglmp"):
        strategy = cglmp_strategy()
        value = quantum_game_value(spec, strategy)
        return "fixed_catalog_strategy", OptimalSolution(
            strategy=strategy, value=value, angles=None, residual=None
        )
    return "planar_search", optimize_planar(spec)


def run_analyze(game_ref: str) -> AnalysisRun:
    """classical value -> optimal strategy -> relations -> steering -> verdict."""
    started = time.perf_counter()
    spec, source = resolve_game(game_ref)
    method, solution = best_known_solution(spec)
    report = correspondence_verdict(spec, solution.strategy)
    return AnalysisRun(
        game_ref=game_ref,
        source=source,
        spec=spec,
        method=method,
        solution=solution,
        report=report,
        version=__version__,
        wall_time_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Value conventions
# ---------------------------------------------------------------------------


def tagged_values(spec: GameSpec, normalized: float, uniform: bool) -> list[dict]:
    """A normalized game value plus its conventional rescalings.

    Uniform-input binary games (``uniform``, from ``spec.is_uniform()``)
    also quote ``times4`` (the raw Bell sum for 2x2 games); weighted-predicate
    games quote ``raw_sum``. Both equal the normalized value times the
    number of input pairs.
    """
    values = [{"convention": "normalized", "value": normalized}]
    if uniform:
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


# Each JSON form, in the order of precedence of the isinstance tests: the
# opening bracket of a container, or the function that writes a scalar.
_KINDS = (
    ((dict,), "{"),
    ((list, tuple), "["),
    ((bool, np.bool_, type(None)), lambda v: "null" if v is None else "true" if v else "false"),
    ((int, np.integer), lambda v: str(int(v))),
    ((float, np.floating), _fmt_real),
    ((str,), json.dumps),
)
# the form of each exact type that reports hold, found without the isinstance tests
_FORMS = {t: form for types, form in _KINDS for t in types}
_FORMS.update({int: str, np.int64: _FORMS[np.integer], np.float64: _fmt_real})
_CLOSERS = {"{": "}", "[": "]"}


def _form(value):
    for types, form in _KINDS:
        if isinstance(value, types):
            return form
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(obj) -> str:
    """Compact JSON, keys in insertion order and reals by ``_fmt_real``, in one loop.

    Each ``"key":`` text is encoded once; a value of any other type raises
    TypeError.
    """
    out = ["["]  # the document is the one item of a list whose brackets are dropped
    keys: dict = {}  # key -> its "key": text
    stack = [(iter((obj,)), False, "]")]  # open containers: children left, is a dict, closer
    while stack:
        children, is_dict, closer = stack[-1]
        for value in children:
            if is_dict:
                key, value = value
                # 1, 1.0 and True are one dict key but three texts: only str keys are looked up
                text = keys.get(key) if type(key) is str else None
                if text is None:
                    text = keys[key] = json.dumps(key) + ":"
                out.append(text)
            form = _FORMS.get(type(value)) or _form(value)
            if form not in _CLOSERS:
                out += (form(value), ",")
                continue
            out.append(form)
            stack.append((iter(value.items() if form == "{" else value), form == "{",
                          _CLOSERS[form]))
            break
        else:  # all children written: their trailing separator becomes the closer
            stack.pop()
            if out[-1] == ",":
                out[-1] = closer
            else:
                out.append(closer)
            out.append(",")
    return "".join(out[1:-2])


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
    uniform = spec.is_uniform()
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
        "classical": {
            "value": tagged_values(spec, report.omega_c, uniform),
            "maximizer_count": len(report.classical_maximizers),
            "maximizers": [
                {"f_a": list(s.f_a), "f_b": list(s.f_b)} for s in report.classical_maximizers
            ],
        },
        "quantum": {
            "method": run.method,
            "value": tagged_values(spec, solution.value, uniform),
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
            "omega_c": tagged_values(spec, report.omega_c, uniform),
            "omega_q": tagged_values(spec, report.omega_q, uniform),
            "up_bound": report.up_bound,
            "correspondence_holds": report.correspondence_holds,
        },
    }
    return doc


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
    uniform = run.spec.is_uniform()
    lines = [
        f"nonlocal-audit {run.version}: analysis of game {run.spec.id!r} ({run.source})",
        f"classical value  : {_values_line(tagged_values(run.spec, report.omega_c, uniform))}",
        f"quantum value    : {_values_line(tagged_values(run.spec, run.solution.value, uniform))}"
        f"  [method: {run.method}]",
    ]
    if run.solution.angles is not None:
        a = run.solution.angles
        lines.append(
            f"planar angles    : alpha = ({a.alpha[0]:.9g}, {a.alpha[1]:.9g})"
            f"  beta = ({a.beta[0]:.9g}, {a.beta[1]:.9g})"
        )
    if run.solution.upper_bound is not None:
        lines.append(f"certified bound  : {run.solution.upper_bound:.9g} (normalized)")
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
