"""The package's public names, and the functions the benchmark's layer tracer wraps.

The tracer in ``perfbench/layers.py`` skips a target that does not exist
without an error, so a rename or deletion would silently read 0 in its
per-layer metrics; these tests make it fail here instead.
"""

import ast
import importlib
from pathlib import Path

import nonlocal_audit as na

PUBLIC_NAMES = [
    "AnalysisOptions",
    "AnalysisRun",
    "Assemblage",
    "CorrespondenceReport",
    "DeterministicStrategy",
    "EigenSystem",
    "FineGrainedRelation",
    "GAME_IDS",
    "GameCatalogEntry",
    "GameSpec",
    "OptimalSolution",
    "PlanarAngles",
    "QuantumStrategy",
    "Side",
    "SteeringVerdict",
    "__version__",
    "bell_operator",
    "builtin_game",
    "catalog",
    "certain_state_assemblage",
    "cglmp_strategy",
    "classical_value",
    "closed_form_angles",
    "closed_form_optimum",
    "correlation_table",
    "correspondence_verdict",
    "eig_hermitian",
    "fine_grained_relations",
    "load_game",
    "ns_assemblage_check",
    "optimize_planar",
    "planar_measurement",
    "planar_measurements",
    "quantum_game_value",
    "refine_planar",
    "render_report",
    "run_analyze",
    "saturation_report",
    "save_game",
    "steer_assemblage",
    "validate_game",
]

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_public_names():
    assert sorted(na.__all__) == PUBLIC_NAMES
    for name in na.__all__:
        assert getattr(na, name) is not None, name


def _layer_targets() -> dict[str, tuple[str, ...]]:
    """The literal ``TARGETS`` table of the layer tracer, read without importing it."""
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {LAYERS}")


def test_layer_targets_exist():
    targets = _layer_targets()
    assert targets
    for module_name, names in targets.items():
        module = importlib.import_module(f"nonlocal_audit.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"

