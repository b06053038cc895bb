"""Two-party non-local games: values, uncertainty relations, steering, verdicts."""

__version__ = "0.1.0"

from .classical import DeterministicStrategy, classical_value
from .games import (
    GAME_IDS,
    GameCatalogEntry,
    GameSpec,
    builtin_game,
    catalog,
    load_game,
    save_game,
    validate_game,
)
from .hermitian import EigenSystem, eig_hermitian
from .quantum import (
    OptimalSolution,
    PlanarAngles,
    QuantumStrategy,
    bell_operator,
    cglmp_strategy,
    closed_form_angles,
    closed_form_optimum,
    correlation_table,
    optimize_planar,
    planar_measurement,
    planar_measurements,
    quantum_game_value,
    refine_planar,
)
from .report import AnalysisOptions, AnalysisRun, render_report, run_analyze
from .steering import (
    Assemblage,
    CorrespondenceReport,
    SteeringVerdict,
    certain_state_assemblage,
    correspondence_verdict,
    ns_assemblage_check,
    saturation_report,
    steer_assemblage,
)
from .uncertainty import FineGrainedRelation, Side, fine_grained_relations

__all__ = [
    "__version__",
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
