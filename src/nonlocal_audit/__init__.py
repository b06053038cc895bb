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
    swap_parties,
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
    swap_strategy,
)
from .report import AnalysisRun, render_report, run_analyze
from .steering import (
    Assemblage,
    CorrespondenceReport,
    SteeringVerdict,
    certain_state_assemblage,
    correspondence_verdict,
    steer_assemblage,
)
from .uncertainty import FineGrainedRelation, fine_grained_relations

__all__ = [
    "__version__",
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
    "optimize_planar",
    "planar_measurement",
    "planar_measurements",
    "quantum_game_value",
    "refine_planar",
    "render_report",
    "run_analyze",
    "save_game",
    "steer_assemblage",
    "swap_parties",
    "swap_strategy",
    "validate_game",
]
