"""Decentralized affine-transformation coordination for leader-follower teams.

Three leaders carry a planner-defined planar affine map; followers
reproduce it using only fixed local communication weights. The package
builds and validates the formation graph, plans strain-bounded
deformation schedules, simulates the tracking dynamics deterministically,
and certifies collision-free deformation with a principal-strain lower
bound.
"""

__version__ = "0.1.0"

from .errors import (
    AffineSwarmError,
    ConfigError,
    SafetyError,
    ScenarioError,
    ScheduleError,
    SimulationError,
)
from .formation import (
    Agent,
    FormationMatrices,
    ReferenceConfig,
    SpectralReport,
    ValidationReport,
    validate_config,
    verify_spectrum,
)
from .metrics import (
    RunMetrics,
    corridor_clearance,
    pairwise_min_distance,
    strain_check,
    validate_run,
)
from .phases import (
    LeaderTrajectory,
    Phase,
    PhaseSchedule,
    SafetyReport,
    TranslationRamp,
    check_schedule_safety,
    desired_positions,
    leader_trajectory,
    quintic_blend,
)
from .scenario import (
    Corridor,
    SafetyParams,
    Scenario,
    SimParams,
    load_default_scenario,
    load_scenario,
    parse_scenario,
    scenario_sha256,
)
from .simulation import (
    SimTrace,
    run_simulation,
)
from .transform import (
    AtCoordinates,
    JacobianDecomposition,
    assemble_jacobian,
    decompose_jacobian,
    min_scaling_bound,
    transform_points,
)

__all__ = [
    "Agent",
    "AffineSwarmError",
    "AtCoordinates",
    "ConfigError",
    "Corridor",
    "FormationMatrices",
    "JacobianDecomposition",
    "LeaderTrajectory",
    "Phase",
    "PhaseSchedule",
    "ReferenceConfig",
    "RunMetrics",
    "SafetyError",
    "SafetyParams",
    "SafetyReport",
    "Scenario",
    "ScenarioError",
    "ScheduleError",
    "SimParams",
    "SimTrace",
    "SimulationError",
    "SpectralReport",
    "TranslationRamp",
    "ValidationReport",
    "assemble_jacobian",
    "check_schedule_safety",
    "corridor_clearance",
    "decompose_jacobian",
    "desired_positions",
    "leader_trajectory",
    "load_default_scenario",
    "load_scenario",
    "min_scaling_bound",
    "pairwise_min_distance",
    "parse_scenario",
    "quintic_blend",
    "run_simulation",
    "scenario_sha256",
    "strain_check",
    "transform_points",
    "validate_config",
    "validate_run",
    "verify_spectrum",
]
