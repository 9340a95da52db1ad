"""Decentralized affine-transformation coordination for leader-follower teams.

Three leaders carry a planner-defined planar affine map; followers
reproduce it using only fixed local communication weights. The package
builds and validates the formation graph, plans strain-bounded
deformation schedules, simulates the tracking dynamics deterministically,
and certifies collision-free deformation with a principal-strain lower
bound.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    AffineSwarmError,
    ConfigError,
    ScenarioError,
    ScheduleError,
    SimulationError,
)
from .formation import (
    Agent,
    FormationMatrices,
    ReferenceConfig,
    SpectralReport,
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

# Every public name imported above, and only those: the submodules the
# imports bind stay out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
