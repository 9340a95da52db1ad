"""The package's public names."""

import affineswarm

PUBLIC = {
    "AffineSwarmError", "Agent", "AtCoordinates", "ConfigError", "Corridor",
    "FormationMatrices", "JacobianDecomposition", "LeaderTrajectory", "Phase",
    "PhaseSchedule", "ReferenceConfig", "RunMetrics", "SafetyParams",
    "SafetyReport", "Scenario", "ScenarioError", "ScheduleError", "SimParams",
    "SimTrace", "SimulationError", "SpectralReport", "TranslationRamp",
    "assemble_jacobian", "corridor_clearance", "decompose_jacobian",
    "desired_positions", "leader_trajectory", "load_default_scenario",
    "load_scenario", "pairwise_min_distance", "parse_scenario", "quintic_blend",
    "run_simulation", "scenario_sha256", "strain_check", "transform_points",
    "validate_config", "validate_run", "verify_spectrum",
}


def test_all_is_the_pinned_set():
    names = affineswarm.__all__
    assert len(names) == len(set(names)) == 39
    assert set(names) == PUBLIC
    assert all(hasattr(affineswarm, name) for name in names)


def test_every_error_is_an_affineswarm_error():
    # The CLI reports any of them as a message and an exit code by
    # catching the base class.
    errors = [name for name in PUBLIC if name.endswith("Error")]
    assert len(errors) == 5
    for name in errors:
        assert issubclass(getattr(affineswarm, name), affineswarm.AffineSwarmError)
