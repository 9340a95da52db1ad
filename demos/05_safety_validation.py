"""The safety-validation chain, end to end.

A deformation is collision-free when every commanded principal strain
stays at or above 2 (delta + radius) / d_min. This demo measures delta
from an actual run, derives the bound, and shows a schedule on each side
of it: the bundled one (passes) and an aggressive contraction (fails,
with the violating interval reported).
"""

from affineswarm import (
    AtCoordinates,
    FormationMatrices,
    Phase,
    PhaseSchedule,
    check_schedule_safety,
    load_default_scenario,
    min_reference_distance,
    min_scaling_bound,
    pairwise_min_distance,
    run_simulation,
    tracking_error_metrics,
)

scenario = load_default_scenario()
cfg = scenario.config
matrices = FormationMatrices.from_config(cfg)

trace = run_simulation(cfg, matrices, scenario.schedule, scenario.params)
delta = tracking_error_metrics(trace).measured_delta
d_min = min_reference_distance(cfg)
radius = scenario.safety.agent_radius
bound = min_scaling_bound(delta, radius, d_min)

print(f"measured tracking error bound delta = {delta:.4f} m")
print(f"agent radius = {radius} m, reference separation d_min = {d_min} m")
print(f"required strain floor = 2 (delta + radius) / d_min = {bound:.4f}")

report = check_schedule_safety(scenario.schedule, bound)
print(f"\nbundled schedule: min strain {report.min_strain_observed} "
      f"-> {'PASS' if report.passed else 'FAIL'}")
closest = pairwise_min_distance(trace)
print(f"closest approach in the run: {closest:.4f} m "
      f"(two radii = {2 * radius} m)")

aggressive = PhaseSchedule(
    phases=(
        Phase(0.0, 10.0, AtCoordinates(),
              AtCoordinates(lambda1=0.2, lambda2=0.2)),
    ),
    z=cfg.z,
)
report = check_schedule_safety(aggressive, bound)
print(f"\ncontraction to 0.2: min strain {report.min_strain_observed} "
      f"-> {'PASS' if report.passed else 'FAIL'}")
for t0, t1 in report.violations:
    print(f"  strain below the floor from t={t0:.2f} s to t={t1:.2f} s")
