"""The safety-validation chain, end to end.

A deformation is collision-free when every commanded principal strain
stays at or above 2 (delta + radius) / d_min. This demo measures delta
from an actual run, derives the bound, and shows a schedule on each side
of it: the bundled one (passes) and an aggressive contraction (fails,
with the violating interval reported).
"""

import dataclasses

from affineswarm import (
    AtCoordinates,
    Phase,
    PhaseSchedule,
    load_default_scenario,
    run_simulation,
    strain_check,
    validate_run,
)

scenario = load_default_scenario()
metrics = validate_run(run_simulation(scenario), scenario)
delta = metrics.measured_delta
radius = scenario.safety.agent_radius
report, d_min = strain_check(scenario, delta)

print(f"measured tracking error bound delta = {delta:.4f} m")
print(f"agent radius = {radius} m, reference separation d_min = {d_min} m")
print(f"required strain floor = 2 (delta + radius) / d_min = "
      f"{report.lambda_min_bound:.4f}")

print(f"\nbundled schedule: min strain {report.min_strain_observed} "
      f"-> {'PASS' if report.passed else 'FAIL'}")
closest = metrics.min_pairwise_distance
print(f"closest approach in the run: {closest:.4f} m "
      f"(two radii = {2 * radius} m)")

aggressive = PhaseSchedule(
    phases=(
        Phase(0.0, 10.0, AtCoordinates(),
              AtCoordinates(lambda1=0.2, lambda2=0.2)),
    ),
)
report, _ = strain_check(dataclasses.replace(scenario, schedule=aggressive), delta)
print(f"\ncontraction to 0.2: min strain {report.min_strain_observed} "
      f"-> {'PASS' if report.passed else 'FAIL'}")
for t0, t1 in report.violations:
    print(f"  strain below the floor from t={t0:.2f} s to t={t1:.2f} s")
