"""Run the full decentralized acquisition simulation on the bundled scenario.

Leaders track the commanded affine map; each follower only ever sees the
previous-tick positions of its three in-neighbors, mixed with its fixed
weights. The trace records actual, reference, and commanded positions for
every agent at every control tick.
"""

import time

import numpy as np

from affineswarm import (
    FormationMatrices,
    check_schedule_safety,
    load_default_scenario,
    min_reference_distance,
    min_scaling_bound,
    run_simulation,
    validate_run,
)

scenario = load_default_scenario()
cfg = scenario.config
matrices = FormationMatrices.from_config(cfg)
bound = min_scaling_bound(
    scenario.safety.delta_budget,
    scenario.safety.agent_radius,
    min_reference_distance(cfg),
)
safety = check_schedule_safety(scenario.schedule, bound, scenario.params.control_rate)
print(f"strain precheck: commanded min {safety.min_strain_observed} vs "
      f"bound {bound:.3f} -> {'pass' if safety.passed else 'FAIL'}")

start = time.perf_counter()
trace = run_simulation(cfg, matrices, scenario.schedule, scenario.params)
wall = time.perf_counter() - start
print(f"simulated {trace.times[-1]:.0f} s at dt={scenario.params.dt} "
      f"in {wall:.2f} s wall time ({len(trace.times)} control ticks)")

err = np.linalg.norm(trace.positions - trace.desired, axis=-1)
print("\nworst tracking error per agent [m]:")
for i, agent in enumerate(cfg.agents):
    print(f"  {agent.id} ({agent.role:8s}): {err[:, i].max():.4f}")

metrics = validate_run(trace, scenario, matrices)
print("\nrun metrics:")
for key, value in metrics.to_dict().items():
    print(f"  {key}: {value}")
