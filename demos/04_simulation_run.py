"""Run the full decentralized acquisition simulation on the bundled scenario.

Leaders track the commanded affine map; each follower only ever sees the
previous-tick positions of its three in-neighbors, mixed with its fixed
weights. The trace records actual, reference, and commanded positions for
every agent at every control tick.
"""

import time

import numpy as np

from affineswarm import (
    load_default_scenario,
    run_simulation,
    strain_check,
    validate_run,
)

scenario = load_default_scenario()
cfg = scenario.config
safety = strain_check(scenario, scenario.safety.delta_budget)
print(f"strain precheck: commanded min {safety.min_strain_observed} vs "
      f"bound {safety.lambda_min_bound:.3f} -> {'pass' if safety.passed else 'FAIL'}")

start = time.perf_counter()
trace = run_simulation(scenario)
wall = time.perf_counter() - start
print(f"simulated {trace.times[-1]:.0f} s at dt={scenario.params.dt} "
      f"in {wall:.2f} s wall time ({len(trace.times)} control ticks)")

err = np.linalg.norm(trace.positions - trace.desired, axis=-1)
print("\nworst tracking error per agent [m]:")
for i, agent in enumerate(cfg.agents):
    print(f"  {agent.id} ({agent.role:8s}): {err[:, i].max():.4f}")

metrics = validate_run(trace, scenario)
print("\nrun metrics:")
for key, value in metrics.to_dict().items():
    print(f"  {key}: {value}")
