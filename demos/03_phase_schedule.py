"""Sample the bundled deformation schedule and the leader trajectories.

The schedule chains three ten-second phases (contract, rotate, shear and
rescale) under one 4 m translation ramp, all blended with the quintic
step so position, velocity, and acceleration stay continuous. Writes the
leader plan to leader_plan.csv next to this script.
"""

from pathlib import Path

import numpy as np

from affineswarm import (
    leader_trajectory,
    load_default_scenario,
    quintic_blend,
)
from affineswarm.bundle import plan_csv_text

scenario = load_default_scenario()
sched = scenario.schedule

print("quintic blend: beta(0)=%.1f beta(0.25)=%s beta(0.5)=%.1f beta(1)=%.1f"
      % (quintic_blend(0.0), quintic_blend(0.25), quintic_blend(0.5), quintic_blend(1.0)))

print("\ncommanded coordinates over the schedule (one array evaluation):")
print(f"{'t':>5} {'lam1':>7} {'lam2':>7} {'psi_d':>7} {'psi_r':>7} {'d1':>7}")
times = np.arange(0.0, 31.0, 2.5)
coords, q, d = sched.sample(times)  # (T, 6) d1 d2 lambda1 lambda2 psi_d psi_r
for t, (d1, _, lam1, lam2, psi_d, psi_r) in zip(times, coords):
    print(f"{t:5.1f} {lam1:7.3f} {lam2:7.3f} {psi_d:7.3f} {psi_r:7.3f} {d1:7.3f}")
print("det Q (area scale lambda1 * lambda2) at t=10 s:", np.linalg.det(q[4]).round(6))

traj = leader_trajectory(sched, scenario.config, tick_rate=100.0)
out = Path(__file__).with_name("leader_plan.csv")
out.write_text(plan_csv_text(traj))
print(f"\nwrote {len(traj.times) * 3} plan rows to {out.name}")
print("leader cf1 at t=0:  ", traj.positions[0, 0])
print("leader cf1 at t=30: ", traj.positions[-1, 0])
