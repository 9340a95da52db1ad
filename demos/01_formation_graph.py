"""Build the formation graph for the bundled six-agent team.

Walks through the whole graph pipeline: validation, then one constructor,
``FormationMatrices.from_config``, that solves every follower's
barycentric coordinates in one batched pass (over its in-neighbors for
the communication weights in ``W``, over the leaders for ``H``), and the
numerical spectrum check that guarantees decentralized convergence. Finishes with the
fixed-point iteration that a follower network effectively performs.
"""

import numpy as np

from affineswarm import (
    FormationMatrices,
    load_default_scenario,
    validate_config,
    verify_spectrum,
)

np.set_printoptions(precision=6, suppress=True)

scenario = load_default_scenario()
cfg = scenario.config

print("agents (matrix order):", cfg.ids)
print("leaders:", cfg.leader_ids, " followers:", cfg.follower_ids)
for fid, nbrs in cfg.in_neighbors.items():
    print(f"  {fid} listens to {nbrs}")

problems = validate_config(cfg)
print("\nvalidation:", problems or "ok")

m = FormationMatrices.from_config(cfg)
followers = cfg.ids[3:]
print("\nbarycentric coefficients over the leaders (rows of H):")
for fid, a in zip(followers, m.H[3:]):
    print(f"  {fid}: {a}")
print("communication weights over in-neighbors (W at the neighbor columns):")
for k, fid in enumerate(followers):
    print(f"  {fid}: {m.W[3 + k, m.neighbors[k]]}")
print("\nW =\n", m.W)
print("H =\n", m.H)

spectrum = verify_spectrum(m)
print("\neigenvalues of W:", np.sort_complex(spectrum.eigenvalues))
print(f"max real part: {spectrum.max_real_part:.4f} (must be < 0)")
# H = -W^-1 L checked as a residual: W H + L = 0 without solving for W^-1.
print(f"max |W H + L| = {spectrum.h_deviation:.2e}")

# The consensus loop is a fixed-point iteration x <- (I + W) x + L x_L:
# wherever the leaders sit, the team settles at H times those positions.
leaders = np.array([[2.0, 1.0], [1.0, -1.0], [3.0, -1.0]])
x = np.zeros((len(cfg.ids), 2))
step = np.eye(len(cfg.ids)) + m.W
for k in range(60):
    x = step @ x + m.L @ leaders
print("\nleaders moved to:\n", leaders)
print("network settles at:\n", x)
print("H @ leaders:\n", m.H @ leaders)
