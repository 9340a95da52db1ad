"""Assemble and decompose planar affine Jacobians.

Shows the six generalized coordinates turning into a Jacobian, the polar
decomposition recovering them from a raw matrix, and the principal-strain
floor that makes a deformation provably collision-free.
"""

import numpy as np

from affineswarm import (
    AtCoordinates,
    assemble_jacobian,
    decompose_jacobian,
    load_default_scenario,
    min_scaling_bound,
    strain_check,
)

np.set_printoptions(precision=6, suppress=True)

coords = AtCoordinates(d1=4.0, d2=0.0, lambda1=0.6, lambda2=0.9, psi_d=0.25, psi_r=0.5)
dec = assemble_jacobian(coords)
print("coordinates:", coords)
print("Q =\n", dec.Q)
print("rigid rotation R_r =\n", dec.R_r)
print("strain axes R_D =\n", dec.R_D)
print("principal strains:", np.diag(dec.Lambda))

recovered = decompose_jacobian(dec.Q)
print("\nrecovered from Q alone:")
print(f"  lambda1={recovered.lambda1:.12f}  lambda2={recovered.lambda2:.12f}")
print(f"  psi_d={recovered.psi_d:.12f}  psi_r={recovered.psi_r:.12f}")
print("(canonical form: lambda1 >= lambda2, psi_d in (-pi/2, pi/2])")

# A contraction shrinks every inter-agent distance by at least the
# smaller strain, which is what the safety bound leans on.
rng = np.random.default_rng(0)
v = np.append(rng.uniform(-1, 1, 2), 0.0)
print("\n|Q v| / |v| =", np.linalg.norm(dec.Q @ v) / np.linalg.norm(v))
print("min strain   =", min(recovered.lambda1, recovered.lambda2))

scenario = load_default_scenario()
_, d_min = strain_check(scenario, 0.01)
bound = min_scaling_bound(0.01, 0.065, d_min)
print(f"\nreference separation d_min = {d_min} m")
print(f"strain floor for delta=0.01 m, radius=0.065 m: {bound}")
print("commanded minimum strain 0.5 >= bound -> deformation is safe")
