"""Planar affine-transformation kernel.

A team-level affine map sends a reference point ``a`` to ``Q a + d``.
For a planar deformation the 3x3 Jacobian factors as

    Q = R_r . R_D . Lambda . R_D^T

where ``R_r`` is a yaw rotation (rigid-body part), ``R_D`` is a yaw
rotation aligning the principal strain axes, and
``Lambda = diag(lambda1, lambda2, 1)`` holds the principal strains.
Together with the planar translation ``(d1, d2)`` this gives six
generalized coordinates for the whole map.

The factorization carries the collision-safety argument: for any planar
offset ``v``, ``|Q v| >= min(lambda1, lambda2) |v|``, so keeping both
strains above ``2 (delta + agent_radius) / d_min`` guarantees that two
agents whose reference positions are at least ``d_min`` apart can never
touch, even when every agent tracks its desired position with error up
to ``delta``. ``metrics.strain_check`` checks a schedule against that floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Strain gap below which the strain-axis angle is treated as undefined
# and canonicalized to zero (the stretch is then numerically isotropic).
UNIFORM_STRAIN_TOL = 1e-9

# Max deviation of the third row/column from (0, 0, 1) accepted by
# decompose_jacobian before the matrix is rejected as non-planar.
PLANAR_TOL = 1e-9


def _yaw(angle) -> np.ndarray:
    """Rotation by ``angle`` about the z axis; an array of angles gives a stack.

    ``math.cos``/``math.sin`` are mapped over the angles so every host
    yields the same bits as a scalar evaluation (numpy's SIMD kernels may
    differ from libm in the last place). They are mapped once per distinct
    angle, told apart by their bits: a schedule holds its angles for whole
    phases.
    """
    a = np.asarray(angle, dtype=float)
    bits, where = np.unique(a.view(np.uint64), return_inverse=True)
    flat = bits.view(float).tolist()
    c = np.fromiter(map(math.cos, flat), float, len(flat))[where].reshape(a.shape)
    s = np.fromiter(map(math.sin, flat), float, len(flat))[where].reshape(a.shape)
    r = np.zeros(a.shape + (3, 3))
    r[..., 0, 0] = c
    r[..., 0, 1] = -s
    r[..., 1, 0] = s
    r[..., 1, 1] = c
    r[..., 2, 2] = 1.0
    return r


def _wrap_half_pi(angle: float) -> float:
    """Wrap an angle defined modulo pi into (-pi/2, pi/2]."""
    a = math.remainder(angle, math.pi)
    if a <= -math.pi / 2.0:
        a += math.pi
    return a


@dataclass(frozen=True)
class AtCoordinates:
    """The six generalized coordinates of a planar affine transformation.

    ``d1, d2`` translate in the plane [m], ``lambda1, lambda2`` are the
    principal strains (must be positive), ``psi_d`` is the strain-axis
    (shear) angle and ``psi_r`` the rigid-body yaw [rad].
    """

    d1: float = 0.0
    d2: float = 0.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    psi_d: float = 0.0
    psi_r: float = 0.0

    def __post_init__(self):
        if not (self.lambda1 > 0.0 and self.lambda2 > 0.0):
            raise ValueError(
                f"principal strains must be positive, got "
                f"({self.lambda1}, {self.lambda2})"
            )

    def canonical(self) -> "AtCoordinates":
        """Equivalent coordinates with lambda1 >= lambda2 and psi_d in (-pi/2, pi/2].

        The stretch ``R_D Lambda R_D^T`` is invariant under swapping the
        strains while turning the axis by pi/2, and under turning the axis
        by pi; this picks the unique representative. When the strains are
        equal within ``UNIFORM_STRAIN_TOL`` the axis angle is undefined and
        set to zero.
        """
        l1, l2, psi = self.lambda1, self.lambda2, self.psi_d
        if l1 < l2:
            l1, l2 = l2, l1
            psi += math.pi / 2.0
        if abs(l1 - l2) <= UNIFORM_STRAIN_TOL:
            psi = 0.0
        else:
            psi = _wrap_half_pi(psi)
        return AtCoordinates(self.d1, self.d2, l1, l2, psi, self.psi_r)


@dataclass(frozen=True)
class JacobianDecomposition:
    """A planar Jacobian together with its rotation/stretch factors.

    Satisfies ``Q = R_r @ R_D @ Lambda @ R_D.T`` with ``R_r = yaw(psi_r)``,
    ``R_D = yaw(psi_d)`` and ``Lambda = diag(lambda1, lambda2, 1)``.
    """

    Q: np.ndarray
    R_r: np.ndarray
    R_D: np.ndarray
    Lambda: np.ndarray
    lambda1: float
    lambda2: float
    psi_d: float
    psi_r: float

    def coordinates(self) -> AtCoordinates:
        """The strains and angles, with zero translation."""
        return AtCoordinates(
            0.0, 0.0, self.lambda1, self.lambda2, self.psi_d, self.psi_r
        )


def _factors(lambda1, lambda2, psi_d, psi_r):
    """``(Q, R_r, R_D, Lambda)`` with ``Q = R_r R_D Lambda R_D^T``.

    Scalars give 3x3 matrices; equal-length arrays give (T, 3, 3) stacks
    whose slices equal the scalar results bit for bit.
    """
    r_r = _yaw(psi_r)
    r_d = _yaw(psi_d)
    lam = np.zeros(r_d.shape)
    lam[..., 0, 0] = lambda1
    lam[..., 1, 1] = lambda2
    lam[..., 2, 2] = 1.0
    q = r_r @ r_d @ lam @ np.swapaxes(r_d, -1, -2)
    return q, r_r, r_d, lam


def jacobian_stack(coords: np.ndarray) -> np.ndarray:
    """Jacobians (T, 3, 3) for coordinate rows (T, 6) in ``AtCoordinates`` order."""
    coords = np.asarray(coords, dtype=float)
    return _factors(coords[:, 2], coords[:, 3], coords[:, 4], coords[:, 5])[0]


def assemble_jacobian(coords: AtCoordinates) -> JacobianDecomposition:
    """Build the Jacobian ``R_r R_D Lambda R_D^T`` from generalized coordinates.

    The third row and column of the result are (0, 0, 1): a planar map
    leaves altitude fixed.
    """
    q, r_r, r_d, lam = _factors(
        coords.lambda1, coords.lambda2, coords.psi_d, coords.psi_r
    )
    return JacobianDecomposition(
        Q=q,
        R_r=r_r,
        R_D=r_d,
        Lambda=lam,
        lambda1=coords.lambda1,
        lambda2=coords.lambda2,
        psi_d=coords.psi_d,
        psi_r=coords.psi_r,
    )


def decompose_jacobian(q: np.ndarray) -> JacobianDecomposition:
    """Polar-decompose a planar Jacobian into rotation and principal strains.

    Factors ``q`` as ``R_r U`` with ``U = R_D Lambda R_D^T`` symmetric
    positive definite; the strains and axis are ``AtCoordinates.canonical``.

    Raises ``ValueError`` when ``q`` is not (3, 3), when its third
    row/column deviates from (0, 0, 1) by more than ``PLANAR_TOL``, or
    when the planar block is singular or orientation-reversing
    (non-positive determinant).
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3):
        raise ValueError(f"expected a 3x3 Jacobian, got shape {q.shape}")
    planar_dev = max(
        abs(q[2, 0]), abs(q[2, 1]), abs(q[2, 2] - 1.0), abs(q[0, 2]), abs(q[1, 2])
    )
    if planar_dev > PLANAR_TOL:
        raise ValueError(
            f"Jacobian is not planar: third row/column deviates from (0,0,1) "
            f"by {planar_dev:.3e}"
        )
    block = q[:2, :2]
    det = float(np.linalg.det(block))
    if det <= 1e-12:
        raise ValueError(
            f"planar block must have positive determinant (got {det:.3e}); "
            "singular or reflecting maps are rejected"
        )
    u_svd, s, vt = np.linalg.svd(block)
    rot = u_svd @ vt  # proper rotation because det > 0
    # Right singular vector of the larger strain = first principal axis.
    coords = AtCoordinates(
        lambda1=float(s[0]),
        lambda2=float(s[1]),
        psi_d=math.atan2(vt[0, 1], vt[0, 0]),
        psi_r=math.atan2(rot[1, 0], rot[0, 0]),
    ).canonical()
    return replace(assemble_jacobian(coords), Q=q)


def transform_points(
    q: np.ndarray, d: np.ndarray, points: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply ``Q a + d`` to every row of an (N, 3) array of points.

    With stacks ``q`` (T, 3, 3) and ``d`` (T, 3) the result is (T, N, 3),
    slice ``k`` being the image under ``(q[k], d[k])``. It is written into
    ``out`` when given; ``d`` is added in place either way.
    """
    pts = np.asarray(points, dtype=float)
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    out = np.matmul(pts, np.swapaxes(q, -1, -2), out=out)
    out += d[..., None, :]
    return out

