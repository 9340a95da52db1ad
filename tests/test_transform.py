"""Affine kernel: yaw factors, Jacobian assembly/decomposition, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineswarm import (
    AtCoordinates,
    FormationMatrices,
    assemble_jacobian,
    decompose_jacobian,
    load_default_scenario,
    min_scaling_bound,
    transform_points,
)


def yaw_oracle(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle_gap(a, b):
    """Distance between two strain-axis angles, which live modulo pi."""
    return abs(math.remainder(a - b, math.pi))


class TestEulerMatrix:
    """The yaw (z-axis Euler) rotations R_r and R_D that assemble_jacobian uses."""

    def test_zero_angles_is_identity(self):
        dec = assemble_jacobian(AtCoordinates())
        assert np.array_equal(dec.R_r, np.eye(3))
        assert np.array_equal(dec.R_D, np.eye(3))

    def test_quarter_turn_yaw_maps_x_to_y(self):
        q = assemble_jacobian(AtCoordinates(psi_r=math.pi / 2)).Q
        np.testing.assert_allclose(q @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_half_radian_yaw_block(self):
        dec = assemble_jacobian(AtCoordinates(psi_d=0.5, psi_r=0.5))
        np.testing.assert_array_equal(dec.R_r, yaw_oracle(0.5))
        np.testing.assert_array_equal(dec.R_D, yaw_oracle(0.5))

    def test_general_angles_orthogonal_det_one(self):
        dec = assemble_jacobian(AtCoordinates(psi_d=-0.7, psi_r=1.9))
        for r in (dec.R_r, dec.R_D):
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-15)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)


class TestAtCoordinates:
    def test_rejects_non_positive_strain(self):
        with pytest.raises(ValueError):
            AtCoordinates(lambda1=0.0)
        with pytest.raises(ValueError):
            AtCoordinates(lambda2=-0.5)

    def test_canonical_orders_strains(self):
        c = AtCoordinates(lambda1=0.5, lambda2=0.9, psi_d=0.2).canonical()
        assert (c.lambda1, c.lambda2) == (0.9, 0.5)
        assert c.psi_d == pytest.approx(0.2 + math.pi / 2 - math.pi)

    def test_canonical_zeroes_axis_for_uniform_strain(self):
        c = AtCoordinates(lambda1=0.7, lambda2=0.7, psi_d=1.2).canonical()
        assert c.psi_d == 0.0

    def test_canonical_wraps_axis_angle(self):
        c = AtCoordinates(lambda1=1.0, lambda2=0.5, psi_d=2.0).canonical()
        assert -math.pi / 2 < c.psi_d <= math.pi / 2
        assert c.psi_d == pytest.approx(2.0 - math.pi)


class TestAssembleJacobian:
    def test_identity_coordinates(self):
        dec = assemble_jacobian(AtCoordinates())
        assert np.array_equal(dec.Q, np.eye(3))

    def test_pure_contraction_half(self):
        dec = assemble_jacobian(AtCoordinates(lambda1=0.5, lambda2=0.5))
        np.testing.assert_allclose(dec.Q, np.diag([0.5, 0.5, 1.0]), atol=1e-16)

    def test_general_coordinates_match_factor_product(self):
        c = AtCoordinates(lambda1=0.6, lambda2=0.9, psi_d=0.25, psi_r=0.5)
        dec = assemble_jacobian(c)
        r_r, r_d = yaw_oracle(0.5), yaw_oracle(0.25)
        expected = r_r @ r_d @ np.diag([0.6, 0.9, 1.0]) @ r_d.T
        np.testing.assert_allclose(dec.Q, expected, atol=1e-15)

    def test_planar_structure(self):
        dec = assemble_jacobian(
            AtCoordinates(lambda1=0.3, lambda2=1.7, psi_d=-0.9, psi_r=2.4)
        )
        np.testing.assert_allclose(dec.Q[2], [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(dec.Q[:, 2], [0.0, 0.0, 1.0], atol=1e-15)


class TestDecomposeJacobian:
    def test_identity(self):
        dec = decompose_jacobian(np.eye(3))
        assert dec.lambda1 == pytest.approx(1.0)
        assert dec.lambda2 == pytest.approx(1.0)
        assert dec.psi_d == 0.0
        assert dec.psi_r == pytest.approx(0.0)

    def test_uniform_contraction(self):
        dec = decompose_jacobian(np.diag([0.5, 0.5, 1.0]))
        assert dec.lambda1 == pytest.approx(0.5)
        assert dec.lambda2 == pytest.approx(0.5)
        assert dec.psi_r == pytest.approx(0.0)

    def test_round_trip_recovers_coordinates(self):
        c = AtCoordinates(lambda1=0.9, lambda2=0.6, psi_d=0.25, psi_r=0.5)
        dec = decompose_jacobian(assemble_jacobian(c).Q)
        assert dec.lambda1 == pytest.approx(0.9, abs=1e-12)
        assert dec.lambda2 == pytest.approx(0.6, abs=1e-12)
        assert dec.psi_d == pytest.approx(0.25, abs=1e-12)
        assert dec.psi_r == pytest.approx(0.5, abs=1e-12)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            decompose_jacobian(np.diag([-1.0, 1.0, 1.0]))

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="determinant"):
            decompose_jacobian(np.diag([0.0, 1.0, 1.0]))

    def test_rejects_non_planar(self):
        q = np.eye(3)
        q[2, 0] = 0.1
        with pytest.raises(ValueError, match="planar"):
            decompose_jacobian(q)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            decompose_jacobian(np.eye(2))

    def test_factors_are_rotations_and_spd_stretch(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = AtCoordinates(
                lambda1=rng.uniform(0.1, 2.0),
                lambda2=rng.uniform(0.1, 2.0),
                psi_d=rng.uniform(-math.pi / 2, math.pi / 2),
                psi_r=rng.uniform(-math.pi, math.pi),
            )
            dec = decompose_jacobian(assemble_jacobian(c).Q)
            for rot in (dec.R_r, dec.R_D):
                np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
                assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
            u = dec.R_D @ dec.Lambda @ dec.R_D.T
            np.testing.assert_allclose(u, u.T, atol=1e-12)
            assert np.linalg.eigvalsh(u).min() > 0.0

    def test_reassembly_within_tolerance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c = AtCoordinates(
                lambda1=rng.uniform(0.1, 2.0),
                lambda2=rng.uniform(0.1, 2.0),
                psi_d=rng.uniform(-math.pi / 2, math.pi / 2),
                psi_r=rng.uniform(-math.pi, math.pi),
            )
            q = assemble_jacobian(c).Q
            dec = decompose_jacobian(q)
            reassembled = dec.R_r @ dec.R_D @ dec.Lambda @ dec.R_D.T
            assert np.abs(q - reassembled).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    lam1=st.floats(0.1, 2.0),
    lam2=st.floats(0.1, 2.0),
    psi_d=st.floats(-math.pi / 2 + 1e-9, math.pi / 2),
    psi_r=st.floats(-math.pi / 2 + 1e-9, math.pi / 2),
)
def test_round_trip_property(lam1, lam2, psi_d, psi_r):
    c = AtCoordinates(lambda1=lam1, lambda2=lam2, psi_d=psi_d, psi_r=psi_r)
    want = c.canonical()
    dec = decompose_jacobian(assemble_jacobian(c).Q)
    got = dec.coordinates()
    assert got.lambda1 == pytest.approx(want.lambda1, abs=1e-9)
    assert got.lambda2 == pytest.approx(want.lambda2, abs=1e-9)
    assert got.psi_r == pytest.approx(want.psi_r, abs=1e-9)
    if want.lambda1 - want.lambda2 > 1e-6:  # axis angle defined
        assert axis_angle_gap(got.psi_d, want.psi_d) <= 1e-7


class TestApplyAt:
    """Applying the affine transformation ``Q a + d`` with transform_points."""

    def test_identity_map(self):
        a = np.array([[0.3, -0.4, 1.0], [-1.2, 0.8, 1.0]])
        assert np.array_equal(transform_points(np.eye(3), np.zeros(3), a), a)

    def test_contraction_example(self):
        p = transform_points(np.diag([0.5, 0.5, 1.0]), np.zeros(3), [[0.0, 0.75, 1.0]])
        np.testing.assert_allclose(p, [[0.0, 0.375, 1.0]], rtol=0, atol=0)

    def test_translation_adds(self):
        p = transform_points(np.eye(3), [1.0, 2.0, 0.0], [[0.5, 0.5, 1.0]])
        np.testing.assert_allclose(p, [[1.5, 2.5, 1.0]])

    def test_affine_combination_consistency(self):
        # Followers' images equal the barycentric mix of the leaders' images
        # for any planar map, because the map is affine.
        scenario = load_default_scenario()
        cfg = scenario.config
        h = FormationMatrices.from_config(cfg).H
        rng = np.random.default_rng(23)
        refs = cfg.reference_positions()
        for _ in range(100):
            c = AtCoordinates(
                d1=rng.uniform(-2, 2),
                d2=rng.uniform(-2, 2),
                lambda1=rng.uniform(0.2, 1.5),
                lambda2=rng.uniform(0.2, 1.5),
                psi_d=rng.uniform(-1.5, 1.5),
                psi_r=rng.uniform(-3, 3),
            )
            q = assemble_jacobian(c).Q
            d = c.translation()
            images = transform_points(q, d, refs)
            for fid in cfg.follower_ids:
                follower = images[cfg.index_of(fid)]
                mix = h[cfg.index_of(fid)] @ images[:3]
                assert np.linalg.norm(follower - mix) <= 1e-9

    def test_singular_value_floor(self):
        # |Q v| >= min(lambda) |v| for planar offsets: the safety mechanism.
        rng = np.random.default_rng(31)
        for _ in range(200):
            lam1, lam2 = rng.uniform(0.1, 2.0, size=2)
            c = AtCoordinates(
                lambda1=lam1,
                lambda2=lam2,
                psi_d=rng.uniform(-1.5, 1.5),
                psi_r=rng.uniform(-3, 3),
            )
            q = assemble_jacobian(c).Q
            v = np.append(rng.uniform(-1, 1, size=2), 0.0)
            assert np.linalg.norm(q @ v) >= min(lam1, lam2) * np.linalg.norm(v) - 1e-12

    def test_uniform_strain_scales_distances_exactly(self):
        base = AtCoordinates(lambda1=0.8, lambda2=0.8, psi_d=0.3, psi_r=1.0)
        scaled = AtCoordinates(lambda1=0.4, lambda2=0.4, psi_d=0.3, psi_r=1.0)
        pts = np.array([[0.1, 0.2, 1.0], [-0.4, 0.7, 1.0], [0.9, -0.3, 1.0]])
        d = np.zeros(3)
        img1 = transform_points(assemble_jacobian(base).Q, d, pts)
        img2 = transform_points(assemble_jacobian(scaled).Q, d, pts)
        for i in range(3):
            for j in range(i + 1, 3):
                d1 = np.linalg.norm(img1[i] - img1[j])
                d2 = np.linalg.norm(img2[i] - img2[j])
                assert d2 == pytest.approx(0.5 * d1, rel=1e-12)


class TestMinScalingBound:
    def test_reference_parameters(self):
        assert min_scaling_bound(0.01, 0.065, 0.5) == pytest.approx(0.3, abs=1e-12)

    def test_zero_size_agents(self):
        assert min_scaling_bound(0.0, 0.0, 1.23) == 0.0

    def test_arithmetic(self):
        assert min_scaling_bound(0.05, 0.05, 0.4) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            min_scaling_bound(0.01, 0.065, 0.0)
        with pytest.raises(ValueError):
            min_scaling_bound(-0.01, 0.065, 0.5)
