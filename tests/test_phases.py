"""Phase schedules, quintic blending, leader trajectories, safety sampling."""

import dataclasses
from dataclasses import astuple

import numpy as np
import pytest
from conftest import hold_schedule, schedule_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from affineswarm import (
    AtCoordinates,
    Phase,
    PhaseSchedule,
    ScheduleError,
    TranslationRamp,
    check_schedule_safety,
    desired_positions,
    leader_trajectory,
    quintic_blend,
)


def coords_at(schedule, t):
    """The blended coordinates at one time, read from the array evaluator."""
    return AtCoordinates(*schedule.coordinates([t])[0].tolist())


def blend_oracle(s):
    return 6.0 * s**5 - 15.0 * s**4 + 10.0 * s**3


def blend_d1(s):
    return 30.0 * s**4 - 60.0 * s**3 + 30.0 * s**2


def blend_d2(s):
    return 120.0 * s**3 - 180.0 * s**2 + 60.0 * s


class TestQuinticBlend:
    def test_endpoints_exact(self):
        assert quintic_blend(0.0) == 0.0
        assert quintic_blend(1.0) == 1.0

    def test_midpoint_exact(self):
        assert quintic_blend(0.5) == 0.5

    def test_quarter_point(self):
        assert quintic_blend(0.25) == 0.103515625

    def test_matches_polynomial_oracle(self):
        s = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(quintic_blend(s), blend_oracle(s), atol=1e-15)

    def test_derivatives_vanish_at_endpoints(self):
        for s in (0.0, 1.0):
            assert blend_d1(s) == 0.0
            assert blend_d2(s) == 0.0

    def test_finite_difference_first_derivative_at_endpoints(self):
        # Central differences across the clamped boundary: the extension is
        # constant outside [0, 1], so a nonzero endpoint slope would show.
        h = 1e-5
        for s in (0.0, 1.0):
            d1 = (quintic_blend(s + h) - quintic_blend(s - h)) / (2 * h)
            assert abs(d1) <= 1e-6

    def test_finite_difference_second_derivative_at_endpoints(self):
        # One-sided third-order stencil into the interior; h balances the
        # O(h^3) truncation against 1/h^2 rounding amplification.
        h = 1e-3

        def d2_oneside(x, step):
            nodes = [quintic_blend(x + k * step) for k in range(5)]
            return (
                35 * nodes[0] - 104 * nodes[1] + 114 * nodes[2]
                - 56 * nodes[3] + 11 * nodes[4]
            ) / (12 * step**2)

        assert abs(d2_oneside(0.0, h)) <= 1e-6
        assert abs(d2_oneside(1.0, -h)) <= 1e-6

    def test_finite_differences_validate_symbolic_derivatives(self):
        # The closed forms used for the endpoint claims are themselves
        # checked against central differences on the interior.
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            h = 1e-5
            d1 = (quintic_blend(s + h) - quintic_blend(s - h)) / (2 * h)
            assert d1 == pytest.approx(blend_d1(s), abs=1e-6)
            h = 5e-5
            d2 = (
                quintic_blend(s + h) - 2 * quintic_blend(s) + quintic_blend(s - h)
            ) / h**2
            assert d2 == pytest.approx(blend_d2(s), abs=1e-6)

    def test_clamps_out_of_range_inputs(self):
        assert quintic_blend(1.5) == 1.0
        assert quintic_blend(-0.2) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_monotone_and_bounded(self, s):
        b = quintic_blend(s)
        assert 0.0 <= b <= 1.0
        assert blend_d1(s) >= 0.0


def two_phase_schedule():
    identity = AtCoordinates()
    contracted = AtCoordinates(lambda1=0.5, lambda2=0.5)
    rotated = AtCoordinates(lambda1=0.5, lambda2=0.5, psi_r=0.5)
    return PhaseSchedule(
        phases=(
            Phase(0.0, 10.0, identity, contracted),
            Phase(10.0, 20.0, contracted, rotated),
        ),
    )


class TestPhaseScheduleValidation:
    def test_gap_rejected(self):
        a = Phase(0.0, 1.0, AtCoordinates(), AtCoordinates())
        b = Phase(2.0, 3.0, AtCoordinates(), AtCoordinates())
        with pytest.raises(ScheduleError, match="starts at"):
            PhaseSchedule(phases=(a, b))

    def test_reversed_phase_rejected(self):
        with pytest.raises(ScheduleError, match="tf <= t0"):
            PhaseSchedule(
                phases=(Phase(1.0, 1.0, AtCoordinates(), AtCoordinates()),)
            )

    def test_boundary_discontinuity_rejected(self):
        a = Phase(0.0, 1.0, AtCoordinates(), AtCoordinates(lambda1=0.5))
        b = Phase(1.0, 2.0, AtCoordinates(lambda1=0.6), AtCoordinates(lambda1=0.6))
        with pytest.raises(ScheduleError, match="lambda1 jumps"):
            PhaseSchedule(phases=(a, b))

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            PhaseSchedule(phases=())

    def test_phase_out_of_time_order_rejected(self):
        # A phase shorter than the boundary tolerance lets the next one
        # start before it does; the schedule must run forward in time.
        a = Phase(0.0, 5e-10, AtCoordinates(), AtCoordinates())
        b = Phase(-4e-10, 1.0, AtCoordinates(), AtCoordinates())
        with pytest.raises(ScheduleError, match="start and end after phase 0"):
            PhaseSchedule(phases=(a, b))


class TestCoordsAt:
    def test_default_schedule_endpoints(self, default_scenario):
        sched = default_scenario.schedule
        c0 = coords_at(sched, 0.0)
        assert (c0.lambda1, c0.lambda2) == (1.0, 1.0)
        c10 = coords_at(sched, 10.0)
        assert (c10.lambda1, c10.lambda2) == (0.5, 0.5)
        c30 = coords_at(sched, 30.0)
        assert (c30.lambda1, c30.lambda2) == (0.6, 0.9)
        assert c30.psi_d == 0.25
        assert c30.psi_r == 0.5

    def test_halfway_blend(self, default_scenario):
        c5 = coords_at(default_scenario.schedule, 5.0)
        assert c5.lambda1 == pytest.approx(0.75, abs=1e-15)
        assert c5.lambda2 == pytest.approx(0.75, abs=1e-15)

    def test_held_before_start(self, default_scenario):
        before = coords_at(default_scenario.schedule, -3.0)
        assert (before.lambda1, before.lambda2) == (1.0, 1.0)
        assert before.d1 == 0.0

    def test_hold_after_final_is_exact(self, default_scenario):
        sched = default_scenario.schedule
        ref = coords_at(sched, sched.t_end)
        for t in (30.0, 33.3, 40.0, 400.0):
            assert coords_at(sched, t) == ref

    def test_translation_ramp_superimposes(self, default_scenario):
        sched = default_scenario.schedule
        assert coords_at(sched, 0.0).d1 == 0.0
        assert coords_at(sched, 15.0).d1 == pytest.approx(2.0, abs=1e-12)
        assert coords_at(sched, 30.0).d1 == pytest.approx(4.0, abs=1e-12)
        assert coords_at(sched, 12.0).d1 == pytest.approx(
            4.0 * blend_oracle(12.0 / 30.0), abs=1e-12
        )

    def test_translation_ramp_needs_its_end(self):
        with pytest.raises(TypeError, match="'end'"):
            TranslationRamp(t0=0.0, tf=8.0)

    def test_translation_ramp_may_outlast_the_phases(self):
        sched = PhaseSchedule(
            phases=(
                Phase(
                    0.0,
                    4.0,
                    AtCoordinates(),
                    AtCoordinates(lambda1=0.5, lambda2=0.5),
                ),
            ),
            translation=TranslationRamp(t0=0.0, tf=8.0, end=(2.0, 0.0)),
        )
        mid = coords_at(sched, 6.0)
        assert mid.lambda1 == 0.5  # shape held after the phase ends
        assert mid.d1 == pytest.approx(2.0 * blend_oracle(0.75), abs=1e-12)
        assert coords_at(sched, 9.0).d1 == pytest.approx(2.0, abs=1e-12)

    def test_interior_blend_matches_oracle(self):
        sched = two_phase_schedule()
        t = 13.7
        s = (t - 10.0) / 10.0
        c = coords_at(sched, t)
        assert c.psi_r == pytest.approx(0.5 * blend_oracle(s), abs=1e-15)
        assert c.lambda1 == 0.5

    def test_blended_strain_stays_in_range(self):
        sched = two_phase_schedule()
        for t in np.linspace(0.0, 10.0, 200):
            lam = coords_at(sched, float(t)).lambda1
            assert 0.5 <= lam <= 1.0


_coord = st.floats(-3.0, 3.0)
_strain = st.floats(0.1, 2.0)
_angle = st.floats(-4.0, 4.0)
# Offsets within the 1e-9 boundary tolerance: cracks (> 0) and overlaps (< 0).
_crack = st.one_of(st.just(0.0), st.floats(-9e-10, 9e-10))
_jitter = st.sampled_from([0.0, 5e-13, -5e-13])


@st.composite
def schedules(draw):
    """Multi-phase schedules with cracks, overlaps and an optional ramp."""

    def coords():
        return AtCoordinates(
            draw(_coord), draw(_coord), draw(_strain), draw(_strain),
            draw(_angle), draw(_angle),
        )

    t = draw(st.floats(-5.0, 5.0))
    start = coords()
    phases = []
    for _ in range(draw(st.integers(1, 4))):
        tf = t + draw(st.floats(1e-6, 10.0))
        end = coords()
        phases.append(Phase(t, tf, start, end))
        t = tf + draw(_crack)
        # The next start may differ from this end within the 1e-12 tolerance.
        start = AtCoordinates(*(v + draw(_jitter) for v in astuple(end)))
    ramp = None
    if draw(st.booleans()):
        # tf <= t0 is allowed: the ramp is then a step at tf.
        ramp = TranslationRamp(
            t0=draw(st.floats(-10.0, 40.0)),
            tf=draw(st.floats(-10.0, 40.0)),
            start=(draw(_coord), draw(_coord)),
            end=(draw(_coord), draw(_coord)),
        )
    return PhaseSchedule(phases=tuple(phases), translation=ramp)


def sample_times(schedule, extra):
    """Phase and ramp boundaries, their float neighbours, crack midpoints,
    times before the start and after the end, plus ``extra``."""
    edges = [t for ph in schedule.phases for t in (ph.t0, ph.tf)]
    if schedule.translation is not None:
        edges += [schedule.translation.t0, schedule.translation.tf]
    times = list(edges) + list(extra)
    times += [np.nextafter(t, -np.inf) for t in edges]
    times += [np.nextafter(t, np.inf) for t in edges]
    times += [
        (a.tf + b.t0) / 2.0 for a, b in zip(schedule.phases, schedule.phases[1:])
    ]
    times += [schedule.t_start - 1.0, schedule.t_end + 1.0]
    return np.array(times, dtype=float)


class TestSample:
    @settings(max_examples=150, deadline=None)
    @given(schedules(), st.lists(st.floats(-20.0, 60.0), max_size=20))
    def test_matches_scalar_oracle_bit_for_bit(self, schedule, extra):
        times = sample_times(schedule, extra)
        coords, q, d = schedule.sample(times)
        expected = [schedule_oracle(schedule, float(t)) for t in times]
        assert coords.tobytes() == np.array([e[0] for e in expected]).tobytes()
        assert q.tobytes() == np.array([e[1] for e in expected]).tobytes()
        assert d.tobytes() == np.array([e[2] for e in expected]).tobytes()
        # One time on its own gives the same row as in the full stack.
        t = float(times[0])
        assert np.array(astuple(coords_at(schedule, t))).tobytes() == (
            np.array(expected[0][0]).tobytes()
        )
        _, (q0,), (d0,) = schedule.sample([t])
        assert q0.tobytes() == expected[0][1].tobytes()
        assert d0.tobytes() == expected[0][2].tobytes()

    def test_chunks_equal_one_call(self, default_scenario):
        # The phase arrays are built once per schedule and shared by every
        # call; no call may write into them.
        sched = default_scenario.schedule
        times = np.linspace(-1.0, 31.0, 3201)
        whole = sched.coordinates(times)
        chunks = [sched.coordinates(times[lo : lo + 500]) for lo in range(0, 3201, 500)]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()
        assert sched.coordinates(times).tobytes() == whole.tobytes()

    def test_desired_positions_stack_equals_each_time(self, default_scenario):
        # The ramp ends before, with or after the last phase; the map is
        # still only from the later end, and times may come in any order.
        cfg = default_scenario.config
        times = np.linspace(-1.0, 36.0, 38)
        empty = desired_positions(cfg, default_scenario.schedule, times[:0])
        assert empty.shape == (0, len(cfg.agents), 3)
        for ramp_tf in (20.0, 30.0, 34.0):
            sched = default_scenario.schedule
            ramp = dataclasses.replace(sched.translation, tf=ramp_tf)
            sched = dataclasses.replace(sched, translation=ramp)
            assert sched.t_hold == max(30.0, ramp_tf)
            for order in (times, times[::-1]):
                stack = desired_positions(cfg, sched, order)
                assert stack.shape == (len(times), len(cfg.agents), 3)
                for k, t in enumerate(order):
                    each = desired_positions(cfg, sched, float(t)).view(np.uint64)
                    assert np.array_equal(stack[k].view(np.uint64), each)


class TestLeaderTrajectory:
    def test_initial_positions(self, default_scenario):
        traj = leader_trajectory(
            default_scenario.schedule, default_scenario.config, 100.0
        )
        assert traj.agent_ids == ("cf1", "cf5", "cf6")
        np.testing.assert_allclose(traj.positions[0, 0], [0.0, 0.75, 1.0], atol=1e-15)

    def test_contraction_without_translation(self, default_scenario):
        sched = PhaseSchedule(
            phases=(
                Phase(
                    0.0,
                    10.0,
                    AtCoordinates(),
                    AtCoordinates(lambda1=0.5, lambda2=0.5),
                ),
            ),
        )
        traj = leader_trajectory(sched, default_scenario.config, 100.0)
        np.testing.assert_allclose(traj.positions[-1, 0], [0.0, 0.375, 1.0], atol=1e-12)

    def test_final_translation_offsets_x_by_four(self, default_scenario):
        sched = default_scenario.schedule
        bare = PhaseSchedule(phases=sched.phases, translation=None)
        with_ramp = leader_trajectory(sched, default_scenario.config, 100.0)
        without = leader_trajectory(bare, default_scenario.config, 100.0)
        shift = with_ramp.positions[-1, :, 0] - without.positions[-1, :, 0]
        np.testing.assert_allclose(shift, 4.0, atol=1e-12)
        np.testing.assert_allclose(
            with_ramp.positions[-1, :, 1:], without.positions[-1, :, 1:], atol=1e-12
        )

    def test_altitude_constant(self, default_scenario):
        traj = leader_trajectory(
            default_scenario.schedule, default_scenario.config, 100.0
        )
        np.testing.assert_array_equal(traj.positions[:, :, 2], 1.0)

    def test_hold_after_final_time(self, default_scenario):
        cfg, sched = default_scenario.config, default_scenario.schedule
        hold = desired_positions(cfg, sched, np.linspace(30.0, 35.0, 501))
        assert np.array_equal(hold, np.repeat(hold[:1], len(hold), axis=0))

    def test_c2_continuity_across_boundaries(self, default_scenario):
        # Second differences of each leader coordinate must not jump at the
        # phase boundaries: a (hidden) acceleration step of size a would
        # show up as a second-difference jump of order a, independent of
        # the tick, while a C2 trajectory leaves only O(jerk * tick).
        traj = leader_trajectory(
            default_scenario.schedule, default_scenario.config, 100.0
        )
        pos = traj.positions.reshape(len(traj.times), -1)
        acc = np.diff(pos, n=2, axis=0)
        jumps = np.abs(np.diff(acc, axis=0)).max(axis=1)
        tick = 1.0 / 100.0
        assert jumps.max() <= 1.0 * tick**2


class TestDesiredPositions:
    def test_identity_at_start(self, default_scenario):
        p = desired_positions(default_scenario.config, default_scenario.schedule, 0.0)
        np.testing.assert_allclose(
            p, default_scenario.config.reference_positions(), atol=1e-15
        )

    def test_affine_consistency_over_time(self, default_scenario, default_matrices):
        cfg = default_scenario.config
        for t in (3.0, 12.5, 21.0, 29.9):
            p = desired_positions(cfg, default_scenario.schedule, t)
            np.testing.assert_allclose(p, default_matrices.H @ p[:3], atol=1e-9)


class TestCheckScheduleSafety:
    def test_default_schedule_passes_reference_bound(self, default_scenario):
        report = check_schedule_safety(default_scenario.schedule, 0.3, 100.0)
        assert report.min_strain_observed == 0.5
        assert report.passed
        assert report.violations == []

    def test_contracting_schedule_fails_with_interval(self):
        sched = PhaseSchedule(
            phases=(
                Phase(
                    0.0,
                    10.0,
                    AtCoordinates(),
                    AtCoordinates(lambda1=0.2, lambda2=0.2),
                ),
            ),
        )
        report = check_schedule_safety(sched, 0.3, 100.0)
        assert not report.passed
        assert report.min_strain_observed == pytest.approx(0.2, abs=1e-12)
        assert len(report.violations) == 1
        t0, t1 = report.violations[0]
        assert t0 > 0.0
        assert t1 == 10.0
        # The blend is monotone: the bound is first crossed where
        # beta((t - t0) / span) passes (1 - 0.3) / 0.8.
        crossing = t0
        s = crossing / 10.0
        assert 1.0 - 0.8 * (6 * s**5 - 15 * s**4 + 10 * s**3) <= 0.3 + 1e-9

    def test_identity_schedule_passes_any_unit_bound(self):
        sched = hold_schedule(AtCoordinates(), duration=2.0)
        assert check_schedule_safety(sched, 1.0, 100.0).passed

    def test_boundary_equality_passes(self):
        sched = hold_schedule(
            AtCoordinates(lambda1=0.5, lambda2=0.5), duration=1.0
        )
        report = check_schedule_safety(sched, 0.5, 100.0)
        assert report.passed

    def test_every_violating_run_is_reported(self):
        # Dips below the bound twice; the second dip lasts to the end.
        full, low = AtCoordinates(), AtCoordinates(lambda1=0.2, lambda2=0.2)
        sched = PhaseSchedule(
            phases=(
                Phase(0.0, 10.0, full, low),
                Phase(10.0, 20.0, low, full),
                Phase(20.0, 30.0, full, low),
            ),
        )
        report = check_schedule_safety(sched, 0.3, tick_rate=10.0)
        times = np.arange(301) / 10.0
        bad = [coords_at(sched, float(t)).lambda1 < 0.3 for t in times]
        runs, first = [], None
        for k, flag in enumerate(bad + [False]):
            if flag and first is None:
                first = k
            elif not flag and first is not None:
                runs.append((float(times[first]), float(times[k - 1])))
                first = None
        assert len(runs) == 2
        assert report.violations == runs
        assert report.violations[-1][1] == 30.0
