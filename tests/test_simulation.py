"""Tracking dynamics, decentralized references, and the simulation engine."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affineswarm import (
    AtCoordinates,
    ConfigError,
    FormationMatrices,
    Phase,
    PhaseSchedule,
    ReferenceConfig,
    SimParams,
    SimulationError,
    load_default_scenario,
    parse_scenario,
    run_simulation,
    simulation,
    strain_check,
)
from affineswarm.phases import TranslationRamp, grid_size, tick_grid
from affineswarm.simulation import closed_loop_radius, tick_map, tick_times
from conftest import (
    consensus_fixed_point,
    euler_oracle,
    hold_schedule,
    lifted_tick_matrix,
    make_scenario,
    random_config,
    random_schedule,
    serialize_scenario,
    tick_loop_oracle,
)


@pytest.fixture(scope="module")
def default_setup(default_scenario):
    cfg = default_scenario.config
    matrices = FormationMatrices.from_config(cfg)
    return cfg, matrices


def hold_run(cfg, params, initial_positions=None):
    """A run under the identity map held still, from the given start."""
    schedule = hold_schedule(AtCoordinates(), duration=1.0)
    return run_simulation(
        make_scenario(cfg, schedule, params), initial_positions=initial_positions
    )


def leader_step_response(cfg, params):
    """x of the first leader released from rest 1 m short of its held reference.

    A leader tracks the commanded map directly, so this is the closed-loop
    response of one PD tracker to a 1 m step, from 0 to 1.
    """
    start = cfg.reference_positions()[0] - [1.0, 0.0, 0.0]
    trace = hold_run(cfg, params, {cfg.leader_ids[0]: start})
    return trace.times, trace.positions[:, 0, 0] - start[0]


class TestAgentStep:
    """Step response of one agent's PD tracker, observed through the engine."""

    def test_equilibrium_is_fixed(self, default_setup):
        cfg, _ = default_setup
        trace = hold_run(cfg, SimParams(duration=1.0))
        leaders = np.broadcast_to(
            cfg.reference_positions()[:3], trace.positions[:, :3].shape
        )
        assert np.array_equal(trace.references[:, :3], leaders)
        assert np.array_equal(trace.positions[:, :3], leaders)

    def test_converges_to_constant_reference(self, default_setup):
        # Default gains give a double pole at -5 (time constant 0.2 s);
        # the 1 m step residual (1 + 5t) e^{-5t} drops below 1e-4 by ~2.5 s.
        cfg, _ = default_setup
        times, x = leader_step_response(cfg, SimParams(duration=4.0))
        assert abs(x[-1] - 1.0) < 1e-4
        assert abs(x[-1] - x[-2]) / (times[-1] - times[-2]) < 1e-4

    def test_critically_damped_no_overshoot(self, default_setup):
        cfg, _ = default_setup
        params = SimParams(kp=25.0, kd=10.0, dt=0.001, duration=3.0)
        _, x = leader_step_response(cfg, params)
        assert x.max() <= 1.0 + 1e-6

    def test_matches_closed_form_response(self, default_setup):
        # x(t) = 1 - (1 + 5 t) e^{-5 t} for the critically damped pair.
        cfg, _ = default_setup
        params = SimParams(kp=25.0, kd=10.0, dt=0.0001, duration=0.5)
        times, x = leader_step_response(cfg, params)
        expected = 1.0 - (1.0 + 5.0 * times) * np.exp(-5.0 * times)
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-3)


class TestSimParams:
    def test_rejects_non_divisible_control_period(self):
        with pytest.raises(ValueError, match="integer multiple"):
            SimParams(dt=0.003, control_rate=100.0)

    def test_rejects_bad_gains(self):
        with pytest.raises(ValueError):
            SimParams(kp=0.0)
        with pytest.raises(ValueError):
            SimParams(kd=-1.0)

    def test_substeps(self):
        assert SimParams(dt=0.001, control_rate=100.0).substeps == 10
        assert SimParams(dt=0.01, control_rate=100.0).substeps == 1


def first_tick_references(cfg, initial_positions=None):
    """Follower references the engine computes from the starting positions."""
    trace = hold_run(cfg, SimParams(dt=0.01, duration=0.01), initial_positions)
    rows = [cfg.index_of(fid) for fid in cfg.follower_ids]
    return trace.references[0, rows]


class TestFollowerReference:
    """A follower's reference: its row of W applied to in-neighbor positions."""

    def test_partition_of_unity(self, default_setup):
        cfg, matrices = default_setup
        rows = [cfg.index_of(fid) for fid in cfg.follower_ids]
        off_diagonal = matrices.W[rows].sum(axis=1) - matrices.W[rows, rows]
        np.testing.assert_allclose(off_diagonal, 1.0, rtol=0, atol=1e-15)
        point = np.array([0.3, -0.2, 1.0])
        refs = first_tick_references(cfg, {aid: point for aid in cfg.ids})
        np.testing.assert_allclose(refs, np.broadcast_to(point, refs.shape), atol=1e-15)

    def test_weighted_sum_reproduces_reference_position(self, default_setup):
        cfg, _ = default_setup
        refs = first_tick_references(cfg)
        rows = [cfg.index_of(fid) for fid in cfg.follower_ids]
        np.testing.assert_allclose(
            refs, cfg.reference_positions()[rows], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(refs[0], [0.0, 0.25, 1.0], rtol=0, atol=1e-12)

    def test_common_offset_passes_through(self, default_setup):
        cfg, _ = default_setup
        rng = np.random.default_rng(0)
        base = {aid: rng.uniform(-1, 1, 3) for aid in cfg.ids}
        v = np.array([0.7, -0.2, 0.1])
        ref0 = first_tick_references(cfg, base)
        ref1 = first_tick_references(cfg, {aid: p + v for aid, p in base.items()})
        np.testing.assert_allclose(ref1, ref0 + v, rtol=0, atol=1e-15)

    def test_missing_neighbor_is_integrity_error(self, default_setup):
        cfg, _ = default_setup
        neighbors = dict(cfg.in_neighbors)
        neighbors["cf2"] = ("cf1", "cf3", "ghost")
        bad = ReferenceConfig(agents=cfg.agents, z=cfg.z, in_neighbors=neighbors)
        with pytest.raises(ConfigError, match="ghost"):
            first_tick_references(bad)


def assert_references_mix_neighbors(trace, cfg, matrices, delay):
    """Every follower's reference at every tick is ``w @`` its neighbors' positions,
    with ``w`` its row of ``W`` at the in-neighbor columns."""
    for fid in cfg.follower_ids:
        row = cfg.index_of(fid)
        nbr_rows = [cfg.index_of(j) for j in cfg.in_neighbors[fid]]
        w = matrices.W[row, nbr_rows]
        for k in range(len(trace.times)):
            expected = w @ trace.positions[max(k - delay, 0)][nbr_rows]
            np.testing.assert_array_equal(trace.references[k, row], expected)


def frozen_leader_trace(cfg, perturb=0.3, duration=5.0, **kwargs):
    rng = np.random.default_rng(42)
    initial = {
        fid: cfg.reference_positions()[cfg.index_of(fid)]
        + np.append(rng.uniform(-perturb, perturb, 2), 0.0)
        for fid in cfg.follower_ids
    }
    return hold_run(cfg, SimParams(duration=duration, **kwargs), initial)


class TestRunSimulation:
    def test_frozen_leaders_converge_to_containment_targets(self, default_setup):
        cfg, matrices = default_setup
        trace = frozen_leader_trace(cfg)
        targets = matrices.H @ cfg.reference_positions()[:3]
        final = trace.positions[-1]
        residual = np.linalg.norm(final - targets, axis=1).max()
        assert residual <= 1e-4
        # Independent oracle: the same limit from pure iteration.
        oracle = consensus_fixed_point(
            matrices.W, matrices.L, cfg.reference_positions()[:3]
        )
        np.testing.assert_allclose(final, oracle, atol=2e-4)

    def test_stationary_hold_keeps_agents_at_references(self, default_setup):
        cfg, _ = default_setup
        schedule = hold_schedule(AtCoordinates(), duration=1.0)
        trace = run_simulation(make_scenario(cfg, schedule, SimParams(duration=2.0)))
        drift = np.abs(trace.positions - cfg.reference_positions()).max()
        assert drift <= 1e-9

    def test_determinism_bit_identical(self, default_setup):
        cfg, _ = default_setup
        t1 = frozen_leader_trace(cfg, duration=1.0)
        t2 = frozen_leader_trace(cfg, duration=1.0)
        assert np.array_equal(t1.positions, t2.positions)
        assert np.array_equal(t1.references, t2.references)
        assert np.array_equal(t1.desired, t2.desired)

    def test_agent_listing_order_is_irrelevant(self, default_scenario):
        cfg = default_scenario.config
        shuffled = ReferenceConfig.from_agents(
            tuple(reversed(cfg.agents)), z=cfg.z, in_neighbors=cfg.in_neighbors
        )
        results = {}
        for key, c in (("orig", cfg), ("shuffled", shuffled)):
            trace = run_simulation(
                make_scenario(
                    c,
                    default_scenario.schedule,
                    SimParams(dt=0.01, duration=3.0, kp=100.0, kd=20.0),
                )
            )
            results[key] = {
                aid: trace.positions[:, c.index_of(aid)] for aid in c.ids
            }
        for aid in results["orig"]:
            np.testing.assert_allclose(
                results["orig"][aid], results["shuffled"][aid], atol=1e-12
            )

    def test_altitude_invariance(self, default_scenario, default_setup):
        cfg, _ = default_setup
        params = SimParams(dt=0.01, duration=3.0)
        trace = run_simulation(make_scenario(cfg, default_scenario.schedule, params))
        assert np.abs(trace.positions[:, :, 2] - cfg.z).max() == 0.0

    def test_snapshot_delay_semantics(self, default_setup, default_scenario):
        # The recorded follower reference at tick k is exactly the weighted
        # mix of neighbor positions at tick k - delay (tick 0 before that).
        cfg, matrices = default_setup
        for delay in (1, 3):
            trace = run_simulation(
                make_scenario(
                    cfg,
                    default_scenario.schedule,
                    SimParams(dt=0.01, duration=2.0, delay_ticks=delay),
                )
            )
            assert_references_mix_neighbors(trace, cfg, matrices, delay)

    def test_followers_never_read_the_commanded_map(self, default_scenario):
        # Decentralization audit: a follower's row of W, which the engine
        # gathers its reference from, has exactly three off-diagonal
        # nonzeros, at its in-neighbor columns, summing to one.
        rng = np.random.default_rng(11)
        configs = [default_scenario.config] + [
            random_config(rng, n) for n in (1, 4, 12, 30)
        ]
        for cfg in configs:
            matrices = FormationMatrices.from_config(cfg)
            for fid in cfg.follower_ids:
                row = cfg.index_of(fid)
                off_diagonal = np.delete(matrices.W[row], row)
                columns = np.delete(np.arange(len(cfg.ids)), row)
                nonzero = set(columns[off_diagonal != 0.0])
                assert nonzero == {cfg.index_of(j) for j in cfg.in_neighbors[fid]}
                assert matrices.neighbors[row - 3].tolist() == [
                    cfg.index_of(j) for j in cfg.in_neighbors[fid]
                ]
                assert off_diagonal.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_aborts_with_diagnostics(self, default_setup):
        cfg, _ = default_setup
        params = SimParams(dt=0.01, control_rate=100.0, kp=1e7, kd=0.01, duration=5.0)
        schedule = hold_schedule(AtCoordinates(lambda1=0.5, lambda2=0.5), 1.0)
        with pytest.raises(SimulationError, match="diverged"):
            run_simulation(make_scenario(cfg, schedule, params))

    def test_divergence_names_first_non_finite_tick(self, default_setup):
        cfg, _ = default_setup
        start = {"cf3": np.array([np.nan, 0.0, 1.0])}
        with pytest.raises(SimulationError) as info:
            hold_run(cfg, SimParams(duration=0.5), start)
        assert str(info.value) == (
            "state diverged at t=0.000s (tick 0); non-finite agents: ['cf3']"
        )

    def test_safety_precheck_blocks_unsafe_schedule(self, default_setup):
        # The strain precheck is strain_check, run by the caller
        # (the simulate command) before the engine; the engine itself runs
        # an unsafe schedule to the end.
        cfg, _ = default_setup
        unsafe = PhaseSchedule(
            phases=(
                Phase(
                    0.0,
                    2.0,
                    AtCoordinates(),
                    AtCoordinates(lambda1=0.2, lambda2=0.2),
                ),
            ),
        )
        scenario = make_scenario(cfg, unsafe, SimParams(dt=0.01, duration=2.0))
        report = strain_check(scenario, scenario.safety.delta_budget)
        assert report.lambda_min_bound == pytest.approx(0.3)
        assert not report.passed
        assert report.min_strain_observed == pytest.approx(0.2)
        assert report.violations and report.violations[-1][1] == pytest.approx(2.0)
        trace = run_simulation(scenario)
        assert len(trace.times) == 201

    def test_zero_delay_uses_same_tick_snapshot(self, default_setup, default_scenario):
        cfg, matrices = default_setup
        trace = run_simulation(
            make_scenario(
                cfg,
                default_scenario.schedule,
                SimParams(dt=0.01, duration=1.0, delay_ticks=0),
            )
        )
        assert_references_mix_neighbors(trace, cfg, matrices, 0)

    def test_mismatched_matrices_rejected(self, default_scenario):
        # The matrices belong to the config: a scenario whose config is
        # replaced by a smaller one drops the old matrices, so matrices of a
        # different configuration never reach a run.
        cfg = default_scenario.config
        smaller = ReferenceConfig.from_agents(cfg.agents[:3], z=cfg.z, in_neighbors={})
        scenario = make_scenario(
            cfg,
            hold_schedule(AtCoordinates(), 1.0),
            SimParams(dt=0.01, duration=0.5),
        )
        assert scenario.config.matrices.W.shape == (len(cfg.agents),) * 2
        replaced = dataclasses.replace(scenario, config=smaller)
        assert replaced.config.matrices.W.shape == (3, 3)
        trace = run_simulation(replaced)
        assert trace.positions.shape[1] == 3

    def test_matrices_of_another_graph_rejected(self, default_scenario):
        # A scenario whose config is replaced by one of another graph runs
        # the new config's graph, never the old one's.
        cfg = default_scenario.config
        neighbors = dict(cfg.in_neighbors)
        neighbors["cf3"] = ("cf1", "cf5", "cf6")  # valid, but not the default's
        other = ReferenceConfig(agents=cfg.agents, z=cfg.z, in_neighbors=neighbors)
        scenario = make_scenario(
            cfg, default_scenario.schedule, SimParams(dt=0.01, duration=0.5)
        )
        assert scenario.config.matrices.neighbors[1].tolist() == [0, 5, 1]
        replaced = dataclasses.replace(scenario, config=other)
        parsed = parse_scenario(serialize_scenario(replaced))
        assert parsed.config == other
        run = run_simulation(replaced)
        assert np.array_equal(run.references, run_simulation(parsed).references)
        assert not np.array_equal(run.references, run_simulation(scenario).references)

    def test_invalid_config_rejected(self, default_scenario):
        cfg = default_scenario.config
        neighbors = dict(cfg.in_neighbors)
        neighbors["cf3"] = ("cf2", "cf4", "cf5")  # degenerate triple
        bad = ReferenceConfig(agents=cfg.agents, z=cfg.z, in_neighbors=neighbors)
        schedule = hold_schedule(AtCoordinates(), 1.0)
        params = SimParams(dt=0.01, duration=1.0)
        with pytest.raises(ConfigError, match="containment"):
            run_simulation(make_scenario(bad, schedule, params))


class TestTickMap:
    """One map per tick in place of ``substeps`` Euler substeps."""

    def test_is_the_substep_matrix_to_the_substeps(self):
        params = SimParams(dt=0.001, kp=2500.0, kd=100.0)
        dt, kp, kd = params.dt, params.kp, params.kd
        a = np.array([[1 - dt**2 * kp, dt - dt**2 * kd], [-dt * kp, 1 - dt * kd]])
        np.testing.assert_array_equal(tick_map(params), np.linalg.matrix_power(a, 10))
        e, v = 0.3, -0.2  # one substep, as the Euler loop writes it
        v1 = v + dt * (kp * (0.0 - e) - kd * v)
        np.testing.assert_allclose(a @ [e, v], [e + dt * v1, v1], rtol=0, atol=1e-16)

    def test_overflow_is_inf_not_a_warning(self):
        a_s = tick_map(SimParams(dt=1e-4, kp=1e12, kd=1.0))
        assert not np.isfinite(a_s).all()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_followers=st.integers(0, 6),
        kp=st.floats(1.0, 10_000.0),
        kd=st.floats(0.5, 300.0),
        substeps=st.sampled_from([1, 2, 5, 10, 20]),
        delay=st.integers(0, 3),
    )
    def test_matches_euler_substeps(self, seed, n_followers, kp, kd, substeps, delay):
        # 0 followers draws the default layout instead: its followers cf3
        # and cf4 read each other, so the delay enters the loop's modes
        # (random_config's followers read only earlier agents).
        rng = np.random.default_rng(seed)
        if n_followers == 0:
            cfg = load_default_scenario().config
        else:
            cfg = random_config(rng, n_followers)
        matrices = FormationMatrices.from_config(cfg)
        params = SimParams(
            dt=0.01 / substeps, kp=kp, kd=kd, delay_ticks=delay, duration=1.0
        )
        assume(closed_loop_radius(matrices, params) < 1.0)
        schedule = random_schedule(rng)
        start = {
            fid: cfg.reference_positions()[cfg.index_of(fid)]
            + np.append(rng.uniform(-0.3, 0.3, 2), 0.0)
            for fid in cfg.follower_ids
        }
        trace = run_simulation(
            make_scenario(cfg, schedule, params), initial_positions=start
        )
        oracle = euler_oracle(cfg, matrices, schedule, params, start)
        # Rounding differs, so the match is to 1e-12 of the trace's scale
        # (a lightly damped loop can swing to tens of metres).
        scale = max(1.0, float(np.abs(oracle).max()))
        np.testing.assert_allclose(trace.positions, oracle, rtol=0, atol=1e-12 * scale)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_followers=st.integers(1, 37),
        substeps=st.sampled_from([1, 2, 10, 100]),
        delay=st.integers(0, 3),
        offset=st.sampled_from([0.0, 0.3, 3.0]),
    )
    def test_bit_identical_to_the_plain_loop(
        self, seed, n_followers, substeps, delay, offset
    ):
        # test_matches_euler_substeps matches to 1e-12 only; this pins every
        # bit of both arrays, -0.0 apart from 0.0.
        rng = np.random.default_rng(seed)
        cfg = random_config(rng, n_followers)
        schedule = random_schedule(rng)
        params = SimParams(dt=0.01 / substeps, delay_ticks=delay, duration=4.0)
        scenario = make_scenario(cfg, schedule, params)
        assume(closed_loop_radius(scenario.config.matrices, params) < 1.0)
        start = {
            aid: p + np.append(rng.uniform(-offset, offset, 2), 0.0)
            for aid, p in zip(cfg.ids, cfg.reference_positions())
        }
        trace = run_simulation(scenario, initial_positions=start)
        positions, references = tick_loop_oracle(scenario, start)
        assert np.array_equal(trace.positions.view(np.uint64), positions.view(np.uint64))
        assert np.array_equal(
            trace.references.view(np.uint64), references.view(np.uint64)
        )

    def test_tick_grid(self, default_scenario):
        schedule = default_scenario.schedule
        times = tick_times(schedule, SimParams(duration=2.0))
        assert len(times) == 201 and times[0] == schedule.t_start
        assert times[-1] == pytest.approx(schedule.t_start + 2.0)
        # None covers the schedule span plus a 10 s hold.
        span = schedule.t_end - schedule.t_start
        assert len(tick_times(schedule, SimParams())) == round((span + 10.0) * 100) + 1

    @settings(max_examples=50, deadline=None)
    @given(
        span=st.floats(0.0, 50.0),
        rate=st.floats(1.0, 1000.0),
        t_start=st.floats(-1e7, 1e7),
    )
    def test_grid_size_counts_the_grid(self, span, rate, t_start):
        # The memory budget counts ticks with grid_size, allocating nothing.
        assert grid_size(span, rate) == len(tick_grid(t_start, span, rate))


def gathered_ticks(scenario, stride=simulation._STRIDE):
    """``run_simulation(scenario)`` and the number of ticks whose follower
    references it gathered, counted by its ``(F, 1, 3)`` matmuls."""
    with mock.patch.object(simulation.np, "matmul", wraps=np.matmul) as spy, \
            mock.patch.object(simulation, "_STRIDE", stride):
        trace = run_simulation(scenario)
    outs = [call.kwargs.get("out") for call in spy.call_args_list]
    return trace, sum(out is not None and out.shape[1:] == (1, 3) for out in outs)


class TestFixedPoint:
    """The loop stops at the run's bitwise fixed point and fills the rest."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_followers=st.integers(1, 20),
        substeps=st.sampled_from([1, 10, 100]),
        delay=st.integers(0, 3),
        offset=st.sampled_from([0.0, 0.3, 3.0]),
        hold=st.floats(5.0, 20.0),
        t_start=st.sampled_from([0.0, -7.25, 1000.0]),
        ramp_end=st.sampled_from([None, 0.5, 1.0, 1.2]),
    )
    def test_bit_identical_to_the_plain_loop_through_the_hold(
        self, seed, n_followers, substeps, delay, offset, hold, t_start, ramp_end
    ):
        # The plane sits at z = 0 and every other agent starts at z = -0.0,
        # so a state whose bits differ only in a zero's sign must not stop
        # the loop. A ramp can end inside the schedule, at its end or
        # after it, where the leaders' references move on.
        rng = np.random.default_rng(seed)
        cfg = dataclasses.replace(random_config(rng, n_followers), z=0.0)
        phases = tuple(
            dataclasses.replace(ph, t0=ph.t0 + t_start, tf=ph.tf + t_start)
            for ph in random_schedule(rng).phases
        )
        span = phases[-1].tf - t_start
        ramp = None
        if ramp_end is not None:
            ramp = TranslationRamp(t0=t_start, tf=t_start + ramp_end * span, end=(0.4, -0.3))
        schedule = PhaseSchedule(phases=phases, translation=ramp)
        params = SimParams(dt=0.01 / substeps, delay_ticks=delay, duration=span + hold)
        scenario = make_scenario(cfg, schedule, params)
        assume(closed_loop_radius(scenario.config.matrices, params) < 1.0)
        start = {
            aid: p + np.append(rng.uniform(-offset, offset, 2), 0.0)
            for aid, p in zip(cfg.ids, cfg.reference_positions())
        }
        for aid in cfg.ids[::2]:
            start[aid][2] = -0.0
        positions, references = tick_loop_oracle(scenario, start)
        # A stride of 1 stops on the fixed point's first tick, the real
        # stride up to 15 ticks later; both must give the plain loop's bits.
        for stride in (1, simulation._STRIDE):
            with mock.patch.object(simulation, "_STRIDE", stride):
                trace = run_simulation(scenario, initial_positions=start)
            assert np.array_equal(
                trace.positions.view(np.uint64), positions.view(np.uint64)
            )
            assert np.array_equal(
                trace.references.view(np.uint64), references.view(np.uint64)
            )
        # The hold's desired rows repeat the first held row: every tick
        # sampled and mapped gives the same bits.
        _, q, d = schedule.sample(trace.times)
        desired = cfg.reference_positions() @ np.swapaxes(q, -1, -2) + d[:, None, :]
        assert np.array_equal(trace.desired.view(np.uint64), desired.view(np.uint64))

    @pytest.mark.parametrize("delay", [0, 1, 3])
    def test_positions_that_repeat_while_the_velocity_moves_are_no_fixed_point(
        self, default_scenario, delay
    ):
        # 1e8 m out, a leader 40 ulps off its held reference stays put for
        # ticks 0 to 7 while its velocity builds, then moves.
        cfg = default_scenario.config
        far = dataclasses.replace(
            cfg, agents=tuple(dataclasses.replace(a, x=a.x + 1e8) for a in cfg.agents)
        )
        params = SimParams(duration=1.0, delay_ticks=delay)
        scenario = make_scenario(far, hold_schedule(AtCoordinates(), 0.01), params)
        lead = far.reference_positions()[0]
        start = {far.ids[0]: lead + [40 * math.ulp(lead[0]), 0.0, 0.0]}
        trace = run_simulation(scenario, initial_positions=start)
        positions, references = tick_loop_oracle(scenario, start)
        assert positions[7, 0, 0] == positions[0, 0, 0] != positions[8, 0, 0]
        assert np.array_equal(trace.positions.view(np.uint64), positions.view(np.uint64))
        assert np.array_equal(trace.references.view(np.uint64), references.view(np.uint64))

    def test_a_settled_run_stops_within_one_stride(self, default_scenario):
        every_trace, every = gathered_ticks(default_scenario, stride=1)
        trace, strided = gathered_ticks(default_scenario)
        ticks, delay = len(trace.times) - 1, default_scenario.params.delay_ticks
        # The stride-1 loop stops at the fixed point K after K + 1 gathers;
        # the strided loop at the first look at or after it.
        assert every <= strided < every + simulation._STRIDE
        assert strided < ticks - 800
        positions, references = tick_loop_oracle(default_scenario)
        for run in (every_trace, trace):
            assert np.array_equal(run.positions.view(np.uint64), positions.view(np.uint64))
            assert np.array_equal(run.references.view(np.uint64), references.view(np.uint64))
        # Every row from K - delay on is the last, as the stop requires.
        bits = positions.view(np.uint64)
        assert (bits[every - 1 - delay :] == bits[-1]).all()

    def test_a_run_that_ends_before_it_settles_integrates_every_tick(
        self, default_scenario
    ):
        # Half a second of hold: the loop looks, finds no fixed point and
        # gathers references on every tick.
        params = dataclasses.replace(default_scenario.params, duration=30.5)
        scenario = dataclasses.replace(default_scenario, params=params)
        trace, gathered = gathered_ticks(scenario)
        assert gathered == len(trace.times)
        positions, references = tick_loop_oracle(scenario)
        assert np.array_equal(trace.positions.view(np.uint64), positions.view(np.uint64))
        assert np.array_equal(trace.references.view(np.uint64), references.view(np.uint64))


class TestClosedLoopRadius:
    """The discrete stability certificate of the simulated loop."""

    @pytest.mark.parametrize("delay", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "gains", [(2500.0, 100.0), (2500.0, 5.0), (900.0, 20.0), (1e6, 2000.0)]
    )
    def test_equals_lifted_tick_matrix(self, default_setup, delay, gains):
        _, matrices = default_setup
        params = SimParams(kp=gains[0], kd=gains[1], delay_ticks=delay)
        lifted = np.abs(np.linalg.eigvals(lifted_tick_matrix(matrices, params))).max()
        assert closed_loop_radius(matrices, params) == pytest.approx(lifted, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_lifted_tick_matrix_random_weights(self, seed):
        # Random rows of W over any three other agents, so the follower
        # block has generic, simple eigenvalues (a layout whose followers
        # only read earlier agents makes it nilpotent, and the lifted
        # matrix's repeated roots are then known only to about eps**(1/m)).
        rng = np.random.default_rng(seed)
        n = 3 + int(rng.integers(1, 7))
        others = [np.delete(np.arange(n), row) for row in range(3, n)]
        neighbors = np.array([rng.choice(o, 3, replace=False) for o in others])
        w_mat = -np.eye(n)
        w_mat[np.arange(3, n)[:, None], neighbors] = rng.dirichlet([1.0] * 3, n - 3)
        matrices = FormationMatrices(
            W=w_mat,
            L=np.zeros((n, 3)),
            H=np.zeros((n, 3)),
            neighbors=neighbors,
        )
        for delay in (0, 1, 3):
            kd = float(rng.uniform(5.0, 80.0))
            params = SimParams(kp=900.0, kd=kd, delay_ticks=delay)
            lifted = lifted_tick_matrix(matrices, params)
            expected = np.abs(np.linalg.eigvals(lifted)).max()
            assert closed_loop_radius(matrices, params) == pytest.approx(
                expected, rel=1e-9
            )

    @pytest.mark.parametrize(
        "overrides, rho",
        [
            ({}, 0.768),
            ({"kd": 5.0, "delay_ticks": 3}, 1.009),
            ({"kp": 1e6, "kd": 2000.0}, 123.0),
        ],
    )
    def test_regression_cases(self, default_scenario, default_setup, overrides, rho):
        _, matrices = default_setup
        params = dataclasses.replace(default_scenario.params, **overrides)
        assert closed_loop_radius(matrices, params) == pytest.approx(rho, abs=1e-3 * rho)

    def test_leaders_only_is_the_tick_map(self):
        cfg = random_config(np.random.default_rng(0), 0)
        matrices = FormationMatrices.from_config(cfg)
        params = SimParams(kp=25.0, kd=10.0)
        expected = np.abs(np.linalg.eigvals(tick_map(params))).max()
        assert closed_loop_radius(matrices, params) == expected

    def test_overflowing_tick_map_is_infinite(self, default_setup):
        _, matrices = default_setup
        assert closed_loop_radius(matrices, SimParams(dt=1e-4, kp=1e12)) == math.inf

    def test_unstable_run_grows_stable_run_settles(self, default_setup):
        # Followers released 0.3 m off their targets under frozen leaders:
        # with rho >= 1 the offset grows; with rho < 1 it decays at the
        # rate rho per tick, neither faster nor slower.
        cfg, matrices = default_setup
        targets = matrices.H @ cfg.reference_positions()[:3]

        def offsets(**gains):
            trace = frozen_leader_trace(cfg, duration=4.0, **gains)
            params = SimParams(duration=4.0, **gains)
            error = np.abs(trace.positions - targets).max(axis=(1, 2))
            return closed_loop_radius(matrices, params), error

        rho, error = offsets(kp=2500.0, kd=5.0, delay_ticks=3)
        assert rho > 1.0
        assert error[-1] > 10 * error[-201] > 10 * error[0]
        rho, error = offsets(kp=2500.0, kd=100.0)
        assert rho < 1.0
        assert 0.1 < error[60] / (rho**60 * error[0]) < 10.0
