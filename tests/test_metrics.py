"""Run metrics: separation, clearance, tracking error, convergence, validation."""

import dataclasses
import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineswarm import (
    Agent,
    AtCoordinates,
    Corridor,
    Phase,
    PhaseSchedule,
    ReferenceConfig,
    SimParams,
    SimTrace,
    corridor_clearance,
    desired_positions,
    pairwise_min_distance,
    run_simulation,
    strain_check,
    validate_run,
    verify_spectrum,
)
from affineswarm import metrics
from affineswarm.bundle import dumps_json, emit_bundle, read_bundle
from affineswarm.cli import main
from affineswarm.simulation import closed_loop_radius
from conftest import (
    hold_schedule,
    make_scenario,
    min_pair_distance_oracle,
    random_config,
    random_schedule,
    schedule_oracle,
    serialize_scenario,
    traced_peak,
)


def static_trace(positions, ticks=5, tick_rate=100.0, desired=None):
    """A trace holding the given (N, 3) positions for a few ticks."""
    pos = np.asarray(positions, dtype=float)
    stack = np.repeat(pos[None], ticks, axis=0)
    des = stack.copy() if desired is None else np.repeat(
        np.asarray(desired, dtype=float)[None], ticks, axis=0
    )
    return SimTrace(
        times=np.arange(ticks) / tick_rate,
        positions=stack,
        references=stack.copy(),
        desired=des,
    )


def layout_scenario(points):
    """A scenario holding one agent at each planar point; the first three lead."""
    agents = [
        Agent(id=f"a{i}", role="leader" if i < 3 else "follower", x=x, y=y)
        for i, (x, y) in enumerate(points)
    ]
    cfg = ReferenceConfig.from_agents(agents, z=1.0, in_neighbors={})
    return make_scenario(cfg, hold_schedule(AtCoordinates()), SimParams())


class TestPairwiseMinDistance:
    def test_static_reference_layout(self, default_scenario):
        trace = static_trace(default_scenario.config.reference_positions())
        assert pairwise_min_distance(trace, default_scenario) == 0.5

    def test_contracted_layout_is_half(self, default_scenario):
        pos = default_scenario.config.reference_positions().copy()
        pos[:, :2] *= 0.5
        assert pairwise_min_distance(static_trace(pos), default_scenario) == 0.25

    def test_single_agent_sentinel(self):
        trace = static_trace([[0.0, 0.0, 1.0]])
        assert pairwise_min_distance(trace, layout_scenario([(0.0, 0.0)])) == math.inf

    def test_minimum_over_time(self):
        pos = np.zeros((3, 2, 3))
        pos[:, 1, 0] = [2.0, 1.0, 3.0]
        trace = SimTrace(
            times=np.arange(3) / 100.0,
            positions=pos,
            references=pos.copy(),
            desired=pos.copy(),
        )
        scenario = layout_scenario([(0.0, 0.0), (2.0, 0.0)])
        assert pairwise_min_distance(trace, scenario) == 1.0


def oracle_run(seed, n_followers, offset):
    """A random layout and schedule, run from starts up to ``offset`` m off."""
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, n_followers)
    schedule = random_schedule(rng)
    params = SimParams(dt=0.005, duration=schedule.t_end + 1.0)
    scenario = make_scenario(cfg, schedule, params)
    start = {
        aid: p + np.append(rng.uniform(-offset, offset, 2), 0.0)
        for aid, p in zip(cfg.ids, cfg.reference_positions())
    }
    return scenario, run_simulation(scenario, initial_positions=start)


@st.composite
def length_operands(draw):
    """Arrays of 2 or 3 columns, plain or a reversed or strided view.

    Each row's components share a magnitude from 1e-300 to 1e300 within a
    few decades, so both their rounding and their overflow are exercised;
    some cells are ±0.0 or ±inf.
    """
    rows = draw(st.sampled_from([(), (1,), (2,), (7,), (8,), (9,), (8192,), (5, 7)]))
    columns = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Twice the rows and columns, so that a strided view has them all.
    shape = (*(2 * k for k in rows), 2 * columns)
    exponent = rng.uniform(-300.0, 300.0, (*shape[:-1], 1))
    spread = draw(st.sampled_from([0.0, 1.0, 4.0]))
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** (
        exponent + spread * rng.uniform(-1.0, 1.0, shape)
    )
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    values[special] = rng.choice([0.0, -0.0, math.inf, -math.inf], special.sum())
    view = draw(st.sampled_from(["plain", "reversed", "strided"]))
    lead = tuple(slice(k) for k in rows)
    if view == "plain":
        return np.ascontiguousarray(values[(*lead, slice(columns))])
    if view == "reversed":  # every axis, the columns too
        return np.flip(values[(*lead, slice(columns))])
    return values[(*(slice(None, None, 2) for _ in rows), slice(None, None, 2))]


@settings(max_examples=200, deadline=None)
@given(v=length_operands())
def test_lengths_are_numpys_norm_bit_for_bit(v):
    with np.errstate(over="ignore"):
        expected = np.asarray(np.linalg.norm(v, axis=-1))
        found = np.asarray(metrics._lengths(v))
    assert found.shape == expected.shape == v.shape[:-1]
    assert np.array_equal(found.view(np.uint64), expected.view(np.uint64))


class TestSmallTeamSearch:
    """Up to 7 agents the pruned search gives the dense search's float,
    whatever the trace and however it is sliced."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_followers=st.integers(0, 4),
        offset=st.sampled_from([0.0, 3.0]),
        cells=st.sampled_from([1, 7, 256]),
    )
    def test_runs_and_their_slices(self, seed, n_followers, offset, cells):
        scenario, trace = oracle_run(seed, n_followers, offset)
        t_count = len(trace.times)
        assert pairwise_min_distance(trace, scenario) == min_pair_distance_oracle(
            trace.positions
        )
        with mock.patch.object(metrics, "_CELLS", cells):
            assert t_count > metrics._CELLS
            assert pairwise_min_distance(trace, scenario) == (
                min_pair_distance_oracle(trace.positions)
            )
        k = seed % t_count
        tick = dataclasses.replace(
            trace, times=trace.times[k : k + 1], positions=trace.positions[k : k + 1]
        )
        assert pairwise_min_distance(tick, scenario) == min_pair_distance_oracle(
            tick.positions
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 7), ticks=st.integers(1, 40))
    def test_any_trace(self, seed, n, ticks):
        # Positions that follow no schedule; two agents meet at one tick.
        rng = np.random.default_rng(seed)
        scenario = layout_scenario(rng.uniform(-2.0, 2.0, (n, 2)).tolist())
        pos = rng.uniform(-2.0, 2.0, (ticks, n, 3))
        k = rng.integers(ticks)
        pos[k, 1] = pos[k, 0]
        trace = SimTrace(
            times=np.arange(ticks) / 100.0,
            positions=pos,
            references=pos.copy(),
            desired=pos.copy(),
        )
        with mock.patch.object(metrics, "_CELLS", 8):
            found = pairwise_min_distance(trace, scenario)
        assert found == min_pair_distance_oracle(pos)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), n_followers=st.integers(0, 4))
    def test_read_back_bundle(self, seed, n_followers):
        scenario, trace = oracle_run(seed, n_followers, 0.3)
        spectrum = verify_spectrum(scenario.config.matrices)
        rho = closed_loop_radius(scenario.config.matrices, scenario.params)
        run_metrics = validate_run(trace, scenario)
        with tempfile.TemporaryDirectory() as out:
            emit_bundle(out, scenario, trace, run_metrics, spectrum, rho)
            reread, reread_trace = read_bundle(out)
        assert pairwise_min_distance(reread_trace, reread) == (
            min_pair_distance_oracle(reread_trace.positions)
        )


class TestPairSearchOracle:
    """The certificate-pruned search returns the dense search's float."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n_followers=st.integers(1, 37))
    def test_plain_run(self, seed, n_followers):
        scenario, trace = oracle_run(seed, n_followers, 0.0)
        expected = min_pair_distance_oracle(trace.positions)
        assert pairwise_min_distance(trace, scenario) == expected
        # The search's first pass is the d_min pair's T cells, which a
        # 256-cell budget splits into several tick slices.
        with mock.patch.object(metrics, "_CELLS", 256):
            assert len(trace.times) > metrics._CELLS
            assert pairwise_min_distance(trace, scenario) == expected

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), n_followers=st.integers(5, 37))
    def test_far_starts_prune_little(self, seed, n_followers):
        # Starts metres off their images: the bound rules out few cells.
        scenario, trace = oracle_run(seed, n_followers, 3.0)
        expected = min_pair_distance_oracle(trace.positions)
        assert pairwise_min_distance(trace, scenario) == expected

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_followers=st.integers(5, 37),
        offset=st.sampled_from([0.0, 0.3, 3.0]),
        cells=st.sampled_from([3, 64]),
    )
    def test_chunk_boundaries(self, seed, n_followers, offset, cells):
        # Budgets of a few cells split ticks between chunks.
        scenario, trace = oracle_run(seed, n_followers, offset)
        head = dataclasses.replace(
            trace, times=trace.times[:12], positions=trace.positions[:12]
        )
        expected = min_pair_distance_oracle(head.positions)
        with mock.patch.object(metrics, "_CELLS", cells):
            assert pairwise_min_distance(head, scenario) == expected

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_followers=st.integers(1, 37),
        offset=st.sampled_from([0.0, 3.0]),
    )
    def test_read_back_bundle(self, seed, n_followers, offset):
        scenario, trace = oracle_run(seed, n_followers, offset)
        spectrum = verify_spectrum(scenario.config.matrices)
        rho = closed_loop_radius(scenario.config.matrices, scenario.params)
        run_metrics = validate_run(trace, scenario)
        with tempfile.TemporaryDirectory() as out:
            emit_bundle(out, scenario, trace, run_metrics, spectrum, rho)
            reread, reread_trace = read_bundle(out)
        expected = min_pair_distance_oracle(reread_trace.positions)
        assert pairwise_min_distance(reread_trace, reread) == expected
        assert run_metrics.min_pairwise_distance == min_pair_distance_oracle(
            trace.positions
        )


def swarm_shape_run(n_followers=40, seed=0):
    """A well-tracked team in the benchmark's swarm shape, and its trace.

    Followers at least 0.5 m apart inside a 10 m leader triangle, each
    listening to the leaders, under a slow uniform contraction to 0.875
    with stiff gains.
    """
    rng = np.random.default_rng(seed)
    angles = np.radians([90.0, 210.0, 330.0])
    leaders = 10.0 / np.sqrt(3.0) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    points = list(leaders)
    while len(points) < 3 + n_followers:
        bary = rng.dirichlet([1.0, 1.0, 1.0])
        p = bary @ leaders
        if bary.min() > 0.05 and min(np.hypot(*(p - q)) for q in points) >= 0.5:
            points.append(p)
    agents = [
        Agent(id=f"a{i}", role="leader" if i < 3 else "follower", x=x, y=y)
        for i, (x, y) in enumerate(np.array(points).tolist())
    ]
    graph = {f"a{i}": ("a0", "a1", "a2") for i in range(3, len(points))}
    cfg = ReferenceConfig.from_agents(agents, z=1.0, in_neighbors=graph)
    contraction = Phase(
        t0=0.0,
        tf=2.5,
        start=AtCoordinates(),
        end=AtCoordinates(lambda1=0.875, lambda2=0.875),
    )
    params = SimParams(kp=2500.0, kd=100.0, duration=4.0)
    scenario = make_scenario(cfg, PhaseSchedule(phases=(contraction,)), params)
    return scenario, run_simulation(scenario)


def test_pair_search_work_on_a_well_tracked_swarm():
    # The d_min pair bounds the minimum so closely that few other cells
    # are searched: under a quarter of the 3N T cells of the 3N nearest pairs.
    # A tick slice is charged its largest count at each of its ticks.
    scenario, trace = swarm_shape_run()
    cells, cells_min = [], metrics._cells_min

    def counting(positions, pairs, counts):
        n = positions.shape[1]
        for ticks in metrics._tick_chunks(len(counts), max(n, int(counts.max()))):
            cells.append(len(counts[ticks]) * int(counts[ticks].max()))
        return cells_min(positions, pairs, counts)

    with mock.patch.object(metrics, "_cells_min", counting):
        found = pairwise_min_distance(trace, scenario)
    assert found == min_pair_distance_oracle(trace.positions)
    t_count, n, _ = trace.positions.shape
    assert n >= 40
    assert sum(cells) < 3 * n * t_count / 4


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t_count=st.integers(1, 40),
    n=st.integers(2, 12),
    zeros=st.sampled_from(["none", "span", "all"]),
    cells=st.sampled_from([1, 7, 64]),
)
def test_cells_min_brackets_the_requested_cells(seed, t_count, n, zeros, cells):
    # Each tick asks for its own count of leading pairs. The evaluator may
    # take more of them, but never a pair past the largest count.
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-2.0, 2.0, (t_count, n, 3))
    pairs = np.stack(np.triu_indices(n, k=1))
    pairs = pairs[:, rng.permutation(pairs.shape[1])]
    counts = rng.integers(0, rng.integers(pairs.shape[1]) + 2, t_count)
    if zeros == "span":  # whole slices with nothing to evaluate
        lo, hi = sorted(rng.integers(0, t_count + 1, 2))
        counts[lo:hi] = 0
    elif zeros == "all":
        counts[:] = 0
    with mock.patch.object(metrics, "_CELLS", cells):
        found = metrics._cells_min(positions, pairs, counts)
    if not counts.any():
        assert found == math.inf
        return
    dist = np.linalg.norm(positions[:, pairs[0]] - positions[:, pairs[1]], axis=-1)
    requested = np.arange(pairs.shape[1]) < counts[:, None]
    assert dist[:, : counts.max()].min() <= found <= dist[requested].min()


def test_cells_min_takes_a_wide_tick_cells_at_a_time():
    # 200 agents, and every tick needs all 19,900 pairs: more than _CELLS.
    rng = np.random.default_rng(0)
    positions = rng.uniform(-2.0, 2.0, (3, 200, 3))
    pairs = np.stack(np.triu_indices(200, k=1))
    counts = np.full(3, pairs.shape[1])
    assert counts[0] > 2 * metrics._CELLS
    found = []
    scratch = traced_peak(
        lambda: found.append(metrics._cells_min(positions, pairs, counts))
    )
    assert found == [min_pair_distance_oracle(positions)]
    # A few (_CELLS, 3) arrays of pair differences, not (19,900, 3) ones.
    assert scratch < 4 * 24 * metrics._CELLS


@pytest.mark.parametrize("n_followers", [1, 9])
def test_strided_trace_is_searched_without_a_copy(n_followers):
    # Every other tick of a run: a view whose ticks are 2 rows apart.
    scenario, trace = oracle_run(7, n_followers, 0.3)
    strided = dataclasses.replace(
        trace, times=trace.times[::2], positions=trace.positions[::2]
    )
    packed = dataclasses.replace(
        strided, positions=np.ascontiguousarray(strided.positions)
    )
    assert not strided.positions.flags.c_contiguous
    expected = min_pair_distance_oracle(strided.positions)
    assert pairwise_min_distance(strided, scenario) == expected
    assert pairwise_min_distance(packed, scenario) == expected
    peak = traced_peak(lambda: pairwise_min_distance(strided, scenario))
    packed_peak = traced_peak(lambda: pairwise_min_distance(packed, scenario))
    assert peak - packed_peak < strided.positions.nbytes / 4


class TestChunkedReductions:
    """``measured_delta`` and the corridor clearance, reduced in tick chunks,
    are the floats the whole-trace formulas give."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_followers=st.integers(25, 37),
        offset=st.sampled_from([0.0, 0.3]),
        half_span=st.floats(0.01, 1.0),
        y_shift=st.floats(-0.5, 0.5),
    )
    def test_equal_to_whole_trace_formulas(
        self, seed, n_followers, offset, half_span, y_shift
    ):
        scenario, trace = oracle_run(seed, n_followers, offset)
        t_count, n, _ = trace.positions.shape
        step = metrics._CELLS // n
        if t_count % step == 0:  # keep a partial last chunk
            t_count -= 1
            trace = dataclasses.replace(
                trace,
                times=trace.times[:t_count],
                positions=trace.positions[:t_count],
                references=trace.references[:t_count],
                desired=trace.desired[:t_count],
            )
        assert t_count > 2 * step and t_count % step
        # Around one agent's x at mid-run, so some tick is inside the span.
        x_mid, y_mid, _ = trace.positions[t_count // 2, 3]
        corridor = Corridor(
            x_start=x_mid - half_span,
            x_end=x_mid + half_span,
            width=1.0,
            center_y=y_mid + y_shift,
        )
        scenario = dataclasses.replace(scenario, corridor=corridor)
        radius = scenario.safety.agent_radius

        x, y = trace.positions[..., 0], trace.positions[..., 1]
        inside = (x >= corridor.x_start) & (x <= corridor.x_end)
        wall_gap = corridor.half_width - np.abs(y - corridor.center_y)
        clearance = float(wall_gap[inside].min() - radius)
        images = desired_positions(scenario.config, scenario.schedule, trace.times)
        delta = float(np.linalg.norm(trace.positions - images, axis=-1).max())

        run = validate_run(trace, scenario)
        assert run.measured_delta == delta
        assert run.min_corridor_clearance == clearance
        assert corridor_clearance(trace, corridor, radius) == clearance
        # The logged columns are not read: any finite values give the same run.
        rng = np.random.default_rng(seed)
        logged = dict(
            desired=rng.uniform(-1e3, 1e3, trace.desired.shape),
            references=rng.uniform(-1e3, 1e3, trace.references.shape),
        )
        assert validate_run(dataclasses.replace(trace, **logged), scenario) == run


class TestCorridorClearance:
    def test_centered_agent(self):
        corridor = Corridor(x_start=0.0, x_end=1.0, width=1.2)
        trace = static_trace([[0.5, 0.0, 1.0]])
        assert corridor_clearance(trace, corridor, 0.065) == pytest.approx(0.535)

    def test_touching_wall(self):
        corridor = Corridor(x_start=0.0, x_end=1.0, width=1.2)
        trace = static_trace([[0.5, 0.6 - 0.065, 1.0]])
        assert corridor_clearance(trace, corridor, 0.065) == pytest.approx(0.0, abs=1e-15)

    def test_penetration_is_negative(self):
        corridor = Corridor(x_start=0.0, x_end=1.0, width=1.2)
        trace = static_trace([[0.5, 0.58, 1.0]])
        assert corridor_clearance(trace, corridor, 0.065) < 0.0

    def test_outside_span_sentinel(self):
        corridor = Corridor(x_start=10.0, x_end=11.0, width=1.2)
        trace = static_trace([[0.5, 0.0, 1.0]])
        assert corridor_clearance(trace, corridor, 0.065) == math.inf

    def test_translation_invariance(self, default_scenario):
        rng = np.random.default_rng(3)
        pos = rng.uniform(-1, 1, size=(4, 3))
        pos[:, 0] += 0.5
        corridor = Corridor(x_start=0.0, x_end=1.5, width=2.0, center_y=0.1)
        base = corridor_clearance(static_trace(pos), corridor, 0.065)
        offset = np.array([3.7, -1.2, 0.0])
        shifted_corridor = Corridor(
            x_start=corridor.x_start + offset[0],
            x_end=corridor.x_end + offset[0],
            width=corridor.width,
            center_y=corridor.center_y + offset[1],
        )
        shifted = corridor_clearance(
            static_trace(pos + offset), shifted_corridor, 0.065
        )
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Corridor(x_start=0.0, x_end=1.0, width=0.0)
        with pytest.raises(ValueError):
            Corridor(x_start=1.0, x_end=0.0, width=1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(x_start=0.0, x_end=1.0, width=math.nan), "width must be positive"),
            (dict(x_start=0.0, x_end=math.nan, width=1.0), "x_end must exceed"),
            (dict(x_start=math.nan, x_end=1.0, width=1.0), "x_end must exceed"),
            (
                dict(x_start=0.0, x_end=1.0, width=1.0, center_y=math.nan),
                "corridor center_y must be finite, got nan",
            ),
            (
                dict(x_start=0.0, x_end=math.inf, width=math.inf),
                "corridor x_end must be finite, got inf",
            ),
        ],
    )
    def test_rejects_nan_geometry(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Corridor(**kwargs)


@pytest.fixture(scope="module")
def held_default(default_scenario):
    """The default layout under a schedule that holds it: its rows are commanded."""
    return dataclasses.replace(default_scenario, schedule=hold_schedule(AtCoordinates()))


class TestTrackingErrorMetrics:
    def test_perfect_tracking_is_zero(self, held_default):
        trace = static_trace(held_default.config.reference_positions())
        assert validate_run(trace, held_default).measured_delta == 0.0

    def test_single_excursion(self, held_default):
        trace = static_trace(held_default.config.reference_positions())
        pos = trace.positions.copy()
        pos[2, 4, 0] += 0.005
        bumped = dataclasses.replace(trace, positions=pos)
        metrics = validate_run(bumped, held_default)
        assert metrics.measured_delta == pytest.approx(0.005, abs=1e-15)

    def test_recomputation_is_identical(self, default_scenario):
        trace = static_trace(default_scenario.config.reference_positions())
        first = validate_run(trace, default_scenario)
        second = validate_run(trace, default_scenario)
        assert first == second


@pytest.fixture(scope="module")
def settled_run(default_scenario):
    """A hold of the default layout from perturbed starts: its scenario and trace."""
    cfg = default_scenario.config
    rng = np.random.default_rng(9)
    initial = {
        fid: cfg.reference_positions()[cfg.index_of(fid)]
        + np.append(rng.uniform(-0.2, 0.2, 2), 0.0)
        for fid in cfg.follower_ids
    }
    scenario = make_scenario(
        cfg,
        hold_schedule(AtCoordinates(), duration=1.0),
        SimParams(duration=6.0),
    )
    return scenario, run_simulation(scenario, initial_positions=initial)


class TestConvergenceCheck:
    """``validate_run``'s convergence to ``H x_L`` over the final hold."""

    def test_settled_run_converges(self, settled_run):
        scenario, trace = settled_run
        metrics = validate_run(trace, scenario)
        assert metrics.converged
        assert metrics.residual <= 1e-4

    def test_truncated_run_does_not_converge(self, default_scenario):
        scenario = dataclasses.replace(
            default_scenario,
            params=SimParams(dt=0.01, duration=15.0),  # stops mid-maneuver
        )
        metrics = validate_run(run_simulation(scenario), scenario)
        assert metrics.converged is False
        assert metrics.residual is None

    def test_already_at_targets_gives_zero_residual(self, held_default):
        trace = static_trace(held_default.config.reference_positions())
        metrics = validate_run(trace, held_default)
        assert metrics.converged
        assert metrics.residual <= 1e-12


def violation_runs_oracle(times, strains, floor):
    """The ``(t_first, t_last)`` of every maximal run of ticks below ``floor``."""
    runs, first = [], None
    for k, strain in enumerate(strains):
        if strain < floor and first is None:
            first = k
        elif not strain < floor and first is not None:
            runs.append((times[first], times[k - 1]))
            first = None
    if first is not None:
        runs.append((times[first], times[-1]))
    return runs


class TestStrainCheck:
    """The one certificate behind ``check``, the simulate precheck and ``validate``."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_followers=st.integers(0, 6),
        delta=st.floats(0.0, 0.5),
    )
    def test_matches_a_plain_oracle(self, seed, n_followers, delta):
        rng = np.random.default_rng(seed)
        s = make_scenario(random_config(rng, n_followers), random_schedule(rng), SimParams())
        report = strain_check(s, delta)

        xy = s.config.planar_positions()
        i, j = np.triu_indices(len(xy), k=1)
        d_min = float(np.linalg.norm(xy[i] - xy[j], axis=1).min())
        floor = 2 * (delta + s.safety.agent_radius) / d_min
        rate, schedule = s.params.control_rate, s.schedule
        span = schedule.t_end - schedule.t_start
        times = [schedule.t_start + k / rate for k in range(round(span * rate) + 1)]
        strains = [min(schedule_oracle(schedule, t)[0][2:4]) for t in times]

        assert report.d_min == d_min
        assert report.lambda_min_bound == floor
        assert report.min_strain_observed == min(strains)
        assert report.passed == (min(strains) >= floor)
        assert report.violations == violation_runs_oracle(times, strains, floor)

    @pytest.mark.parametrize("delta", [-0.01, -math.inf, math.nan])
    def test_delta_below_zero_or_nan_is_refused(self, default_scenario, delta):
        with pytest.raises(ValueError, match="delta must be non-negative"):
            strain_check(default_scenario, delta)

    def test_budget_reproduces_check_document(self, default_scenario, tmp_path, capsys):
        s = default_scenario
        path = tmp_path / "default.json"
        path.write_text(serialize_scenario(s))
        assert main(["check", str(path)]) == 0
        report = strain_check(s, s.safety.delta_budget)
        assert capsys.readouterr().out == dumps_json(report.to_dict())

    def test_measured_delta_reproduces_validate_run(self, default_scenario):
        s = dataclasses.replace(default_scenario, params=SimParams(dt=0.01))
        metrics = validate_run(run_simulation(s), s)
        report = strain_check(s, metrics.measured_delta)
        assert metrics.lambda_min_required == report.lambda_min_bound
        assert metrics.min_strain_commanded == report.min_strain_observed
        assert metrics.safety_pass == (
            report.passed and metrics.min_pairwise_distance >= 2 * s.safety.agent_radius
        )


class TestValidateRun:
    def test_reference_parameter_chain(self, default_scenario):
        # A synthetic trace with a 0.01 m worst excursion from a held
        # contraction to half size reproduces the bound
        # 2 (0.01 + 0.065) / 0.5 = 0.3, which the commanded minimum strain
        # of 0.5 satisfies.
        cfg = default_scenario.config
        half = AtCoordinates(lambda1=0.5, lambda2=0.5)
        images = cfg.reference_positions() * [0.5, 0.5, 1.0]
        ticks = 8
        pos = np.repeat(images[None], ticks, axis=0)
        pos[3, 0, 0] += 0.01
        trace = SimTrace(
            times=np.arange(ticks) / 100.0,
            positions=pos,
            references=np.repeat(images[None], ticks, axis=0),
            desired=np.repeat(images[None], ticks, axis=0),
        )
        scenario = dataclasses.replace(
            default_scenario, schedule=hold_schedule(half), corridor=None
        )
        metrics = validate_run(trace, scenario)
        assert metrics.measured_delta == pytest.approx(0.01, abs=1e-15)
        assert metrics.lambda_min_required == pytest.approx(0.3, abs=1e-12)
        assert metrics.min_strain_commanded == 0.5
        assert metrics.safety_pass

    def test_understrained_schedule_fails(self, default_scenario):
        cfg = default_scenario.config
        schedule = PhaseSchedule(
            phases=(
                Phase(
                    0.0,
                    10.0,
                    AtCoordinates(),
                    AtCoordinates(lambda1=0.25, lambda2=0.25),
                ),
            ),
        )
        trace = static_trace(cfg.reference_positions())
        pos = trace.positions.copy()
        pos[2, 0, 0] += 0.01
        bumped = SimTrace(
            times=trace.times,
            positions=pos,
            references=trace.references,
            desired=trace.desired,
        )
        scenario = dataclasses.replace(
            default_scenario, schedule=schedule, corridor=None
        )
        metrics = validate_run(bumped, scenario)
        assert metrics.min_strain_commanded == pytest.approx(0.25, abs=1e-12)
        assert metrics.lambda_min_required == pytest.approx(0.3, abs=1e-12)
        assert not metrics.safety_pass

    def test_zero_deformation_run_passes(self, default_scenario):
        cfg = default_scenario.config
        refs = cfg.reference_positions()
        trace = SimTrace(
            times=np.arange(6) / 100.0,
            positions=np.repeat(refs[None], 6, axis=0),
            references=np.repeat(refs[None], 6, axis=0),
            desired=np.repeat(refs[None], 6, axis=0),
        )
        scenario = dataclasses.replace(
            default_scenario,
            schedule=hold_schedule(AtCoordinates(), duration=1.0),
            corridor=None,
        )
        metrics = validate_run(trace, scenario)
        assert metrics.safety_pass
        assert metrics.converged
        assert metrics.min_corridor_clearance is None

    def test_corridor_metric_included(self, default_scenario, settled_run):
        _, trace = settled_run
        scenario = dataclasses.replace(
            default_scenario,
            schedule=hold_schedule(AtCoordinates(), duration=1.0),
            corridor=Corridor(x_start=-1.0, x_end=1.0, width=4.0),
        )
        metrics = validate_run(trace, scenario)
        assert metrics.min_corridor_clearance is not None
        assert metrics.min_corridor_clearance > 0.0

    def test_metrics_dict_schema(self, default_scenario, settled_run):
        _, trace = settled_run
        scenario = dataclasses.replace(
            default_scenario,
            schedule=hold_schedule(AtCoordinates(), duration=1.0),
            corridor=None,
        )
        metrics = validate_run(trace, scenario)
        assert set(metrics.to_dict()) == {
            "measured_delta",
            "min_pairwise_distance",
            "min_corridor_clearance",
            "converged",
            "residual",
            "lambda_min_required",
            "min_strain_commanded",
            "safety_pass",
        }
