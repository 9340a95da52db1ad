"""Post-run metrics: tracking error, separation, clearance, convergence.

All metrics are pure functions of an immutable trace; recomputing them
yields identical values. Distances between agents are center-to-center;
corridor clearance is surface-to-wall (agent radius subtracted).
``strain_check`` is the paper's certificate, before and after a run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .phases import SafetyReport, check_schedule_safety
from .scenario import Corridor, Scenario
from .simulation import SimTrace
from .transform import min_scaling_bound, transform_points

_CELLS = 1 << 13  # (tick, pair) cells the pair search evaluates at once
CONVERGENCE_TOL = 1e-4  # follower residual a converged run stays within, m
LEADER_DRIFT_TOL = 1e-9  # leader motion the convergence window tolerates, m
_PAD_ULPS = 64  # rounding allowance of the pair search's bound


def _tick_chunks(t_count: int, n: int) -> list[slice]:
    """Slices of ``_CELLS // n`` ticks (at least one) covering ``t_count`` ticks.

    A reduction over a trace's ``(T, N, ...)`` arrays runs one slice at a
    time, so its temporaries stay near ``_CELLS`` agent rows whatever the
    trace's size.
    """
    step = max(_CELLS // max(n, 1), 1)
    return [slice(lo, lo + step) for lo in range(0, t_count, step)]


def _lengths(v: np.ndarray) -> np.ndarray:
    """Each row's Euclidean length, for rows of 2 or 3 columns.

    These are the floats numpy's ``norm(v, axis=-1)`` returns, bit for bit:
    the norm squares ``v`` and sums the last axis left to right before its
    square root. Adding the columns in that order skips a reduction over a
    length-3 axis, which is several times slower.
    """
    s = v * v
    total = s[..., 0] + s[..., 1]
    if v.shape[-1] == 3:
        total += s[..., 2]
    return np.sqrt(total)


def _pair_table(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of rows of ``points``: distances (P,) and row indices (2, P)."""
    pairs = np.stack(np.triu_indices(len(points), k=1))
    return _lengths(points[pairs[0]] - points[pairs[1]]), pairs


def _cells_min(positions: np.ndarray, pairs: np.ndarray, counts: np.ndarray) -> float:
    """Minimum distance over at least the cells ``(k, pairs[:, q])``, ``q < counts[k]``.

    ``positions`` is a (T, N, 3) array in any memory layout. The ticks run
    in the slices of ``_tick_chunks(T, max(N, counts.max()))``, and each
    slice evaluates its largest count ``c`` of leading pairs at all of its
    ticks, at most ``_CELLS`` pair columns at a time; a slice whose ``c``
    is 0 is skipped. The extra cells are real pairs too, so the minimum is
    never below the all-pairs one. Scratch stays near ``_CELLS`` cells and
    agent rows, with no copy of ``positions``; +inf when there are no cells.
    """
    best = math.inf
    for ticks in _tick_chunks(len(counts), max(positions.shape[1], int(counts.max()))):
        block, c = positions[ticks], int(counts[ticks].max())
        for lo in range(0, c, _CELLS):
            cols = pairs[:, lo : min(lo + _CELLS, c)]
            diff = block.take(cols[0], axis=1)
            diff -= block.take(cols[1], axis=1)
            best = min(best, float(_lengths(diff).min()))
    return best


def pairwise_min_distance(trace: SimTrace, scenario: Scenario) -> float:
    """Minimum center-to-center distance over all ticks and agent pairs.

    ``trace`` holds ``scenario``'s agents in matrix order, at any positions
    and in any memory layout. The result is the float an all-pairs search
    returns, found from fewer pairs by the paper's bound: when every agent
    is within ``e_k`` of its commanded image ``Q_k a + d_k`` at tick ``k``,
    ``|p_i - p_j| >= s_k |a_i - a_j| - 2 e_k`` with
    ``s_k = min(lambda1, lambda2)``. One evaluator, ``_cells_min``, takes
    each tick's count of leading pairs in tick slices of at most ``_CELLS``
    cells. When ``N <= 7`` (at most 21 pairs) the bound could rule out
    little, so every pair is searched at every tick and the schedule is
    not sampled. Otherwise the pair nearest in the reference layout, the
    one behind ``d_min``, gives an upper bound ``ub`` on the minimum over
    its ``T`` ticks. At tick ``k`` only the pairs with
    ``|a_i - a_j| <= (ub + 2 e_k + pad) / s_k`` can come closer than
    ``ub``; ``pad`` is ``_PAD_ULPS`` ulps of the largest value involved,
    so rounding cannot skip the closest pair. Returns +inf when the trace
    has fewer than two agents.
    """
    t_count, n, _ = trace.positions.shape
    if n < 2:
        return math.inf
    positions = trace.positions
    ref_dist, pairs = _pair_table(scenario.config.planar_positions())
    if 3 * n >= len(ref_dist):
        return _cells_min(positions, pairs, np.full(t_count, len(ref_dist)))
    order = np.argsort(ref_dist, kind="stable")
    ref_dist, pairs = ref_dist[order], pairs[:, order]
    ub = _cells_min(positions, pairs, np.ones(t_count, dtype=int))

    refs = scenario.config.reference_positions()
    err, strain = np.empty(t_count), np.empty(t_count)
    scale = 0.0
    for ticks in _tick_chunks(t_count, n):
        coords, q, d = scenario.schedule.sample(trace.times[ticks])
        strain[ticks] = coords[:, 2:4].min(axis=1)
        images = transform_points(q, d, refs)
        err[ticks] = _lengths(positions[ticks] - images).max(axis=1)
        scale = max(
            scale,
            float(np.abs(d).max()),
            float(coords[:, 2:4].max() * ref_dist[-1]),
            float(np.abs(images).max()),
            float(np.abs(positions[ticks]).max()),
        )
    pad = _PAD_ULPS * np.finfo(float).eps * scale
    reach = (ub + 2.0 * err + pad) / strain
    survivors = np.searchsorted(ref_dist, reach, side="right")
    return min(ub, _cells_min(positions, pairs, survivors))


def corridor_clearance(
    trace: SimTrace, corridor: Corridor, agent_radius: float
) -> float:
    """Minimum surface-to-wall margin while any agent is inside the x-span.

    Negative values mean an agent surface crossed a wall. Returns +inf when
    no agent center ever enters the corridor's x-span.
    """
    gap = math.inf
    for ticks in _tick_chunks(*trace.positions.shape[:2]):
        x, y = trace.positions[ticks, :, 0], trace.positions[ticks, :, 1]
        y = y[(x >= corridor.x_start) & (x <= corridor.x_end)]
        if len(y):
            wall_gap = corridor.half_width - np.abs(y - corridor.center_y)
            gap = min(gap, float(wall_gap.min()))
    return gap - agent_radius


def _final_residual(trace: SimTrace, scenario: Scenario) -> float | None:
    """Followers' worst distance from their containment targets, settled.

    Averages each follower over the final 10% of the hold period (the span
    after the last phase ends; 10% of the trace when there is none) and
    compares it with ``H`` applied to the leaders' final desired positions.
    None when the leaders' desired positions move by more than
    ``LEADER_DRIFT_TOL`` inside that window (a run truncated mid-maneuver,
    or a hold too short); 0.0 when there are no followers.
    """
    times = trace.times
    span = float(times[-1] - times[0])
    hold = float(times[-1]) - scenario.schedule.t_end
    if span > 0.0 and hold > 0.0:
        window = max(0.1 * hold / span, 1.0 / max(len(times) - 1, 1))
    else:
        window = 0.1
    mask = times >= times[-1] - window * (times[-1] - times[0])
    leaders = trace.desired[mask, :3]
    if float(np.abs(leaders - leaders[-1]).max()) > LEADER_DRIFT_TOL:
        return None
    if trace.positions.shape[1] <= 3:
        return 0.0
    targets = (scenario.config.matrices.H @ leaders[-1])[3:]
    mean_pos = trace.positions[mask, 3:].mean(axis=0)
    return float(_lengths(mean_pos - targets).max())


@dataclass(frozen=True)
class RunMetrics:
    """Summary a run is judged by, serialized to the metrics document."""

    measured_delta: float
    min_pairwise_distance: float
    min_corridor_clearance: float | None
    converged: bool
    residual: float | None
    lambda_min_required: float
    min_strain_commanded: float
    safety_pass: bool

    def to_dict(self) -> dict:
        """The fields by name; a non-finite float is null, as JSON has no infinity."""
        return {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(self).items()
        }


def strain_check(scenario: Scenario, delta: float) -> tuple[SafetyReport, float]:
    """The schedule's strains at the control rate against the paper's floor.

    The floor is ``min_scaling_bound``'s ``2 (delta + r) / d_min``, with
    ``delta`` a bound on every agent's tracking error (the safety budget
    before a run, the measured error after one). Returns the report and
    the reference spacing ``d_min`` behind the floor, the minimum distance
    between two agents of the reference layout (``ValueError`` for fewer
    than two agents).
    """
    d_min = float(_pair_table(scenario.config.planar_positions())[0].min())
    bound = min_scaling_bound(delta, scenario.safety.agent_radius, d_min)
    report = check_schedule_safety(
        scenario.schedule, bound, scenario.params.control_rate
    )
    return report, d_min


@np.errstate(over="ignore")
def validate_run(trace: SimTrace, scenario: Scenario) -> RunMetrics:
    """Run the full safety-validation chain on a completed trace of ``scenario``.

    The measured tracking error, every agent's largest distance from its
    desired position, feeds ``strain_check``: the commanded schedule must
    stay at or above the floor it gives, and when it does the minimum center
    distance must be at least one agent diameter. Both conditions fold into
    ``safety_pass``. The run converged when ``_final_residual`` is within
    ``CONVERGENCE_TOL``; a null residual (leaders still moving at the end)
    does not converge. A distance too large for a float reads as inf.
    """
    agent_radius = scenario.safety.agent_radius
    measured_delta = max(
        float(_lengths(trace.positions[k] - trace.desired[k]).max())
        for k in _tick_chunks(*trace.positions.shape[:2])
    )
    safety, _ = strain_check(scenario, measured_delta)

    min_pairwise = pairwise_min_distance(trace, scenario)
    clearance = (
        corridor_clearance(trace, scenario.corridor, agent_radius)
        if scenario.corridor is not None
        else None
    )
    residual = _final_residual(trace, scenario)

    return RunMetrics(
        measured_delta=measured_delta,
        min_pairwise_distance=min_pairwise,
        min_corridor_clearance=clearance,
        converged=residual is not None and residual <= CONVERGENCE_TOL,
        residual=residual,
        lambda_min_required=safety.lambda_min_bound,
        min_strain_commanded=safety.min_strain_observed,
        safety_pass=bool(safety.passed and min_pairwise >= 2.0 * agent_radius),
    )
