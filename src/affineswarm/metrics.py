"""Post-run metrics: tracking error, separation, clearance, convergence.

All metrics are pure functions of an immutable trace; recomputing them
yields identical values. Distances between agents are center-to-center;
corridor clearance is surface-to-wall (agent radius subtracted).
``strain_check`` builds the paper's certificate, a ``SafetyReport``, before and
after a run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .phases import desired_positions, tick_grid
from .scenario import Corridor, Scenario
from .simulation import SimTrace
from .transform import transform_points

_CELLS = 1 << 13  # (tick, pair) cells the pair search evaluates at once
CONVERGENCE_TOL = 1e-4  # follower residual a converged run stays within, m
LEADER_DRIFT_TOL = 1e-9  # leader motion the convergence window tolerates, m
_PAD_ULPS = 64  # rounding allowance of the pair search's bound
_FLOAT = np.finfo(float)  # a squared sum outside [tiny, max] is rescaled


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

    Where the squared sum is a finite normal float, these are the floats
    numpy's ``norm(v, axis=-1)`` returns, bit for bit: the norm squares
    ``v`` and sums the last axis left to right before its square root.
    Adding the columns in that order skips a reduction over a length-3
    axis, which is several times slower. A row whose squares overflow or
    underflow (a coordinate beyond about 1e154 or below 1e-154) is
    recomputed with ``np.hypot``, which scales, so a length of 1e200 or
    1e-170 stays that length, not inf or 0.
    """
    s = v * v
    total = s[..., 0] + s[..., 1]
    if v.shape[-1] == 3:
        total += s[..., 2]
    lengths = np.sqrt(total)
    scaled = ~((total >= _FLOAT.tiny) & (total <= _FLOAT.max))
    if scaled.any():
        lengths = np.asarray(lengths)
        found = np.hypot(v[..., 0][scaled], v[..., 1][scaled])
        if v.shape[-1] == 3:
            found = np.hypot(found, v[..., 2][scaled])
        lengths[scaled] = found
    return lengths


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


def _tracking(trace: SimTrace, scenario: Scenario) -> tuple:
    """Each tick's ``e_k = max |p - (Q_k a + d_k)|``, ``s_k = min(lambda1, lambda2)``.

    The one sampling of ``scenario``'s map: in ``_tick_chunks`` slices and,
    as in ``desired_positions``, only through the first tick at or after
    ``t_hold``. ``pad`` is ``_PAD_ULPS`` ulps of a bound on each coordinate of
    a ``d``, image or position (``|p| <= |Q a + d| + e``) and ``lambda |a_i - a_j|``.
    """
    times, positions = trace.times, trace.positions
    t_count, n, _ = positions.shape
    schedule, refs = scenario.schedule, scenario.config.reference_positions()
    extent = 2.0 * float(_lengths(refs[:, :2]).max())
    moving = np.flatnonzero(~(times >= schedule.t_hold))
    sampled = min(t_count, moving[-1] + 2 if len(moving) else 1)
    err, strain, scale = np.empty(t_count), np.empty(t_count), 0.0
    for ticks in _tick_chunks(sampled, n):
        coords, q, d = schedule.sample(times[ticks])
        images = transform_points(q, d, refs)
        strain[ticks] = np.minimum(coords[:, 2], coords[:, 3])
        err[ticks] = _lengths(positions[ticks] - images).max(axis=1)
        lam, image_max = float(coords[:, 2:4].max()), float(np.abs(images).max())
        scale = max(scale, float(np.abs(d).max()), lam * extent, image_max)
    strain[sampled:] = strain[sampled - 1 : sampled]
    held = positions[sampled:]  # each tick has tick ``sampled - 1``'s image
    for ticks in _tick_chunks(len(held), n):
        err[sampled:][ticks] = _lengths(held[ticks] - images[-1]).max(axis=1)
    return err, strain, _PAD_ULPS * np.finfo(float).eps * (scale + float(err.max()))


def _closest(positions: np.ndarray, scenario: Scenario, tracking) -> float:
    """``pairwise_min_distance``, pruned by ``tracking`` (``_tracking``)."""
    t_count = len(positions)
    ref_dist, pairs = _pair_table(scenario.config.planar_positions())
    order = np.argsort(ref_dist, kind="stable")
    ref_dist, pairs = ref_dist[order], pairs[:, order]
    ub = _cells_min(positions, pairs, np.ones(t_count, dtype=int))
    err, strain, pad = tracking
    survivors = np.searchsorted(ref_dist, (ub + 2.0 * err + pad) / strain, side="right")
    return min(ub, _cells_min(positions, pairs, survivors))


def pairwise_min_distance(trace: SimTrace, scenario: Scenario) -> float:
    """Minimum center-to-center distance over all ticks and agent pairs.

    ``trace`` holds ``scenario``'s agents in matrix order, in any memory
    layout. The result is the all-pairs search's float, found from fewer
    pairs by the paper's bound ``|p_i - p_j| >= s_k |a_i - a_j| - 2 e_k``
    (``_tracking``): the pair behind ``d_min`` bounds the minimum by ``ub``,
    and only pairs with ``|a_i - a_j| <= (ub + 2 e_k + pad) / s_k`` at tick
    ``k`` are searched. +inf for fewer than two agents.
    """
    if trace.positions.shape[1] < 2:
        return math.inf
    return _closest(trace.positions, scenario, _tracking(trace, scenario))


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
    compares it with ``H`` applied to the leaders' final commanded images;
    None when those move by more than ``LEADER_DRIFT_TOL`` in that window
    (a run cut mid-maneuver, or a hold too short), 0.0 with no followers.
    """
    times = trace.times
    span = float(times[-1] - times[0])
    hold = float(times[-1]) - scenario.schedule.t_end
    if span > 0.0 and hold > 0.0:
        window = max(0.1 * hold / span, 1.0 / max(len(times) - 1, 1))
    else:
        window = 0.1
    mask = times >= times[-1] - window * (times[-1] - times[0])
    leaders = desired_positions(scenario.config, scenario.schedule, times[mask])[:, :3]
    if float(np.abs(leaders - leaders[-1]).max()) > LEADER_DRIFT_TOL:
        return None
    if trace.positions.shape[1] <= 3:
        return 0.0
    targets = (scenario.config.matrices.H @ leaders[-1])[3:]
    mean_pos = trace.positions[mask, 3:].mean(axis=0)
    return float(_lengths(mean_pos - targets).max())


def _finite_or_none(value):
    """``value``, or None for a non-finite float, as JSON has no infinity."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


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
        """The fields by name; a non-finite float is null."""
        return {k: _finite_or_none(v) for k, v in asdict(self).items()}


@dataclass(frozen=True)
class SafetyReport:
    """The paper's certificate, ``strain_check``'s result.

    ``d_min`` is the reference layout's minimum pairwise distance and
    ``lambda_min_bound`` the floor ``2 (delta + r) / d_min``.
    ``min_strain_observed`` is the least ``min(lambda1, lambda2)`` on the
    control-rate grid of the schedule's span, and ``violations`` holds the
    ``(t_first, t_last)`` of each maximal run of ticks below the floor.
    """

    d_min: float
    lambda_min_bound: float
    min_strain_observed: float
    passed: bool
    violations: list[tuple[float, float]]

    def to_dict(self) -> dict:
        """``check``'s document; a non-finite float is null."""
        return {
            "d_min": _finite_or_none(self.d_min),
            "lambda_min_bound": _finite_or_none(self.lambda_min_bound),
            "min_strain_observed": _finite_or_none(self.min_strain_observed),
            "pass": self.passed,
            "violations": [{"t_start": t0, "t_end": t1} for t0, t1 in self.violations],
        }


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def strain_check(scenario: Scenario, delta: float) -> SafetyReport:
    """The schedule's strains at the control rate against the paper's floor.

    Two agents whose reference points are ``d_min`` apart keep a positive
    surface gap while both strains stay at or above ``2 (delta + r) / d_min``,
    with ``r`` the agent radius and ``delta`` a bound on every tracking error:
    the safety budget before a run, the measured error after one. Lengths
    scale (``_lengths``), so a spacing of 1e-170 gives a floor near 1.5e169,
    which fails; a spacing beyond the largest float reads inf and gives a
    floor of 0. ``ValueError`` for fewer than two agents or a ``delta`` that
    is not ``>= 0``.
    """
    if not delta >= 0.0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    # A numpy float: a spacing of 0 divides to inf, not to ZeroDivisionError.
    d_min = _pair_table(scenario.config.planar_positions())[0].min()
    bound = float(2.0 * (delta + scenario.safety.agent_radius) / d_min)
    s = scenario.schedule
    times = tick_grid(s.t_start, s.t_end - s.t_start, scenario.params.control_rate)
    coords = s.coordinates(times)
    strains = np.minimum(coords[:, 2], coords[:, 3])
    min_strain = float(strains.min())
    # +1 where a run of violating ticks starts, -1 one past where it ends.
    edges = np.diff(np.concatenate(([0], (strains < bound).astype(np.int8), [0])))
    firsts, lasts = times[edges[:-1] == 1], times[edges[1:] == -1]
    return SafetyReport(
        d_min=float(d_min),
        lambda_min_bound=bound,
        min_strain_observed=min_strain,
        passed=min_strain >= bound,
        violations=list(zip(firsts.tolist(), lasts.tolist())),
    )


@np.errstate(over="ignore")
def validate_run(trace: SimTrace, scenario: Scenario) -> RunMetrics:
    """Run the full safety-validation chain on a completed trace of ``scenario``.

    The measured tracking error, every agent's largest distance from its
    commanded image, feeds ``strain_check``: the commanded schedule must
    stay at or above the floor it gives, and when it does the minimum center
    distance must be at least one agent diameter. Both conditions fold into
    ``safety_pass``. The run converged when ``_final_residual`` is within
    ``CONVERGENCE_TOL``; a null residual (leaders still moving at the end)
    does not converge. A distance too large for a float reads as inf. One
    ``_tracking`` pass gives ``measured_delta`` and the pair search's bound.
    No metric reads the trace's ``desired`` or ``references``: logging only.
    """
    corridor, radius = scenario.corridor, scenario.safety.agent_radius
    tracking = _tracking(trace, scenario)
    measured_delta = float(tracking[0].max())
    safety = strain_check(scenario, measured_delta)
    min_pairwise = _closest(trace.positions, scenario, tracking)
    clearance = None if corridor is None else corridor_clearance(trace, corridor, radius)
    residual = _final_residual(trace, scenario)

    return RunMetrics(
        measured_delta=measured_delta,
        min_pairwise_distance=min_pairwise,
        min_corridor_clearance=clearance,
        converged=residual is not None and residual <= CONVERGENCE_TOL,
        residual=residual,
        lambda_min_required=safety.lambda_min_bound,
        min_strain_commanded=safety.min_strain_observed,
        safety_pass=bool(safety.passed and min_pairwise >= 2.0 * radius),
    )
