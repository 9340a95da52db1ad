"""Post-run metrics: tracking error, separation, clearance, convergence.

All metrics are pure functions of an immutable trace; recomputing them
yields identical values. Distances between agents are center-to-center;
corridor clearance is surface-to-wall (agent radius subtracted).
``strain_check`` is the paper's certificate, before and after a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formation import FormationMatrices, ReferenceConfig
from .phases import SafetyReport, check_schedule_safety
from .scenario import Corridor, Scenario
from .simulation import SimTrace
from .transform import min_scaling_bound

_CHUNK = 512
CONVERGENCE_TOL = 1e-4  # follower residual a converged run stays within, m
LEADER_DRIFT_TOL = 1e-9  # leader motion the convergence window tolerates, m


def _min_pair_distance(frames: np.ndarray) -> float:
    """Minimum distance between two agents of one frame of (T, N, D) ``frames``.

    Works through ``_CHUNK`` frames at a time; needs ``N >= 2``.
    """
    t_count, n, _ = frames.shape
    iu = np.triu_indices(n, k=1)
    best = math.inf
    for lo in range(0, t_count, _CHUNK):
        p = frames[lo : lo + _CHUNK]
        diff = p[:, :, None, :] - p[:, None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        best = min(best, float(dist[:, iu[0], iu[1]].min()))
    return best


def min_reference_distance(cfg: ReferenceConfig) -> float:
    """Minimum pairwise distance between initial positions [m]."""
    if len(cfg.agents) < 2:
        raise ValueError("need at least 2 agents for a pairwise distance")
    return _min_pair_distance(cfg.planar_positions()[None])


def pairwise_min_distance(trace: SimTrace) -> float:
    """Minimum center-to-center distance over all ticks and agent pairs.

    Returns +inf when the trace has fewer than two agents.
    """
    if trace.positions.shape[1] < 2:
        return math.inf
    return _min_pair_distance(trace.positions)


def corridor_clearance(
    trace: SimTrace, corridor: Corridor, agent_radius: float
) -> float:
    """Minimum surface-to-wall margin while any agent is inside the x-span.

    Negative values mean an agent surface crossed a wall. Returns +inf when
    no agent center ever enters the corridor's x-span.
    """
    x = trace.positions[:, :, 0]
    y = trace.positions[:, :, 1]
    inside = (x >= corridor.x_start) & (x <= corridor.x_end)
    if not inside.any():
        return math.inf
    wall_gap = corridor.half_width - np.abs(y - corridor.center_y)
    return float(wall_gap[inside].min() - agent_radius)


@dataclass(frozen=True)
class TrackingErrors:
    """Distance of actual positions from the commanded-map images."""

    per_agent_max: dict[str, float]
    measured_delta: float


def tracking_error_metrics(trace: SimTrace) -> TrackingErrors:
    """Per-agent and global tracking-error statistics against desired positions."""
    err = np.linalg.norm(trace.positions - trace.desired, axis=-1)
    per_max = {aid: float(err[:, i].max()) for i, aid in enumerate(trace.agent_ids)}
    return TrackingErrors(per_agent_max=per_max, measured_delta=float(err.max()))


@dataclass(frozen=True)
class ConvergenceResult:
    converged: bool
    residual: float


def convergence_check(
    trace: SimTrace, matrices: FormationMatrices, window: float = 0.1
) -> ConvergenceResult:
    """Compare final-window follower positions to their containment targets.

    ``window`` is the trailing fraction of the trace to average over. The
    leaders' desired positions must be constant throughout the window,
    within ``LEADER_DRIFT_TOL`` (raises ``ValueError`` otherwise, e.g.
    for a run truncated mid-maneuver). Targets are the follower rows of
    ``H`` applied to the leaders' final desired positions; a run converges
    when its residual is within ``CONVERGENCE_TOL``.
    """
    times = trace.times
    t_cut = times[-1] - window * (times[-1] - times[0])
    mask = times >= t_cut
    des_leaders = trace.desired[mask][:, :3, :]
    drift = float(np.abs(des_leaders - des_leaders[-1]).max())
    if drift > LEADER_DRIFT_TOL:
        raise ValueError(
            f"leader desired positions move by {drift:.3e} inside the "
            f"convergence window (t >= {t_cut:.3f}); run was truncated "
            "mid-maneuver or the hold is too short"
        )
    targets = matrices.H @ des_leaders[-1]
    follower_rows = np.arange(3, len(trace.agent_ids))
    if len(follower_rows) == 0:
        return ConvergenceResult(True, 0.0)
    mean_pos = trace.positions[mask][:, follower_rows, :].mean(axis=0)
    residual = float(
        np.linalg.norm(mean_pos - targets[follower_rows], axis=-1).max()
    )
    return ConvergenceResult(residual <= CONVERGENCE_TOL, residual)


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
        def _num(v):
            if v is None or (isinstance(v, float) and not math.isfinite(v)):
                return None
            return v

        return {
            "measured_delta": self.measured_delta,
            "min_pairwise_distance": _num(self.min_pairwise_distance),
            "min_corridor_clearance": _num(self.min_corridor_clearance),
            "converged": self.converged,
            "residual": _num(self.residual),
            "lambda_min_required": self.lambda_min_required,
            "min_strain_commanded": self.min_strain_commanded,
            "safety_pass": self.safety_pass,
        }


def strain_check(scenario: Scenario, delta: float) -> tuple[SafetyReport, float]:
    """The schedule's strains at the control rate against the paper's floor.

    The floor is ``min_scaling_bound``'s ``2 (delta + r) / d_min``, with
    ``delta`` a bound on every agent's tracking error (the safety budget
    before a run, the measured error after one). Returns the report and
    the reference spacing ``d_min`` behind the floor.
    """
    d_min = min_reference_distance(scenario.config)
    bound = min_scaling_bound(delta, scenario.safety.agent_radius, d_min)
    report = check_schedule_safety(
        scenario.schedule, bound, scenario.params.control_rate
    )
    return report, d_min


def validate_run(trace: SimTrace, scenario: Scenario) -> RunMetrics:
    """Run the full safety-validation chain on a completed trace of ``scenario``.

    The measured tracking error bound feeds ``strain_check``: the
    commanded schedule must stay at or above the floor it gives, and when
    it does the minimum center distance must be at least one agent
    diameter. Both conditions fold into ``safety_pass``.
    """
    agent_radius = scenario.safety.agent_radius
    errors = tracking_error_metrics(trace)
    safety, _ = strain_check(scenario, errors.measured_delta)

    min_pairwise = pairwise_min_distance(trace)
    clearance = (
        corridor_clearance(trace, scenario.corridor, agent_radius)
        if scenario.corridor is not None
        else None
    )

    # Average over the final 10% of the hold period (the span after the
    # last phase ends); fall back to 10% of the trace when there is none.
    span = float(trace.times[-1] - trace.times[0])
    hold = float(trace.times[-1]) - scenario.schedule.t_end
    if span > 0.0 and hold > 0.0:
        window = max(0.1 * hold / span, 1.0 / max(len(trace.times) - 1, 1))
    else:
        window = 0.1
    try:
        conv = convergence_check(trace, scenario.matrices, window=window)
        converged, residual = conv.converged, conv.residual
    except ValueError:
        converged, residual = False, None

    return RunMetrics(
        measured_delta=errors.measured_delta,
        min_pairwise_distance=min_pairwise,
        min_corridor_clearance=clearance,
        converged=converged,
        residual=residual,
        lambda_min_required=safety.lambda_min_bound,
        min_strain_commanded=safety.min_strain_observed,
        safety_pass=bool(safety.passed and min_pairwise >= 2.0 * agent_radius),
    )
