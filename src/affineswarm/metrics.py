"""Post-run metrics: tracking error, separation, clearance, convergence.

All metrics are pure functions of an immutable trace; recomputing them
yields identical values. Distances between agents are center-to-center;
corridor clearance is surface-to-wall (agent radius subtracted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .formation import FormationMatrices, ReferenceConfig, min_reference_distance
from .phases import PhaseSchedule, check_schedule_safety
from .simulation import SimTrace
from .transform import min_scaling_bound

_CHUNK = 512


@dataclass(frozen=True)
class Corridor:
    """Axis-aligned channel: open slab between two walls over an x-span."""

    x_start: float
    x_end: float
    width: float
    center_y: float = 0.0

    def __post_init__(self):
        if not (self.width > 0.0):
            raise ValueError("corridor width must be positive")
        if not (self.x_end > self.x_start):
            raise ValueError("corridor x_end must exceed x_start")
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"corridor {f.name} must be finite, got {value!r}")

    @property
    def half_width(self) -> float:
        return self.width / 2.0


def pairwise_min_distance(trace: SimTrace) -> float:
    """Minimum center-to-center distance over all ticks and agent pairs.

    Returns +inf when the trace has fewer than two agents.
    """
    pos = trace.positions
    t_count, n, _ = pos.shape
    if n < 2:
        return math.inf
    iu = np.triu_indices(n, k=1)
    best = math.inf
    for lo in range(0, t_count, _CHUNK):
        p = pos[lo : lo + _CHUNK]
        diff = p[:, :, None, :] - p[:, None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        best = min(best, float(dist[:, iu[0], iu[1]].min()))
    return best


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
    per_agent_mean: dict[str, float]
    measured_delta: float


def tracking_error_metrics(trace: SimTrace) -> TrackingErrors:
    """Per-agent and global tracking-error statistics against desired positions."""
    err = np.linalg.norm(trace.positions - trace.desired, axis=-1)
    per_max = {aid: float(err[:, i].max()) for i, aid in enumerate(trace.agent_ids)}
    per_mean = {aid: float(err[:, i].mean()) for i, aid in enumerate(trace.agent_ids)}
    return TrackingErrors(
        per_agent_max=per_max,
        per_agent_mean=per_mean,
        measured_delta=float(err.max()),
    )


@dataclass(frozen=True)
class ConvergenceResult:
    converged: bool
    residual: float
    window_start: float


def convergence_check(
    trace: SimTrace,
    matrices: FormationMatrices,
    tolerance: float = 1e-4,
    window: float = 0.1,
    leader_tol: float = 1e-9,
) -> ConvergenceResult:
    """Compare final-window follower positions to their containment targets.

    ``window`` is the trailing fraction of the trace to average over. The
    leaders' desired positions must be constant throughout the window
    (raises ``ValueError`` otherwise, e.g. for a run truncated
    mid-maneuver). Targets are the follower rows of ``H`` applied to the
    leaders' final desired positions.
    """
    times = trace.times
    t_cut = times[-1] - window * (times[-1] - times[0])
    mask = times >= t_cut
    des_leaders = trace.desired[mask][:, :3, :]
    drift = float(np.abs(des_leaders - des_leaders[-1]).max())
    if drift > leader_tol:
        raise ValueError(
            f"leader desired positions move by {drift:.3e} inside the "
            f"convergence window (t >= {t_cut:.3f}); run was truncated "
            "mid-maneuver or the hold is too short"
        )
    targets = matrices.H @ des_leaders[-1]
    follower_rows = np.arange(3, len(trace.agent_ids))
    if len(follower_rows) == 0:
        return ConvergenceResult(True, 0.0, float(t_cut))
    mean_pos = trace.positions[mask][:, follower_rows, :].mean(axis=0)
    residual = float(
        np.linalg.norm(mean_pos - targets[follower_rows], axis=-1).max()
    )
    return ConvergenceResult(residual <= tolerance, residual, float(t_cut))


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


def validate_run(
    trace: SimTrace,
    cfg: ReferenceConfig,
    schedule: PhaseSchedule,
    agent_radius: float,
    corridor: Corridor | None = None,
    matrices: FormationMatrices | None = None,
    convergence_tolerance: float = 1e-4,
) -> RunMetrics:
    """Run the full safety-validation chain on a completed trace.

    The measured tracking error bound feeds the minimum-strain formula;
    the commanded schedule must stay at or above that bound, and when it
    does the minimum center distance must be at least one agent diameter.
    Both conditions fold into ``safety_pass``.
    """
    errors = tracking_error_metrics(trace)
    d_min = min_reference_distance(cfg)
    lam_required = min_scaling_bound(errors.measured_delta, agent_radius, d_min)
    tick_rate = trace.tick_rate or 100.0
    safety = check_schedule_safety(schedule, lam_required, tick_rate)
    strain_ok = safety.min_strain_observed >= lam_required

    min_pairwise = pairwise_min_distance(trace)
    clearance = (
        corridor_clearance(trace, corridor, agent_radius)
        if corridor is not None
        else None
    )

    if matrices is None:
        matrices = FormationMatrices.from_config(cfg)
    # Average over the final 10% of the hold period (the span after the
    # last phase ends); fall back to 10% of the trace when there is none.
    span = float(trace.times[-1] - trace.times[0])
    hold = float(trace.times[-1]) - schedule.t_end
    if span > 0.0 and hold > 0.0:
        window = max(0.1 * hold / span, 1.0 / max(len(trace.times) - 1, 1))
    else:
        window = 0.1
    try:
        conv = convergence_check(
            trace, matrices, tolerance=convergence_tolerance, window=window
        )
        converged, residual = conv.converged, conv.residual
    except ValueError:
        converged, residual = False, None

    return RunMetrics(
        measured_delta=errors.measured_delta,
        min_pairwise_distance=min_pairwise,
        min_corridor_clearance=clearance,
        converged=converged,
        residual=residual,
        lambda_min_required=lam_required,
        min_strain_commanded=safety.min_strain_observed,
        safety_pass=bool(strain_ok and min_pairwise >= 2.0 * agent_radius),
    )
