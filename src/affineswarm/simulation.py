"""Deterministic tracking simulation of the leader-follower team.

Every agent is a double integrator with proportional-derivative tracking
of its reference position. Leaders take their reference straight from the
planner (the commanded affine map); followers take the weighted sum of
their three in-neighbors' actual positions from ``delay_ticks`` control
ticks earlier, with the weights stored in their row of ``W``. Followers
never see the commanded map; their global desired positions are computed
(for every tick at once, before the run) for logging and error
measurement only.

The engine advances at a fixed integration step ``dt`` with references
held constant between control ticks, so identical inputs always produce
bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, SimulationError
from .formation import FormationMatrices, ReferenceConfig, _audit
from .phases import PhaseSchedule, desired_positions


@dataclass(frozen=True)
class SimParams:
    """Integration and tracker parameters.

    The control period must be an integer multiple of ``dt``. With the
    default gains the tracker is critically damped (kd = 2 sqrt(kp)).
    ``duration`` of None means "schedule span plus a 10 s settling hold";
    a given duration must cover at least one control tick. Every check is
    written so that NaN fails it.
    ``delay_ticks`` is the staleness, in control ticks, of the neighbor
    positions a follower reads (1 mimics a motion-capture pipeline that
    delivers the previous sample).
    """

    dt: float = 0.001
    control_rate: float = 100.0
    kp: float = 25.0
    kd: float = 10.0
    duration: float | None = None
    delay_ticks: int = 1

    def __post_init__(self):
        def positive(v):
            return math.isfinite(v) and v > 0.0

        if not positive(self.dt):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not positive(self.control_rate):
            raise ValueError(
                f"control_rate must be positive and finite, got {self.control_rate}"
            )
        if not (positive(self.kp) and positive(self.kd)):
            raise ValueError(
                f"tracker gains must be positive and finite, got kp={self.kp}, "
                f"kd={self.kd}"
            )
        if self.delay_ticks < 0:
            raise ValueError("delay_ticks must be >= 0")
        substeps = 1.0 / (self.dt * self.control_rate)
        if not (
            math.isfinite(substeps)
            and round(substeps) >= 1
            and abs(substeps - round(substeps)) <= 1e-9
        ):
            raise ValueError(
                f"control period 1/{self.control_rate} Hz is not an integer "
                f"multiple of dt={self.dt}"
            )
        # round(x) >= 1 exactly when x > 0.5; run_simulation rounds the same way.
        if self.duration is not None and not (
            math.isfinite(self.duration) and self.duration * self.control_rate > 0.5
        ):
            raise ValueError(
                f"duration must cover at least one control tick, got {self.duration}"
            )

    @property
    def substeps(self) -> int:
        return int(round(1.0 / (self.dt * self.control_rate)))


@dataclass
class SimTrace:
    """Per-tick record of a run, in config (matrix) agent order."""

    times: np.ndarray  # (T,)
    agent_ids: tuple[str, ...]
    roles: tuple[str, ...]
    positions: np.ndarray  # (T, N, 3) actual
    references: np.ndarray  # (T, N, 3) control inputs
    desired: np.ndarray  # (T, N, 3) commanded-map images, logging only

    def agent_index(self, agent_id: str) -> int:
        return self.agent_ids.index(agent_id)

    @property
    def tick_rate(self) -> float:
        if len(self.times) < 2:
            return 0.0
        return 1.0 / float(self.times[1] - self.times[0])


def run_simulation(
    cfg: ReferenceConfig,
    matrices: FormationMatrices,
    schedule: PhaseSchedule,
    params: SimParams,
    *,
    initial_positions: Mapping[str, np.ndarray] | None = None,
    initial_velocities: Mapping[str, np.ndarray] | None = None,
) -> SimTrace:
    """Run the decentralized acquisition loop and record a full trace.

    Agents start at their reference positions (override per id with
    ``initial_positions``/``initial_velocities``). The schedule is not
    checked against the strain floor here; ``check_schedule_safety`` does
    that.
    """
    report, neighbors, _, _ = _audit(cfg)
    report.raise_if_invalid()
    if matrices.agent_ids != cfg.ids:
        raise ConfigError(
            "matrices were built for a different configuration "
            f"({matrices.agent_ids} vs {cfg.ids})"
        )
    if not np.array_equal(matrices.neighbors, neighbors):
        raise ConfigError(
            "matrices were built for a different communication graph "
            "than the configuration's in_neighbors"
        )

    n = len(cfg.agents)
    ids = cfg.ids
    roles = tuple(a.role for a in cfg.agents)
    duration = params.duration
    if duration is None:
        duration = schedule.t_end - schedule.t_start + 10.0
    ticks = int(round(duration * params.control_rate))
    if ticks < 1:
        raise ValueError("duration must cover at least one control tick")

    pos = cfg.reference_positions()
    vel = np.zeros((n, 3))
    if initial_positions:
        for aid, p in initial_positions.items():
            pos[cfg.index_of(aid)] = np.asarray(p, dtype=float)
    if initial_velocities:
        for aid, v in initial_velocities.items():
            vel[cfg.index_of(aid)] = np.asarray(v, dtype=float)

    # Follower rows, their in-neighbor rows (F, 3) and the matching
    # entries of W: the only nonzero off-diagonal entries of each row.
    rows = np.arange(3, n)
    nbr = matrices.neighbors
    w = matrices.W[rows[:, None], nbr]

    times = schedule.t_start + np.arange(ticks + 1) / params.control_rate
    trace_pos = np.empty((ticks + 1, n, 3))
    trace_des = desired_positions(cfg, schedule, times)
    trace_ref = np.empty((ticks + 1, n, 3))
    trace_ref[:, :3] = trace_des[:, :3]

    dt = params.dt
    kp, kd = params.kp, params.kd
    substeps = params.substeps

    for k in range(ticks + 1):
        t_k = float(times[k])
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(vel)):
            bad = np.where(~np.isfinite(pos).all(axis=1))[0]
            names = [ids[i] for i in bad] if len(bad) else ids
            raise SimulationError(
                f"state diverged at t={t_k:.3f}s (tick {k}); non-finite agents: "
                f"{names}"
            )
        trace_pos[k] = pos
        refs = trace_ref[k]
        snap = trace_pos[max(k - params.delay_ticks, 0)]
        refs[rows] = np.matmul(w[:, None, :], snap[nbr])[:, 0, :]

        if k < ticks:
            for _ in range(substeps):
                vel = vel + dt * (kp * (refs - pos) - kd * vel)
                pos = pos + dt * vel

    return SimTrace(
        times=times,
        agent_ids=ids,
        roles=roles,
        positions=trace_pos,
        references=trace_ref,
        desired=trace_des,
    )
