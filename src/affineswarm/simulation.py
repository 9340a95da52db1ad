"""Deterministic tracking simulation of the leader-follower team.

Every agent is a double integrator with proportional-derivative tracking
of its reference position. Leaders take their reference straight from the
planner (the commanded affine map); followers take the weighted sum of
their three in-neighbors' actual positions from ``delay_ticks`` control
ticks earlier, with the weights stored in their row of ``W``. Followers
never see the commanded map; their global desired positions are computed
(for every tick at once, before the run) for logging and error
measurement only.

References are held constant between control ticks, so the ``substeps``
semi-implicit Euler steps of size ``dt`` within one tick are one fixed
linear map of each axis' tracking error and velocity, ``tick_map``. The
engine applies that map once per tick, so identical inputs always produce
bit-identical traces. The same map, with the followers' weights and the
delay, gives the closed loop's discrete spectral radius
(``closed_loop_radius``): the run converges when it is below 1, which the
continuous ``W``-Hurwitz check alone cannot show, since it sees neither
the gains nor ``dt`` nor the delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, SimulationError
from .formation import FormationMatrices, ReferenceConfig, _audit
from .phases import PhaseSchedule, desired_positions, tick_grid


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
    """Per-tick record of a run, in config (matrix) agent order.

    Leaders are the first three agents, as in the config.
    """

    times: np.ndarray  # (T,)
    agent_ids: tuple[str, ...]
    positions: np.ndarray  # (T, N, 3) actual
    references: np.ndarray  # (T, N, 3) control inputs
    desired: np.ndarray  # (T, N, 3) commanded-map images, logging only

    def agent_index(self, agent_id: str) -> int:
        return self.agent_ids.index(agent_id)


def tick_times(schedule: PhaseSchedule, params: SimParams) -> np.ndarray:
    """Control tick times of a run: ``tick_grid`` over ``duration`` from
    the schedule's start; a ``duration`` of None covers the schedule span
    plus a 10 s hold. The first time is the initial state's.
    """
    duration = params.duration
    if duration is None:
        duration = schedule.t_end - schedule.t_start + 10.0
    return tick_grid(schedule.t_start, duration, params.control_rate)


def tick_map(params: SimParams) -> np.ndarray:
    """The (2, 2) map ``A_s`` of one control tick on ``[p - r; v]`` per axis.

    One semi-implicit Euler substep, ``v += dt (kp (r - p) - kd v)`` then
    ``p += dt v``, maps the tracking error ``e = p - r`` and velocity ``v``
    by ``A = [[1 - dt² kp, dt - dt² kd], [-dt kp, 1 - dt kd]]``; with ``r``
    held for the tick, ``A_s = A^substeps``. Entries that overflow are
    inf or nan, never a warning.
    """
    dt, kp, kd = params.dt, params.kp, params.kd
    a = np.array([[1.0 - dt * dt * kp, dt - dt * dt * kd], [-dt * kp, 1.0 - dt * kd]])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.matrix_power(a, params.substeps)


def closed_loop_radius(matrices: FormationMatrices, params: SimParams) -> float:
    """Spectral radius ``rho`` of the tick-to-tick closed loop.

    Per axis, one tick maps ``[p; v] <- A_s [p; v] + b_s r`` with
    ``b_s = (I - A_s) e1``. A follower's reference is its row of ``W``
    applied to positions ``delay_ticks = d`` ticks old, so the loop splits
    into one mode per eigenvalue ``mu`` of the follower block
    ``G = W[3:, 3:] + I``, with characteristic polynomial
    ``z^d (z² - tr(A_s) z + det A_s) - mu (b_s0 z + A_s01 b_s1 - A_s11 b_s0)``;
    leaders contribute ``eig(A_s)``. ``rho`` is the largest root modulus
    (inf when ``A_s`` overflows). Tracking errors decay like ``rho^k``, so
    the loop converges exactly when ``rho < 1``.
    """
    a_s = tick_map(params)
    if not np.isfinite(a_s).all():
        return math.inf
    b = np.eye(2)[:, 0] - a_s[:, 0]
    d = params.delay_ticks
    f = len(matrices.agent_ids) - 3
    mu = np.linalg.eigvals(matrices.W[3:, 3:] + np.eye(f))
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.zeros((f, d + 3), dtype=complex)  # highest power first
        coeffs[:, 0] = 1.0
        coeffs[:, 1] = -np.trace(a_s)
        coeffs[:, 2] += np.linalg.det(a_s)
        coeffs[:, d + 1] -= mu * b[0]
        coeffs[:, d + 2] -= mu * (a_s[0, 1] * b[1] - a_s[1, 1] * b[0])
    if not np.isfinite(coeffs).all():
        return math.inf
    companion = np.zeros((f, d + 2, d + 2), dtype=complex)
    companion[:, 0, :] = -coeffs[:, 1:]
    companion[:, 1:, :-1] = np.eye(d + 1)
    roots = np.concatenate([np.linalg.eigvals(companion).ravel(), np.linalg.eigvals(a_s)])
    return float(np.abs(roots).max())


def run_simulation(
    cfg: ReferenceConfig,
    matrices: FormationMatrices,
    schedule: PhaseSchedule,
    params: SimParams,
    *,
    initial_positions: Mapping[str, np.ndarray] | None = None,
) -> SimTrace:
    """Run the decentralized acquisition loop and record a full trace.

    Agents start at rest at their reference positions (override per id
    with ``initial_positions``). The schedule is not
    checked against the strain floor here; ``check_schedule_safety`` does
    that. Nor is the closed loop checked for stability
    (``closed_loop_radius``); a trace that holds a non-finite position
    raises ``SimulationError`` naming its first such tick and agents.
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

    pos = cfg.reference_positions()
    vel = np.zeros((n, 3))
    if initial_positions:
        for aid, p in initial_positions.items():
            pos[cfg.index_of(aid)] = np.asarray(p, dtype=float)

    # Follower rows, their in-neighbor rows (F, 3) and the matching
    # entries of W: the only nonzero off-diagonal entries of each row.
    rows = np.arange(3, n)
    nbr = matrices.neighbors
    w = matrices.W[rows[:, None], nbr]

    times = tick_times(schedule, params)
    ticks = len(times) - 1
    trace_pos = np.empty((ticks + 1, n, 3))
    trace_des = desired_positions(cfg, schedule, times)
    trace_ref = np.empty((ticks + 1, n, 3))
    trace_ref[:, :3] = trace_des[:, :3]

    (a00, a01), (a10, a11) = tick_map(params).tolist()
    delay = params.delay_ticks
    trace_pos[0] = pos
    # An unstable loop overflows to inf and nan; that is reported once,
    # after the loop, not warned about on every tick.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(ticks + 1):
            refs = trace_ref[k]
            snap = trace_pos[max(k - delay, 0)]
            refs[rows] = np.matmul(w[:, None, :], snap[nbr])[:, 0, :]
            if k < ticks:
                err = pos - refs
                pos = trace_pos[k + 1]
                np.add(refs, a00 * err + a01 * vel, out=pos)
                vel = a10 * err + a11 * vel

    finite = np.isfinite(trace_pos).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        names = [ids[i] for i in np.flatnonzero(~np.isfinite(trace_pos[k]).all(axis=1))]
        raise SimulationError(
            f"state diverged at t={float(times[k]):.3f}s (tick {k}); non-finite "
            f"agents: {names}"
        )

    return SimTrace(
        times=times,
        agent_ids=ids,
        positions=trace_pos,
        references=trace_ref,
        desired=trace_des,
    )
