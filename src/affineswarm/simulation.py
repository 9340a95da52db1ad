"""Deterministic tracking simulation of the leader-follower team.

Every agent is a double integrator with proportional-derivative tracking
of its reference position. Leaders take their reference straight from the
planner (the commanded affine map); followers take the weighted sum of
their three in-neighbors' actual positions from ``delay_ticks`` control
ticks earlier, with the weights stored in their row of ``W``. Followers
never see the commanded map; its images of every agent are computed (for
every tick at once, before the run) for logging only: the metrics take
them from the scenario's schedule.

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

from .errors import SimulationError
from .formation import FormationMatrices
from .phases import PhaseSchedule, desired_positions, tick_grid
from .scenario import Scenario, SimParams

# Ticks between two looks for the run's fixed point. A look compares
# ``delay_ticks + 2`` position rows and a velocity; the stride keeps that
# small next to a tick's work, and the loop stops at most
# ``_STRIDE - 1`` ticks after the fixed point.
_STRIDE = 16


@dataclass
class SimTrace:
    """Per-tick record of a run, in config (matrix) agent order.

    Leaders are the first three agents, as in the config. Each array is
    its own C-contiguous float64 ``(T, N, 3)`` array. Only ``times`` and
    ``positions`` are measured: ``references`` (each agent's control
    input) and ``desired`` (its commanded image ``Q_k a + d_k``) are
    logging only, and the metrics read the commanded map from the
    scenario. ``run_simulation`` fills all three arrays (72·T·N bytes),
    which ``bundle.emit_bundle`` writes; ``bundle.read_bundle`` checks the
    logged columns and keeps only ``positions`` (24·T·N bytes), leaving
    the other two None.
    """

    times: np.ndarray  # (T,)
    positions: np.ndarray  # (T, N, 3) actual
    references: np.ndarray | None = None  # (T, N, 3) control inputs, logging only
    desired: np.ndarray | None = None  # (T, N, 3) commanded images, logging only


def tick_times(schedule: PhaseSchedule, params: SimParams) -> np.ndarray:
    """Control tick times of a run: ``tick_grid`` over ``params.run_duration``
    from the schedule's start. The first time is the initial state's.
    """
    return tick_grid(
        schedule.t_start, params.run_duration(schedule), params.control_rate
    )


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
    the loop converges exactly when ``rho < 1``. The ``F`` companion
    matrices of order ``d + 2`` hold ``16 F (d + 2)²`` bytes, which
    ``Scenario`` keeps within ``MEMORY_BUDGET``; their eigenvalues take
    ``O(F d³)`` time, and ``Scenario`` keeps ``F (d + 2)³`` within
    ``WORK_BUDGET``.
    """
    a_s = tick_map(params)
    if not np.isfinite(a_s).all():
        return math.inf
    b = np.eye(2)[:, 0] - a_s[:, 0]
    d = params.delay_ticks
    f = len(matrices.neighbors)
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
    scenario: Scenario,
    *,
    initial_positions: Mapping[str, np.ndarray] | None = None,
) -> SimTrace:
    """Run ``scenario``'s decentralized acquisition loop and record a full trace.

    Agents start at rest at their reference positions (override per id
    with ``initial_positions``). An invalid config raises ``ConfigError``
    from ``scenario.config.matrices``. The strain floor is not checked here
    (``metrics.strain_check`` does that), nor is the closed loop's
    stability (``closed_loop_radius``); a trace that holds a non-finite
    position raises ``SimulationError`` naming its first such tick and agents.

    A converged run reaches a bitwise fixed point, and the loop stops
    there. Tick ``k`` reads the positions of tick ``k - delay_ticks`` and
    its own, its velocity and the leaders' references, and writes tick
    ``k + 1``'s positions and velocity. Once the leaders' references are
    still, suppose tick ``k`` left its velocity's bits unchanged and the
    ``delay_ticks + 2`` position rows ``k - delay_ticks .. k + 1`` are
    equal, bit for bit. Then tick ``k + 1`` reads exactly the bits tick
    ``k`` read, so it computes the same ufuncs on the same operands and
    writes the same bits, and so on by induction. The loop checks this
    every ``_STRIDE`` ticks (bits, so ``-0.0`` stays apart from ``0.0``)
    and fills the rest of the trace with the repeated rows, so the trace
    is the one a loop over every tick writes.
    """
    cfg, schedule, params = scenario.config, scenario.schedule, scenario.params
    matrices = cfg.matrices
    n = len(cfg.agents)
    ids = cfg.ids

    pos = cfg.reference_positions()
    vel = np.zeros((n, 3))
    if initial_positions:
        for aid, p in initial_positions.items():
            pos[cfg.index_of(aid)] = np.asarray(p, dtype=float)

    # Followers' in-neighbor rows (F, 3) and the matching entries of W:
    # the only nonzero off-diagonal entries of each follower's row.
    nbr = matrices.neighbors
    w = np.take_along_axis(matrices.W[3:], nbr, axis=1)

    times = tick_times(schedule, params)
    ticks = len(times) - 1
    trace_pos = np.empty((ticks + 1, n, 3))
    trace_des = desired_positions(cfg, schedule, times)
    trace_ref = np.empty((ticks + 1, n, 3))
    trace_ref[:, :3] = trace_des[:, :3]

    # The map's entries as 0-d float64 arrays and the loop's views, made
    # once: per tick, numpy multiplies a 0-d array faster than a Python
    # float, and ``take`` gathers rows faster than fancy indexing, with
    # the same ufuncs in the same order, so the same floats.
    a00, a01, a10, a11 = map(np.array, tick_map(params).ravel())
    w_rows = w[:, None, :]
    follower_refs = trace_ref[:, 3:, None, :]
    delay = params.delay_ticks
    # The loop looks for the fixed point every ``_STRIDE`` ticks from
    # ``delay + 1`` ticks after the leaders' references last change.
    leaders = trace_ref[:, :3].view(np.uint64)
    moving = np.flatnonzero((leaders != leaders[-1]).any(axis=(1, 2)))
    check = (int(moving[-1]) + 1 if len(moving) else 0) + delay + 1
    trace_pos[0] = pos
    # An unstable loop overflows to inf and nan; that is reported once,
    # after the loop, not warned about on every tick.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(ticks + 1):
            snap = trace_pos[max(k - delay, 0)]
            np.matmul(w_rows, snap.take(nbr, axis=0), out=follower_refs[k])
            if k < ticks:
                refs = trace_ref[k]
                err = pos - refs
                pos = trace_pos[k + 1]
                np.add(refs, a00 * err + a01 * vel, out=pos)
                last, vel = vel, a10 * err + a11 * vel
                if k == check:
                    check += _STRIDE
                    rows = trace_pos[k - delay : k + 2].view(np.uint64)
                    if (rows == rows[-1]).all() and (
                        vel.view(np.uint64) == last.view(np.uint64)
                    ).all():
                        trace_pos[k + 2 :] = pos
                        trace_ref[k + 1 :, 3:] = trace_ref[k, 3:]
                        break

    finite = np.isfinite(trace_pos).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        names = [ids[i] for i in np.flatnonzero(~np.isfinite(trace_pos[k]).all(axis=1))]
        raise SimulationError(
            f"state diverged at t={float(times[k]):.3f}s (tick {k}); non-finite "
            f"agents: {names}"
        )

    return SimTrace(
        times=times, positions=trace_pos, references=trace_ref, desired=trace_des
    )
