"""Phase schedules and time-parameterized leader trajectories.

A schedule is an ordered list of contiguous phases, each blending the six
generalized coordinates from a start value to an end value with the
quintic step ``beta(s) = 6 s^5 - 15 s^4 + 10 s^3`` (zero first and second
derivatives at both ends, so stitched phases are C2 in time). An optional
translation ramp spans several phases with a single blend, superimposed
on the per-phase translation values. Before the first phase the first
start coordinates hold; after the last phase the final end coordinates
hold forever.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ScheduleError
from .formation import ReferenceConfig
from .transform import AtCoordinates, jacobian_stack, transform_points

_BOUNDARY_TOL = 1e-12


def quintic_blend(s):
    """Quintic step ``6 s^5 - 15 s^4 + 10 s^3`` on [0, 1], clamped outside.

    beta(0) = 0, beta(1) = 1 and the first and second derivatives vanish
    at both endpoints. Accepts scalars or arrays; out-of-range inputs are
    clamped.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        arr = np.clip(arr, 0.0, 1.0)
    out = arr * arr * arr * (10.0 + arr * (-15.0 + 6.0 * arr))
    # Float evaluation can overshoot the exact range by ~1e-15 near s=1;
    # the blend is a [0, 1] -> [0, 1] map by definition.
    out = np.clip(out, 0.0, 1.0)
    if np.ndim(s) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Phase:
    """One quintic blend from ``start`` to ``end`` over [t0, tf].

    ``start`` and ``end`` default to the identity coordinates.
    """

    t0: float
    tf: float
    start: AtCoordinates = AtCoordinates()
    end: AtCoordinates = AtCoordinates()
    name: str = ""


@dataclass(frozen=True)
class TranslationRamp:
    """A single quintic translation blend spanning [t0, tf].

    The ramp value (held at ``start`` before ``t0`` and at ``end`` after
    ``tf``) adds to whatever per-phase translation the schedule carries.
    """

    t0: float
    tf: float
    start: tuple[float, float] = (0.0, 0.0)
    end: tuple[float, float] = field(kw_only=True)

    @np.errstate(over="ignore")
    def value(self, times: np.ndarray) -> np.ndarray:
        """Ramp offsets (T, 2) at an array of times (T,).

        A ramp with ``tf <= t0``, or too short to divide by, steps to ``end``.
        """
        t = np.asarray(times, dtype=float)
        if self.tf <= self.t0:
            b = np.where(t >= self.tf, 1.0, 0.0)
        else:
            b = quintic_blend((t - self.t0) / (self.tf - self.t0))
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        return start + b[:, None] * (end - start)


@dataclass(frozen=True)
class PhaseSchedule:
    """Contiguous, boundary-continuous phases."""

    phases: tuple[Phase, ...]
    translation: TranslationRamp | None = None

    def __post_init__(self):
        if not self.phases:
            raise ScheduleError("schedule needs at least one phase")
        problems = []
        for k, ph in enumerate(self.phases):
            if not ph.tf > ph.t0:
                problems.append(f"phase {k} has tf <= t0 ({ph.tf} <= {ph.t0})")
        for k in range(len(self.phases) - 1):
            a, b = self.phases[k], self.phases[k + 1]
            if abs(a.tf - b.t0) > 1e-9:
                problems.append(
                    f"phase {k} ends at {a.tf} but phase {k + 1} starts at {b.t0}"
                )
            elif not (b.t0 > a.t0 and b.tf > a.tf):
                problems.append(
                    f"phase {k + 1} must start and end after phase {k}"
                )
            for f in fields(AtCoordinates):
                va, vb = getattr(a.end, f.name), getattr(b.start, f.name)
                if abs(va - vb) > _BOUNDARY_TOL:
                    problems.append(
                        f"{f.name} jumps from {va} to {vb} between phases "
                        f"{k} and {k + 1}"
                    )
        if problems:
            raise ScheduleError("; ".join(problems))

    @property
    def t_start(self) -> float:
        return self.phases[0].t0

    @property
    def t_end(self) -> float:
        return self.phases[-1].tf

    @property
    def t_hold(self) -> float:
        """The time from which the commanded map stays still: ``t_end``, or
        the translation ramp's ``tf`` when that is later. ``coordinates``
        gives every time at or after it the same bits."""
        if self.translation is None:
            return self.t_end
        return max(self.t_end, self.translation.tf)

    @cached_property
    def _phase_arrays(self) -> tuple[np.ndarray, ...]:
        """The phases' ``t0``, ``tf``, ``start`` and ``end`` columns."""
        rows = [(p.t0, p.tf, *astuple(p.start), *astuple(p.end)) for p in self.phases]
        table = np.array(rows)
        return table[:, 0], table[:, 1], table[:, 2:8], table[:, 8:]

    def coordinates(self, times) -> np.ndarray:
        """Blended coordinates (T, 6), in ``AtCoordinates`` field order, at times (T,).

        Times at or before ``t_start`` hold the first start coordinates and
        times at or after ``t_end`` the final end coordinates. A time in a
        sub-tolerance crack between phases takes the next phase's start,
        which boundary continuity makes the right value.
        """
        t = np.asarray(times, dtype=float)
        t0, tf, start, end = self._phase_arrays

        # Phases are in time order, so the first phase ending after t is
        # the one holding it, or the next one when t sits in a crack.
        k = np.minimum(np.searchsorted(tf, t, side="right"), len(tf) - 1)
        coords = start[k]
        coords[t >= tf[-1]] = end[-1]
        inside = (t > t0[0]) & (t < tf[-1]) & (t0[k] <= t)
        ki = k[inside]
        b = quintic_blend((t[inside] - t0[ki]) / (tf[ki] - t0[ki]))
        coords[inside] = start[ki] + b[:, None] * (end[ki] - start[ki])
        if self.translation is not None:
            coords[:, :2] += self.translation.value(t)
        return coords

    def sample(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The commanded map at times (T,).

        Returns ``coordinates(times)`` (T, 6), the Jacobians ``Q``
        (T, 3, 3) and the translations ``d`` (T, 3).
        """
        coords = self.coordinates(times)
        d = np.zeros((len(coords), 3))
        d[:, :2] = coords[:, :2]
        return coords, jacobian_stack(coords), d


def grid_size(span: float, tick_rate: float) -> int | float:
    """The number of times ``tick_grid`` gives over ``span`` at ``tick_rate`` Hz.

    inf when ``span * tick_rate`` overflows; nothing is allocated.
    """
    ticks = span * tick_rate
    return round(ticks) + 1 if math.isfinite(ticks) else math.inf


def tick_grid(t_start: float, span: float, tick_rate: float) -> np.ndarray:
    """Inclusive grid of ``round(span * tick_rate)`` ticks at ``tick_rate`` Hz.

    It starts at ``t_start`` and holds one more time than ticks.
    """
    if tick_rate <= 0.0:
        raise ValueError("tick_rate must be positive")
    return t_start + np.arange(grid_size(span, tick_rate)) / tick_rate


def desired_positions(cfg: ReferenceConfig, schedule: PhaseSchedule, t) -> np.ndarray:
    """Global desired positions of every agent.

    (N, 3) at a time ``t``; (T, N, 3) for an array of times. The map is
    still from ``schedule.t_hold``, so the times after the last one before
    it are sampled only through their first, whose row the rest repeat:
    the bits sampling each would give, with no second ``(T, N, 3)`` array.
    """
    times = np.atleast_1d(t)
    moving = np.flatnonzero(~(times >= schedule.t_hold))
    sampled = min(len(times), moving[-1] + 2 if len(moving) else 1)
    _, q, d = schedule.sample(times[:sampled])
    pos = np.empty((len(times), len(cfg.agents), 3))
    transform_points(q, d, cfg.reference_positions(), out=pos[:sampled])
    pos[sampled:] = pos[sampled - 1 : sampled]  # a slice: no times, no row to repeat
    return pos if np.ndim(t) else pos[0]


@dataclass(frozen=True)
class LeaderTrajectory:
    """Sampled desired positions of the three leaders."""

    times: np.ndarray
    agent_ids: tuple[str, str, str]
    positions: np.ndarray  # (T, 3, 3)


def leader_trajectory(
    schedule: PhaseSchedule, cfg: ReferenceConfig, tick_rate: float
) -> LeaderTrajectory:
    """Sample the leaders' desired trajectories at the control tick rate.

    Samples cover the schedule span, endpoints included.
    """
    times = tick_grid(schedule.t_start, schedule.t_end - schedule.t_start, tick_rate)
    _, q, d = schedule.sample(times)
    positions = transform_points(q, d, cfg.reference_positions()[:3])
    return LeaderTrajectory(
        times=times, agent_ids=cfg.leader_ids, positions=positions
    )

