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

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError
from .formation import ReferenceConfig
from .transform import AtCoordinates, assemble_jacobian, transform_points

logger = logging.getLogger(__name__)

_COORD_FIELDS = ("d1", "d2", "lambda1", "lambda2", "psi_d", "psi_r")
_BOUNDARY_TOL = 1e-12


def quintic_blend(s):
    """Quintic step ``6 s^5 - 15 s^4 + 10 s^3`` on [0, 1], clamped outside.

    beta(0) = 0, beta(1) = 1 and the first and second derivatives vanish
    at both endpoints. Accepts scalars or arrays; out-of-range inputs are
    clamped with a debug diagnostic.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        logger.debug("quintic_blend input outside [0, 1]; clamping")
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
    t0: float
    tf: float
    start: AtCoordinates
    end: AtCoordinates
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
    end: tuple[float, float] = (0.0, 0.0)

    def value(self, t: float) -> tuple[float, float]:
        if self.tf <= self.t0:
            b = 1.0 if t >= self.tf else 0.0
        else:
            b = quintic_blend((t - self.t0) / (self.tf - self.t0))
        return (
            self.start[0] + b * (self.end[0] - self.start[0]),
            self.start[1] + b * (self.end[1] - self.start[1]),
        )


@dataclass(frozen=True)
class PhaseSchedule:
    """Contiguous, boundary-continuous phases plus the plane altitude."""

    phases: tuple[Phase, ...]
    z: float
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
            for name in _COORD_FIELDS:
                va, vb = getattr(a.end, name), getattr(b.start, name)
                if abs(va - vb) > _BOUNDARY_TOL:
                    problems.append(
                        f"{name} jumps from {va} to {vb} between phases "
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

    def coords_at(self, t: float) -> AtCoordinates:
        """Blended coordinates at time ``t``; clamped to the schedule span."""
        if t <= self.phases[0].t0:
            base = self.phases[0].start
        elif t >= self.phases[-1].tf:
            base = self.phases[-1].end
        else:
            base = None
            for ph in self.phases:
                if ph.t0 <= t < ph.tf:
                    b = quintic_blend((t - ph.t0) / (ph.tf - ph.t0))
                    vals = {
                        name: getattr(ph.start, name)
                        + b * (getattr(ph.end, name) - getattr(ph.start, name))
                        for name in _COORD_FIELDS
                    }
                    base = AtCoordinates(**vals)
                    break
            if base is None:
                # t sits in a sub-tolerance crack between phases; boundary
                # continuity makes the next start the right value.
                nxt = next(ph for ph in self.phases if t < ph.t0)
                base = nxt.start
        if self.translation is None:
            return base
        rd1, rd2 = self.translation.value(t)
        return AtCoordinates(
            d1=base.d1 + rd1,
            d2=base.d2 + rd2,
            lambda1=base.lambda1,
            lambda2=base.lambda2,
            psi_d=base.psi_d,
            psi_r=base.psi_r,
        )

    def jacobian_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(Q, d) of the commanded map at time ``t``."""
        c = self.coords_at(t)
        return assemble_jacobian(c).Q, c.translation()


def tick_times(t_start: float, t_end: float, tick_rate: float) -> np.ndarray:
    """Inclusive tick grid from ``t_start`` to ``t_end`` at ``tick_rate`` Hz."""
    if tick_rate <= 0.0:
        raise ValueError("tick_rate must be positive")
    count = int(round((t_end - t_start) * tick_rate))
    return t_start + np.arange(count + 1) / tick_rate


def desired_positions(
    cfg: ReferenceConfig, schedule: PhaseSchedule, t: float
) -> np.ndarray:
    """Global desired positions (N, 3) of every agent at time ``t``."""
    q, d = schedule.jacobian_at(t)
    return transform_points(q, d, cfg.reference_positions())


@dataclass(frozen=True)
class LeaderTrajectory:
    """Sampled desired positions of the three leaders."""

    times: np.ndarray
    agent_ids: tuple[str, str, str]
    positions: np.ndarray  # (T, 3, 3)


def leader_trajectory(
    schedule: PhaseSchedule,
    cfg: ReferenceConfig,
    tick_rate: float = 100.0,
    t_end: float | None = None,
) -> LeaderTrajectory:
    """Sample the leaders' desired trajectories at the control tick rate.

    Samples cover the schedule span (inclusive endpoints); pass ``t_end``
    beyond the final phase to record the constant hold.
    """
    times = tick_times(
        schedule.t_start, schedule.t_end if t_end is None else t_end, tick_rate
    )
    leaders = cfg.reference_positions()[:3]
    positions = np.empty((len(times), 3, 3))
    for k, t in enumerate(times):
        q, d = schedule.jacobian_at(float(t))
        positions[k] = transform_points(q, d, leaders)
    return LeaderTrajectory(
        times=times, agent_ids=cfg.leader_ids, positions=positions
    )


@dataclass
class SafetyReport:
    """Outcome of sampling the commanded strains against a lower bound."""

    lambda_min_bound: float
    min_strain_observed: float
    passed: bool
    violations: list[tuple[float, float]]
    tick_rate: float


def check_schedule_safety(
    schedule: PhaseSchedule, bound: float, tick_rate: float = 100.0
) -> SafetyReport:
    """Sample min(lambda1, lambda2) over the schedule and compare to ``bound``.

    The blend is monotone, so per-phase extrema sit at phase endpoints;
    sampling at the control tick guards against future non-monotone
    profiles. Passing means the observed minimum strain is at or above
    the bound; violating intervals are reported as (t_first, t_last)
    tick pairs.
    """
    times = tick_times(schedule.t_start, schedule.t_end, tick_rate)
    strains = np.empty(len(times))
    for k, t in enumerate(times):
        c = schedule.coords_at(float(t))
        strains[k] = min(c.lambda1, c.lambda2)
    min_strain = float(strains.min())
    bad = strains < bound
    violations: list[tuple[float, float]] = []
    start = None
    for k, flag in enumerate(bad):
        if flag and start is None:
            start = times[k]
        elif not flag and start is not None:
            violations.append((float(start), float(times[k - 1])))
            start = None
    if start is not None:
        violations.append((float(start), float(times[-1])))
    return SafetyReport(
        lambda_min_bound=float(bound),
        min_strain_observed=min_strain,
        passed=min_strain >= bound,
        violations=violations,
        tick_rate=float(tick_rate),
    )


def hold_schedule(
    coords: AtCoordinates, z: float, duration: float = 1.0
) -> PhaseSchedule:
    """A schedule that holds fixed coordinates (useful for settling runs)."""
    ph = Phase(t0=0.0, tf=max(duration, math.ulp(1.0)), start=coords, end=coords)
    return PhaseSchedule(phases=(ph,), z=z)
