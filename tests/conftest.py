"""Shared fixtures, random generators, and independent oracles."""

from __future__ import annotations

import json
import math
import os
import reprlib
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from affineswarm import (
    Agent,
    AtCoordinates,
    FormationMatrices,
    Phase,
    PhaseSchedule,
    ReferenceConfig,
    SafetyParams,
    Scenario,
    SimParams,
    desired_positions,
    load_default_scenario,
    quintic_blend,
)
from affineswarm.bundle import TRACE_COLUMNS, dumps_json
from affineswarm.errors import ScenarioError
from affineswarm.scenario import scenario_to_dict
from affineswarm.simulation import tick_map, tick_times


@pytest.fixture(scope="session")
def default_scenario():
    return load_default_scenario()


@pytest.fixture(scope="session")
def default_matrices(default_scenario):
    return FormationMatrices.from_config(default_scenario.config)


def make_scenario(cfg, schedule, params) -> Scenario:
    """A ``Scenario`` of ``cfg``, ``schedule`` and ``params`` with default safety."""
    return Scenario(
        name="test",
        config=cfg,
        schedule=schedule,
        params=params,
        safety=SafetyParams(),
    )


def spaced_scenario(
    d_min: float, radius: float, schedule: PhaseSchedule, control_rate: float = 100.0
) -> Scenario:
    """Three leaders at (0, 0), (d_min, 0) and (0, 2 d_min), flying ``schedule``.

    The reference spacing behind the strain floor is ``d_min``, the agent
    radius ``radius`` and the control rate ``control_rate``; so ``strain_check``
    at ``delta`` gives the floor ``2 (delta + radius) / d_min``.
    """
    agents = [
        Agent("l1", "leader", 0.0, 0.0),
        Agent("l2", "leader", d_min, 0.0),
        Agent("l3", "leader", 0.0, 2.0 * d_min),
    ]
    return Scenario(
        name="test",
        config=ReferenceConfig.from_agents(agents, z=1.0, in_neighbors={}),
        schedule=schedule,
        params=SimParams(control_rate=control_rate),
        safety=SafetyParams(agent_radius=radius),
    )


def serialize_scenario(s: Scenario) -> str:
    """The scenario document as text, as a bundle's manifest embeds it."""
    return dumps_json(scenario_to_dict(s))


def repeated_key_text(doc, path, value) -> str:
    """``doc`` as JSON text in which the object holding the key path ``path``
    gives its last key a second time, holding ``value``, right after the first.
    """
    marker = "\x00repeat"  # json.dumps writes it as an escape no key text holds
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    items = list(node.items())
    node.clear()
    for key, old in items:
        node[key] = old
        if key == path[-1]:
            node[marker] = value
    return json.dumps(doc).replace(json.dumps(marker), json.dumps(path[-1]))


def hold_schedule(coords: AtCoordinates, duration: float = 1.0) -> PhaseSchedule:
    """A schedule that holds fixed coordinates (useful for settling runs)."""
    ph = Phase(t0=0.0, tf=max(duration, math.ulp(1.0)), start=coords, end=coords)
    return PhaseSchedule(phases=(ph,))


def see_cpus(monkeypatch, count):
    """Make the bundle codec see ``count`` CPUs, so it cuts that many shares."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def traced_peak(call) -> int:
    """The most memory ``call()`` held beyond what was held when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def barycentric_oracle(point, triangle):
    """Area-ratio barycentric coordinates (independent of the linear solve)."""

    def signed_area(a, b, c):
        return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))

    a, b, c = triangle
    total = signed_area(a, b, c)
    return np.array(
        [
            signed_area(point, b, c) / total,
            signed_area(a, point, c) / total,
            signed_area(a, b, point) / total,
        ]
    )


def matrices_oracle(cfg: ReferenceConfig):
    """``W`` and ``H`` of a valid configuration, one follower at a time.

    A restatement of the per-follower solve ``FormationMatrices.from_config``
    must reproduce bit for bit: each follower's coordinates solve
    ``[x; y; 1] c = [p; 1]`` over its in-neighbor triangle (for ``W``) and
    over the leader triangle (for ``H``), renormalized by their sum.
    """

    def solve(point, triangle):
        agents = [cfg.agents[cfg.index_of(j)] for j in triangle]
        tri = np.array([[a.x, a.y] for a in agents])
        m = np.vstack([tri.T, np.ones(3)])
        c = np.linalg.solve(m, np.array([point.x, point.y, 1.0]))
        return c / c.sum()

    n = len(cfg.agents)
    w_mat = np.zeros((n, n))
    np.fill_diagonal(w_mat, -1.0)
    h_mat = np.zeros((n, 3))
    h_mat[:3, :3] = np.eye(3)
    for fid in cfg.follower_ids:
        row = cfg.index_of(fid)
        agent = cfg.agents[row]
        nbrs = cfg.in_neighbors[fid]
        w_mat[row, [cfg.index_of(j) for j in nbrs]] = solve(agent, nbrs)
        h_mat[row] = solve(agent, cfg.leader_ids)
    return w_mat, h_mat


def consensus_fixed_point(W, L, leader_values, tol=1e-13, max_iter=200_000):
    """Iterate x <- (I + W) x + L x_L to its fixed point.

    Independent oracle for the containment map: never inverts W. Works
    column-wise on (3, k) leader values; returns the (N, k) limit.
    """
    n = W.shape[0]
    leader_values = np.atleast_2d(np.asarray(leader_values, dtype=float))
    if leader_values.shape[0] != 3:
        leader_values = leader_values.T
    x = np.zeros((n, leader_values.shape[1]))
    m = np.eye(n) + W
    drive = L @ leader_values
    for _ in range(max_iter):
        x_next = m @ x + drive
        if np.abs(x_next - x).max() <= tol:
            return x_next
        x = x_next
    raise AssertionError("fixed-point iteration did not converge")


def random_config(rng: np.random.Generator, n_followers: int) -> ReferenceConfig:
    """A random valid configuration: containment and reachability hold.

    Leaders form a well-conditioned triangle; followers are sampled
    strictly inside the leader triangle; each follower's in-neighbor
    triple is drawn from the leaders plus earlier followers, accepting
    only triples that strictly contain it with margin (the leader triple
    always works as a fallback).
    """
    while True:
        leaders_xy = rng.uniform(-2.0, 2.0, size=(3, 2))
        m = np.vstack([leaders_xy.T, np.ones(3)])
        if abs(np.linalg.det(m)) > 0.5:
            break
    agents = [
        Agent(id=f"u{i + 1}", role="leader", x=float(p[0]), y=float(p[1]))
        for i, p in enumerate(leaders_xy)
    ]
    follower_xy = []
    for k in range(n_followers):
        bary = rng.dirichlet([2.0, 2.0, 2.0])
        while bary.min() < 0.06:
            bary = rng.dirichlet([2.0, 2.0, 2.0])
        p = bary @ leaders_xy
        agents.append(Agent(id=f"f{k + 1}", role="follower", x=float(p[0]), y=float(p[1])))
        follower_xy.append(p)

    ids = [a.id for a in agents]
    xy = np.array([[a.x, a.y] for a in agents])
    graph: dict[str, tuple[str, str, str]] = {}
    for k in range(n_followers):
        fid = f"f{k + 1}"
        own = follower_xy[k]
        pool = list(range(3 + k))  # leaders plus earlier followers
        chosen = None
        for _ in range(12):
            tri_idx = rng.choice(pool, size=3, replace=False)
            tri = xy[tri_idx]
            mm = np.vstack([tri.T, np.ones(3)])
            if abs(np.linalg.det(mm)) < 1e-6:
                continue
            bary = np.linalg.solve(mm, np.array([own[0], own[1], 1.0]))
            if bary.min() > 0.02:
                chosen = tuple(ids[i] for i in tri_idx)
                break
        if chosen is None:
            chosen = ("u1", "u2", "u3")
        graph[fid] = chosen
    return ReferenceConfig.from_agents(agents, z=1.0, in_neighbors=graph)


def random_schedule(rng: np.random.Generator) -> PhaseSchedule:
    """A random gentle schedule starting from identity coordinates.

    Strains stay in [0.55, 1.05] and per-phase translations below 0.6 m
    over 3-5 s phases, so a well-tuned tracker keeps its measured error
    far below the margin the strain floor leaves.
    """
    n_phases = int(rng.integers(2, 4))
    t = 0.0
    prev = AtCoordinates()
    phases = []
    for _ in range(n_phases):
        dt = float(rng.uniform(3.0, 5.0))
        end = AtCoordinates(
            d1=prev.d1 + float(rng.uniform(-0.6, 0.6)),
            d2=prev.d2 + float(rng.uniform(-0.6, 0.6)),
            lambda1=float(rng.uniform(0.55, 1.05)),
            lambda2=float(rng.uniform(0.55, 1.05)),
            psi_d=float(rng.uniform(-0.5, 0.5)),
            psi_r=float(rng.uniform(-0.5, 0.5)),
        )
        phases.append(Phase(t0=t, tf=t + dt, start=prev, end=end))
        t += dt
        prev = end
    return PhaseSchedule(phases=tuple(phases))


def min_pair_distance_oracle(frames: np.ndarray) -> float:
    """Minimum distance between two agents of one frame of (T, N, D) ``frames``.

    The dense search over every tick and pair, 512 frames at a time, which
    ``metrics.pairwise_min_distance`` must match bit for bit; needs ``N >= 2``.
    """
    t_count, n, _ = frames.shape
    iu = np.triu_indices(n, k=1)
    best = math.inf
    for lo in range(0, t_count, 512):
        p = frames[lo : lo + 512]
        diff = p[:, :, None, :] - p[:, None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        best = min(best, float(dist[:, iu[0], iu[1]].min()))
    return best


def trace_csv_oracle(trace, index: int) -> bytes:
    """Agent ``index``'s trace CSV with one ``str`` ``%.9g`` per cell of all
    ten columns, UTF-8 encoded.

    ``bundle.trace_csv_text``, which formats the shared time column once
    and each column's settled tail once, must give the same bytes.
    """
    table = np.column_stack(
        (
            trace.times,
            trace.positions[:, index],
            trace.references[:, index],
            trace.desired[:, index],
        )
    )
    row = ",".join(["%.9g"] * len(TRACE_COLUMNS))
    body = (row + "\n") * len(table) % tuple(table.ravel().tolist())
    return (",".join(TRACE_COLUMNS) + "\n" + body).encode()


def trace_table_oracle(csv, text: str, times: np.ndarray) -> np.ndarray:
    """The (rows, 10) values of one trace CSV, read one Python ``float`` per field.

    ``times`` is the scenario's tick grid. Line by line: the header, the
    field count of every line, then the row count, then each value, then
    finiteness and the ``t`` column against the grid at 9 significant
    digits. Damage raises ``ScenarioError`` with the message
    ``read_bundle`` must give.
    """
    rows, cols = len(times), len(TRACE_COLUMNS)
    grid = np.array([float(format(t, ".9g")) for t in times.tolist()])
    head, _, body = text.strip().partition("\n")
    lines = body.split("\n") if body else []

    def damaged(message):
        return ScenarioError([f"{csv}: damaged trace CSV: {message}"])

    header = ",".join(TRACE_COLUMNS)
    if head != header:
        raise damaged(
            f"line 1 is {reprlib.repr(head)}, expected the header {header!r}"
        )
    for number, line in enumerate(lines, start=2):
        if line.count(",") != cols - 1:
            raise damaged(
                f"line {number} has {line.count(',') + 1} fields, expected {cols}"
            )
    if len(lines) != rows:
        raise damaged(
            f"{len(lines)} rows of {cols} fields, expected {rows} rows of {cols}"
        )
    values = []
    for number, line in enumerate(lines, start=2):
        for field in line.split(","):
            try:
                values.append(float(field))
            except ValueError:
                raise damaged(
                    f"line {number} has a value that is not a number: "
                    f"{reprlib.repr(field)}"
                ) from None
    table = np.array(values).reshape(rows, cols)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if len(bad):
        raise damaged(f"line {bad[0] + 2} has a non-finite value")
    off = np.flatnonzero(table[:, 0] != grid)
    if len(off):
        k = off[0]
        raise damaged(
            f"line {k + 2} has t={table[k, 0]:.9g}, "
            f"expected the tick grid's {grid[k]:.9g}"
        )
    return table


def schedule_oracle(schedule: PhaseSchedule, t: float):
    """Coordinates (6-tuple), ``Q`` and ``d`` of a schedule at one time.

    A per-tick restatement of the scalar semantics ``PhaseSchedule.sample``
    must reproduce bit for bit: hold the first start at or before the
    first phase, the last end at or after the last one, blend inside the
    first phase with ``t0 <= t < tf``, take the next phase's start in a
    crack between phases, then add the translation ramp (a step at ``tf``
    when ``tf <= t0``). ``Q = R_r R_D Lambda R_D^T`` from 3x3 yaw
    matrices built with ``math.cos``/``math.sin``.
    """
    phases = schedule.phases
    if t <= phases[0].t0:
        base = astuple(phases[0].start)
    elif t >= phases[-1].tf:
        base = astuple(phases[-1].end)
    else:
        base = None
        for ph in phases:
            if ph.t0 <= t < ph.tf:
                b = quintic_blend((t - ph.t0) / (ph.tf - ph.t0))
                base = tuple(
                    a + b * (e - a) for a, e in zip(astuple(ph.start), astuple(ph.end))
                )
                break
        if base is None:
            base = astuple(next(ph for ph in phases if t < ph.t0).start)
    ramp = schedule.translation
    if ramp is not None:
        if ramp.tf <= ramp.t0:
            b = 1.0 if t >= ramp.tf else 0.0
        else:
            b = quintic_blend((t - ramp.t0) / (ramp.tf - ramp.t0))
        r1 = ramp.start[0] + b * (ramp.end[0] - ramp.start[0])
        r2 = ramp.start[1] + b * (ramp.end[1] - ramp.start[1])
        base = (base[0] + r1, base[1] + r2) + tuple(base[2:])

    def yaw(angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    d1, d2, lambda1, lambda2, psi_d, psi_r = base
    r_r, r_d = yaw(psi_r), yaw(psi_d)
    q = r_r @ r_d @ np.diag([lambda1, lambda2, 1.0]) @ r_d.T
    return base, q, np.array([d1, d2, 0.0])


def euler_oracle(cfg, matrices, schedule, params, initial_positions=None):
    """(T, N, 3) positions from ``substeps`` semi-implicit Euler substeps a tick.

    A restatement of the per-substep loop the engine's one-map-per-tick
    update (``tick_map``) must match within rounding: each tick, every
    follower's reference is its row of ``W`` over its in-neighbors'
    positions ``delay_ticks`` ticks old, leaders track the commanded map,
    and ``v += dt (kp (r - p) - kd v); p += dt v`` runs ``substeps`` times
    with the reference held.
    """
    n = len(cfg.agents)
    times = tick_times(schedule, params)
    refs_all = desired_positions(cfg, schedule, times)
    pos = cfg.reference_positions()
    for aid, p in (initial_positions or {}).items():
        pos[cfg.index_of(aid)] = p
    vel = np.zeros((n, 3))
    out = np.empty((len(times), n, 3))
    for k in range(len(times)):
        out[k] = pos
        refs = refs_all[k].copy()
        snap = out[max(k - params.delay_ticks, 0)]
        for f, fid in enumerate(cfg.follower_ids):
            row, nbrs = cfg.index_of(fid), matrices.neighbors[f]
            refs[row] = matrices.W[row, nbrs] @ snap[nbrs]
        if k < len(times) - 1:
            for _ in range(params.substeps):
                vel = vel + params.dt * (params.kp * (refs - pos) - params.kd * vel)
                pos = pos + params.dt * vel
    return out


def tick_loop_oracle(scenario, initial_positions=None):
    """(T, N, 3) positions and references from the tick loop, restated plainly.

    The engine's loop with a fancy-indexed neighbour gather and the tick
    map's entries as Python floats: the same ufuncs in the same order, so
    ``run_simulation`` must reproduce both arrays bit for bit.
    """
    cfg, matrices, params = scenario.config, scenario.config.matrices, scenario.params
    n = len(cfg.agents)
    pos = cfg.reference_positions()
    for aid, p in (initial_positions or {}).items():
        pos[cfg.index_of(aid)] = p
    vel = np.zeros((n, 3))
    nbr = matrices.neighbors
    w = np.take_along_axis(matrices.W[3:], nbr, axis=1)
    times = tick_times(scenario.schedule, params)
    ticks = len(times) - 1
    trace_pos = np.empty((ticks + 1, n, 3))
    trace_ref = np.empty((ticks + 1, n, 3))
    trace_ref[:, :3] = desired_positions(cfg, scenario.schedule, times)[:, :3]
    (a00, a01), (a10, a11) = tick_map(params).tolist()
    trace_pos[0] = pos
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(ticks + 1):
            snap = trace_pos[max(k - params.delay_ticks, 0)]
            np.matmul(w[:, None, :], snap[nbr], out=trace_ref[k, 3:, None, :])
            if k < ticks:
                refs = trace_ref[k]
                err = pos - refs
                pos = trace_pos[k + 1]
                np.add(refs, a00 * err + a01 * vel, out=pos)
                vel = a10 * err + a11 * vel
    return trace_pos, trace_ref


def lifted_tick_matrix(matrices, params):
    """The whole team's one-tick map on ``[p; v; p_(k-1); ...; p_(k-d)]``, one axis.

    Leaders' references are exogenous (zero here); follower ``k``'s is
    row ``3 + k`` of ``W + I`` applied to positions ``d = delay_ticks``
    ticks old. Its eigenvalues are the closed loop's, found without
    splitting it into modes.
    """
    a = tick_map(params)
    b = np.eye(2)[:, 0] - a[:, 0]
    n, d = len(matrices.W), params.delay_ticks
    m = matrices.W + np.eye(n)
    m[:3] = 0.0
    size = (d + 2) * n
    lifted = np.zeros((size, size))
    delayed = slice(0, n) if d == 0 else slice((d + 1) * n, (d + 2) * n)
    for row, (a0, a1, b_i) in enumerate(zip(a[:, 0], a[:, 1], b)):
        block = slice(row * n, (row + 1) * n)
        lifted[block, 0:n] += a0 * np.eye(n)
        lifted[block, n : 2 * n] += a1 * np.eye(n)
        lifted[block, delayed] += b_i * m
    for j in range(2, d + 2):  # p_(k+1-j) moves up one slot; p_k enters at 2
        source = 0 if j == 2 else j - 1
        lifted[j * n : (j + 1) * n, source * n : (source + 1) * n] = np.eye(n)
    return lifted
