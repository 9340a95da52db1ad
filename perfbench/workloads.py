"""Scenario files for the three benchmark workloads.

``default``   the bundled scenario, unchanged (N=6, corridor, 4,001 ticks).
``fine-step`` the bundled scenario with ``dt = 1e-4`` (100 substeps a tick).
``swarm``     a seeded layout of 103 agents with no corridor, 1,001 ticks.

Only ``swarm`` depends on the seed. The program under test receives the
written scenario file and nothing else.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

SWARM_FOLLOWERS = 100
SWARM_SIDE_M = 14.0  # leader triangle side
SWARM_SPACING_M = 0.5  # minimum spacing between any two agents (d_min)
SWARM_RADIUS_M = 0.03
NEAREST_CANDIDATES = 10  # earlier agents searched for an in-neighbor triangle
MIN_WEIGHT = 0.05  # smallest barycentric weight accepted for a triangle
MAX_REDRAWS = 20


def default_scenario_doc(root: Path) -> dict:
    path = root / "src" / "affineswarm" / "scenarios" / "default.json"
    return json.loads(path.read_text())


def fine_step_doc(root: Path) -> dict:
    doc = default_scenario_doc(root)
    doc["name"] = "fine-step"
    doc["sim"]["dt"] = 1e-4
    return doc


def _barycentric(p: np.ndarray, tri: np.ndarray) -> np.ndarray | None:
    m = np.vstack([tri.T, np.ones(3)])
    if abs(np.linalg.det(m)) < 1e-9:
        return None
    return np.linalg.solve(m, np.array([p[0], p[1], 1.0]))


def _leader_triangle(side: float) -> np.ndarray:
    radius = side / np.sqrt(3.0)
    angles = np.radians([90.0, 210.0, 330.0])
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def swarm_layout(
    rng: np.random.Generator,
    n_followers: int = SWARM_FOLLOWERS,
    side: float = SWARM_SIDE_M,
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Agent positions (leaders first) and each follower's in-neighbor rows.

    Followers are drawn uniformly in the leader triangle and rejected when
    closer than ``SWARM_SPACING_M`` to any agent or to an edge. Each
    follower's in-neighbors are the first triple, in order of nearness, of
    its ``NEAREST_CANDIDATES`` nearest earlier agents whose triangle
    strictly contains it (every weight above ``MIN_WEIGHT``); the leaders
    are the fallback. Earlier-only neighbors make every follower reachable from
    every leader.
    """
    leaders = _leader_triangle(side)
    height = side * np.sqrt(3.0) / 2.0
    xy = [p for p in leaders]
    while len(xy) < 3 + n_followers:
        u, v = rng.uniform(size=2)
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        bary = np.array([1.0 - u - v, u, v])
        if bary.min() * height < SWARM_SPACING_M:
            continue
        p = bary @ leaders
        if np.min(np.linalg.norm(np.asarray(xy) - p, axis=1)) < SWARM_SPACING_M:
            continue
        xy.append(p)
    xy = np.asarray(xy)

    neighbors = []
    for k in range(3, len(xy)):
        dist = np.linalg.norm(xy[:k] - xy[k], axis=1)
        nearest = np.argsort(dist, kind="stable")[:NEAREST_CANDIDATES]
        chosen = (0, 1, 2)
        triples = sorted(
            itertools.combinations(range(len(nearest)), 3), key=lambda t: (sum(t), t)
        )
        for ranks in triples:
            rows = tuple(int(nearest[r]) for r in ranks)
            w = _barycentric(xy[k], xy[list(rows)])
            if w is not None and w.min() > MIN_WEIGHT:
                chosen = rows
                break
        neighbors.append(chosen)
    return xy, neighbors


def swarm_doc(xy: np.ndarray, neighbors: list[tuple[int, int, int]]) -> dict:
    """The default schedule at a quarter of its amplitude and length, 2.5 s hold.

    The deformation rates match the default scenario's halved; 1,001 ticks.
    """
    ids = ["L1", "L2", "L3"] + [f"f{k}" for k in range(1, len(xy) - 2)]
    agents = [
        {
            "id": aid,
            "role": "leader" if i < 3 else "follower",
            "x": round(float(xy[i, 0]), 6),
            "y": round(float(xy[i, 1]), 6),
        }
        for i, aid in enumerate(ids)
    ]
    graph = {ids[3 + k]: [ids[j] for j in rows] for k, rows in enumerate(neighbors)}
    return {
        "name": "swarm",
        "altitude": 1.0,
        "agents": agents,
        "graph": graph,
        "phases": [
            {"name": "contraction", "t0": 0.0, "tf": 2.5,
             "start": {"lambda1": 1.0, "lambda2": 1.0},
             "end": {"lambda1": 0.875, "lambda2": 0.875}},
            {"name": "rigid-rotation", "t0": 2.5, "tf": 5.0,
             "start": {"lambda1": 0.875, "lambda2": 0.875},
             "end": {"lambda1": 0.875, "lambda2": 0.875, "psi_r": 0.125}},
            {"name": "shear-scale", "t0": 5.0, "tf": 7.5,
             "start": {"lambda1": 0.875, "lambda2": 0.875, "psi_r": 0.125},
             "end": {"lambda1": 0.9, "lambda2": 0.975, "psi_r": 0.125, "psi_d": 0.0625}},
        ],
        "translation": {"t0": 0.0, "tf": 7.5, "end": [1.0, 0.0]},
        "safety": {"agent_radius": SWARM_RADIUS_M, "delta_budget": 0.01},
        "sim": {"dt": 0.001, "control_rate": 100.0, "kp": 2500.0, "kd": 100.0,
                "delay_ticks": 1, "duration": 10.0},
    }


_BUILDERS = {
    "default": lambda root, rng: default_scenario_doc(root),
    "swarm": lambda root, rng: swarm_doc(*swarm_layout(rng)),
    "fine-step": lambda root, rng: fine_step_doc(root),
}


def write_scenario(workload: str, seed: int, root: Path, out: Path, check):
    """Write the workload's scenario to ``out`` and describe it.

    ``check(path)`` runs the program's ``check`` command and returns its
    failures (none on success). A swarm layout that fails it is redrawn, up
    to ``MAX_REDRAWS`` times; the fixed scenarios are written once. Returns
    the facts every record carries (seed, N, d_min, redraws and the file's
    SHA-256) and the failures of the last check.
    """
    rng = np.random.default_rng(seed)
    for redraws in range(MAX_REDRAWS + 1 if workload == "swarm" else 1):
        doc = _BUILDERS[workload](root, rng)
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        out.write_text(text)
        failures = check(out)
        if not failures:
            break
    xy = np.array([[a["x"], a["y"]] for a in doc["agents"]])
    diff = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1)
    return {
        "workload": workload,
        "seed": seed,
        "n_agents": len(xy),
        "d_min": float(diff[np.triu_indices(len(xy), k=1)].min()),
        "redraws": redraws,
        "scenario_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }, failures


WORKLOADS = tuple(_BUILDERS)
