"""Run bundles: trace CSVs, matrices/metrics JSON, and the manifest.

All numeric CSV fields use 9-significant-digit formatting and JSON uses
sorted keys, so identical runs serialize byte-identically and golden
files stay portable. The manifest embeds the fully resolved scenario; a
rerun from the manifest reproduces the CSVs exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ScenarioError
from .formation import FormationMatrices, SpectralReport
from .metrics import RunMetrics
from .phases import LeaderTrajectory
from .scenario import Scenario, scenario_sha256, scenario_to_dict
from .simulation import SimTrace

TRACE_COLUMNS = ("t", "x", "y", "z", "x_ref", "y_ref", "z_ref", "x_des", "y_des", "z_des")
PLAN_COLUMNS = ("t", "agent_id", "x_d", "y_d", "z_d")


def _csv(header: tuple[str, ...], row: str, table: np.ndarray) -> str:
    """Header plus one ``row % values`` line per row of ``table``.

    ``row`` holds one ``%.9g`` per column (``'%.9g' % x`` is
    ``format(x, '.9g')``); the whole body is formatted in one pass.
    """
    body = (row + "\n") * len(table) % tuple(table.ravel().tolist())
    return ",".join(header) + "\n" + body


def trace_csv_text(trace: SimTrace, agent_id: str) -> str:
    idx = trace.agent_index(agent_id)
    table = np.column_stack(
        (
            trace.times,
            trace.positions[:, idx],
            trace.references[:, idx],
            trace.desired[:, idx],
        )
    )
    return _csv(TRACE_COLUMNS, ",".join(["%.9g"] * len(TRACE_COLUMNS)), table)


def plan_csv_text(traj: LeaderTrajectory) -> str:
    """One row per tick and leader: time, leader id, desired position."""
    row = "\n".join(
        "%.9g," + aid.replace("%", "%%") + ",%.9g,%.9g,%.9g" for aid in traj.agent_ids
    )
    table = np.column_stack(
        (np.repeat(traj.times, len(traj.agent_ids)), traj.positions.reshape(-1, 3))
    ).reshape(len(traj.times), -1)
    return _csv(PLAN_COLUMNS, row, table)


def dumps_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def matrices_document(
    matrices: FormationMatrices, spectrum: SpectralReport | None = None
) -> dict:
    """Row-major JSON document with W, L, H, alpha, and per-follower w."""
    followers = matrices.agent_ids[3:]
    weights = np.take_along_axis(matrices.W[3:], matrices.neighbors, axis=1)
    doc = {
        "agent_order": list(matrices.agent_ids),
        "follower_order": list(followers),
        "alpha": [list(map(float, row)) for row in matrices.H[3:]],
        "w": {fid: list(map(float, w)) for fid, w in zip(followers, weights)},
        "W": [list(map(float, row)) for row in matrices.W],
        "L": [list(map(float, row)) for row in matrices.L],
        "H": [list(map(float, row)) for row in matrices.H],
    }
    if spectrum is not None:
        doc["spectrum"] = {
            "eigenvalues_real": [float(v) for v in spectrum.eigenvalues.real],
            "eigenvalues_imag": [float(v) for v in spectrum.eigenvalues.imag],
            "max_real_part": spectrum.max_real_part,
            "h_deviation": spectrum.h_deviation,
            "hurwitz": spectrum.hurwitz,
            "ok": spectrum.ok,
            "tolerance": spectrum.tolerance,
        }
    return doc


def safety_document(report, d_min: float | None = None) -> dict:
    return {
        "d_min": d_min,
        "lambda_min_bound": report.lambda_min_bound,
        "min_strain_observed": report.min_strain_observed,
        "pass": report.passed,
        "violations": [
            {"t_start": t0, "t_end": t1} for t0, t1 in report.violations
        ],
    }


@dataclass(frozen=True)
class RunBundle:
    out_dir: Path
    manifest_path: Path
    trace_paths: dict[str, Path]
    metrics_path: Path
    matrices_path: Path


def emit_bundle(
    out_dir,
    scenario: Scenario,
    trace: SimTrace,
    metrics: RunMetrics,
    matrices: FormationMatrices,
    spectrum: SpectralReport | None = None,
) -> RunBundle:
    """Write trace CSVs, metrics and matrices JSON, and the manifest.

    I/O failures are re-raised with the offending path in the message.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    trace_paths: dict[str, Path] = {}
    try:
        for aid in trace.agent_ids:
            path = out / f"trace_{aid}.csv"
            path.write_text(trace_csv_text(trace, aid), newline="\n")
            trace_paths[aid] = path
        metrics_path = out / "metrics.json"
        metrics_path.write_text(dumps_json(metrics.to_dict()), newline="\n")
        matrices_path = out / "matrices.json"
        matrices_path.write_text(
            dumps_json(matrices_document(matrices, spectrum)), newline="\n"
        )
        manifest = {
            "tool": {"name": "affineswarm", "version": __version__},
            "scenario": scenario_to_dict(scenario),
            "scenario_sha256": scenario_sha256(scenario),
            "trace_columns": list(TRACE_COLUMNS),
            "agent_order": list(trace.agent_ids),
            "outputs": {
                "traces": {aid: p.name for aid, p in trace_paths.items()},
                "metrics": metrics_path.name,
                "matrices": matrices_path.name,
            },
        }
        manifest_path = out / "manifest.json"
        manifest_path.write_text(dumps_json(manifest), newline="\n")
    except OSError as exc:
        raise OSError(f"failed writing bundle under {out}: {exc}") from exc
    return RunBundle(
        out_dir=out,
        manifest_path=manifest_path,
        trace_paths=trace_paths,
        metrics_path=metrics_path,
        matrices_path=matrices_path,
    )


def _lookup(doc, path: Path, *keys):
    """``doc[k1][k2]...``; a missing key raises ``ScenarioError`` naming ``path``."""
    value = doc
    for depth, key in enumerate(keys):
        try:
            value = value[key]
        except (KeyError, IndexError, TypeError):
            where = ".".join(map(str, keys[: depth + 1]))
            raise ScenarioError([f"{path}: missing key {where!r}"]) from None
    return value


def read_manifest(bundle_dir) -> dict:
    """Parse a bundle's manifest; it must hold the keys ``validate`` reads."""
    path = Path(bundle_dir) / "manifest.json"
    if not path.exists():
        raise ScenarioError([f"{path}: no manifest found"])
    text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: malformed manifest: {exc}"]) from None
    for keys in (("scenario",), ("agent_order",), ("outputs", "traces")):
        _lookup(doc, path, *keys)
    return doc


def read_trace(bundle_dir, manifest: dict) -> SimTrace:
    """Rebuild a trace from a bundle's per-agent CSVs.

    Values carry the CSV's 9-significant-digit precision, which is ample
    for every recomputed metric. A CSV with a short or non-numeric row, or
    with a different row count than the first agent's, raises
    ``ScenarioError`` naming the file, as does a missing or unreadable CSV
    or a manifest key that is absent.
    """
    out = Path(bundle_dir)
    manifest_path = out / "manifest.json"
    agent_ids = tuple(_lookup(manifest, manifest_path, "agent_order"))
    agents = _lookup(manifest, manifest_path, "scenario", "agents")
    roles = {a["id"]: a["role"] for a in agents}
    data = []
    times = None
    for aid in agent_ids:
        if aid not in roles:
            raise ScenarioError(
                [f"{manifest_path}: agent {aid!r} is not in the scenario"]
            )
        path = out / _lookup(manifest, manifest_path, "outputs", "traces", aid)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(
                [f"{path}: cannot read trace CSV: {exc.strerror}"]
            ) from None
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        try:
            arr = np.array([[float(v) for v in r] for r in rows], ndmin=2)
        except ValueError as exc:
            raise ScenarioError([f"{path}: damaged trace CSV: {exc}"]) from None
        expected = (len(arr) if times is None else len(times), len(TRACE_COLUMNS))
        if arr.shape != expected:
            raise ScenarioError(
                [
                    f"{path}: damaged trace CSV: {arr.shape[0]} rows of "
                    f"{arr.shape[1]} fields, expected {expected[0]} rows of "
                    f"{expected[1]}"
                ]
            )
        if times is None:
            times = arr[:, 0]
        data.append(arr[:, 1:])
    stacked = np.stack(data, axis=1)  # (T, N, 9)
    return SimTrace(
        times=times,
        agent_ids=agent_ids,
        roles=tuple(roles[a] for a in agent_ids),
        positions=stacked[:, :, 0:3],
        references=stacked[:, :, 3:6],
        desired=stacked[:, :, 6:9],
    )
