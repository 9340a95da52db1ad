"""Run bundles: trace CSVs, matrices/metrics JSON, and the manifest.

All numeric CSV fields use 9-significant-digit formatting and JSON uses
sorted keys, so identical runs serialize byte-identically and golden
files stay portable. The manifest embeds the fully resolved scenario; a
rerun from the manifest reproduces the CSVs exactly. ``read_bundle`` is
the one reader of a bundle: it gives back the scenario and the trace.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ScenarioError
from .formation import SPECTRUM_TOL, FormationMatrices, SpectralReport
from .metrics import RunMetrics
from .phases import LeaderTrajectory
from .scenario import Scenario, parse_scenario, scenario_sha256, scenario_to_dict
from .simulation import SimTrace, tick_times

TRACE_COLUMNS = ("t", "x", "y", "z", "x_ref", "y_ref", "z_ref", "x_des", "y_des", "z_des")
PLAN_COLUMNS = ("t", "agent_id", "x_d", "y_d", "z_d")
SETTLING_TOL = 1e-4


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
    matrices: FormationMatrices, spectrum: SpectralReport, rho: float
) -> dict:
    """Row-major JSON document with W, L, H, alpha, per-follower w and the spectrum.

    ``closed_loop`` holds ``rho`` (``closed_loop_radius``; null when it
    overflowed, as JSON has no infinity) and the ticks a tracking error
    takes to shrink by ``SETTLING_TOL``,
    ``ceil(log(SETTLING_TOL) / log(rho))`` (null when ``rho >= 1``).
    """
    if rho >= 1.0:
        settling = None
    elif rho == 0.0:
        settling = 0
    else:
        settling = math.ceil(math.log(SETTLING_TOL) / math.log(rho))
    followers = matrices.agent_ids[3:]
    weights = np.take_along_axis(matrices.W[3:], matrices.neighbors, axis=1)
    return {
        "agent_order": list(matrices.agent_ids),
        "follower_order": list(followers),
        "alpha": [list(map(float, row)) for row in matrices.H[3:]],
        "w": {fid: list(map(float, w)) for fid, w in zip(followers, weights)},
        "W": [list(map(float, row)) for row in matrices.W],
        "L": [list(map(float, row)) for row in matrices.L],
        "H": [list(map(float, row)) for row in matrices.H],
        "spectrum": {
            "eigenvalues_real": [float(v) for v in spectrum.eigenvalues.real],
            "eigenvalues_imag": [float(v) for v in spectrum.eigenvalues.imag],
            "max_real_part": spectrum.max_real_part,
            "h_deviation": spectrum.h_deviation,
            "hurwitz": spectrum.hurwitz,
            "ok": spectrum.ok,
            "tolerance": SPECTRUM_TOL,
        },
        "closed_loop": {
            "spectral_radius": rho if math.isfinite(rho) else None,
            "settling_ticks": settling,
        },
    }


def safety_document(report, d_min: float) -> dict:
    return {
        "d_min": d_min,
        "lambda_min_bound": report.lambda_min_bound,
        "min_strain_observed": report.min_strain_observed,
        "pass": report.passed,
        "violations": [
            {"t_start": t0, "t_end": t1} for t0, t1 in report.violations
        ],
    }


def emit_bundle(
    out_dir,
    scenario: Scenario,
    trace: SimTrace,
    metrics: RunMetrics,
    spectrum: SpectralReport,
    rho: float,
) -> Path:
    """Write trace CSVs, metrics and the scenario's matrices JSON, and the manifest.

    Returns the bundle directory. I/O failures are re-raised with the
    offending path in the message.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    traces = {aid: f"trace_{aid}.csv" for aid in trace.agent_ids}
    try:
        for aid, name in traces.items():
            (out / name).write_text(trace_csv_text(trace, aid), newline="\n")
        (out / "metrics.json").write_text(dumps_json(metrics.to_dict()), newline="\n")
        (out / "matrices.json").write_text(
            dumps_json(matrices_document(scenario.matrices, spectrum, rho)),
            newline="\n",
        )
        manifest = {
            "tool": {"name": "affineswarm", "version": __version__},
            "scenario": scenario_to_dict(scenario),
            "scenario_sha256": scenario_sha256(scenario),
            "trace_columns": list(TRACE_COLUMNS),
            "agent_order": list(trace.agent_ids),
            "outputs": {
                "traces": traces,
                "metrics": "metrics.json",
                "matrices": "matrices.json",
            },
        }
        (out / "manifest.json").write_text(dumps_json(manifest), newline="\n")
    except OSError as exc:
        raise OSError(f"failed writing bundle under {out}: {exc}") from exc
    return out


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


def read_bundle(bundle_dir) -> tuple[Scenario, SimTrace]:
    """The scenario a bundle's manifest embeds and the trace its CSVs hold.

    The manifest's ``agent_order`` must be the scenario's matrix order.
    Each agent's CSV must hold one row per time of the scenario's tick
    grid (``tick_times``), and its ``t`` column must be that grid at
    9 significant digits; the trace's times are the grid itself. Values
    carry the CSV's 9-significant-digit precision, which is ample for
    every recomputed metric. A missing or malformed manifest, a missing
    key or trace file name, a wrong ``agent_order``, and a missing, unreadable or damaged
    CSV (wrong field or row count, a non-numeric or non-finite value, a
    time off the grid) each raise ``ScenarioError`` naming the file.
    """
    out = Path(bundle_dir)
    path = out / "manifest.json"
    if not path.exists():
        raise ScenarioError([f"{path}: no manifest found"])
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: malformed manifest: {exc}"]) from None
    for keys in (("scenario",), ("agent_order",), ("outputs", "traces")):
        _lookup(doc, path, *keys)
    scenario = parse_scenario(json.dumps(doc["scenario"]), source=str(path))
    order, ids = doc["agent_order"], list(scenario.config.ids)
    if order != ids:
        raise ScenarioError(
            [f"{path}: agent_order {order!r} is not the scenario's matrix order {ids!r}"]
        )

    times = tick_times(scenario.schedule, scenario.params)
    rows, cols = len(times), len(TRACE_COLUMNS)
    grid = np.array(("%.9g\n" * rows % tuple(times.tolist())).split(), dtype=float)
    data = []
    for aid in ids:
        name = _lookup(doc, path, "outputs", "traces", aid)
        if not isinstance(name, str):
            raise ScenarioError(
                [f"{path}: outputs.traces.{aid} is not a file name: {name!r}"]
            )
        csv = out / name
        try:
            text = csv.read_text()
        except OSError as exc:
            raise ScenarioError(
                [f"{csv}: cannot read trace CSV: {exc.strerror}"]
            ) from None
        body = text.strip().partition("\n")[2]
        lines = body.split("\n") if body else []
        for number, line in enumerate(lines, start=2):
            if line.count(",") != cols - 1:
                raise ScenarioError(
                    [
                        f"{csv}: damaged trace CSV: line {number} has "
                        f"{line.count(',') + 1} fields, expected {cols}"
                    ]
                )
        if len(lines) != rows:
            raise ScenarioError(
                [
                    f"{csv}: damaged trace CSV: {len(lines)} rows of {cols} "
                    f"fields, expected {rows} rows of {cols}"
                ]
            )
        try:
            values = np.array(body.replace("\n", ",").split(","), dtype=float)
        except ValueError as exc:
            raise ScenarioError([f"{csv}: damaged trace CSV: {exc}"]) from None
        table = values.reshape(rows, cols)
        bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
        if len(bad):
            raise ScenarioError(
                [f"{csv}: damaged trace CSV: line {bad[0] + 2} has a non-finite value"]
            )
        off = np.flatnonzero(table[:, 0] != grid)
        if len(off):
            k = off[0]
            raise ScenarioError(
                [
                    f"{csv}: damaged trace CSV: line {k + 2} has t={table[k, 0]:.9g}, "
                    f"expected the tick grid's {grid[k]:.9g}"
                ]
            )
        data.append(table[:, 1:])
    stacked = np.stack(data, axis=1)  # (T, N, 9)
    return scenario, SimTrace(
        times=times,
        agent_ids=scenario.config.ids,
        positions=stacked[:, :, 0:3],
        references=stacked[:, :, 3:6],
        desired=stacked[:, :, 6:9],
    )
