"""Correctness gate for the outputs of one round of commands.

Everything here runs outside the timed regions. A check that cannot be
made (missing file, unreadable JSON, short CSV) is a failure, never a
pass. The trace-CSV digest is reported, not pinned, so a change to the
numerics shows in the record without failing the gate.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Fields of metrics.json that validate recomputes from the trace CSVs.
FLOAT_FIELDS = (
    "measured_delta",
    "min_pairwise_distance",
    "min_corridor_clearance",
    "residual",
    "lambda_min_required",
    "min_strain_commanded",
)
BOOL_FIELDS = ("converged", "safety_pass")
PAIR_CHUNK = 64  # ticks per chunk of the plain pair search


def file_digest(paths) -> str:
    """SHA-256 over the names and bytes of ``paths``, in the order given."""
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def trace_paths(bundle: Path) -> list[Path]:
    manifest = json.loads((bundle / "manifest.json").read_text())
    traces = manifest["outputs"]["traces"]
    return [bundle / traces[aid] for aid in manifest["agent_order"]]


def load_traces(bundle: Path) -> np.ndarray:
    """(T, N, 10) array of every agent's trace CSV, read with plain numpy."""
    arrays = []
    for path in trace_paths(bundle):
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if arr.shape[1] != 10:
            raise ValueError(f"{path.name}: {arr.shape[1]} columns, expected 10")
        arrays.append(arr)
    rows = {a.shape[0] for a in arrays}
    if len(rows) != 1:
        raise ValueError(f"trace CSVs disagree on row count: {sorted(rows)}")
    return np.stack(arrays, axis=1)


def tolerance(data: np.ndarray) -> float:
    """Largest distance error that 9-significant-digit CSV rounding explains.

    Each value is off by at most half a unit in its 9th digit; a distance
    between two rounded 3-vectors is off by at most 2 sqrt(3) times that.
    The bound below is twice as wide again.
    """
    scale = float(np.abs(data[:, :, 1:]).max())
    return 4.0 * 10.0 ** (math.floor(math.log10(max(scale, 1e-300))) - 8)


def recompute(data: np.ndarray) -> dict:
    """measured_delta and min_pairwise_distance from (T, N, 10) trace data."""
    pos, des = data[:, :, 1:4], data[:, :, 7:10]
    delta = float(np.sqrt(((pos - des) ** 2).sum(-1)).max())
    n = pos.shape[1]
    best = math.inf
    if n > 1:
        iu = np.triu_indices(n, k=1)
        for lo in range(0, pos.shape[0], PAIR_CHUNK):
            p = pos[lo : lo + PAIR_CHUNK]
            d2 = ((p[:, iu[0], :] - p[:, iu[1], :]) ** 2).sum(-1)
            best = min(best, float(np.sqrt(d2.min())))
    return {"measured_delta": delta, "min_pairwise_distance": best}


def compare(expected: dict, got: dict, tol: float, d_min: float, label: str,
            fields=BOOL_FIELDS + FLOAT_FIELDS) -> list[str]:
    """Failures where ``got`` differs from ``expected`` on ``fields``.

    Booleans and nulls must be equal; numbers may differ by ``tol``
    (scaled by 2 / d_min for lambda_min_required, which is 2 (delta + r) / d_min).
    """
    failures = []
    for key in fields:
        a, b = expected.get(key), got.get(key)
        if isinstance(a, bool) or a is None or b is None:
            ok = a is b
        else:
            limit = tol * (2.0 / d_min if key == "lambda_min_required" else 1.0)
            ok = isinstance(b, (int, float)) and abs(a - b) <= limit
        if not ok:
            failures.append(f"{label}: {key} is {b!r}, expected {a!r} (tolerance {tol:.1e})")
    return failures


def graph_failures(path: Path) -> list[str]:
    """Failures of a ``graph`` output document: it must report a passing spectrum."""
    try:
        ok = json.loads(path.read_text())["spectrum"]["ok"] is True
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"graph: output unreadable: {exc!r}"]
    return [] if ok else ["graph: spectrum check failed"]


def gate_bundle(bundle: Path, has_corridor: bool, d_min: float, first: bool) -> tuple[list[str], dict]:
    """Gate a simulate bundle. Returns (failures, facts).

    ``facts`` holds metrics.json, the bundle and trace-CSV digests and, on the
    ``first`` sample, the plain-numpy recomputation of measured_delta and
    min_pairwise_distance, which must match metrics.json.
    """
    failures: list[str] = []
    facts: dict = {}
    try:
        metrics = json.loads((bundle / "metrics.json").read_text())
        traces = trace_paths(bundle)
        files = sorted(p for p in bundle.iterdir() if p.is_file())
    except (OSError, ValueError, KeyError) as exc:
        return [f"simulate: unreadable bundle: {exc!r}"], facts
    facts["metrics"] = metrics
    facts["bundle_digest"] = file_digest(files)
    facts["trace_digest"] = file_digest(traces)
    facts["bytes_written"] = sum(p.stat().st_size for p in files)
    facts["bytes_read"] = (bundle / "manifest.json").stat().st_size + sum(
        p.stat().st_size for p in traces
    )
    for key in BOOL_FIELDS:
        if metrics.get(key) is not True:
            failures.append(f"simulate: metrics.json {key} is {metrics.get(key)!r}")
    if has_corridor:
        clearance = metrics.get("min_corridor_clearance")
        if not (isinstance(clearance, (int, float)) and clearance > 0.0):
            failures.append(f"simulate: corridor clearance {clearance!r} is not > 0")
    if first:
        try:
            data = load_traces(bundle)
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"simulate: trace CSVs unreadable: {exc}")
        else:
            facts["tolerance"] = tolerance(data)
            facts["recomputed"] = recompute(data)
            failures += compare(
                metrics, facts["recomputed"], facts["tolerance"], d_min,
                "numpy recompute", fields=tuple(facts["recomputed"]),
            )
    return failures, facts
