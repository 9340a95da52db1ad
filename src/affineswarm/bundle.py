"""Run bundles: trace CSVs, matrices/metrics JSON, and the manifest.

All numeric CSV fields use 9-significant-digit formatting and JSON uses
sorted keys, so identical runs serialize byte-identically and golden
files stay portable. The manifest embeds the fully resolved scenario; a
rerun from the manifest reproduces the CSVs exactly, and its scenario
fixes the files' layout (``_layout``), which ``read_bundle`` checks.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import reprlib
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AffineSwarmError, ConfigError, ScenarioError, _path_key
from .formation import SPECTRUM_TOL, SpectralReport
from .metrics import RunMetrics
from .phases import LeaderTrajectory
from .scenario import (
    Scenario,
    load_json,
    scenario_from_dict,
    scenario_sha256,
    scenario_to_dict,
)
from .simulation import SimTrace, tick_times

TRACE_COLUMNS = ("t", "x", "y", "z", "x_ref", "y_ref", "z_ref", "x_des", "y_des", "z_des")
TRACE_HEADER = ",".join(TRACE_COLUMNS)
PLAN_COLUMNS = ("t", "agent_id", "x_d", "y_d", "z_d")
SETTLING_TOL = 1e-4


def time_fields(times: np.ndarray) -> list[bytes]:
    """``times`` at ``%.9g``: the ``t`` column of a run's trace CSVs and plan CSV."""
    return (b"%.9g\n" * len(times) % tuple(times.tolist())).split()


def _settle(values: np.ndarray) -> np.ndarray:
    """Each column's settle row: the first from which its float64 bits equal
    the last row's (bits, so ``-0.0`` stays apart from ``0.0``): one past the
    last row that differs. The last row never differs from itself, so the
    reversed rows' ``argmax`` is 0 only when no row differs.
    """
    bits = values.view(np.uint64)
    if not len(bits):
        return np.zeros(bits.shape[1:], dtype=int)
    first = (bits[::-1] != bits[-1]).argmax(axis=0)
    return np.where(first > 0, len(bits) - first, 0)


def settle_rows(trace: SimTrace) -> np.ndarray:
    """Each agent's settle rows ``(N, 9)``, one ``(T, N, 3)`` array at a time."""
    arrays = (trace.positions, trace.references, trace.desired)
    return np.concatenate([_settle(a) for a in arrays], axis=1)


def _blocks(last: np.ndarray, rows: int, settle: np.ndarray) -> list:
    """The ``rows`` rows of a table cut at every settle row, as ``(lo, hi, fields)``;
    ``last`` is the table's last row as a ``(1, C)`` array, ``(0, C)`` when empty.

    A column is folded into a block's fields, formatted once from the last
    row, when its settle row is at or before the block's first row ``lo``;
    its other fields are ``%.9g`` and take the values before its settle row.
    """
    last = [b"%.9g" % v for v in last.ravel().tolist()]
    settle = settle.tolist()
    cuts = sorted({0, *settle})  # a set: np.unique raised simulate's peak RSS ~1 MB
    return [
        (lo, hi, [b"%.9g" if s > lo else f for s, f in zip(settle, last)])
        for lo, hi in zip(cuts, cuts[1:] + [rows])
    ]


def _varying(table: np.ndarray, settle: np.ndarray) -> tuple:
    """The values of ``table`` before their column's settle row, row after row.

    Callers list them after joining the template, so they are not held
    at once with the template's pieces.
    """
    return tuple(table[np.arange(len(table))[:, None] < settle].tolist())


_ROWS = 512  # trace CSV rows per write (see write_trace_csv)


def write_trace_csv(path, trace: SimTrace, index: int, times: list[bytes], settle) -> None:
    """Write the trace CSV of the agent in column ``index`` of the trace to
    ``path``, through one open file, in blocks of at most ``_ROWS`` rows.

    ``times`` is ``time_fields(trace.times)`` and ``settle`` the agent's
    row of ``settle_rows(trace)``, both made once per bundle. A converged
    run settles to the last bit, so each block of ``_blocks`` is its row
    end joined after each of its time fields, and only the values before
    a column's settle row go through one ``bytes %`` per ``_ROWS`` rows.
    Each allocation a block makes (its template and bytes, about 43 KB for
    the default run's rows, and its values) stays under glibc's 128 KiB
    mmap threshold, so the writer reuses its heap's pages and holds one
    block, about 0.2 MB traced, whatever the run's length.
    """
    arrays = (trace.positions, trace.references, trace.desired)
    columns = [a[:, index] for a in arrays]
    last = np.hstack([c[-1:] for c in columns])
    with open(path, "wb") as file:
        file.write((TRACE_HEADER + "\n").encode())
        for lo, hi, fields in _blocks(last, len(times), settle):
            end = b"," + b",".join(fields) + b"\n"
            varying = settle > lo
            for start in range(lo, hi, _ROWS):
                stop = min(start + _ROWS, hi)
                values = np.hstack([c[start:stop] for c in columns])[:, varying]
                template = end.join([*times[start:stop], b""])
                file.write(template % tuple(values.ravel().tolist()))


def plan_csv_text(traj: LeaderTrajectory) -> bytes:
    """One row per tick and leader: time, leader id (UTF-8), desired position.

    Each tick time is formatted once for its three rows (``time_fields``)
    and the columns are folded as in ``write_trace_csv``.
    """
    table, settle = traj.positions.reshape(-1, 9), _settle(traj.positions).ravel()
    ids = [aid.encode().replace(b"%", b"%%") for aid in traj.agent_ids]
    ticks = []  # each tick's rows after its time field
    for lo, hi, fields in _blocks(table[-1:], len(table), settle):
        rows = [
            b",".join([b"", aid, *fields[3 * i : 3 * i + 3]]) + b"\n"
            for i, aid in enumerate(ids)
        ]
        ticks += [rows] * (hi - lo)
    lines = (t + row for t, rows in zip(time_fields(traj.times), ticks) for row in rows)
    head = ",".join(PLAN_COLUMNS).encode() + b"\n"
    return b"".join(chain([head], lines)) % _varying(table, settle)


def dumps_json(doc) -> str:
    """``doc`` as the program writes every JSON document: sorted keys, indent 2,
    ASCII, and a final newline. ``graph``'s stdout is a bundle's ``matrices.json``.

    The bytes are those of the stdlib's ``json.dumps`` with ``sort_keys=True,
    indent=2``, and a newline, for a ``doc`` whose keys are all ``str``, as
    every document the program writes has (any other key raises
    ``TypeError``). Only the writing is faster than the stdlib's pure-Python
    indented encoder: a non-empty list of finite floats (a row of ``W``,
    ``L`` or ``H``) is one join of ``float.__repr__``, and every other
    value is dispatched by type.
    """
    chunks: list[str] = []
    _write_json(doc, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(value, newline: str, put) -> None:
    """``put`` the JSON text of ``value``, whose own lines start with ``newline``.

    Strings, ints, bools, ``None`` and finite floats are written here, and
    a list of finite floats in one join. Any other leaf (a non-finite
    float, an ``np.float64`` outside such a list) goes to ``json.dumps``,
    whose spelling it keeps (``NaN``, ``Infinity``).
    """
    kind = type(value)
    if kind is str:
        put(_encode_str(value))
    elif kind is float and math.isfinite(value):
        put(float.__repr__(value))
    elif kind is int:
        put(int.__repr__(value))
    elif kind is bool:
        put("true" if value else "false")
    elif value is None:
        put("null")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        try:  # json writes a float (or float subclass) through float.__repr__
            text = ("," + inner).join(map(float.__repr__, value))
            floats = "n" not in text  # only inf and nan reprs hold an n
        except TypeError:  # an item that is not a float
            floats = False
        if floats:
            put("[" + inner + text + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + _encode_str(key) + ": ")
            _write_json(value[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    else:
        put(json.dumps(value))


def matrices_document(scenario: Scenario, spectrum: SpectralReport, rho: float) -> dict:
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
    matrices, ids = scenario.config.matrices, scenario.config.ids
    followers = ids[3:]
    weights = np.take_along_axis(matrices.W[3:], matrices.neighbors, axis=1)
    return {
        "agent_order": list(ids),
        "follower_order": list(followers),
        "alpha": matrices.H[3:].tolist(),
        "w": dict(zip(followers, weights.tolist())),
        "W": matrices.W.tolist(),
        "L": matrices.L.tolist(),
        "H": matrices.H.tolist(),
        "spectrum": {
            "eigenvalues_real": spectrum.eigenvalues.real.tolist(),
            "eigenvalues_imag": spectrum.eigenvalues.imag.tolist(),
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


def _layout(scenario: Scenario) -> dict:
    """The manifest keys ``scenario`` fixes: the trace columns, the agent
    order and each output's file name, ``trace_<id>.csv`` for each agent.
    """
    ids = scenario.config.ids
    return {
        "trace_columns": list(TRACE_COLUMNS),
        "agent_order": list(ids),
        "outputs": {
            "traces": {aid: f"trace_{aid}.csv" for aid in ids},
            "metrics": "metrics.json",
            "matrices": "matrices.json",
        },
    }


def _difference(found, wanted, where: str) -> str | None:
    """The first key path under ``where`` at which ``found`` is not ``wanted``,
    and how; None when they are equal. Lists compare index by index, and
    ``reprlib`` quotes values and each long key on the path (``_path_key``),
    so the message stays short; equal values are never quoted."""
    if found == wanted:
        return None
    if isinstance(found, list) and isinstance(wanted, list):
        found, wanted = dict(enumerate(found)), dict(enumerate(wanted))
    if not (isinstance(found, dict) and isinstance(wanted, dict)):
        return f"{where}: {reprlib.repr(found)} is not {reprlib.repr(wanted)}"
    for key in [*wanted, *found]:
        if key not in found or key not in wanted:
            how = "missing" if key in wanted else "unexpected"
            return f"{where}: {how} key {reprlib.repr(key)}"
        step = f"[{key}]" if isinstance(key, int) else f".{_path_key(key)}"
        inner = _difference(found[key], wanted[key], where + step)
        if inner is not None:
            return inner
    return None


def _repeated(doc) -> str | None:
    """The first key that an object in ``doc``, a ``load_json`` value, repeats,
    after that object's path from the root ``$``; None when none repeats one.
    The key and each key on the path are quoted through ``reprlib`` when
    long, and a path of more than eight steps keeps its first three and its
    last, with ``...`` between.

    A walk with a stack, not recursion: the parser may nest deeper than
    Python frames can. A node's path is the tuple of its keys and indices,
    written out only for the node that repeats a key.
    """
    stack = [((), doc)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, dict):
            if node.repeated:
                steps = [
                    f"[{k}]" if isinstance(k, int) else f".{_path_key(k)}" for k in path
                ]
                if len(steps) > 8:
                    steps[3:-1] = ["..."]
                where = "".join(steps)
                return f"${where}: duplicate key {reprlib.repr(node.repeated[0])}"
            items = [((*path, key), value) for key, value in node.items()]
        elif isinstance(node, list):
            items = [((*path, i), value) for i, value in enumerate(node)]
        else:
            continue
        stack += reversed(items)
    return None


_SHARE_FAILED = 3  # a child's exit status when its share's ``step`` raised
# Trace cells (rows x 10 columns) a share must hold to repay its fork. On a
# 2-CPU x86-64 host (Python 3.11), one share formats a cell in about 140 ns
# and parses one in about 85 ns; a bare fork-and-reap of a simulating process
# takes about 2.5 ms, and the child then pays a copy-on-write fault for each
# page it touches. A share of 2^18 cells is about 37 ms of formatting and 22 ms
# of parsing. The default run (240,060 cells) in two shares wrote and read
# slower than in one in 20 of 20 in-process pairs (emit_bundle 40 -> 50 ms,
# read_bundle 32 -> 39 ms). End to end, two shares won only while the other
# CPU was idle (simulate_s 0.098 against 0.109 s) and lost while it was busy
# (0.126 against 0.112 s). Swarm's 1,031,030 cells gain from two shares
# (emit_bundle 225 -> 147 ms, read_bundle 122 -> 78 ms).
_SHARE_CELLS = 2**18


def _split_agents(ids, rows: int, step) -> None:
    """Run ``step(index)`` for each agent of ``ids``, whose trace CSVs hold
    ``rows`` rows each, in contiguous shares: at most one per CPU this
    process may run on, and at least ``_SHARE_CELLS`` trace cells in each,
    so a default-sized team (6 agents, 4,001 rows: 240,060 cells) runs in
    one share on any host. ``step`` leaves its results in files or shared
    memory and raises what a one-share run raises.

    The first share runs here, beside an ``os.fork``ed child for each other
    share. A child sends nothing back: it leaves through ``os._exit``, with 0
    or, when its ``step`` raised, ``_SHARE_FAILED``, so it never flushes this
    process's buffers, runs its ``atexit`` handlers or prints a traceback.
    Every child is waited for. Then, in agent order, this process reruns each
    share whose child failed or that no child started (no ``os.fork``, or an
    ``OSError`` from it), so the first failure in agent order raises here as
    a one-share run raises it. A child that ended any other way (a signal,
    status 1) raises ``AffineSwarmError`` naming its agents. So a share whose
    fork failed runs after the first, and a failure only a child met, which
    the rerun does not meet (a transient ``EMFILE``), gives the rerun's result.

    The process forks with one thread. Importing numpy starts OpenBLAS's
    pool, 2 threads in all (Linux, Python 3.11, OpenBLAS 0.3.31), but the
    pool's at-fork handler stops it before each fork: this process has 1
    thread right after ``os.fork``, and the pool restarts at its next BLAS
    call, which no share makes.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    cells = len(ids) * rows * len(TRACE_COLUMNS)
    shares = max(1, min(cpus, len(ids), cells // _SHARE_CELLS))
    cuts = [len(ids) * k // shares for k in range(shares + 1)]

    def run(share: int) -> None:
        for index in range(cuts[share], cuts[share + 1]):
            step(index)

    pids, codes = {}, {}
    try:
        for share in range(1, shares if hasattr(os, "fork") else 1):
            try:
                pid = os.fork()
            except OSError:
                continue
            if pid == 0:
                status = 1
                try:
                    run(share)
                    status = 0
                except Exception:
                    status = _SHARE_FAILED
                finally:
                    os._exit(status)
            pids[share] = pid
        run(0)
    finally:
        for share, pid in pids.items():
            codes[share] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for share in range(1, shares):
        code = codes.get(share, _SHARE_FAILED)  # no child started it
        if code == _SHARE_FAILED:
            run(share)
        elif code != 0:
            first, last = ids[cuts[share]], ids[cuts[share + 1] - 1]
            if code > 0:
                how = f"exited with status {code}"
            else:
                how = f"was killed by signal {-code}"
            raise AffineSwarmError(
                f"the process for agents {reprlib.repr(first)} to "
                f"{reprlib.repr(last)} {how}"
            )


def emit_bundle(
    out_dir,
    scenario: Scenario,
    trace: SimTrace,
    metrics: RunMetrics,
    spectrum: SpectralReport,
    rho: float,
) -> Path:
    """Write trace CSVs, metrics and the scenario's matrices JSON, and the manifest.

    ``trace`` is a simulated one (``run_simulation``), as the CSVs log
    its ``references`` and ``desired``; a trace ``read_bundle`` gives has
    neither. ``_split_agents`` writes the CSVs one agent at a time, each
    through one open file, in shares of the agents sized by CPUs and trace
    cells, so the bytes do not depend on the CPU count. Returns the
    bundle directory. I/O failures are re-raised with the offending path in
    the message, the first failing agent's for the CSVs.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    layout = _layout(scenario)
    outputs = layout["outputs"]
    names = list(outputs["traces"].values())
    times, settle = time_fields(trace.times), settle_rows(trace)

    def write(index: int) -> None:
        write_trace_csv(out / names[index], trace, index, times, settle[index])

    try:
        _split_agents(scenario.config.ids, len(times), write)
        manifest = {
            "tool": {"name": "affineswarm", "version": __version__},
            "scenario": scenario_to_dict(scenario),
            "scenario_sha256": scenario_sha256(scenario),
            **layout,
        }
        for name, doc in (
            (outputs["metrics"], metrics.to_dict()),
            (outputs["matrices"], matrices_document(scenario, spectrum, rho)),
            ("manifest.json", manifest),
        ):
            (out / name).write_bytes(dumps_json(doc).encode())
    except OSError as exc:
        raise OSError(f"failed writing bundle under {out}: {exc}") from exc
    return out


def _parse(lines: list[str], **kwargs) -> np.ndarray:
    """``lines`` of comma-separated numbers through numpy's C parser."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, **kwargs)


def _line_damage(lines: list[str], grid: np.ndarray) -> str:
    """The first damage a line-by-line read of the trace CSV ``lines`` finds.

    The header first, then field counts, then the row count against the
    tick grid ``grid``, then each value through ``_parse``, one line at a
    time, then non-finite values, then a ``t`` off the grid. Called only on
    lines ``_trace_table`` refused, so one of these checks fails.
    """
    rows, cols = len(grid), len(TRACE_COLUMNS)
    if lines[0] != TRACE_HEADER:
        got = reprlib.repr(lines[0])
        return f"line 1 is {got}, expected the header {TRACE_HEADER!r}"
    for number, line in enumerate(lines[1:], start=2):
        if line.count(",") != cols - 1:
            return f"line {number} has {line.count(',') + 1} fields, expected {cols}"
    if len(lines) - 1 != rows:
        return f"{len(lines) - 1} rows of {cols} fields, expected {rows} rows of {cols}"
    for number, line in enumerate(lines[1:], start=2):
        try:
            _parse([line])
        except ValueError:
            for col, value in enumerate(line.split(",")):
                try:
                    _parse([line], usecols=col)
                except ValueError:
                    got = reprlib.repr(value)
                    return f"line {number} has a value that is not a number: {got}"
    table = _parse(lines[1:])
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if len(bad):
        return f"line {bad[0] + 2} has a non-finite value"
    k = np.flatnonzero(table[:, 0] != grid)[0]
    expected = f"expected the tick grid's {grid[k]:.9g}"
    return f"line {k + 2} has t={table[k, 0]:.9g}, {expected}"


def _trace_table(csv: Path, text: str, grid: np.ndarray) -> np.ndarray:
    """The values of the trace CSV ``text`` read from ``csv``, a row per ``grid`` time.

    numpy's C parser reads the lines in one call; they are passed as a
    list, since an ``io.StringIO`` of the text holds four bytes a
    character. Its result counts only when line 1 is the header, there
    is one line per grid time after it (``loadtxt`` skips blank ones),
    every value is finite and the ``t`` column is ``grid``. Otherwise
    ``ScenarioError`` names the damage ``_line_damage`` locates.
    """
    lines = text.strip().split("\n")
    if lines[0] == TRACE_HEADER and len(lines) == len(grid) + 1:
        try:
            table = _parse(lines[1:])
        except ValueError:
            pass
        else:
            if (
                table.shape == (len(grid), len(TRACE_COLUMNS))
                and np.isfinite(table).all()
                and (table[:, 0] == grid).all()
            ):
                return table
    damage = _line_damage(lines, grid)
    raise ScenarioError([f"{csv}: damaged trace CSV: {damage}"])


def read_bundle(bundle_dir) -> tuple[Scenario, SimTrace]:
    """The scenario a bundle's manifest embeds and the trace its CSVs hold.

    The manifest's ``trace_columns``, ``agent_order`` and ``outputs`` must
    be the layout its scenario fixes (``_layout``), so the only files read
    are ``manifest.json`` and each agent's ``trace_<id>.csv``, and then its
    ``scenario_sha256`` must be the scenario's hash. Each CSV must
    hold one row per time of the scenario's tick grid (``tick_times``), and
    its ``t`` column must be that grid at 9 significant digits; the trace's
    times are the grid itself. Values carry the CSV's 9-significant-digit
    precision, which is ample for every recomputed metric.

    Every column of every CSV is parsed and checked, but only ``x,y,z``
    is kept: the trace's ``positions`` is one C-contiguous float64
    ``(T, N, 3)`` array over an anonymous shared mapping allocated up
    front, and its ``references`` and ``desired`` are None, as no metric
    reads them. ``_split_agents`` reads the CSVs one agent at a time, in the
    writer's shares, copying each into its agent's column once its checks
    pass, so a process holds the 24·T·N bytes of positions plus one agent's
    CSV. The positions and messages do not depend on the CPU count: a
    damaged CSV is the first in agent order.

    A missing, unreadable or malformed manifest, an object in it that
    repeats a key (located from the manifest's root ``$``), a missing key, an
    embedded scenario the schema rejects, a layout key other than the
    scenario's, a ``scenario_sha256`` other than the scenario's hash, and a
    missing, unreadable or damaged CSV (not UTF-8, wrong field or row
    count, a non-numeric or non-finite value, a time off the grid) each
    raise ``ScenarioError`` naming the file. An embedded
    scenario whose configuration breaks an invariant raises
    ``ConfigError`` naming the manifest.
    """
    out = Path(bundle_dir)
    path = out / "manifest.json"
    if not path.exists():
        raise ScenarioError([f"{path}: no manifest found"])
    try:
        doc = load_json(path.read_text())
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot read manifest: {exc.strerror}"]) from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ScenarioError([f"{path}: malformed manifest: {exc}"]) from None
    repeat = _repeated(doc)
    if repeat is not None:
        raise ScenarioError([f"{path}: {repeat}"])
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise ScenarioError([f"{path}: missing key 'scenario'"])
    try:
        scenario = scenario_from_dict(doc["scenario"], source="scenario")
    except ScenarioError as exc:
        raise ScenarioError([f"{path}: {line}" for line in exc.errors]) from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    layout = _layout(scenario)
    fixed = {**layout, "scenario_sha256": scenario_sha256(scenario)}
    for key, expected in fixed.items():
        if key not in doc:
            raise ScenarioError([f"{path}: missing key {key!r}"])
        difference = _difference(doc[key], expected, key)
        if difference is not None:
            raise ScenarioError([f"{path}: {difference}"])

    times = tick_times(scenario.schedule, scenario.params)
    grid = np.array(time_fields(times), dtype=float)
    names = list(layout["outputs"]["traces"].values())
    shape = (len(times), len(names), 3)
    # An anonymous shared mapping, so a forked share's rows reach this process.
    positions = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)

    def parse(index: int) -> None:
        csv = out / names[index]
        try:
            text = csv.read_text()
        except OSError as exc:
            reason = f"cannot read trace CSV: {exc.strerror}"
            raise ScenarioError([f"{csv}: {reason}"]) from None
        except UnicodeDecodeError as exc:
            raise ScenarioError([f"{csv}: damaged trace CSV: {exc}"]) from None
        positions[:, index] = _trace_table(csv, text, grid)[:, 1:4]

    _split_agents(scenario.config.ids, len(times), parse)
    return scenario, SimTrace(times=times, positions=positions)
