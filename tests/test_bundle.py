"""Bundle serialization: CSV formats, manifest, reproducibility."""

import json
import math
import os
import reprlib
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from conftest import (
    assert_no_child_left,
    make_scenario,
    random_config,
    random_schedule,
    see_cpus,
    serialize_scenario,
    split_small_runs,
    trace_csv_oracle,
    trace_table_oracle,
    traced_peak,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from affineswarm import (
    LeaderTrajectory,
    SimParams,
    SimTrace,
    leader_trajectory,
    run_simulation,
    scenario_sha256,
    validate_run,
    verify_spectrum,
)
from affineswarm import bundle
from affineswarm.bundle import (
    PLAN_COLUMNS,
    TRACE_COLUMNS,
    emit_bundle,
    matrices_document,
    plan_csv_text,
    read_bundle,
    settle_rows,
    time_fields,
    write_trace_csv,
)
from affineswarm.errors import ScenarioError
from affineswarm.scenario import Scenario, parse_scenario
from affineswarm.simulation import closed_loop_radius, tick_times


def csv_text(trace, index, times, settle) -> bytes:
    """The bytes ``write_trace_csv`` writes for agent ``index`` of ``trace``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv(path, trace, index, times, settle)
        with open(path, "rb") as file:
            return file.read()


def csv_of(trace, agent_id, ids=("a",)):
    """``agent_id``'s trace CSV, as ``emit_bundle`` writes it; ``ids`` is
    the trace's agent order."""
    index = ids.index(agent_id)
    times, settle = time_fields(trace.times), settle_rows(trace)
    return csv_text(trace, index, times, settle[index])


def graph_parts(scenario):
    """The spectrum report and closed-loop radius that ``simulate`` passes."""
    return (
        verify_spectrum(scenario.config.matrices),
        closed_loop_radius(scenario.config.matrices, scenario.params),
    )


@pytest.fixture(scope="module")
def default_trace(default_scenario):
    return run_simulation(default_scenario)


@pytest.fixture(scope="module")
def short_run(default_scenario):
    # The default scenario with a coarse step and short horizon keeps the
    # serialization tests fast while exercising the full pipeline.
    s = default_scenario
    params = SimParams(
        dt=0.01, control_rate=100.0, kp=s.params.kp, kd=s.params.kd, duration=4.0
    )
    scenario = Scenario(
        name="short",
        config=s.config,
        schedule=s.schedule,
        params=params,
        safety=s.safety,
        corridor=s.corridor,
    )
    trace = run_simulation(scenario)
    metrics = validate_run(trace, scenario)
    return scenario, trace, metrics


class TestTraceCsv:
    def test_header_and_shape(self, short_run):
        scenario, trace, _ = short_run
        text = csv_of(trace, "cf1", scenario.config.ids)
        lines = text.strip().split(b"\n")
        assert lines[0] == ",".join(TRACE_COLUMNS).encode()
        assert len(lines) == len(trace.times) + 1
        assert all(len(line.split(b",")) == 10 for line in lines[1:])

    def test_first_row_matches_reference_position(self, short_run):
        scenario, trace, _ = short_run
        first = csv_of(trace, "cf1", scenario.config.ids).strip().split(b"\n")[1]
        assert first.startswith(b"0,0,0.75,1,")

    def test_nine_significant_digits(self, short_run):
        scenario, trace, _ = short_run
        row = csv_of(trace, "cf2", scenario.config.ids).strip().split(b"\n")[-1]
        for field in row.split(b","):
            digits = field.replace(b"-", b"").replace(b".", b"")
            mantissa = digits.split(b"e")[0].lstrip(b"0")
            assert len(mantissa) <= 9


EDGE_VALUES = (-0.0, 5e-324, 1e300, 9.9999999995, -1.5e-7, 123456789.5, 0.1)


def _edge_table(rows, cols):
    values = np.resize(np.array(EDGE_VALUES), rows * cols)
    return values.reshape(rows, cols)


class TestOnePassFormatting:
    """The one-pass ``%.9g`` formatter equals ``format(float(v), ".9g")`` per value."""

    def test_trace_csv_edge_values(self):
        table = _edge_table(len(EDGE_VALUES) + 1, 10)
        trace = SimTrace(
            times=table[:, 0],
            positions=table[:, None, 1:4],
            references=table[:, None, 4:7],
            desired=table[:, None, 7:10],
        )
        lines = csv_of(trace, "a").split(b"\n")
        assert lines[0] == ",".join(TRACE_COLUMNS).encode()
        assert lines[-1] == b""
        expected = [
            ",".join(format(float(v), ".9g") for v in row).encode() for row in table
        ]
        assert lines[1:-1] == expected
        assert b"-0" in lines[1].split(b",")
        assert b"4.94065646e-324" in lines[1].split(b",")

    def test_plan_csv_edge_values(self):
        table = _edge_table(4, 10)
        traj = LeaderTrajectory(
            times=table[:, 0],
            agent_ids=("u1", "u%2", "u3"),
            positions=table[:, 1:].reshape(4, 3, 3),
        )
        lines = plan_csv_text(traj).split(b"\n")
        assert lines[0] == ",".join(PLAN_COLUMNS).encode()
        expected = [
            ",".join(
                [format(float(traj.times[k]), ".9g"), aid]
                + [format(float(v), ".9g") for v in traj.positions[k, i]]
            ).encode()
            for k in range(4)
            for i, aid in enumerate(traj.agent_ids)
        ]
        assert lines[1:] == expected + [b""]

    def test_empty_trace_is_header_only(self):
        trace = SimTrace(
            times=np.empty(0),
            positions=np.empty((0, 1, 3)),
            references=np.empty((0, 1, 3)),
            desired=np.empty((0, 1, 3)),
        )
        assert csv_of(trace, "a") == (",".join(TRACE_COLUMNS) + "\n").encode()


@st.composite
def trace_column(draw, rows):
    """``rows`` floats: constant, constant but one cell's last bit, mixed
    ``0.0`` and ``-0.0``, free, or settled (free, then constant from a
    drawn row on)."""
    floats = st.sampled_from(EDGE_VALUES + (0.0, 9.999999995)) | st.floats()
    value = draw(floats)
    kind = draw(
        st.sampled_from(("constant", "last-bit", "signed-zero", "free", "settled"))
    )
    column = np.full(rows, value)
    if kind == "last-bit" and rows:
        k = draw(st.integers(0, rows - 1))
        with np.errstate(over="ignore"):
            column[k] = np.nextafter(value, draw(st.sampled_from((-np.inf, np.inf))))
    elif kind == "signed-zero":
        signs = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        column = np.where(signs, 0.0, -0.0)
    elif kind == "free":
        column = np.array(draw(st.lists(floats, min_size=rows, max_size=rows)))
    elif kind == "settled" and rows:
        k = draw(st.integers(0, rows - 1))
        column[:k] = draw(st.lists(floats, min_size=k, max_size=k))
    return column


def trace_of(times, table):
    """A ``SimTrace`` of ``times`` and the (T, N, 9) ``table``."""
    return SimTrace(
        times=times,
        positions=table[:, :, 0:3],
        references=table[:, :, 3:6],
        desired=table[:, :, 6:9],
    )


class TestTraceCsvOracle:
    """``write_trace_csv`` writes the bytes of one ``%.9g`` per cell."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bytes_equal_the_oracle(self, data):
        rows = data.draw(st.integers(0, 16))
        agents = data.draw(st.integers(1, 2))
        columns = [data.draw(trace_column(rows)) for _ in range(1 + 9 * agents)]
        table = np.column_stack(columns[1:]).reshape(rows, agents, 9)
        trace = trace_of(columns[0], table)
        times, settle = time_fields(trace.times), settle_rows(trace)
        for index in range(agents):
            text = csv_text(trace, index, times, settle[index])
            assert text == trace_csv_oracle(trace, index)

    def test_constant_columns_compare_bits(self):
        # Equal values with different bits (0.0 and -0.0), and a last bit
        # that moves 9.999999995 across a rounding boundary at 9 digits.
        table = np.ones((4, 1, 9))
        table[:, 0, 2] = (0.0, -0.0, 0.0, 0.0)
        table[:, 0, 5] = 9.999999995
        table[3, 0, 5] = np.nextafter(9.999999995, 10.0)
        trace = trace_of(np.arange(4) * 0.1, table)
        text = csv_of(trace, "a")
        assert text == trace_csv_oracle(trace, 0)
        rows = [line.split(b",") for line in text.split(b"\n")[1:-1]]
        assert [row[3] for row in rows] == [b"0", b"-0", b"0", b"0"]
        assert [row[6] for row in rows] == [b"9.99999999"] * 3 + [b"10"]

    def test_settled_tails(self):
        # Columns that settle at different rows, one only on the last row,
        # a -0.0 just before a 0.0 tail, and a last-bit neighbour of the
        # tail's value just before it.
        rows = 8
        table = np.arange(1.0, rows * 9 + 1).reshape(rows, 1, 9) / 4
        table[5:, 0, 0] = 2.5  # settles at row 5
        table[2:, 0, 1] = 1e-300  # settles at row 2
        table[7, 0, 3] = 7.0  # only the last row
        table[4, 0, 4] = -0.0
        table[5:, 0, 4] = 0.0  # settles at row 5, after a -0.0
        table[:, 0, 6] = 9.999999995
        table[5, 0, 6] = np.nextafter(9.999999995, 10.0)  # settles at row 6
        table[:, 0, 8] = 1.0  # constant on every row
        trace = trace_of(np.arange(rows) * 0.1, table)
        text = csv_of(trace, "a")
        assert text == trace_csv_oracle(trace, 0)
        fields = [line.split(b",") for line in text.split(b"\n")[1:-1]]
        assert [row[1] for row in fields][4:] == [b"9.25", b"2.5", b"2.5", b"2.5"]
        assert [row[2] for row in fields][1:3] == [b"2.75", b"1e-300"]
        assert [row[4] for row in fields][6:] == [b"14.5", b"7"]
        assert [row[5] for row in fields][3:] == [b"8", b"-0", b"0", b"0", b"0"]
        assert [row[7] for row in fields][4:] == (
            [b"9.99999999", b"10"] + [b"9.99999999"] * 2
        )
        assert {row[9] for row in fields} == {b"1"}


class TestSettleRows:
    """``settle_rows`` gives each column's first row of its last row's bits."""

    def test_no_rows_and_one_row(self):
        for rows in (0, 1):
            table = np.full((rows, 2, 9), -0.0)
            trace = trace_of(np.arange(rows) * 0.1, table)
            settle = settle_rows(trace)
            assert settle.shape == (2, 9)
            assert not settle.any()
            for index, agent_id in enumerate("ab"):
                assert csv_of(trace, agent_id, "ab") == trace_csv_oracle(trace, index)
        row = csv_of(trace, "a", "ab").split(b"\n")[1]
        assert row == b",".join([b"0"] + [b"-0"] * 9)

    def test_rows_and_columns(self):
        table = np.zeros((5, 2, 9))
        table[:3, 0, 0] = 1.0  # moves on rows 0-2
        table[4, 1, 8] = -0.0  # moves on the last row only: settles there
        table[1, 1, 4] = 5e-324  # one row apart from a settled 0.0
        settle = settle_rows(trace_of(np.arange(5) * 0.1, table))
        expected = np.zeros((2, 9), dtype=int)
        expected[0, 0], expected[1, 8], expected[1, 4] = 3, 4, 2
        assert np.array_equal(settle, expected)


@st.composite
def plan_ids(draw):
    """Three distinct leader ids, some with ``%`` and non-ASCII characters."""
    alphabet = st.sampled_from("ab%é✓_-1 ")
    return tuple(
        draw(st.lists(st.text(alphabet, min_size=1, max_size=6), min_size=3,
                      max_size=3, unique=True))
    )


class TestPlanCsvOracle:
    """``plan_csv_text`` gives the bytes of one ``format(v, ".9g")`` per cell."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bytes_equal_the_oracle(self, data):
        rows = data.draw(st.integers(0, 12))
        columns = [data.draw(trace_column(rows)) for _ in range(10)]
        traj = LeaderTrajectory(
            times=columns[0],
            agent_ids=data.draw(plan_ids()),
            positions=np.column_stack(columns[1:]).reshape(rows, 3, 3),
        )
        lines = [",".join(PLAN_COLUMNS)] + [
            ",".join(
                [format(float(traj.times[k]), ".9g"), aid]
                + [format(float(v), ".9g") for v in traj.positions[k, i]]
            )
            for k in range(rows)
            for i, aid in enumerate(traj.agent_ids)
        ]
        assert plan_csv_text(traj) == "".join(line + "\n" for line in lines).encode()


EDITS = (
    "blank", "whitespace", "extra-comma", "drop-comma", "cut-line", "cut-file",
    "hash", "1_0", "nan", "inf", "no-final-newline",
)


def damage(data, text, edit):
    """``text`` with one ``edit`` at a place ``data`` draws."""
    if edit == "cut-file":
        return text[: data.draw(st.integers(0, len(text)))]
    if edit == "hash":
        at = data.draw(st.integers(0, len(text)))
        return text[:at] + "#" + text[at:]
    if edit == "no-final-newline":
        return text.rstrip("\n")
    lines = text.split("\n")
    k = data.draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    if edit in ("blank", "whitespace"):
        blank = "" if edit == "blank" else data.draw(st.sampled_from((" ", "\t", "  ")))
        lines.insert(k, blank)
    elif edit == "extra-comma":
        at = data.draw(st.integers(0, len(line)))
        lines[k] = line[:at] + "," + line[at:]
    elif edit == "drop-comma" and "," in line:
        at = data.draw(st.sampled_from([i for i, c in enumerate(line) if c == ","]))
        lines[k] = line[:at] + line[at + 1 :]
    elif edit == "cut-line":
        lines[k] = line[: data.draw(st.integers(0, len(line)))]
    elif edit in ("1_0", "nan", "inf"):
        fields = line.split(",")
        token = data.draw(st.sampled_from(("inf", "-inf"))) if edit == "inf" else edit
        fields[data.draw(st.integers(0, len(fields) - 1))] = token
        lines[k] = ",".join(fields)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def short_bundle(short_run, tmp_path_factory):
    scenario, trace, metrics = short_run
    out = tmp_path_factory.mktemp("codec") / "run"
    return emit_bundle(out, scenario, trace, metrics, *graph_parts(scenario)), scenario


class TestTraceReaderOracle:
    """``read_bundle`` reaches a one-``float``-per-field reader's verdict."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_edit_is_judged_as_the_oracle_judges(self, short_bundle, data):
        # Every column is judged, the logged ones too; only x,y,z is kept.
        out, scenario = short_bundle
        index = data.draw(st.integers(0, len(scenario.config.ids) - 1))
        csv = out / f"trace_{scenario.config.ids[index]}.csv"
        original = csv.read_text()
        edit = data.draw(st.sampled_from(EDITS))
        text = damage(data, original, edit)
        csv.write_text(text)
        try:
            got = read_bundle(out)[1].positions[:, index]
        except ScenarioError as exc:
            got = exc.errors
        finally:
            csv.write_text(original)
        try:
            table = trace_table_oracle(
                csv, text, tick_times(scenario.schedule, scenario.params)
            )
            expected = table[:, 1:4]
        except ScenarioError as exc:
            expected = exc.errors
        if edit == "1_0" and isinstance(got, list) and "'1_0'" in got[0]:
            return  # float() accepts "1_0"; numpy's parser refuses it.
        if isinstance(expected, list):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestPlanCsv:
    def test_rows_per_tick_per_leader(self, default_scenario):
        traj = leader_trajectory(
            default_scenario.schedule, default_scenario.config, tick_rate=10.0
        )
        text = plan_csv_text(traj)
        lines = text.strip().split(b"\n")
        assert lines[0] == b"t,agent_id,x_d,y_d,z_d"
        assert len(lines) == 1 + 3 * len(traj.times)
        assert lines[1].split(b",")[1] == b"cf1"


class TestEmitBundle:
    def test_bundle_contents(self, short_run, tmp_path):
        scenario, trace, metrics = short_run
        bundle = emit_bundle(
            tmp_path / "run", scenario, trace, metrics, *graph_parts(scenario)
        )
        assert bundle == tmp_path / "run"
        assert (bundle / "manifest.json").exists()
        assert sorted(p.name for p in bundle.glob("trace_*.csv")) == [
            f"trace_{aid}.csv" for aid in sorted(scenario.config.ids)
        ]
        doc = json.loads((bundle / "matrices.json").read_text())
        assert set(doc) == {
            "agent_order", "follower_order", "alpha", "w", "W", "L", "H", "spectrum",
            "closed_loop",
        }
        assert np.array(doc["W"]).shape == (6, 6)
        metrics_doc = json.loads((bundle / "metrics.json").read_text())
        assert metrics_doc["safety_pass"] is True

    def test_manifest_hash_matches_reserialized_scenario(self, short_run, tmp_path):
        scenario, trace, metrics = short_run
        bundle = emit_bundle(
            tmp_path / "run", scenario, trace, metrics, *graph_parts(scenario)
        )
        manifest = json.loads((bundle / "manifest.json").read_text())
        reparsed = parse_scenario(json.dumps(manifest["scenario"]))
        assert scenario_sha256(reparsed) == manifest["scenario_sha256"]
        assert reparsed == scenario

    def test_read_builds_the_scenario_from_the_manifests_dict(
        self, short_run, tmp_path, monkeypatch
    ):
        # The embedded scenario is not re-serialised to be parsed again: the
        # one json.dumps a read makes is the canonical text scenario_sha256
        # hashes.
        scenario, trace, metrics = short_run
        bundle = emit_bundle(
            tmp_path / "run", scenario, trace, metrics, *graph_parts(scenario)
        )
        calls, dumps = [], json.dumps

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", recording)
        assert read_bundle(bundle)[0] == scenario
        assert calls == [{"sort_keys": True, "separators": (",", ":")}]

    def test_round_trip_read_trace(self, short_run, tmp_path):
        scenario, trace, metrics = short_run
        bundle = emit_bundle(
            tmp_path / "run", scenario, trace, metrics, *graph_parts(scenario)
        )
        read_scenario, loaded = read_bundle(bundle)
        assert read_scenario == scenario
        # The times are the scenario's tick grid itself.
        assert np.array_equal(loaded.times, trace.times)
        # CSV carries 9 significant digits.
        np.testing.assert_allclose(loaded.positions, trace.positions, rtol=1e-8, atol=1e-12)
        # The logged columns are checked, not kept.
        assert loaded.references is None and loaded.desired is None
        # The bulk parse gives the values one float() per field gives.
        for i, aid in enumerate(scenario.config.ids):
            lines = (bundle / f"trace_{aid}.csv").read_text().splitlines()[1:]
            table = np.array([[float(v) for v in line.split(",")] for line in lines])
            assert np.array_equal(loaded.times, table[:, 0])
            assert np.array_equal(loaded.positions[:, i], table[:, 1:4])

    def test_rerun_from_manifest_is_byte_identical(self, short_run, tmp_path):
        scenario, trace, metrics = short_run
        first = emit_bundle(
            tmp_path / "a", scenario, trace, metrics, *graph_parts(scenario)
        )
        replay, _ = read_bundle(first)
        trace2 = run_simulation(replay)
        metrics2 = validate_run(trace2, replay)
        second = emit_bundle(
            tmp_path / "b", replay, trace2, metrics2, *graph_parts(replay)
        )
        for aid in scenario.config.ids:
            name = f"trace_{aid}.csv"
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_files_equal_the_oracle_for_strided_arrays(self, short_run, tmp_path):
        # A trace of the scenario's agents whose arrays are strided views of
        # one wider table: columns that settle, one constant only by chance
        # within a block, a -0.0 column.
        scenario, _, metrics = short_run
        ids = scenario.config.ids
        rows = 7
        wide = np.arange(rows * 3 * len(ids) * 9.0).reshape(rows, 3, len(ids), 9) / 7
        table = wide[:, 1]
        table[4:, 0, 2] = 2.5
        table[1:, 0, 3] = 4.0  # cuts a block at row 1
        table[:, 1, 5] = -0.0
        table[1:3, 1, 7] = 1e300  # constant in the block of rows 1-2
        table[3:, 1, 7] = 0.1
        trace = trace_of(np.arange(rows) * 0.25, table)
        assert not trace.positions.flags.c_contiguous
        bundle = emit_bundle(
            tmp_path / "run", scenario, trace, metrics, *graph_parts(scenario)
        )
        for index, aid in enumerate(ids):
            text = (bundle / f"trace_{aid}.csv").read_bytes()
            assert text == trace_csv_oracle(trace, index)

    def test_unwritable_target_reports_path(self, short_run, tmp_path):
        scenario, trace, metrics = short_run
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(OSError, match="blocker"):
            emit_bundle(
                blocker / "run", scenario, trace, metrics, *graph_parts(scenario)
            )


# How a run's shares start: the first in process, the rest forked, or all in
# process when a fork raises or forking is missing.
SPLITS = {
    "1 cpu": (1, None),
    "2 cpus": (2, None),
    "4 cpus": (4, None),
    "fork fails": (4, "fork"),
    "no fork": (4, "missing"),
}


def split(monkeypatch, name):
    cpus, fault = SPLITS[name]
    split_small_runs(monkeypatch)
    see_cpus(monkeypatch, cpus)
    if fault == "fork":
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=OSError("no room")))
    elif fault == "missing":
        monkeypatch.delattr(os, "fork")


class TestSplitAcrossCpus:
    """The codec runs one share of the agents per CPU, with the same bytes."""

    @pytest.fixture(scope="class")
    def random_run(self):
        rng = np.random.default_rng(11)
        scenario = make_scenario(
            random_config(rng, 9),
            random_schedule(rng),
            SimParams(dt=0.01, duration=3.0),
        )
        trace = run_simulation(scenario)
        return scenario, trace, validate_run(trace, scenario)

    @pytest.mark.parametrize("run", ["default", "random"])
    def test_bytes_and_positions_do_not_depend_on_the_split(
        self, request, monkeypatch, tmp_path, run
    ):
        if run == "default":
            scenario = request.getfixturevalue("default_scenario")
            trace = request.getfixturevalue("default_trace")
            metrics = validate_run(trace, scenario)
        else:
            scenario, trace, metrics = request.getfixturevalue("random_run")
        files, positions = {}, {}
        for name in SPLITS:
            forked = []  # the pids this process's forks returned

            with monkeypatch.context() as patch:
                split(patch, name)
                if hasattr(os, "fork"):
                    fork = os.fork

                    def counted():
                        forked.append(fork())  # a child appends to its own copy
                        return forked[-1]

                    patch.setattr(os, "fork", counted)
                out = emit_bundle(
                    tmp_path / name, scenario, trace, metrics, *graph_parts(scenario)
                )
                assert_no_child_left()
                files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
                positions[name] = read_bundle(out)[1].positions.view(np.uint64)
                assert_no_child_left()
            # Every share but the first ran in a child, in both passes, when
            # a fork could start it.
            cpus, fork_fault = SPLITS[name]
            shares = min(cpus, len(scenario.config.ids))
            assert len(forked) == (0 if fork_fault else 2 * (shares - 1))
            assert all(forked)
        for name in SPLITS:
            assert files[name] == files["1 cpu"], name
            assert np.array_equal(positions[name], positions["1 cpu"]), name
        assert len(files["1 cpu"]) == len(scenario.config.ids) + 3
        for index, aid in enumerate(scenario.config.ids):
            assert files["1 cpu"][f"trace_{aid}.csv"] == trace_csv_oracle(trace, index)

    @pytest.mark.parametrize("blocked", [(1, 4), (4,), (3, 5)])
    def test_an_unwritable_trace_is_the_first_named(
        self, short_run, monkeypatch, tmp_path, blocked
    ):
        # A directory where a trace CSV goes cannot be written; with 2 CPUs
        # agents 0-2 are written here and 3-5 in a child.
        scenario, trace, metrics = short_run
        ids = scenario.config.ids
        messages = set()
        for name in SPLITS:
            out = tmp_path / name
            for index in blocked:
                (out / f"trace_{ids[index]}.csv").mkdir(parents=True)
            with monkeypatch.context() as patch:
                split(patch, name)
                with pytest.raises(OSError) as info:
                    emit_bundle(out, scenario, trace, metrics, *graph_parts(scenario))
            assert_no_child_left()
            messages.add(str(info.value).replace(str(out), "OUT"))
        first = f"trace_{ids[blocked[0]]}.csv"
        assert messages == {
            f"failed writing bundle under OUT: [Errno 21] Is a directory: 'OUT/{first}'"
        }

    @pytest.mark.parametrize("blocked, rerun", [(None, []), (4, [3, 4])])
    def test_the_parent_reruns_only_a_failed_childs_share(
        self, short_run, monkeypatch, tmp_path, blocked, rerun
    ):
        # With 2 CPUs agents 0-2 are formatted here and 3-5 in a child. A
        # child that cannot write agent 4's CSV has its share run again
        # here, which meets the same directory and stops there.
        scenario, trace, metrics = short_run
        parent, call, formatted = os.getpid(), bundle.write_trace_csv, []

        def recorded(path, trace, index, *args):
            if os.getpid() == parent:
                formatted.append(index)
            return call(path, trace, index, *args)

        monkeypatch.setattr(bundle, "write_trace_csv", recorded)
        split_small_runs(monkeypatch)
        see_cpus(monkeypatch, 2)
        if blocked is None:
            emit_bundle(tmp_path, scenario, trace, metrics, *graph_parts(scenario))
        else:
            csv = tmp_path / f"trace_{scenario.config.ids[blocked]}.csv"
            csv.mkdir()
            with pytest.raises(OSError) as info:
                emit_bundle(tmp_path, scenario, trace, metrics, *graph_parts(scenario))
            assert str(info.value) == (
                f"failed writing bundle under {tmp_path}: "
                f"[Errno 21] Is a directory: '{csv}'"
            )
        assert_no_child_left()
        assert formatted == [0, 1, 2, *rerun]

    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize(
        "layer, error",
        [
            ("write_trace_csv", OSError(24, "Too many open files")),
            ("_trace_table", ScenarioError(["a damage only a child sees"])),
        ],
    )
    def test_a_failure_only_a_child_meets_is_not_reported(
        self, short_run, monkeypatch, tmp_path, layer, error, cpus
    ):
        # The parent's rerun of the share does not meet it (a transient
        # EMFILE, say), so the run is a one-share run's.
        scenario, trace, metrics = short_run
        parts = graph_parts(scenario)
        split_small_runs(monkeypatch)
        see_cpus(monkeypatch, 1)
        alone = emit_bundle(tmp_path / "alone", scenario, trace, metrics, *parts)
        parent, call = os.getpid(), getattr(bundle, layer)

        def failing_in_a_child(*args):
            if os.getpid() != parent:
                raise error
            return call(*args)

        monkeypatch.setattr(bundle, layer, failing_in_a_child)
        see_cpus(monkeypatch, cpus)
        out = emit_bundle(tmp_path / "split", scenario, trace, metrics, *parts)
        assert_no_child_left()
        positions = read_bundle(out)[1].positions
        assert_no_child_left()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            p.name: p.read_bytes() for p in alone.iterdir()
        }
        monkeypatch.setattr(bundle, layer, call)
        see_cpus(monkeypatch, 1)
        expected = read_bundle(alone)[1].positions
        assert np.array_equal(positions.view(np.uint64), expected.view(np.uint64))


class TestShareFloor:
    """Each share holds at least ``_SHARE_CELLS`` trace cells, so the codec
    forks only for work that repays a fork, however many CPUs it may use."""

    @pytest.fixture(scope="class")
    def long_run(self, default_scenario):
        # 13,111 rows of 6 agents: 786,660 cells, just over three floors.
        params = replace(default_scenario.params, duration=131.1)
        scenario = replace(default_scenario, params=params)
        trace = run_simulation(scenario)
        assert 3 * bundle._SHARE_CELLS < trace.positions.size // 3 * 10
        return scenario, trace, validate_run(trace, scenario)

    @pytest.mark.parametrize("run, floors", [("default", 0), ("long", 3)])
    def test_forks_only_for_work_that_repays_them(
        self, request, monkeypatch, tmp_path, run, floors
    ):
        if run == "default":
            scenario = request.getfixturevalue("default_scenario")
            trace = request.getfixturevalue("default_trace")
            metrics = validate_run(trace, scenario)
        else:
            scenario, trace, metrics = request.getfixturevalue("long_run")
        files, positions = {}, {}
        for cpus in (1, 2, 4, 64):
            forked = []  # the pids this process's forks returned
            with monkeypatch.context() as patch:
                see_cpus(patch, cpus)
                fork = os.fork

                def counted():
                    forked.append(fork())  # a child appends to its own copy
                    return forked[-1]

                patch.setattr(os, "fork", counted)
                out = emit_bundle(
                    tmp_path / str(cpus), scenario, trace, metrics, *graph_parts(scenario)
                )
                written = len(forked)
                positions[cpus] = read_bundle(out)[1].positions.view(np.uint64)
            assert_no_child_left()
            shares = max(1, min(cpus, floors))
            assert written == len(forked) - written == shares - 1 <= 2
            files[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
        for cpus in files:
            assert files[cpus] == files[1], cpus
            assert np.array_equal(positions[cpus], positions[1]), cpus


class TestGoldenRows:
    """First and last CSV rows of the bundled scenario, pinned.

    The values are frozen from a verified run (the final leader position
    agrees with the commanded map evaluated by hand); any drift in the
    engine, formatting, or scenario shows up here.
    """

    GOLDEN = {
        "cf1": (
            b"0,0,0.75,1,0,0.75,1,0,0.75,1",
            b"40,3.63565765,0.5544242,1,3.63565765,0.5544242,1,"
            b"3.63565765,0.5544242,1",
        ),
        "cf4": (
            b"0,0.25,-0.25,1,0.25,-0.25,1,0.25,-0.25,1",
            b"40,4.26573284,-0.12647094,1,4.26573284,-0.12647094,1,"
            b"4.26573284,-0.12647094,1",
        ),
    }

    @pytest.mark.parametrize("agent_id", sorted(GOLDEN))
    def test_default_scenario_rows(self, default_scenario, default_trace, agent_id):
        ids = default_scenario.config.ids
        lines = csv_of(default_trace, agent_id, ids).strip().split(b"\n")
        first, last = self.GOLDEN[agent_id]
        assert lines[1] == first
        assert lines[-1] == last


class TestMatricesDocument:
    def test_row_major_values(self, short_run):
        matrices = short_run[0].config.matrices
        doc = matrices_document(short_run[0], *graph_parts(short_run[0]))
        np.testing.assert_array_equal(np.array(doc["W"]), matrices.W)
        np.testing.assert_array_equal(np.array(doc["H"]), matrices.H)
        assert doc["w"]["cf2"] == [0.5, 0.25, 0.25]

    @pytest.mark.parametrize(
        "rho, expected",
        [
            (0.768, {"spectral_radius": 0.768, "settling_ticks": 35}),
            (0.5, {"spectral_radius": 0.5, "settling_ticks": 14}),
            (0.0, {"spectral_radius": 0.0, "settling_ticks": 0}),
            (1.0, {"spectral_radius": 1.0, "settling_ticks": None}),
            (math.inf, {"spectral_radius": None, "settling_ticks": None}),
        ],
    )
    def test_closed_loop(self, short_run, rho, expected):
        matrices = short_run[0].config.matrices
        doc = matrices_document(short_run[0], verify_spectrum(matrices), rho)
        assert doc["closed_loop"] == expected
        json.loads(json.dumps(doc, allow_nan=False))

    def test_serialization_round_trip_of_scenario(self, default_scenario):
        text = serialize_scenario(default_scenario)
        assert parse_scenario(text) == default_scenario


def stdlib_json(doc) -> str:
    """The writer's oracle: the stdlib's indented, sorted-key text."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.nan]
EDGE_FLOATS += [math.inf, -math.inf, 0.1, 1e16, 1e-7]
json_floats = st.floats() | st.sampled_from(EDGE_FLOATS)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | json_floats
    | json_floats.map(np.float64)
    | st.text()
)
json_keys = st.text() | st.text(st.characters(max_codepoint=127))
json_docs = st.recursive(
    json_leaves | st.lists(json_floats),  # lists of floats, non-finite ones among them
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_keys, inner, max_size=5),
    max_leaves=40,
)


class TestDumpsJson:
    @settings(max_examples=300, deadline=None)
    @given(doc=json_docs)
    def test_bytes_equal_the_stdlib(self, doc):
        assert bundle.dumps_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            {"a": [], "b": {}, "c": [[]]},
            [1.5, math.nan, -0.0],
            [math.inf, 2.0],
            [5e-324, -math.inf],
            [1.0, 2, 3.0],
            [1.0, True, None, "x"],
            {"\u00e9t\u00e9": ["\u2603", "a\nb"], "k": 10**30},
        ],
    )
    def test_edge_documents(self, doc):
        assert bundle.dumps_json(doc) == stdlib_json(doc)

    def test_default_matrices_document(self, default_scenario):
        doc = matrices_document(default_scenario, *graph_parts(default_scenario))
        assert bundle.dumps_json(doc) == stdlib_json(doc)

    def test_random_config_matrices_document(self, default_scenario):
        cfg = random_config(np.random.default_rng(7), 40)
        scenario = replace(default_scenario, config=cfg)
        doc = matrices_document(scenario, *graph_parts(scenario))
        assert len(doc["W"]) == 43
        assert bundle.dumps_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
    def test_a_key_that_is_not_str_is_refused(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            bundle.dumps_json({"a": {key: 1}})


@pytest.fixture(scope="module")
def wide_bundle(tmp_path_factory):
    """A bundle of 40 agents and 2,001 ticks (a trace of 5.8 MB)."""
    rng = np.random.default_rng(3)
    scenario = make_scenario(
        random_config(rng, 37), random_schedule(rng), SimParams(dt=0.005, duration=20.0)
    )
    trace = run_simulation(scenario)
    out = tmp_path_factory.mktemp("wide")
    metrics = validate_run(trace, scenario)
    emit_bundle(out, scenario, trace, metrics, *graph_parts(scenario))
    return out


@pytest.fixture(scope="module")
def trio_run():
    """The three leaders alone over 40,001 ticks (positions of 2.9 MB)."""
    rng = np.random.default_rng(5)
    scenario = make_scenario(
        random_config(rng, 0), random_schedule(rng), SimParams(dt=0.005, duration=400.0)
    )
    return scenario, run_simulation(scenario)


@pytest.fixture(scope="module")
def trio_bundle(tmp_path_factory, trio_run):
    """``trio_run``'s bundle.

    Their pair search would hold about 64 bytes a tick for each pair if it
    took all ticks at once, more than 0.75 of the 72 bytes a tick of
    positions.
    """
    scenario, trace = trio_run
    out = tmp_path_factory.mktemp("trio")
    metrics = validate_run(trace, scenario)
    emit_bundle(out, scenario, trace, metrics, *graph_parts(scenario))
    return out


class TestOneTraceInMemory:
    """``validate`` holds one trace and scratch bounded by one agent or tick chunk."""

    def test_read_holds_the_trace_and_one_csv(self, wide_bundle, monkeypatch):
        # One share, so this process parses every CSV.
        see_cpus(monkeypatch, 1)
        read = []
        peak = traced_peak(lambda: read.append(read_bundle(wide_bundle)))
        positions = read[0][1].positions
        t_count, n, _ = positions.shape
        assert (t_count, n) == (2001, 40)
        # The positions are one array over one buffer of 24·T·N bytes. It is
        # a shared mapping, which tracemalloc does not see, so the traced
        # peak is one agent's CSV at a time: its text, its lines and its
        # table. A second (T, N, 3) array, 1.9 MB here, would break it.
        owner = positions
        while isinstance(owner, np.ndarray) and owner.base is not None:
            owner = owner.base
        assert positions.dtype == np.float64 and positions.flags.c_contiguous
        assert memoryview(owner).nbytes == positions.nbytes == 24 * t_count * n
        csv = max(path.stat().st_size for path in wide_bundle.glob("trace_*.csv"))
        assert peak <= 8 * csv < 24 * t_count * n

    def test_write_holds_one_block(self, trio_run, tmp_path):
        # Each CSV is about 3.3 MB, but the writer formats and writes one
        # block of at most 512 rows (about 42 KB of text) at a time.
        scenario, trace = trio_run
        times, settle = time_fields(trace.times), settle_rows(trace)
        paths = [tmp_path / f"trace_{aid}.csv" for aid in scenario.config.ids]

        def write():
            for index, path in enumerate(paths):
                write_trace_csv(path, trace, index, times, settle[index])

        peak = traced_peak(write)
        sizes = [path.stat().st_size for path in paths]
        assert min(sizes) > 3_000_000
        assert peak < 1_000_000
        for index, path in enumerate(paths):
            assert path.read_bytes() == trace_csv_oracle(trace, index)

    def test_validate_run_scratch_is_well_under_one_array(self, wide_bundle):
        scenario, trace = read_bundle(wide_bundle)
        validate_run(trace, scenario)  # builds the cached matrices
        scratch = traced_peak(lambda: validate_run(trace, scenario))
        assert scratch <= 0.75 * trace.positions.nbytes

    def test_small_team_scratch_is_well_under_one_array(self, trio_bundle):
        scenario, trace = read_bundle(trio_bundle)
        assert trace.positions.shape == (40001, 3, 3)
        validate_run(trace, scenario)  # builds the cached matrices
        scratch = traced_peak(lambda: validate_run(trace, scenario))
        assert scratch <= 0.75 * trace.positions.nbytes

    def test_arrays_are_separate_c_contiguous_float64(self, wide_bundle, short_run):
        scenario, trace = read_bundle(wide_bundle)
        assert trace.references is None and trace.desired is None
        positions = trace.positions
        assert positions.dtype == np.float64 and positions.flags.c_contiguous
        assert positions.shape == (len(trace.times), len(scenario.config.agents), 3)
        runs = ((run_simulation(scenario), scenario), (short_run[1], short_run[0]))
        for run, sc in runs:
            arrays = (run.positions, run.references, run.desired)
            for array in arrays:
                assert array.dtype == np.float64
                assert array.shape == (len(run.times), len(sc.config.agents), 3)
                assert array.flags.c_contiguous
            for a, b in ((0, 1), (0, 2), (1, 2)):
                assert not np.shares_memory(arrays[a], arrays[b])


class TestLayoutRefusal:
    """A manifest layout other than the scenario's is named by its first key path."""

    def test_an_intact_layout_is_never_quoted(self, wide_bundle):
        # Equal values are compared before either side is quoted.
        with mock.patch.object(bundle.reprlib, "repr", side_effect=AssertionError):
            read_bundle(wide_bundle)

    def test_a_scenario_hash_not_the_scenarios_is_refused(self, wide_bundle, tmp_path):
        doc = json.loads((wide_bundle / "manifest.json").read_text())
        wanted = doc["scenario_sha256"]
        doc["scenario_sha256"] = "0" * 64
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ScenarioError) as info:
            read_bundle(tmp_path)
        assert info.value.errors == [
            f"{tmp_path / 'manifest.json'}: scenario_sha256: "
            f"{reprlib.repr('0' * 64)} is not {reprlib.repr(wanted)}"
        ]

    @pytest.mark.parametrize(
        "edit, difference",
        [
            pytest.param(
                lambda doc: doc["outputs"]["traces"].update(f7="/tmp/x" * 40),
                "outputs.traces.f7: '/tmp/x/tmp/x...x/tmp/x/tmp/x' is not "
                "'trace_f7.csv'",
                id="edited",
            ),
            pytest.param(
                lambda doc: doc["outputs"]["traces"].pop("f7"),
                "outputs.traces: missing key 'f7'",
                id="missing",
            ),
            pytest.param(
                lambda doc: doc["outputs"]["traces"].update(ghost="trace_ghost.csv"),
                "outputs.traces: unexpected key 'ghost'",
                id="extra",
            ),
            pytest.param(
                lambda doc: doc["outputs"].update(traces=sorted(doc["outputs"]["traces"])),
                "outputs.traces: ['f1', 'f10', 'f11', 'f12', 'f13', 'f14', ...] is not "
                "{'f1': 'trace_f1.csv', 'f10': 'trace_f10.csv', 'f11': 'trace_f11.csv', "
                "'f12': 'trace_f12.csv', ...}",
                id="retyped",
            ),
        ],
    )
    def test_names_the_key_in_a_short_line(
        self, wide_bundle, tmp_path, edit, difference
    ):
        doc = json.loads((wide_bundle / "manifest.json").read_text())
        assert len(doc["outputs"]["traces"]) == 40
        edit(doc)
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ScenarioError) as info:
            read_bundle(tmp_path)
        (line,) = info.value.errors
        assert line == f"{tmp_path / 'manifest.json'}: {difference}"
        assert len(f"error: {line}\n".encode()) - len(str(tmp_path).encode()) < 200
