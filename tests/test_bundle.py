"""Bundle serialization: CSV formats, manifest, reproducibility."""

import json
import math

import numpy as np
import pytest

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
from affineswarm.bundle import (
    PLAN_COLUMNS,
    TRACE_COLUMNS,
    emit_bundle,
    matrices_document,
    plan_csv_text,
    read_bundle,
    trace_csv_text,
)
from affineswarm.scenario import Scenario, parse_scenario, serialize_scenario
from affineswarm.simulation import closed_loop_radius


def graph_parts(scenario):
    """The spectrum report and closed-loop radius that ``simulate`` passes."""
    return (
        verify_spectrum(scenario.matrices),
        closed_loop_radius(scenario.matrices, scenario.params),
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
        _, trace, _ = short_run
        text = trace_csv_text(trace, "cf1")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == len(trace.times) + 1
        assert all(len(line.split(",")) == 10 for line in lines[1:])

    def test_first_row_matches_reference_position(self, short_run):
        _, trace, _ = short_run
        first = trace_csv_text(trace, "cf1").strip().split("\n")[1]
        assert first.startswith("0,0,0.75,1,")

    def test_nine_significant_digits(self, short_run):
        _, trace, _ = short_run
        row = trace_csv_text(trace, "cf2").strip().split("\n")[-1]
        for field in row.split(","):
            mantissa = field.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
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
            agent_ids=("a",),
            positions=table[:, None, 1:4],
            references=table[:, None, 4:7],
            desired=table[:, None, 7:10],
        )
        lines = trace_csv_text(trace, "a").split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert lines[-1] == ""
        expected = [",".join(format(float(v), ".9g") for v in row) for row in table]
        assert lines[1:-1] == expected
        assert "-0" in lines[1].split(",")
        assert "4.94065646e-324" in lines[1].split(",")

    def test_plan_csv_edge_values(self):
        table = _edge_table(4, 10)
        traj = LeaderTrajectory(
            times=table[:, 0],
            agent_ids=("u1", "u%2", "u3"),
            positions=table[:, 1:].reshape(4, 3, 3),
        )
        lines = plan_csv_text(traj).split("\n")
        assert lines[0] == ",".join(PLAN_COLUMNS)
        expected = [
            ",".join(
                [format(float(traj.times[k]), ".9g"), aid]
                + [format(float(v), ".9g") for v in traj.positions[k, i]]
            )
            for k in range(4)
            for i, aid in enumerate(traj.agent_ids)
        ]
        assert lines[1:] == expected + [""]

    def test_empty_trace_is_header_only(self):
        trace = SimTrace(
            times=np.empty(0),
            agent_ids=("a",),
            positions=np.empty((0, 1, 3)),
            references=np.empty((0, 1, 3)),
            desired=np.empty((0, 1, 3)),
        )
        assert trace_csv_text(trace, "a") == ",".join(TRACE_COLUMNS) + "\n"


class TestPlanCsv:
    def test_rows_per_tick_per_leader(self, default_scenario):
        traj = leader_trajectory(
            default_scenario.schedule, default_scenario.config, tick_rate=10.0
        )
        text = plan_csv_text(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,agent_id,x_d,y_d,z_d"
        assert len(lines) == 1 + 3 * len(traj.times)
        assert lines[1].split(",")[1] == "cf1"


class TestEmitBundle:
    def test_bundle_contents(self, short_run, tmp_path):
        scenario, trace, metrics = short_run
        bundle = emit_bundle(
            tmp_path / "run", scenario, trace, metrics, *graph_parts(scenario)
        )
        assert bundle == tmp_path / "run"
        assert (bundle / "manifest.json").exists()
        assert sorted(p.name for p in bundle.glob("trace_*.csv")) == [
            f"trace_{aid}.csv" for aid in sorted(trace.agent_ids)
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

    def test_round_trip_read_trace(self, short_run, tmp_path):
        scenario, trace, metrics = short_run
        bundle = emit_bundle(
            tmp_path / "run", scenario, trace, metrics, *graph_parts(scenario)
        )
        read_scenario, loaded = read_bundle(bundle)
        assert read_scenario == scenario
        assert loaded.agent_ids == trace.agent_ids
        # The times are the scenario's tick grid itself.
        assert np.array_equal(loaded.times, trace.times)
        # CSV carries 9 significant digits.
        np.testing.assert_allclose(loaded.positions, trace.positions, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(loaded.desired, trace.desired, rtol=1e-8, atol=1e-12)
        # The bulk parse gives the values one float() per field gives.
        for i, aid in enumerate(loaded.agent_ids):
            lines = (bundle / f"trace_{aid}.csv").read_text().splitlines()[1:]
            table = np.array([[float(v) for v in line.split(",")] for line in lines])
            assert np.array_equal(loaded.times, table[:, 0])
            assert np.array_equal(loaded.positions[:, i], table[:, 1:4])
            assert np.array_equal(loaded.references[:, i], table[:, 4:7])
            assert np.array_equal(loaded.desired[:, i], table[:, 7:10])

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
        for aid in trace.agent_ids:
            name = f"trace_{aid}.csv"
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_unwritable_target_reports_path(self, short_run, tmp_path):
        scenario, trace, metrics = short_run
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(OSError, match="blocker"):
            emit_bundle(
                blocker / "run", scenario, trace, metrics, *graph_parts(scenario)
            )


class TestGoldenRows:
    """First and last CSV rows of the bundled scenario, pinned.

    The values are frozen from a verified run (the final leader position
    agrees with the commanded map evaluated by hand); any drift in the
    engine, formatting, or scenario shows up here.
    """

    GOLDEN = {
        "cf1": (
            "0,0,0.75,1,0,0.75,1,0,0.75,1",
            "40,3.63565765,0.5544242,1,3.63565765,0.5544242,1,"
            "3.63565765,0.5544242,1",
        ),
        "cf4": (
            "0,0.25,-0.25,1,0.25,-0.25,1,0.25,-0.25,1",
            "40,4.26573284,-0.12647094,1,4.26573284,-0.12647094,1,"
            "4.26573284,-0.12647094,1",
        ),
    }

    @pytest.mark.parametrize("agent_id", sorted(GOLDEN))
    def test_default_scenario_rows(self, default_trace, agent_id):
        lines = trace_csv_text(default_trace, agent_id).strip().split("\n")
        first, last = self.GOLDEN[agent_id]
        assert lines[1] == first
        assert lines[-1] == last


class TestMatricesDocument:
    def test_row_major_values(self, short_run):
        matrices = short_run[0].matrices
        doc = matrices_document(matrices, *graph_parts(short_run[0]))
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
        matrices = short_run[0].matrices
        doc = matrices_document(matrices, verify_spectrum(matrices), rho)
        assert doc["closed_loop"] == expected
        json.loads(json.dumps(doc, allow_nan=False))

    def test_serialization_round_trip_of_scenario(self, default_scenario):
        text = serialize_scenario(default_scenario)
        assert parse_scenario(text) == default_scenario
