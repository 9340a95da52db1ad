"""Command-line surface: subcommands, exit codes, output documents."""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

from affineswarm import SimParams
from affineswarm import cli
from affineswarm.cli import build_parser, main
from affineswarm.scenario import default_scenario_text


@pytest.fixture()
def default_path(tmp_path):
    path = tmp_path / "default.json"
    path.write_text(default_scenario_text())
    return str(path)


@pytest.fixture()
def fast_path(tmp_path):
    # Default layout and schedule, but coarse integration and a short hold.
    doc = json.loads(default_scenario_text())
    doc["sim"]["dt"] = 0.01
    doc["sim"]["duration"] = 32.0
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def fast_bundle(tmp_path_factory):
    """One ``simulate`` bundle of the fast scenario, for tests to copy and damage."""
    root = tmp_path_factory.mktemp("fast")
    doc = json.loads(default_scenario_text())
    doc["sim"]["dt"] = 0.01
    doc["sim"]["duration"] = 32.0
    path = root / "fast.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(root / "bundle")]) == 0
    return root / "bundle"


def scenario_with(tmp_path, path_keys, value):
    """The default scenario file with one value replaced, written as JSON."""
    doc = json.loads(default_scenario_text())
    node = doc
    for key in path_keys[:-1]:
        node = node[key]
    node[path_keys[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as JSON tokens
    return str(path)


@pytest.mark.parametrize(
    "command, keys, value, where",
    [
        ("graph", ("agents", 3, "x"), float("nan"), "$.agents[3].x"),
        ("simulate", ("agents", 3, "x"), float("nan"), "$.agents[3].x"),
        ("check", ("agents", 3, "x"), float("nan"), "$.agents[3].x"),
        ("check", ("altitude",), float("inf"), "$.altitude"),
        ("check", ("corridor", "width"), float("nan"), "$.corridor.width"),
        ("check", ("phases", 1, "end", "psi_r"), float("nan"), "$.phases[1].end.psi_r"),
        ("plan", ("translation", "end"), [float("-inf"), 0.0], "$.translation.end"),
        # null is no value: it must not drop the ramp or read as its default.
        ("plan", ("translation", "end"), None, "$.translation.end"),
        ("plan", ("translation", "start"), None, "$.translation.start"),
    ],
)
def test_non_finite_number_is_schema_error(
    tmp_path, capsys, command, keys, value, where
):
    path = scenario_with(tmp_path, keys, value)
    argv = [command, path, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {where}: expected " in err
    assert "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["agent_radius", "delta_budget"])
def test_negative_safety_value_is_schema_error(tmp_path, capsys, key):
    path = scenario_with(tmp_path, ("safety", key), -1.0)
    assert main(["check", path]) == 2
    assert f"error: $.safety.{key}: must be >= 0, got -1.0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "graph", "plan", "simulate"])
def test_coincident_agents_are_validation_failure(tmp_path, capsys, command):
    # cf7 on cf2's spot, strictly inside its own in-neighbor triangle: the
    # scenario parses, but no command may reach the d_min = 0 strain floor.
    doc = json.loads(default_scenario_text())
    doc["agents"].append({"id": "cf7", "role": "follower", "x": 0.0, "y": 0.25})
    doc["graph"]["cf7"] = ["cf1", "cf5", "cf6"]
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: invalid configuration: coincident: agents 'cf2' and 'cf7' share "
        "the reference position (0.0, 0.25)\n"
    )
    assert not out.exists()


def renamed_scenario(tmp_path, agent_id, name):
    """The default scenario file with ``cf1`` renamed everywhere and a new name."""
    doc = json.loads(default_scenario_text())
    doc["name"] = name
    doc["agents"][0]["id"] = agent_id
    doc["graph"] = {
        fid: [agent_id if j == "cf1" else j for j in nbrs]
        for fid, nbrs in doc["graph"].items()
    }
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["plan", "check", "simulate"])
@pytest.mark.parametrize(
    "agent_id, name, where",
    [
        ("c,f1", "default", "$.agents[0].id"),
        ('c"f1', "default", "$.agents[0].id"),
        ("a/b", "default", "$.agents[0].id"),
        ("a\\b", "default", "$.agents[0].id"),
        ("..", "default", "$.agents[0].id"),
        ("", "default", "$.agents[0].id"),
        ("cf\t1", "default", "$.agents[0].id"),
        ("cf1", "a/b", "$.name"),
        ("cf1", "..", "$.name"),
        ("cf1", "line\nbreak", "$.name"),
        ("cf1", None, "$.name"),  # an absolute path, which would escape the root
    ],
)
def test_id_or_name_not_a_file_name_is_schema_error(
    tmp_path, capsys, monkeypatch, command, agent_id, name, where
):
    # Ids name trace files and fill a plan CSV field; the name is the bundle
    # directory under AFFINESWARM_OUT.
    escaped = tmp_path / "escaped_bundle"
    path = renamed_scenario(tmp_path, agent_id, str(escaped) if name is None else name)
    monkeypatch.setenv("AFFINESWARM_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    argv = [command, path] + ([] if command == "simulate" else ["--out", "out"])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: must ")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "root").exists()
    assert not escaped.exists()


@pytest.mark.parametrize("agent_id", ["cf%1", "cf 1", "é1"])
def test_id_that_is_a_file_name_runs(tmp_path, capsys, agent_id):
    path = renamed_scenario(tmp_path, agent_id, "renamed")
    assert main(["plan", path]) == 0
    assert capsys.readouterr().out.split("\n")[1].split(",")[1] == agent_id


class TestCheck:
    def test_default_passes(self, default_path, capsys):
        assert main(["check", default_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d_min"] == 0.5
        assert doc["lambda_min_bound"] == pytest.approx(0.3, abs=1e-12)
        assert doc["min_strain_observed"] == 0.5
        assert doc["pass"] is True
        assert doc["violations"] == []

    def test_unsafe_schedule_fails_with_interval(self, tmp_path, capsys):
        doc = json.loads(default_scenario_text())
        doc["phases"][0]["end"]["lambda1"] = 0.2
        doc["phases"][0]["end"]["lambda2"] = 0.2
        doc["phases"][1]["start"]["lambda1"] = 0.2
        doc["phases"][1]["start"]["lambda2"] = 0.2
        doc["phases"][1]["end"]["lambda1"] = 0.2
        doc["phases"][1]["end"]["lambda2"] = 0.2
        doc["phases"][2]["start"]["lambda1"] = 0.2
        doc["phases"][2]["start"]["lambda2"] = 0.2
        path = tmp_path / "unsafe.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is False
        assert out["violations"]
        assert out["violations"][0]["t_start"] > 0.0


class TestGraph:
    def test_default_emits_matrices(self, default_path, capsys):
        assert main(["graph", default_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agent_order"] == ["cf1", "cf5", "cf6", "cf2", "cf3", "cf4"]
        assert doc["w"]["cf2"] == [0.5, 0.25, 0.25]
        assert doc["spectrum"]["ok"] is True
        assert doc["spectrum"]["max_real_part"] < 0.0
        assert doc["spectrum"]["h_deviation"] <= 1e-9
        assert doc["closed_loop"]["spectral_radius"] == pytest.approx(0.768, abs=1e-3)
        assert doc["closed_loop"]["settling_ticks"] == 35  # 0.768**35 < 1e-4

    def test_degenerate_graph_is_validation_failure(self, tmp_path, capsys):
        doc = json.loads(default_scenario_text())
        doc["graph"]["cf3"] = ["cf2", "cf4", "cf5"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["graph", str(path)]) == 1
        assert "containment" in capsys.readouterr().err


class TestPlan:
    def test_writes_leader_csv(self, default_path, tmp_path):
        out = tmp_path / "plan.csv"
        assert main(["plan", default_path, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,agent_id,x_d,y_d,z_d"
        assert len(lines) == 1 + 3 * 3001  # 30 s at 100 Hz, inclusive
        first = lines[1].split(",")
        assert first[:2] == ["0", "cf1"]
        assert first[2:] == ["0", "0.75", "1"]


class TestSimulate:
    def test_fast_run_bundle(self, fast_path, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["simulate", fast_path, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "metrics.json").exists()
        csvs = sorted(p.name for p in out.glob("trace_*.csv"))
        assert len(csvs) == 6
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["safety_pass"] is True
        assert metrics["converged"] is True
        capsys.readouterr()
        assert main(["graph", fast_path]) == 0
        graph = json.loads(capsys.readouterr().out)
        matrices = json.loads((out / "matrices.json").read_text())
        assert matrices["closed_loop"] == graph["closed_loop"]

    def test_missing_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_override_flags_change_params(self, fast_path, tmp_path):
        out = tmp_path / "bundle3"
        assert (
            main(["simulate", fast_path, "--out", str(out), "--duration", "31.0"])
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"]["sim"]["duration"] == 31.0

    def test_unsafe_schedule_blocked_then_skipped(self, tmp_path, capsys):
        doc = json.loads(default_scenario_text())
        doc["phases"] = [doc["phases"][0]]
        doc["phases"][0]["end"]["lambda1"] = 0.2
        doc["phases"][0]["end"]["lambda2"] = 0.2
        doc["translation"]["tf"] = 10.0
        doc["translation"]["end"] = [0.5, 0.0]
        doc["sim"]["dt"] = 0.01
        doc["sim"]["duration"] = 11.0
        path = tmp_path / "unsafe.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "min strain 0.2 is below the bound 0.3" in err
        assert "violating intervals [(" in err
        assert "--skip-safety-check" in err
        assert not (tmp_path / "x").exists()
        assert (
            main(
                [
                    "simulate",
                    str(path),
                    "--out",
                    str(tmp_path / "y"),
                    "--skip-safety-check",
                ]
            )
            == 0
        )

    @pytest.mark.parametrize("skip", [[], ["--skip-safety-check"]])
    @pytest.mark.parametrize(
        "flags, rho",
        [
            (["--kd", "5", "--delay-ticks", "3"], "rho=1.00924"),
            (["--kp", "1e6", "--kd", "2000"], "rho=123.031"),
        ],
    )
    def test_unstable_closed_loop_refused(
        self, default_path, tmp_path, capsys, monkeypatch, flags, rho, skip
    ):
        def never(*args, **kwargs):
            raise AssertionError("an unstable loop must not be integrated")

        monkeypatch.setattr(cli, "run_simulation", never)
        out = tmp_path / "bundle"
        argv = ["simulate", default_path, "--out", str(out), *flags, *skip]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: closed loop is unstable: spectral radius {rho} >= 1" in err
        for name in ("kp=", "kd=", "dt=0.001", "delay_ticks="):
            assert name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--dt", "0.003", "not an integer multiple of dt=0.003"),
            ("--dt", "nan", "dt must be positive and finite"),
            ("--kp", "-1", "tracker gains must be positive"),
            ("--duration", "0.001", "duration must cover at least one control tick"),
        ],
    )
    def test_rejected_flag_value_is_usage_error(
        self, fast_path, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "bundle"
        assert main(["simulate", fast_path, "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_env_var_default_out(self, fast_path, tmp_path, monkeypatch):
        monkeypatch.setenv("AFFINESWARM_OUT", str(tmp_path / "envroot"))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", fast_path]) == 0
        assert (tmp_path / "envroot" / "default" / "manifest.json").exists()


class TestValidate:
    def test_validate_existing_bundle(self, fast_path, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["simulate", fast_path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["safety_pass"] is True
        assert doc["converged"] is True
        assert doc["min_corridor_clearance"] > 0.0

    def test_missing_bundle_is_parse_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope")]) == 2

    def test_malformed_manifest_is_parse_error(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "manifest.json").write_text('{"scenario": ')
        assert main(["validate", str(bundle)]) == 2
        assert f"{bundle / 'manifest.json'}: malformed manifest" in capsys.readouterr().err

    def test_truncated_trace_is_parse_error(self, fast_path, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["simulate", fast_path, "--out", str(out)]) == 0
        trace = out / "trace_cf3.csv"
        text = trace.read_text()
        trace.write_text(text[: len(text) // 2])  # cut mid-row
        capsys.readouterr()
        assert main(["validate", str(out)]) == 2
        assert f"{trace}: damaged trace CSV" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "damage",
        [
            # Cut at a row end: five rows short of the scenario's tick grid.
            lambda lines: (lines[:-5], f"{len(lines) - 6} rows of 10 fields, "
                           f"expected {len(lines) - 1} rows of 10"),
            lambda lines: (lines[:7] + [lines[7].replace(",", ",,", 1)] + lines[8:],
                           "line 8 has 11 fields, expected 10"),
            lambda lines: (lines[:3] + [lines[3].replace(",", ",x", 1)] + lines[4:],
                           "could not convert string to float: 'x"),
            # An x value simulate never writes.
            lambda lines: (lines[:5] + [re.sub(",[^,]*", ",nan", lines[5], count=1)]
                           + lines[6:], "line 6 has a non-finite value"),
            lambda lines: (lines[:5] + [re.sub(",[^,]*", ",inf", lines[5], count=1)]
                           + lines[6:], "line 6 has a non-finite value"),
        ],
        ids=["cut-at-row-end", "extra-field", "non-numeric", "nan", "inf"],
    )
    @pytest.mark.parametrize("agent", ["cf1", "cf4"])
    def test_damaged_trace_is_the_file_named(
        self, fast_bundle, tmp_path, capsys, agent, damage
    ):
        # Every CSV is held to the scenario's tick grid, so the damaged
        # file is the one named, whichever agent's it is.
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        trace = out / f"trace_{agent}.csv"
        lines, message = damage(trace.read_text().splitlines())
        trace.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: damaged trace CSV: {message}")
        assert err.count("\n") == 1

    def test_time_off_the_grid_is_the_line_named(self, fast_bundle, tmp_path, capsys):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        trace = out / "trace_cf4.csv"
        lines = trace.read_text().splitlines()
        assert lines[10].startswith("0.09,")
        lines[10] = "0.091" + lines[10][len("0.09"):]
        trace.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {trace}: damaged trace CSV: line 11 has t=0.091, "
            "expected the tick grid's 0.09\n"
        )

    def test_late_start_judged_as_simulate_judges(self, tmp_path, capsys):
        # At t0 = 1.2e7 s the CSV's 9-digit times repeat for ten ticks at
        # a time; validate reads the grid from the scenario, not the CSV.
        doc = json.loads(default_scenario_text())
        doc["sim"]["dt"] = 0.01
        doc["sim"]["duration"] = 32.0
        for section in doc["phases"] + [doc["translation"]]:
            section["t0"] += 1.2e7
            section["tf"] += 1.2e7
        path = tmp_path / "late.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "bundle"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        simulated = json.loads(capsys.readouterr().out.partition("\n")[2])
        times = [line.partition(",")[0] for line in
                 (out / "trace_cf1.csv").read_text().splitlines()[1:]]
        assert len(times) == 3201 and len(set(times)) == 321
        assert main(["validate", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        validated = json.loads(captured.out)
        for key in ("safety_pass", "converged"):
            assert validated[key] is simulated[key] is True

    def test_manifest_without_keys_is_parse_error(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "manifest.json").write_text("{}")
        assert main(["validate", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert f"{bundle / 'manifest.json'}: missing key 'scenario'" in err

    def test_trace_name_not_a_string_is_parse_error(self, fast_bundle, tmp_path, capsys):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"]["traces"]["cf3"] = 5
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}/manifest.json: outputs.traces.cf3 is not a file name: 5\n"
        )

    def test_missing_trace_is_parse_error(self, fast_path, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["simulate", fast_path, "--out", str(out)]) == 0
        trace = out / "trace_cf3.csv"
        trace.unlink()
        capsys.readouterr()
        assert main(["validate", str(out)]) == 2
        assert f"{trace}: cannot read trace CSV" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda order: [a for a in order if a != "cf4"], id="missing"),
            pytest.param(lambda order: order + ["ghost"], id="extra"),
            pytest.param(lambda order: order[:-1] + [order[0]], id="repeated"),
            pytest.param(
                lambda order: [{"cf5": "cf6", "cf6": "cf5"}.get(a, a) for a in order],
                id="reordered",
            ),
        ],
    )
    def test_agent_order_must_match_scenario(self, fast_bundle, tmp_path, capsys, edit):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        order = manifest["agent_order"]
        assert order == ["cf1", "cf5", "cf6", "cf2", "cf3", "cf4"]
        manifest["agent_order"] = edit(list(order))
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{out}/manifest.json: agent_order {manifest['agent_order']!r}" in err
        assert f"matrix order {order!r}" in err


class TestUsage:
    def test_seed_rejected(self, default_path, capsys):
        assert main(["--seed", "7", "check", default_path]) == 2
        assert "deterministic" in capsys.readouterr().err

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 2

    def test_simulate_has_one_flag_per_sim_param(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        flags = re.findall(r"^  (?:-\w, )?(--[\w-]+)", help_text, re.MULTILINE)
        fields = dataclasses.fields(SimParams)
        params = [f"--{f.name.replace('_', '-')}" for f in fields]
        others = ["--help", "--out", "--skip-safety-check"]
        assert sorted(flags) == sorted(params + others)

    def test_simulate_flag_types(self, capsys):
        argv = ["simulate", "s.json", "--dt", "0.002", "--control-rate", "50",
                "--kp", "4", "--kd", "4", "--duration", "3", "--delay-ticks", "2"]
        args = build_parser().parse_args(argv)
        expected = dict(dt=0.002, control_rate=50.0, kp=4.0, kd=4.0, duration=3.0,
                        delay_ticks=2)
        assert {k: (vars(args)[k], type(vars(args)[k])) for k in expected} == {
            k: (v, type(v)) for k, v in expected.items()
        }
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "s.json", "--delay-ticks", "1.5"])
        assert exc.value.code == 2
        assert "--delay-ticks: invalid int value: '1.5'" in capsys.readouterr().err

    def test_module_entry_point(self, default_path):
        result = subprocess.run(
            [sys.executable, "-m", "affineswarm", "check", default_path],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["pass"] is True
