"""Command-line surface: subcommands, exit codes, output documents."""

import contextlib
import dataclasses
import io
import json
import os
import re
import reprlib
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest
from conftest import (
    assert_no_child_left,
    make_scenario,
    random_config,
    random_schedule,
    repeated_key_text,
    see_cpus,
    serialize_scenario,
    split_small_runs,
)

from affineswarm import SimParams, SpectralReport
from affineswarm import bundle, cli, formation
from affineswarm.cli import build_parser, main
from affineswarm.errors import ScenarioError
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


def run_module(*argv) -> subprocess.CompletedProcess:
    """``python -m affineswarm *argv`` in a fresh interpreter, its output as text."""
    return subprocess.run(
        [sys.executable, "-m", "affineswarm", *argv], capture_output=True, text=True
    )


def refuse(token):
    raise ValueError(f"{token} is not JSON")


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
def test_scenario_not_utf8_is_parse_error(tmp_path, capsys, command):
    path = tmp_path / "latin.json"
    text = default_scenario_text()
    path.write_bytes(text.encode() + b"\xff")
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position "
        f"{len(text.encode())}: invalid start byte\n"
    )
    assert not out.exists()


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


NO_ENTRY = "invalid configuration: neighbor-count: follower 'cf2' has no in-neighbors; "
NO_ENTRY += "; ".join(
    f"unreachable: no directed path from leader {lid!r} to followers ['cf2']"
    for lid in ("cf1", "cf5", "cf6")
)
TWO_LEADERS = (
    "invalid configuration: role-count: expected exactly 3 leaders, got 2; leader-order: "
    "the first three agents must be the leaders; neighbor-count: follower 'cf1' has no "
    "in-neighbors"
)


def edited(tmp_path, edit):
    """The default scenario file after ``edit(doc)``, or what it returns if not None."""
    doc = json.loads(default_scenario_text())
    returned = edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc if returned is None else returned))
    return str(path)


@pytest.mark.parametrize(
    "edit, code, err",
    [
        (lambda d: d["sim"].update(delay_ticks=-1), 2, "$.sim: delay_ticks must be >= 0"),
        (lambda d: d["sim"].update(control_rate=0), 2, "$.sim: control_rate must be positive and finite, got 0.0"),
        (lambda d: d["sim"].update(control_rate=5e-324), 2, "$.sim: control period 1/5e-324 Hz is not an integer multiple of dt=0.001"),
        (lambda d: d.update(sim=3), 2, "$.sim: expected an object"),
        (lambda d: d.update(agents=[]), 2, "$.agents: expected a non-empty list of agents"),
        (lambda d: [], 2, "{path}: top level must be an object"),
        (lambda d: d.update(graph=[]), 2, "$.graph: expected an object mapping follower id to neighbors"),
        (lambda d: d["graph"].update(cf2="cf1"), 2, "$.graph.cf2: expected a list of agent ids, got 'cf1'"),
        (lambda d: d["agents"][0].update(x=10**400), 2, f"$.agents[0].x: expected a finite number, got {reprlib.repr(10**400)}"),
        (lambda d: d["translation"].pop("end") and None, 2, "$.translation: missing required key 'end'"),
        (lambda d: d["graph"].pop("cf2") and None, 1, NO_ENTRY),
        (lambda d: d["agents"][0].update(role="follower"), 1, TWO_LEADERS),
    ],
)  # fmt: skip
def test_refusal_is_located(tmp_path, capsys, edit, code, err):
    path = edited(tmp_path, edit)
    assert main(["check", path, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"error: {err.format(path=path)}\n"
    assert not (tmp_path / "out").exists()


def test_refused_agents_are_listed_in_document_order(tmp_path, capsys):
    # Each agent is refused as it is read: agents[0]'s id before agents[2]'s x.
    def edit(doc):
        doc["agents"][0]["id"] = ".."
        del doc["agents"][2]["x"]

    assert main(["check", edited(tmp_path, edit)]) == 2
    assert capsys.readouterr().err == (
        "error: $.agents[0].id: must be one file-name component, got '..'\n"
        "error: $.agents[2]: missing required key 'x'\n"
    )


GHOST = "error: invalid configuration: unknown-neighbor: graph names unknown agent 'ghost'\n"


@pytest.mark.parametrize("command", ["check", "graph", "plan", "simulate"])
def test_repeated_key_is_refused(tmp_path, capsys, command):
    # {"kp": 1, "kp": 2500} must not run at the last value.
    doc = json.loads(default_scenario_text())
    path = tmp_path / "repeated.json"
    path.write_text(
        repeated_key_text(doc, ("sim", "kp"), 2500.0).replace(
            '"kp": 2500.0', '"kp": 1', 1
        )
    )
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: $.sim: duplicate key 'kp'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_nesting_deeper_than_the_parser_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}:1:1: nesting too deep\n"


def test_nested_value_is_quoted_in_a_short_line(tmp_path, capsys):
    # 900 nested lists parse; the refusal quotes them through reprlib.
    text = json.dumps(json.loads(default_scenario_text()))
    path = tmp_path / "nested.json"
    path.write_text(text.replace('"kp": 2500.0', '"kp": ' + "[" * 900 + "]" * 900, 1))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.sim.kp: expected ")
    assert err.count("\n") == 1 and len(err) < 200


LONG = "x" * 10_000


@pytest.mark.parametrize(
    "text, where",
    [
        pytest.param(
            lambda d: json.dumps({**d, "graph": {**d["graph"], "cf2": [LONG, 1]}}),
            "$.graph.cf2: expected a list of agent ids, got ",
            id="graph-entry",
        ),
        pytest.param(
            lambda d: json.dumps({**d, LONG: 1}), "$: unknown key ", id="unknown-key"
        ),
        pytest.param(
            lambda d: repeated_key_text({**d, LONG: 1}, (LONG,), 2),
            "$: duplicate key ",
            id="duplicate-key",
        ),
        pytest.param(
            lambda d: json.dumps({**d, "name": LONG + "/"}),
            "$.name: must not contain '/', got ",
            id="name",
        ),
    ],
)
def test_refused_input_is_quoted_in_short_lines(tmp_path, capsys, text, where):
    path = tmp_path / "long.json"
    path.write_text(text(json.loads(default_scenario_text())))
    assert main(["check", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith(f"error: {where}") for line in lines)
    assert all(len(line) < 200 for line in lines)


def rewrite(path, index, line):
    """Replace line ``index`` of the text file ``path`` with ``line``."""
    lines = path.read_text().splitlines()
    lines[index] = line
    path.write_text("\n".join(lines) + "\n")


def renamed(doc, old, new=LONG):
    """``doc`` with agent ``old`` named ``new`` in its agents and graph."""
    for agent in doc["agents"]:
        agent["id"] = new if agent["id"] == old else agent["id"]
    doc["graph"] = {
        new if fid == old else fid: [new if j == old else j for j in nbrs]
        for fid, nbrs in doc["graph"].items()
    }


def moved(doc, aid, x, y):
    next(a for a in doc["agents"] if a["id"] == aid).update(x=x, y=y)


@pytest.mark.parametrize(
    "edit, code, problem",
    [
        (lambda d: d["graph"].update({LONG: ["cf1", "cf5", "cf6"]}), 1, "unknown-neighbor: graph names unknown agent "),
        (lambda d: d["graph"].update({LONG: "cf1"}), 2, "$.graph.'xxxxxxxxxxxx...xxxxxxxxxxxxx': expected a list"),
        (lambda d: renamed(d, "cf4") or d["agents"].append({**d["agents"][3], "x": 0.1}), 1, "duplicate-id: "),
        (lambda d: d["graph"].update(cf2=["cf1", "cf3", LONG]), 1, "unknown-neighbor: follower 'cf2' lists "),
        (lambda d: renamed(d, "cf1") or d["graph"].update({LONG: ["cf2", "cf3", "cf4"]}), 1, "leader-has-neighbors: "),
        (lambda d: renamed(d, "cf4") or d["graph"].pop(LONG) and None, 1, "neighbor-count: "),
        (lambda d: d["graph"].update(cf2=["cf1"] + [LONG[:40]] * 300), 1, "neighbor-count: "),
        (lambda d: renamed(d, "cf4") or moved(d, LONG, -0.25, -0.25), 1, "coincident: "),
        (lambda d: renamed(d, "cf4") or moved(d, LONG, 5.0, 0.0), 1, "containment: "),
        (lambda d: renamed(d, "cf2") or d["graph"].pop(LONG) and None, 1, "unreachable: "),
    ],
    ids=["unknown-agent", "graph-path", "duplicate-id", "unknown-neighbor",
         "leader-has-neighbors", "no-neighbors", "neighbor-list", "coincident",
         "containment", "unreachable"],
)  # fmt: skip
def test_long_ids_are_quoted_in_short_lines(tmp_path, capsys, edit, code, problem):
    # A 10,000-character id or graph key is quoted through reprlib, so each
    # problem is short; a layout's line joins one problem per fault with "; ".
    assert main(["check", edited(tmp_path, edit)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert problem in lines[0] and all(line.startswith("error: ") for line in lines)
    assert all(len(part) < 300 for line in lines for part in line.split("; "))


@pytest.mark.parametrize("command", ["check", "graph", "plan", "simulate"])
def test_graph_key_naming_no_agent_is_refused(tmp_path, capsys, command):
    path = edited(tmp_path, lambda d: d["graph"].update(ghost=["cf1", "cf5", "cf6"]))
    assert main([command, path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == GHOST
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["graph", "plan", "simulate"])
def test_underflowing_control_period_is_refused(tmp_path, capsys, command):
    # dt * control_rate underflows to 0.0, which the check must not divide
    # by; check's refusal is a row of test_refusal_is_located.
    path = edited(tmp_path, lambda d: d["sim"].update(control_rate=5e-324))
    assert main([command, path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: $.sim: control period 1/5e-324 Hz is not an integer multiple "
        "of dt=0.001\n"
    )
    assert not (tmp_path / "out").exists()


def test_extreme_coordinate_is_refused_without_a_warning(tmp_path, capsys):
    # cf3's weights overflow; showing them rounded must not warn (warnings
    # are errors under this suite).
    path = edited(tmp_path, lambda d: d["agents"][2].update(x=-1e308))
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == (
        "error: invalid configuration: containment: follower 'cf2' is not strictly "
        "inside its in-neighbor triangle (barycentric coordinates [0.5, 0.0, 0.5]); "
        "containment: follower 'cf3' is not strictly inside its in-neighbor triangle "
        "(barycentric coordinates [inf, -inf, inf]); containment: follower 'cf4' is "
        "not strictly inside its in-neighbor triangle (barycentric coordinates "
        "[0.333333333333, 0.0, 0.666666666667])\n"
    )


def containment(fid, coords):
    return (
        f"containment: follower {fid!r} is not strictly inside its in-neighbor "
        f"triangle (barycentric coordinates {coords})"
    )


@pytest.mark.parametrize("command", ["check", "graph"])
@pytest.mark.parametrize(
    "moves, problems",
    [
        # Every determinant over cf4 overflows.
        (
            {3: {"x": 1e308, "y": -1e308}},
            [
                containment("cf2", "[0.6, 0.4, 0.0]"),
                containment("cf3", "[0.375, 0.0, 0.625]"),
                containment("cf4", "[-inf, -inf, inf]"),
            ],
        ),
        # cf3's weights mix infinite signs, so their sum is NaN. The leader
        # triangle (1e308, 0.75), (-0.5, -0.75), (0.5, -0.75) is not
        # collinear: its determinant is 1.5, though LU rounds it to 0.
        (
            {0: {"x": 1e308}, 2: {"y": 1e308}},
            [
                containment("cf2", "[-0.0, 0.0, 1.0]"),
                containment("cf3", "[-inf, inf, -inf]"),
                containment("cf4", "[-0.0, 0.0, 1.0]"),
            ],
        ),
    ],
)
def test_overflowing_layout_is_one_error_line(tmp_path, capsys, command, moves, problems):
    # The refusal is the one error line, with no numpy warning (warnings
    # are errors under this suite).
    def move(doc):
        for i, xy in moves.items():
            doc["agents"][i].update(xy)

    path = edited(tmp_path, move)
    assert main([command, path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: invalid configuration: " + "; ".join(problems) + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check", "graph", "simulate"])
def test_many_layout_problems_are_counted_in_one_short_line(tmp_path, capsys, command):
    # 100 followers, none with in-neighbors: the first four problems are
    # listed, then how many more there are.
    def crowd(doc):
        doc["agents"] += [
            {"id": f"f{k}", "role": "follower", "x": 0.01 * k - 0.5, "y": -0.3}
            for k in range(97)
        ]
        doc["graph"] = {}

    assert main([command, edited(tmp_path, crowd), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    first = [
        f"neighbor-count: follower {fid!r} has no in-neighbors"
        for fid in ("cf2", "cf3", "cf4", "f0")
    ]
    assert err == f"error: invalid configuration: {'; '.join(first)}; and 96 more\n"
    assert len(err) < 300
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check", "graph", "plan", "simulate"])
@pytest.mark.parametrize(
    "is_dir, reason", [(False, "No such file or directory"), (True, "Is a directory")]
)
def test_unreadable_scenario_is_a_parse_error(tmp_path, capsys, command, is_dir, reason):
    path = tmp_path / "scenario.json"
    if is_dir:
        path.mkdir()
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: cannot read scenario: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_each_command_audits_the_layout_once(fast_path, tmp_path, monkeypatch):
    calls = []
    audit = formation._audit
    monkeypatch.setattr(formation, "_audit", lambda cfg: calls.append(cfg) or audit(cfg))
    bundle = str(tmp_path / "bundle")
    for argv in (
        ["graph", fast_path, "--out", str(tmp_path / "graph.json")],
        ["check", fast_path, "--out", str(tmp_path / "check.json")],
        ["plan", fast_path, "--out", str(tmp_path / "plan.csv")],
        ["simulate", fast_path, "--out", bundle],
        ["validate", bundle],
    ):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, argv[0]


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

    @pytest.mark.parametrize("key", ["agent_radius", "delta_budget"])
    def test_overflowing_floor_is_null(self, tmp_path, capsys, key):
        # 2 (delta + r) / d_min overflows to infinity, which JSON cannot hold.
        path = scenario_with(tmp_path, ("safety", key), 1e308)
        assert main(["check", path]) == 1
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["lambda_min_bound"] is None
        assert doc["pass"] is False

    def test_underflowing_spacing_fails_without_traceback(self, tmp_path):
        # cf7 sits 1e-170 m from cf2: their distance squares to 0, but the
        # scaled length keeps d_min at 1e-170, so the floor is about 1.5e169,
        # which no strain meets.
        doc = json.loads(default_scenario_text())
        doc["agents"].append({"id": "cf7", "role": "follower", "x": 1e-170, "y": 0.25})
        doc["graph"]["cf7"] = ["cf1", "cf3", "cf4"]
        doc["sim"]["dt"] = 0.01
        doc["sim"]["duration"] = 32.0
        path = tmp_path / "crowded.json"
        path.write_text(json.dumps(doc))
        refused, bundle = tmp_path / "refused", tmp_path / "bundle"
        runs = [
            run_module("check", str(path)),
            run_module("simulate", str(path), "--out", str(refused)),
            run_module("simulate", str(path), "--skip-safety-check", "--out", str(bundle)),
            run_module("validate", str(bundle)),
        ]
        assert [r.returncode for r in runs] == [1, 1, 0, 1]
        assert not any("Traceback" in r.stdout + r.stderr for r in runs)
        report = json.loads(runs[0].stdout, parse_constant=refuse)
        assert report["d_min"] == 1e-170
        assert report["lambda_min_bound"] == 2.0 * (0.01 + 0.065) / 1e-170
        assert report["pass"] is False
        assert report["violations"] == [{"t_start": 0.0, "t_end": 30.0}]
        assert runs[1].stderr.startswith("error: ") and runs[1].stderr.count("\n") == 1
        assert not refused.exists()
        metrics = json.loads(runs[3].stdout, parse_constant=refuse)
        assert metrics["lambda_min_required"] > 1e169
        assert metrics["safety_pass"] is False

    def test_overflowing_squares_keep_the_spacing(self, tmp_path):
        # Leaders 1e200 m apart: their squared distances overflow, but the
        # scaled lengths keep d_min at 2e200 and the tracking error finite,
        # so the run check certifies also passes simulate and validate.
        corners = {"cf1": (1e200, 1e200), "cf5": (-1e200, 1e200), "cf6": (0.0, -1e200)}
        doc = json.loads(default_scenario_text())
        doc["agents"] = [
            dict(a, x=corners[a["id"]][0], y=corners[a["id"]][1])
            for a in doc["agents"]
            if a["id"] in corners
        ]
        doc["graph"] = {}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        bundle = tmp_path / "bundle"
        runs = [
            run_module("check", str(path)),
            run_module("simulate", str(path), "--out", str(bundle)),
            run_module("validate", str(bundle)),
        ]
        assert [r.returncode for r in runs] == [0, 0, 0]
        assert [r.stderr for r in runs] == ["", "", ""]
        report = json.loads(runs[0].stdout, parse_constant=refuse)
        assert report["d_min"] == 2e200
        assert report["lambda_min_bound"] == 2.0 * (0.01 + 0.065) / 2e200
        assert report["pass"] is True
        metrics = json.loads(runs[2].stdout, parse_constant=refuse)
        assert 0.0 < metrics["measured_delta"] < 1e200
        assert 1e199 < metrics["min_pairwise_distance"] <= 2e200
        assert metrics["safety_pass"] is True


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

    @pytest.mark.parametrize("layout", ["default", "random"])
    def test_stdout_is_the_bundles_json(self, tmp_path, capsysbinary, layout):
        # One writer: graph's stdout is simulate's matrices.json, and
        # simulate's report is its metrics.json, byte for byte.
        path = tmp_path / "scenario.json"
        if layout == "default":
            path.write_text(default_scenario_text())
        else:
            rng = np.random.default_rng(7)
            scenario = make_scenario(
                random_config(rng, 5), random_schedule(rng), SimParams(duration=2.0)
            )
            path.write_text(serialize_scenario(scenario))
        assert main(["graph", str(path)]) == 0
        graph = capsysbinary.readouterr().out
        bundle = tmp_path / "bundle"
        argv = ["simulate", str(path), "--out", str(bundle), "--skip-safety-check"]
        assert main(argv) == 0
        report = capsysbinary.readouterr().out.split(b"\n", 1)[1]
        assert graph == (bundle / "matrices.json").read_bytes()
        assert report == (bundle / "metrics.json").read_bytes()

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
        lines = out.read_bytes().strip().split(b"\n")
        assert lines[0] == b"t,agent_id,x_d,y_d,z_d"
        assert len(lines) == 1 + 3 * 3001  # 30 s at 100 Hz, inclusive
        first = lines[1].split(b",")
        assert first[:2] == [b"0", b"cf1"]
        assert first[2:] == [b"0", b"0.75", b"1"]

    @pytest.mark.parametrize("agent_id", ["cf1", "cf%1", "é1"])
    def test_stdout_is_the_out_file(self, tmp_path, capsys, agent_id):
        path = renamed_scenario(tmp_path, agent_id, "renamed")
        out = tmp_path / "plan.csv"
        assert main(["plan", path, "--out", str(out)]) == 0
        assert main(["plan", path]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        assert out.read_bytes().split(b"\n")[1].split(b",")[1] == agent_id.encode()

    def test_stdout_is_the_out_file_on_an_ascii_stdout(self, tmp_path):
        path = renamed_scenario(tmp_path, "é1", "renamed")
        out = tmp_path / "plan.csv"
        assert main(["plan", path, "--out", str(out)]) == 0
        result = subprocess.run(
            [sys.executable, "-m", "affineswarm", "plan", path],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "ascii"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == out.read_bytes()

    def test_text_only_stdout_takes_the_text(self, default_path, tmp_path):
        out = tmp_path / "plan.csv"
        assert main(["plan", default_path, "--out", str(out)]) == 0
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["plan", default_path]) == 0
        assert stdout.getvalue() == out.read_text()


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

    def test_failed_spectrum_check_is_refused(
        self, default_path, tmp_path, capsys, monkeypatch
    ):
        # A valid config always passes the check, so fail it by hand.
        failed = SpectralReport(
            eigenvalues=np.array([0.5]),
            max_real_part=0.5,
            h_deviation=2e-3,
            hurwitz=False,
            ok=False,
        )
        monkeypatch.setattr(cli, "verify_spectrum", lambda matrices: failed)
        monkeypatch.setattr(cli, "run_simulation", never)
        out = tmp_path / "bundle"
        assert main(["simulate", default_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: consensus matrices fail the spectrum check "
            "(max real part 5.000e-01, H deviation 2.000e-03)\n"
        )
        assert not out.exists()

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

    def test_precheck_refusal_is_one_short_line(self, tmp_path, capsys):
        # 400 phases alternating strain 1.0 and 0.2 dip below the floor 200 times.
        doc = json.loads(default_scenario_text())
        strains = [1.0, 0.2]
        doc["phases"] = [
            {
                "t0": 0.1 * k,
                "tf": 0.1 * (k + 1),
                "start": {"lambda1": strains[k % 2], "lambda2": strains[k % 2]},
                "end": {"lambda1": strains[1 - k % 2], "lambda2": strains[1 - k % 2]},
            }
            for k in range(400)
        ]
        path = tmp_path / "zigzag.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 300
        first = "[(0.08, 0.12), (0.28, 0.32), (0.48, 0.52), (0.68, 0.72)]"
        assert f"violating intervals {first} and 196 more (pass" in err

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
            (
                "--control-rate",
                "5e-324",
                "control period 1/5e-324 Hz is not an integer multiple of dt=0.01",
            ),
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

    @pytest.mark.parametrize(
        "name, encoding",
        [("bündel", "ascii"), (os.fsdecode(b"b\xff"), "utf-8")],
        ids=["non-ascii-on-ascii", "raw-byte"],
    )
    def test_stdout_is_bytes(self, fast_path, tmp_path, monkeypatch, name, encoding):
        # The bundle's name prints as the file system's bytes, whatever
        # stdout's encoding; a raw byte keeps its surrogateescape round trip.
        stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding,
                                  errors="surrogateescape")
        monkeypatch.setattr(sys, "stdout", stdout)
        out = tmp_path / name
        assert main(["simulate", fast_path, "--out", str(out)]) == 0
        stdout.flush()
        assert stdout.buffer.getvalue() == (
            b"bundle written to " + os.fsencode(out) + b"\n"
            + (out / "metrics.json").read_bytes()
        )

    def test_text_only_stdout_takes_the_text(self, fast_path, tmp_path):
        out = tmp_path / os.fsdecode(b"b\xff")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["simulate", fast_path, "--out", str(out)]) == 0
        metrics = (out / "metrics.json").read_text()
        assert stdout.getvalue() == f"bundle written to {out}\n{metrics}"

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

    def test_forged_desired_columns_change_nothing(self, default_path, tmp_path, capsys):
        # A run that fails its certificate, with x,y,z copied over
        # x_des,y_des,z_des on every row before t = 38 s: measured against
        # those columns it would track to 2e-5 m and certify. validate
        # measures against the scenario's commanded map, so both bundles
        # give the same bytes and the same exit code.
        unforged, forged = tmp_path / "unforged", tmp_path / "forged"
        argv = ["simulate", default_path, "--kp", "3", "--kd", "2", "--skip-safety-check"]
        assert main([*argv, "--out", str(unforged)]) == 0
        shutil.copytree(unforged, forged)
        for trace in sorted(forged.glob("trace_*.csv")):
            header, *rows = trace.read_text().splitlines()
            assert header == "t,x,y,z,x_ref,y_ref,z_ref,x_des,y_des,z_des"
            for i, row in enumerate(rows):
                fields = row.split(",")
                if float(fields[0]) < 38.0:
                    rows[i] = ",".join(fields[:7] + fields[1:4])
            trace.write_text("\n".join([header, *rows]) + "\n")
        # The forgery is in the CSV text: every early row logs its x,y,z
        # as its x_des,y_des,z_des.
        for trace in sorted(forged.glob("trace_*.csv")):
            text = trace.read_text()
            assert text != (unforged / trace.name).read_text()
            rows = [row.split(",") for row in text.splitlines()[1:]]
            early = [fields for fields in rows if float(fields[0]) < 38.0]
            assert early and all(fields[7:] == fields[1:4] for fields in early)
        capsys.readouterr()
        outputs = []
        for bundle in (unforged, forged):
            assert main(["validate", str(bundle)]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert doc["measured_delta"] > 0.4 and doc["safety_pass"] is False

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
                           "line 4 has a value that is not a number: 'x"),
            # An x value simulate never writes.
            lambda lines: (lines[:5] + [re.sub(",[^,]*", ",nan", lines[5], count=1)]
                           + lines[6:], "line 6 has a non-finite value"),
            lambda lines: (lines[:5] + [re.sub(",[^,]*", ",inf", lines[5], count=1)]
                           + lines[6:], "line 6 has a non-finite value"),
            # numpy's parser skips blank lines; the reader still counts them.
            lambda lines: (lines[:5] + [""] + lines[5:],
                           "line 6 has 1 fields, expected 10"),
            # float() accepts "1_0"; numpy's parser, and so validate, refuse it.
            lambda lines: (lines[:5] + [re.sub(",[^,]*", ",1_0", lines[5], count=1)]
                           + lines[6:], "line 6 has a value that is not a number: '1_0'\n"),
            # Columns in another order (the refused header is quoted through
            # reprlib, the expected one whole), and no header at all.
            lambda lines: (["t,x_des,y_des,z_des,x_ref,y_ref,z_ref,x,y,z"] + lines[1:],
                           "line 1 is 't,x_des,y_de...f,z_ref,x,y,z', "
                           "expected the header 't,x,y,z,x_ref,y_ref,z_ref,x_des,y_des,"
                           "z_des'\n"),
            lambda lines: (["garbage"] + lines[1:],
                           "line 1 is 'garbage', expected the header 't,x,y,z,"),
        ],
        ids=["cut-at-row-end", "extra-field", "non-numeric", "nan", "inf", "blank-line",
             "underscore", "header", "header-garbage"],
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

    @pytest.mark.parametrize(
        "damage, where",
        [
            (lambda out: rewrite(out / "trace_cf4.csv", 0, "t" + ",x" * 5000),
             "trace_cf4.csv: damaged trace CSV: line 1 is "),
            (lambda out: rewrite(out / "trace_cf4.csv", 3, "0," + "y" * 10_000 + ",0" * 8),
             "trace_cf4.csv: damaged trace CSV: line 4 has a value that is not a number: "),
            (lambda out: (out / "manifest.json").write_text(repeated_key_text(
                {LONG: 1, **json.loads((out / "manifest.json").read_text())}, (LONG,), 2)),
             "manifest.json: $: duplicate key 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
            (lambda out: (out / "manifest.json").write_text(repeated_key_text(
                {LONG: {"a": 1}, **json.loads((out / "manifest.json").read_text())},
                (LONG, "a"), 2)),
             "manifest.json: $.'xxxxxxxxxxxx...xxxxxxxxxxxxx': duplicate key 'a'"),
            # A deep path keeps its first three steps and its last.
            (lambda out: (out / "manifest.json").write_text(
                '{"extra": ' + "[" * 900 + '{"a": 1, "a": 2}' + "]" * 900 + ", "
                + (out / "manifest.json").read_text().lstrip()[1:]),
             "manifest.json: $.extra[0][0]...[0]: duplicate key 'a'\n"),
        ],
        ids=["header", "field", "repeated-key", "key-path", "deep-path"],
    )  # fmt: skip
    def test_long_damage_is_quoted_in_one_short_line(
        self, fast_bundle, tmp_path, capsys, damage, where
    ):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        damage(out)
        assert main(["validate", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / where}")
        assert err.count("\n") == 1 and len(err) < 300

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

    @pytest.mark.parametrize(
        "edit, lines",
        [
            (lambda sc: sc["sim"].update(kp=float("nan")),
             ["$.sim.kp: expected a finite number, got nan"]),
            (lambda sc: sc["sim"].update(kp=float("nan"), kd="x"),
             ["$.sim.kp: expected a finite number, got nan",
              "$.sim.kd: expected a finite number, got 'x'"]),
        ],
        ids=["one-error", "two-errors"],
    )
    def test_embedded_scenario_errors_name_the_manifest(
        self, fast_bundle, tmp_path, capsys, edit, lines
    ):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        edit(manifest["scenario"])
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == "".join(
            f"error: {out}/manifest.json: {line}\n" for line in lines
        )

    def test_embedded_config_error_names_the_manifest(
        self, fast_bundle, tmp_path, capsys
    ):
        # The embedded scenario parses, but cf3 sits on cf2's reference spot.
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        agents = {a["id"]: a for a in manifest["scenario"]["agents"]}
        agents["cf3"].update(x=agents["cf2"]["x"], y=agents["cf2"]["y"])
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {out}/manifest.json: invalid configuration: coincident: "
            "agents 'cf2' and 'cf3' share the reference position (0.0, 0.25); "
        )
        assert err.count("\n") == 1

    def test_embedded_graph_key_naming_no_agent_is_refused(
        self, fast_bundle, tmp_path, capsys
    ):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["scenario"]["graph"]["ghost"] = ["cf1", "cf5", "cf6"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == GHOST.replace("error: ", f"error: {out}/manifest.json: ")
        assert "Traceback" not in err

    def test_trace_name_not_a_string_is_parse_error(self, fast_bundle, tmp_path, capsys):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"]["traces"]["cf3"] = 5
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}/manifest.json: outputs.traces.cf3: 5 is not "
            "'trace_cf3.csv'\n"
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
        "edit, difference",
        [
            pytest.param(
                lambda order: [a for a in order if a != "cf4"],
                "agent_order: missing key 5",
                id="missing",
            ),
            pytest.param(
                lambda order: order + ["ghost"], "agent_order: unexpected key 6",
                id="extra",
            ),
            pytest.param(
                lambda order: order[:-1] + [order[0]],
                "agent_order[5]: 'cf1' is not 'cf4'",
                id="repeated",
            ),
            pytest.param(
                lambda order: [{"cf5": "cf6", "cf6": "cf5"}.get(a, a) for a in order],
                "agent_order[1]: 'cf6' is not 'cf5'",
                id="reordered",
            ),
        ],
    )
    def test_agent_order_must_match_scenario(
        self, fast_bundle, tmp_path, capsys, edit, difference
    ):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        order = manifest["agent_order"]
        assert order == ["cf1", "cf5", "cf6", "cf2", "cf3", "cf4"]
        manifest["agent_order"] = edit(list(order))
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out}/manifest.json: {difference}\n"


    @pytest.mark.parametrize(
        "place",
        [
            # A file outside the bundle whose first line is known.
            pytest.param(lambda tmp: str(tmp / "elsewhere.csv"), id="absolute"),
            # A good copy of cf4's CSV, one directory up.
            pytest.param(lambda tmp: "../trace_cf4.csv", id="parent-dir"),
        ],
    )
    def test_trace_name_outside_the_bundle_is_not_opened(
        self, fast_bundle, tmp_path, capsys, place
    ):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        (tmp_path / "elsewhere.csv").write_text("marker line 7f3a\n")
        shutil.copy(out / "trace_cf4.csv", tmp_path / "trace_cf4.csv")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"]["traces"]["cf4"] = place(tmp_path)
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {out}/manifest.json: outputs.traces.cf4: '"
        )
        assert captured.err.endswith(" is not 'trace_cf4.csv'\n")
        assert "marker line" not in captured.err
        assert captured.err.count("\n") == 1

    def test_long_id_in_a_key_path_is_quoted_in_one_short_line(
        self, fast_bundle, tmp_path, capsys
    ):
        # cf4 renamed to a 10,000-character id, whose trace is named wrongly:
        # the layout is refused before any file is opened.
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        text = json.dumps(manifest).replace('"cf4"', '"' + "c" * 10_000 + '"')
        manifest = json.loads(text)
        manifest["outputs"]["traces"]["c" * 10_000] = "/tmp/x"
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        key = reprlib.repr("c" * 10_000)
        assert captured.err.startswith(
            f"error: {out}/manifest.json: outputs.traces.{key}: '/tmp/x' is not "
        )
        assert captured.err.count("\n") == 1
        assert len(captured.err) - len(str(out)) < 300

    def test_trace_name_of_another_agent_is_refused(self, fast_bundle, tmp_path, capsys):
        # Read as cf1's, cf2's CSV would put the two agents in one spot.
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"]["traces"]["cf1"] = "trace_cf2.csv"
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {out}/manifest.json: outputs.traces.cf1: 'trace_cf2.csv' is not "
            "'trace_cf1.csv'\n"
        )

    def test_edited_trace_columns_are_refused(self, fast_bundle, tmp_path, capsys):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        columns = manifest["trace_columns"]
        manifest["trace_columns"] = columns[:7] + ["x_d", "y_d", "z_d"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}/manifest.json: trace_columns[7]: 'x_d' is not 'x_des'\n"
        )

    @pytest.mark.parametrize(
        "key", ["trace_columns", "agent_order", "outputs", "scenario_sha256"]
    )
    def test_missing_layout_key_is_refused(self, fast_bundle, tmp_path, capsys, key):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[key]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}/manifest.json: missing key {key!r}\n"
        )

    def test_edited_scenario_is_refused_by_its_hash(self, fast_bundle, tmp_path, capsys):
        # The edited scenario parses and fits the layout; only its hash
        # tells it from the scenario the CSVs were run from.
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["scenario"]["sim"]["kp"] = 2400.0
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}/manifest.json: scenario_sha256: '")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "path, where",
        [
            (("scenario_sha256",), "$"),
            (("tool", "name"), "$.tool"),
            (("scenario", "sim", "kp"), "$.scenario.sim"),
            (("scenario", "agents", 0, "x"), "$.scenario.agents[0]"),
            (("outputs", "traces", "cf4"), "$.outputs.traces"),
        ],
    )
    def test_repeated_manifest_key_is_refused(
        self, fast_bundle, tmp_path, capsys, path, where
    ):
        # Even a repeat of the same value, or in the tool entry no check reads.
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        value = manifest
        for key in path:
            value = value[key]
        (out / "manifest.json").write_text(repeated_key_text(manifest, path, value))
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}/manifest.json: {where}: duplicate key {path[-1]!r}\n"
        )

    def test_manifest_nested_too_deep_is_malformed(self, fast_bundle, tmp_path, capsys):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        (out / "manifest.json").write_text("[" * 100_000 + "]" * 100_000)
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}/manifest.json: malformed manifest: nesting too deep: "
            "line 1 column 1 (char 0)\n"
        )

    def test_tool_is_not_compared(self, fast_bundle, tmp_path, capsys):
        # A later version reads this version's bundles.
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["tool"]["version"] = "99.0"
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 0

    def test_manifest_not_utf8_is_parse_error(self, fast_bundle, tmp_path, capsys):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = out / "manifest.json"
        size = manifest.stat().st_size
        with manifest.open("ab") as f:
            f.write(b"\xff")
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: malformed manifest: 'utf-8' codec can't decode "
            f"byte 0xff in position {size}: invalid start byte\n"
        )

    def test_trace_not_utf8_is_damaged(self, fast_bundle, tmp_path, capsys):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        trace = out / "trace_cf4.csv"
        size = trace.stat().st_size
        with trace.open("ab") as f:
            f.write(b"\xff")
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {trace}: damaged trace CSV: 'utf-8' codec can't decode "
            f"byte 0xff in position {size}: invalid start byte\n"
        )

    def test_unreadable_manifest_is_parse_error(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        (bundle / "manifest.json").mkdir(parents=True)
        assert main(["validate", str(bundle)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bundle / 'manifest.json'}: cannot read manifest: Is a directory\n"
        )


class TestSplitAcrossCpus:
    """``simulate`` and ``validate`` run one share of the agents per CPU.

    With 2 CPUs, the default layout's agents 0-2 (the leaders) are handled
    in process and 3-5 (cf2, cf3, cf4) in a forked child. These runs are
    too small to repay a fork, so each test lowers the share floor.
    """

    @pytest.fixture(autouse=True)
    def small_shares(self, monkeypatch):
        split_small_runs(monkeypatch)

    def test_outputs_do_not_depend_on_the_cpu_count(
        self, fast_path, tmp_path, capsysbinary, monkeypatch
    ):
        outs = []
        for cpus in (1, 2, 4):
            see_cpus(monkeypatch, cpus)
            run = tmp_path / "run"  # one name, as simulate prints it
            shutil.rmtree(run, ignore_errors=True)
            assert main(["simulate", fast_path, "--out", str(run)]) == 0
            assert_no_child_left()
            assert main(["validate", str(run)]) == 0
            assert_no_child_left()
            files = {p.name: p.read_bytes() for p in run.iterdir()}
            outs.append((capsysbinary.readouterr(), files))
        assert outs[1] == outs[0] and outs[2] == outs[0]

    @pytest.mark.parametrize("damaged", [(1, 4), (4,), (4, 5), (0, 2)])
    def test_the_first_damaged_trace_is_named(
        self, fast_bundle, tmp_path, capsys, monkeypatch, damaged
    ):
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        ids = json.loads((out / "manifest.json").read_text())["agent_order"]
        for index in damaged:  # a word on line index + 4 of the CSV
            rewrite(out / f"trace_{ids[index]}.csv", index + 3, "0,x" + ",0" * 8)
        errs = []
        for cpus in (1, 2, 4):
            see_cpus(monkeypatch, cpus)
            assert main(["validate", str(out)]) == 2
            assert_no_child_left()
            errs.append(capsys.readouterr().err)
        first = damaged[0]
        assert errs == [
            f"error: {out / f'trace_{ids[first]}.csv'}: damaged trace CSV: "
            f"line {first + 4} has a value that is not a number: 'x'\n"
        ] * 3

    @pytest.mark.parametrize(
        "command, layer", [("simulate", "write_trace_csv"), ("validate", "_trace_table")]
    )
    def test_a_killed_child_is_one_error_line(
        self, fast_bundle, fast_path, tmp_path, capsys, monkeypatch, command, layer
    ):
        parent, call = os.getpid(), getattr(bundle, layer)

        def killed_in_a_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return call(*args)

        monkeypatch.setattr(bundle, layer, killed_in_a_child)
        see_cpus(monkeypatch, 2)
        target = [fast_path, "--out", str(tmp_path / "run")]
        argv = [command, *(target if command == "simulate" else [str(fast_bundle)])]
        assert main(argv) == 1
        assert_no_child_left()
        assert capsys.readouterr().err == (
            "error: the process for agents 'cf2' to 'cf4' was killed by signal 9\n"
        )

    @pytest.mark.parametrize(
        "command, layer, error",
        [
            ("simulate", "write_trace_csv", OSError(24, "Too many open files")),
            ("validate", "_trace_table", ScenarioError(["a damage only a child sees"])),
        ],
    )
    def test_a_failure_only_a_child_meets_is_not_reported(
        self,
        fast_bundle,
        fast_path,
        tmp_path,
        capsysbinary,
        monkeypatch,
        command,
        layer,
        error,
    ):
        # The process reruns the child's share, which does not meet it.
        parent, call = os.getpid(), getattr(bundle, layer)

        def failing_in_a_child(*args):
            if os.getpid() != parent:
                raise error
            return call(*args)

        def outcome():
            run = tmp_path / "run"  # one name, as simulate prints it
            shutil.rmtree(run, ignore_errors=True)
            target = [fast_path, "--out", str(run)]
            argv = [command, *(target if command == "simulate" else [str(fast_bundle)])]
            code = main(argv)
            assert_no_child_left()
            files = {p.name: p.read_bytes() for p in run.glob("*")}
            return code, capsysbinary.readouterr(), files

        see_cpus(monkeypatch, 1)
        alone = outcome()
        assert alone[0] == 0
        see_cpus(monkeypatch, 2)
        monkeypatch.setattr(bundle, layer, failing_in_a_child)
        assert outcome() == alone


def never(*args, **kwargs):
    raise AssertionError("a run over the memory budget must not be allocated")


class TestMemoryBudget:
    """Every command refuses, with exit 2, a run the memory budget does not fit.

    The allocating call is replaced, so a lost cap fails the test instead
    of allocating the run.
    """

    TRACE = (
        "a run of 100,000,000,001 ticks at 100 Hz of 6 agents needs a "
        "43,200,000,000,432-byte trace, over the 1,073,741,824-byte budget"
    )
    # 3 followers at 4,728 ticks of delay: 157,376 bytes over.
    DELAY = (
        "a delay of 4,728 ticks for 3 followers needs 1,073,899,200 bytes of "
        "companion matrices, over the 1,073,741,824-byte budget"
    )

    @pytest.mark.parametrize("command", ["graph", "check", "plan", "simulate"])
    def test_scenario_over_budget(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "run_simulation", never)
        monkeypatch.setattr("affineswarm.phases.tick_grid", never)
        path = scenario_with(tmp_path, ("sim", "duration"), 1e9)
        out = tmp_path / "out"
        assert main([command, path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: $.sim.duration: {self.TRACE}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["graph", "check", "plan", "simulate"])
    def test_delay_over_budget(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "closed_loop_radius", never)
        monkeypatch.setattr(cli, "run_simulation", never)
        path = scenario_with(tmp_path, ("sim", "delay_ticks"), 4728)
        out = tmp_path / "out"
        assert main([command, path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: $.sim.delay_ticks: {self.DELAY}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "plan"])
    def test_schedule_sampling_over_budget(
        self, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.setattr("affineswarm.phases.tick_grid", never)
        path = scenario_with(tmp_path, ("phases", 2, "tf"), 1e9)
        out = tmp_path / "out"
        assert main([command, path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $.phases: sampling the schedule at 100 Hz takes ")
        assert not out.exists()

    def test_simulate_flag_names_the_flag(
        self, default_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "run_simulation", never)
        out = tmp_path / "bundle"
        argv = ["simulate", default_path, "--out", str(out), "--duration", "1e9"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --duration 1000000000.0: sim.duration: {self.TRACE}\n"
        )
        assert not out.exists()

    def test_simulate_delay_flag_names_the_flag(
        self, default_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "closed_loop_radius", never)
        monkeypatch.setattr(cli, "run_simulation", never)
        out = tmp_path / "bundle"
        argv = ["simulate", default_path, "--out", str(out), "--delay-ticks", "4728"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --delay-ticks 4728: sim.delay_ticks: {self.DELAY}\n"
        )
        assert not out.exists()

    def test_validate_names_the_manifest(
        self, fast_bundle, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("affineswarm.bundle.tick_times", never)
        out = tmp_path / "bundle"
        shutil.copytree(fast_bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["scenario"]["sim"]["duration"] = 1e9
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["validate", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}/manifest.json: $.sim.duration: {self.TRACE}\n"
        )


class TestWorkBudget:
    """A delay whose loop spectrum is over the eigenvalue work budget is
    refused with exit 2, from a file or from the flag, before any of it is
    computed; one just under it reaches ``closed_loop_radius``."""

    # 3 followers at 446 ticks of delay: 1,310,720 units over.
    WORK = (
        "a delay of 446 ticks for 3 followers takes 3 x 448^3 = 269,746,176 "
        "units of eigenvalue work, over the 268,435,456-unit budget"
    )

    @pytest.mark.parametrize("command", ["graph", "check", "plan", "simulate"])
    def test_file_just_over(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "closed_loop_radius", never)
        monkeypatch.setattr(cli, "run_simulation", never)
        path = scenario_with(tmp_path, ("sim", "delay_ticks"), 446)
        out = tmp_path / "out"
        assert main([command, path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: $.sim.delay_ticks: {self.WORK}\n"
        assert not out.exists()

    def test_flag_just_over(self, default_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "closed_loop_radius", never)
        monkeypatch.setattr(cli, "run_simulation", never)
        out = tmp_path / "bundle"
        argv = ["simulate", default_path, "--out", str(out), "--delay-ticks", "446"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --delay-ticks 446: sim.delay_ticks: {self.WORK}\n"
        )
        assert not out.exists()

    @staticmethod
    def unstable(delays):
        """A ``closed_loop_radius`` that records the delay and reads inf."""

        def radius(matrices, params):
            delays.append(params.delay_ticks)
            return float("inf")

        return radius

    def test_file_just_under(self, tmp_path, capsys, monkeypatch):
        delays = []
        monkeypatch.setattr(cli, "closed_loop_radius", self.unstable(delays))
        path = scenario_with(tmp_path, ("sim", "delay_ticks"), 445)
        assert main(["graph", path]) == 0
        assert json.loads(capsys.readouterr().out)["closed_loop"] == {
            "settling_ticks": None, "spectral_radius": None
        }
        assert delays == [445]

    def test_flag_just_under(self, default_path, tmp_path, capsys, monkeypatch):
        delays = []
        monkeypatch.setattr(cli, "closed_loop_radius", self.unstable(delays))
        monkeypatch.setattr(cli, "run_simulation", never)
        argv = ["simulate", default_path, "--out", str(tmp_path / "b"),
                "--delay-ticks", "445"]
        assert main(argv) == 1
        assert "closed loop is unstable: spectral radius rho=inf" in (
            capsys.readouterr().err
        )
        assert delays == [445]


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

    def test_commands_that_hash_nothing_leave_openssl_unloaded(self, default_path):
        # Only a manifest's scenario_sha256 hashes; graph, check and plan
        # write none, so a fresh interpreter never imports hashlib for them.
        code = (
            "import contextlib, io, sys\n"
            "from affineswarm import cli\n"
            "for command in ('graph', 'check', 'plan'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main([command, sys.argv[1]]) == 0, command\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        result = subprocess.run(
            [sys.executable, "-c", code, default_path],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
