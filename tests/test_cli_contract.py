"""The CLI contract as a property: every input runs or is refused.

Mutated scenarios (leaves set to odd values, keys deleted or repeated,
agent ids renamed), of the bundled default and of a small
``random_config`` layout, go through ``check``, ``graph``, ``plan`` and
``simulate``, and damaged bundles through ``validate``, all by way of
``cli.main``. Whatever the input, no exception escapes, the exit code is
0, 1 or 2, a usage or parse error (2) is told in ``error:`` lines, and
the JSON documents on stdout are strict JSON. A repeated key is always
refused (2). As the test suite turns warnings into errors, a numpy
warning fails the property too.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    make_scenario,
    random_config,
    random_schedule,
    repeated_key_text,
    serialize_scenario,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affineswarm import SimParams
from affineswarm.cli import main
from affineswarm.scenario import default_scenario_text


def leaves(node, path=()):
    """The key path of every scalar and empty container under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def key_paths(node, path=()):
    """The path of every key of every dict under ``node``, however deep."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, path + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def with_leaves(doc, edits):
    """A copy of ``doc`` with each ``(path, value)`` of ``edits`` set."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        node_at(doc, path[:-1])[path[-1]] = value
    return doc


def short_default():
    doc = json.loads(default_scenario_text())
    doc["sim"]["duration"] = 2.0
    return doc


def short_random():
    """Four followers of a ``random_config`` layout on a random schedule, 2 s."""
    rng = np.random.default_rng(3)
    params = SimParams(kp=2500.0, kd=100.0, duration=2.0)
    scenario = make_scenario(random_config(rng, 4), random_schedule(rng), params)
    doc = json.loads(serialize_scenario(scenario))
    doc["safety"]["agent_radius"] = 0.01  # so the unmutated run passes its precheck
    return doc


def renamed(doc, site, new):
    """A copy of ``doc`` with the agent id at ``site`` renamed ``new``.

    A site is a path to an id in ``agents`` or in ``graph`` (a key or a
    neighbour), or ``("everywhere", id)`` for every mention of ``id``.
    """
    if site[0] == "everywhere":
        return json.loads(json.dumps(doc).replace(json.dumps(site[1]), json.dumps(new)))
    doc = json.loads(json.dumps(doc))
    if site[0] == "graph" and len(site) == 2:
        doc["graph"] = {new if k == site[1] else k: v for k, v in doc["graph"].items()}
    else:
        node_at(doc, site[:-1])[site[-1]] = new
    return doc


BASES = {"default": short_default(), "random": short_random()}


def id_sites(doc):
    """Every site of an agent id in ``doc``, as ``renamed`` takes them."""
    ids = [agent["id"] for agent in doc["agents"]]
    return (
        [("agents", i, "id") for i in range(len(ids))]
        + [("graph", key) for key in doc["graph"]]
        + list(leaves(doc["graph"], ("graph",)))
        + [("everywhere", aid) for aid in ids]
    )


NUMBERS = [0, -0.0, 1e308, -1e308, 5e-324, 2**63, 10**400]
OTHERS = [True, None, [], {}, "", "é1", "a/b", "x,y"]
# Numeric leaves and numbers three times over, so that more cases reach a run.
VALUES = NUMBERS * 3 + OTHERS


def leaf_edits(base):
    doc = BASES[base]
    numeric = [p for p in leaves(doc) if type(node_at(doc, p)) is float]
    pairs = st.tuples(st.sampled_from(list(leaves(doc)) + 2 * numeric),
                      st.sampled_from(VALUES))
    return st.tuples(st.just(base), st.lists(pairs, min_size=1, max_size=3))


def reshapes(base):
    doc = BASES[base]
    keys = list(key_paths(doc))
    new_ids = [agent["id"] for agent in doc["agents"]] + ["cf9", "", "é1", "a/b", "x,y"]
    return st.tuples(st.just(base), st.one_of(
        st.tuples(st.just("delete"), st.sampled_from(keys)),
        st.tuples(st.just("repeat"), st.sampled_from(keys), st.sampled_from(VALUES)),
        st.tuples(
            st.just("rename"), st.sampled_from(id_sites(doc)), st.sampled_from(new_ids)
        ),
    ))


def strict_json(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run(argv) -> tuple[int, bytes, list[str]]:
    """``main(argv)``'s exit code, stdout bytes and stderr lines, checked."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    stdout.flush()
    assert code in (0, 1, 2), (argv, code)
    lines = stderr.getvalue().splitlines()
    if code == 2:
        assert lines and all(line.startswith("error: ") for line in lines), lines
    return code, stdout.buffer.getvalue(), lines


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(list(BASES)).flatmap(leaf_edits))
@example(case=("default", [(("safety", "agent_radius"), 1e308)]))  # floor overflows
@example(case=("default", [(("translation", "tf"), 5e-324)]))  # quotient overflows
@example(case=("default", [(("translation", "end", 0), 1e308)]))  # errors overflow
def test_every_scenario_runs_or_is_refused(case):
    base, edits = case
    judge(json.dumps(with_leaves(BASES[base], edits)))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(list(BASES)).flatmap(reshapes))
@example(case=("default", ("delete", ("agents", 3, "id"))))
@example(case=("default", ("rename", ("graph", "cf2"), "cf9")))  # names no agent
@example(case=("default", ("rename", ("everywhere", "cf1"), "é1")))
@example(case=("random", ("repeat", ("sim", "kp"), 0)))
def test_every_reshaped_scenario_runs_or_is_refused(case):
    base, edit = case
    doc = json.loads(json.dumps(BASES[base]))
    if edit[0] == "delete":
        del node_at(doc, edit[1][:-1])[edit[1][-1]]
    elif edit[0] == "rename":
        doc = renamed(doc, *edit[1:])
    else:  # whatever the value, a repeated key is refused
        judge(repeated_key_text(doc, *edit[1:]), refused=True)
        return
    judge(json.dumps(doc))


def judge(text, refused=False):
    """Run ``check``, ``graph``, ``plan`` and ``simulate`` on the scenario
    ``text``; when ``refused``, each must refuse it for a repeated key."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(text)
        for command in ("check", "graph", "plan", "simulate"):
            argv = [command, str(path)]
            if command == "simulate":
                argv += ["--out", str(Path(tmp) / "run")]
            code, out, err = run(argv)
            if refused:
                assert code == 2 and any("duplicate key" in line for line in err)
            elif command == "simulate" and code == 0:
                strict_json(out.decode().split("\n", 1)[1])
            elif out and command in ("check", "graph"):
                strict_json(out.decode())


@pytest.fixture(scope="module")
def short_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("short")
    path = root / "short.json"
    path.write_text(json.dumps(short_default()))
    assert main(["simulate", str(path), "--out", str(root / "bundle")]) == 0
    return root / "bundle"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_damaged_bundle_is_judged_or_refused(short_bundle, data):
    files = sorted(p.name for p in short_bundle.iterdir())
    traces = [name for name in files if name.startswith("trace_")]
    damage = data.draw(
        st.sampled_from(["flip", "truncate", "swap", "manifest", "repeat"])
    )
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(shutil.copytree(short_bundle, Path(tmp) / "bundle"))
        if damage == "swap":
            a, b = data.draw(st.lists(st.sampled_from(traces), min_size=2, max_size=2,
                                      unique=True))
            text_a, text_b = (bundle / a).read_bytes(), (bundle / b).read_bytes()
            (bundle / a).write_bytes(text_b)
            (bundle / b).write_bytes(text_a)
        elif damage == "manifest":
            doc = json.loads((bundle / "manifest.json").read_text())
            edit = data.draw(st.tuples(st.sampled_from(list(leaves(doc))),
                                       st.sampled_from(VALUES)))
            (bundle / "manifest.json").write_text(json.dumps(with_leaves(doc, [edit])))
        elif damage == "repeat":
            doc = json.loads((bundle / "manifest.json").read_text())
            edit = data.draw(st.tuples(st.sampled_from(list(key_paths(doc))),
                                       st.sampled_from(VALUES)))
            (bundle / "manifest.json").write_text(repeated_key_text(doc, *edit))
        else:
            target = bundle / data.draw(st.sampled_from(files))
            content = bytearray(target.read_bytes())
            at = data.draw(st.integers(0, len(content) - 1))
            if damage == "flip":
                content[at] ^= data.draw(st.integers(1, 255))
            else:
                del content[at:]
            target.write_bytes(bytes(content))
        code, out, err = run(["validate", str(bundle)])
        if damage == "repeat":
            assert code == 2 and any("duplicate key" in line for line in err)
        elif out:
            strict_json(out.decode())
