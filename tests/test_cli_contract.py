"""The CLI contract as a property: every input runs or is refused.

Mutated scenarios go through ``check``, ``graph``, ``plan`` and
``simulate``, and damaged bundles through ``validate``, all by way of
``cli.main``. Whatever the input, no exception escapes, the exit code is
0, 1 or 2, a usage or parse error (2) is told in ``error:`` lines, and
the JSON documents on stdout are strict JSON. As the test suite turns
warnings into errors, a numpy warning fails the property too.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


SCENARIO_LEAVES = list(leaves(short_default()))
NUMERIC_LEAVES = [p for p in SCENARIO_LEAVES if type(node_at(short_default(), p)) is float]
NUMBERS = [0, -0.0, 1e308, -1e308, 5e-324, 2**63, 10**400]
OTHERS = [True, None, [], {}, "", "é1", "a/b", "x,y"]
# Numeric leaves and numbers three times over, so that more cases reach a run.
VALUES = NUMBERS * 3 + OTHERS


def strict_json(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run(argv) -> tuple[int, bytes]:
    """``main(argv)``'s exit code and stdout bytes, its stderr checked."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    stdout.flush()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        lines = stderr.getvalue().splitlines()
        assert lines and all(line.startswith("error: ") for line in lines), lines
    return code, stdout.buffer.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(SCENARIO_LEAVES + 2 * NUMERIC_LEAVES),
                  st.sampled_from(VALUES)),
        min_size=1,
        max_size=3,
    )
)
@example(edits=[(("safety", "agent_radius"), 1e308)])  # check's floor overflows
@example(edits=[(("translation", "tf"), 5e-324)])  # the ramp's quotient overflows
@example(edits=[(("translation", "end", 0), 1e308)])  # tracking errors overflow
def test_every_scenario_runs_or_is_refused(edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(with_leaves(short_default(), edits)))
        for command in ("check", "graph", "plan"):
            _, out = run([command, str(path)])
            if out and command != "plan":
                strict_json(out.decode())
        code, out = run(["simulate", str(path), "--out", str(Path(tmp) / "run")])
        if code == 0:
            strict_json(out.decode().split("\n", 1)[1])


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
    damage = data.draw(st.sampled_from(["flip", "truncate", "swap", "manifest"]))
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
        else:
            target = bundle / data.draw(st.sampled_from(files))
            content = bytearray(target.read_bytes())
            at = data.draw(st.integers(0, len(content) - 1))
            if damage == "flip":
                content[at] ^= data.draw(st.integers(1, 255))
            else:
                del content[at:]
            target.write_bytes(bytes(content))
        _, out = run(["validate", str(bundle)])
        if out:
            strict_json(out.decode())
