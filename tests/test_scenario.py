"""Scenario schema: parsing, validation, canonical round trip."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineswarm import (
    AtCoordinates,
    ConfigError,
    SafetyParams,
    ScenarioError,
    SimParams,
    load_default_scenario,
    parse_scenario,
    scenario_sha256,
)
from affineswarm.cli import main
from affineswarm.phases import grid_size
from affineswarm.scenario import (
    MEMORY_BUDGET,
    SAMPLE_BYTES,
    WORK_BUDGET,
    default_scenario_text,
)
from conftest import serialize_scenario, traced_peak


class TestDefaultScenario:
    def test_parses_with_expected_layout(self):
        s = load_default_scenario()
        assert s.name == "default"
        assert s.config.z == 1.0
        assert s.config.leader_ids == ("cf1", "cf5", "cf6")
        assert s.config.follower_ids == ("cf2", "cf3", "cf4")
        by_id = {a.id: (a.x, a.y) for a in s.config.agents}
        assert by_id == {
            "cf1": (0.0, 0.75),
            "cf2": (0.0, 0.25),
            "cf3": (-0.25, -0.25),
            "cf4": (0.25, -0.25),
            "cf5": (-0.5, -0.75),
            "cf6": (0.5, -0.75),
        }

    def test_schedule_shape(self):
        s = load_default_scenario()
        assert len(s.schedule.phases) == 3
        assert s.schedule.t_start == 0.0
        assert s.schedule.t_end == 30.0
        assert s.schedule.translation.end == (4.0, 0.0)
        assert s.params.duration == 40.0
        assert s.corridor is not None
        assert s.corridor.width == 1.2

    def test_safety_parameters(self):
        s = load_default_scenario()
        assert s.safety.agent_radius == 0.065
        assert s.safety.delta_budget == 0.01


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        s = load_default_scenario()
        again = parse_scenario(serialize_scenario(s))
        assert again == s

    def test_hash_is_stable(self):
        s1 = load_default_scenario()
        s2 = parse_scenario(default_scenario_text())
        assert scenario_sha256(s1) == scenario_sha256(s2)
        assert scenario_sha256(parse_scenario(serialize_scenario(s1))) == scenario_sha256(s1)


def minimal_doc():
    return json.loads(default_scenario_text())


class TestParseErrors:
    def test_empty_document_lists_required_sections(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("{}")
        message = str(exc.value)
        for section in ("agents", "graph", "phases"):
            assert section in message

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('{\n  "agents": [,]\n}', source="bad.json")
        assert exc.value.errors[0].startswith("bad.json:2:")

    def test_unknown_top_level_key_rejected(self):
        doc = minimal_doc()
        doc["frobnicate"] = 1
        with pytest.raises(ScenarioError, match="frobnicate"):
            parse_scenario(json.dumps(doc))

    def test_unknown_nested_key_rejected(self):
        doc = minimal_doc()
        doc["phases"][0]["start"]["lambda3"] = 1.0
        with pytest.raises(ScenarioError, match="lambda3"):
            parse_scenario(json.dumps(doc))

    def test_four_leaders_is_config_error(self):
        doc = minimal_doc()
        for agent in doc["agents"]:
            if agent["id"] == "cf2":
                agent["role"] = "leader"
        with pytest.raises(ConfigError, match="role-count"):
            parse_scenario(json.dumps(doc))

    def test_bad_role_rejected(self):
        doc = minimal_doc()
        doc["agents"][0]["role"] = "captain"
        with pytest.raises(ScenarioError, match="role"):
            parse_scenario(json.dumps(doc))

    def test_non_contiguous_phases_rejected(self):
        doc = minimal_doc()
        doc["phases"][1]["t0"] = 11.0
        with pytest.raises(ScenarioError, match="phases"):
            parse_scenario(json.dumps(doc))

    def test_errors_accumulate(self):
        doc = minimal_doc()
        doc["agents"][0].pop("x")
        doc["corridor"]["width"] = "wide"
        doc["extra"] = {}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert len(exc.value.errors) >= 3

    def test_degenerate_graph_rejected(self):
        # A triple containing both cf2 and cf5 is collinear with cf3.
        doc = minimal_doc()
        doc["graph"]["cf3"] = ["cf2", "cf4", "cf5"]
        with pytest.raises(ConfigError, match="containment"):
            parse_scenario(json.dumps(doc))

    def test_non_numeric_coordinate_rejected(self):
        doc = minimal_doc()
        doc["agents"][2]["x"] = "left"
        with pytest.raises(ScenarioError, match="number"):
            parse_scenario(json.dumps(doc))

    def test_sim_section_validation(self):
        doc = minimal_doc()
        doc["sim"]["dt"] = 0.003  # not an integer divisor of the period
        with pytest.raises(ScenarioError, match="integer multiple"):
            parse_scenario(json.dumps(doc))

    def test_corridor_errors_accumulate(self):
        doc = minimal_doc()
        del doc["corridor"]["x_start"]
        doc["corridor"]["width"] = "wide"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert exc.value.errors == [
            "$.corridor: missing required key 'x_start'",
            "$.corridor.width: expected a finite number, got 'wide'",
        ]


def default_with(edit) -> str:
    """The default scenario document after ``edit(doc)``, as text."""
    doc = json.loads(default_scenario_text())
    edit(doc)
    return json.dumps(doc)


def test_replaced_params_keep_the_config_matrices():
    # The matrices belong to the config, which a new ``SimParams`` keeps.
    scenario = parse_scenario(default_scenario_text())
    matrices = scenario.config.matrices
    replaced = dataclasses.replace(scenario, params=SimParams(kp=16.0, kd=8.0))
    assert replaced.config.matrices is matrices


class TestMemoryBudget:
    """A trace (72 T N bytes) or schedule sampling over budget is refused at parse.

    Nothing here allocates a trace: the refused runs are never started.
    """

    BUDGET = "over the 1,073,741,824-byte budget"

    def test_trace_just_under_parses_just_over_is_refused(self):
        # 6 agents: 432 bytes a tick time, so 2**30 bytes lies between
        # 2,485,513 and 2,485,514 times (24,855.12 and 24,855.13 s at 100 Hz).
        def lasting(duration):
            return default_with(lambda d: d["sim"].update(duration=duration))

        under = parse_scenario(lasting(24855.12))
        assert 72 * 6 * grid_size(under.params.duration, 100.0) <= MEMORY_BUDGET
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(lasting(24855.13))
        assert exc.value.errors == [
            "$.sim.duration: a run of 2,485,514 ticks at 100 Hz of 6 agents needs a "
            f"1,073,742,048-byte trace, {self.BUDGET}"
        ]

    def test_delay_just_under_parses_just_over_is_refused(self):
        # 3 followers: 3 (d + 2)³ units of eigenvalue work, so 2**28 units
        # lie between delays of 445 and 446 ticks. From 4,728 ticks the
        # 48 (d + 2)² bytes of companion matrices are over 2**30 bytes too,
        # and the memory budget is the one named.
        def delayed(ticks):
            return default_with(lambda d: d["sim"].update(delay_ticks=ticks))

        under = parse_scenario(delayed(445))
        assert 3 * (under.params.delay_ticks + 2) ** 3 <= WORK_BUDGET
        for ticks, message in (
            (446, "takes 3 x 448^3 = 269,746,176 units of eigenvalue work, over "
                  "the 268,435,456-unit budget"),
            (4727, "takes 3 x 4729^3 = 317,270,137,467 units of eigenvalue work, "
                   "over the 268,435,456-unit budget"),
            (4728, f"needs 1,073,899,200 bytes of companion matrices, {self.BUDGET}"),
        ):
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(delayed(ticks))
            assert exc.value.errors == [
                f"$.sim.delay_ticks: a delay of {ticks:,} ticks for 3 followers "
                + message
            ]

    def test_trace_of_the_schedule_span_names_the_phases(self):
        def edit(doc):
            del doc["sim"]["duration"]  # the run spans the phases plus a 10 s hold
            doc["phases"][2]["tf"] = 30000.0

        with pytest.raises(ScenarioError) as exc:
            parse_scenario(default_with(edit))
        assert exc.value.errors == [
            "$.phases: a run of 3,001,001 ticks at 100 Hz of 6 agents needs a "
            f"1,296,432,432-byte trace, {self.BUDGET}"
        ]

    def test_schedule_sampling_is_capped_with_a_short_run(self):
        def edit(doc):
            doc["phases"][2]["tf"] = 1e9

        with pytest.raises(ScenarioError) as exc:
            parse_scenario(default_with(edit))
        assert exc.value.errors == [
            "$.phases: sampling the schedule at 100 Hz takes 100,000,000,001 "
            f"samples of 1,024 bytes, {self.BUDGET}"
        ]

    def test_overflowing_span_is_refused_not_raised(self):
        def edit(doc):
            doc["phases"][0]["t0"] = -1e308
            doc["phases"][2]["tf"] = 1e308

        with pytest.raises(ScenarioError) as exc:
            parse_scenario(default_with(edit))
        assert exc.value.errors == [
            f"$.phases: sampling the schedule at 100 Hz takes inf samples of "
            f"1,024 bytes, {self.BUDGET}"
        ]

    def test_a_scenario_built_in_code_is_refused_too(self):
        scenario = load_default_scenario()
        with pytest.raises(ValueError, match="sim.duration: a run of 100,000,000,001"):
            dataclasses.replace(scenario, params=SimParams(duration=1e9))
        with pytest.raises(ValueError, match="a run of 10,000,001 ticks at 1e"):
            dataclasses.replace(
                scenario, params=SimParams(dt=1e-6, control_rate=1e6, duration=10.0)
            )
        with pytest.raises(ValueError, match="sim.delay_ticks: a delay of 1,000,000 "):
            dataclasses.replace(scenario, params=SimParams(delay_ticks=10**6))

    @pytest.mark.parametrize("command", ["check", "plan"])
    def test_sample_bytes_bound_what_a_sample_costs(self, tmp_path, command):
        # A 200 s schedule: 20,001 samples at 100 Hz.
        def edit(doc):
            for phase in doc["phases"]:
                phase["t0"] *= 20.0 / 3.0
                phase["tf"] *= 20.0 / 3.0

        path = tmp_path / "long.json"
        path.write_text(default_with(edit))
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        assert traced_peak(lambda: main(argv)) <= SAMPLE_BYTES * 20_001


class TestDataclassDefaults:
    """An omitted key or section takes its dataclass's default."""

    def test_empty_sections_take_defaults(self):
        doc = minimal_doc()
        doc["sim"] = {}
        doc["safety"] = {}
        doc["phases"][0]["start"] = {}
        del doc["corridor"]["center_y"]
        s = parse_scenario(json.dumps(doc))
        assert s.params == SimParams()
        assert s.safety == SafetyParams()
        assert s.schedule.phases[0].start == AtCoordinates()
        assert s.corridor.center_y == 0.0
        del doc["sim"], doc["safety"], doc["phases"][0]["start"]
        assert parse_scenario(json.dumps(doc)) == s

    def test_default_scenario_hash_is_pinned(self):
        assert scenario_sha256(load_default_scenario()) == (
            "2ed9874fb2e66c629914998a7fc7d808bd81e1c9301df4729e6207d62b218c76"
        )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(agent_radius=-1), "agent_radius: must be >= 0, got -1"),
            (dict(delta_budget=-0.5), "delta_budget: must be >= 0, got -0.5"),
            (dict(agent_radius=math.nan), "agent_radius: must be >= 0, got nan"),
            (dict(delta_budget=math.nan), "delta_budget: must be >= 0, got nan"),
            (dict(agent_radius=math.inf), "agent_radius: must be finite, got inf"),
            (dict(delta_budget=math.inf), "delta_budget: must be finite, got inf"),
        ],
    )
    def test_safety_params_reject_negative_and_nan(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SafetyParams(**kwargs)


_number = st.floats(-50.0, 50.0, allow_nan=False)
_positive = st.floats(0.01, 50.0)


def _file_name(forbidden):
    """Text the schema takes as one file-name component without ``forbidden``."""
    chars = st.characters(
        blacklist_categories=("C", "Z"), blacklist_characters=forbidden
    )
    return st.text(chars, min_size=1, max_size=4).filter(
        lambda t: t not in ("", ".", "..")
    )


@st.composite
def _optional(draw, entries):
    """A dict holding each of ``entries``' drawn values, or leaving it out."""
    return {k: draw(v) for k, v in entries.items() if draw(st.booleans())}


@st.composite
def scenario_docs(draw):
    """The default layout and graph, moved and renamed, with random sections."""
    doc = minimal_doc()
    ids = draw(st.lists(_file_name('/\\,"'), min_size=6, max_size=6, unique=True))
    rename = dict(zip((a["id"] for a in doc["agents"]), ids))
    dx, dy = draw(_number), draw(_number)
    for a in doc["agents"]:
        a.update(id=rename[a["id"]], x=a["x"] + dx, y=a["y"] + dy)
    doc["graph"] = {rename[f]: [rename[j] for j in nbrs]
                    for f, nbrs in doc["graph"].items()}
    coords = dict(d1=_number, d2=_number, lambda1=_positive, lambda2=_positive,
                  psi_d=_number, psi_r=_number)
    bounds = [draw(_optional(coords)) for _ in range(4)]
    for k, phase in enumerate(doc["phases"]):
        phase.update(start=bounds[k], end=bounds[k + 1])
        if draw(st.booleans()):
            del phase["name"]
    # Every rate divides 1 kHz, so the default dt fits it too.
    rate = draw(st.sampled_from([50.0, 100.0, 125.0, 200.0, 250.0, 500.0]))
    doc["sim"] = draw(_optional(dict(
        dt=st.integers(1, 20).map(lambda s: 1.0 / (rate * s)),
        kp=_positive,
        kd=_positive,
        delay_ticks=st.integers(0, 5),
        duration=st.floats(1.0, 100.0),
    )))
    if rate != SimParams().control_rate or draw(st.booleans()):
        doc["sim"]["control_rate"] = rate
    doc["safety"] = draw(_optional(dict(agent_radius=st.floats(0.0, 1.0),
                                        delta_budget=st.floats(0.0, 1.0))))
    x_start = draw(_number)
    doc["corridor"] = dict(
        x_start=x_start, x_end=x_start + draw(_positive), width=draw(_positive)
    ) | draw(_optional({"center_y": _number}))
    pair = st.lists(_number, min_size=2, max_size=2)
    doc["translation"] = dict(t0=draw(_number), tf=draw(_number), end=draw(pair)) | (
        draw(_optional({"start": pair})))
    for section in ("sim", "safety", "translation"):
        if draw(st.booleans()):
            del doc[section]
    del doc["name"], doc["altitude"]
    return doc | draw(_optional({"name": _file_name("/\\"), "altitude": _number}))


@settings(max_examples=100, deadline=None)
@given(scenario_docs())
def test_serialize_round_trips_random_sections(doc):
    s = parse_scenario(json.dumps(doc))
    text = serialize_scenario(s)
    again = parse_scenario(text)
    assert again == s
    assert serialize_scenario(again) == text
    assert scenario_sha256(again) == scenario_sha256(s)
