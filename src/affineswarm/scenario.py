"""Scenario documents: schema, parsing, and canonical serialization.

A scenario is a single JSON object with these sections (unknown keys are
rejected everywhere):

``name``        optional string label (default "scenario").
``altitude``    flight-plane height in meters (default 1.0).
``agents``      list of {"id", "role": "leader"|"follower", "x", "y"}.
``graph``       map follower-id -> list of exactly 3 in-neighbor ids.
``phases``      list of {"name"?, "t0", "tf", "start": coords, "end": coords}
                where coords may set lambda1, lambda2 (default 1.0) and
                psi_d, psi_r, d1, d2 (default 0.0).
``translation`` optional {"t0", "tf", "start"?: [d1, d2], "end": [d1, d2]}
                ramp added on top of the per-phase translation.
``safety``      optional {"agent_radius": 0.065, "delta_budget": 0.01}.
``sim``         optional {"dt", "control_rate", "kp", "kd", "delay_ticks",
                "duration"}; defaults match ``SimParams``.
``corridor``    optional {"x_start", "x_end", "width", "center_y"?}.

Parsing accumulates every schema problem (with key paths, and line/column
for syntax errors) before failing, then validates the configuration
invariants. Serialization is canonical (sorted keys), so a parsed
scenario round-trips to an identical model and a stable content hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ScenarioError, ScheduleError
from .formation import Agent, ReferenceConfig, validate_config
from .metrics import Corridor
from .phases import Phase, PhaseSchedule, TranslationRamp
from .simulation import SimParams
from .transform import AtCoordinates

_COORD_KEYS = {
    "lambda1": 1.0,
    "lambda2": 1.0,
    "psi_d": 0.0,
    "psi_r": 0.0,
    "d1": 0.0,
    "d2": 0.0,
}
_TOP_KEYS = {
    "name",
    "altitude",
    "agents",
    "graph",
    "phases",
    "translation",
    "safety",
    "sim",
    "corridor",
}


@dataclass(frozen=True)
class SafetyParams:
    agent_radius: float = 0.065
    delta_budget: float = 0.01


@dataclass(frozen=True)
class Scenario:
    name: str
    config: ReferenceConfig
    schedule: PhaseSchedule
    params: SimParams
    safety: SafetyParams
    corridor: Corridor | None = None


def _finite(value) -> float | None:
    """``value`` as a float when it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return value if math.isfinite(value) else None


class _Schema:
    """Accumulates schema errors while pulling typed values out of a doc."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def number(self, doc: dict, key: str, path: str, default=None, required=False):
        if key not in doc:
            if required:
                self.fail(path, f"missing required key {key!r}")
            return default
        value = _finite(doc[key])
        if value is None:
            self.fail(f"{path}.{key}", f"expected a finite number, got {doc[key]!r}")
            return default
        return value

    def integer(self, doc: dict, key: str, path: str, default=None):
        if key not in doc:
            return default
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(f"{path}.{key}", f"expected an integer, got {value!r}")
            return default
        return value

    def string(self, doc: dict, key: str, path: str, default=None, required=False):
        if key not in doc:
            if required:
                self.fail(path, f"missing required key {key!r}")
            return default
        value = doc[key]
        if not isinstance(value, str):
            self.fail(f"{path}.{key}", f"expected a string, got {value!r}")
            return default
        return value

    def check_keys(self, doc: dict, allowed: set, path: str):
        for key in doc:
            if key not in allowed:
                self.fail(path, f"unknown key {key!r}")

    def section(self, doc: dict, key: str, path: str, required=False):
        if key not in doc:
            if required:
                self.fail(path, f"missing required section {key!r}")
            return None
        value = doc[key]
        if not isinstance(value, dict):
            self.fail(f"{path}.{key}", "expected an object")
            return None
        return value


def _parse_coords(doc, path: str, schema: _Schema) -> AtCoordinates | None:
    if not isinstance(doc, dict):
        schema.fail(path, "expected an object of coordinate values")
        return None
    schema.check_keys(doc, set(_COORD_KEYS), path)
    vals = {}
    for key, default in _COORD_KEYS.items():
        vals[key] = schema.number(doc, key, path, default=default)
    if any(v is None for v in vals.values()):
        return None
    try:
        return AtCoordinates(**vals)
    except ValueError as exc:
        schema.fail(path, str(exc))
        return None


def _parse_pair(value, path: str, schema: _Schema, default=None):
    if value is None:
        return default
    pair = tuple(map(_finite, value)) if isinstance(value, (list, tuple)) else ()
    if len(pair) != 2 or None in pair:
        schema.fail(path, f"expected [d1, d2] of finite numbers, got {value!r}")
        return default
    return pair


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and fully validate a scenario document.

    Raises ``ScenarioError`` (syntax or schema problems, with locations)
    or ``ConfigError`` (the parsed configuration violates a structural or
    geometric invariant).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc
    if not isinstance(doc, dict):
        raise ScenarioError([f"{source}: top level must be an object"])

    schema = _Schema()
    schema.check_keys(doc, _TOP_KEYS, "$")
    name = schema.string(doc, "name", "$", default="scenario")
    altitude = schema.number(doc, "altitude", "$", default=1.0)

    agents: list[Agent] = []
    if "agents" not in doc:
        schema.fail("$", "missing required section 'agents'")
    elif not isinstance(doc["agents"], list) or not doc["agents"]:
        schema.fail("$.agents", "expected a non-empty list of agents")
    else:
        for i, entry in enumerate(doc["agents"]):
            path = f"$.agents[{i}]"
            if not isinstance(entry, dict):
                schema.fail(path, "expected an object")
                continue
            schema.check_keys(entry, {"id", "role", "x", "y"}, path)
            aid = schema.string(entry, "id", path, required=True)
            role = schema.string(entry, "role", path, required=True)
            x = schema.number(entry, "x", path, required=True)
            y = schema.number(entry, "y", path, required=True)
            if None in (aid, role, x, y):
                continue
            if role not in ("leader", "follower"):
                schema.fail(f"{path}.role", f"must be 'leader' or 'follower', got {role!r}")
                continue
            agents.append(Agent(id=aid, role=role, x=x, y=y))

    graph: dict[str, tuple[str, ...]] = {}
    if "graph" not in doc:
        schema.fail("$", "missing required section 'graph'")
    elif not isinstance(doc["graph"], dict):
        schema.fail("$.graph", "expected an object mapping follower id to neighbors")
    else:
        for fid, nbrs in doc["graph"].items():
            path = f"$.graph.{fid}"
            if not isinstance(nbrs, list) or any(
                not isinstance(j, str) for j in nbrs
            ):
                schema.fail(path, f"expected a list of agent ids, got {nbrs!r}")
                continue
            graph[fid] = tuple(nbrs)

    phases: list[Phase] = []
    if "phases" not in doc:
        schema.fail("$", "missing required section 'phases'")
    elif not isinstance(doc["phases"], list) or not doc["phases"]:
        schema.fail("$.phases", "expected a non-empty list of phases")
    else:
        for i, entry in enumerate(doc["phases"]):
            path = f"$.phases[{i}]"
            if not isinstance(entry, dict):
                schema.fail(path, "expected an object")
                continue
            schema.check_keys(entry, {"name", "t0", "tf", "start", "end"}, path)
            t0 = schema.number(entry, "t0", path, required=True)
            tf = schema.number(entry, "tf", path, required=True)
            pname = schema.string(entry, "name", path, default="")
            start = _parse_coords(entry.get("start", {}), f"{path}.start", schema)
            end = _parse_coords(entry.get("end", {}), f"{path}.end", schema)
            if None in (t0, tf) or start is None or end is None:
                continue
            phases.append(Phase(t0=t0, tf=tf, start=start, end=end, name=pname))

    translation = None
    tr_doc = schema.section(doc, "translation", "$")
    if tr_doc is not None:
        schema.check_keys(tr_doc, {"t0", "tf", "start", "end"}, "$.translation")
        t0 = schema.number(tr_doc, "t0", "$.translation", required=True)
        tf = schema.number(tr_doc, "tf", "$.translation", required=True)
        start = _parse_pair(
            tr_doc.get("start"), "$.translation.start", schema, default=(0.0, 0.0)
        )
        end = _parse_pair(tr_doc.get("end"), "$.translation.end", schema)
        if end is None and "end" not in tr_doc:
            schema.fail("$.translation", "missing required key 'end'")
        if None not in (t0, tf) and start is not None and end is not None:
            translation = TranslationRamp(t0=t0, tf=tf, start=start, end=end)

    safety = SafetyParams()
    sf_doc = schema.section(doc, "safety", "$")
    if sf_doc is not None:
        schema.check_keys(sf_doc, {"agent_radius", "delta_budget"}, "$.safety")
        values = {}
        for key, default in (("agent_radius", 0.065), ("delta_budget", 0.01)):
            values[key] = schema.number(sf_doc, key, "$.safety", default=default)
            if values[key] < 0.0:
                schema.fail(f"$.safety.{key}", f"must be >= 0, got {values[key]!r}")
        safety = SafetyParams(**values)

    params = SimParams()
    sim_doc = schema.section(doc, "sim", "$")
    if sim_doc is not None:
        schema.check_keys(
            sim_doc,
            {"dt", "control_rate", "kp", "kd", "delay_ticks", "duration"},
            "$.sim",
        )
        kwargs = dict(
            dt=schema.number(sim_doc, "dt", "$.sim", default=0.001),
            control_rate=schema.number(sim_doc, "control_rate", "$.sim", default=100.0),
            kp=schema.number(sim_doc, "kp", "$.sim", default=25.0),
            kd=schema.number(sim_doc, "kd", "$.sim", default=10.0),
            duration=schema.number(sim_doc, "duration", "$.sim", default=None),
            delay_ticks=schema.integer(sim_doc, "delay_ticks", "$.sim", default=1),
        )
        if all(v is not None for k, v in kwargs.items() if k != "duration"):
            try:
                params = SimParams(**kwargs)
            except ValueError as exc:
                schema.fail("$.sim", str(exc))

    corridor = None
    co_doc = schema.section(doc, "corridor", "$")
    if co_doc is not None:
        schema.check_keys(
            co_doc, {"x_start", "x_end", "width", "center_y"}, "$.corridor"
        )
        xs = schema.number(co_doc, "x_start", "$.corridor", required=True)
        xe = schema.number(co_doc, "x_end", "$.corridor", required=True)
        width = schema.number(co_doc, "width", "$.corridor", required=True)
        cy = schema.number(co_doc, "center_y", "$.corridor", default=0.0)
        if None not in (xs, xe, width, cy):
            try:
                corridor = Corridor(x_start=xs, x_end=xe, width=width, center_y=cy)
            except ValueError as exc:
                schema.fail("$.corridor", str(exc))

    if schema.errors:
        raise ScenarioError(schema.errors)

    cfg = ReferenceConfig.from_agents(agents, z=altitude, in_neighbors=graph)
    validate_config(cfg).raise_if_invalid()
    try:
        schedule = PhaseSchedule(
            phases=tuple(phases), z=altitude, translation=translation
        )
    except ScheduleError as exc:
        raise ScenarioError([f"$.phases: {exc}"]) from exc

    return Scenario(
        name=name,
        config=cfg,
        schedule=schedule,
        params=params,
        safety=safety,
        corridor=corridor,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    return parse_scenario(path.read_text(), source=str(path))


def default_scenario_text() -> str:
    return (
        resources.files("affineswarm").joinpath("scenarios/default.json").read_text()
    )


def load_default_scenario() -> Scenario:
    """The bundled six-agent scenario: contraction, rotation through a
    corridor, shear/scale, all under a 4 m translation."""
    return parse_scenario(default_scenario_text(), source="scenarios/default.json")


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical document for a scenario model (parses back to an equal model)."""
    doc: dict = {
        "name": s.name,
        "altitude": s.config.z,
        "agents": [
            {"id": a.id, "role": a.role, "x": a.x, "y": a.y} for a in s.config.agents
        ],
        "graph": {
            fid: list(nbrs) for fid, nbrs in sorted(s.config.in_neighbors.items())
        },
        "phases": [
            {
                "name": ph.name,
                "t0": ph.t0,
                "tf": ph.tf,
                "start": _coords_dict(ph.start),
                "end": _coords_dict(ph.end),
            }
            for ph in s.schedule.phases
        ],
        "safety": {
            "agent_radius": s.safety.agent_radius,
            "delta_budget": s.safety.delta_budget,
        },
        "sim": {
            "dt": s.params.dt,
            "control_rate": s.params.control_rate,
            "kp": s.params.kp,
            "kd": s.params.kd,
            "delay_ticks": s.params.delay_ticks,
        },
    }
    if s.params.duration is not None:
        doc["sim"]["duration"] = s.params.duration
    if s.schedule.translation is not None:
        tr = s.schedule.translation
        doc["translation"] = {
            "t0": tr.t0,
            "tf": tr.tf,
            "start": list(tr.start),
            "end": list(tr.end),
        }
    if s.corridor is not None:
        doc["corridor"] = {
            "x_start": s.corridor.x_start,
            "x_end": s.corridor.x_end,
            "width": s.corridor.width,
            "center_y": s.corridor.center_y,
        }
    return doc


def _coords_dict(c: AtCoordinates) -> dict:
    return {
        "lambda1": c.lambda1,
        "lambda2": c.lambda2,
        "psi_d": c.psi_d,
        "psi_r": c.psi_r,
        "d1": c.d1,
        "d2": c.d2,
    }


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), sort_keys=True, indent=2) + "\n"


def scenario_sha256(s: Scenario) -> str:
    blob = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
