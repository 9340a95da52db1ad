"""Scenario documents: schema, parsing, and canonical serialization.

A scenario is a single JSON object with these sections (unknown keys are
rejected everywhere):

``name``        optional string label; it names the bundle directory, so it
                is one file-name component (not empty, ``.`` or ``..``, and
                without ``/``, ``\\`` or non-printable characters).
``altitude``    optional flight-plane height in meters.
``agents``      list of ``Agent`` objects; ``role`` is "leader" or "follower".
                An ``id`` names a trace file and is a CSV field, so it
                follows the name's rule and also has no ``,`` or ``"``.
``graph``       map follower-id -> list of exactly 3 in-neighbor ids.
``phases``      list of ``Phase`` objects, whose ``start`` and ``end`` are
                ``AtCoordinates`` objects.
``translation`` optional ``TranslationRamp`` added on top of the per-phase
                translation; ``start`` and ``end`` are ``[d1, d2]`` lists
                and ``end`` is required.
``safety``      optional ``SafetyParams``.
``sim``         optional ``SimParams``.
``corridor``    optional ``Corridor``.

An object's keys are its dataclass's field names: a field without a
default is a required key and an omitted optional key takes the field's
default (``parse_scenario`` holds those of ``name`` and ``altitude``).
``null`` is never a valid value. Parsing accumulates every schema problem
(with key paths, and line/column for syntax errors) before failing, then
validates the configuration invariants. Serialization is canonical
(sorted keys), so a parsed scenario round-trips to an identical model and
a stable content hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from importlib import resources
from pathlib import Path

from .errors import ScenarioError, ScheduleError
from .formation import Agent, FormationMatrices, ReferenceConfig, validate_config
from .phases import Phase, PhaseSchedule, TranslationRamp

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


class _FieldErrors(ValueError):
    """``__post_init__`` complaints by field name; a parse reports each at its key."""

    def __init__(self, problems: dict[str, str]):
        super().__init__("; ".join(f"{k}: {m}" for k, m in problems.items()))
        self.problems = problems


@dataclass(frozen=True)
class SafetyParams:
    agent_radius: float = 0.065
    delta_budget: float = 0.01

    def __post_init__(self):
        problems = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value >= 0.0):
                problems[f.name] = f"must be >= 0, got {value!r}"
            elif not math.isfinite(value):
                problems[f.name] = f"must be finite, got {value!r}"
        if problems:
            raise _FieldErrors(problems)


@dataclass(frozen=True)
class Corridor:
    """Axis-aligned channel: open slab between two walls over an x-span."""

    x_start: float
    x_end: float
    width: float
    center_y: float = 0.0

    def __post_init__(self):
        if not (self.width > 0.0):
            raise ValueError("corridor width must be positive")
        if not (self.x_end > self.x_start):
            raise ValueError("corridor x_end must exceed x_start")
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"corridor {f.name} must be finite, got {value!r}")

    @property
    def half_width(self) -> float:
        return self.width / 2.0


@dataclass(frozen=True)
class SimParams:
    """Integration and tracker parameters.

    The control period must be an integer multiple of ``dt``. With the
    default gains the tracker is critically damped (kd = 2 sqrt(kp)).
    ``duration`` of None means "schedule span plus a 10 s settling hold";
    a given duration must cover at least one control tick. Every check is
    written so that NaN fails it.
    ``delay_ticks`` is the staleness, in control ticks, of the neighbor
    positions a follower reads (1 mimics a motion-capture pipeline that
    delivers the previous sample).
    """

    dt: float = 0.001
    control_rate: float = 100.0
    kp: float = 25.0
    kd: float = 10.0
    duration: float | None = None
    delay_ticks: int = 1

    def __post_init__(self):
        def positive(v):
            return math.isfinite(v) and v > 0.0

        if not positive(self.dt):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not positive(self.control_rate):
            raise ValueError(
                f"control_rate must be positive and finite, got {self.control_rate}"
            )
        if not (positive(self.kp) and positive(self.kd)):
            raise ValueError(
                f"tracker gains must be positive and finite, got kp={self.kp}, "
                f"kd={self.kd}"
            )
        if self.delay_ticks < 0:
            raise ValueError("delay_ticks must be >= 0")
        substeps = 1.0 / (self.dt * self.control_rate)
        if not (
            math.isfinite(substeps)
            and round(substeps) >= 1
            and abs(substeps - round(substeps)) <= 1e-9
        ):
            raise ValueError(
                f"control period 1/{self.control_rate} Hz is not an integer "
                f"multiple of dt={self.dt}"
            )
        # round(x) >= 1 exactly when x > 0.5; tick_grid rounds the same way.
        if self.duration is not None and not (
            math.isfinite(self.duration) and self.duration * self.control_rate > 0.5
        ):
            raise ValueError(
                f"duration must cover at least one control tick, got {self.duration}"
            )

    @property
    def substeps(self) -> int:
        return int(round(1.0 / (self.dt * self.control_rate)))


@dataclass(frozen=True)
class Scenario:
    """One run's inputs: the layout and graph, schedule, parameters and safety."""

    name: str
    config: ReferenceConfig
    schedule: PhaseSchedule
    params: SimParams
    safety: SafetyParams
    corridor: Corridor | None = None

    @functools.cached_property
    def matrices(self) -> FormationMatrices:
        """The config's matrices, built once; ``dataclasses.replace`` drops them."""
        return FormationMatrices.from_config(self.config)


def _finite(value) -> float | None:
    """``value`` as a float when it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return value if math.isfinite(value) else None


def _pair(value) -> tuple[float, float] | None:
    """``value`` as a (d1, d2) tuple when it is a list of two finite numbers."""
    pair = tuple(map(_finite, value)) if isinstance(value, list) else ()
    return pair if len(pair) == 2 and None not in pair else None


def _component_problem(text: str, forbidden: str) -> str | None:
    """Why ``text`` is not one file-name component free of ``forbidden``, or None."""
    if text in ("", ".", ".."):
        return f"must be one file-name component, got {text!r}"
    for c in text:
        if c in forbidden or not c.isprintable():
            return f"must not contain {c!r}, got {text!r}"
    return None


def _integer(value) -> int | None:
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _string(value) -> str | None:
    return value if isinstance(value, str) else None


# A field's annotation -> (reader returning None for a bad value, what it
# expects). Annotations are strings because every module postpones them.
_KINDS = {
    "int": (_integer, "an integer"),
    "str": (_string, "a string"),
    "tuple[float, float]": (_pair, "[d1, d2] of finite numbers"),
}
_NUMBER = (_finite, "a finite number")


@functools.cache
def _fields(cls) -> dict:
    """``cls``'s fields by name: (required, nested dataclass or None, kind).

    Cached because a scenario reads one ``Agent`` for each of its agents.
    """
    return {
        f.name: (
            f.default is MISSING,
            type(f.default) if is_dataclass(f.default) else None,
            _KINDS.get(f.type, _NUMBER),
        )
        for f in fields(cls)
    }


class _Schema:
    """Accumulates schema errors while pulling typed values out of a doc."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def check_keys(self, doc: dict, allowed, path: str):
        for key in doc:
            if key not in allowed:
                self.fail(path, f"unknown key {key!r}")

    def value(self, doc: dict, key: str, path: str, kind=_NUMBER):
        """``doc[key]`` read as ``kind``, a ``_KINDS`` entry; None after failing."""
        read, expected = kind
        value = read(doc[key])
        if value is None:
            self.fail(f"{path}.{key}", f"expected {expected}, got {doc[key]!r}")
        return value

    def read(self, cls, doc, path: str):
        """A ``cls`` read from the object ``doc``; None after failing.

        The keys are ``cls``'s field names. A field without a default is a
        required key, and an omitted key takes the field's default. A field
        whose default is a dataclass is read as a nested object; any other
        is read by its annotation: ``int``, ``str``, ``tuple[float, float]``
        or else a finite number. A ``ValueError`` from ``cls`` is reported
        at ``path``, or at each key's path when it names fields.
        """
        if not isinstance(doc, dict):
            self.fail(path, "expected an object")
            return None
        cls_fields = _fields(cls)
        self.check_keys(doc, cls_fields, path)
        values, ok = {}, True
        for name, (required, nested, kind) in cls_fields.items():
            if name not in doc:
                if required:
                    self.fail(path, f"missing required key {name!r}")
                    ok = False
                continue
            if nested is not None:
                value = self.read(nested, doc[name], f"{path}.{name}")
            else:
                value = self.value(doc, name, path, kind)
            values[name] = value
            ok = ok and value is not None
        if not ok:
            return None
        try:
            return cls(**values)
        except _FieldErrors as exc:
            for key, message in exc.problems.items():
                self.fail(f"{path}.{key}", message)
        except ValueError as exc:
            self.fail(path, str(exc))
        return None

    def read_list(self, cls, doc: dict, key: str) -> list:
        """The required non-empty list ``doc[key]``, each entry read as a ``cls``."""
        if key not in doc:
            self.fail("$", f"missing required section {key!r}")
            return []
        entries = doc[key]
        if not isinstance(entries, list) or not entries:
            self.fail(f"$.{key}", f"expected a non-empty list of {key}")
            return []
        return [self.read(cls, e, f"$.{key}[{i}]") for i, e in enumerate(entries)]


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
    name = schema.value(doc, "name", "$", _KINDS["str"]) if "name" in doc else "scenario"
    # The name is the bundle directory, an id a trace file name and a CSV field.
    problem = name is not None and _component_problem(name, "/\\")
    if problem:
        schema.fail("$.name", problem)
    altitude = schema.value(doc, "altitude", "$") if "altitude" in doc else 1.0

    agents = schema.read_list(Agent, doc, "agents")
    for i, agent in enumerate(agents):
        if agent is None:
            continue
        if agent.role not in ("leader", "follower"):
            schema.fail(
                f"$.agents[{i}].role",
                f"must be 'leader' or 'follower', got {agent.role!r}",
            )
        problem = _component_problem(agent.id, '/\\,"')
        if problem:
            schema.fail(f"$.agents[{i}].id", problem)

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

    phases = schema.read_list(Phase, doc, "phases")

    translation = None
    if "translation" in doc:
        translation = schema.read(TranslationRamp, doc["translation"], "$.translation")
        # A ramp's end defaults to no offset in code, but a scenario must give it.
        if isinstance(doc["translation"], dict) and "end" not in doc["translation"]:
            schema.fail("$.translation", "missing required key 'end'")

    safety = schema.read(SafetyParams, doc.get("safety", {}), "$.safety")
    params = schema.read(SimParams, doc.get("sim", {}), "$.sim")
    corridor = None
    if "corridor" in doc:
        corridor = schema.read(Corridor, doc["corridor"], "$.corridor")

    if schema.errors:
        raise ScenarioError(schema.errors)

    cfg = ReferenceConfig.from_agents(agents, z=altitude, in_neighbors=graph)
    validate_config(cfg).raise_if_invalid()
    try:
        schedule = PhaseSchedule(phases=tuple(phases), translation=translation)
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
    """Canonical document for a scenario model (parses back to an equal model).

    Each section holds its dataclass's fields. ``sim.duration`` is left out
    when it is None, and the translation pairs are lists.
    """
    doc: dict = {
        "name": s.name,
        "altitude": s.config.z,
        "agents": [asdict(a) for a in s.config.agents],
        "graph": {
            fid: list(nbrs) for fid, nbrs in sorted(s.config.in_neighbors.items())
        },
        "phases": [asdict(ph) for ph in s.schedule.phases],
        "safety": asdict(s.safety),
        "sim": asdict(s.params),
    }
    if s.params.duration is None:
        del doc["sim"]["duration"]
    if s.schedule.translation is not None:
        tr = s.schedule.translation
        doc["translation"] = asdict(tr) | {"start": list(tr.start), "end": list(tr.end)}
    if s.corridor is not None:
        doc["corridor"] = asdict(s.corridor)
    return doc


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), sort_keys=True, indent=2) + "\n"


def scenario_sha256(s: Scenario) -> str:
    blob = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
