"""Scenario documents: schema, parsing, and canonical serialization.

A scenario is a single JSON object with these sections (unknown keys are
rejected everywhere, and so is a key one object gives twice):

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
``null`` is never a valid value. ``Agent`` and ``TranslationRamp`` enforce
their own rules, so a scenario built in code meets them too. Parsing
accumulates every schema problem (with key paths, and line/column for
syntax errors) before failing, then validates the configuration invariants
(``ReferenceConfig.matrices``), then refuses a run whose trace, schedule
sampling or loop spectrum exceeds ``MEMORY_BUDGET``, or whose loop spectrum
exceeds ``WORK_BUDGET`` (``Scenario``), before anything of that size is
allocated or computed. Serialization is canonical (sorted keys), so a
parsed scenario round-trips to an identical model and a stable content
hash.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from importlib import resources
from pathlib import Path

from .errors import ScenarioError, ScheduleError, _FieldErrors, _path_key
from .formation import Agent, ReferenceConfig, _component_problem
from .phases import Phase, PhaseSchedule, TranslationRamp, grid_size

# The most one run's trace, one sampling of its schedule, or its loop
# spectrum's companion matrices may hold, in bytes.
MEMORY_BUDGET = 1 << 30
# The most eigenvalue work the loop spectrum may take, counted as
# ``F * (d + 2)³`` for ``F`` followers at ``delay_ticks = d``: ``F``
# companion matrices of order ``d + 2`` cost cubic time each. The slowest
# accepted spectrum takes a few seconds.
WORK_BUDGET = 1 << 28
# What ``plan`` holds for each schedule sample, at most: about 0.6 KiB of
# CSV text and Python floats for three leaders.
SAMPLE_BYTES = 1 << 10

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
        ratio = self.dt * self.control_rate  # 0.0 when the product underflows
        substeps = 1.0 / ratio if ratio else math.inf
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

    def run_duration(self, schedule: PhaseSchedule) -> float:
        """``duration``, or ``schedule``'s span plus a 10 s hold when it is None."""
        if self.duration is None:
            return schedule.t_end - schedule.t_start + 10.0
        return self.duration


@dataclass(frozen=True)
class Scenario:
    """One run's inputs: the layout and graph, schedule, parameters and safety."""

    name: str
    config: ReferenceConfig
    schedule: PhaseSchedule
    params: SimParams
    safety: SafetyParams
    corridor: Corridor | None = None

    def __post_init__(self):
        """Refuse a run whose trace, schedule sampling or loop spectrum is over budget.

        The trace holds ``72 * T * N`` bytes for ``T`` tick times of ``N``
        agents; ``plan`` and ``check`` take ``SAMPLE_BYTES`` for each
        control-rate sample of the schedule span; the closed loop's
        spectrum (``closed_loop_radius``) holds ``16 * F * (d + 2)²`` bytes
        of companion matrices for ``F`` followers at ``delay_ticks = d``.
        Any one above ``MEMORY_BUDGET`` raises before anything is
        allocated, naming the key that sets its size. So does a spectrum
        whose ``F * (d + 2)³`` is above ``WORK_BUDGET``, before any time is
        spent on it.
        """
        schedule, params = self.schedule, self.params
        rate, n = params.control_rate, len(self.config.agents)
        ticks = grid_size(params.run_duration(schedule), rate)
        samples = grid_size(schedule.t_end - schedule.t_start, rate)
        delay = params.delay_ticks
        companion = 16 * (n - 3) * (delay + 2) ** 2
        work = (n - 3) * (delay + 2) ** 3
        over = f"over the {MEMORY_BUDGET:,}-byte budget"
        if 72 * ticks * n > MEMORY_BUDGET:
            key = "phases" if params.duration is None else "sim.duration"
            message = (
                f"a run of {ticks:,} ticks at {rate:g} Hz of {n} agents needs a "
                f"{72 * ticks * n:,}-byte trace, {over}"
            )
        elif SAMPLE_BYTES * samples > MEMORY_BUDGET:
            key, message = "phases", (
                f"sampling the schedule at {rate:g} Hz takes {samples:,} samples "
                f"of {SAMPLE_BYTES:,} bytes, {over}"
            )
        elif companion > MEMORY_BUDGET:
            key, message = "sim.delay_ticks", (
                f"a delay of {delay:,} ticks for {n - 3} followers needs "
                f"{companion:,} bytes of companion matrices, {over}"
            )
        elif work > WORK_BUDGET:
            key, message = "sim.delay_ticks", (
                f"a delay of {delay:,} ticks for {n - 3} followers takes "
                f"{n - 3} x {delay + 2}^3 = {work:,} units of eigenvalue work, "
                f"over the {WORK_BUDGET:,}-unit budget"
            )
        else:
            return
        raise _FieldErrors({key: message})


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
    """Accumulates schema errors while pulling typed values out of a doc.

    A refused value or key is quoted through ``reprlib``, so however large
    the input, its error line stays short.
    """

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def check_keys(self, doc: dict, allowed, path: str):
        """Fail ``path`` for each key ``doc`` repeats (``load_json``) and each
        key not in ``allowed``."""
        for key in getattr(doc, "repeated", ()):
            self.fail(path, f"duplicate key {reprlib.repr(key)}")
        for key in doc:
            if key not in allowed:
                self.fail(path, f"unknown key {reprlib.repr(key)}")

    def value(self, doc: dict, key: str, path: str, kind=_NUMBER):
        """``doc[key]`` read as ``kind``, a ``_KINDS`` entry; None after failing."""
        read, expected = kind
        value = read(doc[key])
        if value is None:
            got = reprlib.repr(doc[key])
            self.fail(f"{path}.{key}", f"expected {expected}, got {got}")
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


class _Object(dict):
    """A JSON object as ``load_json`` reads it: ``repeated`` names each key
    its text gives more than once, whose last value the dict holds."""

    repeated: tuple[str, ...] = ()

    @classmethod
    def from_pairs(cls, pairs: list) -> _Object:
        obj = cls(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            obj.repeated = tuple(key for key in obj if keys.count(key) > 1)
        return obj


def load_json(text: str):
    """``text`` as JSON, every object an ``_Object`` that keeps its repeated keys.

    The one loader of scenario files and bundle manifests; the schema
    (``_Schema.check_keys``) and ``read_bundle`` refuse what it keeps. A
    document nested deeper than the parser recurses is a ``JSONDecodeError``
    at its first character, as other syntax errors are.
    """
    try:
        return json.loads(text, object_pairs_hook=_Object.from_pairs)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, 0) from None


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and fully validate a scenario document.

    Raises ``ScenarioError`` (syntax or schema problems, with locations)
    or ``ConfigError`` (the parsed configuration violates a structural or
    geometric invariant).
    """
    try:
        doc = load_json(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc
    return scenario_from_dict(doc, source)


def scenario_from_dict(doc, source: str) -> Scenario:
    """``parse_scenario`` of the document ``doc``, as ``load_json`` returns it."""
    if not isinstance(doc, dict):
        raise ScenarioError([f"{source}: top level must be an object"])

    schema = _Schema()
    schema.check_keys(doc, _TOP_KEYS, "$")
    name = schema.value(doc, "name", "$", _KINDS["str"]) if "name" in doc else "scenario"
    # The name is the bundle directory; an ``Agent`` checks its own id.
    problem = name is not None and _component_problem(name, "/\\")
    if problem:
        schema.fail("$.name", problem)
    altitude = schema.value(doc, "altitude", "$") if "altitude" in doc else 1.0

    agents = schema.read_list(Agent, doc, "agents")

    graph: dict[str, tuple[str, ...]] = {}
    if "graph" not in doc:
        schema.fail("$", "missing required section 'graph'")
    elif not isinstance(doc["graph"], dict):
        schema.fail("$.graph", "expected an object mapping follower id to neighbors")
    else:
        schema.check_keys(doc["graph"], doc["graph"], "$.graph")  # any id is a key
        for fid, nbrs in doc["graph"].items():
            if not isinstance(nbrs, list) or any(
                not isinstance(j, str) for j in nbrs
            ):
                got = reprlib.repr(nbrs)
                path = f"$.graph.{_path_key(fid)}"
                schema.fail(path, f"expected a list of agent ids, got {got}")
                continue
            graph[fid] = tuple(nbrs)

    phases = schema.read_list(Phase, doc, "phases")

    translation = None
    if "translation" in doc:
        translation = schema.read(TranslationRamp, doc["translation"], "$.translation")

    safety = schema.read(SafetyParams, doc.get("safety", {}), "$.safety")
    params = schema.read(SimParams, doc.get("sim", {}), "$.sim")
    corridor = None
    if "corridor" in doc:
        corridor = schema.read(Corridor, doc["corridor"], "$.corridor")

    if schema.errors:
        raise ScenarioError(schema.errors)

    cfg = ReferenceConfig.from_agents(agents, z=altitude, in_neighbors=graph)
    cfg.matrices  # built once here; a layout that breaks an invariant raises
    try:
        schedule = PhaseSchedule(phases=tuple(phases), translation=translation)
    except ScheduleError as exc:
        raise ScenarioError([f"$.phases: {exc}"]) from exc

    try:
        return Scenario(
            name=name,
            config=cfg,
            schedule=schedule,
            params=params,
            safety=safety,
            corridor=corridor,
        )
    except _FieldErrors as exc:
        raise ScenarioError(
            [f"$.{key}: {message}" for key, message in exc.problems.items()]
        ) from None


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        return parse_scenario(path.read_text(), source=str(path))
    except OSError as exc:  # missing, a directory, no permission
        raise ScenarioError([f"{path}: cannot read scenario: {exc.strerror}"]) from None
    except UnicodeDecodeError as exc:  # not UTF-8 text
        raise ScenarioError([f"{path}: {exc}"]) from None


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


def scenario_sha256(s: Scenario) -> str:
    """SHA-256 of the scenario's compact sorted-key JSON, in hex.

    ``hashlib`` (and with it OpenSSL) is imported here, the one place the
    program hashes, so the commands that write no manifest (``graph``,
    ``check``, ``plan``) never load it.
    """
    import hashlib

    blob = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
