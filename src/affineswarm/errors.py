"""Exception types shared across the package."""

import reprlib


class AffineSwarmError(Exception):
    """Base class for all package errors."""


class ConfigError(AffineSwarmError):
    """A reference configuration violates a structural or geometric invariant."""


class ScenarioError(AffineSwarmError):
    """A scenario document could not be parsed against the schema.

    ``errors`` lists individual problems, each prefixed with a source
    location or key path.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ScheduleError(AffineSwarmError):
    """A phase schedule is malformed (gaps, overlaps, or discontinuities)."""


class SimulationError(AffineSwarmError):
    """The simulation engine hit an integrity failure (a diverged state)."""


class _FieldErrors(ValueError):
    """``__post_init__`` complaints by field name; a parse reports each at its key."""

    def __init__(self, problems: dict[str, str]):
        super().__init__("; ".join(f"{k}: {m}" for k, m in problems.items()))
        self.problems = problems


def _path_key(key: str) -> str:
    """``key`` as a step of an error's key path: as is, unless ``reprlib``
    shortens its quote, and then that shortened quote, so a long key
    cannot make the error line long."""
    quoted = reprlib.repr(key)
    return key if quoted == repr(key) else quoted
