"""Exception types shared across the package."""


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
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ScheduleError(AffineSwarmError):
    """A phase schedule is malformed (gaps, overlaps, or discontinuities)."""


class SafetyError(AffineSwarmError):
    """A schedule fails the principal-strain safety bound precheck."""


class SimulationError(AffineSwarmError):
    """The simulation engine hit an integrity failure (a diverged state)."""
