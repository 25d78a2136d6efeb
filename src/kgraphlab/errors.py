"""Exception types shared across the package."""

from __future__ import annotations


class KGraphLabError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(KGraphLabError, ValueError):
    pass


class GraphError(KGraphLabError, ValueError):
    """Structural problem in a colored graph or one of its paths."""


class NotComposable(GraphError):
    """Endpoint mismatch when composing paths or groupoid elements."""


class DomainError(KGraphLabError, ValueError):
    """Partial map applied outside its domain."""

    def __init__(self, msg, *, point=None):
        super().__init__(msg)
        self.point = point


class WitnessError(KGraphLabError, ValueError):
    """No valid commuting-power witness exists for an attempted composition.

    Only reachable when the domain-compatibility condition fails; carries the
    attempted translation and the search bound, the Shape bounding the m of
    the box the witness search derived (None where that box is empty, so
    nothing was searched), so callers can surface the counterexample.
    """

    def __init__(self, msg, *, attempted=None, search_bound=None):
        super().__init__(msg)
        self.attempted = attempted
        self.search_bound = search_bound


class ConfigError(KGraphLabError, ValueError):
    """Bad parameter handed to an operation (unknown name, empty index set...)."""


class FixtureError(KGraphLabError, ValueError):
    """Parse failure in a fixture file, located by line and column."""

    def __init__(self, msg, *, line, column):
        super().__init__(f"line {line}, column {column}: {msg}")
        self.line = line
        self.column = column
