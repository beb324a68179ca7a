"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class ValidationError(SimError):
    """A parameter, configuration, or input value violates its contract."""


class ScheduleError(SimError):
    """A compute schedule is inconsistent with the array or kernel geometry."""


class StateError(SimError):
    """An analog quantity reached a physically impossible state (e.g. a
    negative charge-bitline contribution)."""


class DimensionError(SimError):
    """Two grids that must share a shape do not."""


class FitError(SimError):
    """A curve fit is degenerate (all abscissae identical)."""


class FormatError(SimError):
    """A file is malformed. ``offset`` is the byte offset of the problem
    when known, else -1."""

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message if offset < 0 else f"{message} (byte offset {offset})")
        self.offset = offset
