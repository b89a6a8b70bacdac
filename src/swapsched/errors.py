"""Exception types shared across the package."""

from __future__ import annotations


class SwapSchedError(Exception):
    """Base class for all errors raised by this package."""


class GridParseError(SwapSchedError):
    """A schedule text could not be parsed; carries the offending position."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class TransitionError(SwapSchedError):
    """An in-memory grid contains an illegal state transition."""

    def __init__(self, battery: int, hour: int, message: str):
        self.battery = battery
        self.hour = hour
        super().__init__(f"battery B{battery}, hour {hour}: {message}")


class ProfileError(SwapSchedError):
    """An event-profile table (CSV or explicit list) is malformed."""

    def __init__(self, message: str, hour: int | None = None):
        self.hour = hour
        super().__init__(message)


class DimensionError(SwapSchedError):
    """Grid, profile, and config dimensions do not agree."""


class InstanceError(SwapSchedError):
    """A problem instance is structurally invalid (not merely infeasible)."""


class InfeasibleError(SwapSchedError):
    """No schedule can satisfy the instance; ``hour`` is the first provable failure.

    ``hour`` is None when infeasibility has no single witnessing hour
    (e.g. no packing of full charge blocks exists).
    """

    def __init__(self, hour: int | None, message: str):
        self.hour = hour
        super().__init__(message)


class EnumerationBudgetError(SwapSchedError):
    """The brute-force search space exceeds the configured budget; ``size`` is exact."""

    def __init__(self, size: int, budget: int):
        self.size = size
        self.budget = budget
        try:
            shown = str(size)
        except ValueError:  # more digits than Python turns into text: a power of ten below it
            shown = f"more than 10**{(size.bit_length() - 1) * 301 // 1000}"
        super().__init__(f"enumeration would visit {shown} start vectors, exceeding the budget of {budget}")
