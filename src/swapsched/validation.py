"""Constraint checks for schedule grids.

``validate`` checks one grid against one instance and reports every breach.
It reads each hour's letter counts, the grid's hour-to-hour moves and each
battery's charge runs (its runs of ``C``) from one scan of the grid's runs
(``model._scan``).  Violations come grouped by family in a fixed order:
transitions, charger capacity, demand coverage, arrivals, charge duration,
initial conditions.  No family short-circuits another, so a grid shows
every breach at once.

Charge-duration checking has two modes:

* ``lenient`` - a completed charge run may be longer than the required
  duration (the battery lingers on its charger after filling up);
* ``strict`` - completed runs must last exactly the required duration.

Runs cut off by the end of the horizon are exempt in both modes.
"""

from __future__ import annotations

from .errors import DimensionError
from .model import BatteryState, Instance, ScheduleGrid, _json_text, _scan, _shown, _Value

__all__ = [
    "Violation",
    "ValidationReport",
    "MODES",
    "TRANSITION",
    "CHARGER_CAPACITY",
    "DEMAND_COVERAGE",
    "ARRIVALS",
    "CHARGE_DURATION",
    "INITIAL_CONDITIONS",
    "validate",
]

_E = BatteryState.EMPTY
_C = BatteryState.CHARGING

# Stable constraint identifiers; these appear in reports and the CLI.
TRANSITION = "transition"
CHARGER_CAPACITY = "charger_capacity"
DEMAND_COVERAGE = "demand_coverage"
ARRIVALS = "arrivals"
CHARGE_DURATION = "charge_duration"
INITIAL_CONDITIONS = "initial_conditions"

MODES = ("lenient", "strict")


class Violation(_Value):
    """One constraint breach; battery/hour are None when not applicable."""

    __slots__ = ("constraint", "battery", "hour", "message")

    def __init__(self, constraint: str, battery: int | None, hour: int | None, message: str):
        super().__init__(constraint, battery, hour, message)

    def to_json_dict(self) -> dict:
        return {
            "constraint": self.constraint,
            "battery": self.battery,
            "hour": self.hour,
            "message": self.message,
        }


class ValidationReport(_Value):
    """Outcome of validating one grid against one instance."""

    __slots__ = ("feasible", "violations", "hourly")

    def __init__(
        self, feasible: bool, violations: tuple[Violation, ...], hourly: dict[str, tuple[int, ...]]
    ):
        super().__init__(feasible, violations, hourly)

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": [v.to_json_dict() for v in self.violations],
            "hourly": {k: list(v) for k, v in self.hourly.items()},
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())

    def constraint_ids(self) -> set[str]:
        return {v.constraint for v in self.violations}


def validate(grid: ScheduleGrid, instance: Instance, mode: str = "lenient") -> ValidationReport:
    """Check the grid against every constraint family and report all breaches.

    Raises DimensionError when grid and instance disagree on shape; shape
    mismatches are input errors, not violations.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {_shown(mode)}")
    cfg, events, initial = instance.config, instance.events, instance.initial
    if grid.n_batteries != cfg.n_batteries or grid.horizon != cfg.horizon:
        raise DimensionError(
            f"grid is {grid.n_batteries}x{grid.horizon}, "
            f"instance is {cfg.n_batteries}x{cfg.horizon}"
        )
    T = grid.horizon
    hourly, swaps, returns, illegal, charges = _scan(grid)

    # Transitions: every hour-to-hour move outside the legal state cycle.
    violations = [
        Violation(
            TRANSITION, b, hour,
            f"battery B{b}: illegal transition {prev}->{cur} into hour {hour}",
        )
        for b, hour, prev, cur in illegal
    ]

    # Charger capacity: a battery lingering on its charger after filling up
    # still shows as C and occupies the charger; F batteries do not.
    for t, used in enumerate(hourly["C"], start=1):
        if used > cfg.n_chargers:
            violations.append(
                Violation(
                    CHARGER_CAPACITY, None, t,
                    f"hour {t}: {used} batteries charging, only {cfg.n_chargers} chargers",
                )
            )

    # Demand coverage: exactly the demanded swaps land each hour, backed by F
    # stock.  A swap landing at hour t consumes a battery that was F at t-1,
    # so demand at hour 1 can never be served.
    if events.demand[0] > 0:
        violations.append(
            Violation(
                DEMAND_COVERAGE, None, 1,
                f"demand {events.demand[0]} at hour 1 can never be served "
                "(swaps land on an edge from the previous hour)",
            )
        )
    for t in range(2, T + 1):
        want, edges, stock = events.demand[t - 1], swaps[t - 1], hourly["F"][t - 2]
        if edges != want:
            violations.append(
                Violation(DEMAND_COVERAGE, None, t, f"hour {t}: {edges} swap(s) land, demand is {want}")
            )
        if stock < want:
            violations.append(
                Violation(
                    DEMAND_COVERAGE, None, t,
                    f"hour {t}: demand {want} exceeds the {stock} fully-charged "
                    f"batteries available at hour {t - 1}",
                )
            )

    # Arrivals: exactly the scheduled number of returns land each hour.
    if events.arrivals[0] > 0:
        violations.append(
            Violation(
                ARRIVALS, None, 1,
                f"{events.arrivals[0]} arrival(s) at hour 1 can never land "
                "(arrivals land on an edge from the previous hour)",
            )
        )
    for t in range(2, T + 1):
        want, edges = events.arrivals[t - 1], returns[t - 1]
        if edges != want:
            violations.append(
                Violation(ARRIVALS, None, t, f"hour {t}: {edges} arrival(s) land, profile says {want}")
            )

    # Charge duration: completed runs must cover the configured duration.  A
    # run starting at hour 1 on a battery that entered the horizon charging
    # gets its declared progress credited.
    for row, first, end in charges:  # charging hours first + 1 to end
        if end == T or grid.rows[row][end] != "F":
            continue  # cut off by the horizon (exempt) or not completed (a transition)
        b, start, effective = row + 1, first + 1, end - first
        entry = initial.for_battery(b)
        if start == 1 and entry.state is _C:
            effective += entry.progress
        if effective < cfg.charge_hours or (mode == "strict" and effective != cfg.charge_hours):
            violations.append(
                Violation(
                    CHARGE_DURATION, b, start,
                    f"battery B{b}: charge run hours {start}-{end} has effective "
                    f"length {effective}, required {cfg.charge_hours}"
                    + (" exactly" if mode == "strict" else " at least"),
                )
            )

    # Initial conditions: hour 1 matches the declared start states.  A battery
    # that enters empty may already be charging at hour 1 (it can be moved
    # onto a free charger within the first hour), so E admits {E, C}.
    for b, (entry, row) in enumerate(zip(initial.entries, grid.rows), start=1):
        if row[0] not in ("EC" if entry.state is _E else entry.state.letter):
            violations.append(
                Violation(
                    INITIAL_CONDITIONS, b, 1,
                    f"battery B{b}: declared start {entry.state.letter}, "
                    f"hour 1 shows {row[0]}",
                )
            )

    return ValidationReport(
        feasible=not violations,
        violations=tuple(violations),
        hourly=hourly,
    )
