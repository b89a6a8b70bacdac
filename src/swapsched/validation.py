"""Constraint checks for schedule grids.

Each check scans one constraint family and returns a list of violations;
``validate`` runs them all and aggregates the result into a report.  The
checks never mutate and never short-circuit each other, so the report's
violation list is exactly the union of the individual checks.

Charge-duration checking has two modes:

* ``lenient`` - a completed charge run may be longer than the required
  duration (the battery lingers on its charger after filling up);
* ``strict`` - completed runs must last exactly the required duration.

Runs cut off by the end of the horizon are exempt in both modes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DimensionError, InstanceError
from .model import (
    BatteryState,
    EventProfiles,
    InitialConditions,
    ScheduleGrid,
    StationConfig,
    legal_transition,
)

__all__ = [
    "Instance",
    "Violation",
    "ValidationReport",
    "MODES",
    "TRANSITION",
    "CHARGER_CAPACITY",
    "DEMAND_COVERAGE",
    "ARRIVALS",
    "CHARGE_DURATION",
    "INITIAL_CONDITIONS",
    "check_transitions",
    "check_charger_capacity",
    "check_demand_coverage",
    "check_arrivals",
    "check_charge_duration",
    "check_initial",
    "validate",
]

_E = BatteryState.EMPTY
_C = BatteryState.CHARGING
_F = BatteryState.FULL
_O = BatteryState.OUT

# Stable constraint identifiers; these appear in reports and the CLI.
TRANSITION = "transition"
CHARGER_CAPACITY = "charger_capacity"
DEMAND_COVERAGE = "demand_coverage"
ARRIVALS = "arrivals"
CHARGE_DURATION = "charge_duration"
INITIAL_CONDITIONS = "initial_conditions"

MODES = ("lenient", "strict")


@dataclass(frozen=True)
class Instance:
    """A complete scheduling problem: station, start states, event profiles."""

    config: StationConfig
    initial: InitialConditions
    events: EventProfiles

    def __post_init__(self):
        if len(self.initial) != self.config.n_batteries:
            raise InstanceError(
                f"{len(self.initial)} initial entries for {self.config.n_batteries} batteries"
            )
        if self.events.horizon != self.config.horizon:
            raise InstanceError(
                f"profiles cover {self.events.horizon} hours, horizon is {self.config.horizon}"
            )
        for b, entry in enumerate(self.initial.entries, start=1):
            if entry.state is _C and entry.progress >= self.config.charge_hours:
                raise InstanceError(
                    f"battery B{b}: progress {entry.progress} must be below "
                    f"charge_hours {self.config.charge_hours}"
                )


@dataclass(frozen=True)
class Violation:
    """One constraint breach; battery/hour are None when not applicable."""

    constraint: str
    battery: int | None
    hour: int | None
    message: str

    def to_json_dict(self) -> dict:
        return {
            "constraint": self.constraint,
            "battery": self.battery,
            "hour": self.hour,
            "message": self.message,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one grid against one instance."""

    feasible: bool
    violations: tuple[Violation, ...]
    hourly: dict[str, tuple[int, ...]]

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": [v.to_json_dict() for v in self.violations],
            "hourly": {k: list(v) for k, v in self.hourly.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def constraint_ids(self) -> set[str]:
        return {v.constraint for v in self.violations}


def check_transitions(grid: ScheduleGrid) -> list[Violation]:
    """Flag every hour-to-hour move outside the legal state cycle."""
    out = []
    for b, row in enumerate(grid.states, start=1):
        for t in range(1, grid.horizon):
            prev, cur = row[t - 1], row[t]
            if not legal_transition(prev, cur):
                out.append(
                    Violation(
                        TRANSITION, b, t + 1,
                        f"battery B{b}: illegal transition {prev.letter}->{cur.letter} "
                        f"into hour {t + 1}",
                    )
                )
    return out


def check_charger_capacity(grid: ScheduleGrid, config: StationConfig) -> list[Violation]:
    """No hour may have more charging batteries than chargers.

    A battery lingering on its charger after filling up still shows as C
    and still occupies the charger; fully-charged (F) batteries do not.
    """
    out = []
    for t in range(1, grid.horizon + 1):
        used = grid.count(_C, t)
        if used > config.n_chargers:
            out.append(
                Violation(
                    CHARGER_CAPACITY, None, t,
                    f"hour {t}: {used} batteries charging, only {config.n_chargers} chargers",
                )
            )
    return out


def check_demand_coverage(grid: ScheduleGrid, events: EventProfiles) -> list[Violation]:
    """Exactly the demanded number of swaps must land each hour, backed by F stock.

    A swap landing at hour t consumes a battery that was F at t-1, so demand
    at hour 1 can never be served and is flagged outright.
    """
    out = []
    if events.demand[0] > 0:
        out.append(
            Violation(
                DEMAND_COVERAGE, None, 1,
                f"demand {events.demand[0]} at hour 1 can never be served "
                "(swaps land on an edge from the previous hour)",
            )
        )
    for t in range(2, grid.horizon + 1):
        want = events.demand[t - 1]
        edges = sum(
            1 for row in grid.states if row[t - 2] is _F and row[t - 1] is _O
        )
        stock = grid.count(_F, t - 1)
        if edges != want:
            out.append(
                Violation(
                    DEMAND_COVERAGE, None, t,
                    f"hour {t}: {edges} swap(s) land, demand is {want}",
                )
            )
        if stock < want:
            out.append(
                Violation(
                    DEMAND_COVERAGE, None, t,
                    f"hour {t}: demand {want} exceeds the {stock} fully-charged "
                    f"batteries available at hour {t - 1}",
                )
            )
    return out


def check_arrivals(grid: ScheduleGrid, events: EventProfiles) -> list[Violation]:
    """Exactly the scheduled number of battery returns must land each hour."""
    out = []
    if events.arrivals[0] > 0:
        out.append(
            Violation(
                ARRIVALS, None, 1,
                f"{events.arrivals[0]} arrival(s) at hour 1 can never land "
                "(arrivals land on an edge from the previous hour)",
            )
        )
    for t in range(2, grid.horizon + 1):
        want = events.arrivals[t - 1]
        edges = sum(
            1 for row in grid.states if row[t - 2] is _O and row[t - 1] is _E
        )
        if edges != want:
            out.append(
                Violation(
                    ARRIVALS, None, t,
                    f"hour {t}: {edges} arrival(s) land, profile says {want}",
                )
            )
    return out


def check_charge_duration(
    grid: ScheduleGrid,
    config: StationConfig,
    initial: InitialConditions,
    mode: str = "lenient",
) -> list[Violation]:
    """Completed charge runs must cover the configured duration.

    A run starting at hour 1 on a battery that entered the horizon already
    charging gets its declared prior progress credited.  Lenient mode
    accepts longer runs (lingering); strict mode demands exact length.
    Runs still open at the end of the horizon are exempt.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    out = []
    T = grid.horizon
    for b, row in enumerate(grid.states, start=1):
        t = 1
        while t <= T:
            if row[t - 1] is not _C:
                t += 1
                continue
            start = t
            while t <= T and row[t - 1] is _C:
                t += 1
            end = t - 1  # last charging hour of this run
            if end == T:
                continue  # truncated by the horizon: exempt
            if row[end] is not _F:
                continue  # not a completed charge; the transition check owns this
            effective = end - start + 1
            entry = initial.for_battery(b)
            if start == 1 and entry.state is _C:
                effective += entry.progress
            if effective < config.charge_hours or (
                mode == "strict" and effective != config.charge_hours
            ):
                out.append(
                    Violation(
                        CHARGE_DURATION, b, start,
                        f"battery B{b}: charge run hours {start}-{end} has effective "
                        f"length {effective}, required {config.charge_hours}"
                        + (" exactly" if mode == "strict" else " at least"),
                    )
                )
    return out


def check_initial(grid: ScheduleGrid, initial: InitialConditions) -> list[Violation]:
    """Hour-1 states must match the declared start states.

    A battery that enters the horizon empty may already be charging at
    hour 1 (it can be moved onto a free charger within the first hour), so
    E admits {E, C}; the other declarations must match exactly.
    """
    out = []
    for b, entry in enumerate(initial.entries, start=1):
        actual = grid.state(b, 1)
        if entry.state is _E:
            ok = actual in (_E, _C)
        else:
            ok = actual is entry.state
        if not ok:
            out.append(
                Violation(
                    INITIAL_CONDITIONS, b, 1,
                    f"battery B{b}: declared start {entry.state.letter}, "
                    f"hour 1 shows {actual.letter}",
                )
            )
    return out


def validate(grid: ScheduleGrid, instance: Instance, mode: str = "lenient") -> ValidationReport:
    """Run every check against the grid and aggregate a report.

    Raises DimensionError when grid and instance disagree on shape; shape
    mismatches are input errors, not violations.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    cfg = instance.config
    if grid.n_batteries != cfg.n_batteries or grid.horizon != cfg.horizon:
        raise DimensionError(
            f"grid is {grid.n_batteries}x{grid.horizon}, "
            f"instance is {cfg.n_batteries}x{cfg.horizon}"
        )
    violations: list[Violation] = []
    violations += check_transitions(grid)
    violations += check_charger_capacity(grid, cfg)
    violations += check_demand_coverage(grid, instance.events)
    violations += check_arrivals(grid, instance.events)
    violations += check_charge_duration(grid, cfg, instance.initial, mode)
    violations += check_initial(grid, instance.initial)
    hourly = {
        "E": tuple(grid.count(_E, t) for t in range(1, grid.horizon + 1)),
        "C": tuple(grid.count(_C, t) for t in range(1, grid.horizon + 1)),
        "F": tuple(grid.count(_F, t) for t in range(1, grid.horizon + 1)),
        "O": tuple(grid.count(_O, t) for t in range(1, grid.horizon + 1)),
    }
    hourly["chargers"] = hourly["C"]  # lingering counts; F never occupies a charger
    return ValidationReport(
        feasible=not violations,
        violations=tuple(violations),
        hourly=hourly,
    )
