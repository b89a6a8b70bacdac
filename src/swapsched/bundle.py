"""Instance bundles on disk.

An instance lives on disk as a bundle directory:

* ``config.json``   - station parameters
* ``profiles.csv``  - ``hour,demand,arrivals,price`` rows, one per hour
* ``initial.json``  - per-battery start states
* ``schedule.txt``  - optional rendered schedule grid
"""

from __future__ import annotations

import csv
import json
from decimal import Decimal
from pathlib import Path

from .errors import InstanceError, ProfileError
from .model import (
    BatteryStart,
    BatteryState,
    EventProfiles,
    InitialConditions,
    Instance,
    ScheduleGrid,
    StationConfig,
    _json_object,
    _json_text,
    _shown,
    format_exact,
    is_int,
    render_grid,
    to_exact,
)

__all__ = [
    "save_profiles",
    "load_profiles",
    "save_instance",
    "load_instance",
]

_C = BatteryState.CHARGING
_F = BatteryState.FULL


# ---------------------------------------------------------------------------
# Profiles CSV
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ["hour", "demand", "arrivals", "price"]


def save_profiles(path: str | Path, events: EventProfiles) -> None:
    Path(path).write_text(_profiles_text(events), encoding="utf-8", newline="")


def _profiles_text(events: EventProfiles) -> str:
    # No field needs CSV quoting: they are integers and format_exact's text.
    texts = {p: format_exact(p) for p in set(events.price)}  # a tariff repeats few prices
    rows = zip(events.demand, events.arrivals, map(texts.__getitem__, events.price))
    lines = [",".join(_CSV_COLUMNS)] + [f"{t},{d},{a},{p}" for t, (d, a, p) in enumerate(rows, 1)]
    return "\n".join(lines) + "\n"


def _csv_int(text: str, what: str, hour: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ProfileError(f"{what} {_shown(text)} is not an integer", hour=hour) from None


def load_profiles(path: str | Path) -> EventProfiles:
    """Read a ``hour,demand,arrivals,price`` table; hours must run 1..T with no gaps."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
    except FileNotFoundError:
        raise ProfileError(f"no such profiles file: {path}") from None
    except UnicodeDecodeError as exc:
        raise ProfileError(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # a field past the csv module's size limit, say
        raise ProfileError(f"profiles file is not valid CSV: {exc}") from None
    if not rows:
        raise ProfileError("profiles file is empty")
    if rows[0] != _CSV_COLUMNS:
        raise ProfileError(
            f"header must be {','.join(_CSV_COLUMNS)!r}, got {_shown(','.join(rows[0]))}"
        )
    demand, arrivals, price = [], [], []
    read = {}  # each distinct price cell, converted once
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 4:
            raise ProfileError(f"row {i + 1} has {len(row)} fields, expected 4", hour=i)
        hour = _csv_int(row[0], "hour", i)
        if hour != i:
            raise ProfileError(f"hours must be contiguous from 1; row {i + 1} says {hour}", hour=i)
        d = _csv_int(row[1], "demand", hour)
        a = _csv_int(row[2], "arrivals", hour)
        if d < 0 or a < 0:
            raise ProfileError("demand and arrivals must be >= 0", hour=hour)
        p = read.get(row[3])
        if p is None:
            p = to_exact(row[3], lambda message: ProfileError(message, hour=hour))
            if p < 0:
                raise ProfileError("price must be >= 0", hour=hour)
            read[row[3]] = p
        demand.append(d)
        arrivals.append(a)
        price.append(p)
    if not demand:
        raise ProfileError("profiles file has no hour rows")
    return EventProfiles(tuple(demand), tuple(arrivals), tuple(price))


# ---------------------------------------------------------------------------
# Instance bundles
# ---------------------------------------------------------------------------


def _initial_to_json(initial: InitialConditions) -> list[dict]:
    out = []
    for b, e in enumerate(initial.entries, start=1):
        entry: dict = {"battery": b, "state": e.state.letter}
        if e.state is _C:
            entry["progress"] = e.progress
        if e.state is _F:
            entry["full_rank"] = e.full_rank
        out.append(entry)
    return out


def _initial_from_json(data: object) -> InitialConditions:
    """The start states a list of entries describes.  An entry's keys are
    ``battery`` and the fields of ``BatteryStart``, which checks their values,
    and the entries number the batteries 1..n, each once."""
    if not isinstance(data, list):
        raise InstanceError("initial conditions must be a list of battery entries")
    state, *optional = BatteryStart.__slots__
    by_battery: dict[int, BatteryStart] = {}
    for item in data:
        fields = dict(_json_object(item, "initial entry", ("battery", state), optional))
        b = fields.pop("battery")
        if not is_int(b) or b < 1:
            raise InstanceError(f"battery number {_shown(b)} must be a positive integer")
        if b in by_battery:
            raise InstanceError(f"battery B{b} listed twice in initial conditions")
        by_battery[b] = BatteryStart(**fields)
    expected = set(range(1, len(by_battery) + 1))
    if set(by_battery) != expected:
        raise InstanceError(
            f"initial conditions must cover batteries 1..{len(by_battery)} exactly"
        )
    return InitialConditions(tuple(by_battery[b] for b in sorted(by_battery)))


def _read_text(path: Path, what: str) -> str:
    """The text of a bundle or spec file, which must exist and be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InstanceError(f"missing {what}: {path}") from None
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path} is not UTF-8 text: {exc}") from None


def _read_json(path: Path, what: str) -> object:
    try:
        return json.loads(_read_text(path, what), parse_float=Decimal)
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an integer or too deep a nesting
        raise InstanceError(f"{what} is not valid JSON: {exc}") from None


def save_instance(
    directory: str | Path, instance: Instance, schedule: ScheduleGrid | None = None
) -> None:
    """Write an instance bundle (config.json, profiles.csv, initial.json[, schedule.txt])."""
    texts = {
        "config.json": _json_text(instance.config.to_json_dict()),
        "profiles.csv": _profiles_text(instance.events),
        "initial.json": _json_text(_initial_to_json(instance.initial)),
    }
    if schedule is not None:
        texts["schedule.txt"] = render_grid(schedule)
    _write_texts(directory, texts)


def _write_texts(directory: str | Path, texts: dict[str, str]) -> None:
    """Write each ``name: text`` file into ``directory``, made if missing, with
    ``\n`` line ends.  Callers render every text before they call, so input
    that cannot be written leaves no partial output behind."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (d / name).write_text(text, encoding="utf-8", newline="")


def load_instance(directory: str | Path) -> Instance:
    """Read an instance bundle written by :func:`save_instance`."""
    d = Path(directory)
    config = StationConfig.from_json_dict(_read_json(d / "config.json", "config"))
    events = load_profiles(d / "profiles.csv")
    initial = _initial_from_json(_read_json(d / "initial.json", "initial conditions"))
    return Instance(config=config, initial=initial, events=events)
