"""Core domain model for battery-swap-station schedules.

A station holds a fixed fleet of batteries over an hourly horizon.  Every
battery is in exactly one of four states each hour:

* ``E`` - empty, in the station, waiting for a charger
* ``C`` - on a charger
* ``F`` - fully charged, in the station
* ``O`` - out of the station (inside a vehicle)

Batteries move through the cycle E -> C -> F -> O -> E; within an hour a
battery may also stay where it is.  Swaps and arrivals are edge events: a
swap at hour t means the battery was F at t-1 and O at t, an arrival at
hour t means O at t-1 and E at t.  Nothing can land at hour 1.

A schedule grid holds these letters as they appear in the text format: one
string per battery, one letter per hour.  ``BatteryState`` names a state
where one is passed on its own (start states, ``ScheduleGrid.state``).
Every reader of a grid finds its runs of one letter, and the moves between
them, through one scanner (``_runs``, ``_scan``).

An ``Instance`` joins a station, its start states and its hourly events.
Its charge work reduces to counts by hour (``_hour_tables``): the batteries
full without any movable charge, the chargers the continuations leave free
and the start windows opened and closed.  The FIFO rule of the greedy solver
turns them into start counts by hour (``_fifo_counts``).  Greedy, the exact
solver's bounds and the scenario generator's repairs all read these tables.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from decimal import Decimal, InvalidOperation
from enum import Enum
from fractions import Fraction

from .errors import DimensionError, GridParseError, InstanceError, _int_text

__all__ = [
    "BatteryState",
    "to_exact",
    "format_exact",
    "StationConfig",
    "BatteryStart",
    "InitialConditions",
    "ScheduleGrid",
    "EventProfiles",
    "Instance",
    "DEFAULT_ORACLE_BUDGET",
    "render_grid",
    "parse_grid",
]


class BatteryState(Enum):
    """One battery-hour state; the enum value is the grid letter."""

    EMPTY = "E"
    CHARGING = "C"
    FULL = "F"
    OUT = "O"

    @property
    def letter(self) -> str:
        return self.value

    def __repr__(self) -> str:  # terse: grids print as letters everywhere
        return self.value


_E = BatteryState.EMPTY
_C = BatteryState.CHARGING
_F = BatteryState.FULL


# ---------------------------------------------------------------------------
# Exact numbers
#
# Prices and charge power enter cost products, and solver/oracle results are
# compared for exact equality, so both are kept as rationals end to end.
# Decimal text round-trips losslessly; non-decimal rationals (e.g. a default
# charge power of 100/6 kW) serialize as "n/d".
# ---------------------------------------------------------------------------


# Decimal exponents beyond this are refused: the conversion to a Fraction
# builds 10 ** exponent in full, and a price of 1e-9999999 would take minutes.
MAX_EXPONENT = 1000
# Numbers of more than this many digits before the decimal point are refused
# too, and so are "n/d" ratios whose denominator in lowest terms exceeds
# 10 ** MAX_EXPONENT, the largest a decimal's can be: Python turns no integer
# of more than 4,300 digits into text, and every accepted value must print.
# Within both bounds ``format_exact`` writes at most MAX_DIGITS digits before
# the point and MAX_EXPONENT after it, and a value that would need more
# places as "n/d", so every accepted value reads back.
MAX_DIGITS = 2000
_MAX_VALUE = 10**MAX_DIGITS
_MAX_DENOMINATOR = 10**MAX_EXPONENT
# The number is left out of the message: it may be too long to print.
_TOO_MANY_DIGITS = f"a number has more than {MAX_DIGITS} digits before its decimal point"


def to_exact(value: object, error: Callable[[str], Exception] = ValueError) -> Fraction:
    """Convert int/str/Decimal/Fraction/float input to an exact Fraction.

    Strings accept plain integers, decimal notation, and "n/d" ratios.
    Floats are interpreted through their shortest decimal representation
    ("0.1" means one tenth, not the binary expansion).  Infinities, NaNs,
    decimal exponents beyond +-MAX_EXPONENT, more than MAX_DIGITS digits
    before the decimal point and "n/d" denominators above
    10 ** MAX_EXPONENT raise ``error(message)``: a ValueError unless the
    caller names its own, as each value's constructor names InstanceError.
    A Fraction is returned as it is.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise error(f"not a number: {value!r}")
    if isinstance(value, int):
        if abs(value) >= _MAX_VALUE:
            raise error(_TOO_MANY_DIGITS)
        return Fraction(value)
    if isinstance(value, Decimal):
        decimal = value
    elif isinstance(value, float):
        decimal = Decimal(str(value))
    elif isinstance(value, str):
        text = value.strip()
        try:
            decimal = Decimal(text)
        except InvalidOperation:
            try:
                exact = Fraction(text)  # "n/d", the one spelling Decimal lacks
            except (ValueError, ZeroDivisionError):
                raise error(f"not an exact number: {_shown(value)}") from None
            if exact.denominator > _MAX_DENOMINATOR:
                raise error(f"a denominator lies beyond 10**{MAX_EXPONENT}")
            if abs(exact) >= _MAX_VALUE:
                raise error(_TOO_MANY_DIGITS)
            return exact
    else:
        raise error(f"not an exact number: {_shown(value)}")
    if not decimal.is_finite():
        raise error(f"not a finite number: {_shown(value)}")
    _, digits, exponent = decimal.as_tuple()
    if abs(exponent) > MAX_EXPONENT:
        raise error(f"the exponent of {_shown(value)} lies beyond +-{MAX_EXPONENT}")
    if len(digits) + exponent > MAX_DIGITS:
        raise error(_TOO_MANY_DIGITS)
    return Fraction(decimal)


def _shown(value: object) -> str:
    """A refused input's repr (an int's ``_int_text``, its type where that fails), cut when long."""
    try:
        text = _int_text(value) if type(value) is int else repr(value)
    except Exception:  # a container of too long an int, or a repr that raises
        text = f"a value of type {type(value).__name__}"
    return text if len(text) <= 40 else text[:40] + "..."


def is_int(value: object) -> bool:
    """True for an int that is not a bool (JSON true/false must not pass as 1/0)."""
    return isinstance(value, int) and not isinstance(value, bool)


def format_exact(value: Fraction) -> str:
    """Render a Fraction as minimal exact text.

    A value prints as a decimal when it has one of at most MAX_EXPONENT
    places, the most ``to_exact`` reads, and as "n/d" otherwise.  A
    denominator of 2**a * 5**b gives max(a, b) places.
    """
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    d = value.denominator
    twos = (d & -d).bit_length() - 1
    d >>= twos
    fives = 0
    while d % 5 == 0 and fives <= MAX_EXPONENT:
        d //= 5
        fives += 1
    scale = max(twos, fives)
    if d != 1 or scale > MAX_EXPONENT:
        return f"{value.numerator}/{value.denominator}"
    scaled = abs(value.numerator) * 10**scale // value.denominator
    sign = "-" if value < 0 else ""
    whole, frac = divmod(scaled, 10**scale)
    return f"{sign}{whole}.{frac:0{scale}d}"


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------


class _Value:
    """Base of the package's immutable value types.

    Each subclass names its fields, in order, in ``__slots__``, and its
    ``__init__`` checks its arguments and passes the fields, in that order,
    to ``_Value.__init__``, which stores them, and any value worked out from
    them by keyword, into a slot of a base class.  Values are equal when they
    are of the same class with equal fields, hash as their field tuple and
    print as ``Name(field=value, ...)``.  Setting or deleting an attribute
    raises AttributeError.  Copy and pickle rebuild a value by calling its
    class with its fields.
    """

    __slots__ = ()

    def __init__(self, *fields, **derived):
        names = self.__slots__
        if len(fields) != len(names):
            # A TypeError, not a ValueError: this is a bug, not bad input.
            raise TypeError(f"{self.__class__.__qualname__} has {len(names)} fields, got {len(fields)}")
        for name, value in [*zip(names, fields), *derived.items()]:
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


# ---------------------------------------------------------------------------
# Configuration and initial conditions
# ---------------------------------------------------------------------------

# The most battery-hours (n_batteries x horizon) a station may span, and the
# most events of a kind a shape may draw or a profile hold: every layer holds
# one cell per battery-hour, and no station within the cap realises more.
MAX_CELLS = 1_000_000


class _Powered(_Value):
    __slots__ = ("power_kw",)  # worked out from the fields, so not one of them


class StationConfig(_Powered):
    """Static description of one station.

    ``charge_power_kw`` may be omitted; the effective charging power
    ``power_kw`` per occupied charger is then ``capacity_kwh / charge_hours``
    (a full charge spread evenly over the fixed charge duration).  It is
    worked out once, when the config is built.
    """

    __slots__ = (
        "n_batteries", "n_chargers", "charge_hours", "capacity_kwh", "horizon", "charge_power_kw"
    )

    def __init__(
        self,
        n_batteries: int,
        n_chargers: int,
        charge_hours: int,
        capacity_kwh: Fraction,
        horizon: int,
        charge_power_kw: Fraction | None = None,
    ):
        capacity_kwh = to_exact(capacity_kwh, InstanceError)
        if charge_power_kw is not None:
            charge_power_kw = to_exact(charge_power_kw, InstanceError)
        for name, v in (("n_batteries", n_batteries), ("n_chargers", n_chargers),
                        ("charge_hours", charge_hours), ("horizon", horizon)):
            if not is_int(v) or v < 1:
                raise InstanceError(f"{name} must be a positive integer, got {_shown(v)}")
        if capacity_kwh <= 0:
            raise InstanceError("capacity_kwh must be positive")
        if charge_power_kw is not None and charge_power_kw <= 0:
            raise InstanceError("charge_power_kw must be positive when given")
        if n_batteries * horizon > MAX_CELLS:
            raise InstanceError(
                f"{_int_text(n_batteries)} batteries over {_int_text(horizon)} hours make "
                f"{_int_text(n_batteries * horizon)} battery-hours, more than {MAX_CELLS}"
            )
        power = capacity_kwh / charge_hours if charge_power_kw is None else charge_power_kw
        super().__init__(
            n_batteries, n_chargers, charge_hours, capacity_kwh, horizon, charge_power_kw, power_kw=power
        )

    def to_json_dict(self) -> dict:
        data = {
            "n_batteries": self.n_batteries,
            "n_chargers": self.n_chargers,
            "charge_hours": self.charge_hours,
            "capacity_kwh": _json_number(self.capacity_kwh),
            "horizon": self.horizon,
        }
        if self.charge_power_kw is not None:
            data["charge_power_kw"] = _json_number(self.charge_power_kw)
        return data

    @classmethod
    def from_json_dict(cls, data: object) -> "StationConfig":
        """The config a JSON object describes: its keys are the fields, and
        ``charge_power_kw`` may be left out.  The constructor converts the numbers."""
        return cls(**_json_object(data, "config", cls.__slots__[:-1], cls.__slots__[-1:]))


def _json_number(value: Fraction):
    """Ints stay JSON numbers; anything else becomes exact text."""
    if value.denominator == 1:
        return value.numerator
    return format_exact(value)


def _json_text(data: object) -> str:
    """The package's one JSON text format: two-space indents, sorted keys, a final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _json_object(data: object, what: str, required: Sequence[str], optional: Iterable[str] = ()) -> dict:
    """``data`` when it is a JSON object that holds every ``required`` key and
    no key beyond the ``optional`` ones; InstanceError otherwise.

    This is the one check of a JSON object that a file holds.  Each reader
    passes the fields of the value it builds, so an object's keys are that
    value's fields.  Refused keys are shown sorted, each cut like ``_shown``,
    and past five only as a count of the rest.
    """
    if not isinstance(data, dict):
        raise InstanceError(f"{what} must be a JSON object, got {_shown(data)}")
    allowed = {*required, *optional}
    if not data.keys() <= allowed:
        unknown = sorted(data.keys() - allowed)
        more = f" … and {len(unknown) - 5} more" if len(unknown) > 5 else ""
        raise InstanceError(f"unknown {what} keys: [{', '.join(map(_shown, unknown[:5]))}]{more}")
    if not data.keys() >= set(required):
        raise InstanceError(f"missing {what} keys: {sorted(set(required) - data.keys())}")
    return data


class BatteryStart(_Value):
    """State of one battery at the start boundary of hour 1.

    ``state`` is a ``BatteryState`` or its letter.  ``progress`` counts
    completed charging hours for a battery that enters the horizon on a
    charger.  ``full_rank`` orders batteries that enter fully charged: lower
    rank means it has waited longer and is swapped out first.
    """

    __slots__ = ("state", "progress", "full_rank")

    def __init__(self, state: BatteryState, progress: int = 0, full_rank: int | None = None):
        if not isinstance(state, BatteryState):
            try:
                state = BatteryState(state)
            except ValueError:
                raise InstanceError(f"unknown state {_shown(state)}") from None
        if not is_int(progress) or progress < 0:
            raise InstanceError(f"progress must be a non-negative integer, got {_shown(progress)}")
        if full_rank is not None and not is_int(full_rank):
            raise InstanceError(f"full_rank must be an integer, got {_shown(full_rank)}")
        if progress and state is not BatteryState.CHARGING:
            raise InstanceError("progress only applies to batteries that start charging")
        if full_rank is not None and state is not BatteryState.FULL:
            raise InstanceError("full_rank only applies to batteries that start full")
        if state is BatteryState.FULL and full_rank is None:
            raise InstanceError("batteries that start full need a full_rank")
        super().__init__(state, progress, full_rank)


class InitialConditions(_Value):
    """Per-battery start states, indexed by battery number (1-based)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[BatteryStart, ...]):
        entries = tuple(entries)
        for entry in entries:
            if not isinstance(entry, BatteryStart):
                raise InstanceError(f"an initial entry must be a BatteryStart, got {_shown(entry)}")
        ranks = [e.full_rank for e in entries if e.state is BatteryState.FULL]
        if len(ranks) != len(set(ranks)):
            raise InstanceError("full_rank values must be distinct")
        super().__init__(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def for_battery(self, battery: int) -> BatteryStart:
        return self.entries[battery - 1]

    def count(self, state: BatteryState) -> int:
        return sum(1 for e in self.entries if e.state is state)


# ---------------------------------------------------------------------------
# Schedule grid
# ---------------------------------------------------------------------------


class ScheduleGrid(_Value):
    """Immutable battery-by-hour state matrix: one string of state letters per battery.

    ``rows[b - 1][t - 1]`` is the letter of battery ``b`` at hour ``t``, and
    the accessors take those 1-based indices.  The constructor checks shape
    and letters only, and so do ``with_cell`` and unpickling, which go
    through it; ``_trusted`` stores rows unchecked, for the grids the
    realisation writes from E, C, F and O itself and the rows ``parse_grid``
    has checked line by line.  Adjacency legality is a *validation* concern:
    grids carrying illegal transitions must be representable so the
    validator can report them.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[str, ...]):
        if isinstance(rows, str):
            raise DimensionError("a grid takes one string of state letters per battery")
        rows = tuple(rows)
        if not rows:
            raise DimensionError("a grid needs at least one battery row")
        for i, row in enumerate(rows, start=1):
            if not isinstance(row, str):
                raise DimensionError(f"battery B{i}: {_shown(row)} is not a string of state letters")
            if len(row) != len(rows[0]):
                raise DimensionError(f"battery B{i} has {len(row)} cells, expected {len(rows[0])}")
            if row.strip("ECFO"):
                raise DimensionError(f"battery B{i}: {_shown(row)} holds a letter other than E, C, F, O")
        if not rows[0]:
            raise DimensionError("a grid needs at least one hour column")
        super().__init__(rows)

    @classmethod
    def _trusted(cls, rows: tuple[str, ...]) -> "ScheduleGrid":
        _Value.__init__(grid := object.__new__(cls), rows)
        return grid

    @property
    def n_batteries(self) -> int:
        return len(self.rows)

    @property
    def horizon(self) -> int:
        return len(self.rows[0])

    def _check(self, battery: int, hour: int) -> None:
        if not 1 <= battery <= self.n_batteries:
            raise DimensionError(f"battery B{battery} lies outside B1..B{self.n_batteries}")
        if not 1 <= hour <= self.horizon:
            raise DimensionError(f"hour {hour} lies outside hours 1..{self.horizon}")

    def state(self, battery: int, hour: int) -> BatteryState:
        """State of ``battery`` (1-based) at ``hour`` (1-based)."""
        self._check(battery, hour)
        return BatteryState(self.rows[battery - 1][hour - 1])

    def count(self, state: BatteryState, hour: int) -> int:
        """Number of batteries in ``state`` at ``hour`` (1-based)."""
        self._check(1, hour)
        return sum(row[hour - 1] == state.letter for row in self.rows)

    def with_cell(self, battery: int, hour: int, state: BatteryState | str) -> "ScheduleGrid":
        """Copy of the grid with one cell replaced (useful for what-if checks)."""
        self._check(battery, hour)
        rows = list(self.rows)
        row = rows[battery - 1]
        rows[battery - 1] = row[: hour - 1] + BatteryState(state).letter + row[hour:]
        return ScheduleGrid(tuple(rows))


# ---------------------------------------------------------------------------
# Event profiles
# ---------------------------------------------------------------------------


class EventProfiles(_Value):
    """Hourly demand (requested swaps), arrivals (returning batteries), prices."""

    __slots__ = ("demand", "arrivals", "price")

    def __init__(self, demand: tuple[int, ...], arrivals: tuple[int, ...], price: tuple[Fraction, ...]):
        demand = tuple(demand)
        arrivals = tuple(arrivals)
        price = tuple(to_exact(p, InstanceError) for p in price)
        if not (len(demand) == len(arrivals) == len(price)) or not demand:
            raise DimensionError("demand, arrivals and price must share one horizon length")
        for name, seq in (("demand", demand), ("arrivals", arrivals)):
            for h, v in enumerate(seq, start=1):
                if not is_int(v) or v < 0:
                    raise InstanceError(f"{name} at hour {h} must be a non-negative integer")
            if sum(seq) > MAX_CELLS:
                raise InstanceError(f"{name} must total at most {MAX_CELLS}, got {_int_text(sum(seq))}")
        for h, p in enumerate(price, start=1):
            if p < 0:
                raise InstanceError(f"price at hour {h} must be non-negative")
        super().__init__(demand, arrivals, price)

    @property
    def horizon(self) -> int:
        return len(self.demand)


# Per letter, the table that turns every other letter into the row separator,
# and the one letter that may follow a run of it: the next round the cycle.
# Staying put is legal too, and only lengthens the run.
_APART = {letter: str.maketrans({other: "." for other in "ECFO" if other != letter}) for letter in "ECFO"}
_NEXT = dict(zip("ECFO", "CFOE"))


def _runs(grid: ScheduleGrid, letter: str) -> Iterator[tuple[int, int, int]]:
    """Each maximal run of ``letter`` as ``(battery, first, stop)``, battery then
    hour: row ``battery`` holds it in cells ``first`` to ``stop - 1``, all from 0.

    Every other letter turns into the separator that joins the rows, so a
    run ends at the next separator and never spans two rows.
    """
    T = grid.horizon
    text = ".".join(grid.rows).translate(_APART[letter]) + "."
    i = text.find(letter)
    while i >= 0:
        j = text.find(".", i)
        b, first = divmod(i, T + 1)
        yield b, first, first + j - i
        i = text.find(letter, j)


def _scan(grid: ScheduleGrid) -> tuple[dict[str, tuple[int, ...]], list[int], list[int], list[tuple], list[tuple]]:
    """``(hourly, swaps, returns, illegal, charges)``: each letter's count by
    hour, the swaps (F->O) and returns (O->E) landing at each hour, both from
    hour 1, the illegal moves as ``(battery, hour, prev, cur)``, battery then
    hour, and the runs of ``C`` as ``_runs`` yields them.

    Each run (``_runs``) adds one battery to its hours through a difference
    array, and one that stops before the horizon ends in exactly one move.
    """
    T, rows = grid.horizon, grid.rows
    swaps, returns, illegal, hourly = [0] * T, [0] * T, [], {}
    landing = {"F": swaps, "O": returns}  # where F->O and O->E land
    for letter in "ECFO":
        following, lands = _NEXT[letter], landing.get(letter)
        change = [0] * (T + 1)  # +1 where a run begins, -1 just past its end
        runs = _runs(grid, letter)
        if letter == "C":
            runs = charges = list(runs)
        for b, first, stop in runs:
            change[first] += 1
            change[stop] -= 1
            if stop < T:
                after = rows[b][stop]
                if after != following:
                    illegal.append((b + 1, stop + 1, letter, after))
                elif lands is not None:
                    lands[stop] += 1
        hourly[letter] = tuple(itertools.accumulate(change[:T]))
    illegal.sort()
    return hourly, swaps, returns, illegal, charges


# ---------------------------------------------------------------------------
# Instances and the hour tables of their charge work
# ---------------------------------------------------------------------------

_MAX_SCALE = 10 ** (2 * MAX_EXPONENT)
_MAX_FLOAT = int(sys.float_info.max)

# Start vectors the brute-force oracle enumerates unless told otherwise.
DEFAULT_ORACLE_BUDGET = 200_000


class _Scaled(_Value):
    __slots__ = ("_price_levels",)  # _price_levels(events.price), worked out once: not a field


class Instance(_Scaled):
    """A complete scheduling problem: station, start states, event profiles."""

    __slots__ = ("config", "initial", "events")

    def __init__(self, config: StationConfig, initial: InitialConditions, events: EventProfiles):
        if len(initial) != config.n_batteries:
            raise InstanceError(
                f"{len(initial)} initial entries for {config.n_batteries} batteries"
            )
        if events.horizon != config.horizon:
            raise InstanceError(
                f"profiles cover {events.horizon} hours, horizon is {config.horizon}"
            )
        for b, entry in enumerate(initial.entries, start=1):
            if entry.state is _C and entry.progress >= config.charge_hours:
                raise InstanceError(
                    f"battery B{b}: progress {_int_text(entry.progress)} must be below "
                    f"charge_hours {_int_text(config.charge_hours)}"
                )
        # Every cost must print: schedule_cost sums in units of one over the
        # lcm of the prices' denominators times the power's, and cost.json
        # holds floats.  The energy is bounded as the cost at a price of 1.
        power = config.power_kw
        level, lcm = levels = _price_levels(events.price, power)
        top = max(lcm, *level)  # in 1/lcm
        if top * power.numerator * config.n_batteries * config.horizon > _MAX_FLOAT * lcm * power.denominator:
            raise InstanceError("the costs this station could report lie beyond the range of a float")
        super().__init__(config, initial, events, _price_levels=levels)


def _price_levels(prices: Sequence[Fraction], power: Fraction) -> tuple[tuple[int, ...], int]:
    """The prices in units of one over the lcm of their denominators, and that
    lcm, refused as soon as it times the ``power``'s denominator, the unit of
    every cost, passes ``_MAX_SCALE``: the lcm grows a denominator at a time."""
    lcm = 1
    for d in {p.denominator for p in prices}:
        lcm = math.lcm(lcm, d)
        if lcm * power.denominator > _MAX_SCALE:
            raise InstanceError("the lcm of the prices' denominators times the charge power's "
                                f"lies beyond 10**{2 * MAX_EXPONENT}")
    return tuple([p.numerator * (lcm // p.denominator) for p in prices]), lcm


def _window(release: int, duration: int, horizon: int) -> tuple[int, int]:
    """First and last start hour of a movable job: the last whose full block fits
    in the horizon, or the horizon itself when even the release is too late for
    that (the block is cut off).  First exceeds last when released past it."""
    last = horizon - duration + 1
    return release, (last if last >= release else horizon)


def _hour_tables(
    config: StationConfig, initial: InitialConditions, arrivals: Sequence[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """An instance's charge work as counts by hour 0 to T: ``(full, room, opened, closed)``.

    ``full[t]`` counts the batteries that start full or whose continuation
    is done by hour t, ``room[t]`` the chargers the continuations leave free
    at t (fewer than none while they outnumber them), and ``opened[t]`` and
    ``closed[t]`` the movable start windows (``_window``) opened and closed
    by t.  Batteries that start empty are released at hour 1 and every
    arrival unit the hour after it lands, so a window released past the
    horizon (an arrival in the final hour) never opens.
    """
    T, D = config.horizon, config.charge_hours
    empty = 0
    full = [0] * (T + 2)  # turning full at each hour; at T + 1, the charges the horizon cuts
    for entry in initial.entries:
        state = entry.state
        if state is _E:
            empty += 1
        elif state is _F:
            full[0] += 1
        elif state is _C:
            full[min(D - entry.progress, T) + 1] += 1
    opened = [0] * (T + 1)
    closed = [0] * (T + 1)
    for release, n in enumerate([empty, *arrivals], start=1):
        if n:
            first, last = _window(release, D, T)
            if first <= last:
                opened[first] += n
                closed[last] += n
    accumulate = itertools.accumulate
    *full, counted = accumulate(full)  # counted - full[t] continuations hold a charger at t
    free = config.n_chargers - counted
    return full, [free + n for n in full], list(accumulate(opened)), list(accumulate(closed))


def _fifo_counts(config: StationConfig, room: Sequence[int], opened: Sequence[int]) -> list[int]:
    """Greedy's start counts: ``Y[t]`` movable charges started by hour t
    (hours 0 to T), from the ``room`` and ``opened`` tables of ``_hour_tables``.

    This is the greedy rule: every depleted battery starts charging the
    first hour a charger is free, first in, first out.  Every movable block
    runs ``charge_hours`` (D), so the blocks started after hour t - D hold a
    charger at t, and by hour t as many have started as are released or as
    the chargers the continuations leave allow, whichever is fewer:
    ``Y[t] = min(opened[t], Y[max(t - D, 0)] + room[t])``.  Continuations
    that outnumber the chargers leave fewer than none; the count stays at 0
    there, and the realisation refuses hour 1.  Job k in FIFO order starts
    at the first hour whose count exceeds k, if any does.
    """
    T, D = config.horizon, config.charge_hours
    y = [0] * (T + 1)
    for t in range(1, T + 1):
        n = room[t] + (y[t - D] if t > D else 0)
        if opened[t] < n:
            n = opened[t]
        if n > 0:
            y[t] = n
    return y


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "Hours:"


def _header(horizon: int) -> str:
    return _HEADER_PREFIX + " " + " ".join(str(t) for t in range(1, horizon + 1))


def render_grid(grid: ScheduleGrid) -> str:
    """Render a grid as text: an hour header, then one ``B<i>: E C F ...`` line per battery."""
    lines = [_header(grid.horizon)]
    lines += [f"B{i}: " + " ".join(row) for i, row in enumerate(grid.rows, start=1)]
    return "\n".join(lines) + "\n"


def parse_grid(text: str, config: StationConfig) -> ScheduleGrid:
    """Parse ``render_grid`` text against a config; exact inverse of render.

    Lines end in ``"\n"`` only, the last one included.  Any deviation (wrong
    dimensions, unknown letters, illegal adjacency, malformed layout, a
    missing final newline) raises GridParseError carrying line and column.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # what follows the final newline
    if not lines:
        raise GridParseError(1, 1, "empty schedule text")
    header, expected = lines[0], _header(config.horizon)
    if header != expected:
        if not header.startswith(_HEADER_PREFIX):
            raise GridParseError(1, 1, f"expected header starting with {_HEADER_PREFIX!r}")
        try:
            hours = [int(tok) for tok in header[len(_HEADER_PREFIX):].split()]
        except ValueError:
            raise GridParseError(1, len(_HEADER_PREFIX) + 1, "header hours must be integers") from None
        if hours != list(range(1, config.horizon + 1)):
            raise GridParseError(
                1, len(_HEADER_PREFIX) + 1,
                f"header lists {len(hours)} hours, expected 1..{config.horizon}",
            )
        col = next((i for i, (a, b) in enumerate(zip(header, expected)) if a != b), len(expected))
        raise GridParseError(
            1, col + 1,
            f"header must give hours 1..{config.horizon} as plain numbers, one space before each",
        )
    body = lines[1:]
    if len(body) != config.n_batteries:
        line_no = min(len(body), config.n_batteries) + 2
        raise GridParseError(
            line_no, 1, f"{len(body)} battery lines, expected {config.n_batteries}"
        )
    gaps = " " * (config.horizon - 1)
    rows = []
    for i, line in enumerate(body, start=1):
        line_no = i + 1
        prefix = f"B{i}: "
        if not line.startswith(prefix):
            raise GridParseError(line_no, 1, f"expected line to start with {prefix!r}")
        letters = line[len(prefix):]
        row = letters[::2]  # a well-formed line alternates letter, space, letter
        if letters[1::2] == gaps and len(row) == config.horizon and not row.strip("ECFO"):
            rows.append(row)
            continue
        cells = letters.split(" ")
        if "" in cells:
            raise GridParseError(line_no, len(prefix) + 1, "cells must be single letters separated by single spaces")
        if len(cells) != config.horizon:
            col = len(prefix) + 2 * min(len(cells), config.horizon) + 1
            raise GridParseError(
                line_no, col, f"{len(cells)} cells, expected horizon {config.horizon}"
            )
        t = next(t for t, cell in enumerate(cells, start=1) if len(cell) != 1 or cell.strip("ECFO"))
        col = len(prefix) + 2 * (t - 1) + 1
        raise GridParseError(line_no, col, f"unknown state letter {_shown(cells[t - 1])} at hour {t}")
    # Each row passed the checks above: config.horizon >= 1 letters of E, C,
    # F and O, and config.n_batteries >= 1 of them, all the constructor checks.
    grid = ScheduleGrid._trusted(tuple(rows))
    illegal = _scan(grid)[3]
    if illegal:
        b, hour, prev, cur = illegal[0]
        raise GridParseError(
            b + 1, len(f"B{b}: ") + 2 * (hour - 1) + 1,
            f"illegal transition {prev}->{cur} for battery B{b} at hour {hour}",
        )
    if not text.endswith("\n"):
        raise GridParseError(len(lines), len(lines[-1]) + 1, "missing final newline")
    return grid
