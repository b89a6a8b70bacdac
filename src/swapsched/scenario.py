"""Scenario generation.

Random scenarios are drawn from a :class:`ScenarioSpec` (station config,
demand shape, arrival shape, tariff, seed).  Generation is deterministic:
the same spec always yields byte-identical bundles.  Randomly drawn demand
and arrivals are repaired so the instance stays solvable — demand never
outruns the charge pipeline, arrivals never outnumber the batteries that are
out, and every arrival can still run a full charge block.  Explicit
(hand-written) profiles and explicit initial conditions are echoed verbatim,
repairs and all bets off.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

from .bundle import _initial_from_json, _read_json
from .errors import DimensionError, InstanceError, TransitionError, _int_text
from .model import (
    MAX_CELLS,
    BatteryStart,
    BatteryState,
    EventProfiles,
    InitialConditions,
    Instance,
    ScheduleGrid,
    StationConfig,
    _fifo_counts,
    _hour_tables,
    _json_object,
    _scan,
    _shown,
    is_int,
    to_exact,
    _Value,
)

__all__ = [
    "UniformShape",
    "PeakedShape",
    "ExplicitShape",
    "FlatTariff",
    "TouTariff",
    "ExplicitTariff",
    "ScenarioSpec",
    "generate",
    "load_spec",
    "extract_events",
    "demo_instance",
]

_E = BatteryState.EMPTY
_C = BatteryState.CHARGING
_F = BatteryState.FULL
_O = BatteryState.OUT


# ---------------------------------------------------------------------------
# Event shapes
# ---------------------------------------------------------------------------


def _check_total(total: object) -> None:
    if not is_int(total) or total < 0:
        raise InstanceError(f"shape total must be an integer >= 0, got {_shown(total)}")
    if total > MAX_CELLS:
        raise InstanceError(f"shape total must be at most {MAX_CELLS}, got {_int_text(total)}")


def _listed(value: object, what: str) -> tuple:
    """``value`` as a tuple when it is a list or a tuple; InstanceError otherwise."""
    if not isinstance(value, (list, tuple)):
        raise InstanceError(f"{what} must be a list, got {_shown(value)}")
    return tuple(value)


class UniformShape(_Value):
    """``total`` event units spread uniformly at random over the usable hours."""

    __slots__ = ("total",)

    def __init__(self, total: int):
        _check_total(total)
        super().__init__(total)

    def draw(self, rng: random.Random, lo: int, hi: int) -> list[int]:
        return [rng.randint(lo, hi) for _ in range(self.total)]


class PeakedShape(_Value):
    """``total`` units drawn from a triangular bump around ``peak_hour``."""

    __slots__ = ("total", "peak_hour", "width")

    def __init__(self, total: int, peak_hour: int, width: int):
        _check_total(total)
        if not is_int(peak_hour):
            raise InstanceError(f"shape peak_hour must be an integer, got {_shown(peak_hour)}")
        if not is_int(width) or width < 1:
            raise InstanceError(f"shape width must be an integer >= 1, got {_shown(width)}")
        try:  # a draw takes both ends of the bump and its span as floats
            if total:
                float(peak_hour - width), float(peak_hour + width), float(2 * width)
        except OverflowError:
            raise InstanceError(
                f"shape peak_hour {_shown(peak_hour)} and width {_shown(width)} reach beyond the range of a float"
            ) from None
        super().__init__(total, peak_hour, width)

    def draw(self, rng: random.Random, lo: int, hi: int) -> list[int]:
        hours = []
        for _ in range(self.total):
            h = round(rng.triangular(self.peak_hour - self.width, self.peak_hour + self.width, self.peak_hour))
            hours.append(min(max(h, lo), hi))
        return hours


class ExplicitShape(_Value):
    """A hand-written per-hour count list, used verbatim (no repairs).

    ``values`` is a list or a tuple of integers >= 0, one for each hour.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        values = _listed(values, "explicit shape values")
        for v in values:
            if not is_int(v) or v < 0:
                raise InstanceError(f"explicit shape values must be integers >= 0, got {_shown(v)}")
        super().__init__(values)


Shape = UniformShape | PeakedShape | ExplicitShape


# ---------------------------------------------------------------------------
# Tariffs
# ---------------------------------------------------------------------------


class FlatTariff(_Value):
    """One price for every hour."""

    __slots__ = ("price",)

    def __init__(self, price: Fraction):
        super().__init__(to_exact(price))

    def render(self, horizon: int) -> tuple[Fraction, ...]:
        return (self.price,) * horizon


class TouTariff(_Value):
    """Time-of-use: ``peak`` inside the given inclusive hour ranges, ``off_peak`` elsewhere."""

    __slots__ = ("off_peak", "peak", "peak_hours")

    def __init__(self, off_peak: Fraction, peak: Fraction, peak_hours: tuple[tuple[int, int], ...]):
        off_peak = to_exact(off_peak)
        peak = to_exact(peak)
        ranges = tuple(_listed(r, "a peak range") for r in _listed(peak_hours, "peak_hours"))
        for r in ranges:
            if len(r) != 2 or not all(is_int(h) for h in r):
                raise InstanceError(f"a peak range must be two integer hours, got {_shown(list(r))}")
            a, b = r
            if a < 1 or b < a:
                raise InstanceError(f"bad peak range {a}..{b}")
        super().__init__(off_peak, peak, ranges)

    def render(self, horizon: int) -> tuple[Fraction, ...]:
        change = [0] * (horizon + 2)  # +1 where a range begins, -1 just past its end
        for a, b in self.peak_hours:
            if a <= horizon:
                change[a] += 1
                change[min(b, horizon) + 1] -= 1
        ranges = itertools.accumulate(change[1 : horizon + 1])
        return tuple(self.peak if n else self.off_peak for n in ranges)


class ExplicitTariff(_Value):
    """A hand-written per-hour price list."""

    __slots__ = ("prices",)

    def __init__(self, prices: tuple[Fraction, ...]):
        super().__init__(tuple(to_exact(p) for p in _listed(prices, "tariff prices")))

    def render(self, horizon: int) -> tuple[Fraction, ...]:
        if len(self.prices) != horizon:
            raise DimensionError(
                f"tariff lists {len(self.prices)} prices, horizon is {horizon}"
            )
        return self.prices


Tariff = FlatTariff | TouTariff | ExplicitTariff


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------


class ScenarioSpec(_Value):
    """Everything needed to draw one instance deterministically."""

    __slots__ = ("config", "demand", "arrivals", "tariff", "seed", "initial")

    def __init__(
        self,
        config: StationConfig,
        demand: Shape,
        arrivals: Shape,
        tariff: Tariff,
        seed: int,
        initial: InitialConditions | None = None,
    ):
        super().__init__(config, demand, arrivals, tariff, seed, initial)


def _draw_initial(rng: random.Random, cfg: StationConfig) -> InitialConditions:
    """Random start states: every charger may hold a battery, the rest split E/F/O.

    Empty batteries that could never finish a full charge block inside the
    horizon (too many ahead of them in the queue, or the horizon too short)
    are flipped to out-of-station so the drawn instance stays well packed.
    """
    n_charging = rng.randint(0, min(cfg.n_chargers, cfg.n_batteries))
    states = [_C] * n_charging
    states += [rng.choice([_E, _F, _O]) for _ in range(cfg.n_batteries - n_charging)]
    rng.shuffle(states)
    progress = [rng.randrange(cfg.charge_hours) if s is _C else 0 for s in states]
    n_full = sum(1 for s in states if s is _F)
    ranks = iter(rng.sample(range(1, n_full + 1), n_full))
    entries = []
    for s, p in zip(states, progress):
        if s is _F:
            entries.append(BatteryStart(state=s, full_rank=next(ranks)))
        elif s is _C:
            entries.append(BatteryStart(state=s, progress=p))
        else:
            entries.append(BatteryStart(state=s))

    # flip E -> O where an empty battery cannot get a full block: FIFO starts
    # the empties in battery order, and only those started by the last hour a
    # full block fits start in time; dropping the rest moves no earlier start
    _, room, opened, _ = _hour_tables(cfg, InitialConditions(tuple(entries)), ())
    in_time = _fifo_counts(cfg, room, opened)[max(cfg.horizon - cfg.charge_hours + 1, 0)]
    for i in [i for i, s in enumerate(states) if s is _E][in_time:]:
        entries[i] = BatteryStart(state=_O)
    return InitialConditions(tuple(entries))


def _place_units(
    drawn: list[int],
    horizon: int,
    room: Sequence[int],
) -> list[int]:
    """Push drawn event hours forward until each fits its cumulative headroom.

    ``room[t]`` is how many units may land at hours 1..t in total.  Units are
    placed in hour order, each no earlier than the one before it.  The first
    unit with no legal hour left is dropped, and so is every unit after it:
    each would scan from no earlier hour with as many units placed.
    """
    counts = [0] * (horizon + 1)
    h = 1
    for placed, hour in enumerate(sorted(drawn)):
        h = max(hour, h)
        while h <= horizon and placed >= room[h]:
            h += 1
        if h > horizon:
            break
        counts[h] += 1
    return counts[1:]


def _render_demand(
    rng: random.Random, shape: Shape, cfg: StationConfig, initial: InitialConditions
) -> list[int]:
    if isinstance(shape, ExplicitShape):
        return list(shape.values)
    T, D = cfg.horizon, cfg.charge_hours
    if T < 2 or shape.total == 0:
        return [0] * T
    drawn = shape.draw(rng, 2, T)
    # The initial fleet's charges under earliest starts; arrival jobs are drawn
    # later and only ever add supply on top of these.  Swaps servable by hour
    # t: the batteries full by t - 1 without movable charges and the blocks
    # started by hour t - 1 - D.
    full, room, opened, _ = _hour_tables(cfg, initial, ())
    started = _fifo_counts(cfg, room, opened)
    servable = [0] + [full[t - 1] + (started[t - 1 - D] if t > D else 0) for t in range(1, T + 1)]
    return _place_units(drawn, T, servable)


def _render_arrivals(
    rng: random.Random,
    shape: Shape,
    cfg: StationConfig,
    initial: InitialConditions,
    demand: Sequence[int],
) -> list[int]:
    if isinstance(shape, ExplicitShape):
        return list(shape.values)
    T, D = cfg.horizon, cfg.charge_hours
    hi = T - D  # latest hour whose arrival can still run a full block
    if hi < 2 or shape.total == 0:
        return [0] * T
    drawn = shape.draw(rng, 2, hi)
    # room[t]: arrivals by hour t can't exceed the batteries out by hour t - 1
    room = [0, *itertools.accumulate(demand[:-1], initial=initial.count(_O))]
    counts = _place_units(drawn, T, room)

    # keep the arrivals that can run a full block: FIFO starts them behind
    # the empty batteries, in hour order, and only those started by hour
    # T - D + 1 start in time; dropping a later job never moves an earlier one
    _, room, opened, _ = _hour_tables(cfg, initial, counts)
    keep = max(_fifo_counts(cfg, room, opened)[T - D + 1] - initial.count(_E), 0)
    for h, n in enumerate(counts):
        counts[h] = min(n, keep)
        keep -= counts[h]
    return counts


def generate(spec: ScenarioSpec) -> Instance:
    """Draw one instance from a scenario.  Same scenario, same bytes, every time.

    Draw order is fixed: initial conditions (skipped when ``spec.initial``
    pins them), then demand, then arrivals; the tariff is deterministic.
    Pinned start states may put at most one battery on each charger, and an
    explicit shape lists one count per hour.
    """
    cfg = spec.config
    on_chargers = spec.initial.count(_C) if spec.initial is not None else 0
    if on_chargers > cfg.n_chargers:
        raise InstanceError(
            f"pinned initial puts {on_chargers} batteries on chargers, "
            f"the station has {cfg.n_chargers}"
        )
    for what, shape in (("demand lists", spec.demand), ("arrivals list", spec.arrivals)):
        if isinstance(shape, ExplicitShape) and len(shape.values) != cfg.horizon:
            raise DimensionError(f"explicit {what} {len(shape.values)} hours, horizon is {cfg.horizon}")
    rng = random.Random(spec.seed)
    initial = spec.initial if spec.initial is not None else _draw_initial(rng, cfg)
    demand = _render_demand(rng, spec.demand, cfg, initial)
    arrivals = _render_arrivals(rng, spec.arrivals, cfg, initial, demand)
    price = spec.tariff.render(cfg.horizon)
    events = EventProfiles(tuple(demand), tuple(arrivals), price)
    return Instance(config=cfg, initial=initial, events=events)


# ---------------------------------------------------------------------------
# Scenario spec files
# ---------------------------------------------------------------------------


_SHAPES = {"uniform": UniformShape, "peaked": PeakedShape, "explicit": ExplicitShape}
_TARIFFS = {"flat": FlatTariff, "tou": TouTariff, "explicit": ExplicitTariff}


def _from_json(data: object, what: str, tag: str, kinds: dict) -> Shape | Tariff:
    """The shape or tariff an object describes: its ``tag`` key names a class
    in ``kinds``, and its other keys are that class's fields."""
    kind = _json_object(data, what, (tag,), data)[tag]  # its other keys are checked once the kind is known
    cls = kinds.get(kind) if isinstance(kind, str) else None  # a JSON list or object does not hash
    if cls is None:
        *names, last = kinds
        raise InstanceError(f"unknown {what} {tag} {_shown(kind)} ({', '.join(names)} or {last})")
    _json_object(data, what, (tag, *cls.__slots__))
    return cls(*(data[name] for name in cls.__slots__))


def load_spec(path: str | Path) -> ScenarioSpec:
    """Read a scenario spec JSON file.

    Layout::

        {
          "config":   { ... as config.json ... },
          "seed":     7,
          "demand":   {"shape": "uniform", "total": 6},
          "arrivals": {"shape": "peaked", "total": 4, "peak_hour": 9, "width": 3},
          "tariff":   {"kind": "tou", "off_peak": "0.5", "peak": 5,
                       "peak_hours": [[8, 11], [18, 21]]},
          "initial":  [ ... optional, as initial.json ... ]
        }

    Each object's keys are the fields of the value it builds: the spec's are
    ``ScenarioSpec``'s, and a shape's or tariff's are its class's, after the
    ``shape`` or ``kind`` that names the class.
    """
    *required, optional = ScenarioSpec.__slots__
    data = _json_object(_read_json(Path(path), "scenario spec"), "scenario spec", required, (optional,))
    if not is_int(data["seed"]):
        raise InstanceError("seed must be an integer")
    return ScenarioSpec(
        config=StationConfig.from_json_dict(data["config"]),
        initial=_initial_from_json(data["initial"]) if "initial" in data else None,
        demand=_from_json(data["demand"], "demand", "shape", _SHAPES),
        arrivals=_from_json(data["arrivals"], "arrivals", "shape", _SHAPES),
        tariff=_from_json(data["tariff"], "tariff", "kind", _TARIFFS),
        seed=data["seed"],
    )


# ---------------------------------------------------------------------------
# Built-in demo
# ---------------------------------------------------------------------------

_DEMO_ROWS = (
    "EEEECCCCCCFFFFFFFFOOOOOO",  # B1
    "EEEEECCCCCCFFFFFFFFFOOOO",  # B2
    "EEEEEECCCCCCFFFFFFFFFFOO",  # B3
    "FOOOOOOOOOEECCCCCCFFFFFF",  # B4
    "FFFFOOOOOOOOECCCCCCFFFFF",  # B5
    "CCCCFFOOOOOOOECCCCCCCCFF",  # B6
    "CCCCCFFFFFOOOOOOOOOECCCC",  # B7
    "CCCCCCFFFFFFOOOOOOOOECCC",  # B8
    "CCCCCCFFFFFFFOOOOOOOOOEC",  # B9
    "OEEEEECCCCCCFFFFFFFFFFFF",  # B10
    "OOOOEEEEEECCCCCCFFFFFFFF",  # B11
    "OOOOOOEEEEECCCCCCFFFFFFF",  # B12
)

_DEMO_INITIAL = (
    BatteryStart(state=_E),
    BatteryStart(state=_E),
    BatteryStart(state=_E),
    BatteryStart(state=_F, full_rank=1),
    BatteryStart(state=_F, full_rank=2),
    BatteryStart(state=_C, progress=2),
    BatteryStart(state=_C, progress=1),
    BatteryStart(state=_C),
    BatteryStart(state=_C),
    BatteryStart(state=_O),
    BatteryStart(state=_O),
    BatteryStart(state=_O),
)


def extract_events(grid: ScheduleGrid) -> EventProfiles:
    """Read demand and arrival counts off a grid's edges; prices come back zero.

    Raises TransitionError on the first illegal adjacency: event extraction
    is only meaningful on grids that respect the state cycle.
    """
    _, swaps, returns, illegal, _ = _scan(grid)
    if illegal:
        b, hour, prev, cur = illegal[0]
        raise TransitionError(b, hour, f"illegal transition {prev}->{cur}")
    return EventProfiles(tuple(swaps), tuple(returns), (Fraction(0),) * grid.horizon)


def demo_instance() -> tuple[Instance, ScheduleGrid]:
    """The bundled 12-battery, 4-charger, 24-hour worked example.

    Returns the instance and its hand-written reference schedule.  The
    reference schedule is reproduced exactly as published and is *not*
    clean: at hours 15 and 16 it has five batteries charging on four
    chargers, so lenient validation reports charger-capacity violations
    there and the greedy solver reschedules battery B6 two hours later.
    """
    config = StationConfig(
        n_batteries=12,
        n_chargers=4,
        charge_hours=6,
        capacity_kwh=Fraction(100),
        horizon=24,
    )
    grid = ScheduleGrid(_DEMO_ROWS)
    events = extract_events(grid)
    instance = Instance(
        config=config,
        initial=InitialConditions(_DEMO_INITIAL),
        events=EventProfiles(events.demand, events.arrivals, (1,) * 24),
    )
    return instance, grid
