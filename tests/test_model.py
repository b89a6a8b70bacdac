from __future__ import annotations

import random
import time
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

from swapsched import (
    BatteryStart,
    BatteryState,
    DimensionError,
    EventProfiles,
    ExplicitShape,
    ExplicitTariff,
    FlatTariff,
    GridParseError,
    InitialConditions,
    Instance,
    InstanceError,
    ScheduleGrid,
    StationConfig,
    TouTariff,
    TransitionError,
    UniformShape,
    extract_events,
    format_exact,
    parse_grid,
    render_grid,
    schedule_cost,
    to_exact,
    validate,
)
from swapsched.model import MAX_CELLS, MAX_DIGITS, MAX_EXPONENT
from conftest import random_legal_grid

E, C, F, O = BatteryState.EMPTY, BatteryState.CHARGING, BatteryState.FULL, BatteryState.OUT


# ---------------------------------------------------------------------------
# Transition table
# ---------------------------------------------------------------------------

# the full 16-entry table: stay put anywhere, or advance one step E->C->F->O->E
TRANSITION_TABLE = {
    (E, E): True,  (E, C): True,  (E, F): False, (E, O): False,
    (C, E): False, (C, C): True,  (C, F): True,  (C, O): False,
    (F, E): False, (F, C): False, (F, F): True,  (F, O): True,
    (O, E): True,  (O, C): False, (O, F): False, (O, O): True,
}


def test_transition_table_is_exactly_the_cycle():
    """Each of the 16 moves, as a one-battery, two-hour grid that parses or not."""
    config = StationConfig(1, 1, 1, Fraction(1), 2)
    for (prev, cur), expected in TRANSITION_TABLE.items():
        text = f"Hours: 1 2\nB1: {prev.letter} {cur.letter}\n"
        if expected:
            assert parse_grid(text, config).rows == (prev.letter + cur.letter,)
        else:
            with pytest.raises(GridParseError, match=f"column 7: illegal transition {prev.letter}->{cur.letter} "):
                parse_grid(text, config)
    assert sum(TRANSITION_TABLE.values()) == 8


# ---------------------------------------------------------------------------
# Exact numbers
# ---------------------------------------------------------------------------


def test_to_exact_accepts_the_usual_spellings():
    assert to_exact(3) == Fraction(3)
    assert to_exact("1/3") == Fraction(1, 3)
    assert to_exact("0.1") == Fraction(1, 10)
    assert to_exact(0.1) == Fraction(1, 10)  # via the shortest decimal repr, not the binary float
    assert to_exact(Decimal("2.50")) == Fraction(5, 2)
    assert to_exact(Fraction(7, 4)) == Fraction(7, 4)


@pytest.mark.parametrize(
    "bad", [True, False, "abc", "1/0", "", None, [1], "inf", float("-inf"), "NaN", Decimal("Infinity")]
)
def test_to_exact_rejects_non_numbers(bad):
    with pytest.raises(ValueError):
        to_exact(bad)


@pytest.mark.parametrize(
    "bad",
    ["1e-9999999", "1E+1001", f"1e-{MAX_EXPONENT + 1}", "0." + "0" * MAX_EXPONENT + "1",
     Decimal("1e-99999"), Decimal("5e1001")],
    ids=["tiny", "huge", "just-past", "long-decimal", "decimal-tiny", "decimal-huge"],
)
def test_to_exact_refuses_exponents_beyond_the_bound(bad):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent"):
        to_exact(bad)
    assert time.perf_counter() - start < 1


def test_to_exact_takes_exponents_up_to_the_bound():
    assert to_exact(f"1e-{MAX_EXPONENT}") == Fraction(1, 10**MAX_EXPONENT)
    assert to_exact(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert to_exact(5e-324) == Fraction(5, 10**324)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("1" * 4400 + ".5", "digits"),
        ("9" * (MAX_DIGITS + 1), "digits"),
        (f"1e{MAX_DIGITS}", "exponent"),
        ("1" * MAX_DIGITS + "0e1", "digits"),
        (Decimal("7" * (MAX_DIGITS + 1) + ".25"), "digits"),
        (10**MAX_DIGITS, "digits"),
        (f"{10**(MAX_DIGITS + 1)}/7", "digits"),
        (f"1/{10**MAX_EXPONENT + 1}", "denominator"),
        ("1" * 5000 + "/3", "not an exact number"),
    ],
    ids=["long-decimal", "just-past", "past-both", "zero-past", "decimal", "int", "ratio",
         "denominator", "ratio-past-int-text"],
)
def test_to_exact_refuses_numbers_too_long_to_print(bad, message):
    with pytest.raises(ValueError, match=message):
        to_exact(bad)


@pytest.mark.parametrize(
    "edge",
    [
        "9" * MAX_DIGITS,
        "9" * MAX_DIGITS + "." + "9" * MAX_EXPONENT,
        "9" * (MAX_DIGITS - MAX_EXPONENT) + f"e{MAX_EXPONENT}",
        "-" + "9" * MAX_DIGITS,
        f"{10**MAX_DIGITS - 1}/3",
        f"1/{2**3321}",  # the largest power of two a denominator within the bound may be
        10**MAX_DIGITS - 1,
    ],
    ids=["integer", "decimal", "exponent", "negative", "ratio", "twos", "int"],
)
def test_every_number_within_the_bounds_prints(edge):
    value = to_exact(edge)
    assert Fraction(format_exact(value)) == value


def test_format_exact_is_exact_and_fast_on_long_denominators():
    """Up to MAX_EXPONENT places a value prints as a decimal, past them as n/d."""
    start = time.perf_counter()
    text = format_exact(Fraction(1, 2**MAX_EXPONENT))
    assert text.startswith("0.") and len(text) == MAX_EXPONENT + 2
    assert Fraction(text) == Fraction(1, 2**MAX_EXPONENT)
    assert format_exact(Fraction(3, 5**MAX_EXPONENT)) == "0." + str(3 * 2**MAX_EXPONENT).zfill(MAX_EXPONENT)
    assert format_exact(Fraction(-1, 10**MAX_EXPONENT)) == "-0." + "1".zfill(MAX_EXPONENT)
    for d in (2 ** (MAX_EXPONENT + 1), 5 ** (MAX_EXPONENT + 1), 2**4000, 5**4001, 2**3321):
        assert format_exact(Fraction(3, d)) == f"3/{d}"
    assert time.perf_counter() - start < 1


def test_format_exact_prefers_decimal_when_finite():
    assert format_exact(Fraction(7)) == "7"
    assert format_exact(Fraction(1, 2)) == "0.5"
    assert format_exact(Fraction(-3, 4)) == "-0.75"
    assert format_exact(Fraction(1, 3)) == "1/3"
    assert format_exact(Fraction(100, 6)) == "50/3"
    assert format_exact(Fraction(1, 200)) == "0.005"


def test_exact_text_round_trips():
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 120))
        assert to_exact(format_exact(x)) == x


# ---------------------------------------------------------------------------
# StationConfig
# ---------------------------------------------------------------------------


def test_config_power_defaults_to_capacity_over_duration():
    cfg = StationConfig(12, 4, 6, Fraction(100), 24)
    assert cfg.power_kw == Fraction(100, 6)
    explicit = StationConfig(12, 4, 6, Fraction(100), 24, charge_power_kw=Fraction(20))
    assert explicit.power_kw == Fraction(20)


def test_config_power_survives_copy_and_pickle():
    """``power_kw`` is worked out when a config is built, not stored as a
    field: copies and unpickled configs build it again."""
    import copy
    import pickle

    for cfg in (
        StationConfig(12, 4, 6, Fraction(100), 24),
        StationConfig(3, 2, 4, Fraction(15, 2), 10, charge_power_kw=Fraction(7, 3)),
    ):
        copies = [copy.copy(cfg), copy.deepcopy(cfg)]
        copies += [pickle.loads(pickle.dumps(cfg, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert other == cfg and hash(other) == hash(cfg) and repr(other) == repr(cfg)
            assert other.power_kw == cfg.power_kw
            assert type(other.power_kw) is Fraction
        assert cfg.__reduce__()[1] == (cfg.n_batteries, cfg.n_chargers, cfg.charge_hours,
                                       cfg.capacity_kwh, cfg.horizon, cfg.charge_power_kw)


def test_instance_price_levels_are_worked_out_once_and_are_not_a_field():
    """An instance scales its prices to integers when it is built:
    ``_price_levels`` equals ``model._price_levels(events.price, power)``.  It is
    worked out from the fields and is not one of them, so equality, hash,
    repr, copy and pickle see the three fields only, and copies and
    unpickled instances work it out again."""
    import copy
    import pickle

    from swapsched.model import _price_levels

    def station(prices, power=None):
        config = StationConfig(2, 1, 3, Fraction(10), len(prices), charge_power_kw=power)
        events = EventProfiles((0,) * len(prices), (0,) * len(prices), tuple(map(Fraction, prices)))
        return Instance(config, InitialConditions((BatteryStart(E), BatteryStart(E))), events)

    for instance in (
        station(["1/2", "4", "1/2"]),
        station(["2/3", "5/7", "0", "3", "1/6"], power=Fraction(7, 3)),
        station(["7"]),
    ):
        levels = instance._price_levels
        assert levels == _price_levels(instance.events.price, instance.config.power_kw)
        level, lcm = levels
        assert type(level) is tuple and all(Fraction(n, lcm) == p for n, p in zip(level, instance.events.price))
        assert instance.__reduce__()[1] == (instance.config, instance.initial, instance.events)
        assert "_price_levels" not in repr(instance)
        assert hash(instance) == hash((instance.config, instance.initial, instance.events))
        copies = [copy.copy(instance), copy.deepcopy(instance)]
        copies += [pickle.loads(pickle.dumps(instance, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert other == instance and hash(other) == hash(instance) and repr(other) == repr(instance)
            assert other._price_levels == levels
        with pytest.raises(AttributeError):
            instance._price_levels = levels


def test_the_price_scale_check_stops_before_it_builds_a_huge_lcm(monkeypatch):
    """The lcm of the price denominators grows one denominator at a time, and
    the check refuses as soon as it passes the bound: 400 distinct
    990-digit denominators take three steps, not 400, whether an instance
    or ``schedule_cost`` scales them."""
    import math

    from swapsched import model

    steps = []

    def lcm(*args):
        steps.append(args)
        return math.lcm(*args)

    config = StationConfig(1, 1, 1, Fraction(1), 400)
    prices = tuple(Fraction(1, 10**989 + 2 * i + 1) for i in range(400))
    monkeypatch.setattr(model, "math", SimpleNamespace(lcm=lcm))
    for scale in (
        lambda: Instance(config, InitialConditions((BatteryStart(E),)), EventProfiles((0,) * 400, (0,) * 400, prices)),
        lambda: schedule_cost(ScheduleGrid(("C" * 400,)), config, prices),
    ):
        steps.clear()
        with pytest.raises(InstanceError, match=f"beyond 10\\*\\*{2 * MAX_EXPONENT}"):
            scale()
        assert len(steps) == 3


def test_config_json_round_trip():
    cfg = StationConfig(3, 2, 4, Fraction(15, 2), 10, charge_power_kw=Fraction(7, 3))
    data = cfg.to_json_dict()
    assert data["capacity_kwh"] == "7.5"
    assert data["charge_power_kw"] == "7/3"
    assert StationConfig.from_json_dict(data) == cfg


def test_config_rejects_unknown_and_missing_keys():
    good = StationConfig(1, 1, 1, Fraction(1), 1).to_json_dict()
    with pytest.raises(InstanceError) as refused:
        StationConfig.from_json_dict({**good, "voltage": 48, "amps": 2})
    assert str(refused.value) == "unknown config keys: ['amps', 'voltage']"
    with pytest.raises(InstanceError) as refused:
        StationConfig.from_json_dict({**good, **dict.fromkeys("abcde", 0)})
    assert str(refused.value) == "unknown config keys: ['a', 'b', 'c', 'd', 'e']"
    with pytest.raises(InstanceError) as refused:
        StationConfig.from_json_dict({**good, **dict.fromkeys("abcdefg", 0)})
    assert str(refused.value) == "unknown config keys: ['a', 'b', 'c', 'd', 'e'] … and 2 more"
    bad = dict(good)
    del bad["horizon"]
    with pytest.raises(InstanceError):
        StationConfig.from_json_dict(bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_batteries=0),
        dict(n_chargers=-1),
        dict(charge_hours=0),
        dict(horizon=0),
        dict(capacity_kwh=Fraction(0)),
        dict(charge_power_kw=Fraction(-1)),
    ],
)
def test_config_rejects_nonpositive_dimensions(kwargs):
    base = dict(n_batteries=2, n_chargers=1, charge_hours=2, capacity_kwh=Fraction(10), horizon=8)
    with pytest.raises(InstanceError):
        StationConfig(**{**base, **kwargs})


def test_refusals_show_an_integer_too_long_to_print_as_a_power_of_ten():
    """Python turns no integer of more than 4,300 digits into text, so each
    refusal shows a power of ten that such an integer passes."""
    from swapsched import PeakedShape

    cases = [
        (lambda: StationConfig(-(10**5000), 1, 1, Fraction(1), 1),
         "n_batteries must be a positive integer, got less than -10**4999"),
        (lambda: BatteryStart("C", progress=-(10**5000)),
         "progress must be a non-negative integer, got less than -10**4999"),
        (lambda: StationConfig(10**2200, 1, 1, Fraction(1), 10**2200),
         f"{10**2200} batteries over {10**2200} hours make more than 10**4399 battery-hours, more than 1000000"),
        (lambda: EventProfiles((10**5000,), (0,), (1,)), "demand must total at most 1000000, got more than 10**4999"),
        (lambda: UniformShape(10**5000), "shape total must be at most 1000000, got more than 10**4999"),
        (lambda: PeakedShape(1, -(10**5000), 1),
         "shape peak_hour less than -10**4999 and width 1 reach beyond the range of a float"),
    ]
    for build, message in cases:
        with pytest.raises(InstanceError) as exc:
            build()
        assert str(exc.value) == message


_H = 10**5000  # more digits than Python turns into text


def _one_battery(entry=BatteryStart("E")) -> Instance:
    return Instance(StationConfig(1, 1, 2, Fraction(10), 1), InitialConditions((entry,)), EventProfiles((0,), (0,), (1,)))


class _Unprintable:
    def __repr__(self):
        raise RuntimeError("no repr")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: _one_battery(BatteryStart("C", progress=_H)), InstanceError,
         "battery B1: progress more than 10**4999 must be below charge_hours 2"),
        (lambda: InitialConditions((_H,)), InstanceError, "an initial entry must be a BatteryStart, got more than 10**4999"),
        (lambda: ScheduleGrid((_H,)), DimensionError, "battery B1: more than 10**4999 is not a string of state letters"),
        (lambda: ScheduleGrid(([_H],)), DimensionError, "battery B1: a value of type list is not a string of state letters"),
        (lambda: ScheduleGrid(("E" * 50 + "X",)), DimensionError,
         f"battery B1: {chr(39)}{'E' * 39}... holds a letter other than E, C, F, O"),
        (lambda: EventProfiles((0,), (0,), ([_H],)), ValueError, "not an exact number: a value of type list"),
        (lambda: to_exact(_Unprintable()), ValueError, "not an exact number: a value of type _Unprintable"),
        (lambda: schedule_cost(ScheduleGrid(("E",)), _one_battery().config, ([_H],)),
         ValueError, "not an exact number: a value of type list"),
        (lambda: validate(ScheduleGrid(("E",)), _one_battery(), mode=_H),
         ValueError, "mode must be one of ('lenient', 'strict'), got more than 10**4999"),
        (lambda: UniformShape([_H]), InstanceError,
         "shape total must be an integer >= 0, got a value of type list"),
        (lambda: ExplicitShape(([_H],)), InstanceError,
         "explicit shape values must be integers >= 0, got a value of type list"),
        (lambda: FlatTariff([_H]), ValueError, "not an exact number: a value of type list"),
        (lambda: TouTariff(1, 2, [[_H]]), InstanceError,
         "a peak range must be two integer hours, got a value of type list"),
    ],
    ids=["progress", "initial-entry", "grid-row-int", "grid-row-list", "grid-row-long", "price", "unprintable",
         "schedule-cost", "validate-mode", "uniform-shape", "explicit-shape", "flat-tariff", "tou-tariff"],
)
def test_every_refusal_shows_its_value_without_raising_while_it_does(build, error, message):
    """A refused value is shown through ``_shown`` (or ``_int_text``): an int
    too long for text as a power of ten, a value whose repr fails by its
    type, and anything past 40 characters cut.  Each of these ended in
    Python's own "Exceeds the limit" ``ValueError`` or an AttributeError."""
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_profiles_cap_each_event_total():
    """A profile may hold MAX_CELLS swaps and as many arrivals, and no more."""
    hours = (MAX_CELLS // 2, MAX_CELLS - MAX_CELLS // 2)
    assert sum(EventProfiles(hours, hours, (1, 1)).demand) == MAX_CELLS
    for demand, arrivals, what in (((MAX_CELLS, 1), (0, 0), "demand"), ((0, 0), (1, MAX_CELLS), "arrivals")):
        with pytest.raises(InstanceError, match=f"^{what} must total at most {MAX_CELLS}, got {MAX_CELLS + 1}$"):
            EventProfiles(demand, arrivals, (1, 1))


def test_config_caps_battery_hours():
    StationConfig(1000, 150, 4, Fraction(30), 336)  # the largest benchmarked station
    assert StationConfig(1000, 1, 1, Fraction(1), MAX_CELLS // 1000).horizon == 1000
    with pytest.raises(InstanceError, match="1001000 battery-hours, more than 1000000"):
        StationConfig(1001, 1, 1, Fraction(1), 1000)
    with pytest.raises(InstanceError, match="more than"):
        StationConfig(1, 1, 1, Fraction(1), 10**9)


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------


def test_battery_start_invariants():
    with pytest.raises(InstanceError):
        BatteryStart(state=E, progress=1)  # progress only while charging
    with pytest.raises(InstanceError):
        BatteryStart(state=F)  # full batteries need a rank
    with pytest.raises(InstanceError):
        BatteryStart(state=O, full_rank=1)
    BatteryStart(state=C, progress=3)
    BatteryStart(state=F, full_rank=2)


def test_battery_start_takes_a_state_letter():
    assert BatteryStart("E") == BatteryStart(E)
    assert BatteryStart("F", full_rank=1) == BatteryStart(F, full_rank=1)
    with pytest.raises(InstanceError):
        BatteryStart("X")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BatteryStart("X"), "unknown state 'X'"),
        (lambda: BatteryStart(5), "unknown state 5"),
        (lambda: ExplicitShape(5), "explicit shape values must be a list, got 5"),
        (lambda: ExplicitShape("abc"), "explicit shape values must be a list, got 'abc'"),
        (lambda: TouTariff(1, 2, 5), "peak_hours must be a list, got 5"),
        (lambda: TouTariff(1, 2, [5]), "a peak range must be a list, got 5"),
        (lambda: ExplicitTariff(5), "tariff prices must be a list, got 5"),
    ],
    ids=["state-letter", "state-number", "values-number", "values-string", "peak-hours", "peak-range", "prices"],
)
def test_values_refuse_their_own_contents(build, message):
    """A start state is a BatteryState or its letter, and the list fields of
    shapes and tariffs take a list or a tuple; anything else is an input
    error, which ``except SwapSchedError`` catches."""
    with pytest.raises(InstanceError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "fields",
    [dict(state=C, progress="2"), dict(state=C, progress=True), dict(state=C, progress=None),
     dict(state=F, full_rank="1"), dict(state=F, full_rank=1.0)],
    ids=["str-progress", "bool-progress", "null-progress", "str-rank", "float-rank"],
)
def test_battery_start_rejects_non_integer_fields(fields):
    with pytest.raises(InstanceError):
        BatteryStart(**fields)


def test_initial_conditions_require_distinct_ranks():
    with pytest.raises(InstanceError):
        InitialConditions(
            (BatteryStart(state=F, full_rank=1), BatteryStart(state=F, full_rank=1))
        )
    init = InitialConditions(
        (BatteryStart(state=F, full_rank=2), BatteryStart(state=O), BatteryStart(state=E))
    )
    assert len(init) == 3
    assert init.count(O) == 1
    assert init.for_battery(1).full_rank == 2


# ---------------------------------------------------------------------------
# ScheduleGrid
# ---------------------------------------------------------------------------


def test_grid_shape_checks():
    for rows in (
        (),  # no battery
        ("",),  # no hour
        ("EC", "E"),  # ragged
        ("EXE",),  # a stray character inside a row
        ("E C",),  # a space inside a row
        ("ecf",),  # lowercase
        ("EC", ("E", "C")),  # a row that is not a string
        "ECF",  # one string, not one per battery
    ):
        with pytest.raises(DimensionError):
            ScheduleGrid(rows)


def test_grid_accessors_and_with_cell():
    grid = ScheduleGrid(("ECF", "OOE"))
    assert grid.rows == ("ECF", "OOE")
    assert grid.n_batteries == 2
    assert grid.horizon == 3
    assert grid.state(1, 2) is C
    assert grid.count(O, 2) == 1
    bumped = grid.with_cell(2, 3, "O")
    assert bumped.rows == ("ECF", "OOO")
    assert bumped.state(2, 3) is O
    assert grid.with_cell(1, 1, C).rows == ("CCF", "OOE")
    assert grid.state(2, 3) is E  # original untouched


def test_grid_accessors_reject_cells_outside_the_grid():
    """Indices are 1-based: 0 or -1 must not wrap round to the last battery or hour."""
    grid = ScheduleGrid(("ECF", "OOE"))
    for call in (
        lambda: grid.state(0, 1),
        lambda: grid.state(1, 0),
        lambda: grid.state(-1, 1),
        lambda: grid.with_cell(0, 1, "F"),
        lambda: grid.state(3, 1),
        lambda: grid.state(1, 4),
        lambda: grid.count(E, 0),
        lambda: grid.count(E, 4),
        lambda: grid.with_cell(1, 4, "F"),
    ):
        with pytest.raises(DimensionError):
            call()


# ---------------------------------------------------------------------------
# EventProfiles
# ---------------------------------------------------------------------------


def test_profiles_validate_shape_and_signs():
    with pytest.raises(DimensionError):
        EventProfiles((0, 0), (0,), (Fraction(1),) * 2)
    with pytest.raises(InstanceError):
        EventProfiles((0, -1), (0, 0), (Fraction(1),) * 2)
    with pytest.raises(InstanceError):
        EventProfiles((0, 0), (0, 0), (Fraction(1), Fraction(-1)))


def test_extract_events_reads_demo_edges(demo):
    _, reference = demo
    ev = extract_events(reference)
    demand_hours = {t for t in range(1, 25) if ev.demand[t - 1]}
    arrival_hours = {t for t in range(1, 25) if ev.arrivals[t - 1]}
    assert demand_hours == {2, 5, 7, 11, 13, 14, 19, 21, 23}
    assert arrival_hours == {2, 5, 7, 11, 13, 14, 20, 21, 23}
    assert all(v in (0, 1) for v in ev.demand)
    assert sum(ev.demand) == sum(ev.arrivals) == 9


def test_extract_events_rejects_illegal_adjacency():
    grid = ScheduleGrid(("EF",))
    with pytest.raises(TransitionError) as exc:
        extract_events(grid)
    assert exc.value.battery == 1
    assert exc.value.hour == 2


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def _cfg(nb: int, horizon: int) -> StationConfig:
    return StationConfig(nb, 1, 1, Fraction(1), horizon)


def test_render_parse_round_trip_on_demo(demo):
    instance, reference = demo
    text = render_grid(reference)
    assert text.endswith("\n")
    assert parse_grid(text, instance.config) == reference


def test_render_parse_round_trip_on_random_grids():
    rng = random.Random(20260822)
    for _ in range(50):
        nb, T = rng.randint(1, 6), rng.randint(1, 30)
        grid = random_legal_grid(rng, nb, T)
        assert parse_grid(render_grid(grid), _cfg(nb, T)) == grid


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("", 1, 1),
        ("Stunden: 1 2\nB1: E C", 1, 1),                      # wrong header word
        ("Hours: 1 2 3\nB1: E C", 1, 7),                      # header/horizon mismatch
        ("Hours: one two\nB1: E C", 1, 7),                    # non-integer hours
        ("Hours: 1 2\nB2: E C", 2, 1),                        # wrong battery prefix
        ("Hours: 1 2\nB1: E  C", 2, 5),                       # double space
        ("Hours: 1 2\nB1: E C O", 2, 9),                      # too many cells
        ("Hours: 1 2\nB1: E X", 2, 7),                        # unknown letter
        ("Hours: 1 2\nB1: E F", 2, 7),                        # illegal adjacency E->F
        ("Hours: 1 2\nB1: E C\nB2: E C", 3, 1),               # too many battery lines
        ("Hours: 01 2\nB1: E C", 1, 8),                       # zero-padded hour
        ("Hours:\t1   2  \nB1: E C", 1, 7),                   # tab, runs of spaces, padding
        ("Hours: +1 2\nB1: E C", 1, 8),                       # signed hour
        ("Hours:1 2\nB1: E C", 1, 7),                         # no space after the colon
        ("Hours: \uff11 2\nB1: E C", 1, 8),                   # fullwidth digit
        ("Hours: 1 2\r\nB1: E C\r\n", 1, 11),                 # CRLF line endings
        ("Hours: 1 2\nB1: E C", 2, 8),                        # no final newline
        # line breaks to str.splitlines, plain characters inside a line here
        *[(f"Hours: 1 2{ch}B1: E C\n", 1, 7) for ch in "\x0c\x1c\x1d\x1e\x85\u2028\u2029"],
    ],
)
def test_parse_errors_carry_position(text, line, column):
    with pytest.raises(GridParseError) as exc:
        parse_grid(text, _cfg(1, 2))
    assert (exc.value.line, exc.value.column) == (line, column)


def test_parse_reports_missing_battery_lines():
    with pytest.raises(GridParseError) as exc:
        parse_grid("Hours: 1 2\nB1: E C", _cfg(2, 2))
    assert exc.value.line == 3
