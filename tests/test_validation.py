from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from swapsched import (
    BatteryStart,
    BatteryState,
    DimensionError,
    EventProfiles,
    GridParseError,
    InitialConditions,
    Instance,
    InstanceError,
    ScheduleGrid,
    StationConfig,
    TransitionError,
    extract_events,
    format_exact,
    parse_grid,
    render_grid,
    schedule_cost,
    to_exact,
    validate,
)
from swapsched.model import MAX_EXPONENT
from swapsched.validation import (
    ARRIVALS,
    CHARGE_DURATION,
    CHARGER_CAPACITY,
    DEMAND_COVERAGE,
    INITIAL_CONDITIONS,
    TRANSITION,
)
from conftest import random_legal_grid

E, C, F, O = BatteryState.EMPTY, BatteryState.CHARGING, BatteryState.FULL, BatteryState.OUT


def with_demand(instance: Instance, hour: int, value: int) -> Instance:
    d = list(instance.events.demand)
    d[hour - 1] = value
    events = EventProfiles(tuple(d), instance.events.arrivals, instance.events.price)
    return Instance(instance.config, instance.initial, events)


def with_arrival(instance: Instance, hour: int, value: int) -> Instance:
    a = list(instance.events.arrivals)
    a[hour - 1] = value
    events = EventProfiles(instance.events.demand, tuple(a), instance.events.price)
    return Instance(instance.config, instance.initial, events)


def with_initial(instance: Instance, battery: int, entry: BatteryStart) -> Instance:
    entries = list(instance.initial.entries)
    entries[battery - 1] = entry
    return Instance(instance.config, InitialConditions(tuple(entries)), instance.events)


# ---------------------------------------------------------------------------
# The bundled reference schedule
# ---------------------------------------------------------------------------


def test_reference_schedule_lenient_flags_the_charger_overrun(demo):
    """The shipped reference puts five batteries on four chargers at 15-16."""
    instance, reference = demo
    report = validate(reference, instance, "lenient")
    assert not report.feasible
    assert [(v.constraint, v.hour) for v in report.violations] == [
        (CHARGER_CAPACITY, 15),
        (CHARGER_CAPACITY, 16),
    ]


def test_reference_schedule_strict_adds_the_long_run(demo):
    instance, reference = demo
    report = validate(reference, instance, "strict")
    assert not report.feasible
    assert report.constraint_ids() == {CHARGER_CAPACITY, CHARGE_DURATION}
    duration = [v for v in report.violations if v.constraint == CHARGE_DURATION]
    assert [(v.battery, v.hour) for v in duration] == [(6, 15)]  # B6's 8-hour run


def test_greedy_schedule_is_clean_in_both_modes(demo, demo_greedy):
    instance, _ = demo
    for mode in ("lenient", "strict"):
        report = validate(demo_greedy, instance, mode)
        assert report.feasible, [v.message for v in report.violations]
        assert report.violations == ()


# ---------------------------------------------------------------------------
# One constraint at a time, mutating the clean greedy baseline
# ---------------------------------------------------------------------------


def test_illegal_transition_detected(demo, demo_greedy):
    instance, _ = demo
    report = validate(demo_greedy.with_cell(1, 14, "E"), instance, "lenient")
    assert report.constraint_ids() == {TRANSITION}
    assert len(report.violations) == 2  # F->E into 14 and E->F out of it


def test_charger_capacity_detected(demo, demo_greedy):
    instance, _ = demo
    report = validate(demo_greedy.with_cell(1, 11, "C"), instance, "lenient")
    assert report.constraint_ids() == {CHARGER_CAPACITY}
    assert [v.hour for v in report.violations] == [11]
    assert "5 batteries charging" in report.violations[0].message


def test_demand_edge_count_mismatch_detected(demo, demo_greedy):
    instance, _ = demo
    report = validate(demo_greedy, with_demand(instance, 2, 2), "lenient")
    assert report.constraint_ids() == {DEMAND_COVERAGE}
    assert [v.hour for v in report.violations] == [2]


def test_missing_swap_detected(demo, demo_greedy):
    instance, _ = demo
    report = validate(demo_greedy.with_cell(4, 2, "F"), instance, "lenient")
    assert report.constraint_ids() == {DEMAND_COVERAGE}
    # the swap due at hour 2 is gone and a phantom F->O edge lands at hour 3
    assert [v.hour for v in report.violations] == [2, 3]


def test_demand_stock_shortfall_detected():
    # two swaps due at hour 2 with only one battery full at hour 1
    config = StationConfig(3, 1, 2, Fraction(10), 4)
    initial = InitialConditions(
        (BatteryStart(state=F, full_rank=1), BatteryStart(state=O), BatteryStart(state=O))
    )
    events = EventProfiles((0, 2, 0, 0), (0,) * 4, (Fraction(1),) * 4)
    instance = Instance(config, initial, events)
    grid = ScheduleGrid(("FOOO", "OOOO", "OOOO"))
    report = validate(grid, instance, "lenient")
    assert report.constraint_ids() == {DEMAND_COVERAGE}
    messages = " ".join(v.message for v in report.violations)
    assert "exceeds" in messages  # stock shortfall, not just a count mismatch


def test_arrival_mismatches_detected(demo, demo_greedy):
    instance, _ = demo
    zeroed = Instance(
        instance.config,
        instance.initial,
        EventProfiles(instance.events.demand, (0,) * 24, instance.events.price),
    )
    report = validate(demo_greedy, zeroed, "lenient")
    assert report.constraint_ids() == {ARRIVALS}
    assert len(report.violations) == 9  # every landed arrival contradicts the profile

    phantom = validate(demo_greedy, with_arrival(instance, 3, 1), "lenient")
    assert phantom.constraint_ids() == {ARRIVALS}
    assert [v.hour for v in phantom.violations] == [3]


def test_short_charge_run_detected(demo, demo_greedy):
    instance, _ = demo
    report = validate(demo_greedy.with_cell(6, 22, "F"), instance, "lenient")
    assert report.constraint_ids() == {CHARGE_DURATION}
    v = report.violations[0]
    assert (v.battery, v.hour) == (6, 17)  # violation pinned to the run's start
    assert "length 5" in v.message


def test_lingering_charge_is_strict_only(demo, demo_greedy):
    instance, _ = demo
    lingering = demo_greedy.with_cell(6, 23, "C")
    assert validate(lingering, instance, "lenient").feasible
    report = validate(lingering, instance, "strict")
    assert report.constraint_ids() == {CHARGE_DURATION}
    assert [(v.battery, v.hour) for v in report.violations] == [(6, 17)]


def test_initial_declaration_mismatch_detected(demo, demo_greedy):
    instance, _ = demo
    mutated = with_initial(instance, 4, BatteryStart(state=E))
    report = validate(demo_greedy, mutated, "lenient")
    assert report.constraint_ids() == {INITIAL_CONDITIONS}
    assert [(v.battery, v.hour) for v in report.violations] == [(4, 1)]


def test_hour_one_events_are_impossible(demo, demo_greedy):
    instance, _ = demo
    d1 = validate(demo_greedy, with_demand(instance, 1, 1), "lenient")
    assert d1.constraint_ids() == {DEMAND_COVERAGE}
    assert [v.hour for v in d1.violations] == [1]
    a1 = validate(demo_greedy, with_arrival(instance, 1, 1), "lenient")
    assert a1.constraint_ids() == {ARRIVALS}
    assert [v.hour for v in a1.violations] == [1]


def test_declared_empty_battery_may_start_charging_immediately():
    """A battery declared empty may already be on a charger in hour 1.

    Its charge run then counts from hour 1 with no prior progress."""
    config = StationConfig(1, 1, 2, Fraction(10), 4)
    initial = InitialConditions((BatteryStart(state=E),))
    events = EventProfiles((0, 0, 0, 1), (0,) * 4, (Fraction(1),) * 4)
    instance = Instance(config, initial, events)
    grid = ScheduleGrid(("CCFO",))
    for mode in ("lenient", "strict"):
        assert validate(grid, instance, mode).feasible


def test_declared_progress_credits_the_first_run():
    # two hours of prior progress + four on the grid = the full six, strict-clean
    config = StationConfig(1, 1, 6, Fraction(12), 8)
    initial = InitialConditions((BatteryStart(state=C, progress=2),))
    events = EventProfiles((0,) * 8, (0,) * 8, (Fraction(1),) * 8)
    instance = Instance(config, initial, events)
    grid = ScheduleGrid(("CCCCFFFF",))
    assert validate(grid, instance, "strict").feasible
    # without the declared progress the same run is two hours short
    bare = Instance(config, InitialConditions((BatteryStart(state=C),)), events)
    report = validate(grid, bare, "lenient")
    assert report.constraint_ids() == {CHARGE_DURATION}


def test_truncated_runs_are_exempt_at_the_horizon():
    config = StationConfig(1, 1, 6, Fraction(12), 3)
    initial = InitialConditions((BatteryStart(state=C, progress=1),))
    events = EventProfiles((0,) * 3, (0,) * 3, (Fraction(1),) * 3)
    instance = Instance(config, initial, events)
    grid = ScheduleGrid(("CCC",))
    assert validate(grid, instance, "strict").feasible


def test_violations_union_across_constraints(demo, demo_greedy):
    instance, _ = demo
    grid = demo_greedy.with_cell(1, 11, "C").with_cell(6, 22, "F")
    report = validate(grid, with_demand(instance, 2, 2), "lenient")
    assert report.constraint_ids() == {CHARGER_CAPACITY, CHARGE_DURATION, DEMAND_COVERAGE}


# ---------------------------------------------------------------------------
# Report structure
# ---------------------------------------------------------------------------


def test_report_hourly_counts_partition_the_fleet(demo):
    instance, reference = demo
    report = validate(reference, instance, "lenient")
    for t in range(24):
        total = sum(report.hourly[k][t] for k in "ECFO")
        assert total == 12
    assert report.hourly["E"][0] == 3
    assert report.hourly["C"][0] == 4
    assert report.hourly["F"][0] == 2
    assert report.hourly["O"][0] == 3
    # hour 7: B8/B9 just finished, B3 and the first returner start charging
    assert (
        report.hourly["E"][6],
        report.hourly["C"][6],
        report.hourly["F"][6],
        report.hourly["O"][6],
    ) == (2, 4, 3, 3)


def test_report_json_shape(demo):
    instance, reference = demo
    report = validate(reference, instance, "lenient")
    data = json.loads(report.to_json())
    assert data["feasible"] is False
    assert {v["constraint"] for v in data["violations"]} == {CHARGER_CAPACITY}
    assert set(data["hourly"]) == {"E", "C", "F", "O"}
    assert all(len(v) == 24 for v in data["hourly"].values())
    assert set(data["violations"][0]) == {"constraint", "battery", "hour", "message"}


def test_dimension_mismatch_raises(demo):
    instance, _ = demo
    small = ScheduleGrid(("EC",))
    with pytest.raises(DimensionError):
        validate(small, instance, "lenient")


def test_unknown_mode_rejected(demo):
    instance, reference = demo
    with pytest.raises(ValueError):
        validate(reference, instance, "relaxed")


def test_an_instance_refuses_costs_that_no_report_could_hold():
    """The cost scale (the lcm of the prices' denominators times the power's)
    may reach 10**(2 * MAX_EXPONENT), and every cost and energy the station
    could report must lie within float range.  At each bound the cost prints
    as text and as cost.json."""
    initial = InitialConditions((BatteryStart(C),))  # charging through hour 1
    biggest = int(sys.float_info.max)
    tiny = to_exact(f"1e-{MAX_EXPONENT}")

    def instance(capacity, charge_hours, price):
        config = StationConfig(1, 1, charge_hours, capacity, 1)
        return Instance(config, initial, EventProfiles((0,), (0,), (price,)))

    for capacity, charge_hours, price in [(1, 1, biggest), (biggest, 1, 0), (tiny, 1, tiny)]:
        cost = schedule_cost(ScheduleGrid(("C",)), instance(capacity, charge_hours, price).config, (price,))
        assert Fraction(format_exact(cost.total)) == cost.total
        assert json.loads(cost.to_json())["total"] == float(cost.total)
    for capacity, charge_hours, price, message in [
        (1, 1, biggest + 1, "range of a float"),
        (biggest + 1, 1, 0, "range of a float"),
        (tiny, 3, tiny, f"beyond 10\\*\\*{2 * MAX_EXPONENT}"),
    ]:
        with pytest.raises(InstanceError, match=message):
            instance(capacity, charge_hours, price)


# ---------------------------------------------------------------------------
# Outputs pinned across versions
# ---------------------------------------------------------------------------


def pinned_grid_cases(seed: int = 20261018, count: int = 300):
    """Seeded small grids (legal walks, walks with stray cells, random cells)
    with random events, start states and station sizes."""
    rng = random.Random(seed)
    states = list(BatteryState)
    for i in range(count):
        nb, T = rng.randint(1, 6), rng.randint(1, 10)
        if i % 3 == 2:
            grid = ScheduleGrid(tuple("".join(rng.choice("ECFO") for _ in range(T)) for _ in range(nb)))
        else:
            grid = random_legal_grid(rng, nb, T)
            for _ in range(i % 3):
                grid = grid.with_cell(rng.randint(1, nb), rng.randint(1, T), rng.choice("ECFO"))
        D = rng.randint(1, 4)
        follow = rng.random() < 0.5  # starts and events read off the grid itself
        entries, rank = [], 0
        for b in range(1, nb + 1):
            state = grid.state(b, 1) if follow else rng.choice(states)
            if state is F:
                rank += 1
            entries.append(BatteryStart(
                state=state,
                progress=rng.randrange(D) if state is C else 0,
                full_rank=rank if state is F else None,
            ))
        if follow and i % 3 == 0:
            events = extract_events(grid)
        else:
            events = EventProfiles(
                tuple(rng.choice((0, 0, 1, 2)) for _ in range(T)),
                tuple(rng.choice((0, 0, 1, 2)) for _ in range(T)),
                (Fraction(0),) * T,
            )
        config = StationConfig(nb, rng.randint(1, 3), D, Fraction(10), T)
        yield rng, grid, Instance(config, InitialConditions(tuple(entries)), events)


def mutate_body(rng: random.Random, text: str) -> str:
    """One random edit to the battery lines of a rendering; the header stays."""
    header, *body = text.splitlines()
    i = rng.randrange(len(body))
    line = body[i]
    kind = rng.randrange(6)
    if kind == 0:
        j = rng.randrange(len(line))
        body[i] = line[:j] + rng.choice("ECFOXB1: \t") + line[j + 1:]
    elif kind == 1:
        j = rng.randrange(len(line))
        body[i] = line[:j] + line[j + 1:]
    elif kind == 2:
        j = rng.randrange(len(line) + 1)
        body[i] = line[:j] + rng.choice("ECFO ") + line[j:]
    elif kind == 3:
        del body[i]
    elif kind == 4:
        body.insert(i, line)
    else:
        j = rng.randrange(len(body))
        body[i], body[j] = body[j], body[i]
    return "\n".join([header, *body]) + "\n"


def test_validation_and_parsing_outputs_are_pinned():
    """validate (both modes), extract_events and parse_grid on mutated
    renderings give the same verdicts, messages and positions in every
    version."""
    digest = hashlib.sha256()
    for rng, grid, instance in pinned_grid_cases():
        for mode in ("lenient", "strict"):
            report = validate(grid, instance, mode)
            digest.update(repr((
                report.feasible,
                [(v.constraint, v.battery, v.hour, v.message) for v in report.violations],
                [report.hourly[k] for k in "ECFO"],
            )).encode())
        try:
            events = extract_events(grid)
            digest.update(repr((events.demand, events.arrivals)).encode())
        except TransitionError as exc:
            digest.update(repr((exc.battery, exc.hour, str(exc))).encode())
        text = render_grid(grid)
        for edits in range(4):
            try:
                parsed = parse_grid(mutate_body(rng, text) if edits else text, instance.config)
                digest.update(render_grid(parsed).encode())
            except GridParseError as exc:
                digest.update(repr((exc.line, exc.column, str(exc))).encode())
    assert digest.hexdigest() == "734925953de4b6015686d4b1ed60f7132e3981c1ddbde2a5325d2727349458f6"
