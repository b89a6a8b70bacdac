from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest

from swapsched import (
    BatteryStart,
    BatteryState,
    DimensionError,
    EnumerationBudgetError,
    EventProfiles,
    FlatTariff,
    InfeasibleError,
    InitialConditions,
    Instance,
    ScenarioSpec,
    ScheduleGrid,
    SolveObjective,
    StationConfig,
    TouTariff,
    UniformShape,
    build_jobs,
    exact,
    generate,
    render_grid,
    schedule_cost,
    solve_exact,
    solve_greedy,
    solve_oracle,
    start_domain,
    validate,
)
from conftest import huge_search_space, make_valley

E, C, F, O = BatteryState.EMPTY, BatteryState.CHARGING, BatteryState.FULL, BatteryState.OUT


def charge_starts(grid: ScheduleGrid) -> dict[int, int]:
    """First charging hour of each battery's movable run (runs starting after hour 1)."""
    out = {}
    for b in range(1, grid.n_batteries + 1):
        for t in range(2, grid.horizon + 1):
            if grid.state(b, t) is C and grid.state(b, t - 1) is not C:
                out[b] = t
                break
    return out


def swap_sequence(grid: ScheduleGrid) -> list[tuple[int, int]]:
    """(hour, battery) for every F->O edge, in hour order."""
    out = []
    for t in range(2, grid.horizon + 1):
        for b in range(1, grid.n_batteries + 1):
            if grid.state(b, t - 1) is F and grid.state(b, t) is O:
                out.append((t, b))
    return out


# ---------------------------------------------------------------------------
# Jobs and domains
# ---------------------------------------------------------------------------


def test_demo_jobs(demo):
    instance, _ = demo
    jobs = build_jobs(instance)
    assert len(jobs) == 16
    continuations = [j for j in jobs if j.fixed_start is not None]
    assert [j.duration for j in continuations] == [4, 5, 6, 6]  # B6-B9, by battery
    assert all(j.fixed_start == 1 and j.release == 1 and not j.movable for j in continuations)
    empties = [j for j in jobs if j.movable and j.release == 1]
    assert len(empties) == 3  # B1-B3
    assert all(j.duration == 6 for j in empties)
    arrivals = [j for j in jobs if j.movable and j.release > 1]
    assert [j.release for j in arrivals] == [3, 6, 8, 12, 14, 15, 21, 22, 24]
    assert all(j.duration == 6 for j in arrivals)
    assert list(jobs) == continuations + empties + arrivals
    assert len({id(j) for j in jobs}) == 16  # one object per job, even for equal jobs


def test_start_domains(demo):
    instance, _ = demo
    cfg = instance.config
    jobs = build_jobs(instance)
    by_release = {j.release: j for j in jobs if j.movable}
    # completable: a full six-hour block must fit (start <= 19)
    assert start_domain(by_release[3], cfg) == tuple(range(3, 20))
    assert start_domain(by_release[14], cfg) == tuple(range(14, 20))
    # released past hour 19: can never complete, may start right up to the horizon
    assert start_domain(by_release[21], cfg) == (21, 22, 23, 24)
    assert start_domain(by_release[24], cfg) == (24,)
    fixed = next(j for j in jobs if not j.movable)
    assert start_domain(fixed, cfg) == (1,)


def test_start_domain_empty_when_released_after_horizon():
    cfg = StationConfig(1, 1, 2, Fraction(4), 4)
    initial = InitialConditions((BatteryStart(state=O),))
    events = EventProfiles((0, 0, 0, 0), (0, 0, 0, 1), (Fraction(1),) * 4)
    jobs = build_jobs(Instance(cfg, initial, events))
    assert len(jobs) == 1
    assert jobs[0].release == 5
    assert start_domain(jobs[0], cfg) == ()


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


def test_demo_reference_cost_breakdown(demo):
    instance, reference = demo
    cost = schedule_cost(reference, instance.config, instance.events.price)
    assert cost.total == Fraction(4250, 3)  # 85 charging cells at 100/6 kW, price 1
    assert cost.energy_kwh == Fraction(4250, 3)
    assert cost.per_hour[0] == Fraction(200, 3)  # four chargers busy in hour 1
    assert cost.per_battery[5] == Fraction(200)  # B6: 4 + 8 charging hours
    assert sum(cost.per_hour) == cost.total
    assert sum(cost.per_battery) == cost.total


def test_cost_dimension_checks(demo):
    instance, reference = demo
    with pytest.raises(DimensionError):
        schedule_cost(reference, instance.config, [1] * 23)
    small = StationConfig(2, 1, 2, Fraction(4), 24)
    with pytest.raises(DimensionError):
        schedule_cost(reference, small, [1] * 24)


def test_cost_json_uses_floats(demo):
    instance, reference = demo
    cost = schedule_cost(reference, instance.config, instance.events.price)
    data = cost.to_json_dict()
    assert data["total"] == pytest.approx(4250 / 3)
    assert len(data["per_hour"]) == 24
    assert len(data["per_battery"]) == 12


def test_cost_matches_a_per_cell_fraction_reference():
    """schedule_cost sums scaled integers; the fields must equal plain
    per-cell Fraction sums, including fractional prices and power."""
    rng = random.Random(808)
    for power in (None, "7.5", Fraction(7, 3)):
        for _ in range(40):
            nb, T = rng.randint(1, 6), rng.randint(1, 16)
            cfg = StationConfig(nb, 2, 3, Fraction(10), T, charge_power_kw=power)
            grid = ScheduleGrid(tuple("".join(rng.choice("ECCFO") for _ in range(T)) for _ in range(nb)))
            price = [rng.choice((Fraction(rng.randint(0, 9), rng.randint(1, 7)), "5/6", "0.25", 3)) for _ in range(T)]
            per_hour = [Fraction(0)] * T
            per_battery = [Fraction(0)] * nb
            cells = 0
            for b, row in enumerate(grid.rows):
                for t, cell in enumerate(row):
                    if cell == "C":
                        per_hour[t] += Fraction(price[t]) * cfg.power_kw
                        per_battery[b] += Fraction(price[t]) * cfg.power_kw
                        cells += 1
            cost = schedule_cost(grid, cfg, price)
            assert cost.per_hour == tuple(per_hour)
            assert cost.per_battery == tuple(per_battery)
            assert cost.total == sum(per_hour)
            assert cost.energy_kwh == cfg.power_kw * cells
            assert all(type(x) is Fraction for x in (cost.total, cost.energy_kwh, *cost.per_hour, *cost.per_battery))


# ---------------------------------------------------------------------------
# Greedy
# ---------------------------------------------------------------------------


def test_greedy_demo_grid_matches_the_reference_except_b6(demo, demo_greedy):
    _, reference = demo
    expected = reference.with_cell(6, 15, "E").with_cell(6, 16, "E")
    assert demo_greedy == expected


def test_greedy_demo_charge_starts(demo_greedy):
    assert charge_starts(demo_greedy) == {
        1: 5, 2: 6, 3: 7, 4: 13, 5: 14, 6: 17,
        7: 21, 8: 22, 9: 24, 10: 7, 11: 11, 12: 12,
    }


def test_greedy_demo_swap_sequence(demo_greedy):
    assert swap_sequence(demo_greedy) == [
        (2, 4), (5, 5), (7, 6), (11, 7), (13, 8), (14, 9), (19, 1), (21, 2), (23, 3),
    ]


def test_greedy_tiny_cycle():
    cfg = StationConfig(1, 1, 2, Fraction(10), 4)
    initial = InitialConditions((BatteryStart(state=E),))
    events = EventProfiles((0, 0, 0, 1), (0,) * 4, (Fraction(1),) * 4)
    grid = solve_greedy(Instance(cfg, initial, events))
    assert grid.rows[0] == "CCFO"


def test_greedy_infeasible_demand_carries_first_failing_hour():
    cfg = StationConfig(1, 1, 2, Fraction(10), 4)
    initial = InitialConditions((BatteryStart(state=E),))
    events = EventProfiles((0, 1, 0, 0), (0,) * 4, (Fraction(1),) * 4)
    with pytest.raises(InfeasibleError) as exc:
        solve_greedy(Instance(cfg, initial, events))
    assert exc.value.hour == 2


def test_greedy_infeasible_arrival_without_out_battery():
    cfg = StationConfig(1, 1, 2, Fraction(10), 4)
    initial = InitialConditions((BatteryStart(state=E),))
    events = EventProfiles((0, 0, 0, 0), (0, 1, 0, 0), (Fraction(1),) * 4)
    with pytest.raises(InfeasibleError) as exc:
        solve_greedy(Instance(cfg, initial, events))
    assert exc.value.hour == 2


def test_the_realisation_raises_its_errors_in_event_order():
    """Within an hour the realisation checks arrivals, then the chargers, then
    the swaps, and each error carries its hour and its message."""
    from collections import Counter

    from swapsched.solver import _simulate

    def station(n_chargers, starts, demand, arrivals):
        cfg = StationConfig(len(starts), n_chargers, 2, Fraction(10), 4)
        events = EventProfiles(demand, arrivals, (Fraction(1),) * 4)
        return Instance(cfg, InitialConditions(tuple(starts)), events)

    def error(instance, n_starts):
        with pytest.raises(InfeasibleError) as exc:
            _simulate(instance, n_starts)
        return exc.value.hour, str(exc.value)

    # Hour 1: two continuations on one charger, a swap and an arrival.
    on_charger = [BatteryStart(state=C), BatteryStart(state=C, progress=1), BatteryStart(state=O)]
    cases = [
        (station(1, on_charger, (1, 0, 0, 0), (1, 0, 0, 0)), (1, "arrivals cannot land at hour 1")),
        (station(1, on_charger, (1, 0, 0, 0), (0, 0, 0, 0)), (1, "2 concurrent charges at hour 1")),
        (station(2, on_charger, (1, 0, 0, 0), (0, 0, 0, 0)), (1, "demand at hour 1 can never be served")),
    ]
    for instance, expected in cases:
        assert error(instance, Counter()) == expected
        with pytest.raises(InfeasibleError) as exc:
            solve_greedy(instance)
        assert (exc.value.hour, str(exc.value)) == expected

    # A later hour: two starts on one charger and a swap no battery can serve.
    later = station(1, [BatteryStart(state=E), BatteryStart(state=E)], (0, 1, 0, 0), (0, 0, 0, 0))
    assert error(later, Counter({2: 2})) == (2, "2 concurrent charges at hour 2")
    shortfall = (2, "demand 1 at hour 2, only 0 fully-charged batteries available")
    assert error(later, Counter({2: 1})) == shortfall
    assert error(later, Counter()) == shortfall


def test_greedy_counts_stay_at_zero_while_continuations_outnumber_the_chargers():
    """Two batteries continue a 2-hour charge on one charger, so the chargers
    the continuations leave number fewer than none at hours 1 and 2.  The
    counts stay at 0 there, the empty battery starts at hour 3, and greedy
    refuses hour 1, where the realisation finds two charges on one charger."""
    from swapsched.model import _fifo_counts, _hour_tables

    instance = Instance(
        StationConfig(3, 1, 2, Fraction(10), 4),
        InitialConditions((BatteryStart(state=C), BatteryStart(state=C), BatteryStart(state=E))),
        EventProfiles((0,) * 4, (0,) * 4, (Fraction(1),) * 4),
    )
    _, room, opened, _ = _hour_tables(instance.config, instance.initial, instance.events.arrivals)
    assert _fifo_counts(instance.config, room, opened) == [0, 0, 0, 1, 1]
    with pytest.raises(InfeasibleError) as exc:
        solve_greedy(instance)
    assert (exc.value.hour, str(exc.value)) == (1, "2 concurrent charges at hour 1")


def test_greedy_never_exceeds_capacity(demo, demo_greedy):
    instance, _ = demo
    for t in range(1, 25):
        assert demo_greedy.count(C, t) <= instance.config.n_chargers


# Each case puts batteries into one FIFO queue in the same hour, in an order
# other than their index, so a queue that took that order unsorted would
# realise a different grid.
FIFO_CASES = {
    # B2 (rank 1) goes out at hour 2, B1 at hour 3; both land at hour 4, and
    # B1 takes the one charger first.
    "landed-arrivals-wait-by-index": (
        StationConfig(2, 1, 2, Fraction(10), 8),
        (BatteryStart(state=F, full_rank=2), BatteryStart(state=F, full_rank=1)),
        (0, 1, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 2, 0, 0, 0, 0),
        ("FFOECCFF", "FOOEEECC"),
    ),
    # B2's continuation is filed under hour 3 before B1's hour-1 start, so
    # both turn full at hour 3.  The swaps of hour 4 take B3, full from the
    # start, then B1; both go out at hour 4 and B1, by index, lands first.
    "finished-charges-and-swaps-by-index": (
        StationConfig(3, 2, 2, Fraction(10), 8),
        (BatteryStart(state=E), BatteryStart(state=C), BatteryStart(state=F, full_rank=1)),
        (0, 0, 0, 2, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 0),
        ("CCFOOECC", "CCFFFFFF", "FFFOOOOO"),
    ),
    # Ranks 3, 1, 2: the swaps take B2, then B3, then B1.
    "initial-full-by-rank": (
        StationConfig(3, 1, 1, Fraction(10), 5),
        tuple(BatteryStart(state=F, full_rank=r) for r in (3, 1, 2)),
        (0, 1, 1, 1, 0),
        (0,) * 5,
        ("FFFOO", "FOOOO", "FFOOO"),
    ),
}


@pytest.mark.parametrize("method", ["greedy", "exact"])
@pytest.mark.parametrize("case", FIFO_CASES.values(), ids=FIFO_CASES)
def test_the_realisation_keeps_each_queue_in_fifo_order(case, method):
    cfg, starts, demand, arrivals, rows = case
    instance = Instance(cfg, InitialConditions(starts), EventProfiles(demand, arrivals, (Fraction(1),) * cfg.horizon))
    grid = solve_greedy(instance) if method == "greedy" else solve_exact(instance)[0]
    assert grid.rows == rows
    assert validate(grid, instance, "strict").feasible


# ---------------------------------------------------------------------------
# Exact and oracle
# ---------------------------------------------------------------------------


def test_valley_exact_beats_greedy():
    instance = make_valley()
    greedy = solve_greedy(instance)
    greedy_cost = schedule_cost(greedy, instance.config, instance.events.price)
    exact_grid, exact_cost = solve_exact(instance)
    assert greedy.rows[0] == "CCFFFO"
    assert exact_grid.rows[0] == "EECCFO"
    assert greedy_cost.total == Fraction(200)
    assert exact_cost.total == Fraction(20)
    oracle_grid, oracle_cost = solve_oracle(instance)
    assert oracle_grid == exact_grid
    assert oracle_cost.total == exact_cost.total


def test_exact_demo_defers_hopeless_charges(demo, demo_greedy):
    """Arrivals after hour 19 can never finish a six-hour charge, so the cost
    optimum pushes their truncated runs to the end of the horizon."""
    instance, _ = demo
    grid, cost = solve_exact(instance)
    greedy_cost = schedule_cost(demo_greedy, instance.config, instance.events.price)
    assert cost.total == Fraction(1300)
    assert cost.total < greedy_cost.total == Fraction(4150, 3)
    assert validate(grid, instance, "strict").feasible
    # the three late returners charge only in the final hour
    assert charge_starts(grid)[7] == 24
    assert charge_starts(grid)[8] == 24
    assert charge_starts(grid)[9] == 24


def test_exact_feasibility_objective_returns_the_greedy_schedule(demo, demo_greedy):
    instance, _ = demo
    grid, cost = solve_exact(instance, SolveObjective.FEASIBILITY)
    assert grid == demo_greedy
    assert cost.total == Fraction(4150, 3)


def test_mandatory_charging_is_scheduled_even_without_demand():
    # one empty battery, no demand: its charge still runs, in the cheap block
    cfg = StationConfig(1, 1, 2, Fraction(10), 4, charge_power_kw=Fraction(5))
    initial = InitialConditions((BatteryStart(state=E),))
    events = EventProfiles((0,) * 4, (0,) * 4, tuple(Fraction(p) for p in (9, 9, 1, 1)))
    grid, cost = solve_exact(Instance(cfg, initial, events))
    assert grid.rows[0] == "EECC"
    assert cost.total == Fraction(10)


def test_a_charge_longer_than_the_horizon_runs_where_its_truncated_block_is_cheapest():
    # The block prices once padded the hourly prices with charge_hours zeros,
    # so a charge_hours of 2**64 raised OverflowError, an internal error.
    for hours in (5, 2**64):
        cfg = StationConfig(1, 1, hours, Fraction(10), 4, charge_power_kw=Fraction(5))
        initial = InitialConditions((BatteryStart(state=E),))
        events = EventProfiles((0,) * 4, (0,) * 4, tuple(Fraction(p) for p in (1, 9, 1, 9)))
        grid, cost = solve_exact(Instance(cfg, initial, events))
        assert grid.rows[0] == "EEEC"
        assert cost.total == 45


def test_job_free_instance_costs_nothing():
    cfg = StationConfig(2, 1, 2, Fraction(4), 4)
    initial = InitialConditions((BatteryStart(state=F, full_rank=1), BatteryStart(state=O)))
    events = EventProfiles((0,) * 4, (0,) * 4, (Fraction(3),) * 4)
    grid, cost = solve_exact(Instance(cfg, initial, events))
    assert cost.total == 0
    assert grid.count(C, 1) == 0
    assert grid.rows == ("FFFF", "OOOO")


def test_truncated_continuation_rides_out_the_horizon():
    cfg = StationConfig(1, 1, 6, Fraction(12), 3)
    initial = InitialConditions((BatteryStart(state=C, progress=1),))
    events = EventProfiles((0,) * 3, (0,) * 3, (Fraction(1),) * 3)
    instance = Instance(cfg, initial, events)
    for solver in (solve_greedy, lambda i: solve_exact(i)[0], lambda i: solve_oracle(i)[0]):
        grid = solver(instance)
        assert grid.rows[0] == "CCC"
        assert validate(grid, instance, "strict").feasible


def test_realisation_files_each_charge_under_the_hour_it_turns_full():
    """Charges are tracked by the hour they turn full, T + 1 for those the
    horizon ends.  B2 waits for B1's charger and runs hours 3-5, a block
    that ends exactly at the last hour; B5 returns at hour 4 and its block,
    started at hour 5, is cut off by the horizon.  Both hold a charger to
    the end, and at hour 5 they fill both chargers."""
    instance = Instance(
        StationConfig(5, 2, 3, Fraction(30), 5),
        InitialConditions(
            (BatteryStart(state=C, progress=1), BatteryStart(state=E),
             BatteryStart(state=F, full_rank=1), BatteryStart(state=C),
             BatteryStart(state=O))
        ),
        EventProfiles((0, 0, 0, 1, 0), (0, 0, 0, 1, 0), (Fraction(1),) * 5),
    )
    grid = solve_greedy(instance)
    assert grid.rows == ("CCFFF", "EECCC", "FFFOO", "CCCFF", "OOOEC")
    assert validate(grid, instance, "strict").feasible


def test_the_realisation_prices_each_charge_and_counts_each_hours_chargers_as_it_writes():
    """B1 charges twice: hours 1-2, then, after a swap at hour 4 and its
    return at hour 5, from hour 7, where the horizon cuts the block off.  B2
    finishes its continuation at hour 2.  The realisation's cost, in every
    field, is the one ``schedule_cost`` reads off the grid, and each field is
    written here by hand, at a charge power of 5/2 kW."""
    from swapsched.solver import _simulate

    price = tuple(map(Fraction, ("1/2", "3", "7/3", "4", "1/6", "2", "5/4")))
    instance = Instance(
        StationConfig(2, 2, 2, Fraction(5), 7, charge_power_kw=Fraction(5, 2)),
        InitialConditions((BatteryStart(state=E), BatteryStart(state=C))),
        EventProfiles((0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0), price),
    )
    grid, cost = _simulate(instance, [0, 1, 0, 0, 0, 0, 0, 1])
    assert grid.rows == ("CCFOEEC", "CCFFFFF")
    assert cost == schedule_cost(grid, instance.config, price)  # every field
    kw = Fraction(5, 2)
    assert cost.per_battery == ((price[0] + price[1] + price[6]) * kw, (price[0] + price[1]) * kw)
    assert cost.per_battery == (Fraction(95, 8), Fraction(35, 4))
    assert cost.per_hour == (Fraction(5, 2), 15, 0, 0, 0, 0, Fraction(25, 8))
    assert (cost.total, cost.energy_kwh) == (Fraction(165, 8), Fraction(25, 2))


def test_swaps_wait_for_charges_finishing_in_their_own_hour():
    """B1 and B2 turn full at hour 3; a swap at hour 3 can take only B3, the
    one battery full before it, and at hour 4 it takes B3, then B1."""
    config = StationConfig(3, 2, 2, Fraction(20), 6)
    initial = InitialConditions(
        (BatteryStart(state=E), BatteryStart(state=E), BatteryStart(state=F, full_rank=1))
    )
    events = EventProfiles((0, 0, 0, 2, 0, 0), (0,) * 6, (Fraction(1),) * 6)
    grid = solve_greedy(Instance(config, initial, events))
    assert grid.rows == ("CCFOOO", "CCFFFF", "FFFOOO")
    events = EventProfiles((0, 0, 2, 0, 0, 0), (0,) * 6, (Fraction(1),) * 6)
    with pytest.raises(InfeasibleError) as exc:
        solve_greedy(Instance(config, initial, events))
    assert exc.value.hour == 3
    assert str(exc.value) == "demand 2 at hour 3, only 1 fully-charged batteries available"


def test_exact_infeasibility_matches_greedy_proof():
    cfg = StationConfig(1, 1, 2, Fraction(10), 4)
    initial = InitialConditions((BatteryStart(state=E),))
    events = EventProfiles((0, 1, 0, 0), (0,) * 4, (Fraction(1),) * 4)
    instance = Instance(cfg, initial, events)
    with pytest.raises(InfeasibleError) as exc:
        solve_exact(instance)
    assert exc.value.hour == 2
    with pytest.raises(InfeasibleError):
        solve_oracle(instance)


def test_oracle_budget_guard(demo):
    instance, _ = demo
    with pytest.raises(EnumerationBudgetError) as exc:
        solve_oracle(instance, budget=1000)
    assert exc.value.budget == 1000
    assert exc.value.size > 1000


def test_the_oracle_realises_one_vector_per_class_of_interchangeable_starts():
    """Three batteries empty at hour 1, each free to start at hours 1 to 4:
    64 start vectors, which fall into 20 multisets of start hours.  The
    realisation reads only start counts, so the oracle realises each
    multiset once, and still counts 64 vectors against its budget."""
    instance = Instance(
        StationConfig(3, 3, 2, Fraction(10), 5),
        InitialConditions((BatteryStart(state=E),) * 3),
        EventProfiles((0,) * 5, (0,) * 5, (Fraction(1),) * 5),
    )
    realised, realise = [], exact._simulate

    def noted(*args):
        realised.append(args[1])
        return realise(*args)

    with mock.patch.object(exact, "_simulate", noted):
        solved = solve_oracle(instance)
    assert solved == solve_exact(instance)
    assert len(realised) == 20
    assert len({tuple(sorted(counts.items())) for counts in realised}) == 20
    with pytest.raises(EnumerationBudgetError) as exc:
        solve_oracle(instance, budget=63)
    assert exc.value.size == 64


def test_a_search_space_too_large_to_print_is_still_refused_by_its_budget():
    """Python converts no integer of more than 4,300 digits to text, so the
    refusal shows a power of ten the size exceeds and keeps the size exact."""
    with pytest.raises(EnumerationBudgetError) as exc:
        solve_oracle(huge_search_space())
    assert exc.value.size == 500**2_000
    assert str(exc.value) == (
        "enumeration would visit more than 10**5397 start vectors, exceeding the budget of 200000"
    )


def test_solvers_are_deterministic(demo, valley):
    instance, _ = demo
    a = render_grid(solve_greedy(instance))
    b = render_grid(solve_greedy(instance))
    assert a == b
    g1, c1 = solve_exact(valley)
    g2, c2 = solve_exact(valley)
    assert render_grid(g1) == render_grid(g2)
    assert c1.to_json() == c2.to_json()


def check_exact_against_oracle(instance: Instance) -> bool:
    """Exact and oracle return the same grid and cost, or both refuse; True when solved."""
    try:
        exact_grid, exact_cost = solve_exact(instance)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_oracle(instance, budget=50_000)
        return False
    oracle_grid, oracle_cost = solve_oracle(instance, budget=50_000)
    assert exact_cost.total == oracle_cost.total
    assert exact_grid == oracle_grid  # identical tie-breaking, not just equal cost
    assert validate(exact_grid, instance, "strict").feasible
    return True


def tie_break_instance() -> Instance:
    """Greedy's start vector already costs the optimum, 530/3, but the
    lexicographically earliest optimum charges B2 at hour 6 rather than B1."""
    prices = "9 0 3 0 3/2 8/3 3 3 9/2 8 6".split()
    return Instance(
        StationConfig(3, 1, 1, Fraction(10), 11),
        InitialConditions(
            (BatteryStart(state=E), BatteryStart(state=F, full_rank=1), BatteryStart(state=C, progress=0))
        ),
        EventProfiles(
            (0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0),
            tuple(Fraction(p) for p in prices),
        ),
    )


def test_prescribed_starts_go_to_the_longest_waiting_batteries():
    """Exact and the oracle hand each hour's starts out like greedy does.  B1,
    B2 and B3 all return at hour 3, so they queue by battery index, not in
    the order they went out (B2 and B3 before B1)."""
    instance = Instance(
        StationConfig(4, 1, 1, Fraction(1), 8),
        InitialConditions(
            (BatteryStart(state=F, full_rank=1), BatteryStart(state=O),
             BatteryStart(state=O), BatteryStart(state=F, full_rank=4))
        ),
        EventProfiles(
            (0, 1, 0, 0, 1, 1, 1, 0),
            (0, 0, 3, 0, 0, 0, 0, 0),
            tuple(Fraction(p) for p in "0 1 6 3 1 2 0 2".split()),
        ),
    )
    for grid, cost in (solve_exact(instance), solve_oracle(instance)):
        assert charge_starts(grid) == {1: 4, 2: 5, 3: 7}
        assert cost.total == 4
        assert validate(grid, instance, "strict").feasible


@pytest.mark.xfail(
    strict=True, raises=InfeasibleError,
    reason="known gap: greedy truncates a charge that exact must run in full",
)
def test_exact_solves_what_greedy_solves():
    """Two empty batteries, one charger, three-hour charges, four hours.
    Greedy charges B1 at hours 1-3 and B2 truncated at hour 4, a strictly
    valid grid; exact and the oracle require both full blocks and refuse."""
    instance = Instance(
        StationConfig(2, 1, 3, Fraction(10), 4),
        InitialConditions((BatteryStart(state=E), BatteryStart(state=E))),
        EventProfiles((0,) * 4, (0,) * 4, (Fraction(1),) * 4),
    )
    assert validate(solve_greedy(instance), instance, "strict").feasible
    solve_exact(instance)


def random_unrepaired_instance(rng: random.Random, nb: int, m: int, T: int) -> Instance | None:
    """Built directly (no generator repairs), so demand can land before any
    battery could be ready and arrivals can outrun the out-pool.  None when
    more batteries start on a charger than there are chargers."""
    D = rng.randint(1, 3)
    entries = []
    for b in range(nb):
        s = rng.choice("ECFO")
        if s == "C":
            entries.append(BatteryStart(state=C, progress=rng.randrange(D)))
        elif s == "F":
            entries.append(BatteryStart(state=F, full_rank=b + 1))
        else:
            entries.append(BatteryStart(state=BatteryState(s)))
    if sum(1 for e in entries if e.state is C) > m:
        return None
    demand = [0] + [1 if rng.random() < 0.3 else 0 for _ in range(T - 1)]
    arrivals = [0] + [1 if rng.random() < 0.3 else 0 for _ in range(T - 1)]
    price = [Fraction(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(T)]
    return Instance(
        StationConfig(nb, m, D, Fraction(10), T),
        InitialConditions(tuple(entries)),
        EventProfiles(tuple(demand), tuple(arrivals), tuple(price)),
    )


def test_exact_matches_oracle_on_unrepaired_random_instances():
    """Exhaustive cross-check on instances that may be infeasible or tight."""
    assert check_exact_against_oracle(tie_break_instance())
    rng = random.Random(1337)
    feasible = infeasible = 0
    while feasible < 12 or infeasible < 6:
        nb = rng.randint(1, 2)
        instance = random_unrepaired_instance(rng, nb, 1, rng.randint(4, 8))
        if instance is None:
            continue
        if check_exact_against_oracle(instance):
            feasible += 1
        else:
            infeasible += 1


def test_exact_proves_infeasibility_with_greedys_hour_and_message():
    """solve_exact runs greedy only after its own solve fails, and must then
    raise exactly what greedy raises: the first failing hour and its reason."""
    rng = random.Random(4242)
    infeasible = 0
    while infeasible < 300:
        nb, m = rng.randint(1, 6), rng.randint(1, 3)
        instance = random_unrepaired_instance(rng, nb, m, rng.randint(4, 16))
        if instance is None:
            continue
        try:
            solve_greedy(instance)
        except InfeasibleError as proof:
            infeasible += 1
            for objective in SolveObjective:
                with pytest.raises(InfeasibleError) as exc:
                    solve_exact(instance, objective)
                assert (exc.value.hour, str(exc.value)) == (proof.hour, str(proof))


def test_exact_matches_oracle_on_generated_instances():
    for seed in range(20):
        spec = ScenarioSpec(
            config=StationConfig(1 + seed % 3, 1 + seed % 2, 2, Fraction(10), 8),
            demand=UniformShape(total=seed % 4),
            arrivals=UniformShape(total=(seed + 1) % 3),
            tariff=FlatTariff(price=Fraction(seed % 5, 2) if seed % 5 else 1),
            seed=seed,
        )
        instance = generate(spec)
        exact_grid, exact_cost = solve_exact(instance)
        oracle_grid, oracle_cost = solve_oracle(instance, budget=50_000)
        assert exact_cost.total == oracle_cost.total
        assert exact_grid == oracle_grid


def milp_optimum(instance: Instance) -> int:
    """Minimum cost over the movable jobs, in units of power / lcm(price denominators),
    from a per-job, per-start-hour binary program solved by scipy's MILP solver."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    cfg = instance.config
    T, D = cfg.horizon, cfg.charge_hours
    scale = math.lcm(*(p.denominator for p in instance.events.price))
    price = [int(p * scale) for p in instance.events.price]
    jobs = build_jobs(instance)
    columns = [(j, s) for j in jobs if j.movable for s in start_domain(j, cfg)]
    busy = [0] * (T + 1)
    full = [instance.initial.count(F)] * (T + 1)  # full by hour t from start stock and fixed jobs
    for j in jobs:
        if not j.movable:
            for h in range(1, T + 1):
                busy[h] += h <= j.duration
                full[h] += h >= j.duration + 1
    rows, lower, upper = [], [], []
    for job in (j for j in jobs if j.movable and start_domain(j, cfg)):
        rows.append([1 if j is job else 0 for j, _ in columns])
        lower.append(1)
        upper.append(1)
    for h in range(1, T + 1):
        rows.append([1 if s <= h <= s + D - 1 else 0 for _, s in columns])
        lower.append(-np.inf)
        upper.append(cfg.n_chargers - busy[h])
    for t in range(2, T + 1):  # swaps at t take batteries full at t - 1
        rows.append([1 if s + D <= t - 1 else 0 for _, s in columns])
        lower.append(sum(instance.events.demand[:t]) - full[t - 1])
        upper.append(np.inf)
    result = optimize.milp(
        c=[sum(price[s - 1:s + D - 1]) for _, s in columns],
        constraints=optimize.LinearConstraint(np.array(rows), lower, upper),
        integrality=np.ones(len(columns)),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.success, result.message
    return round(result.fun)


def test_exact_matches_an_independent_milp_beyond_the_oracle(monkeypatch):
    """Stations the oracle cannot enumerate and the old branch-and-bound often
    did not finish: 16-24 batteries over a day of time-of-use prices.  Most
    of them take the relaxation and some overload a charger there and take
    the flow; both paths must be checked."""
    paths = []
    real = exact._relaxed_starts
    monkeypatch.setattr(exact, "_relaxed_starts", lambda *args: paths.append(real(*args)) or paths[-1])
    checked = 0
    for seed in range(7):
        for batteries, chargers in ((16, 4), (20, 5), (24, 6)):
            spec = ScenarioSpec(
                config=StationConfig(batteries, chargers, 4, Fraction(60), 24),
                demand=UniformShape(total=batteries // 4),
                arrivals=UniformShape(total=batteries // 4),
                tariff=TouTariff(off_peak="0.5", peak=4, peak_hours=((8, 11), (18, 21))),
                seed=seed,
            )
            instance = generate(spec)
            grid, cost = solve_exact(instance)
            assert validate(grid, instance, "strict").feasible
            fixed = sum(
                sum(instance.events.price[:j.duration]) for j in build_jobs(instance) if not j.movable
            )
            scale = math.lcm(*(p.denominator for p in instance.events.price))
            power = instance.config.power_kw
            assert (cost.total / power - fixed) * scale == milp_optimum(instance)
            checked += 1
    assert checked >= 20
    assert any(p is None for p in paths) and any(p is not None for p in paths)


def test_largest_optimal_potentials_match_brute_force():
    """Random difference-constraint systems on up to five nodes.  Arcs from and
    to node 0 box every y[v] into [lo, hi], so the integer points can be
    enumerated: the solver's y must be optimal and componentwise at least every
    optimal y, and a system whose other arcs contradict each other or the boxes
    must raise InfeasibleError."""
    rng = random.Random(8)
    feasible = infeasible = 0
    for _ in range(150):
        n = rng.randint(2, 5)
        arcs, boxes = [], []
        for v in range(1, n):
            lo = rng.randint(-2, 1)
            hi = lo + rng.randint(0, 3)
            arcs += [(0, v, hi), (v, 0, -lo)]
            boxes.append(range(lo, hi + 1))
        for _ in range(rng.randint(0, n + 1)):
            u, v = rng.sample(range(n), 2)
            arcs.append((u, v, rng.randint(-2, 3)))
        weight = [0] + [rng.randint(-4, 4) for _ in range(n - 1)]
        boxed = ((0, *y) for y in itertools.product(*boxes))
        points = [y for y in boxed if all(y[v] <= y[u] + w for u, v, w in arcs)]
        if not points:
            infeasible += 1
            with pytest.raises(InfeasibleError):
                exact._largest_optimal_potentials(n, arcs, weight)
            continue
        feasible += 1
        value = {y: sum(c * x for c, x in zip(weight, y)) for y in points}
        best = min(value.values())
        got = tuple(exact._largest_optimal_potentials(n, arcs, weight))
        assert value.get(got) == best
        assert all(a >= b for y in points if value[y] == best for a, b in zip(got, y))
    assert feasible >= 80 and infeasible >= 30


def test_flow_runs_one_bellman_ford_per_distance_level(monkeypatch, demo):
    """The flow runs one Bellman-Ford per primal-dual phase and one more for the
    potentials.  Successive shortest paths ran one per augmentation: 8 on the
    demo and 14 on the 24-battery station below.  Phases that pushed only to
    the nearest deficits, through a super source and sink, ran 5 and 6.  The
    24-battery station fits the relaxation, so the relaxation is made to
    report an overload and the flow runs on both."""
    monkeypatch.setattr(exact, "_relaxed_starts", lambda *args: None)
    calls = []
    real = exact._shortest_paths
    monkeypatch.setattr(exact, "_shortest_paths", lambda *args: calls.append(args) or real(*args))
    station = ScenarioSpec(
        config=StationConfig(24, 6, 4, Fraction(60), 24),
        demand=UniformShape(total=6),
        arrivals=UniformShape(total=6),
        tariff=TouTariff(off_peak="0.5", peak=4, peak_hours=((8, 11), (18, 21))),
        seed=0,
    )
    counts = []
    for instance in (demo[0], generate(station)):
        calls.clear()
        solve_exact(instance)
        counts.append(len(calls))
    assert counts == [3, 4]


def station(states: str, chargers: int, charge_hours: int, demand, price) -> Instance:
    """Batteries that start empty, out or on a charger from its first hour,
    with the given swaps and prices per hour and no arrivals."""
    T = len(demand)
    return Instance(
        StationConfig(len(states), chargers, charge_hours, Fraction(10), T),
        InitialConditions(tuple(BatteryStart(BatteryState(s)) for s in states)),
        EventProfiles(tuple(demand), (0,) * T, tuple(map(Fraction, price))),
    )


def cheapest_starts(instance: Instance) -> list[int]:
    return exact._cheapest_starts(instance)


def test_starts_that_fit_the_chargers_never_run_the_flow(monkeypatch):
    """Two empty batteries on two chargers, two-hour blocks, one swap at hour 6:
    the first block starts by hour 3, the second by hour 5.  Blocks started
    at hours 2, 3 and 4 cost 2 each, so both go to hour 2, the earliest."""
    monkeypatch.setattr(exact, "_largest_optimal_potentials", None)  # any call fails
    instance = station("EE", 2, 2, demand=(0, 0, 0, 0, 0, 1), price=(3, 1, 1, 1, 1, 3))
    assert cheapest_starts(instance) == [0, 0, 2, 0, 0, 0, 0]
    assert solve_exact(instance)[0].rows == ("ECCFFO", "ECCFFF")


def test_starts_that_overload_a_charger_run_the_flow(monkeypatch):
    """Two empty batteries on one charger: a block at hour 3 costs 2, the
    least, so both blocks go there and hold the one charger twice at hour 3.
    The flow then spaces them out, to the earliest of the three pairs at
    cost 10."""
    calls = []
    real = exact._largest_optimal_potentials
    monkeypatch.setattr(exact, "_largest_optimal_potentials", lambda *args: calls.append(args) or real(*args))
    instance = station("EE", 1, 2, demand=(0,) * 6, price=(4, 4, 1, 1, 4, 4))
    assert cheapest_starts(instance) == [0, 1, 0, 1, 0, 0, 0]
    assert len(calls) == 1


def test_starts_past_the_floors_go_to_the_earliest_free_hour():
    """Every start window closes by the horizon, so today the floor at hour T
    reaches the ceiling there; a floor below the ceiling (a bound that leaves
    some charges out) makes the later starts optional.  The first start is
    due by hour 3 and costs 0 at hour 2; the optional second and third open
    at hours 2 and 3 and are taken only at no cost, at hours 2 and 4."""
    D, floors, ceiling, room = 2, [0, 0, 0, 1, 1, 1, 1], [0, 1, 2, 3, 3, 3, 3], [2] * 7
    assert exact._relaxed_starts(D, floors, ceiling, room, [0, 3, 0, 2, 0, 0, 5]) == [0, 0, 2, 0, 1, 0, 0]
    assert exact._relaxed_starts(D, floors, ceiling, room, [0, 3, 0, 2, 1, 1, 5]) == [0, 0, 2, 0, 0, 0, 0]


def test_the_relaxation_checks_the_chargers_in_one_pass():
    """A start due every 4th hour over 80,000 hours, one-hour blocks and one
    charger: each pick is checked against a running count of the blocks
    already off the chargers, so the check takes one pass in all."""
    T = 80_000
    bounds = [t // 4 for t in range(T + 1)]
    start = time.perf_counter()
    starts = exact._relaxed_starts(1, bounds, bounds, [1] * (T + 1), [0] * (T + 1))
    assert time.perf_counter() - start < 2
    assert starts == [int(t > 0 and t % 4 == 0) for t in range(T + 1)]


def test_the_relaxation_finds_each_cheapest_hour_in_one_pass():
    """Ceilings that climb by one start an hour over 80,000 hours, floors
    that stay at 0 until hour T, and one cost everywhere: each start's window
    runs from its own hour to hour T, and a sliding minimum finds each pick
    without scanning its window again, so the picks take one pass in all."""
    T = 80_000
    ceiling, floors = list(range(T + 1)), [0] * T + [T]
    start = time.perf_counter()
    starts = exact._relaxed_starts(1, floors, ceiling, [1] * (T + 1), [1] * (T + 1))
    assert time.perf_counter() - start < 2
    assert starts == [0] + [1] * T


def test_the_relaxation_finds_each_free_hour_in_one_pass():
    """Ceilings that climb by one start an hour over 40,000 hours, floors at
    0 throughout and one free hour, the last: every start is optional, so
    each goes to the first free hour of its window, and a pointer that only
    moves forward finds it without scanning the costs from the window's
    start again, so the picks take one pass in all."""
    T = 40_000
    start = time.perf_counter()
    starts = exact._relaxed_starts(1, [0] * (T + 1), list(range(T + 1)), [T] * (T + 1), [0] + [1] * (T - 1) + [0])
    assert time.perf_counter() - start < 2
    assert starts == [0] * T + [T]


def test_a_floor_above_its_ceiling_refuses_as_the_flow_does_and_greedy_names_the_hour(monkeypatch):
    """A continuation holds the one charger through hour 2, so no block can
    start before hour 3, but the second swap at hour 4 needs one started by
    hour 1.  The relaxation refuses with the flow's error, without an hour,
    and without running the flow; ``solve_exact`` then raises greedy's proof."""
    instance = station("CE", 1, 2, demand=(0, 0, 0, 2), price=(1, 1, 1, 1))
    refusals = []
    for relaxed in (exact._relaxed_starts, lambda *args: None):
        monkeypatch.setattr(exact, "_relaxed_starts", relaxed)
        with pytest.raises(InfeasibleError) as refused:
            cheapest_starts(instance)
        refusals.append((refused.value.hour, str(refused.value)))
    assert refusals == [(None, "no arrangement of full charge blocks covers the demand")] * 2
    monkeypatch.undo()
    monkeypatch.setattr(exact, "_largest_optimal_potentials", None)  # any call fails
    with pytest.raises(InfeasibleError) as refused:
        solve_exact(instance)
    assert (refused.value.hour, str(refused.value)) == (
        4, "demand 2 at hour 4, only 1 fully-charged batteries available"
    )


# y[1] in [-1, 4], y[2] in [y[1], y[1] + 2] and [-3, 5]
THREE_NODES = [(0, 1, 4), (1, 0, 1), (1, 2, 2), (2, 1, 0), (0, 2, 5), (2, 0, 3)]


@pytest.mark.parametrize(
    "weight, largest",
    [
        ([0, 2, -1], [0, -1, 1]),  # node 0 takes a deficit of 1
        ([0, -2, 1], [0, 4, 4]),  # node 0 supplies 1
        ([0, 1, -1], [0, 3, 5]),  # node 0 balanced; y[1] - y[2] == -2 for y[1] in [-1, 3]
    ],
)
def test_flow_balances_node_0_either_way(weight, largest):
    assert exact._largest_optimal_potentials(3, THREE_NODES, weight) == largest


def test_zero_weights_run_no_phase_and_return_the_distances_from_0(monkeypatch):
    calls = []
    real = exact._shortest_paths
    monkeypatch.setattr(exact, "_shortest_paths", lambda *args: calls.append(args) or real(*args))
    assert exact._largest_optimal_potentials(3, THREE_NODES, [0, 0, 0]) == [0, 4, 5]
    assert len(calls) == 1


def test_a_negative_cycle_only_node_0_reaches_fails_the_last_bellman_ford(monkeypatch):
    """Node 1's excess reaches node 2's deficit without meeting the cycle
    0 -> 3 -> 0 of cost -1, so only the Bellman-Ford from node 0 finds it."""
    calls = []
    real = exact._shortest_paths
    monkeypatch.setattr(exact, "_shortest_paths", lambda *args: calls.append(args[2]) or real(*args))
    arcs = [(0, 1, 0), (0, 2, 0), (1, 2, 1), (0, 3, 1), (3, 0, -2)]
    with pytest.raises(InfeasibleError) as refused:
        exact._largest_optimal_potentials(4, arcs, [0, 1, -1, 0])
    assert calls == [[1], [0]]
    assert (refused.value.hour, str(refused.value)) == (
        None, "no arrangement of full charge blocks covers the demand"
    )


def test_largest_optimal_potentials_match_linprog():
    """Random 25-node systems shaped like ``_cheapest_starts``': y never falls
    (chain arcs), rises by at most a capacity over every D hours and stays in
    a box per hour.  scipy's LP solver finds the optimal value, then the
    largest ``sum(y)`` at that value, which is the componentwise-largest
    optimal ``y``; the vertices of these systems are integral."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(13)
    n = 25
    feasible = infeasible = 0
    for _ in range(100):
        D = rng.randint(1, 5)
        arcs = [(t, t - 1, 0) for t in range(1, n)]
        arcs += [(max(t - D, 0), t, rng.randint(0, 3)) for t in range(1, n)]
        low = high = 0
        for t in range(1, n):
            low += rng.random() < 0.3
            high = max(high + rng.randint(0, 1), low + rng.randint(0, 2))
            arcs += [(0, t, high), (t, 0, -low)]
        weight = [0] + [rng.randint(-5, 5) for _ in range(n - 1)]
        rows = np.zeros((len(arcs), n - 1))  # y[v] - y[u] <= w, with y[0] == 0 left out
        for i, (u, v, _) in enumerate(arcs):
            if v:
                rows[i, v - 1] += 1
            if u:
                rows[i, u - 1] -= 1
        bound = np.array([w for _, _, w in arcs], dtype=float)
        free = [(None, None)] * (n - 1)
        best = optimize.linprog(weight[1:], A_ub=rows, b_ub=bound, bounds=free)
        if best.status == 2:
            infeasible += 1
            with pytest.raises(InfeasibleError):
                exact._largest_optimal_potentials(n, arcs, weight)
            continue
        assert best.status == 0, best.message
        feasible += 1
        at_best = optimize.linprog(
            [-1] * (n - 1),
            A_ub=np.vstack([rows, weight[1:]]),
            b_ub=np.append(bound, best.fun + 1e-7),
            bounds=free,
        )
        assert at_best.status == 0, at_best.message
        got = exact._largest_optimal_potentials(n, arcs, weight)
        assert got == [0] + [round(x) for x in at_best.x]
    assert feasible >= 30 and infeasible >= 30


def random_station(rng: random.Random) -> Instance:
    """A station built directly, with no generator repairs: 1-6 batteries,
    1-3 chargers, 1-4-hour charges, 1-12 hours and price denominators 1-7.
    Demand and arrivals may fall at hour 1, and continuations may outnumber
    the chargers, so every refusal comes up."""
    nb, m, D, T = rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 12)
    entries = []
    for b in range(nb):
        s = rng.choice("ECFO")
        if s == "C":
            entries.append(BatteryStart(state=C, progress=rng.randrange(D)))
        elif s == "F":
            entries.append(BatteryStart(state=F, full_rank=b + 1))
        else:
            entries.append(BatteryStart(state=BatteryState(s)))
    odds = [0.03] + [0.2] * (T - 1)  # events at hour 1 refuse at once, so they are rare
    demand = [int(rng.random() < p) for p in odds]
    arrivals = [int(rng.random() < p) for p in odds]
    price = [Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(T)]
    return Instance(
        StationConfig(nb, m, D, Fraction(10), T),
        InitialConditions(tuple(entries)),
        EventProfiles(tuple(demand), tuple(arrivals), tuple(price)),
    )


def test_solver_outputs_are_pinned(monkeypatch, demo):
    """Every solver's answer, or refusal, on 2,000 random stations, the demo
    and the valley, as one digest: greedy's grid, ``_cheapest_starts`` through
    the relaxation and with the flow forced, ``solve_exact`` under both
    objectives with every cost field, and the oracle at a budget of 3,000.
    A change that is meant to leave every output as it was keeps the digest."""

    def outcome(solve, *args):
        try:
            out = solve(*args)
        except (InfeasibleError, EnumerationBudgetError) as refused:
            return type(refused).__name__, getattr(refused, "hour", None), str(refused)
        if isinstance(out, ScheduleGrid):
            return out.rows
        if isinstance(out, tuple):
            grid, cost = out
            return grid.rows, cost.total, cost.per_hour, cost.per_battery, cost.energy_kwh
        return out

    def flow_only(instance):
        with monkeypatch.context() as patched:
            patched.setattr(exact, "_relaxed_starts", lambda *args: None)
            return cheapest_starts(instance)

    rng = random.Random(2020)
    instances = [demo[0], make_valley()] + [random_station(rng) for _ in range(2_000)]
    digest = hashlib.sha256()
    for instance in instances:
        digest.update(repr((
            outcome(solve_greedy, instance),
            outcome(cheapest_starts, instance),
            outcome(flow_only, instance),
            *(outcome(solve_exact, instance, objective) for objective in SolveObjective),
            outcome(solve_oracle, instance, SolveObjective.MIN_COST, 3_000),
        )).encode())
    assert digest.hexdigest() == "623f39777295376247468e2a7de097bd8fbd61f136c1898f6d9d38ce39db1f8e"
