"""Property tests for the text format, the validator and the solvers (needs hypothesis)."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from swapsched import (
    BatteryStart,
    BatteryState,
    EnumerationBudgetError,
    EventProfiles,
    GridParseError,
    InfeasibleError,
    InitialConditions,
    Instance,
    ScheduleGrid,
    SolveObjective,
    StationConfig,
    build_jobs,
    cli,
    exact,
    format_exact,
    parse_grid,
    render_grid,
    save_instance,
    schedule_cost,
    solve_exact,
    solve_greedy,
    solve_oracle,
    solver,
    start_domain,
    to_exact,
    validate,
)
from swapsched.model import MAX_DIGITS, MAX_EXPONENT, _fifo_counts, _hour_tables
from swapsched.scenario import TouTariff, _place_units
from swapsched.solver import _simulate
from conftest import make_valley, readme_spec

STATES = list(BatteryState)
CYCLE = dict(zip("ECFO", "CFOE"))  # E->C->F->O->E

no_deadline = settings(deadline=None)  # first runs pay for imports and caches


def config(n_batteries: int, horizon: int) -> StationConfig:
    return StationConfig(n_batteries, 1, 1, Fraction(1), horizon)


@st.composite
def accepted_numbers(draw) -> Fraction:
    """A value ``to_exact`` accepts, read from "n/d" text.  The denominator is
    2**a * 5**b times another factor: a and b decide how many decimal places
    the value needs, up to 3,321 for a power of two below 10**MAX_EXPONENT."""
    denominator = 2 ** draw(st.integers(0, 3400)) * 5 ** draw(st.integers(0, 1500))
    denominator *= draw(st.sampled_from([1, 3, 7, 10**9 + 7]))
    assume(denominator <= 10**MAX_EXPONENT)
    bound = 10**MAX_DIGITS * denominator - 1
    return to_exact(f"{draw(st.integers(-bound, bound))}/{denominator}")


@no_deadline
@given(value=accepted_numbers())
@example(value=to_exact(f"1/{2**3321}"))
@example(value=to_exact(f"-1/{2**1001}"))
@example(value=to_exact(f"3/{5**1430}"))
@example(value=to_exact(f"1/{5**MAX_EXPONENT}"))
@example(value=to_exact(f"{10**MAX_DIGITS - 1}/{2**MAX_EXPONENT}"))
@example(value=to_exact("9" * MAX_DIGITS + "." + "9" * MAX_EXPONENT))
def test_every_accepted_number_reads_back_as_it_prints(value):
    text = format_exact(value)
    assert to_exact(text) == value
    if "/" not in text:
        assert len(text.partition(".")[2]) <= MAX_EXPONENT


@st.composite
def grids(draw, legal: bool):
    nb, T = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    if not legal:
        row = st.text(alphabet="ECFO", min_size=T, max_size=T)
        return ScheduleGrid(tuple(draw(st.lists(row, min_size=nb, max_size=nb))))
    rows = []
    for _ in range(nb):
        row = draw(st.sampled_from("ECFO"))
        for advance in draw(st.lists(st.booleans(), min_size=T - 1, max_size=T - 1)):
            row += CYCLE[row[-1]] if advance else row[-1]
        rows.append(row)
    return ScheduleGrid(tuple(rows))


# Text near the grid format reaches the deeper checks; any text covers the rest.
grid_like_text = st.text(alphabet="Hours:B0123456789 ECFOX\t\n\r", max_size=60)


@no_deadline
@given(text=st.one_of(st.text(max_size=60), grid_like_text),
       nb=st.integers(1, 3), horizon=st.integers(1, 4))
def test_parse_grid_raises_only_grid_parse_errors(text, nb, horizon):
    try:
        grid = parse_grid(text, config(nb, horizon))
    except GridParseError:
        return
    assert (grid.n_batteries, grid.horizon) == (nb, horizon)


@no_deadline
@given(grid=grids(legal=True))
def test_render_then_parse_is_the_identity_on_legal_grids(grid):
    assert parse_grid(render_grid(grid), config(grid.n_batteries, grid.horizon)) == grid


@no_deadline
@given(grid=grids(legal=False), data=st.data())
def test_hourly_counts_partition_the_fleet(grid, data):
    nb, T = grid.n_batteries, grid.horizon
    starts, rank = [], 0
    for state in data.draw(st.lists(st.sampled_from(STATES), min_size=nb, max_size=nb)):
        rank += state is BatteryState.FULL
        starts.append(BatteryStart(state, full_rank=rank if state is BatteryState.FULL else None))
    counts = st.lists(st.integers(0, 2), min_size=T, max_size=T)
    events = EventProfiles(tuple(data.draw(counts)), tuple(data.draw(counts)), (0,) * T)
    instance = Instance(config(nb, T), InitialConditions(tuple(starts)), events)
    report = validate(grid, instance, data.draw(st.sampled_from(("lenient", "strict"))))
    assert set(report.hourly) == {"E", "C", "F", "O"}
    for t in range(T):
        assert sum(report.hourly[k][t] for k in "ECFO") == nb
        for letter in "ECFO":
            assert report.hourly[letter][t] == sum(row[t] == letter for row in grid.rows)


# Rows of every kind the pricing's run search meets: any letters, runs at
# hour 1 and at the last hour, C then E or O (illegal moves), all C, no C.
def priced_rows(T: int):
    return st.one_of(
        st.text(alphabet="ECFO", min_size=T, max_size=T),
        st.text(alphabet="CE", min_size=T, max_size=T),
        st.text(alphabet="CO", min_size=T, max_size=T),
        st.just("C" * T),
        st.text(alphabet="EFO", min_size=T, max_size=T),
    )


@no_deadline
@given(data=st.data())
def test_schedule_cost_equals_a_per_cell_sum(data):
    nb, T = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    grid = ScheduleGrid(tuple(data.draw(priced_rows(T)) for _ in range(nb)))
    prices = [data.draw(st.fractions(0, 50, max_denominator=12)) for _ in range(T)]
    power = data.draw(st.fractions(Fraction(1, 9), 40, max_denominator=9))
    cfg = StationConfig(nb, 1, 1, Fraction(1), T, charge_power_kw=power)
    cells = [[power * p if letter == "C" else Fraction(0) for letter, p in zip(row, prices)]
             for row in grid.rows]
    cost = schedule_cost(grid, cfg, prices)
    assert cost.per_battery == tuple(sum(row, Fraction(0)) for row in cells)
    assert cost.per_hour == tuple(sum(column, Fraction(0)) for column in zip(*cells))
    assert cost.total == sum(map(sum, cells), Fraction(0))
    assert cost.energy_kwh == power * "".join(grid.rows).count("C")
    fields = (cost.total, cost.energy_kwh, *cost.per_hour, *cost.per_battery)
    assert all(type(x) is Fraction for x in fields)


PRICES = st.fractions(0, 6, max_denominator=2)


@st.composite
def instances(draw, max_batteries=5, max_charge=3, horizons=(4, 10), prices=PRICES):
    """Small stations built directly, with no generator repairs: demand may
    come before any battery is ready and arrivals may outrun the out-pool."""
    nb, m = draw(st.integers(1, max_batteries)), draw(st.integers(1, 3))
    D, T = draw(st.integers(1, max_charge)), draw(st.integers(*horizons))
    starts, rank = [], 0
    for state in draw(st.lists(st.sampled_from(STATES), min_size=nb, max_size=nb)):
        if state is BatteryState.CHARGING:
            starts.append(BatteryStart(state, progress=draw(st.integers(0, D - 1))))
        elif state is BatteryState.FULL:
            rank += 1
            starts.append(BatteryStart(state, full_rank=rank))
        else:
            starts.append(BatteryStart(state))
    per_hour = st.sampled_from((0, 0, 0, 0, 1))  # mostly quiet hours, so many instances are feasible
    counts = st.lists(per_hour, min_size=T - 1, max_size=T - 1).map(lambda c: (0, *c))
    price = st.lists(prices, min_size=T, max_size=T)
    events = EventProfiles(draw(counts), draw(counts), tuple(draw(price)))
    return Instance(StationConfig(nb, m, D, Fraction(10), T), InitialConditions(tuple(starts)), events)


def equal_to_the_oracle_or_too_large(instance, outcome) -> None:
    """The oracle, where it runs within a small budget, returns the same
    grid and cost, or refuses too.  Its count of start vectors, by release
    hour, is the product of its movable jobs' domain sizes."""
    domains = [start_domain(job, instance.config) or (None,) for job in build_jobs(instance) if job.movable]
    with pytest.raises(EnumerationBudgetError) as refused:
        solve_oracle(instance, budget=-1)
    assert refused.value.size == math.prod(map(len, domains))
    try:
        assert solve_oracle(instance, budget=2_000) == outcome
    except InfeasibleError:
        assert outcome is None
    except EnumerationBudgetError:
        pass


@no_deadline
@given(instance=instances())
def test_exact_is_valid_no_dearer_than_greedy_and_equals_the_oracle(instance):
    try:
        greedy = solve_greedy(instance)
    except InfeasibleError as proof:
        with pytest.raises(InfeasibleError) as exc:
            solve_exact(instance)
        assert (exc.value.hour, str(exc.value)) == (proof.hour, str(proof))
        equal_to_the_oracle_or_too_large(instance, None)
        return
    try:
        grid, cost = solve_exact(instance)
    except InfeasibleError:
        # The one way greedy succeeds where exact refuses: chargers are so busy
        # that greedy keeps a battery waiting through the last hour its charge
        # may start (hour T - D + 1 for a full block, hour T for any), then
        # charges it truncated or not at all.  Exact starts every charge, in
        # full wherever a full block could fit.
        T, D = instance.config.horizon, instance.config.charge_hours
        waits = [row[h - 2:h] == "EE" for row in greedy.rows for h in (T - D + 1, T)]
        assert any(waits)
        equal_to_the_oracle_or_too_large(instance, None)
        return
    assert validate(grid, instance, "strict").feasible
    assert cost.total <= schedule_cost(greedy, instance.config, instance.events.price).total
    equal_to_the_oracle_or_too_large(instance, (grid, cost))


def oracle_by_jobs(instance: Instance, objective: SolveObjective, budget: int):
    """The oracle stated one job at a time: the product of the movable jobs'
    ``start_domain``s (``(None,)`` where one is empty), each vector realised
    in full, the first strictly valid one kept under ``feasibility`` and the
    first strictly cheaper one otherwise."""
    domains = [start_domain(job, instance.config) or (None,) for job in build_jobs(instance) if job.movable]
    if math.prod(map(len, domains)) > budget:
        raise EnumerationBudgetError(math.prod(map(len, domains)), budget)
    best = None
    for vector in itertools.product(*domains):
        try:
            grid, cost = _simulate(instance, Counter(vector))
        except InfeasibleError:
            continue
        if not validate(grid, instance, "strict").feasible:
            continue
        if objective is SolveObjective.FEASIBILITY:
            return grid, cost
        if best is None or cost.total < best[1].total:
            best = (grid, cost)
    if best is None:
        solve_greedy(instance)
        raise InfeasibleError(None, "no start vector passes strict validation")
    return best


def outcome_of(solve, *args):
    """A solve's grid and cost, or its refusal as (type, message, hour, size)."""
    try:
        return solve(*args)
    except (InfeasibleError, EnumerationBudgetError) as refused:
        return type(refused), str(refused), getattr(refused, "hour", None), getattr(refused, "size", None)


@no_deadline
@given(instance=instances())
@example(instance=Instance(  # three interchangeable empty batteries, a cheap hour late in the window
    StationConfig(3, 2, 2, Fraction(10), 5),
    InitialConditions((BatteryStart(BatteryState.EMPTY),) * 3),
    EventProfiles((0, 0, 0, 0, 2), (0,) * 5, (Fraction(3), Fraction(2), Fraction(3), Fraction(1), Fraction(2))),
))
@example(instance=Instance(  # no movable charge: the one start vector is empty
    StationConfig(2, 1, 2, Fraction(10), 4),
    InitialConditions((BatteryStart(BatteryState.CHARGING, progress=1), BatteryStart(BatteryState.FULL, full_rank=1))),
    EventProfiles((0, 1, 0, 0), (0,) * 4, (Fraction(1),) * 4),
))
def test_the_oracle_by_release_hour_finds_what_the_per_job_oracle_finds(instance):
    """Realising one vector per multiset of each release hour's starts finds
    the per-job oracle's grid and cost, or its refusal, under both
    objectives: each multiset's sorted vector is the lexicographically first
    of those that realise alike."""
    for objective in SolveObjective:
        assert outcome_of(solve_oracle, instance, objective, 2_000) == outcome_of(
            oracle_by_jobs, instance, objective, 2_000
        )


@no_deadline
@given(instance=instances())
def test_every_solver_grid_passes_the_public_constructor(instance):
    """The realisation stores its rows without checking them again, so every
    grid a solver returns must be one the checking constructor accepts."""
    cfg = instance.config
    solvers = (
        solve_greedy,
        solve_exact,
        lambda i: solve_exact(i, SolveObjective.FEASIBILITY),
        lambda i: solve_oracle(i, budget=2_000),
    )
    for solve in solvers:
        try:
            out = solve(instance)
        except (InfeasibleError, EnumerationBudgetError):
            continue
        grid = out if isinstance(out, ScheduleGrid) else out[0]
        assert type(grid.rows) is tuple and all(type(row) is str for row in grid.rows)
        assert grid == ScheduleGrid(tuple(grid.rows))
        assert (grid.n_batteries, grid.horizon) == (cfg.n_batteries, cfg.horizon)


def test_every_start_vector_realises_strictly_valid_or_refuses():
    """Realising any per-job start vector the oracle may enumerate, each job
    at an hour of its ``start_domain`` (or never, where that is empty), raises
    InfeasibleError or returns a grid that strict ``validate`` passes.  The
    oracle also filters its grids through strict validation, so a faulty
    realisation would be skipped there rather than reported.  Both outcomes
    must come up."""
    outcomes = set()

    @settings(deadline=None, max_examples=400)
    @given(instance=instances(), data=st.data())
    def check(instance, data):
        movable = [job for job in build_jobs(instance) if job.movable]
        vector = [data.draw(st.sampled_from(start_domain(job, instance.config) or (None,))) for job in movable]
        try:
            grid, cost = _simulate(instance, Counter(vector))
        except InfeasibleError:
            outcomes.add("refused")
            return
        assert cost == schedule_cost(grid, instance.config, instance.events.price)  # every field
        report = validate(grid, instance, "strict")
        assert report.feasible, report.violations
        outcomes.add("valid")

    check()
    assert outcomes == {"refused", "valid"}


@no_deadline
@given(instance=instances(max_batteries=8, max_charge=4, horizons=(1, 24),
                          prices=st.fractions(0, 6, max_denominator=6)))
def test_the_realisation_hands_pricing_the_charge_runs_it_wrote(instance):
    """Each realisation prices the runs of ``C`` it wrote at the instance's
    price levels: those of greedy, of the exact solve under both objectives
    and of the oracle alike.  Each cost equals, in every field, the cost
    ``schedule_cost`` finds by scanning the grid at the instance's prices,
    and so does the cost each solve returns with its grid."""
    realised = []

    def noted(*args):
        realised.append(_simulate(*args))
        return realised[-1]

    with mock.patch.object(solver, "_simulate", noted), mock.patch.object(exact, "_simulate", noted):
        with contextlib.suppress(InfeasibleError):
            solve_greedy(instance)
        for objective in SolveObjective:
            for solve in (solve_exact, lambda *args: solve_oracle(*args, budget=2_000)):
                with contextlib.suppress(InfeasibleError, EnumerationBudgetError):
                    realised.append(solve(instance, objective))
    for grid, cost in realised:
        assert cost == schedule_cost(grid, instance.config, instance.events.price)  # every field


def starts_or_refusal(instance: Instance):
    try:
        return exact._cheapest_starts(instance)
    except InfeasibleError as refused:
        return refused.hour, str(refused)


def test_the_relaxation_gives_the_flows_starts():
    """``_cheapest_starts`` answers as the flow alone does, whether the
    relaxation's picks fit the chargers or not: the same start counts, or
    the same refusal.  Both paths must be taken."""
    real = exact._relaxed_starts
    fits = []

    # Stations of up to a day with charges of up to 4 hours, and prices that
    # are 0 in about half the hours, so that cost ties and free hours are common.
    often_free = st.one_of(st.just(Fraction(0)), st.fractions(0, 6, max_denominator=3))

    @no_deadline
    @given(instance=instances(max_batteries=8, max_charge=4, horizons=(1, 24), prices=often_free))
    def check(instance):
        with mock.patch.object(exact, "_relaxed_starts", lambda *args: fits.append(real(*args)) or fits[-1]):
            got = starts_or_refusal(instance)
        with mock.patch.object(exact, "_relaxed_starts", lambda *args: None):
            assert got == starts_or_refusal(instance)

    check()
    assert any(f is None for f in fits) and any(f is not None for f in fits)


@st.composite
def start_bounds(draw, max_hours=12):
    """``_relaxed_starts``' inputs as ``_cheapest_starts`` shapes them, but with
    floors that may stay below the ceilings up to hour T: counts that never
    fall, ceilings within the chargers' room up to hour D, room that never
    falls, and costs of 0 in about half the hours."""
    D, T = draw(st.integers(1, 4)), draw(st.integers(1, max_hours))
    steps = st.lists(st.sampled_from((0, 0, 1, 2)), min_size=T, max_size=T)
    free = draw(st.integers(0, 3))
    room = [free, *(free + n for n in itertools.accumulate(draw(steps)))]
    high = [0, *itertools.accumulate(draw(steps))]
    floors = [0, *itertools.accumulate(draw(steps))]
    ceiling = [min(h, r) if t <= D else h for t, (h, r) in enumerate(zip(high, room))]
    cost = [0, *draw(st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=T, max_size=T))]
    return D, floors, ceiling, room, cost


def test_the_relaxation_equals_the_flow_on_any_bounds():
    """Where ``_relaxed_starts`` returns starts or refuses, the flow over the
    full system (the ceilings, the floors and the chargers' room past hour
    D) returns the same starts or the same refusal.  Optional starts, past
    the floor at hour T, and refusals must both come up."""
    outcomes = []

    def refusal_or(solve, *args):
        try:
            return solve(*args)
        except InfeasibleError as refused:
            return refused.hour, str(refused)

    @no_deadline
    @given(bounds=start_bounds())
    def check(bounds):
        D, floors, ceiling, room, cost = bounds
        T = len(cost) - 1
        starts = refusal_or(exact._relaxed_starts, D, floors, ceiling, room, cost)
        outcomes.append("refused" if type(starts) is tuple else starts and sum(starts) > floors[T])
        if starts is None:
            return
        hours = range(1, T + 1)
        arcs = [(t, t - 1, 0) for t in hours] + [(0, t, ceiling[t]) for t in hours]
        arcs += [(t, 0, -floors[t]) for t in hours] + [(t - D, t, room[t]) for t in hours if t > D]
        weight = [0] + [c - d for c, d in zip(cost[1:], cost[2:] + [0])]
        y = refusal_or(exact._largest_optimal_potentials, T + 1, arcs, weight)
        assert starts == (y if type(y) is tuple else [0] + [b - a for a, b in zip(y, y[1:])])

    check()
    assert {True, False, "refused"} <= set(outcomes)


def relaxed_starts_by_slices(D, floors, ceiling, room, cost):
    """``_relaxed_starts`` as it was before its sliding minimum and its free
    hour pointer, sharing no code with the package: each pick scans its
    whole window, ``cost[a : b + 1]``, for the earliest hour of least cost,
    and each optional pick scans ``cost[a:]`` for the first free hour.
    Returns "refused" where a floor lies above its ceiling."""
    T = len(cost) - 1
    if any(f > c for f, c in zip(floors, ceiling)):
        return "refused"
    starts = [0] * (T + 1)
    top, k, a, b = floors[T], 1, 1, 1
    while k <= ceiling[T]:
        while ceiling[a] < k:
            a += 1
        if k <= top:
            while floors[b] < k:
                b += 1
            last = min(ceiling[a], floors[b])
            pick = cost.index(min(cost[a : b + 1]), a)
        elif 0 in cost[a:]:
            last, pick = ceiling[a], cost.index(0, a)
        else:
            break
        starts[pick] += last - k + 1
        k = last + 1
        if pick > D and last - sum(starts[: pick - D + 1]) > room[pick]:
            return None
    return starts


@no_deadline
@given(bounds=start_bounds(max_hours=60))
def test_the_relaxations_sliding_minimum_picks_as_each_window_scan_did(bounds):
    """The sliding minimum of ``_relaxed_starts`` picks, for every start, the
    hour a scan of that start's whole window picks: the earliest of least
    cost; past the floor at hour T, its free hour pointer picks the first
    free hour a scan from the window's start finds.  Both return the same
    starts, the same None, or refuse alike."""
    try:
        starts = exact._relaxed_starts(*bounds)
    except InfeasibleError:
        starts = "refused"
    assert starts == relaxed_starts_by_slices(*bounds)


def fifo_starts_reference(n_chargers, duration, horizon, fixed_lengths, releases):
    """Greedy's FIFO rule placed one job at a time, sharing no code with the
    package: each job starts at the first hour from its release, and from the
    start before it, that has a charger free.  ``fixed_lengths`` are the
    continuations' remaining hours, ``releases`` the movable jobs' release
    hours in FIFO order.  None marks a job that never starts."""
    usage = [0] * (horizon + 2)
    for length in fixed_lengths:
        for h in range(1, min(length, horizon) + 1):
            usage[h] += 1
    starts = []
    floor = 1
    for release in releases:
        s = max(release, floor)
        while s <= horizon and usage[s] >= n_chargers:
            s += 1
        if s > horizon:
            starts.append(None)
            continue
        for h in range(s, min(s + duration - 1, horizon) + 1):
            usage[h] += 1
        starts.append(s)
        floor = s
    return starts


@st.composite
def fifo_cases(draw):
    """(chargers, charge hours, horizon, continuations' progress, empty
    batteries, arrivals per hour); continuations may outnumber the chargers,
    the horizon may be shorter than a charge, and arrivals may land in the
    final hour."""
    m, D, T = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    progress = draw(st.lists(st.integers(0, D - 1), max_size=6))
    arrivals = draw(st.lists(st.integers(0, 3), min_size=T, max_size=T))
    return m, D, T, tuple(progress), draw(st.integers(0, 5)), tuple(arrivals)


@no_deadline
@given(case=fifo_cases())
@example(case=(1, 2, 4, (0, 0), 1, (0, 0, 0, 0)))  # continuations outnumber chargers
@example(case=(2, 5, 3, (1,), 2, (0, 1, 0)))  # T < D
@example(case=(1, 4, 3, (0,), 1, (0, 2, 1)))  # T == D - 1
@example(case=(1, 2, 5, (), 1, (0, 0, 0, 0, 3)))  # arrivals in the final hour
@example(case=(1, 3, 6, (), 3, (0, 1, 0, 0, 0, 0)))  # blocks the horizon cuts off
def test_fifo_counts_are_the_running_count_of_per_job_fifo_starts(case):
    """``_fifo_counts`` gives, at every hour, how many jobs the per-job FIFO
    rule has started by then, and job k starts at the first hour whose count
    exceeds k.  The counts never fall and never go below 0."""
    m, D, T, progress, n_empty, arrivals = case
    entries = [BatteryStart(BatteryState.CHARGING, progress=p) for p in progress]
    entries += [BatteryStart(BatteryState.EMPTY)] * n_empty
    cfg = StationConfig(max(len(entries), 1), m, D, Fraction(10), T)
    _, room, opened, _ = _hour_tables(cfg, InitialConditions(tuple(entries)), arrivals)
    counts = _fifo_counts(cfg, room, opened)

    releases = [1] * n_empty + [h + 1 for h, n in enumerate(arrivals, start=1) for _ in range(n)]
    starts = fifo_starts_reference(m, D, T, [D - p for p in progress], releases)
    assert len(counts) == T + 1
    assert counts == [sum(1 for s in starts if s is not None and s <= t) for t in range(T + 1)]
    for k, s in enumerate(starts):
        assert s == next((t for t in range(T + 1) if counts[t] > k), None)
    assert counts[0] == 0
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def place_units_reference(drawn, horizon, room):
    """The generator's event placement one unit at a time, sharing no code
    with the package: each unit, in hour order, takes the first hour from its
    drawn hour, and from the hour of the unit placed before it, where the
    units placed so far and itself fit ``room``.  A unit with no such hour is
    dropped and the next unit tries.  Counts per hour 1..horizon."""
    counts = [0] * (horizon + 1)
    placed, floor = 0, 1
    for hour in sorted(drawn):
        h = max(hour, floor)
        while h <= horizon and placed + 1 > room[h]:
            h += 1
        if h > horizon:
            continue
        counts[h] += 1
        placed += 1
        floor = h
    return counts[1:]


@given(data=st.data())
def test_place_units_keeps_the_unit_by_unit_rule(data):
    """Stopping at the first unit that finds no hour drops the units the
    unit-by-unit rule drops, also where the room falls from hour to hour
    and where drawn hours lie past the horizon."""
    T = data.draw(st.integers(1, 12))
    drawn = data.draw(st.lists(st.integers(1, T + 2), max_size=20))
    room = [0, *data.draw(st.lists(st.integers(0, 15), min_size=T, max_size=T))]
    assert _place_units(drawn, T, room) == place_units_reference(drawn, T, room)


def tou_reference(off_peak, peak, ranges, horizon):
    """A time-of-use tariff hour by hour, sharing no code with the package:
    ``peak`` at every hour some inclusive range holds, ``off_peak`` elsewhere."""
    return tuple(peak if any(a <= h <= b for a, b in ranges) else off_peak for h in range(1, horizon + 1))


@given(
    horizon=st.integers(1, 30),
    ranges=st.lists(st.tuples(st.integers(1, 35), st.integers(0, 10)).map(lambda r: (r[0], r[0] + r[1])),
                    max_size=6),
)
def test_tou_render_keeps_the_hour_by_hour_rule(horizon, ranges):
    """Ranges may overlap, repeat, and begin or end past the horizon."""
    tariff = TouTariff(off_peak=1, peak=2, peak_hours=tuple(ranges))
    assert tariff.render(horizon) == tou_reference(Fraction(1), Fraction(2), ranges, horizon)


def mixed_bundle() -> tuple[Instance, ScheduleGrid]:
    """Four batteries, one in each start state, with a greedy schedule."""
    starts = (
        BatteryStart(BatteryState.EMPTY),
        BatteryStart(BatteryState.CHARGING, progress=1),
        BatteryStart(BatteryState.FULL, full_rank=1),
        BatteryStart(BatteryState.OUT),
    )
    events = EventProfiles((0, 0, 1, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0, 1, 0), (1, 2, 1, 3, 1, 1, 2, 1))
    instance = Instance(StationConfig(4, 2, 2, Fraction(10), 8), InitialConditions(starts), events)
    return instance, solve_greedy(instance)


def bundle_texts(instance: Instance, schedule: ScheduleGrid) -> dict[str, str]:
    """Each file of the instance's bundle, with the schedule, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        save_instance(tmp, instance, schedule=schedule)
        return {path.name: path.read_text() for path in Path(tmp).iterdir()}


def readme_spec_with(section: str, **fields) -> str:
    """README's scenario spec with some fields of one section replaced."""
    spec = json.loads(readme_spec())
    spec[section].update(fields)
    return json.dumps(spec)


TEXTS = {
    "valley": bundle_texts(make_valley(), solve_greedy(make_valley())),
    "mixed": bundle_texts(*mixed_bundle()),
    "spec": {"spec.json": readme_spec()},
}
# Integers stay small or pass any index size (2**64) or a float's range
# (10**400, -(2**1100)): MAX_CELLS caps every size and event total, and a
# count in the millions below it would only make the run allocate that much.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.sampled_from([2**64, -(2**64), 10**400, -(2**1100)]),
    st.floats(), st.text(max_size=4), st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-1, 3), max_size=2),
)
CSV_CELLS = st.one_of(st.text(max_size=5), st.text(alphabet="0123456789-+./eE", max_size=5))
COMMANDS = (
    ["validate", "--mode", "lenient"], ["validate", "--mode", "strict", "--format", "json"],
    ["solve", "--method", "greedy"], ["solve", "--method", "exact"],
    ["solve", "--method", "exact", "--objective", "feasibility", "--format", "json"],
    ["solve", "--method", "oracle", "--budget", "2000"], ["render", "--counts"],
)


def mutate_json(text: str, draw) -> str:
    """Replace, delete or add one field or list entry, at any depth, or replace the whole document."""
    doc = json.loads(text)
    parents = [doc]
    for parent in parents:  # every object and list, outermost first
        parents += [v for v in (parent.values() if isinstance(parent, dict) else parent) if isinstance(v, (dict, list))]
    parent = draw(st.sampled_from(parents))
    if isinstance(parent, list):
        key = draw(st.integers(0, len(parent) - 1))
    else:
        key = draw(st.sampled_from(sorted(parent) + ["progress", "full_rank", "extra"]))
    action = draw(st.sampled_from(["set", "delete", "whole"]))
    if action == "whole":
        doc = draw(JSON_VALUES)
    elif action == "delete":
        parent.pop(key) if isinstance(parent, list) else parent.pop(key, None)
    else:
        parent[key] = draw(JSON_VALUES)
    return json.dumps(doc)


def mutate_text(text: str, name: str, draw) -> str:
    """Change one cell of profiles.csv or one character of schedule.txt, or drop a line."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        del lines[i]
    elif name == "profiles.csv":
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(CSV_CELLS)
        lines[i] = ",".join(cells)
    else:
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.text(alphabet="ECFOX B:0123456789\t", max_size=1)) + lines[i][j + 1:]
    return "\n".join(lines)


@st.composite
def mutated_files(draw) -> tuple[str, str, str | None]:
    """A bundle or README's scenario spec, one of its files, and that file's
    text with one field, cell or character, or the whole text, changed
    (None when the file is removed)."""
    target = draw(st.sampled_from(sorted(TEXTS)))
    name = draw(st.sampled_from(sorted(TEXTS[target])))
    how = draw(st.sampled_from(["field", "file", "remove"]))
    if how == "remove":
        return target, name, None
    if how == "file":
        return target, name, draw(st.text(max_size=30))
    if name.endswith(".json"):
        return target, name, mutate_json(TEXTS[target][name], draw)
    return target, name, mutate_text(TEXTS[target][name], name, draw)


@settings(deadline=None, max_examples=300)
@given(case=mutated_files(), command=st.sampled_from(COMMANDS))
# A peaked bump past a float's range, which a draw cannot take.
@example(case=("spec", "spec.json", readme_spec_with("arrivals", peak_hour=10**400)), command=COMMANDS[0])
# JSON nested deeper than the decoder recurses, on any supported Python.
@example(case=("valley", "config.json", "[" * 100_000 + "]" * 100_000), command=COMMANDS[0])
# A price cell longer than the csv module reads.
@example(
    case=("valley", "profiles.csv", TEXTS["valley"]["profiles.csv"].replace("\n1,0,0,10\n", "\n1,0,0," + "1" * 200_000 + "\n")),
    command=COMMANDS[0],
)
def test_a_bundle_with_one_mutation_never_ends_in_an_internal_error(case, command):
    """Exit codes stay 0, 1 or 2 (3 too for the oracle's budget, never 4, an
    internal error) and no traceback is printed, whatever one field, cell,
    character or file of a bundle holds.  ``generate`` on README's scenario
    spec with one field, at any depth, or the whole file changed exits 0 or 2."""
    target, name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        for other, original in TEXTS[target].items():
            (Path(tmp) / other).write_text(original)
        path = Path(tmp) / name
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        if target == "spec":
            argv, codes = ["generate", "--spec", str(path), "--out", str(Path(tmp) / "out")], (0, 2)
        else:
            argv = [command[0], "--instance", tmp, *command[1:]]
            codes = (0, 1, 2, 3) if "oracle" in command else (0, 1, 2)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in codes, err.getvalue()
    assert "Traceback" not in err.getvalue()
