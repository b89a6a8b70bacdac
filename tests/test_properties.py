"""Property tests for the text format, the validator and the solvers (needs hypothesis)."""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

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
    StationConfig,
    parse_grid,
    render_grid,
    schedule_cost,
    solve_exact,
    solve_greedy,
    solve_oracle,
    validate,
)

STATES = list(BatteryState)
CYCLE = dict(zip("ECFO", "CFOE"))  # E->C->F->O->E

no_deadline = settings(deadline=None)  # first runs pay for imports and caches


def config(n_batteries: int, horizon: int) -> StationConfig:
    return StationConfig(n_batteries, 1, 1, Fraction(1), horizon)


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


@st.composite
def instances(draw):
    """Small stations built directly, with no generator repairs: demand may
    come before any battery is ready and arrivals may outrun the out-pool."""
    nb, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    D, T = draw(st.integers(1, 3)), draw(st.integers(4, 10))
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
    prices = st.lists(st.fractions(0, 6, max_denominator=2), min_size=T, max_size=T)
    events = EventProfiles(draw(counts), draw(counts), tuple(draw(prices)))
    return Instance(StationConfig(nb, m, D, Fraction(10), T), InitialConditions(tuple(starts)), events)


def equal_to_the_oracle_or_too_large(instance, outcome) -> None:
    """The oracle, where it runs within a small budget, returns the same
    grid and cost, or refuses too."""
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
