"""Property tests for the text format and the validator (needs hypothesis)."""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from swapsched import (
    BatteryStart,
    BatteryState,
    EventProfiles,
    GridParseError,
    InitialConditions,
    Instance,
    ScheduleGrid,
    StationConfig,
    parse_grid,
    render_grid,
    validate,
)

STATES = list(BatteryState)
CYCLE = {s: STATES[(i + 1) % 4] for i, s in enumerate(STATES)}  # E->C->F->O->E

no_deadline = settings(deadline=None)  # first runs pay for imports and caches


def config(n_batteries: int, horizon: int) -> StationConfig:
    return StationConfig(n_batteries, 1, 1, Fraction(1), horizon)


@st.composite
def grids(draw, legal: bool):
    nb, T = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    if not legal:
        cells = st.lists(st.sampled_from(STATES), min_size=T, max_size=T)
        return ScheduleGrid(tuple(tuple(row) for row in draw(st.lists(cells, min_size=nb, max_size=nb))))
    rows = []
    for _ in range(nb):
        row = [draw(st.sampled_from(STATES))]
        for advance in draw(st.lists(st.booleans(), min_size=T - 1, max_size=T - 1)):
            row.append(CYCLE[row[-1]] if advance else row[-1])
        rows.append(tuple(row))
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
        for s in STATES:
            assert report.hourly[s.letter][t] == sum(row[t] is s for row in grid.states)
