"""A per-cell reference validator, and a property that holds the package's
grid readers to it (needs hypothesis).

The reference reads a grid one cell at a time, from plain strings and
numbers, and shares no code with the package: it finds every letter count,
move and charge run its own way.  ``validate`` in both modes,
``extract_events`` and ``parse_grid`` on a rendered grid must agree with it
on every grid of any letters, and the runs the package finds must cover
every cell exactly once.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from swapsched import (
    BatteryStart,
    BatteryState,
    EventProfiles,
    GridParseError,
    InitialConditions,
    Instance,
    ScheduleGrid,
    StationConfig,
    TransitionError,
    extract_events,
    parse_grid,
    render_grid,
    validate,
)
from swapsched.model import _runs

LEGAL = {"EE", "EC", "CC", "CF", "FF", "FO", "OO", "OE"}


def reference_moves(rows):
    """Swaps and returns landing at each hour (from hour 1), and the illegal
    moves as ``(battery, hour, prev, cur)``, battery then hour."""
    T = len(rows[0])
    swaps, returns, illegal = [0] * T, [0] * T, []
    for b, row in enumerate(rows, start=1):
        for t in range(2, T + 1):
            prev, cur = row[t - 2], row[t - 1]
            swaps[t - 1] += prev == "F" and cur == "O"
            returns[t - 1] += prev == "O" and cur == "E"
            if prev + cur not in LEGAL:
                illegal.append((b, t, prev, cur))
    return swaps, returns, illegal


def reference_validate(rows, chargers, charge_hours, starts, demand, arrivals, mode):
    """``(hourly, violations)`` of a grid, each violation as
    ``(constraint, battery, hour, message)`` in ``validate``'s order.

    ``starts`` holds one ``(letter, progress)`` per battery.
    """
    T = len(rows[0])
    hourly = {letter: tuple(sum(row[t] == letter for row in rows) for t in range(T)) for letter in "ECFO"}
    swaps, returns, illegal = reference_moves(rows)
    found = [
        ("transition", b, t, f"battery B{b}: illegal transition {prev}->{cur} into hour {t}")
        for b, t, prev, cur in illegal
    ]
    for t in range(1, T + 1):
        used = hourly["C"][t - 1]
        if used > chargers:
            found.append(("charger_capacity", None, t, f"hour {t}: {used} batteries charging, only {chargers} chargers"))
    if demand[0] > 0:
        found.append((
            "demand_coverage", None, 1,
            f"demand {demand[0]} at hour 1 can never be served (swaps land on an edge from the previous hour)",
        ))
    for t in range(2, T + 1):
        want, stock = demand[t - 1], hourly["F"][t - 2]
        if swaps[t - 1] != want:
            found.append(("demand_coverage", None, t, f"hour {t}: {swaps[t - 1]} swap(s) land, demand is {want}"))
        if stock < want:
            found.append((
                "demand_coverage", None, t,
                f"hour {t}: demand {want} exceeds the {stock} fully-charged batteries available at hour {t - 1}",
            ))
    if arrivals[0] > 0:
        found.append((
            "arrivals", None, 1,
            f"{arrivals[0]} arrival(s) at hour 1 can never land (arrivals land on an edge from the previous hour)",
        ))
    for t in range(2, T + 1):
        if returns[t - 1] != arrivals[t - 1]:
            found.append(("arrivals", None, t, f"hour {t}: {returns[t - 1]} arrival(s) land, profile says {arrivals[t - 1]}"))
    for b, row in enumerate(rows, start=1):
        start = None
        for t in range(1, T + 1):
            if row[t - 1] != "C":
                continue
            if t == 1 or row[t - 2] != "C":
                start = t
            if t == T or row[t] != "C":  # the run's last hour
                if t < T and row[t] == "F":
                    effective = t - start + 1
                    letter, progress = starts[b - 1]
                    if start == 1 and letter == "C":
                        effective += progress
                    if effective < charge_hours or (mode == "strict" and effective != charge_hours):
                        found.append((
                            "charge_duration", b, start,
                            f"battery B{b}: charge run hours {start}-{t} has effective length {effective}, "
                            f"required {charge_hours}" + (" exactly" if mode == "strict" else " at least"),
                        ))
    for b, (row, (letter, _)) in enumerate(zip(rows, starts), start=1):
        if row[0] not in ("EC" if letter == "E" else letter):
            found.append(("initial_conditions", b, 1, f"battery B{b}: declared start {letter}, hour 1 shows {row[0]}"))
    return hourly, found


# Rows of every kind: any letters, runs at hour 1 and at the last hour,
# all one letter, and walks round the cycle that complete charges.
def rows_of(T: int):
    def walk(steps):
        row = steps[0]
        for step in steps[1:]:
            row += {"E": "C", "C": "F", "F": "O", "O": "E"}[row[-1]] if step == "+" else row[-1]
        return row

    return st.one_of(
        st.text(alphabet="ECFO", min_size=T, max_size=T),
        st.sampled_from("ECFO").map(lambda letter: letter * T),
        st.text(alphabet="CF", min_size=T, max_size=T),
        st.tuples(st.sampled_from("ECFO"), st.text(alphabet="+=", min_size=T - 1, max_size=T - 1)).map(
            lambda drawn: walk(drawn[0] + drawn[1])
        ),
    )


@st.composite
def cases(draw):
    """A grid of 1-8 batteries and 1-30 hours with a station, start states
    (mostly those the grid shows at hour 1) and events (often the grid's own)."""
    nb, T = draw(st.integers(1, 8)), draw(st.sampled_from((1, 2, 30, *range(1, 31))))
    rows = tuple(draw(rows_of(T)) for _ in range(nb))
    D = draw(st.integers(1, 5))
    starts, entries, rank = [], [], 0
    for row in rows:
        letter = row[0] if draw(st.booleans()) or draw(st.booleans()) else draw(st.sampled_from("ECFO"))
        progress = draw(st.integers(0, D - 1)) if letter == "C" else 0
        rank += letter == "F"
        starts.append((letter, progress))
        entries.append(BatteryStart(BatteryState(letter), progress, rank if letter == "F" else None))
    swaps, returns, _ = reference_moves(rows)
    counts = st.lists(st.integers(0, 2), min_size=T, max_size=T)
    demand = swaps if draw(st.booleans()) else draw(counts)
    arrivals = returns if draw(st.booleans()) else draw(counts)
    config = StationConfig(nb, draw(st.integers(1, nb)), D, Fraction(10), T)
    events = EventProfiles(tuple(demand), tuple(arrivals), (0,) * T)
    return rows, starts, Instance(config, InitialConditions(tuple(entries)), events)


def case(rows, starts, demand, arrivals, chargers=1, charge_hours=2):
    """An explicit case: ``starts`` gives one letter per battery."""
    entries = [BatteryStart(BatteryState(s), full_rank=b if s == "F" else None) for b, s in enumerate(starts)]
    config = StationConfig(len(rows), chargers, charge_hours, Fraction(10), len(rows[0]))
    instance = Instance(config, InitialConditions(tuple(entries)), EventProfiles(demand, arrivals, (0,) * len(demand)))
    return tuple(rows), [(s, 0) for s in starts], instance


@settings(deadline=None, max_examples=300)
@given(drawn=cases())
@example(drawn=case(["C"], "E", (0,), (0,)))
@example(drawn=case(["F", "O"], "FO", (1,), (1,)))
@example(drawn=case(["CCFO", "CFOE", "OECC"], "CCO", (0, 0, 1, 1), (0, 0, 0, 1)))
@example(drawn=case(["EEEE", "EEEE"], "EE", (0, 0, 0, 0), (0, 0, 0, 0)))
@example(drawn=case(["COEF", "FEOC"], "CF", (0, 0, 0, 0), (0, 0, 0, 0)))
def test_every_grid_reader_agrees_with_the_per_cell_reference(drawn):
    rows, starts, instance = drawn
    grid, cfg, events = ScheduleGrid(rows), instance.config, instance.events
    for mode in ("lenient", "strict"):
        report = validate(grid, instance, mode)
        hourly, violations = reference_validate(
            rows, cfg.n_chargers, cfg.charge_hours, starts, events.demand, events.arrivals, mode
        )
        assert [(v.constraint, v.battery, v.hour, v.message) for v in report.violations] == violations
        assert report.feasible == (not violations)
        assert report.hourly == hourly

    swaps, returns, illegal = reference_moves(rows)
    if illegal:
        b, t, prev, cur = illegal[0]
        with pytest.raises(TransitionError) as raised:
            extract_events(grid)
        assert (raised.value.battery, raised.value.hour) == (b, t)
        assert str(raised.value) == f"battery B{b}, hour {t}: illegal transition {prev}->{cur}"
        with pytest.raises(GridParseError) as raised:
            parse_grid(render_grid(grid), cfg)
        line = render_grid(grid).split("\n")[b]
        assert (raised.value.line, raised.value.column) == (b + 1, line.index(": ") + 2 * t + 1)
    else:
        assert extract_events(grid) == EventProfiles(tuple(swaps), tuple(returns), (0,) * len(swaps))
        assert parse_grid(render_grid(grid), cfg) == grid

    # The runs of the four letters cover every cell once, each run maximal.
    covered = [[0] * len(rows[0]) for _ in rows]
    for letter in "ECFO":
        for b, first, stop in _runs(grid, letter):
            row = rows[b]
            assert row[first:stop] == letter * (stop - first) and stop > first
            assert first == 0 or row[first - 1] != letter
            assert stop == len(row) or row[stop] != letter
            for t in range(first, stop):
                covered[b][t] += 1
    assert all(count == 1 for row in covered for count in row)
