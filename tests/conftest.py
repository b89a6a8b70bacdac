from __future__ import annotations

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from swapsched import (
    BatteryStart,
    BatteryState,
    EventProfiles,
    InitialConditions,
    Instance,
    ScheduleGrid,
    StationConfig,
    demo_instance,
    solve_greedy,
)


@pytest.fixture(scope="session")
def demo():
    """(instance, reference grid) of the bundled worked example."""
    return demo_instance()


@pytest.fixture(scope="session")
def demo_greedy(demo):
    instance, _ = demo
    return solve_greedy(instance)


def make_valley() -> Instance:
    """One battery, one charger, a two-hour charge and a price valley.

    Prices 10,10,1,1,10,10 with one swap due at hour 6: charging at hours
    3-4 costs a tenth of charging at hours 1-2.
    """
    config = StationConfig(
        n_batteries=1,
        n_chargers=1,
        charge_hours=2,
        capacity_kwh=Fraction(20),
        horizon=6,
        charge_power_kw=Fraction(10),
    )
    initial = InitialConditions((BatteryStart(state=BatteryState.EMPTY),))
    events = EventProfiles(
        demand=(0, 0, 0, 0, 0, 1),
        arrivals=(0,) * 6,
        price=tuple(Fraction(p) for p in (10, 10, 1, 1, 10, 10)),
    )
    return Instance(config=config, initial=initial, events=events)


@pytest.fixture
def valley() -> Instance:
    return make_valley()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language: str) -> list[str]:
    """The text of each fenced ``language`` block in README, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def readme_spec() -> str:
    """README's one scenario spec: its ``json`` block with a seed."""
    (spec,) = [block for block in readme_blocks("json") if '"seed"' in block]
    return spec


def huge_search_space() -> Instance:
    """2,000 empty batteries, one charger, one-hour charges and 500 hours:
    500**2000, about 10**5398, start vectors for the oracle."""
    events = EventProfiles((0,) * 500, (0,) * 500, (Fraction(1),) * 500)
    initial = InitialConditions((BatteryStart(state=BatteryState.EMPTY),) * 2_000)
    return Instance(StationConfig(2_000, 1, 1, Fraction(10), 500), initial, events)


# Each letter's legal successors: stay put, or advance one step round the cycle.
SUCCESSORS = {"E": "EC", "C": "CF", "F": "FO", "O": "EO"}


def random_legal_grid(rng: random.Random, n_batteries: int, horizon: int) -> ScheduleGrid:
    """A grid built by walking legal transitions only."""
    rows = []
    for _ in range(n_batteries):
        row = rng.choice("ECFO")
        for _ in range(horizon - 1):
            row += rng.choice(SUCCESSORS[row[-1]])
        rows.append(row)
    return ScheduleGrid(tuple(rows))
