"""Charge scheduling: cost accounting, the shared realisation and greedy FIFO.

A battery that enters the horizon on a charger finishes its charge first;
one that enters empty may start charging from hour 1, and one that returns
from the hour after it lands.  Only how many charges start in each hour
affects cost, charger use and demand coverage, so every method hands its
per-hour start counts to one realisation, which starts the longest-waiting
empty batteries and returns the schedule with its cost, priced from the
charge runs it wrote.  No method starts more batteries than are waiting.

Stations serve swaps and bind arrivals first-in-first-out:

* charge starts go to the longest-waiting empty batteries (queue entry
  hour, then battery index);
* swaps consume the battery that has been fully charged longest (hour it
  entered F, then index; batteries that started the horizon full are ordered
  by their declared rank);
* returning batteries are matched to the battery that has been out longest.

``solve_greedy`` charges as soon as possible under those disciplines.  Its
rule, every depleted battery starts charging the first hour a charger is
free, lives in ``model._fifo_counts``, which reads the hour tables of
``model._hour_tables`` as the exact solver's bounds and the scenario
generator's repairs do; ``_greedy_starts`` gives its start counts per hour.
The exact solver and the brute-force oracle live in ``exact``.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from fractions import Fraction

from .errors import DimensionError, InfeasibleError
from .model import (
    BatteryState,
    Instance,
    ScheduleGrid,
    StationConfig,
    _fifo_counts,
    _hour_tables,
    _json_text,
    _price_levels,
    _runs,
    _Value,
    to_exact,
)

__all__ = [
    "SolveObjective",
    "CostBreakdown",
    "schedule_cost",
    "solve_greedy",
]

_E = BatteryState.EMPTY
_C = BatteryState.CHARGING
_F = BatteryState.FULL


class SolveObjective(Enum):
    FEASIBILITY = "feasibility"
    MIN_COST = "min-cost"


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


class CostBreakdown(_Value):
    """Electricity cost of a schedule, exact end to end."""

    __slots__ = ("total", "per_hour", "per_battery", "energy_kwh")

    def __init__(
        self,
        total: Fraction,
        per_hour: tuple[Fraction, ...],
        per_battery: tuple[Fraction, ...],
        energy_kwh: Fraction,
    ):
        super().__init__(total, per_hour, per_battery, energy_kwh)

    def to_json_dict(self) -> dict:
        return {
            "total": float(self.total),
            "per_hour": [float(x) for x in self.per_hour],
            "per_battery": [float(x) for x in self.per_battery],
            "energy_kwh": float(self.energy_kwh),
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())


def schedule_cost(grid: ScheduleGrid, config: StationConfig, price: Sequence) -> CostBreakdown:
    """Price out a schedule: every charging battery-hour draws the charge power.

    Only the ``C`` letters count, whatever surrounds them, so a grid with
    illegal moves is priced cell by cell like any other.  The prices are
    scaled to integers (``model._price_levels``) and ``_priced`` sums them
    over the grid's runs of ``C`` (``_runs``).
    """
    if grid.n_batteries != config.n_batteries or grid.horizon != config.horizon:
        raise DimensionError(
            f"grid is {grid.n_batteries}x{grid.horizon}, "
            f"config says {config.n_batteries}x{config.horizon}"
        )
    prices = [to_exact(p) for p in price]
    if len(prices) != config.horizon:
        raise DimensionError(f"{len(prices)} prices for a horizon of {config.horizon} hours")
    return _priced(_runs(grid, "C"), config, *_price_levels(prices))


def _priced(runs: Iterable[tuple], config: StationConfig, level: Sequence[int], lcm: int) -> CostBreakdown:
    """``schedule_cost`` of a grid that fits ``config`` from its ``C`` runs, as
    ``_runs`` yields them but in any order, at prices ``level[t] / lcm``.

    The sums run over integers, in units of one over ``lcm`` times the
    power's denominator.  Each run is priced at once from prefix sums of
    those units and adds one charger to its hours through a difference
    array.  Each distinct scaled sum becomes one Fraction.
    """
    T = config.horizon
    numerator, denominator = config.power_kw.as_integer_ratio()
    scale = lcm * denominator
    unit = [x * numerator for x in level]
    before = list(itertools.accumulate(unit, initial=0))  # before[i]: cells 0..i-1
    change = [0] * (T + 1)  # +1 where a run begins, -1 just past its end
    per_battery = [0] * config.n_batteries
    for b, first, stop in runs:
        per_battery[b] += before[stop] - before[first]
        change[first] += 1
        change[stop] -= 1
    charging = list(itertools.accumulate(change[:T]))
    per_hour = [u * n for u, n in zip(unit, charging)]
    exact = {x: Fraction(x, scale) for x in {*per_hour, *per_battery}}
    return CostBreakdown(
        Fraction(sum(per_hour), scale),
        tuple(map(exact.__getitem__, per_hour)),
        tuple(map(exact.__getitem__, per_battery)),
        Fraction(numerator * sum(charging), denominator),
    )


# ---------------------------------------------------------------------------
# Simulation engine
#
# One hour loop realises per-hour start counts for every method: greedy's
# are the differences of _fifo_counts, the exact solver's come from the
# capacity-free relaxation or the flow, the oracle's from each enumerated
# start vector.  Each hour's starts go to the longest-waiting empty
# batteries.  Events within an hour settle in a fixed order: arrivals land,
# charges complete, charges start, swaps land.
#
# The loop does work only where something happens.  The waiting, full and
# out batteries sit in FIFO queues, so an hour takes only the batteries it
# moves from their fronts.  A battery that joins a queue at hour t is behind
# all that joined before t, so each hour's entrants join at the back in
# battery order, the FIFO tie-break.  A charge is filed, when it starts,
# under the hour it turns full, and a running count of the charges on
# chargers checks the capacity, so no hour scans the charges in progress.
# Only hour 1 and the hours that start charges can raise that count, so only
# they check it, at step 3.  Between state changes a battery keeps its state,
# so a row is written a run of letters at a time, and each run of C is priced.
# ---------------------------------------------------------------------------


def _simulate(instance: Instance, n_starts: Sequence[int] | Mapping[int, int]) -> tuple[ScheduleGrid, CostBreakdown]:
    """Realise ``n_starts`` (``n_starts[t]``: charges started at hour t) as a schedule grid
    and its cost, priced from the runs of ``C`` it wrote at ``Instance._price_levels``."""
    cfg = instance.config
    T, D, chargers = cfg.horizon, cfg.charge_hours, cfg.n_chargers
    demand, arrivals = instance.events.demand, instance.events.arrivals
    # written[b]: battery b's letters before hour since[b].  A battery that
    # changes state at hour t writes the letter it leaves up to t (nothing for
    # a state it leaves in the hour it came); at the end, its last letter.
    written = [""] * (cfg.n_batteries + 1)
    since = [1] * len(written)
    charges: list[tuple[int, int, int]] = []  # (battery, first, stop), all from 0

    # Batteries in FIFO order.  Those that start the horizon full are ordered
    # by declared rank; the charges that finish at hour t join full behind
    # them, so the swap stock of hour t is full less that hour's finished.
    waiting: deque[int] = deque()
    ranked: list[tuple[int, int]] = []  # (full rank, battery)
    out_pool: deque[int] = deque()
    # Batteries by the hour their charge completes; a block that the horizon
    # ends is filed under T + 1, which the loop never reaches.
    finishing: list[list[int]] = [[] for _ in range(T + 2)]
    active = 0  # charges on a charger

    for b, entry in enumerate(instance.initial.entries, start=1):
        state = entry.state
        if state is _E:
            waiting.append(b)
        elif state is _C:
            finishing[min(D - entry.progress, T) + 1].append(b)
            active += 1
        elif state is _F:
            ranked.append((entry.full_rank, b))
        else:
            out_pool.append(b)
    full = deque(b for _, b in sorted(ranked))

    for t in range(1, T + 1):
        # 1. arrivals land (battery binding is FIFO on time-went-out)
        need = arrivals[t - 1]
        if need:
            if t == 1:
                raise InfeasibleError(1, "arrivals cannot land at hour 1")
            if len(out_pool) < need:
                raise InfeasibleError(
                    t, f"{need} arrival(s) at hour {t} but only {len(out_pool)} batteries are out"
                )
            landed = sorted([out_pool.popleft() for _ in range(need)])
            for b in landed:
                written[b] += "O" * (t - since[b])
                since[b] = t
            waiting.extend(landed)

        # 2. charges that ended at hour t - 1 become full
        finished = finishing[t]
        if finished:
            finished.sort()
            for b in finished:
                written[b] += "C" * (t - since[b])
                charges.append((b - 1, since[b] - 1, t - 1))
                since[b] = t
            full.extend(finished)
            active -= len(finished)

        # 3. charge starts, longest-waiting batteries first
        starts = n_starts[t]
        if starts or t == 1:
            ending = finishing[min(t + D, T + 1)]
            for _ in range(starts):
                b = waiting.popleft()
                ending.append(b)
                written[b] += "E" * (t - since[b])
                since[b] = t
            active += starts
            if active > chargers:
                raise InfeasibleError(t, f"{active} concurrent charges at hour {t}")

        # 4. swaps consume the batteries full before hour t, longest-full first
        need = demand[t - 1]
        if need:
            if t == 1:
                raise InfeasibleError(1, "demand at hour 1 can never be served")
            stock = len(full) - len(finished)
            if stock < need:
                raise InfeasibleError(
                    t,
                    f"demand {need} at hour {t}, only {stock} fully-charged "
                    "batteries available",
                )
            gone = sorted([full.popleft() for _ in range(need)])
            for b in gone:
                written[b] += "F" * (t - since[b])
                since[b] = t
            out_pool.extend(gone)

    charges += [(b - 1, since[b] - 1, T) for b in finishing[T + 1]]
    for letter, batteries in (("E", waiting), ("C", finishing[T + 1]), ("F", full), ("O", out_pool)):
        for b in batteries:
            written[b] += letter * (T + 1 - since[b])
    return ScheduleGrid._trusted(tuple(written[1:])), _priced(charges, cfg, *instance._price_levels)


def _greedy_starts(instance: Instance) -> list[int]:
    """Greedy's charges started per hour (index 0 unused): differences of ``_fifo_counts``."""
    cfg = instance.config
    _, done, opened, _ = _hour_tables(cfg, instance.initial, instance.events.arrivals)
    started = _fifo_counts(cfg, done, opened)
    return [0] + [b - a for a, b in zip(started, started[1:])]


def solve_greedy(instance: Instance) -> ScheduleGrid:
    """Charge as soon as possible under the FIFO disciplines.

    Maximizes completions by every hour, so if this raises InfeasibleError
    (carrying the first failing hour) no schedule covers the demand.
    """
    return _simulate(instance, _greedy_starts(instance))[0]
