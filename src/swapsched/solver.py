"""Charge scheduling: cost accounting, greedy FIFO, exact min-cost flow, brute oracle.

Charging work is organized as jobs.  A battery that enters the horizon on a
charger continues as a fixed job (start hour 1, remaining duration); a
battery that enters empty is one job released at hour 1; every arrival unit
is one job released the hour after the arrival lands.  Jobs carry no
battery: only how many charges start in each hour affects cost, charger use
and demand coverage, so every method hands its per-hour start counts to one
realisation, which starts the longest-waiting empty batteries.

Every job is scheduled.  A movable job whose full charge block fits inside
the horizon must run the full block (its start domain is capped so the block
fits); a job released too late to ever complete may start anywhere from its
release and is truncated by the horizon.

Stations serve swaps and bind arrivals first-in-first-out:

* charge starts go to the longest-waiting empty batteries (queue entry
  hour, then battery index);
* swaps consume the battery that has been fully charged longest (hour it
  entered F, then index; batteries that started the horizon full are ordered
  by their declared rank);
* returning batteries are matched to the battery that has been out longest.

``solve_greedy`` charges as soon as possible under those disciplines.  Its
rule, every depleted battery starts charging the first hour a charger is
free, lives in ``_fifo_starts``, which the scenario generator's repairs
use as well.
``solve_exact`` minimizes total electricity cost over all start vectors,
breaking cost ties toward the lexicographically earliest start vector.
Movable jobs all run the same block length, so it works on start counts
(how many jobs have started by each hour): charger capacity, release
windows, deadlines and demand coverage are difference constraints on those
counts, and the cost-minimizing counts are the dual of one min-cost flow on
the hours, solved in primal-dual phases (one Bellman-Ford per shortest-path
distance level, then flow along that level's tight arcs) in polynomial time.
Its dual does not depend on which optimal flow the phases find.  It runs
``solve_greedy`` only for the feasibility objective, or to prove an
instance infeasible with the first failing hour.
``solve_oracle`` does the same by exhaustive enumeration and exists to
cross-check the exact solver.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from collections import Counter, deque
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .errors import DimensionError, EnumerationBudgetError, InfeasibleError
from .model import BatteryState, InitialConditions, ScheduleGrid, StationConfig, _Value, to_exact
from .validation import Instance, validate

__all__ = [
    "SolveObjective",
    "ChargeJob",
    "CostBreakdown",
    "DEFAULT_ORACLE_BUDGET",
    "build_jobs",
    "start_domain",
    "schedule_cost",
    "solve_greedy",
    "solve_exact",
    "solve_oracle",
]

_E = BatteryState.EMPTY
_C = BatteryState.CHARGING
_F = BatteryState.FULL

DEFAULT_ORACLE_BUDGET = 200_000


class SolveObjective(Enum):
    FEASIBILITY = "feasibility"
    MIN_COST = "min-cost"


class ChargeJob(_Value):
    """One required charge block of ``duration`` hours, released at ``release``.

    ``fixed_start`` pins continuation jobs to hour 1; movable jobs have None.
    A job names no battery: the realisation hands each hour's starts to the
    longest-waiting empty batteries.
    """

    __slots__ = ("release", "duration", "fixed_start")

    def __init__(self, release: int, duration: int, fixed_start: int | None = None):
        super().__init__(release, duration, fixed_start)

    @property
    def movable(self) -> bool:
        return self.fixed_start is None


def build_jobs(instance: Instance) -> tuple[ChargeJob, ...]:
    """Expand an instance into its charge jobs, in canonical order.

    Order: continuations (battery index), initial-empty batteries (battery
    index), then one job per arrival unit (hour order).  The canonical order
    is also the FIFO priority order and the order of start vectors.
    """
    D = instance.config.charge_hours
    fixed, releases = _job_table(instance.config, instance.initial, instance.events.arrivals)
    return tuple(
        [ChargeJob(1, length, fixed_start=1) for length in fixed]
        + [ChargeJob(r, D) for r in releases]
    )


def start_domain(job: ChargeJob, config: StationConfig) -> tuple[int, ...]:
    """Legal start hours for a job.

    Movable jobs whose block fits run it in full (start capped at
    horizon - duration + 1); jobs released too late to ever complete may
    start any hour from release to the horizon and run truncated.  A job
    released after the horizon (arrival in the final hour) never starts.
    """
    if not job.movable:
        return (job.fixed_start,)
    return tuple(_window(job.release, job.duration, config.horizon))


def _job_table(
    config: StationConfig, initial: InitialConditions, arrivals: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The jobs of ``build_jobs`` as two tables: each continuation's length, in
    battery order, and each movable job's release hour, in canonical order.

    Batteries that start empty are released at hour 1; every arrival unit is
    released the hour after it lands, which is past the horizon for the
    final hour's arrivals.
    """
    D = config.charge_hours
    fixed = [D - e.progress for e in initial.entries if e.state is _C]
    releases = [1] * initial.count(_E)
    releases += [r for r, n in enumerate(arrivals, start=2) for _ in range(n)]
    return fixed, releases


def _window(release: int, duration: int, horizon: int) -> range:
    """Start hours of a movable job: those whose full block fits in the horizon,
    or, when none does, every hour from release to the horizon (the block is
    cut off).  Empty when the job is released after the horizon.
    """
    last = horizon - duration + 1
    return range(release, (last if last >= release else horizon) + 1)


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
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


_UNCHARGED = str.maketrans("EFO", "...")  # every letter but C ends a charge run


def schedule_cost(grid: ScheduleGrid, config: StationConfig, price: Sequence) -> CostBreakdown:
    """Price out a schedule: every charging battery-hour draws the charge power.

    Only the ``C`` letters count, whatever surrounds them, so a grid with
    illegal moves is priced cell by cell like any other.  The sums run over
    integers: each hour's price of one charging cell, scaled by the power's
    denominator times the lcm of the prices' denominators.  Each maximal run
    of ``C`` letters is priced at once from prefix sums of those units and
    adds one charger to its hours through a difference array.  Each distinct
    scaled sum becomes one Fraction.
    """
    if grid.n_batteries != config.n_batteries or grid.horizon != config.horizon:
        raise DimensionError(
            f"grid is {grid.n_batteries}x{grid.horizon}, "
            f"config says {config.n_batteries}x{config.horizon}"
        )
    prices = [to_exact(p) for p in price]
    T = config.horizon
    if len(prices) != T:
        raise DimensionError(f"{len(prices)} prices for a horizon of {T} hours")
    power = config.power_kw
    lcm = math.lcm(*(p.denominator for p in prices))
    scale = lcm * power.denominator
    unit = [p.numerator * (lcm // p.denominator) * power.numerator for p in prices]
    before = list(itertools.accumulate(unit, initial=0))  # before[i]: cells 0..i-1
    change = [0] * (T + 1)  # +1 where a run begins, -1 just past its end
    per_battery = [0] * grid.n_batteries
    # Rows are joined with a separator, and every letter but C turns into
    # one, so a run ends at the next separator and never spans two rows.
    text = ".".join(grid.rows).translate(_UNCHARGED) + "."
    i = text.find("C")
    while i >= 0:
        j = text.find(".", i)
        b, first = divmod(i, T + 1)
        stop = first + j - i
        per_battery[b] += before[stop] - before[first]
        change[first] += 1
        change[stop] -= 1
        i = text.find("C", j)
    charging = list(itertools.accumulate(change[:T]))
    per_hour = [u * n for u, n in zip(unit, charging)]
    exact = {x: Fraction(x, scale) for x in {*per_hour, *per_battery}}
    return CostBreakdown(
        total=Fraction(sum(per_hour), scale),
        per_hour=tuple(map(exact.__getitem__, per_hour)),
        per_battery=tuple(map(exact.__getitem__, per_battery)),
        energy_kwh=power * sum(charging),
    )


# ---------------------------------------------------------------------------
# Simulation engine
#
# One hour loop realises per-hour start counts for every method: greedy's
# come from _fifo_starts, the exact solver's from the flow, the oracle's from
# each enumerated start vector.  Each hour's starts go to the longest-waiting
# empty batteries.  Events within an hour settle in a fixed order: arrivals
# land, charges complete, charges start, swaps land.
#
# The loop does work only where something happens.  The waiting, full and
# out batteries sit in heaps in their FIFO order, so an hour pops only the
# batteries it moves.  A charge is filed, when it starts, under the hour it
# turns full, and a running count of the charges on chargers checks the
# capacity, so no hour scans the charges in progress.  Only the state
# changes are recorded, and each battery's row of letters is written once
# from them at the end: between changes a battery keeps its state.
# ---------------------------------------------------------------------------


def _fifo_starts(
    config: StationConfig,
    fixed_lengths: Sequence[int],
    releases: Sequence[int],
) -> list[int | None]:
    """Earliest FIFO start hours for equal-length jobs behind fixed hour-1 blocks.

    This is the greedy rule: every depleted battery starts charging the
    first hour a charger is free.  ``releases`` must be sorted.  With equal
    durations and first-in-first-out charger assignment, starts are
    non-decreasing and a job fits a charger at hour ``s`` exactly when hour
    ``s`` itself has a charger free.  None marks a job that never starts.
    """
    horizon, n_chargers, duration = config.horizon, config.n_chargers, config.charge_hours
    usage = [0] * (horizon + 2)
    for length in fixed_lengths:
        for h in range(1, min(length, horizon) + 1):
            usage[h] += 1
    starts: list[int | None] = []
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


def _simulate(instance: Instance, n_starts: Counter) -> ScheduleGrid:
    """Realise ``n_starts`` (hour -> charges started) as a schedule grid."""
    cfg = instance.config
    T, D = cfg.horizon, cfg.charge_hours
    demand, arrivals = instance.events.demand, instance.events.arrivals
    # Each battery's state changes as (hour, letter), starting from its start
    # state; a later change in the same hour overrides an earlier one.
    changes = []

    # Each pool is a heap in its FIFO order; waiting and out_pool are filled
    # in battery order, which is already theirs.  A battery that turns full
    # at hour t is keyed (t, battery), behind every battery full before t, so
    # the swap stock of hour t is the heap less that hour's finished charges.
    waiting: list[tuple[int, int]] = []  # (entry hour, battery)
    full: list[tuple[tuple[int, int], int]] = []  # ((hour entered F, tiebreak), battery)
    out_pool: list[tuple[int, int]] = []  # (hour went out, battery)
    # Batteries by the hour their charge completes; a block that the horizon
    # ends is filed under T + 1, which the loop never reaches.
    finishing: list[list[int]] = [[] for _ in range(T + 2)]
    active = 0  # charges on a charger

    for b, entry in enumerate(instance.initial.entries, start=1):
        state = entry.state
        if state is _E:
            waiting.append((1, b))
            changes.append([(1, "E")])
        elif state is _C:
            finishing[min(D - entry.progress, T) + 1].append(b)
            active += 1
            changes.append([(1, "C")])
        elif state is _F:
            full.append(((0, entry.full_rank), b))
            changes.append([(1, "F")])
        else:
            out_pool.append((0, b))
            changes.append([(1, "O")])
    heapq.heapify(full)

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
            for _ in range(need):
                _, b = heapq.heappop(out_pool)
                changes[b - 1].append((t, "E"))
                heapq.heappush(waiting, (t, b))

        # 2. charges that ended at hour t - 1 become full
        finished = finishing[t]
        for b in finished:
            changes[b - 1].append((t, "F"))
            heapq.heappush(full, ((t, b), b))
        active -= len(finished)

        # 3. charge starts, longest-waiting batteries first
        starts = min(n_starts[t], len(waiting))
        if starts:
            ending = finishing[min(t + D, T + 1)]
            for _ in range(starts):
                _, b = heapq.heappop(waiting)
                ending.append(b)
                changes[b - 1].append((t, "C"))
            active += starts
        if active > cfg.n_chargers:
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
            for _ in range(need):
                _, b = heapq.heappop(full)
                changes[b - 1].append((t, "O"))
                heapq.heappush(out_pool, (t, b))

    rows = []
    for marks in changes:
        row = ""
        hour, letter = marks[0]
        for next_hour, next_letter in marks[1:]:
            row += letter * (next_hour - hour)
            hour, letter = next_hour, next_letter
        rows.append(row + letter * (T + 1 - hour))
    return ScheduleGrid(tuple(rows))


def solve_greedy(instance: Instance) -> ScheduleGrid:
    """Charge as soon as possible under the FIFO disciplines.

    Maximizes completions by every hour, so if this raises InfeasibleError
    (carrying the first failing hour) no schedule covers the demand.
    """
    fixed, releases = _job_table(instance.config, instance.initial, instance.events.arrivals)
    return _simulate(instance, Counter(_fifo_starts(instance.config, fixed, releases)))


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


def solve_exact(
    instance: Instance,
    objective: SolveObjective = SolveObjective.MIN_COST,
) -> tuple[ScheduleGrid, CostBreakdown]:
    """Minimum-electricity-cost schedule from one min-cost-flow solve over start counts.

    Every movable job runs a block of ``charge_hours`` and the start windows
    open and close in canonical order, so cost, charger use and completions
    depend only on ``y[t]``, the number of movable starts by hour ``t``, and
    each constraint on ``y`` is a difference constraint.  Of the optimal
    ``y``, the componentwise-largest one is taken, which is the count
    profile of the lexicographically earliest optimal start vector; its
    starts go to the longest-waiting batteries.  The greedy schedule runs
    only to answer the feasibility objective, or after the flow or the
    realisation of its starts fails, to prove infeasibility with the first
    failing hour.
    """
    cfg = instance.config
    prices = instance.events.price
    if objective is SolveObjective.FEASIBILITY:
        grid = solve_greedy(instance)  # raises InfeasibleError with the proof hour
        return grid, schedule_cost(grid, cfg, prices)
    try:
        grid = _simulate(instance, _cheapest_starts(instance))
    except InfeasibleError:
        # Swaps and arrivals that no movable block can reach are outside the
        # flow; greedy names the first hour that fails, if one does.
        solve_greedy(instance)
        raise
    return grid, schedule_cost(grid, cfg, prices)


def _cheapest_starts(instance: Instance) -> Counter:
    """Movable starts per hour of the lexicographically earliest cost-minimizing start vector.

    The bounds on the start counts come from hour tables built straight
    from the start states and the arrivals (``_job_table``): how many start
    windows open and close at each hour (``_window``), how many chargers the
    continuations hold, and how many batteries are full by each hour without
    any movable charge.  No job is built one by one.
    """
    cfg = instance.config
    T, D = cfg.horizon, cfg.charge_hours
    fixed, releases = _job_table(instance.config, instance.initial, instance.events.arrivals)
    opened = [0] * (T + 1)  # movable start windows opening / closing at hour t
    closed = [0] * (T + 1)
    for release, n in Counter(releases).items():
        window = _window(release, D, T)
        if window:
            opened[window[0]] += n
            closed[window[-1]] += n
    busy = [0] * (T + 1)  # chargers held by continuations
    stock = [instance.initial.count(_F)] * (T + 1)  # full by hour t without movable jobs
    for length in fixed:
        for h in range(1, min(length, T) + 1):
            busy[h] += 1
        for h in range(length + 1, T + 1):
            stock[h] += 1

    # An arc (u, v, w) says y[v] <= y[u] + w.  A block started by hour t is
    # full at t + D and serves the swaps of hour t + D + 1 onwards; swaps
    # that no movable block can reach in time are left to the realisation.
    # Bounds implied by y[t-1] <= y[t] are left out: an upper bound equal to
    # the next hour's, and a lower bound no higher than an earlier one or 0.
    # Hour T's upper bound always stays; it keeps every hour reachable from 0.
    served = list(itertools.accumulate(instance.events.demand, initial=0))
    high = list(itertools.accumulate(opened))
    arcs = []
    low = floor = 0
    for t in range(1, T + 1):
        low += closed[t]
        need = served[t + D + 1] - stock[t + D] if t + D < T else 0
        arcs += [(t, t - 1, 0), (max(t - D, 0), t, max(cfg.n_chargers - busy[t], 0))]
        if t == T or high[t] < high[t + 1]:
            arcs.append((0, t, high[t]))
        if max(low, need) > floor:
            floor = max(low, need)
            arcs.append((t, 0, -floor))
    # sum_t c_t (y[t] - y[t-1]) = sum_t (c_t - c_{t+1}) y[t], where c_t, the
    # price of a block started at t, telescopes to price[t] - price[t + D]
    # (prices past the horizon are 0).
    prices = instance.events.price
    scale = math.lcm(*(p.denominator for p in prices))
    level = [p.numerator * (scale // p.denominator) for p in prices]
    weight = [0] + [
        level[t - 1] - (level[t + D - 1] if t + D <= T else 0) for t in range(1, T + 1)
    ]
    y = _largest_optimal_potentials(T + 1, arcs, weight)
    return Counter({t: y[t] - y[t - 1] for t in range(1, T + 1)})


def _largest_optimal_potentials(
    n: int, arcs: list[tuple[int, int, int]], weight: list[int]
) -> list[int]:
    """Componentwise-largest integer ``y`` minimizing ``sum(weight[v] * y[v])``
    subject to ``y[v] <= y[u] + w`` for every arc ``(u, v, w)`` and ``y[0] == 0``.

    This LP is the dual of a min-cost flow: node ``v`` supplies
    ``weight[v]`` units (node 0 takes up the balance) over uncapacitated arcs
    of cost ``w``.  Primal-dual phases route that flow (Ahuja, Magnanti &
    Orlin, *Network Flows*, 1993, section 9.8): each runs one Bellman-Ford
    from the source, then pushes flow along arcs tight for those distances
    (``dist[u] + cost[e] == dist[v]``) until the sink is cut off on them, so
    reduced costs stay non-negative and one phase can push along many
    paths.  The optimal ``y`` are the potentials the residual graph of an
    optimal flow admits, and the distances from node 0 are the largest of
    them.  By complementary slackness that set does not depend on which
    optimal flow the phases find.  Every node must be reachable from node 0.
    Raises InfeasibleError when the constraints contradict each other (a
    negative cycle).
    """
    source, sink = n, n + 1
    unbounded = sum(abs(w) for w in weight) + 1  # more than the flow can ever need
    edges = [(u, v, unbounded, w) for u, v, w in arcs]
    balance = weight[1:]
    for v, supply in enumerate([-sum(balance)] + balance):
        if supply > 0:
            edges.append((source, v, supply, 0))
        elif supply < 0:
            edges.append((v, sink, -supply, 0))
    head: list[int] = []  # arc e and its reverse e ^ 1 are stored side by side
    cap: list[int] = []
    cost: list[int] = []
    out: list[list[int]] = [[] for _ in range(n + 2)]
    for u, v, c, w in edges:
        out[u].append(len(head))
        out[v].append(len(head) + 1)
        head += (v, u)
        cap += (c, 0)
        cost += (w, -w)

    # Each phase's depth-first search keeps a current-arc pointer per node;
    # ``blocked`` marks the nodes on its path and those it retreated from,
    # which are dead for the rest of the phase.
    while True:
        dist = _shortest_paths(out, head, cap, cost, source)
        if dist[sink] is None:
            break
        pointer = [0] * len(out)
        blocked = [False] * len(out)
        blocked[source] = True
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                    blocked[head[e]] = False
                path.clear()
                u = source
                continue
            out_u, du = out[u], dist[u]
            for i in range(pointer[u], len(out_u)):
                e = out_u[i]
                v = head[e]
                if cap[e] > 0 and not blocked[v] and du + cost[e] == dist[v]:
                    pointer[u] = i
                    path.append(e)
                    blocked[v] = True
                    u = v
                    break
            else:  # u is dead: retreat, or end the phase at the source
                if not path:
                    break
                u = head[path.pop() ^ 1]
                pointer[u] += 1
    return _shortest_paths(out, head, cap, cost, 0)[:n]


def _shortest_paths(
    out: list[list[int]], head: list[int], cap: list[int], cost: list[int], origin: int
) -> list[int | None]:
    """Queue-based Bellman-Ford from ``origin`` over arcs with spare capacity.

    Returns each node's distance (None when unreachable).  A path of as many
    arcs as there are nodes repeats a node, which only a negative cycle makes
    shorter.
    """
    n = len(out)
    dist: list[int | None] = [None] * n
    hops = [0] * n
    queued = [False] * n
    dist[origin] = 0
    queue = deque([origin])
    while queue:
        u = queue.popleft()
        queued[u] = False
        du = dist[u]
        for e in out[u]:
            if cap[e] > 0:
                v = head[e]
                d = du + cost[e]
                if dist[v] is None or d < dist[v]:
                    dist[v], hops[v] = d, hops[u] + 1
                    if hops[v] >= n:
                        raise InfeasibleError(
                            None, "no arrangement of full charge blocks covers the demand"
                        )
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
    return dist


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def solve_oracle(
    instance: Instance,
    objective: SolveObjective = SolveObjective.MIN_COST,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> tuple[ScheduleGrid, CostBreakdown]:
    """Exhaustively enumerate start vectors; cross-check for solve_exact.

    Each vector is realised through its per-hour start counts, like every
    other method's, and the schedule is filtered through strict validation
    rather than through the exact solver's reasoning.  Refuses instances whose
    vector count exceeds ``budget``.
    """
    cfg = instance.config
    prices = instance.events.price
    movables = [j for j in build_jobs(instance) if j.movable]
    domains = [start_domain(j, cfg) or (None,) for j in movables]
    size = 1
    for dom in domains:
        size *= len(dom)
    if size > budget:
        raise EnumerationBudgetError(size, budget)

    best: tuple[Fraction, ScheduleGrid, CostBreakdown] | None = None
    for combo in itertools.product(*domains):
        try:
            grid = _simulate(instance, Counter(combo))
        except InfeasibleError:
            continue
        if not validate(grid, instance, "strict").feasible:
            continue
        cost = schedule_cost(grid, cfg, prices)
        if objective is SolveObjective.FEASIBILITY:
            return grid, cost
        if best is None or cost.total < best[0]:
            best = (cost.total, grid, cost)
    if best is None:
        solve_greedy(instance)  # raises with the proof hour when demand is the cause
        raise InfeasibleError(None, "no start vector passes strict validation")
    return best[1], best[2]
