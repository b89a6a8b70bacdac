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
from .model import BatteryState, ScheduleGrid, StationConfig, _Value, to_exact
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
        object.__setattr__(self, "release", release)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "fixed_start", fixed_start)

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
    entries = instance.initial.entries
    releases = enumerate(instance.events.arrivals, start=2)  # the hour after each arrival
    return tuple(
        [ChargeJob(1, D - e.progress, fixed_start=1) for e in entries if e.state is _C]
        + [ChargeJob(1, D) for e in entries if e.state is _E]
        + [ChargeJob(r, D) for r, n in releases for _ in range(n)]
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
    T = config.horizon
    lo = job.release
    if lo > T:
        return ()
    hi = T - job.duration + 1
    if hi < lo:
        hi = T
    return tuple(range(lo, hi + 1))


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
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "per_hour", per_hour)
        object.__setattr__(self, "per_battery", per_battery)
        object.__setattr__(self, "energy_kwh", energy_kwh)

    def to_json_dict(self) -> dict:
        return {
            "total": float(self.total),
            "per_hour": [float(x) for x in self.per_hour],
            "per_battery": [float(x) for x in self.per_battery],
            "energy_kwh": float(self.energy_kwh),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def schedule_cost(grid: ScheduleGrid, config: StationConfig, price: Sequence) -> CostBreakdown:
    """Price out a schedule: every charging battery-hour draws the charge power."""
    if grid.n_batteries != config.n_batteries or grid.horizon != config.horizon:
        raise DimensionError(
            f"grid is {grid.n_batteries}x{grid.horizon}, "
            f"config says {config.n_batteries}x{config.horizon}"
        )
    prices = [to_exact(p) for p in price]
    if len(prices) != config.horizon:
        raise DimensionError(
            f"{len(prices)} prices for a horizon of {config.horizon} hours"
        )
    # Sums run over integers: each hour's price of one charging cell, scaled
    # by the power's denominator times the lcm of the prices' denominators,
    # back to a Fraction per field.
    power = config.power_kw
    lcm = math.lcm(*(p.denominator for p in prices))
    scale = lcm * power.denominator
    unit = [p.numerator * (lcm // p.denominator) * power.numerator for p in prices]
    charging = [0] * config.horizon
    per_battery = []
    for row in grid.rows:
        acc = 0
        for t, cell in enumerate(row):
            if cell == "C":
                acc += unit[t]
                charging[t] += 1
        per_battery.append(Fraction(acc, scale))
    per_hour = [u * n for u, n in zip(unit, charging)]
    return CostBreakdown(
        total=Fraction(sum(per_hour), scale),
        per_hour=tuple(Fraction(x, scale) for x in per_hour),
        per_battery=tuple(per_battery),
        energy_kwh=power * sum(charging),
    )


# ---------------------------------------------------------------------------
# Simulation engine
#
# One hour loop realises per-hour start counts for every method: greedy's
# come from _fifo_starts, the exact solver's from the flow, the oracle's from
# each enumerated start vector.  Each hour's starts go to the longest-waiting
# empty batteries.  Events within an hour settle in a fixed order: arrivals
# land, charges complete, charges start, swaps land.  The loop records only
# these state changes, and each battery's row of letters is written once from
# them at the end: between changes a battery keeps its state.
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
    T = cfg.horizon
    demand, arrivals = instance.events.demand, instance.events.arrivals
    # Each battery's state changes as (hour, letter), starting from its start
    # state; a later change in the same hour overrides an earlier one.
    changes = [[(1, entry.state.letter)] for entry in instance.initial.entries]

    # Each pool is a heap in its FIFO order.  A battery that turns full at hour
    # t is keyed (t, battery), behind every battery full before t, so the
    # swap stock of hour t is the heap less that hour's finished charges.
    waiting: list[tuple[int, int]] = []  # (entry hour, battery)
    charge_end: dict[int, int] = {}  # battery -> last charging hour
    full: list[tuple[tuple[int, int], int]] = []  # ((hour entered F, tiebreak), battery)
    out_pool: list[tuple[int, int]] = []  # (hour went out, battery)

    for b, entry in enumerate(instance.initial.entries, start=1):
        if entry.state is _E:
            waiting.append((1, b))
        elif entry.state is _C:
            charge_end[b] = min(cfg.charge_hours - entry.progress, T)
        elif entry.state is _F:
            full.append(((0, entry.full_rank), b))
        else:
            out_pool.append((0, b))
    for pool in (waiting, full, out_pool):
        heapq.heapify(pool)

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

        # 2. finished charges become full
        finished = [b for b, end in charge_end.items() if end < t]
        for b in finished:
            del charge_end[b]
            changes[b - 1].append((t, "F"))
            heapq.heappush(full, ((t, b), b))

        # 3. charge starts, longest-waiting batteries first
        for _ in range(min(n_starts[t], len(waiting))):
            _, b = heapq.heappop(waiting)
            charge_end[b] = min(t + cfg.charge_hours - 1, T)
            changes[b - 1].append((t, "C"))
        if len(charge_end) > cfg.n_chargers:
            raise InfeasibleError(t, f"{len(charge_end)} concurrent charges at hour {t}")

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
        ends = [hour for hour, _ in marks[1:]] + [T + 1]
        rows.append("".join(letter * (end - hour) for (hour, letter), end in zip(marks, ends)))
    return ScheduleGrid(tuple(rows))


def solve_greedy(instance: Instance) -> ScheduleGrid:
    """Charge as soon as possible under the FIFO disciplines.

    Maximizes completions by every hour, so if this raises InfeasibleError
    (carrying the first failing hour) no schedule covers the demand.
    """
    jobs = build_jobs(instance)
    fixed = [j.duration for j in jobs if not j.movable]
    releases = [j.release for j in jobs if j.movable]
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
    """Movable starts per hour of the lexicographically earliest cost-minimizing start vector."""
    cfg = instance.config
    T, D = cfg.horizon, cfg.charge_hours
    opened = [0] * (T + 1)  # movable start windows opening / closing at hour t
    closed = [0] * (T + 1)
    busy = [0] * (T + 1)  # chargers held by fixed jobs
    stock = [instance.initial.count(_F)] * (T + 1)  # full by hour t without movable jobs
    for j in build_jobs(instance):
        domain = start_domain(j, cfg)
        if not j.movable:
            end = j.fixed_start + j.duration - 1
            for h in range(j.fixed_start, min(end, T) + 1):
                busy[h] += 1
            for h in range(end + 1, T + 1):
                stock[h] += 1
        elif domain:
            opened[domain[0]] += 1
            closed[domain[-1]] += 1

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
