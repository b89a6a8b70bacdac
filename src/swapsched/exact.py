"""The exact solver, the brute-force oracle and the job API they search over.

Every job is scheduled.  A movable job whose full charge block fits inside
the horizon must run the full block (its start domain is capped so the block
fits); a job released too late to ever complete may start anywhere from its
release and is truncated by the horizon.

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
cross-check the exact solver; ``ChargeJob``, ``build_jobs`` and
``start_domain`` name the jobs and start hours it enumerates.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from fractions import Fraction

from .errors import EnumerationBudgetError, InfeasibleError
from .model import (
    DEFAULT_ORACLE_BUDGET,
    BatteryState,
    Instance,
    ScheduleGrid,
    StationConfig,
    _job_table,
    _Value,
)
from .solver import CostBreakdown, SolveObjective, _simulate, schedule_cost, solve_greedy
from .validation import validate

__all__ = [
    "ChargeJob",
    "build_jobs",
    "start_domain",
    "solve_exact",
    "solve_oracle",
]

_F = BatteryState.FULL


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


def _window(release: int, duration: int, horizon: int) -> range:
    """Start hours of a movable job: those whose full block fits in the horizon,
    or, when none does, every hour from release to the horizon (the block is
    cut off).  Empty when the job is released after the horizon.
    """
    last = horizon - duration + 1
    return range(release, (last if last >= release else horizon) + 1)


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
