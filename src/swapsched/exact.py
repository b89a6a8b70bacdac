"""The exact solver, the brute-force oracle and the per-job model.

``solve_exact`` finds the cheapest schedule, breaking cost ties toward the
lexicographically earliest start vector.  It works on start counts:
``_cheapest_starts`` states the bounds on them and why they suffice,
``_relaxed_starts`` solves them without the charger bounds past the first
block and says when that answer is optimal, and
``_largest_optimal_potentials`` solves the full system as a min-cost flow.
It reads the prices its instance scaled once (``Instance._price_levels``)
and, like every method, its cost from the realisation (``solver._simulate``).
``solve_oracle`` enumerates start vectors by release hour to cross-check it.
``ChargeJob``, ``build_jobs`` and ``start_domain`` state ``_window`` a job at
a time; no solver reads them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque

from .errors import EnumerationBudgetError, InfeasibleError
from .model import (
    DEFAULT_ORACLE_BUDGET,
    BatteryState,
    Instance,
    ScheduleGrid,
    StationConfig,
    _hour_tables,
    _Value,
    _window,
)
from .solver import CostBreakdown, SolveObjective, _greedy_starts, _simulate, solve_greedy

__all__ = [
    "ChargeJob",
    "build_jobs",
    "start_domain",
    "solve_exact",
    "solve_oracle",
]

_E, _C = BatteryState.EMPTY, BatteryState.CHARGING
_NO_ARRANGEMENT = "no arrangement of full charge blocks covers the demand"


class ChargeJob(_Value):
    """One required charge block of ``duration`` hours, released at ``release``.

    ``fixed_start`` pins continuation jobs to hour 1; movable jobs have None.
    A job names no battery: the realisation hands each hour's starts to the
    longest-waiting empty batteries.  No solver reads jobs.
    """

    __slots__ = ("release", "duration", "fixed_start")

    def __init__(self, release: int, duration: int, fixed_start: int | None = None):
        super().__init__(release, duration, fixed_start)

    @property
    def movable(self) -> bool:
        return self.fixed_start is None


def build_jobs(instance: Instance) -> tuple[ChargeJob, ...]:
    """Expand an instance into its charge jobs, in canonical order; no solver builds them.

    Order: continuations (battery index), initial-empty batteries (battery
    index), then one job per arrival unit (hour order).  The canonical order
    is also the FIFO priority order and the order of start vectors.
    """
    D = instance.config.charge_hours
    entries = instance.initial.entries
    return tuple(
        [ChargeJob(1, D - e.progress, fixed_start=1) for e in entries if e.state is _C]
        + [ChargeJob(1, D) for e in entries if e.state is _E]
        + [ChargeJob(r, D) for r, n in enumerate(instance.events.arrivals, start=2) for _ in range(n)]
    )


def start_domain(job: ChargeJob, config: StationConfig) -> tuple[int, ...]:
    """Legal start hours for a job, as ``_window`` gives them; no solver reads this.

    Movable jobs whose block fits run it in full (start capped at
    horizon - duration + 1); jobs released too late to ever complete may
    start any hour from release to the horizon and run truncated.  A job
    released after the horizon (arrival in the final hour) never starts.
    """
    if not job.movable:
        return (job.fixed_start,)
    first, last = _window(job.release, job.duration, config.horizon)
    return tuple(range(first, last + 1))


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


def solve_exact(
    instance: Instance,
    objective: SolveObjective = SolveObjective.MIN_COST,
) -> tuple[ScheduleGrid, CostBreakdown]:
    """Minimum-electricity-cost schedule, solved over start counts.

    Every movable job runs a block of ``charge_hours`` and the start windows
    open and close in canonical order, so cost, charger use and completions
    depend only on ``y[t]``, the number of movable starts by hour ``t``, and
    each constraint on ``y`` is a difference constraint.  Of the optimal
    ``y``, the componentwise-largest one is taken, which is the count
    profile of the lexicographically earliest optimal start vector; its
    starts go to the longest-waiting batteries.  The feasibility objective
    takes greedy's starts.  If the count solve or the realisation fails,
    greedy runs to prove infeasibility with the first failing hour.
    """
    starts = _greedy_starts if objective is SolveObjective.FEASIBILITY else _cheapest_starts
    try:
        return _simulate(instance, starts(instance))
    except InfeasibleError:
        # Swaps and arrivals that no movable block can reach are outside the
        # count solve; greedy names the first hour that fails, if one does.
        solve_greedy(instance)
        raise


def _cheapest_starts(instance: Instance) -> list[int]:
    """Movable starts per hour (index 0 unused) of the lexicographically
    earliest start vector that minimizes cost at ``instance._price_levels``.

    The bounds come from the hour tables of ``model._hour_tables``, which
    greedy and the scenario generator's repairs read too: how many start
    windows have opened and closed by each hour (``high`` and ``low``), how
    many chargers the continuations hold, and how many batteries are full by
    each hour without any movable charge.  They are worked out once, and
    ``_relaxed_starts`` solves the LP without the charger arcs ``(t - D, t)``
    for t > D.  If its picks fit those arcs, they are the flow's answer:
    (1) they are feasible for the full LP; (2) they are optimal, as the
    relaxation's minimum bounds the full LP's; (3) they are componentwise
    largest, as every full optimum is a relaxation optimum.  If a pick
    overloads a charger, the flow runs over arcs built from the same
    ``ceiling``, ``floors`` and ``room``: a tighter lower bound, such as
    leaving out the charges the chargers cannot fit, changes one list.
    """
    cfg = instance.config
    T, D = cfg.horizon, cfg.charge_hours
    full, room, high, low = _hour_tables(cfg, instance.initial, instance.events.arrivals)
    # A block started by hour t is full at t + D and serves the swaps of hour
    # t + D + 1 onwards; swaps that no movable block can reach in time are
    # left to the realisation.  Blocks started after hour max(t - D, 0) hold
    # chargers at t, so at most ``room[t]`` of them do; fewer than 0 free
    # (continuations outnumber chargers) is refused, and greedy names hour 1.
    served = list(itertools.accumulate(instance.events.demand, initial=0))
    hours = range(1, T + 1)
    floors = [0] * (T + 1)
    floor = 0
    for t in hours:
        bound = max(low[t], served[t + D + 1] - full[t + D] if t + D < T else 0)
        if bound > floor:
            floor = bound
        floors[t] = floor
    ceiling = [min(h, r) for h, r in zip(high[: D + 1], room)] + high[D + 1 :]
    # cost[t], the price of a block started at t, is cut off by the horizon.
    before = list(itertools.accumulate(instance._price_levels[0], initial=0))
    cost = [0] + [b - a for a, b in zip(before[:T], before[D:] + [before[T]] * min(D, T))]
    starts = _relaxed_starts(D, floors, ceiling, room, cost)
    if starts is not None:
        return starts
    # An arc (u, v, w) says y[v] <= y[u] + w: the relaxation's ceilings and
    # floors, and the room past hour D.  Bounds implied by y[t-1] <= y[t] are
    # left out (a ceiling equal to the next, a floor no higher than one before
    # or 0); hour T's ceiling stays, so every hour is reachable from 0.
    arcs = [(t, t - 1, 0) for t in hours]
    arcs += [(0, t, ceiling[t]) for t in hours if t == T or ceiling[t] < ceiling[t + 1]]
    arcs += [(t, 0, -floors[t]) for t in hours if floors[t] > floors[t - 1]]
    arcs += [(t - D, t, room[t]) for t in hours if t > D]
    # sum_t cost[t] (y[t] - y[t-1]) = sum_t (cost[t] - cost[t+1]) y[t], where
    # cost[T + 1] is 0.
    weight = [0] + [c - d for c, d in zip(cost[1:], cost[2:] + [0])]
    y = _largest_optimal_potentials(T + 1, arcs, weight)
    return [0] + [b - a for a, b in zip(y, y[1:])]


def _relaxed_starts(
    D: int, floors: list[int], ceiling: list[int], room: list[int], cost: list[int]
) -> list[int] | None:
    """``_cheapest_starts``' answer from the LP without its charger bounds past
    hour D, or None when that answer overloads a charger.  A floor above its
    ceiling makes both LPs infeasible; that raises the flow's InfeasibleError.

    The counts never fall and stay between ``floors`` and ``ceiling``, which
    never fall either, and a block started at t costs ``cost[t] >= 0``.  So
    the k-th start goes to the earliest hour of least cost from the first
    hour whose ceiling reaches k to the first whose floor reaches k (or hour
    T), and a start past ``floors[T]`` only where that cost is 0 (none is
    today: every window closes by hour T).  The windows move in order, so
    the picks never decrease and each run of starts with one window takes
    one pick.  Each pick past hour D is checked against ``room``; the pick
    hours suffice, as between them the blocks on chargers only fall and the
    room never does.
    """
    T = len(cost) - 1
    if any(map(int.__gt__, floors, ceiling)):
        raise InfeasibleError(None, _NO_ARRANGEMENT)
    starts = [0] * (T + 1)
    top, k, a, b, free = floors[T], 1, 1, 1, 1
    early, e = 0, 0  # early: the starts at hours before e, which only grows
    # The windows only move forward: ``cheapest`` keeps, in order, the hours up
    # to b that cost no more than any later one, and the first from a is the
    # pick; past ``top``, the pick is ``free``, the first free hour from a.
    cheapest = deque([1])
    while k <= ceiling[T]:
        while ceiling[a] < k:
            a += 1
        if k <= top:
            while floors[b] < k:
                b += 1
                while cheapest and cost[cheapest[-1]] > cost[b]:
                    cheapest.pop()
                cheapest.append(b)
            last = min(ceiling[a], floors[b])
            while cheapest[0] < a:
                cheapest.popleft()
            pick = cheapest[0]
        else:
            while free < a or free <= T and cost[free]:
                free += 1
            if free > T:
                break
            last, pick = ceiling[a], free
        starts[pick] += last - k + 1
        k = last + 1
        # The picks so far are every start up to this one, ``last`` of them;
        # those at hours up to pick - D are off the chargers by hour pick.
        while e <= pick - D:
            early += starts[e]
            e += 1
        if pick > D and last - early > room[pick]:
            return None
    return starts


def _largest_optimal_potentials(
    n: int, arcs: list[tuple[int, int, int]], weight: list[int]
) -> list[int]:
    """Componentwise-largest integer ``y`` minimizing ``sum(weight[v] * y[v])``
    subject to ``y[v] <= y[u] + w`` for every arc ``(u, v, w)`` and ``y[0] == 0``.

    This LP is the dual of a min-cost flow over uncapacitated arcs of cost
    ``w``: node ``v`` holds an excess of ``weight[v]`` units, and node 0
    takes up the balance, so no source or sink node is needed.  An arc's
    forward residual is always there; its reverse residual, of cost ``-w``,
    only while the arc carries flow.  Primal-dual phases route the excesses
    (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, section 9.8): each runs
    one Bellman-Ford from every node with excess left, then pushes flow from
    each of them to deficits along arcs tight for those distances
    (``dist[u] + cost == dist[v]``) until no tight path is left, so reduced
    costs stay non-negative and one phase can push along many paths.  The
    optimal ``y`` are the potentials the residual graph of an optimal flow
    admits, and the distances from node 0 are the largest of them.  By
    complementary slackness that set does not depend on which optimal flow
    the phases find.  Every node must be reachable from node 0, and every
    excess must reach a deficit.  Raises InfeasibleError when the
    constraints contradict each other (a negative cycle).
    """
    excess = [-sum(weight[1:])] + weight[1:]
    flow = [0] * len(arcs)
    residual: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # (head, cost, arc)
    for a, (u, v, w) in enumerate(arcs):
        residual[u].append((v, w, a))
        residual[v].append((u, -w, ~a))  # the reverse residual is ~arc
    # Each phase's depth-first search keeps a current-arc pointer per node;
    # ``blocked`` marks the nodes on its path and those it retreated from,
    # which are dead for the rest of the phase.  Until it first pushes, a phase
    # visits every node its roots reach, so a phase with no push ends the flow.
    roots = [v for v in range(n) if excess[v] > 0]
    while roots:
        dist = _shortest_paths(residual, flow, roots)
        pointer = [0] * n
        blocked = [False] * n
        pushed = False
        for root in roots:
            blocked[root] = True
            path, steps = [root], []  # the nodes, and the arc into each after the root
            u = root
            while True:
                if excess[u] < 0:
                    push = min(excess[root], -excess[u])
                    for a in steps:
                        if a < 0 and flow[~a] < push:
                            push = flow[~a]
                    for a in steps:
                        if a < 0:
                            flow[~a] -= push
                        else:
                            flow[a] += push
                    excess[root] -= push
                    excess[u] += push
                    pushed = True
                    for v in path:
                        blocked[v] = False
                    if not excess[root]:
                        break
                    blocked[root] = True
                    del path[1:], steps[:]
                    u = root
                    continue
                du, i = dist[u], pointer[u]
                for v, c, a in residual[u][i:] if i else residual[u]:
                    if du + c == dist[v] and not blocked[v] and (a >= 0 or flow[~a]):
                        pointer[u] = i
                        path.append(v)
                        steps.append(a)
                        blocked[v] = True
                        u = v
                        break
                    i += 1
                else:  # u is dead: retreat, or leave this root for the next phase
                    if not steps:
                        break
                    steps.pop()
                    path.pop()
                    u = path[-1]
                    pointer[u] += 1
        if not pushed:
            break  # no excess reaches a deficit: the LP has no minimum
        roots = [v for v in range(n) if excess[v] > 0]
    return _shortest_paths(residual, flow, [0])


def _shortest_paths(
    residual: list[list[tuple[int, int, int]]], flow: list[int], origins: list[int]
) -> list[int | None]:
    """Queue-based Bellman-Ford over the residual arcs, from every node of
    ``origins`` at distance 0.

    Returns each node's distance (None when unreachable).  A path of as many
    arcs as there are nodes repeats a node, which only a negative cycle makes
    shorter.
    """
    n = len(residual)
    dist: list[int | None] = [None] * n
    hops = [0] * n
    queued = [False] * n
    for v in origins:
        dist[v], queued[v] = 0, True
    queue = deque(origins)
    while queue:
        u = queue.popleft()
        queued[u] = False
        du, hop = dist[u], hops[u] + 1
        if hop > n:
            raise InfeasibleError(None, _NO_ARRANGEMENT)
        for v, c, a in residual[u]:
            d = du + c
            if (a >= 0 or flow[~a]) and (dist[v] is None or d < dist[v]):
                dist[v], hops[v] = d, hop
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

    Each unit starts at an hour of its release hour's ``_window`` (never, if
    it does not open).  Each vector is realised through its start counts,
    like every method's, and filtered through strict validation, not the
    exact solver's reasoning.  Counts make one hour's units interchangeable:
    of each class, only its lexicographically first vector, sorted within
    every hour, is realised.  Refuses a count of vectors above ``budget``.
    """
    from .validation import validate  # only the oracle validates; ``solve`` need not load it

    # Each release hour's start hours and units.  The vectors number the
    # product of each hour's start hours to the power of its units, taken
    # pairwise: one small factor at a time takes time quadratic in the count.
    cfg = instance.config
    hours = []
    for release, n in enumerate([instance.initial.count(_E), *instance.events.arrivals], start=1):
        first, last = _window(release, cfg.charge_hours, cfg.horizon)
        hours.append((range(first, last + 1) or (None,), n))
    groups = [len(starts) ** n for starts, n in hours]
    while len(groups) > 1:
        groups = [math.prod(groups[i : i + 2]) for i in range(0, len(groups), 2)]
    if groups[0] > budget:
        raise EnumerationBudgetError(groups[0], budget)

    best: tuple[ScheduleGrid, CostBreakdown] | None = None
    for picks in itertools.product(*(itertools.combinations_with_replacement(*hour) for hour in hours)):
        try:
            grid, cost = _simulate(instance, Counter(itertools.chain.from_iterable(picks)))
        except InfeasibleError:
            continue
        if not validate(grid, instance, "strict").feasible:
            continue
        if objective is SolveObjective.FEASIBILITY:
            return grid, cost
        if best is None or cost.total < best[1].total:
            best = (grid, cost)
    if best is None:
        solve_greedy(instance)  # raises with the proof hour when demand is the cause
        raise InfeasibleError(None, "no start vector passes strict validation")
    return best
