"""day-ahead-exact: the station-size ladder solved with ``solve_exact`` on TOU tariffs.

Almost all the time goes to the exact search.  The ladder mixes instances
that solve within milliseconds with instances that run into the per-solve
cap; a capped solve is recorded as a timeout and counted at the cap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

from swapsched import (
    BatteryStart,
    BatteryState,
    EventProfiles,
    InitialConditions,
    Instance,
    StationConfig,
    demo_instance,
    format_exact,
    parse_grid,
    render_grid,
    schedule_cost,
    solve_exact,
    solve_greedy,
    solve_oracle,
    validate,
)

from common import (
    ORACLE_BUDGET,
    CapExceeded,
    GateResult,
    OpRecord,
    digest,
    item_seeds,
    rung_name,
    search_size,
    setup_bundles,
    station_spec,
    tou_tariff,
)

NAME = "day-ahead-exact"

# batteries, chargers, charge hours, horizon, instances per pass, cap (s at
# the reference pace).  On 24-hour stations a solve either ends within about
# 20 ms or runs for 50 ms to seconds (none of 4800 solves ended in between,
# about one in a thousand took 50-100 ms), so a 40 ms cap sits in the gap;
# 48-hour stations solve in up to about 0.25 s or run past 2 s (4 of 120),
# and 100- and 400-battery stations take 3 s or more.  With fewer than 1000
# ops a pass's tail percentile is p95, inside the quarter of 24-hour solves
# that reach their cap, and not on the jumps between the capped and the
# solved times.
LADDER = (
    (12, 4, 4, 24, 240, 0.04),
    (16, 4, 4, 24, 240, 0.04),
    (20, 5, 4, 24, 240, 0.04),
    (24, 6, 4, 24, 240, 0.04),
    (40, 8, 4, 48, 20, 0.5),
    (100, 20, 4, 96, 3, 0.5),
    (400, 60, 4, 168, 2, 0.5),
)
FIXED_CAP_S = 0.04  # the demo and the valley
PACE_CHUNKS = 1
PACE_WINDOW = 15  # an op and its chunk take about 15 ms
CLI_CHECKS = 3


def valley() -> Instance:
    """One battery, one charger, a two-hour charge and a price valley at hours 3-4."""
    config = StationConfig(
        n_batteries=1, n_chargers=1, charge_hours=2, capacity_kwh=Fraction(20),
        horizon=6, charge_power_kw=Fraction(10),
    )
    events = EventProfiles(
        demand=(0, 0, 0, 0, 0, 1),
        arrivals=(0,) * 6,
        price=tuple(Fraction(p) for p in (10, 10, 1, 1, 10, 10)),
    )
    return Instance(config, InitialConditions((BatteryStart(state=BatteryState.EMPTY),)), events)


def items(seed: int) -> list[tuple[str, object, float]]:
    """(name, instance or spec, cap) for one pass, generated from ``seed``."""
    seeds = item_seeds(NAME, seed)
    out = [("demo", demo_instance()[0], FIXED_CAP_S), ("valley", valley(), FIXED_CAP_S)]
    for b, c, d, h, count, cap in LADDER:
        for i in range(count):
            spec = station_spec(b, c, d, h, next(seeds), tou_tariff(h))
            out.append((f"{rung_name(b, c, d, h)}-{i:03d}", spec, cap))
    return out


def setup(seed: int, workdir: Path, api, pace) -> dict:
    return setup_bundles(items(seed), workdir, api, pace)


def ops(state) -> list[tuple]:
    """(item, kind, instance, cap) for one pass."""
    return [(name, name.rsplit("-", 1)[0], instance, cap) for name, instance, cap, _ in state["items"]]


def run_op(op, api, cli, pace):
    _, _, instance, cap = op
    try:
        return "ok", api.call("solver.solve_exact", pace.run_capped, cap, solve_exact, instance)
    except CapExceeded:
        api.count("solver.exact_timeouts", 1)
        return "timeout", None


def _solution_checks(gate, name, instance, grid, cost, api) -> None:
    """Strict validity, cost accounting and render/parse identity of one solution."""
    report = api.call("validation.validate", validate, grid, instance, "strict")
    api.count("validation.violations", len(report.violations))
    gate.check(report.feasible, name, "solution fails strict validation")
    priced = api.call("solver.schedule_cost", schedule_cost, grid, instance.config, instance.events.price)
    gate.check(priced == cost, name, "reported cost differs from schedule_cost of the grid")
    text = api.call("model.render_grid", render_grid, grid)
    gate.check(api.call("model.parse_grid", parse_grid, text, instance.config) == grid,
               name, "render/parse round trip changed the grid")


def verify(state, records: list[OpRecord], api, cli) -> GateResult:
    gate = GateResult()
    firsts = [r for r in records if r.pass_no == 0]
    first = {r.item: r for r in firsts}
    to_cap = [r.ms / 1000 / op[3] for r, op in zip(firsts, ops(state)) if r.status == "ok"]
    gate.notes["closest_solve_to_cap"] = round(max(to_cap, default=0.0), 3)
    for name, instance, cap, round_trip in state["items"]:
        with gate.guard(name):
            gate.check(round_trip, name, "bundle load differs from the generated instance")
            rec = first[name]
            movable, space = search_size(instance, api)
            greedy = api.call("solver.solve_greedy", solve_greedy, instance)
            greedy_cost = api.call("solver.schedule_cost", schedule_cost, greedy, instance.config, instance.events.price)
            _solution_checks(gate, name, instance, greedy, greedy_cost, api)
            row = {
                "item": name, "batteries": instance.config.n_batteries, "chargers": instance.config.n_chargers,
                "charge_hours": instance.config.charge_hours, "horizon": instance.config.horizon,
                "movable_jobs": movable, "space_log10": round(math.log10(space), 3),
                "greedy_cost": format_exact(greedy_cost.total), "exact_cost": "",
                "status": "solved" if rec.status == "ok" else rec.status, "exact_ms": round(rec.ms, 3),
                "cap_s": cap, "digest": "",
            }
            gate.rows.append(row)
            if rec.status != "ok":
                continue
            grid, cost = rec.output
            row["exact_cost"] = format_exact(cost.total)
            row["digest"] = digest(grid, cost)
            _solution_checks(gate, name, instance, grid, cost, api)
            gate.check(cost.total <= greedy_cost.total, name, "exact costs more than greedy")
            if space <= ORACLE_BUDGET:
                o_grid, o_cost = api.call("solver.solve_oracle", solve_oracle, instance, budget=ORACLE_BUDGET)
                gate.check(o_grid == grid and o_cost == cost, name, "exact differs from the oracle")
    _cli_checks(gate, state, first, cli)
    return gate


def _cli_checks(gate, state, first, cli) -> None:
    """The CLI must pass the exact schedules the library produced as strictly valid."""
    solved = [it for it in state["items"] if first[it[0]].status == "ok"]
    for name, instance, _, _ in solved[:CLI_CHECKS]:
        schedule = state["workdir"] / f"{name}.schedule.txt"
        schedule.write_text(render_grid(first[name].output[0]))
        cli.check(gate, name, ["validate", "--instance", str(state["workdir"] / name),
                               "--schedule", str(schedule), "--mode", "strict"], 0)


def panel(seed: int) -> list[tuple[str, object, float]]:
    """Reference instances re-solved by every run: the first two of each rung up
    to 40 batteries (larger stations always reach the cap)."""
    chosen = []
    seen: dict[str, int] = {}
    for name, source, cap in items(seed):
        rung = name.rsplit("-", 1)[0]
        if source.config.n_batteries <= 40 and seen.get(rung, 0) < 2:
            seen[rung] = seen.get(rung, 0) + 1
            chosen.append((name, source, cap))
    return chosen
