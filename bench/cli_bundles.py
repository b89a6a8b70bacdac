"""cli-bundles: ``python -m swapsched`` commands run one at a time over bundle directories.

Interpreter start-up, imports and bundle I/O dominate.  Writes (``generate``,
``--out``) sit beside reads (``load_instance``, ``parse_grid``).  Each round
generates its bundles from spec files, then solves, validates and renders
them; exact solves run only on three-battery stations, whose search the
oracle can also enumerate.
"""

from __future__ import annotations

import json
import math
import subprocess
from pathlib import Path

from swapsched import (
    BatteryState,
    demo_instance,
    format_exact,
    generate,
    load_instance,
    load_spec,
    parse_grid,
    render_grid,
    save_instance,
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
    bundle_bytes,
    digest,
    item_seeds,
    run_capped,
    rung_name,
    search_size,
    station_spec,
    tou_tariff,
)

NAME = "cli-bundles"
ROUNDS = 20
STATIONS = ((24, 6, 4, 24), (40, 8, 4, 48), (100, 20, 4, 96))  # greedy, validate, render
TINY = (((3, 2, 2, 12), (3, 2)), ((3, 2, 2, 12), (3, 2)))  # exact: (station, (swaps, returns))
CAP_S = 60.0  # subprocess timeout; commands here take well under a second
# Each command takes about 100 ms, so its pace comes from the chunks run just
# before it: the median of three, as the first chunk after a command runs cold.
PACE_CHUNKS = 3
PACE_WINDOW = 3
EXACT_CAP_S = 5.0  # library cross-check of the tiny exact solves
FEASIBLE = "feasible (strict mode): all constraints hold\n"


def _spec_json(spec) -> dict:
    tariff = spec.tariff
    return {
        "config": spec.config.to_json_dict(),
        "seed": spec.seed,
        "demand": {"shape": "uniform", "total": spec.demand.total},
        "arrivals": {"shape": "uniform", "total": spec.arrivals.total},
        "tariff": {
            "kind": "tou", "off_peak": format_exact(tariff.off_peak), "peak": format_exact(tariff.peak),
            "peak_hours": [list(r) for r in tariff.peak_hours],
        },
    }


def items(seed: int) -> list[tuple[str, object, str]]:
    """(bundle name, spec, role) for every round; role is station or tiny."""
    seeds = item_seeds(NAME, seed)
    out = []
    for r in range(ROUNDS):
        for station in STATIONS:
            out.append((f"r{r:02d}-{rung_name(*station)}", station_spec(*station, next(seeds), tou_tariff(station[3])), "station"))
        for k, (station, totals) in enumerate(TINY):
            spec = station_spec(*station, next(seeds), tou_tariff(station[3]), totals=totals)
            out.append((f"r{r:02d}-{rung_name(*station)}-{k}", spec, "tiny"))
    return out


def setup(seed: int, workdir: Path, api, pace) -> dict:
    """Write the spec files, and reference bundles drawn from them in-process."""
    state = {"items": [], "bundle_bytes": 0, "workdir": workdir}
    for sub in ("specs", "ref", "cli"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    for item_no, (name, spec, role) in enumerate(items(seed)):
        pace.setup_tick(item_no)
        path = workdir / "specs" / f"{name}.json"
        path.write_text(json.dumps(_spec_json(spec), indent=2) + "\n")
        loaded_spec = api.call("scenario.load_spec", load_spec, path)
        instance = api.call("scenario.generate", generate, loaded_spec)
        api.call("scenario.save_instance", save_instance, workdir / "ref" / name, instance)
        loaded = api.call("scenario.load_instance", load_instance, workdir / "ref" / name)
        state["items"].append((name, loaded, role, loaded_spec == spec and loaded == instance))
        state["bundle_bytes"] += bundle_bytes(workdir / "ref" / name)
    return state


def ops(state) -> list[tuple]:
    """(item, kind, argv, expected exit code) for one pass, round by round."""
    w = state["workdir"]
    out = []
    by_round: dict[str, list] = {}
    for name, _, role, _ in state["items"]:
        by_round.setdefault(name[:3], []).append((name, role))
    for r, bundles in by_round.items():
        for name, _ in bundles:
            out.append((name, "generate", ["generate", "--spec", str(w / "specs" / f"{name}.json"), "--out", str(w / "cli" / name)], 0))
        for name, role in bundles:
            b = str(w / "cli" / name)
            schedule = str(w / "cli" / name / "greedy" / "schedule.txt")
            if role == "station":
                out.append((name, "solve-greedy", ["solve", "--instance", b, "--method", "greedy", "--out", f"{b}/greedy"], 0))
                out.append((name, "validate-strict", ["validate", "--instance", b, "--schedule", schedule, "--mode", "strict"], 0))
                out.append((name, "render-counts", ["render", "--instance", b, "--schedule", schedule, "--counts"], 0))
            else:
                out.append((name, "solve-exact", ["solve", "--instance", b, "--method", "exact", "--format", "json"], 0))
        out.append(("demo", "demo", ["demo", "--out", str(w / "cli" / "demo")], 0))
        out.append(("demo", "validate-demo", ["validate", "--instance", str(w / "cli" / "demo")], 1))
    return out


def run_op(op, api, cli, pace):
    _, kind, argv, expected = op
    try:
        proc = cli.process(argv)
    except subprocess.TimeoutExpired:
        if kind == "solve-exact":
            api.count("solver.exact_timeouts", 1)
        return "timeout", None
    if proc.returncode != expected:
        raise RuntimeError(f"swapsched {kind} exited {proc.returncode}, expected {expected}")
    return "ok", proc.stdout


def verify(state, records: list[OpRecord], api, cli) -> GateResult:
    gate = GateResult()
    w = state["workdir"]
    first = {(r.item, r.kind): r for r in records if r.pass_no == 0 and r.status == "ok"}
    for name, instance, role, round_trip in state["items"]:
        with gate.guard(name):
            gate.check(round_trip, name, "spec or bundle round trip changed the instance")
            for f in ("config.json", "profiles.csv", "initial.json"):
                same = (w / "cli" / name / f).read_bytes() == (w / "ref" / name / f).read_bytes()
                gate.check(same, name, f"generate --spec wrote a different {f}")
            movable, space = search_size(instance, api)
            greedy = api.call("solver.solve_greedy", solve_greedy, instance)
            greedy_cost = api.call("solver.schedule_cost", schedule_cost, greedy, instance.config, instance.events.price)
            row = {
                "item": name, "batteries": instance.config.n_batteries, "chargers": instance.config.n_chargers,
                "charge_hours": instance.config.charge_hours, "horizon": instance.config.horizon,
                "movable_jobs": movable, "space_log10": round(math.log10(space), 3),
                "greedy_cost": format_exact(greedy_cost.total), "exact_cost": "", "status": "", "solve_ms": "",
                "digest": "",
            }
            gate.rows.append(row)
            if role == "station":
                _check_station(gate, w, name, instance, greedy, greedy_cost, first, row, api)
            else:
                _check_tiny(gate, name, instance, space, greedy_cost, first, row, api)
    with gate.guard("demo"):
        _check_demo(gate, w, api)
    if api.enabled:
        done = set()
        for op in ops(state):
            rec = first.get(op[:2])
            if rec is not None and op[:2] not in done and (op[0].startswith("r00-") or op[0] == "demo"):
                done.add(op[:2])
                code, stdout = cli.main(op[2])
                gate.check((code, stdout) == (op[3], rec.output), op[0], f"cli.main {op[1]} differs from the child process")
    return gate


def _check_station(gate, w, name, instance, greedy, greedy_cost, first, row, api) -> None:
    out = w / "cli" / name / "greedy"
    text = (out / "schedule.txt").read_text()
    gate.check(text == api.call("model.render_grid", render_grid, greedy), name, "CLI greedy schedule differs from solve_greedy")
    gate.check((out / "cost.json").read_text() == greedy_cost.to_json(), name, "CLI cost.json differs from schedule_cost")
    grid = api.call("model.parse_grid", parse_grid, text, instance.config)
    report = api.call("validation.validate", validate, grid, instance, "strict")
    api.count("validation.violations", len(report.violations))
    gate.check(report.feasible, name, "CLI greedy schedule fails strict validation")
    solve = first.get((name, "solve-greedy"))
    row["status"] = "solved" if solve else "missing"
    row["solve_ms"] = round(solve.ms, 3) if solve else ""
    row["digest"] = digest(grid, greedy_cost)
    check = first.get((name, "validate-strict"))
    gate.check(check is not None and check.output == FEASIBLE, name, "validate --mode strict did not report feasible")
    render = first.get((name, "render-counts"))
    counts = "\n" + "".join(
        f"{s.letter}: " + " ".join(str(grid.count(s, t)) for t in range(1, grid.horizon + 1)) + "\n"
        for s in (BatteryState.EMPTY, BatteryState.CHARGING, BatteryState.FULL, BatteryState.OUT)
    )
    gate.check(render is not None and render.output == text + counts, name, "render --counts output is wrong")


def _check_tiny(gate, name, instance, space, greedy_cost, first, row, api) -> None:
    solve = first.get((name, "solve-exact"))
    if solve is None:
        row["status"] = "timeout"
        return
    row["solve_ms"] = round(solve.ms, 3)
    payload = json.loads(solve.output)
    row["exact_cost"] = payload["total_cost"]
    row["status"] = "solved"
    try:
        grid, cost = api.call("solver.solve_exact", run_capped, EXACT_CAP_S, solve_exact, instance)
    except CapExceeded:
        return  # the library cross-check reached its cap: nothing to compare
    row["digest"] = digest(grid, cost)
    gate.check(payload["schedule"] == render_grid(grid) and payload["total_cost"] == format_exact(cost.total),
               name, "CLI exact output differs from solve_exact")
    report = api.call("validation.validate", validate, grid, instance, "strict")
    api.count("validation.violations", len(report.violations))
    gate.check(report.feasible, name, "exact schedule fails strict validation")
    gate.check(cost.total <= greedy_cost.total, name, "exact costs more than greedy")
    if space <= ORACLE_BUDGET:
        o_grid, o_cost = api.call("solver.solve_oracle", solve_oracle, instance, budget=ORACLE_BUDGET)
        gate.check(o_grid == grid and o_cost == cost, name, "exact differs from the oracle")


def _check_demo(gate, w, api) -> None:
    instance, reference = demo_instance()
    bundle = w / "cli" / "demo"
    gate.check(api.call("scenario.load_instance", load_instance, bundle) == instance, "demo", "demo --out wrote a different instance")
    gate.check((bundle / "schedule.txt").read_text() == render_grid(reference), "demo", "demo --out wrote a different schedule")
    report = api.call("validation.validate", validate, reference, instance, "lenient")
    api.count("validation.violations", len(report.violations))
    gate.check(not report.feasible, "demo", "the published demo schedule should break charger capacity")


def panel(seed: int) -> list[tuple[str, object, float]]:
    return [(name, spec, EXACT_CAP_S) for name, spec, role in items(seed)[:10] if role == "tiny"]
