from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from swapsched import (
    BatteryStart,
    BatteryState,
    EventProfiles,
    InfeasibleError,
    InitialConditions,
    Instance,
    SolveObjective,
    StationConfig,
    cli,
    demo_instance,
    errors,
    load_instance,
    parse_grid,
    save_instance,
    solve_exact,
    solve_greedy,
    solve_oracle,
    validate,
)
from swapsched.model import MAX_CELLS, MAX_DIGITS, MAX_EXPONENT
from conftest import huge_search_space, make_valley


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "swapsched", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory) -> Path:
    """A demo bundle exported once via the CLI itself."""
    out = tmp_path_factory.mktemp("bundles") / "demo"
    proc = run_cli("demo", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def valley_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("bundles") / "valley"
    save_instance(out, make_valley())
    return out


def test_demo_prints_the_reference_and_the_divergence():
    proc = run_cli("demo")
    assert proc.returncode == 0
    assert "Hours: 1 2 3" in proc.stdout
    assert "B12: O O O O O O E E E E E C C C C C C F F F F F F F" in proc.stdout
    assert "2 lenient violation(s)" in proc.stdout
    assert "differs from the reference in 2 cell(s): B6@15, B6@16" in proc.stdout


def test_demo_export_writes_a_full_bundle(demo_dir):
    for name in ("config.json", "profiles.csv", "initial.json", "schedule.txt"):
        assert (demo_dir / name).exists(), name


def test_validate_demo_reference_fails_leniently(demo_dir):
    proc = run_cli("validate", "--instance", str(demo_dir))
    assert proc.returncode == 1
    assert "infeasible (lenient mode): 2 violation(s)" in proc.stdout
    assert "hour 15" in proc.stdout and "hour 16" in proc.stdout
    assert "charger_capacity" in proc.stdout


def test_validate_strict_mentions_the_long_run(demo_dir):
    proc = run_cli("validate", "--instance", str(demo_dir), "--mode", "strict")
    assert proc.returncode == 1
    assert "charge_duration" in proc.stdout


def test_validate_json_format(demo_dir):
    proc = run_cli("validate", "--instance", str(demo_dir), "--format", "json")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["feasible"] is False
    assert len(data["violations"]) == 2


def test_solve_greedy_then_validate_clean(demo_dir, tmp_path):
    out = tmp_path / "greedy"
    proc = run_cli("solve", "--instance", str(demo_dir), "--method", "greedy", "--out", str(out))
    assert proc.returncode == 0
    assert "total cost: 4150/3" in proc.stdout
    check = run_cli(
        "validate",
        "--instance", str(demo_dir),
        "--schedule", str(out / "schedule.txt"),
        "--mode", "strict",
    )
    assert check.returncode == 0, check.stdout + check.stderr
    assert "feasible (strict mode)" in check.stdout


def test_solve_exact_on_the_valley(valley_dir, tmp_path):
    out = tmp_path / "exact"
    proc = run_cli("solve", "--instance", str(valley_dir), "--method", "exact", "--out", str(out))
    assert proc.returncode == 0
    assert "B1: E E C C F O" in proc.stdout
    assert "total cost: 20" in proc.stdout
    cost = json.loads((out / "cost.json").read_text())
    assert cost["total"] == 20.0
    assert (out / "schedule.txt").read_text().splitlines()[1] == "B1: E E C C F O"


def test_solve_oracle_agrees_on_the_valley(valley_dir):
    proc = run_cli("solve", "--instance", str(valley_dir), "--method", "oracle", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["total_cost"] == "20"
    assert "E E C C F O" in data["schedule"]


def test_solve_oracle_for_feasibility_returns_a_strictly_valid_schedule(valley_dir, capsys):
    argv = ["solve", "--instance", str(valley_dir), "--method", "oracle", "--objective", "feasibility"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    instance = load_instance(valley_dir)
    grid = parse_grid(out[: out.index("total cost: ")], instance.config)
    assert validate(grid, instance, "strict").feasible


def test_solve_oracle_budget_exit_code(demo_dir):
    proc = run_cli("solve", "--instance", str(demo_dir), "--method", "oracle", "--budget", "100")
    assert proc.returncode == 3
    assert "exceeding the budget" in proc.stderr


def test_a_search_space_too_large_to_print_exits_3(tmp_path, capsys):
    save_instance(tmp_path, huge_search_space())
    assert cli.main(["solve", "--instance", str(tmp_path), "--method", "oracle"]) == 3
    assert capsys.readouterr().err == (
        "error: enumeration would visit more than 10**5397 start vectors, exceeding the budget of 200000\n"
    )


def test_solve_infeasible_exit_code(tmp_path):
    bundle = tmp_path / "impossible"
    instance, _ = demo_instance()
    # demand at hour 2 is fine, but demanding six swaps then is not
    events = instance.events
    demand = list(events.demand)
    demand[1] = 6
    from swapsched import EventProfiles, Instance

    broken = Instance(
        instance.config,
        instance.initial,
        EventProfiles(tuple(demand), events.arrivals, events.price),
    )
    save_instance(bundle, broken)
    proc = run_cli("solve", "--instance", str(bundle), "--method", "greedy")
    assert proc.returncode == 1
    assert "infeasible at hour 2" in proc.stderr


def test_an_infeasibility_without_a_witness_hour_names_none(tmp_path, capsys):
    """Exact finds no arrangement of full blocks, and greedy no failing hour.

    Greedy solves this instance with a truncated charge, so the one charging
    model of ROADMAP item 3 makes it solvable; this test then needs an
    instance that no method solves.
    """
    E = BatteryState.EMPTY
    instance = Instance(
        StationConfig(2, 1, 3, Fraction(10), 4),
        InitialConditions((BatteryStart(state=E), BatteryStart(state=E))),
        EventProfiles((0,) * 4, (0,) * 4, (Fraction(1),) * 4),
    )
    save_instance(tmp_path, instance)
    assert cli.main(["solve", "--instance", str(tmp_path), "--method", "exact"]) == 1
    assert capsys.readouterr().err == "infeasible: no arrangement of full charge blocks covers the demand\n"


@pytest.mark.parametrize(
    "method, objective",
    [(m, o) for m in ("greedy", "exact", "oracle") for o in ("min-cost", "feasibility")],
)
def test_more_batteries_on_chargers_than_chargers_is_infeasible_at_hour_1(
    tmp_path, capsys, method, objective
):
    """B1 and B2 both start on the one charger.  Every method refuses at
    hour 1; greedy used to return a grid that broke charger capacity."""
    C, E = BatteryState.CHARGING, BatteryState.EMPTY
    instance = Instance(
        StationConfig(3, 1, 2, Fraction(10), 4),
        InitialConditions((BatteryStart(state=C), BatteryStart(state=C), BatteryStart(state=E))),
        EventProfiles((0,) * 4, (0,) * 4, (Fraction(1),) * 4),
    )
    solve = {
        "greedy": lambda: solve_greedy(instance),
        "exact": lambda: solve_exact(instance, SolveObjective(objective)),
        "oracle": lambda: solve_oracle(instance, SolveObjective(objective)),
    }[method]
    with pytest.raises(InfeasibleError) as exc:
        solve()
    assert (exc.value.hour, str(exc.value)) == (1, "2 concurrent charges at hour 1")

    save_instance(tmp_path, instance)
    argv = ["solve", "--instance", str(tmp_path), "--method", method, "--objective", objective]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "infeasible at hour 1: 2 concurrent charges at hour 1\n"


def test_generate_is_reproducible_end_to_end(tmp_path):
    spec = {
        "config": {
            "n_batteries": 3,
            "n_chargers": 2,
            "charge_hours": 3,
            "capacity_kwh": 30,
            "horizon": 14,
        },
        "seed": 21,
        "demand": {"shape": "uniform", "total": 4},
        "arrivals": {"shape": "uniform", "total": 3},
        "tariff": {"kind": "flat", "price": "0.25"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        proc = run_cli("generate", "--spec", str(spec_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "wrote instance bundle" in proc.stdout
    for name in ("config.json", "profiles.csv", "initial.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    solved = run_cli("solve", "--instance", str(a), "--method", "exact")
    assert solved.returncode == 0


def test_generate_rejects_bad_specs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1}))
    proc = run_cli("generate", "--spec", str(bad), "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert "missing" in proc.stderr
    proc = run_cli("generate", "--spec", str(tmp_path / "nothing.json"), "--out", str(tmp_path / "y"))
    assert proc.returncode == 2


def test_generate_refuses_more_pinned_charging_batteries_than_chargers(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    charging = [{"battery": b, "state": "C", "progress": 0} for b in (1, 2)]
    initial = charging + [{"battery": 3, "state": "E"}]
    spec.write_text(spec_with(config={**SPEC["config"], "n_chargers": 1}, initial=initial))
    assert cli.main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: pinned initial puts 2 batteries on chargers, the station has 1\n"
    assert not (tmp_path / "out").exists()


def test_render_with_counts(demo_dir):
    proc = run_cli("render", "--instance", str(demo_dir), "--counts")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("Hours:")
    tail = lines[-4:]
    assert [line[0] for line in tail] == ["E", "C", "F", "O"]
    # the counts partition the fleet hour by hour
    columns = [list(map(int, line[3:].split())) for line in tail]
    for t in range(24):
        assert sum(col[t] for col in columns) == 12
    assert columns[1][14] == 5  # the hour-15 charger overrun is visible here


def test_corrupt_schedule_is_an_input_error(demo_dir, tmp_path):
    mangled = tmp_path / "mangled.txt"
    text = (demo_dir / "schedule.txt").read_text().replace(" F F O", " F X O", 1)
    mangled.write_text(text)
    proc = run_cli("validate", "--instance", str(demo_dir), "--schedule", str(mangled))
    assert proc.returncode == 2
    assert "line" in proc.stderr and "column" in proc.stderr


def test_missing_instance_dir_is_an_input_error(tmp_path):
    proc = run_cli("validate", "--instance", str(tmp_path / "void"))
    assert proc.returncode == 2


def test_missing_schedule_is_an_input_error(tmp_path, valley_dir):
    proc = run_cli("validate", "--instance", str(valley_dir))
    assert proc.returncode == 2
    assert "schedule" in proc.stderr


SPEC = {
    "config": {"n_batteries": 3, "n_chargers": 2, "charge_hours": 3, "capacity_kwh": 30, "horizon": 14},
    "seed": 21,
    "demand": {"shape": "uniform", "total": 4},
    "arrivals": {"shape": "uniform", "total": 3},
    "tariff": {"kind": "flat", "price": "0.25"},
}


def spec_with(**fields) -> str:
    """The valid SPEC with some top-level fields replaced, as JSON text."""
    return json.dumps({**SPEC, **fields})


def tou_spec(peak_hours) -> str:
    return spec_with(tariff={"kind": "tou", "off_peak": "0.5", "peak": 4, "peak_hours": peak_hours})


@pytest.mark.parametrize(
    "name, text",
    [
        ("profiles.csv", "hour,demand,arrivals,price\n1,0,0,inf\n2,0,0,1\n3,0,0,1\n4,0,0,1\n5,0,0,1\n6,1,0,1\n"),
        ("initial.json", '[{"battery": 1, "state": "C", "progress": "1"}]'),
        ("initial.json", '[{"battery": true, "state": "E"}]'),
        ("spec.json", spec_with(demand={"shape": "uniform", "total": "4"})),
        ("spec.json", tou_spec(5)),
        ("spec.json", tou_spec([8, 11])),
        ("spec.json", tou_spec([[True, 3]])),
        ("spec.json", tou_spec([[8.7, 11]])),
        ("spec.json", tou_spec([["8", "11"]])),
        ("spec.json", spec_with(demand={"shape": "explicit", "values": 5})),
        ("spec.json", spec_with(demand={"shape": "explicit", "values": ["1"] + [0] * 13})),
        ("spec.json", spec_with(tariff={"kind": "explicit", "prices": 3})),
        ("spec.json", spec_with(demand={"shape": "peaked", "total": 4, "peak_hour": 6.5, "width": 2})),
        ("spec.json", spec_with(demand={"shape": "peaked", "total": 4, "peak_hour": 6, "width": 0})),
        ("spec.json", spec_with(arrivals={"shape": "explicit", "values": [0] * 13})),
        ("spec.json", spec_with(demand=5)),
        ("spec.json", spec_with(tariff="flat")),
        ("spec.json", spec_with(demand={"shape": "uniform", "total": 4, "peak_hour": 6})),
        ("spec.json", "[1, 2]"),
        ("spec.json", spec_with(config=list(SPEC["config"]))),
    ],
    ids=[
        "infinite-price", "string-progress", "boolean-battery", "string-shape-total",
        "number-peak-hours", "number-peak-range", "boolean-peak-hour", "float-peak-hour",
        "string-peak-hour", "number-explicit-values", "string-explicit-value", "number-explicit-prices",
        "fractional-shape-peak-hour", "zero-shape-width", "short-explicit-arrivals", "number-shape",
        "string-tariff", "unknown-shape-key", "list-spec", "list-config",
    ],
)
def test_malformed_fields_are_input_errors(valley_dir, tmp_path, name, text):
    bundle = tmp_path / "bundle"
    shutil.copytree(valley_dir, bundle)
    (bundle / name).write_text(text)
    if name == "spec.json":
        proc = run_cli("generate", "--spec", str(bundle / name), "--out", str(tmp_path / "out"))
    else:
        proc = run_cli("solve", "--instance", str(bundle))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


LONG = "x" * 100_000
MANY_KEYS = {f"k{i}": 1 for i in range(10_000)}


@pytest.mark.parametrize(
    "name, text",
    [
        ("spec.json", tou_spec(LONG)),
        ("spec.json", tou_spec([LONG])),
        ("spec.json", tou_spec([[LONG, 3]])),
        ("spec.json", spec_with(demand={"shape": "uniform", "total": LONG})),
        ("spec.json", spec_with(demand={"shape": "peaked", "total": 4, "peak_hour": LONG, "width": 2})),
        ("spec.json", spec_with(demand={"shape": "peaked", "total": 4, "peak_hour": 6, "width": LONG})),
        ("spec.json", spec_with(demand={"shape": "explicit", "values": LONG})),
        ("spec.json", spec_with(demand={"shape": "explicit", "values": [LONG] + [0] * 13})),
        ("spec.json", spec_with(demand={"shape": LONG})),
        ("spec.json", spec_with(tariff={"kind": LONG})),
        ("spec.json", spec_with(tariff={"kind": "explicit", "prices": LONG})),
        ("spec.json", spec_with(config={**SPEC["config"], "n_batteries": LONG})),
        ("spec.json", spec_with(config=[LONG])),
        ("spec.json", spec_with(initial=[LONG])),
        ("spec.json", spec_with(initial=[{"state": LONG}])),
        ("spec.json", spec_with(initial=[{"battery": LONG, "state": "E"}])),
        ("spec.json", spec_with(initial=[{"battery": 1, "state": LONG}])),
        ("spec.json", spec_with(initial=[{"battery": 1, "state": "C", "progress": LONG}])),
        ("spec.json", spec_with(initial=[{"battery": 1, "state": "F", "full_rank": LONG}])),
        ("spec.json", spec_with(initial=[{"battery": 1, "state": "E", LONG: 1}])),
        ("spec.json", spec_with(config={**SPEC["config"], LONG: 1})),
        ("spec.json", spec_with(demand={"shape": "uniform", "total": 4, LONG: 1})),
        ("spec.json", spec_with(**{LONG: 1})),
        ("spec.json", spec_with(config={**SPEC["config"], **MANY_KEYS})),
        ("spec.json", spec_with(demand={"shape": "uniform", "total": 4, **MANY_KEYS})),
        ("spec.json", spec_with(**MANY_KEYS)),
        ("initial.json", json.dumps([{"battery": 1, "state": "E", **MANY_KEYS}])),
        ("profiles.csv", LONG + "\n1,0,0,1\n"),
        ("profiles.csv", "hour,demand,arrivals,price\n1," + LONG + ",0,1\n"),
        ("schedule.txt", "Hours: 1 2 3 4 5 6\nB1: " + LONG + " E E E E E\n"),
    ],
    ids=[
        "peak-hours", "peak-range", "peak-range-hour", "shape-total", "shape-peak-hour", "shape-width",
        "explicit-values", "explicit-value", "shape-kind", "tariff-kind", "explicit-prices",
        "config-field", "config-list", "initial-entry", "initial-entry-keys", "battery-number",
        "battery-state", "battery-progress", "battery-full-rank", "initial-entry-key", "config-key",
        "shape-key", "spec-key", "many-config-keys", "many-shape-keys", "many-spec-keys",
        "many-initial-entry-keys", "csv-header", "csv-integer",
        "schedule-letter",
    ],
)
def test_refusals_echo_a_bounded_prefix_of_a_long_field(valley_dir, tmp_path, capsys, name, text):
    bundle = tmp_path / "bundle"
    shutil.copytree(valley_dir, bundle)
    (bundle / name).write_text(text)
    if name == "spec.json":
        argv = ["generate", "--spec", str(bundle / name), "--out", str(tmp_path / "out")]
    else:
        argv = ["validate", "--instance", str(bundle)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 300, err[:300]


def test_a_price_with_a_huge_exponent_is_an_input_error(valley_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(valley_dir, bundle)
    profiles = bundle / "profiles.csv"
    lines = profiles.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",1e-9999999"
    profiles.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    assert cli.main(["solve", "--instance", str(bundle)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: the exponent of '1e-9999999' lies beyond +-1000\n"


def test_a_price_too_long_to_print_is_an_input_error_and_writes_no_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_with(tariff={"kind": "flat", "price": "1" * 4400 + ".5"}))
    assert cli.main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: a number has more than {MAX_DIGITS} digits before its decimal point\n"
    assert not (tmp_path / "out").exists()


def test_progress_at_the_charge_length_is_an_input_error(valley_dir, tmp_path, capsys):
    """A battery that enters charging with its charge already done is refused."""
    bundle = tmp_path / "bundle"
    shutil.copytree(valley_dir, bundle)
    (bundle / "initial.json").write_text('[{"battery": 1, "state": "C", "progress": 2}]')
    assert cli.main(["solve", "--instance", str(bundle)]) == 2
    assert capsys.readouterr().err == "error: battery B1: progress 2 must be below charge_hours 2\n"


@pytest.mark.parametrize("name", ["config.json", "initial.json", "spec.json"])
def test_an_integer_literal_too_long_to_read_is_refused_as_invalid_json(demo_dir, tmp_path, capsys, name):
    """``json`` reads no integer of more than 4,300 digits; each file that
    holds one is refused as invalid JSON, naming what it is, where Python's
    own "Exceeds the limit" text was the whole message."""
    bundle = tmp_path / "bundle"
    shutil.copytree(demo_dir, bundle)
    huge = "1" + "0" * 5000
    if name == "config.json":
        text = re.sub(r'"n_chargers": \d+', f'"n_chargers": {huge}', (bundle / name).read_text())
        argv, what = ["solve", "--instance", str(bundle)], "config"
    elif name == "initial.json":
        text = f'[{{"battery": 1, "state": "C", "progress": {huge}}}]'
        argv, what = ["solve", "--instance", str(bundle)], "initial conditions"
    else:
        text = spec_with(seed=0).replace('"seed": 0', f'"seed": {huge}')
        argv, what = ["generate", "--spec", str(bundle / name), "--out", str(tmp_path / "out")], "scenario spec"
    assert huge in text
    (bundle / name).write_text(text)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {what} is not valid JSON: Exceeds the limit (4300 digits)")


def test_a_bundle_with_fewer_initial_entries_than_batteries_is_an_input_error(demo_dir, tmp_path, capsys):
    """initial.json must list every battery the config counts."""
    bundle = tmp_path / "bundle"
    shutil.copytree(demo_dir, bundle)
    entries = json.loads((bundle / "initial.json").read_text())
    (bundle / "initial.json").write_text(json.dumps(entries[:11]))
    assert cli.main(["solve", "--instance", str(bundle)]) == 2
    assert capsys.readouterr().err == "error: 11 initial entries for 12 batteries\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (spec_with(arrivals={"shape": "explicit", "values": [0] * 13}),
         "explicit arrivals list 13 hours, horizon is 14"),
        (spec_with(demand={"shape": "explicit", "values": [0] * 15}),
         "explicit demand lists 15 hours, horizon is 14"),
        (spec_with(demand={"shape": "explicit", "values": [0] * 15}, arrivals={"shape": "explicit", "values": []}),
         "explicit demand lists 15 hours, horizon is 14"),
        (spec_with(demand=5), "demand must be a JSON object, got 5"),
        (spec_with(tariff="flat"), "tariff must be a JSON object, got 'flat'"),
        ("[1, 2]", "scenario spec must be a JSON object, got [1, 2]"),
    ],
    ids=["short-explicit-arrivals", "long-explicit-demand", "both-explicit", "number-shape", "string-tariff",
         "list-spec"],
)
def test_specs_of_the_wrong_shape_are_refused_with_their_message(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert cli.main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


VALLEY_CONFIG = {"n_batteries": 1, "n_chargers": 1, "charge_hours": 2, "capacity_kwh": 20, "horizon": 6}


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("config.json", "[1]", "config must be a JSON object, got [1]"),
        ("config.json", json.dumps({**VALLEY_CONFIG, "volts": 48}), "unknown config keys: ['volts']"),
        ("config.json", json.dumps({k: v for k, v in VALLEY_CONFIG.items() if k != "horizon"}),
         "missing config keys: ['horizon']"),
        ("initial.json", "[5]", "initial entry must be a JSON object, got 5"),
        ("initial.json", '[{"battery": 1, "state": "E", "color": "red"}]', "unknown initial entry keys: ['color']"),
        ("initial.json", '[{"state": "E"}]', "missing initial entry keys: ['battery']"),
        ("initial.json", '[{"battery": 1, "state": "Q"}]', "unknown state 'Q'"),
        ("spec.json", spec_with(extra=1), "unknown scenario spec keys: ['extra']"),
        ("spec.json", json.dumps({k: v for k, v in SPEC.items() if k != "seed"}),
         "missing scenario spec keys: ['seed']"),
        ("spec.json", spec_with(config=[1]), "config must be a JSON object, got [1]"),
        ("spec.json", spec_with(initial=["E"]), "initial entry must be a JSON object, got 'E'"),
        ("spec.json", spec_with(demand={"shape": "spiky", "total": 1}),
         "unknown demand shape 'spiky' (uniform, peaked or explicit)"),
        ("spec.json", spec_with(arrivals={"total": 1}), "missing arrivals keys: ['shape']"),
        ("spec.json", spec_with(arrivals={"shape": "uniform", "total": 1, "width": 2}),
         "unknown arrivals keys: ['width']"),
        ("spec.json", spec_with(demand={"shape": "peaked", "total": 1}), "missing demand keys: ['peak_hour', 'width']"),
        ("spec.json", spec_with(tariff={"kind": "dynamic"}), "unknown tariff kind 'dynamic' (flat, tou or explicit)"),
        ("spec.json", spec_with(tariff={"kind": "flat"}), "missing tariff keys: ['price']"),
        ("spec.json", spec_with(tariff={"kind": "flat", "price": 1, "peak": 2}), "unknown tariff keys: ['peak']"),
        ("spec.json", spec_with(demand={"shape": "explicit", "values": 5}),
         "explicit shape values must be a list, got 5"),
        ("spec.json", tou_spec(5), "peak_hours must be a list, got 5"),
        ("spec.json", tou_spec([7]), "a peak range must be a list, got 7"),
        ("spec.json", spec_with(tariff={"kind": "explicit", "prices": "1"}), "tariff prices must be a list, got '1'"),
    ],
    ids=[
        "config-list", "config-unknown-key", "config-missing-key", "entry-number",
        "entry-unknown-key", "entry-missing-key", "entry-state", "spec-unknown-key",
        "spec-missing-key", "spec-config-list", "spec-entry-string", "shape-kind",
        "shape-missing-tag", "shape-other-kinds-key", "shape-missing-keys", "tariff-kind", "tariff-missing-key",
        "tariff-other-kinds-key", "explicit-values", "peak-hours", "peak-range", "explicit-prices",
    ],
)
def test_every_json_reader_refuses_a_malformed_object_with_one_wording(
    valley_dir, tmp_path, capsys, name, text, message
):
    """Each object in config.json, initial.json and a scenario spec is
    checked by one rule: it must be a JSON object whose keys are the fields
    of the value it builds, and a shape or tariff must name a known kind.
    List fields must be JSON lists, and a start state one of the letters."""
    bundle = tmp_path / "bundle"
    shutil.copytree(valley_dir, bundle)
    (bundle / name).write_text(text)
    if name == "spec.json":
        argv = ["generate", "--spec", str(bundle / name), "--out", str(tmp_path / "out")]
    else:
        argv = ["solve", "--instance", str(bundle)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["config.json", "initial.json", "spec.json"])
def test_json_nested_past_the_decoders_reach_is_an_input_error(valley_dir, tmp_path, capsys, name):
    """A hundred thousand nested lists are deeper than the JSON decoder
    recurses on any supported Python (3.10 and 3.11 stop at the interpreter's
    recursion limit, 3.12 and 3.13 at a C-level limit of at most ten
    thousand); the file is refused as invalid JSON, in the decoder's own
    words, not reported as an internal error."""
    text = "[" * 100_000 + "]" * 100_000
    with pytest.raises(RecursionError) as refused:
        json.loads(text)
    bundle = tmp_path / "bundle"
    shutil.copytree(valley_dir, bundle)
    (bundle / name).write_text(text)
    if name == "spec.json":
        argv, what = ["generate", "--spec", str(bundle / name), "--out", str(tmp_path / "out")], "scenario spec"
    else:
        argv, what = ["solve", "--instance", str(bundle)], "config" if name == "config.json" else "initial conditions"
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {what} is not valid JSON: {refused.value}\n"


def test_a_csv_field_past_the_csv_modules_limit_is_an_input_error(valley_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(valley_dir, bundle)
    lines = (bundle / "profiles.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + "1" * 200_000
    (bundle / "profiles.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["solve", "--instance", str(bundle)]) == 2
    assert capsys.readouterr().err == "error: profiles file is not valid CSV: field larger than field limit (131072)\n"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"demand": {"shape": "uniform", "total": MAX_CELLS + 1}}, "shape total must be at most 1000000"),
        ({"arrivals": {"shape": "peaked", "total": MAX_CELLS + 1, "peak_hour": 6, "width": 2}},
         "shape total must be at most 1000000"),
        ({"config": {**SPEC["config"], "n_batteries": 1001, "horizon": 1000}},
         "1001 batteries over 1000 hours make 1001000 battery-hours, more than 1000000"),
    ],
    ids=["uniform-total", "peaked-total", "battery-hours"],
)
def test_specs_past_the_size_caps_are_input_errors(tmp_path, capsys, fields, message):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_with(**fields))
    assert cli.main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bundles_past_the_battery_hour_cap_are_input_errors(valley_dir, tmp_path, capsys):
    """A product of battery-hours too long to print shows a power of ten below it."""
    bundle = tmp_path / "bundle"
    shutil.copytree(valley_dir, bundle)
    config = json.loads((bundle / "config.json").read_text())
    for fields, shown in (
        ({"horizon": MAX_CELLS + 1}, str(MAX_CELLS + 1)),
        ({"n_batteries": 10**2200, "horizon": 10**2200}, "more than 10**4399"),
    ):
        (bundle / "config.json").write_text(json.dumps({**config, **fields}))
        assert cli.main(["solve", "--instance", str(bundle)]) == 2
        assert capsys.readouterr().err.endswith(f"make {shown} battery-hours, more than 1000000\n")


# float() refuses every integer from this one up: it rounds to 2**1024.
PAST_FLOAT = 2**1024 - 2**970


@pytest.mark.parametrize(
    "total, peak_hour, width, code",
    [
        (3, 10**300, 4, 0),
        (3, 10**400, 4, 2),
        (0, 10**400, 4, 0),
        (3, -(2**1100), 1, 2),
        (3, 6, 2**1100, 2),
        (3, PAST_FLOAT - 2, 1, 0),
        (3, PAST_FLOAT - 1, 1, 2),
        (3, 2 - PAST_FLOAT, 1, 0),
        (3, 1 - PAST_FLOAT, 1, 2),
        (3, 0, PAST_FLOAT // 2 - 1, 0),
        (3, 0, PAST_FLOAT // 2, 2),
    ],
    ids=["peak-1e300", "peak-1e400", "peak-1e400-no-units", "peak-minus-2e1100", "width-2e1100",
         "top-edge-drawn", "top-edge-refused", "bottom-edge-drawn", "bottom-edge-refused",
         "span-edge-drawn", "span-edge-refused"],
)
def test_a_peaked_shape_is_refused_exactly_where_its_draw_leaves_the_floats(tmp_path, capsys, total, peak_hour,
                                                                             width, code):
    """A draw takes ``peak_hour - width``, ``peak_hour + width`` and
    ``2 * width`` as floats, so a shape with units to draw is refused where
    any of them has none, and accepted up to that edge."""
    assert float(PAST_FLOAT - 1) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(PAST_FLOAT)
    spec = tmp_path / "spec.json"
    spec.write_text(spec_with(arrivals={"shape": "peaked", "total": total, "peak_hour": peak_hour, "width": width}))
    assert cli.main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert (err == "") if code == 0 else err.endswith(" reach beyond the range of a float\n"), err


def with_one_cell(bundle: Path, column: int, hour: int, value: int) -> None:
    """Set one cell of the bundle's profiles.csv (column 1 demand, 2 arrivals)."""
    lines = (bundle / "profiles.csv").read_text().split("\n")
    cells = lines[hour].split(",")
    cells[column] = str(value)
    lines[hour] = ",".join(cells)
    (bundle / "profiles.csv").write_text("\n".join(lines))


def test_the_oracle_refuses_the_most_arrivals_a_profile_holds_within_seconds(demo_dir, tmp_path, capsys):
    """The demo's arrivals raised to MAX_CELLS at hour 2: the search space is
    counted by release hour, so the refusal takes no product of a million
    factors one at a time (more than a minute before)."""
    bundle = tmp_path / "bundle"
    shutil.copytree(demo_dir, bundle)
    arrivals = load_instance(demo_dir).events.arrivals
    with_one_cell(bundle, 2, 2, MAX_CELLS - sum(arrivals) + arrivals[1])
    assert sum(load_instance(bundle).events.arrivals) == MAX_CELLS
    start = time.perf_counter()
    assert cli.main(["solve", "--instance", str(bundle), "--method", "oracle"]) == 3
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err.startswith("error: enumeration would visit more than 10**")


def test_an_event_total_past_the_cap_is_an_input_error_for_every_method(demo_dir, tmp_path, capsys):
    """No station within the battery-hour cap realises more than MAX_CELLS
    swaps or arrivals, so a profile whose total passes it is refused as it
    loads: the oracle counted a unit at a time, without bound."""
    bundle = tmp_path / "bundle"
    for column, what in ((2, "arrivals"), (1, "demand")):
        for value in (10**400, 1_000_000):
            shutil.rmtree(bundle, ignore_errors=True)
            shutil.copytree(demo_dir, bundle)
            with_one_cell(bundle, column, 2, value)
            for method in ("greedy", "exact", "oracle"):
                assert cli.main(["solve", "--instance", str(bundle), "--method", method]) == 2
                assert capsys.readouterr().err.startswith(f"error: {what} must total at most {MAX_CELLS}, got ")


@pytest.mark.parametrize(
    "price, message",
    [
        ("1e500", "the costs this station could report lie beyond the range of a float"),
        ([f"1/{10**989 + 2 * i + 1}" for i in range(8)],
         f"the lcm of the prices' denominators times the charge power's lies beyond 10**{2 * MAX_EXPONENT}"),
    ],
    ids=["cost-past-float", "scale-past-bound"],
)
def test_a_bundle_whose_solve_report_cannot_be_written_is_refused_at_load(tmp_path, capsys, price, message):
    """Each bundle used to fail only after the solve: the float of a 1e500
    cost overflowed in cost.json (exit 4, schedule.txt left behind), and the
    total of the 990-digit denominators ran past 4,300 digits (exit 2)."""
    E = BatteryState.EMPTY
    instance = Instance(
        StationConfig(1, 1, 6, Fraction(60), 8),
        InitialConditions((BatteryStart(state=E),)),
        EventProfiles((0,) * 8, (0,) * 8, (Fraction(1),) * 8),
    )
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    save_instance(bundle, instance)
    prices = price if isinstance(price, list) else [price] * 8
    rows = [f"{t},0,0,{p}" for t, p in enumerate(prices, start=1)]
    (bundle / "profiles.csv").write_text("hour,demand,arrivals,price\n" + "\n".join(rows) + "\n")
    assert cli.main(["solve", "--instance", str(bundle), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_negative_budget_is_an_input_error(valley_dir):
    proc = run_cli("solve", "--instance", str(valley_dir), "--method", "oracle", "--budget", "-1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "argument --budget: must be at least 0, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_budget_that_is_not_an_integer_is_an_input_error(valley_dir, capsys):
    argv = ["solve", "--instance", str(valley_dir), "--method", "oracle", "--budget", "abc"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "argument --budget: invalid int value: 'abc'" in capsys.readouterr().err


# Arguments for one instance of every exception class in swapsched.errors.
ERRORS = {
    errors.SwapSchedError: ("boom",),
    errors.GridParseError: (2, 3, "boom"),
    errors.TransitionError: (1, 2, "boom"),
    errors.ProfileError: ("boom", 4),
    errors.DimensionError: ("boom",),
    errors.InstanceError: ("boom",),
    errors.InfeasibleError: (None, "boom"),
    errors.EnumerationBudgetError: (5, 1),
}


def test_every_error_class_ends_in_its_exit_code(monkeypatch, capsys):
    """Infeasibility exits 1, the oracle's budget 3, and every other error of
    the package is an input error: exit 2."""
    classes = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)}
    assert classes == set(ERRORS)
    for cls, args in ERRORS.items():
        exc = cls(*args)

        def load(directory, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "load_instance", load)
        code = {errors.InfeasibleError: 1, errors.EnumerationBudgetError: 3}.get(cls, 2)
        assert cli.main(["solve", "--instance", "unused"]) == code, cls.__name__
        prefix = "infeasible: " if code == 1 else "error: "
        assert capsys.readouterr().err == f"{prefix}{exc}\n", cls.__name__


def test_unexpected_exceptions_exit_4_without_a_traceback(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_demo", broken)
    assert cli.main(["demo"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_cli_outputs_are_pinned(tmp_path, capsys):
    """Every command run in process over the demo, the valley, two stations
    that some or all methods refuse and three generated bundles, as one
    digest of each command's arguments, exit code, stdout, stderr and the
    files its ``--out`` wrote.  ``solve`` runs every method under both
    objectives in text and JSON; greedy's schedule, and the demo's reference,
    go through lenient and strict ``validate`` in both formats and through
    ``render --counts``.  The run's directory is written as ``<tmp>``.  A
    change that is meant to leave every output as it was keeps the digest."""
    digest = hashlib.sha256()

    def run(*argv, out=None):
        argv = [str(a) for a in argv]
        code = cli.main(argv)
        stdout, stderr = capsys.readouterr()
        files = sorted((p.name, p.read_text()) for p in out.iterdir()) if out and out.is_dir() else []
        digest.update(repr((argv, code, stdout, stderr, files)).replace(str(tmp_path), "<tmp>").encode())

    run("demo")
    run("demo", "--out", tmp_path / "demo", out=tmp_path / "demo")
    save_instance(tmp_path / "valley", make_valley())
    E = BatteryState.EMPTY
    save_instance(tmp_path / "unsolved", Instance(  # greedy solves it; exact and the oracle refuse
        StationConfig(2, 1, 3, Fraction(10), 4),
        InitialConditions((BatteryStart(state=E), BatteryStart(state=E))),
        EventProfiles((0,) * 4, (0,) * 4, (Fraction(1),) * 4),
    ))
    instance, _ = demo_instance()
    events = instance.events
    save_instance(tmp_path / "short", Instance(  # six swaps at hour 2: every method refuses
        instance.config, instance.initial, EventProfiles((0, 6, *events.demand[2:]), events.arrivals, events.price)
    ))
    specs = {
        "flat": spec_with(),
        "tou": tou_spec([[5, 9]]),
        "wide": spec_with(
            config={"n_batteries": 6, "n_chargers": 2, "charge_hours": 2, "capacity_kwh": 20, "horizon": 24},
            demand={"shape": "uniform", "total": 6},
            arrivals={"shape": "uniform", "total": 5},
            tariff={"kind": "tou", "off_peak": "0.3", "peak": "1.7", "peak_hours": [[8, 12], [17, 21]]},
        ),
    }
    for name, text in specs.items():
        (tmp_path / f"{name}.json").write_text(text)
        run("generate", "--spec", tmp_path / f"{name}.json", "--out", tmp_path / name, out=tmp_path / name)
    for name in ("demo", "valley", "unsolved", "short", *specs):
        bundle = tmp_path / name
        for method in ("greedy", "exact", "oracle"):
            for objective in ("min-cost", "feasibility"):
                for fmt in ("text", "json"):
                    out = tmp_path / "solved" / f"{name}-{method}-{objective}-{fmt}"
                    run("solve", "--instance", bundle, "--method", method, "--objective", objective,
                        "--format", fmt, "--out", out, out=out)
        schedules = [tmp_path / "solved" / f"{name}-greedy-min-cost-text" / "schedule.txt"]
        if name == "demo":
            schedules.append(bundle / "schedule.txt")
        for schedule in schedules:
            for mode in ("lenient", "strict"):
                for fmt in ("text", "json"):
                    run("validate", "--instance", bundle, "--schedule", schedule, "--mode", mode, "--format", fmt)
            run("render", "--instance", bundle, "--schedule", schedule, "--counts")
    assert digest.hexdigest() == "005a5ba0f6f7b32625aaf1161cdba6e06af9bba1800defd9bdf17b7c3028213c"
