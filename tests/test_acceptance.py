"""Acceptance gate: seven numbered criteria, each reported as PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v`` — every criterion is one
test whose verdict line is the acceptance record;  the tests also print
``ACCEPTANCE C<n> ...: PASS/FAIL`` lines (visible with ``-s`` or on failure).

Two sub-claims about the bundled reference schedule are *expected* to fail
and are marked as strict xfails rather than weakened: the shipped reference
grid puts five batteries on four chargers at hours 15-16, so it can never
validate clean, and a capacity-respecting greedy run must shift battery
B6's charge two hours later than the reference shows.  Companion tests pin
the actual behavior exactly.  See the README's known-divergence note.

Pinned tolerances: all cost and count comparisons are exact (rational
arithmetic, no epsilon); runtime limits are 1 second for validating the
reference schedule and 60 seconds for the cross-check suite.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from swapsched import (
    BatteryStart,
    BatteryState,
    EventProfiles,
    FlatTariff,
    InitialConditions,
    Instance,
    ScenarioSpec,
    StationConfig,
    TouTariff,
    UniformShape,
    generate,
    parse_grid,
    render_grid,
    save_instance,
    schedule_cost,
    solve_exact,
    solve_greedy,
    solve_oracle,
    validate,
)
from swapsched.validation import (
    ARRIVALS,
    CHARGE_DURATION,
    CHARGER_CAPACITY,
    DEMAND_COVERAGE,
    INITIAL_CONDITIONS,
    TRANSITION,
)
from conftest import make_valley, random_legal_grid
from test_solver import charge_starts, swap_sequence

C = BatteryState.CHARGING

VALIDATION_TIME_LIMIT_S = 1.0
SUITE_TIME_LIMIT_S = 60.0
SUITE_MIN_INSTANCES = 100
ORACLE_BUDGET = 20_000
ROUND_TRIP_GRIDS = 1000
SCALING_FACTORS = (2, 10**6)


def _line(label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _suite() -> list[Instance]:
    """The seeded cross-check suite: small stations, mixed tariffs."""
    instances = []
    seed = 0
    while len(instances) < SUITE_MIN_INSTANCES + 20:
        seed += 1
        n_batteries = 1 + seed % 3          # <= 3 batteries
        n_chargers = 1 + (seed // 3) % 2    # <= 2 chargers
        horizon = 8 + (seed // 7) % 5       # <= 12 hours
        charge_hours = 2 + (seed // 5) % 2
        tariffs = [
            FlatTariff(price=1),
            TouTariff(off_peak="0.5", peak=4, peak_hours=((3, 5), (9, 10))),
            FlatTariff(price="2.5"),
        ]
        spec = ScenarioSpec(
            config=StationConfig(
                n_batteries, min(n_chargers, n_batteries), charge_hours, Fraction(10), horizon
            ),
            demand=UniformShape(total=seed % 4),
            arrivals=UniformShape(total=(seed + 1) % 3),
            tariff=tariffs[seed % 3],
            seed=seed,
        )
        instances.append(generate(spec))
    return instances


@pytest.fixture(scope="module")
def suite():
    return _suite()


# ---------------------------------------------------------------------------
# C1 - validating the bundled reference schedule
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the bundled reference schedule exceeds charger capacity at hours 15-16",
)
def test_c1_reference_schedule_validates_clean_lenient(demo):
    instance, reference = demo
    report = validate(reference, instance, "lenient")
    _line("C1 (reference clean under lenient validation)", report.feasible and not report.violations)


@pytest.mark.xfail(
    strict=True,
    reason="strict validation of the reference adds the same capacity overrun to the "
    "long-run finding, so there are two violation classes, not one",
)
def test_c1_reference_schedule_strict_single_violation_class(demo):
    instance, reference = demo
    report = validate(reference, instance, "strict")
    ids = report.constraint_ids()
    duration = [v for v in report.violations if v.constraint == CHARGE_DURATION]
    ok = ids == {CHARGE_DURATION} and [(v.battery, v.hour) for v in duration] == [(6, 15)]
    _line("C1 (strict mode reports only the B6 hours-15..22 long run)", ok)


def test_c1_companion_actual_reference_violations(demo):
    """What validation of the reference actually reports, pinned exactly."""
    instance, reference = demo
    lenient = validate(reference, instance, "lenient")
    strict = validate(reference, instance, "strict")
    ok = (
        [(v.constraint, v.hour) for v in lenient.violations]
        == [(CHARGER_CAPACITY, 15), (CHARGER_CAPACITY, 16)]
        and strict.constraint_ids() == {CHARGER_CAPACITY, CHARGE_DURATION}
        and [(v.battery, v.hour) for v in strict.violations if v.constraint == CHARGE_DURATION]
        == [(6, 15)]
    )
    _line("C1 (companion: actual reference verdicts pinned)", ok)


def test_c1_validation_runtime(demo):
    instance, reference = demo
    t0 = time.monotonic()
    validate(reference, instance, "lenient")
    validate(reference, instance, "strict")
    elapsed = time.monotonic() - t0
    _line(f"C1 (validation runtime {elapsed:.3f}s < {VALIDATION_TIME_LIMIT_S}s)", elapsed < VALIDATION_TIME_LIMIT_S)


# ---------------------------------------------------------------------------
# C2 - greedy reproduction of the reference schedule
# ---------------------------------------------------------------------------

PUBLISHED_STARTS = {
    1: 5, 2: 6, 3: 7, 10: 7, 11: 11, 12: 12, 4: 13, 5: 14, 6: 15, 7: 21, 8: 22, 9: 24,
}
ACTUAL_STARTS = {**PUBLISHED_STARTS, 6: 17}
EXPECTED_SWAPS = [
    (2, 4), (5, 5), (7, 6), (11, 7), (13, 8), (14, 9), (19, 1), (21, 2), (23, 3),
]


@pytest.mark.xfail(
    strict=True,
    reason="starting B6 at hour 15 needs a fifth charger; greedy must wait until "
    "hour 17 for one to free up",
)
def test_c2_greedy_reproduces_published_charge_starts(demo_greedy):
    _line("C2 (greedy charge starts incl. B6 at 15)", charge_starts(demo_greedy) == PUBLISHED_STARTS)


@pytest.mark.xfail(
    strict=True,
    reason="greedy diverges from the reference at B6 hours 15-16 (charge start), "
    "not at hours 21-22 (charge end)",
)
def test_c2_greedy_divergence_limited_to_b6_hours_21_22(demo, demo_greedy):
    _, reference = demo
    diff = {
        (b, t)
        for b in range(1, 13)
        for t in range(1, 25)
        if demo_greedy.state(b, t) is not reference.state(b, t)
    }
    _line("C2 (greedy differs from the reference only at B6 hours 21-22)", diff == {(6, 21), (6, 22)})


def test_c2_greedy_swap_order(demo_greedy):
    _line("C2 (swap order B4,B5,B6,B7,B8,B9,B1,B2,B3 at the listed hours)",
          swap_sequence(demo_greedy) == EXPECTED_SWAPS)


def test_c2_companion_actual_greedy_output(demo, demo_greedy):
    """Greedy matches the reference everywhere except B6's delayed start."""
    _, reference = demo
    diff = {
        (b, t)
        for b in range(1, 13)
        for t in range(1, 25)
        if demo_greedy.state(b, t) is not reference.state(b, t)
    }
    ok = charge_starts(demo_greedy) == ACTUAL_STARTS and diff == {(6, 15), (6, 16)}
    _line("C2 (companion: B6 starts at 17; divergence is exactly B6@15,16)", ok)


# ---------------------------------------------------------------------------
# C3 - constraint mutation suite
# ---------------------------------------------------------------------------


def test_c3_mutation_suite(demo, demo_greedy):
    """Ten single-purpose mutations, each firing exactly its own class.

    The clean greedy schedule is the baseline (the shipped reference can't
    be, carrying capacity violations of its own)."""
    instance, _ = demo

    def with_demand(inst, hour, value):
        d = list(inst.events.demand)
        d[hour - 1] = value
        return Instance(inst.config, inst.initial, EventProfiles(tuple(d), inst.events.arrivals, inst.events.price))

    def with_arrival(inst, hour, value):
        a = list(inst.events.arrivals)
        a[hour - 1] = value
        return Instance(inst.config, inst.initial, EventProfiles(inst.events.demand, tuple(a), inst.events.price))

    def with_initial(inst, battery, entry):
        entries = list(inst.initial.entries)
        entries[battery - 1] = entry
        return Instance(inst.config, InitialConditions(tuple(entries)), inst.events)

    no_arrivals = Instance(
        instance.config, instance.initial,
        EventProfiles(instance.events.demand, (0,) * 24, instance.events.price),
    )

    mutations = [
        ("illegal transition",     demo_greedy.with_cell(1, 14, "E"), instance, "lenient", {TRANSITION}),
        ("charger overrun",        demo_greedy.with_cell(1, 11, "C"), instance, "lenient", {CHARGER_CAPACITY}),
        ("extra demand",           demo_greedy, with_demand(instance, 2, 2), "lenient", {DEMAND_COVERAGE}),
        ("missing swap",           demo_greedy.with_cell(4, 2, "F"), instance, "lenient", {DEMAND_COVERAGE}),
        ("arrivals erased",        demo_greedy, no_arrivals, "lenient", {ARRIVALS}),
        ("phantom arrival",        demo_greedy, with_arrival(instance, 3, 1), "lenient", {ARRIVALS}),
        ("short charge run",       demo_greedy.with_cell(6, 22, "F"), instance, "lenient", {CHARGE_DURATION}),
        ("lingering charge",       demo_greedy.with_cell(6, 23, "C"), instance, "strict", {CHARGE_DURATION}),
        ("wrong start declaration", demo_greedy, with_initial(instance, 4, BatteryStart(state=BatteryState.EMPTY)), "lenient", {INITIAL_CONDITIONS}),
        ("hour-one demand",        demo_greedy, with_demand(instance, 1, 1), "lenient", {DEMAND_COVERAGE}),
    ]
    assert len(mutations) == 10
    failures = []
    for name, grid, inst, mode, expected in mutations:
        report = validate(grid, inst, mode)
        if report.feasible or report.constraint_ids() != expected:
            failures.append((name, sorted(report.constraint_ids())))
    _line("C3 (10 mutations each trigger exactly their constraint class)", not failures)


# ---------------------------------------------------------------------------
# C4 - exact solver vs brute-force oracle
# ---------------------------------------------------------------------------


def test_c4_exact_equals_oracle_on_the_suite(suite):
    t0 = time.monotonic()
    checked = 0
    failures = []
    for i, instance in enumerate(suite):
        exact_grid, exact_cost = solve_exact(instance)
        oracle_grid, oracle_cost = solve_oracle(instance, budget=ORACLE_BUDGET)
        if exact_cost.total != oracle_cost.total:
            failures.append((i, "cost", exact_cost.total, oracle_cost.total))
        if exact_grid != oracle_grid:
            failures.append((i, "grid"))
        if not validate(exact_grid, instance, "strict").feasible:
            failures.append((i, "exact not strict-valid"))
        if not validate(oracle_grid, instance, "strict").feasible:
            failures.append((i, "oracle not strict-valid"))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = not failures and checked >= SUITE_MIN_INSTANCES and elapsed < SUITE_TIME_LIMIT_S
    _line(
        f"C4 ({checked} instances, exact == oracle, strict-valid, {elapsed:.1f}s < {SUITE_TIME_LIMIT_S:.0f}s)",
        ok,
    )


# ---------------------------------------------------------------------------
# C5 - optimality dominance
# ---------------------------------------------------------------------------


def test_c5_exact_dominates_greedy_and_wins_the_valley(suite):
    failures = []
    for i, instance in enumerate(suite):
        greedy_cost = schedule_cost(solve_greedy(instance), instance.config, instance.events.price)
        _, exact_cost = solve_exact(instance)
        if exact_cost.total > greedy_cost.total:
            failures.append((i, exact_cost.total, greedy_cost.total))
    valley = make_valley()
    greedy_grid = solve_greedy(valley)
    greedy_valley = schedule_cost(greedy_grid, valley.config, valley.events.price)
    exact_grid, exact_valley = solve_exact(valley)
    first_charge = next(t for t in range(1, 7) if greedy_grid.state(1, t) is C)
    valley_ok = (
        exact_valley.total == Fraction(20)
        and greedy_valley.total == Fraction(200)
        and greedy_valley.total == 10 * exact_valley.total  # exactly 1:10
        and charge_starts(exact_grid) == {1: 3}  # the optimum charges at hours 3-4
        and first_charge == 1  # greedy charges immediately into the peak
    )
    _line("C5 (exact <= greedy everywhere; valley won at exactly 1:10)", not failures and valley_ok)


# ---------------------------------------------------------------------------
# C6 - invariance properties
# ---------------------------------------------------------------------------


def test_c6_flat_tariff_equality(suite):
    """Under one flat price every full charge block costs the same, so the
    cost-optimal schedule can't beat the greedy one."""
    failures = []
    for i, instance in enumerate(suite):
        events = EventProfiles(instance.events.demand, instance.events.arrivals, (3,) * instance.config.horizon)
        flat = Instance(instance.config, instance.initial, events)
        greedy_cost = schedule_cost(solve_greedy(flat), flat.config, flat.events.price)
        _, exact_cost = solve_exact(flat)
        if exact_cost.total != greedy_cost.total:
            failures.append((i, exact_cost.total, greedy_cost.total))
    _line("C6 (flat tariff: exact cost == greedy cost on the whole suite)", not failures)


def test_c6_price_scaling(suite):
    """Scaling every price by k > 0 scales the cost by k and moves nothing."""
    valley = make_valley()
    probes = [valley] + [inst for inst in suite if len(set(inst.events.price)) > 1][:10]
    failures = []
    for i, instance in enumerate(probes):
        base_grid, base_cost = solve_exact(instance)
        for k in SCALING_FACTORS:
            scaled = Instance(
                instance.config,
                instance.initial,
                EventProfiles(instance.events.demand, instance.events.arrivals, [p * k for p in instance.events.price]),
            )
            grid, cost = solve_exact(scaled)
            if grid != base_grid or cost.total != k * base_cost.total:
                failures.append((i, k))
        zeroed = Instance(
            instance.config,
            instance.initial,
            EventProfiles(instance.events.demand, instance.events.arrivals, (0,) * instance.config.horizon),
        )
        _, zero_cost = solve_exact(zeroed)
        if zero_cost.total != 0:
            failures.append((i, 0))
    _line("C6 (price scaling: grid unchanged, cost exactly k-fold; k=0 costs 0)", not failures)


def test_c6_round_trip_identity():
    rng = random.Random(20260822)
    failures = 0
    for _ in range(ROUND_TRIP_GRIDS):
        nb, horizon = rng.randint(1, 6), rng.randint(1, 30)
        grid = random_legal_grid(rng, nb, horizon)
        config = StationConfig(nb, 1, 1, Fraction(1), horizon)
        if parse_grid(render_grid(grid), config) != grid:
            failures += 1
    _line(f"C6 (render/parse identity on {ROUND_TRIP_GRIDS} random legal grids)", failures == 0)


def test_c6_state_counts_partition_the_fleet():
    """Exactly one state per battery-hour, so the four counts always sum to
    the fleet size."""
    rng = random.Random(99)
    failures = 0
    for _ in range(200):
        nb, horizon = rng.randint(1, 6), rng.randint(1, 24)
        grid = random_legal_grid(rng, nb, horizon)
        for t in range(1, horizon + 1):
            total = sum(grid.count(s, t) for s in BatteryState)
            if total != nb:
                failures += 1
    _line("C6 (per-hour state counts sum to the fleet size)", failures == 0)


# ---------------------------------------------------------------------------
# C7 - determinism
# ---------------------------------------------------------------------------


def test_c7_determinism(tmp_path, suite, demo):
    instance, _ = demo
    ok = True
    # solvers: byte-identical renders and cost documents on repeated runs
    for solver in (
        lambda i: (solve_greedy(i), schedule_cost(solve_greedy(i), i.config, i.events.price)),
        solve_exact,
        lambda i: solve_oracle(i, budget=ORACLE_BUDGET),
    ):
        for probe in (suite[0], suite[7], make_valley()):
            g1, c1 = solver(probe)
            g2, c2 = solver(probe)
            ok = ok and render_grid(g1) == render_grid(g2) and c1.to_json() == c2.to_json()
    greedy_a = render_grid(solve_greedy(instance))
    greedy_b = render_grid(solve_greedy(instance))
    ok = ok and greedy_a == greedy_b
    # generator: byte-identical bundles for the same spec
    spec = ScenarioSpec(
        config=StationConfig(3, 2, 3, Fraction(30), 12),
        demand=UniformShape(total=4),
        arrivals=UniformShape(total=2),
        tariff=TouTariff(off_peak="0.5", peak=4, peak_hours=((7, 9),)),
        seed=424242,
    )
    save_instance(tmp_path / "a", generate(spec))
    save_instance(tmp_path / "b", generate(spec))
    for name in ("config.json", "profiles.csv", "initial.json"):
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    _line("C7 (repeated solver and generator runs are byte-identical)", ok)
