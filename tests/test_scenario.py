from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from swapsched import (
    BatteryStart,
    BatteryState,
    DimensionError,
    EventProfiles,
    ExplicitShape,
    ExplicitTariff,
    FlatTariff,
    InfeasibleError,
    InitialConditions,
    Instance,
    InstanceError,
    PeakedShape,
    ProfileError,
    ScenarioSpec,
    StationConfig,
    TouTariff,
    UniformShape,
    demo_instance,
    generate,
    load_instance,
    load_profiles,
    load_spec,
    render_grid,
    save_instance,
    save_profiles,
    solve_exact,
    solve_greedy,
    validate,
)

E, C, F, O = BatteryState.EMPTY, BatteryState.CHARGING, BatteryState.FULL, BatteryState.OUT


# ---------------------------------------------------------------------------
# Demo instance
# ---------------------------------------------------------------------------


def test_demo_station(demo):
    instance, reference = demo
    cfg = instance.config
    assert (cfg.n_batteries, cfg.n_chargers, cfg.charge_hours, cfg.horizon) == (12, 4, 6, 24)
    assert cfg.capacity_kwh == Fraction(100)
    assert cfg.power_kw == Fraction(100, 6)
    assert reference.n_batteries == 12 and reference.horizon == 24


def test_demo_initial_conditions(demo):
    instance, _ = demo
    init = instance.initial
    assert [e.state for e in init.entries] == [E, E, E, F, F, C, C, C, C, O, O, O]
    assert init.for_battery(4).full_rank == 1
    assert init.for_battery(5).full_rank == 2
    assert init.for_battery(6).progress == 2
    assert init.for_battery(7).progress == 1
    assert init.for_battery(8).progress == 0


def test_demo_profiles_are_the_grid_edges(demo):
    instance, _ = demo
    ev = instance.events
    assert {t: ev.demand[t - 1] for t in range(1, 25) if ev.demand[t - 1]} == {
        2: 1, 5: 1, 7: 1, 11: 1, 13: 1, 14: 1, 19: 1, 21: 1, 23: 1,
    }
    assert {t: ev.arrivals[t - 1] for t in range(1, 25) if ev.arrivals[t - 1]} == {
        2: 1, 5: 1, 7: 1, 11: 1, 13: 1, 14: 1, 20: 1, 21: 1, 23: 1,
    }
    assert ev.price == (Fraction(1),) * 24


def test_demo_is_fresh_each_call():
    a, grid_a = demo_instance()
    b, grid_b = demo_instance()
    assert a == b
    assert grid_a == grid_b


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def small_spec(seed: int, **overrides) -> ScenarioSpec:
    kwargs = dict(
        config=StationConfig(4, 2, 3, Fraction(30), 14),
        demand=UniformShape(total=4),
        arrivals=PeakedShape(total=3, peak_hour=6, width=4),
        tariff=TouTariff(off_peak="0.5", peak=4, peak_hours=((7, 10),)),
        seed=seed,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def test_generate_is_deterministic(tmp_path):
    a = generate(small_spec(11))
    b = generate(small_spec(11))
    assert a == b
    save_instance(tmp_path / "a", a)
    save_instance(tmp_path / "b", b)
    for name in ("config.json", "profiles.csv", "initial.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def pinned_specs() -> list[ScenarioSpec]:
    """Forty fixed specs: drawn and pinned initials; uniform, peaked and explicit shapes."""
    specs = []
    for i in range(40):
        T, m, nb = 8 + i % 17, 1 + i % 3, 2 + i % 9
        shapes = (
            UniformShape(total=i % 7),
            PeakedShape(total=1 + i % 6, peak_hour=T // 2, width=1 + i % 4),
            ExplicitShape(values=tuple(int((i + t) % 5 == 1) for t in range(T))),
        )
        tariffs = (
            FlatTariff(price=Fraction(1 + i % 3, 2)),
            TouTariff(off_peak="0.5", peak=4, peak_hours=((3, 5), (T - 2, T))),
            ExplicitTariff(prices=tuple(Fraction(1 + t * i % 7, 4) for t in range(T))),
        )
        initial = None
        if i % 4 == 3:  # pinned: no more batteries on chargers than chargers
            entries, on_chargers, ranks = [], 0, 0
            for b in range(nb):
                state = "ECFO"[(b + i) % 4]
                if state == "C" and on_chargers < m:
                    on_chargers += 1
                    entries.append(BatteryStart(state=C, progress=b % 2))
                elif state == "F":
                    ranks += 1
                    entries.append(BatteryStart(state=F, full_rank=ranks))
                else:
                    entries.append(BatteryStart(state=O if state == "O" else E))
            initial = InitialConditions(tuple(entries))
        specs.append(
            ScenarioSpec(
                config=StationConfig(nb, m, 1 + i % 4, Fraction(10 + 10 * (i % 3)), T),
                demand=shapes[i % 3],
                arrivals=shapes[i // 3 % 3],
                tariff=tariffs[i // 9 % 3],
                seed=1000 + i,
                initial=initial,
            )
        )
    return specs


def test_generated_bundles_and_greedy_grids_are_pinned(tmp_path):
    """The same specs give the same bundle bytes and greedy grids in every
    version, not only in two runs of one version."""
    digest = hashlib.sha256()
    for i, spec in enumerate(pinned_specs()):
        instance = generate(spec)
        save_instance(tmp_path / str(i), instance)
        for name in ("config.json", "profiles.csv", "initial.json"):
            digest.update((tmp_path / str(i) / name).read_bytes())
        try:
            digest.update(render_grid(solve_greedy(instance)).encode())
        except InfeasibleError as exc:
            digest.update(f"infeasible at hour {exc.hour}: {exc}\n".encode())
    assert digest.hexdigest() == "b6da4532736670838c0e537fe7133f884e51dbe536e369dc7cdbcf6de439809d"


def test_generate_varies_with_seed():
    drawn = {
        (generate(small_spec(s)).events.demand, generate(small_spec(s)).events.arrivals)
        for s in range(6)
    }
    assert len(drawn) > 1


def test_generated_instances_stay_solvable():
    """Every generated spec is solvable: greedy and exact both return a
    strictly valid grid, whatever the station, shapes, tariff and seed."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    totals = st.integers(0, 15)
    shapes = st.one_of(
        st.builds(UniformShape, totals),
        st.builds(PeakedShape, totals, st.integers(-10, 50), st.integers(1, 12)),  # peaks may lie outside the horizon
    )
    prices = st.fractions(0, 10, max_denominator=4)
    peak_ranges = st.lists(st.tuples(st.integers(1, 40), st.integers(0, 10)), max_size=3)
    tariffs = st.one_of(
        st.builds(FlatTariff, prices),
        st.builds(TouTariff, prices, prices, peak_ranges.map(lambda rs: tuple((a, a + n) for a, n in rs))),
    )
    configs = st.builds(
        StationConfig, st.integers(1, 10), st.integers(1, 4), st.integers(1, 6), st.just(Fraction(10)), st.integers(1, 36)
    )

    @hypothesis.settings(deadline=None)
    @hypothesis.given(spec=st.builds(ScenarioSpec, configs, shapes, shapes, tariffs, st.integers(0, 2**32)))
    def check(spec):
        instance = generate(spec)
        for grid in (solve_greedy(instance), solve_exact(instance)[0]):
            report = validate(grid, instance, "strict")
            assert report.feasible, [v.message for v in report.violations]

    check()


def test_generated_events_respect_the_edge_rules():
    for seed in range(20):
        instance = generate(small_spec(seed))
        ev = instance.events
        assert ev.demand[0] == 0
        assert ev.arrivals[0] == 0
        D, T = instance.config.charge_hours, instance.config.horizon
        # arrivals are only drawn where a full charge block still fits
        assert all(ev.arrivals[t - 1] == 0 for t in range(T - D + 1, T + 1))
        assert sum(ev.demand) <= 4
        assert sum(ev.arrivals) <= 3


def test_generated_initial_charging_fits_the_chargers():
    for seed in range(20):
        instance = generate(small_spec(seed))
        assert instance.initial.count(C) <= instance.config.n_chargers


def test_generate_places_events_in_one_pass():
    """One battery with a two-hour charge over 20,000 hours, and as many
    swaps and returns drawn as hours.  The battery starts out of the
    station, so its return is the one unit that fits; each repair stops at
    the first unit that finds no hour, rather than rescanning the horizon
    for each of the 20,000 after it."""
    spec = ScenarioSpec(
        config=StationConfig(1, 1, 2, Fraction(30), 20_000),
        demand=UniformShape(total=20_000),
        arrivals=UniformShape(total=20_000),
        tariff=FlatTariff(price=1),
        seed=1,
    )
    start = time.perf_counter()
    instance = generate(spec)
    assert time.perf_counter() - start < 3
    assert instance.initial.entries == (BatteryStart(state=O),)
    assert (sum(instance.events.demand), sum(instance.events.arrivals)) == (0, 1)


def test_explicit_shapes_are_verbatim():
    demand = (1, 0, 2, 0, 0, 0, 0, 0)  # even a never-servable hour-1 unit survives
    arrivals = (0, 0, 0, 1, 0, 0, 0, 0)
    spec = ScenarioSpec(
        config=StationConfig(2, 1, 2, Fraction(10), 8),
        demand=ExplicitShape(values=demand),
        arrivals=ExplicitShape(values=arrivals),
        tariff=FlatTariff(price=2),
        seed=0,
    )
    instance = generate(spec)
    assert instance.events.demand == demand
    assert instance.events.arrivals == arrivals


def test_explicit_shape_length_is_checked():
    spec = small_spec(0, demand=ExplicitShape(values=(0, 1)))
    with pytest.raises(DimensionError):
        generate(spec)


def test_pinned_initial_conditions_are_used():
    init = InitialConditions(
        (
            BatteryStart(state=F, full_rank=1),
            BatteryStart(state=F, full_rank=2),
            BatteryStart(state=O),
            BatteryStart(state=O),
        )
    )
    instance = generate(small_spec(3, initial=init))
    assert instance.initial == init


def test_pinned_initial_may_not_put_more_batteries_on_chargers_than_chargers():
    init = InitialConditions(
        (
            BatteryStart(state=C),
            BatteryStart(state=C, progress=1),
            BatteryStart(state=C),
            BatteryStart(state=E),
        )
    )
    with pytest.raises(InstanceError, match="pinned initial puts 3 batteries on chargers, the station has 2"):
        generate(small_spec(3, initial=init))
    fits = InitialConditions(init.entries[1:])
    assert generate(small_spec(3, config=StationConfig(3, 2, 3, Fraction(30), 14), initial=fits)).initial == fits


# ---------------------------------------------------------------------------
# Tariffs
# ---------------------------------------------------------------------------


def test_flat_tariff():
    assert FlatTariff(price="2.5").render(3) == (Fraction(5, 2),) * 3


def test_tou_tariff():
    tariff = TouTariff(off_peak=1, peak="3", peak_hours=((2, 3), (6, 6)))
    assert tariff.render(6) == tuple(Fraction(p) for p in (1, 3, 3, 1, 1, 3))
    with pytest.raises(InstanceError):
        TouTariff(off_peak=1, peak=2, peak_hours=((5, 3),))


def test_tou_tariff_renders_many_ranges_in_one_pass():
    """1,000 peak ranges over 100,000 hours: each range marks where it
    begins and ends, and one pass over the hours reads the marks."""
    ranges = tuple((100 * k + 1, 100 * k + 50) for k in range(1000))
    start = time.perf_counter()
    prices = TouTariff(off_peak=1, peak=3, peak_hours=ranges).render(100_000)
    assert time.perf_counter() - start < 1
    assert prices == ((Fraction(3),) * 50 + (Fraction(1),) * 50) * 1000


def test_explicit_tariff_checks_length():
    tariff = ExplicitTariff(prices=("1/3", 2))
    assert tariff.render(2) == (Fraction(1, 3), Fraction(2))
    with pytest.raises(DimensionError):
        tariff.render(3)


# ---------------------------------------------------------------------------
# Profiles CSV
# ---------------------------------------------------------------------------


def test_profiles_round_trip_is_exact(tmp_path):
    ev = EventProfiles((0, 1, 0), (0, 0, 1), (Fraction(1, 3), Fraction(1, 2), Fraction(2)))
    path = tmp_path / "profiles.csv"
    save_profiles(path, ev)
    assert load_profiles(path) == ev
    lines = path.read_text().splitlines()
    assert lines[0] == "hour,demand,arrivals,price"
    assert lines[1] == "1,0,0,1/3"  # non-decimal rationals stay exact on disk


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty"),
        ("hour,demand,price\n", "header"),
        ("hour,demand,arrivals,price\n2,0,0,1\n", "contiguous"),
        ("hour,demand,arrivals,price\n1,0,0,1\n1,0,0,1\n", "contiguous"),
        ("hour,demand,arrivals,price\n1,x,0,1\n", "integer"),
        ("hour,demand,arrivals,price\n1,-1,0,1\n", ">= 0"),
        ("hour,demand,arrivals,price\n1,0,0,cheap\n", "exact number"),
        ("hour,demand,arrivals,price\n1,0,0,-2\n", ">= 0"),
        ("hour,demand,arrivals,price\n1,0,0\n", "fields"),
        ("hour,demand,arrivals,price\n", "no hour rows"),
    ],
)
def test_profiles_csv_errors(tmp_path, content, fragment):
    path = tmp_path / "profiles.csv"
    path.write_text(content)
    with pytest.raises(ProfileError) as exc:
        load_profiles(path)
    assert fragment in str(exc.value)


def test_profiles_missing_file(tmp_path):
    with pytest.raises(ProfileError):
        load_profiles(tmp_path / "nope.csv")


# ---------------------------------------------------------------------------
# Instance bundles
# ---------------------------------------------------------------------------


def test_bundle_round_trip(tmp_path, demo):
    instance, reference = demo
    save_instance(tmp_path / "demo", instance, schedule=reference)
    loaded = load_instance(tmp_path / "demo")
    assert loaded == instance
    schedule = (tmp_path / "demo" / "schedule.txt").read_text()
    assert schedule.startswith("Hours: 1 2")
    assert schedule.count("\n") == 13


def test_bundle_without_schedule(tmp_path, valley):
    save_instance(tmp_path / "v", valley)
    assert not (tmp_path / "v" / "schedule.txt").exists()
    assert load_instance(tmp_path / "v") == valley


def test_a_bundle_that_cannot_be_rendered_leaves_no_file(tmp_path, valley, monkeypatch):
    def unprintable(value):
        raise ValueError("cannot print this price")

    monkeypatch.setattr("swapsched.bundle.format_exact", unprintable)
    with pytest.raises(ValueError, match="cannot print"):
        save_instance(tmp_path / "v", valley, schedule=solve_greedy(valley))
    assert not (tmp_path / "v").exists()


def test_bundle_missing_pieces(tmp_path, valley):
    save_instance(tmp_path / "v", valley)
    (tmp_path / "v" / "initial.json").unlink()
    with pytest.raises(InstanceError) as exc:
        load_instance(tmp_path / "v")
    assert "initial" in str(exc.value)
    with pytest.raises(InstanceError):
        load_instance(tmp_path / "missing")


def test_bundle_initial_json_shape(tmp_path, demo):
    instance, _ = demo
    save_instance(tmp_path / "demo", instance)
    data = json.loads((tmp_path / "demo" / "initial.json").read_text())
    assert data[0] == {"battery": 1, "state": "E"}
    assert data[3] == {"battery": 4, "full_rank": 1, "state": "F"}
    assert data[5] == {"battery": 6, "progress": 2, "state": "C"}


@pytest.mark.parametrize(
    "entries,fragment",
    [
        ([{"battery": 1, "state": "E"}, {"battery": 1, "state": "O"}], "twice"),
        ([{"battery": 2, "state": "E"}], "1..1"),
        ([{"battery": 1, "state": "Q"}], "unknown state"),
        ([{"battery": 1, "state": "E", "color": "red"}], "unknown"),
        ([{"state": "E"}], "missing initial entry keys"),
        ("not-a-list", "list"),
    ],
)
def test_bad_initial_json(tmp_path, valley, entries, fragment):
    save_instance(tmp_path / "v", valley)
    (tmp_path / "v" / "initial.json").write_text(json.dumps(entries))
    with pytest.raises(InstanceError) as exc:
        load_instance(tmp_path / "v")
    assert fragment in str(exc.value)


# ---------------------------------------------------------------------------
# Scenario spec files
# ---------------------------------------------------------------------------


def spec_document() -> dict:
    return {
        "config": {
            "n_batteries": 3,
            "n_chargers": 2,
            "charge_hours": 3,
            "capacity_kwh": 30,
            "horizon": 14,
        },
        "seed": 5,
        "demand": {"shape": "uniform", "total": 3},
        "arrivals": {"shape": "peaked", "total": 2, "peak_hour": 6, "width": 3},
        "tariff": {"kind": "tou", "off_peak": "0.5", "peak": 4, "peak_hours": [[7, 10]]},
    }


def test_load_spec_round_trips_through_generate(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_document()))
    spec = load_spec(path)
    assert spec.seed == 5
    assert spec.config.n_batteries == 3
    assert spec.tariff == TouTariff(off_peak="0.5", peak=4, peak_hours=((7, 10),))
    instance = generate(spec)
    assert instance.config == spec.config
    assert instance.events.price[6] == Fraction(4)
    assert instance.events.price[0] == Fraction(1, 2)


def test_load_spec_with_pinned_initial(tmp_path):
    doc = spec_document()
    doc["initial"] = [
        {"battery": 1, "state": "F", "full_rank": 1},
        {"battery": 2, "state": "O"},
        {"battery": 3, "state": "O"},
    ]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    instance = generate(load_spec(path))
    assert instance.initial.for_battery(1).state is F


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("seed"), "missing"),
        (lambda d: d.update(seed="five"), "integer"),
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d.update(demand={"shape": "spiky", "total": 1}), "unknown demand shape"),
        (lambda d: d.update(demand={"shape": "uniform"}), "missing"),
        (lambda d: d.update(tariff={"kind": "dynamic"}), "unknown tariff"),
        (lambda d: d.update(tariff={"kind": "flat"}), "missing"),
    ],
)
def test_load_spec_errors(tmp_path, mutate, fragment):
    doc = spec_document()
    mutate(doc)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError) as exc:
        load_spec(path)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "key, tag, kind, cls, fields",
    [
        ("demand", "shape", "uniform", UniformShape, (3,)),
        ("demand", "shape", "peaked", PeakedShape, (3, 6, 2)),
        ("arrivals", "shape", "explicit", ExplicitShape, ([0, 1, 0],)),
        ("tariff", "kind", "flat", FlatTariff, ("1/3",)),
        ("tariff", "kind", "tou", TouTariff, ("0.5", 4, [[7, 10], [12, 12]])),
        ("tariff", "kind", "explicit", ExplicitTariff, (["1/3", 2],)),
    ],
    ids=["uniform", "peaked", "explicit-shape", "flat", "tou", "explicit-tariff"],
)
def test_a_shape_or_tariff_object_holds_its_class_fields(tmp_path, key, tag, kind, cls, fields):
    """Past the tag that names the class, an object's keys are the class's
    ``__slots__``, and one key more is refused."""
    doc = spec_document()
    doc[key] = {tag: kind, **dict(zip(cls.__slots__, fields))}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert getattr(load_spec(path), key) == cls(*fields)
    doc[key]["extra"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError) as exc:
        load_spec(path)
    assert str(exc.value) == f"unknown {key} keys: ['extra']"


def test_config_entry_and_spec_objects_hold_their_values_fields(tmp_path):
    """A config's keys are ``StationConfig``'s fields, an initial entry's are
    ``battery`` and ``BatteryStart``'s, and a spec's are ``ScenarioSpec``'s;
    one key more is refused in each."""
    config = dict(zip(StationConfig.__slots__, (3, 2, 3, 30, 14, "7/3")))
    assert StationConfig.from_json_dict(config) == StationConfig(3, 2, 3, Fraction(30), 14, Fraction(7, 3))
    starts = (("C", 1, None), ("F", 0, 1), ("O", 0, None))
    initial = [{"battery": b, **dict(zip(BatteryStart.__slots__, start))} for b, start in enumerate(starts, 1)]
    demand, arrivals = {"shape": "uniform", "total": 3}, {"shape": "uniform", "total": 2}
    doc = dict(zip(ScenarioSpec.__slots__, (config, demand, arrivals, {"kind": "flat", "price": 2}, 5, initial)))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert load_spec(path) == ScenarioSpec(
        StationConfig.from_json_dict(config), UniformShape(3), UniformShape(2), FlatTariff(2), 5,
        InitialConditions(tuple(BatteryStart(*start) for start in starts)),
    )
    for what, obj in (("config", config), ("initial entry", initial[0]), ("scenario spec", doc)):
        obj["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceError) as exc:
            load_spec(path)
        assert str(exc.value) == f"unknown {what} keys: ['extra']"
        del obj["extra"]


def test_load_spec_rejects_junk_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    with pytest.raises(InstanceError):
        load_spec(path)
    with pytest.raises(InstanceError):
        load_spec(tmp_path / "absent.json")
