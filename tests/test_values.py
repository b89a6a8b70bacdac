"""The immutable value types, the lazy package, and an import path of the
standard library only, without dataclasses or typing, that loads only the
modules each command runs.

Every public value class keeps its fields in slots and behaves as a frozen
dataclass did: keyword and positional construction with the same defaults,
equality within one class, a hash of the field tuple, the
``Name(field=value, ...)`` repr, no assignment or deletion, and faithful
copies and pickles.
"""

from __future__ import annotations

import ast
import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import swapsched
from swapsched import (
    BatteryStart,
    BatteryState,
    ChargeJob,
    CostBreakdown,
    EventProfiles,
    ExplicitShape,
    ExplicitTariff,
    FlatTariff,
    InitialConditions,
    Instance,
    PeakedShape,
    ScenarioSpec,
    ScheduleGrid,
    StationConfig,
    TouTariff,
    UniformShape,
    ValidationReport,
    Violation,
    demo_instance,
    save_instance,
    solve_greedy,
)
from swapsched.model import _Value

E, C, F = BatteryState.EMPTY, BatteryState.CHARGING, BatteryState.FULL

CONFIG = StationConfig(2, 1, 2, Fraction(30), 3)
INITIAL = InitialConditions((BatteryStart(E), BatteryStart(F, full_rank=1)))
EVENTS = EventProfiles((0, 1, 0), (0, 0, 1), (Fraction(1), Fraction(1, 2), Fraction(2)))
VIOLATION = Violation("transition", 1, 2, "battery B1: illegal transition E->F into hour 2")
UNIFORM = UniformShape(4)
PEAKED = PeakedShape(3, 6, 2)
FLAT = FlatTariff(Fraction(1, 4))

# (class, field names in order, positional arguments, defaults of the trailing fields)
VALUES = [
    (StationConfig,
     ("n_batteries", "n_chargers", "charge_hours", "capacity_kwh", "horizon", "charge_power_kw"),
     (3, 2, 3, Fraction(30), 14, Fraction(7, 3)), {"charge_power_kw": None}),
    (BatteryStart, ("state", "progress", "full_rank"), (C, 2, None), {"progress": 0, "full_rank": None}),
    (InitialConditions, ("entries",), (INITIAL.entries,), {}),
    (ScheduleGrid, ("rows",), (("ECF", "OOE"),), {}),
    (EventProfiles, ("demand", "arrivals", "price"), (EVENTS.demand, EVENTS.arrivals, EVENTS.price), {}),
    (Instance, ("config", "initial", "events"), (CONFIG, INITIAL, EVENTS), {}),
    (Violation, ("constraint", "battery", "hour", "message"),
     ("charger_capacity", None, 15, "hour 15: 5 batteries charging, only 4 chargers"), {}),
    (ValidationReport, ("feasible", "violations", "hourly"),
     (False, (VIOLATION,), {"E": (1, 0), "C": (0, 1), "F": (1, 1), "O": (0, 0)}), {}),
    (ChargeJob, ("release", "duration", "fixed_start"), (1, 4, 1), {"fixed_start": None}),
    (CostBreakdown, ("total", "per_hour", "per_battery", "energy_kwh"),
     (Fraction(7, 2), (Fraction(3), Fraction(1, 2)), (Fraction(7, 2),), Fraction(20)), {}),
    (UniformShape, ("total",), (4,), {}),
    (PeakedShape, ("total", "peak_hour", "width"), (3, 6, 2), {}),
    (ExplicitShape, ("values",), ((1, 0, 2),), {}),
    (FlatTariff, ("price",), (Fraction(1, 4),), {}),
    (TouTariff, ("off_peak", "peak", "peak_hours"),
     (Fraction(1, 2), Fraction(4), ((8, 11), (18, 21))), {}),
    (ExplicitTariff, ("prices",), ((Fraction(1), Fraction(5, 2)),), {}),
    (ScenarioSpec, ("config", "demand", "arrivals", "tariff", "seed", "initial"),
     (CONFIG, UNIFORM, PEAKED, FLAT, 7, INITIAL), {"initial": None}),
]


def test_every_public_value_class_is_covered():
    exported = [getattr(swapsched, name) for name in swapsched.__all__]
    public = {obj for obj in exported if isinstance(obj, type) and issubclass(obj, _Value)}
    assert public == {cls for cls, *_ in VALUES}


@pytest.mark.parametrize("cls, names, args, defaults", VALUES, ids=[cls.__name__ for cls, *_ in VALUES])
def test_value_semantics(cls, names, args, defaults):
    value = cls(*args)
    assert tuple(getattr(value, name) for name in names) == args
    assert not hasattr(value, "__dict__")  # fields live in slots
    assert cls(**dict(zip(names, args))) == value
    required = len(names) - len(defaults)
    short = cls(*args[:required])
    assert {name: getattr(short, name) for name in names[required:]} == defaults
    if defaults:
        assert short != value

    # equality within one class only: a subclass with the same fields differs
    assert value == cls(*args) and not value != cls(*args)
    twin = type("Twin", (cls,), {})(*args)
    assert value != twin and twin != value

    try:
        expected = hash(args)
    except TypeError:  # a report's hourly counts are a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected == hash(cls(*args))

    fields = ", ".join(f"{name}={arg!r}" for name, arg in zip(names, args))
    assert repr(value) == f"{cls.__qualname__}({fields})"

    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == args

    copies = [copy.copy(value), copy.deepcopy(value)]
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols]
    for other in copies:
        assert type(other) is cls
        assert other == value and repr(other) == repr(value)


def test_fields_are_stored_by_value_init_alone():
    """Only ``_Value.__init__`` writes fields past the frozen ``__setattr__``:
    every other ``__init__`` passes its fields to it."""
    src = Path(swapsched.__file__).resolve().parent
    callers = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners = {}  # the names of the classes and functions around each node
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owners[child] = owners.get(node, ())
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    owners[child] += (node.name,)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                callers.append((path.name, owners[node]))
    assert callers == [("model.py", ("_Value", "__init__"))]


def test_a_wrong_number_of_fields_is_a_type_error():
    """A bug, not bad input: the CLI reports a TypeError as an internal error."""
    with pytest.raises(TypeError, match="UniformShape has 1 fields, got 2"):
        _Value.__init__(UniformShape(1), 1, 2)
    with pytest.raises(TypeError):
        _Value.__init__(StationConfig(1, 1, 1, Fraction(1), 1))


def test_the_cli_imports_neither_dataclasses_nor_typing():
    """A CLI process loads none of the machinery a frozen dataclass pulls in."""
    src = Path(swapsched.__file__).resolve().parents[1]
    code = "import sys, swapsched.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "swapsched.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "typing"})


def test_the_runtime_imports_only_the_standard_library():
    """Every module under src/ imports the standard library or swapsched itself."""
    src = Path(swapsched.__file__).resolve().parents[1]
    imported = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    assert {"fractions", "itertools"} <= set(imported)
    outside = {
        name: where for name, where in imported.items()
        if name not in sys.stdlib_module_names and name != "swapsched"
    }
    assert outside == {}


def test_every_annotation_in_the_package_resolves():
    """``typing.get_type_hints`` resolves the annotations of every function,
    class and method of every module under src/.  No linter runs on this
    code, so this test is what catches an annotation naming a type that its
    module never imports.  ``__main__`` is left out: importing it runs the
    CLI, and it defines nothing."""
    src = Path(swapsched.__file__).resolve().parent
    resolved = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module("swapsched" if path.stem == "__init__" else f"swapsched.{path.stem}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                members = [value, *vars(value).values()]
            elif callable(value):
                members = [value]
            else:
                continue
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                for function in (member.fget, member.fset) if isinstance(member, property) else (member,):
                    if callable(function) and getattr(function, "__module__", None) == module.__name__:
                        typing.get_type_hints(function)
                        resolved.append(f"{module.__name__}.{function.__qualname__}")
    assert {"swapsched.cli._print_violation", "swapsched.cli._print_report"} <= set(resolved)
    assert "swapsched.model.ScheduleGrid._trusted" in resolved


def test_every_public_name_resolves_to_its_home_module():
    """The package imports each name from the module that defines it."""
    for name in swapsched.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"swapsched.{swapsched._HOMES[name]}")
        value = getattr(swapsched, name)
        assert value is getattr(home, name)
        if callable(value):
            assert value.__module__ == home.__name__


def test_the_package_lists_and_star_imports_every_public_name():
    assert set(swapsched.__all__) <= set(dir(swapsched))
    namespace = {}
    exec("from swapsched import *", namespace)
    assert set(swapsched.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'swapsched' has no attribute 'no_such_name'$"):
        swapsched.no_such_name


def _imported(*args: str, cwd: Path) -> set[str]:
    """The modules a ``python -S`` run imports, as ``-X importtime`` logs them."""
    src = Path(swapsched.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}  # the first is the header


def test_importing_the_package_loads_none_of_its_modules(tmp_path):
    assert {m for m in _imported("-c", "import swapsched", cwd=tmp_path) if "swapsched" in m} == {"swapsched"}


# The modules each command loads besides cli, errors, model and bundle.
COMMANDS = {
    "validate": (["validate", "--instance", "station"], {"validation"}),
    "render": (["render", "--instance", "station", "--counts"], set()),
    "solve-greedy": (["solve", "--instance", "station", "--method", "greedy"], {"solver"}),
    "solve-exact": (["solve", "--instance", "station", "--method", "exact"], {"solver", "exact"}),
    "generate": (["generate", "--spec", "spec.json", "--out", "drawn"], {"scenario"}),
    "demo": (["demo"], {"scenario", "solver", "validation"}),
}


@pytest.mark.parametrize("argv, extra", COMMANDS.values(), ids=COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    """``python -S -m swapsched <command>`` over a small bundle compiles the
    package's modules that the command runs and no others, none of the
    machinery a frozen dataclass pulls in, and no ``heapq``: the
    realisation keeps its FIFO pools in deques."""
    instance, _ = demo_instance()
    save_instance(tmp_path / "station", instance, schedule=solve_greedy(instance))
    spec = {
        "config": {"n_batteries": 3, "n_chargers": 2, "charge_hours": 3, "capacity_kwh": 30, "horizon": 14},
        "seed": 21,
        "demand": {"shape": "uniform", "total": 4},
        "arrivals": {"shape": "uniform", "total": 3},
        "tariff": {"kind": "flat", "price": "0.25"},
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    loaded = _imported("-m", "swapsched", *argv, cwd=tmp_path)
    package = {m.removeprefix("swapsched.") for m in loaded if m.startswith("swapsched.")}
    assert package == {"cli", "errors", "model", "bundle"} | extra
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "typing", "heapq"})
