"""Battery-swap-station scheduling.

Validate battery-by-hour schedules against station constraints, plan
charging greedily or at exact minimum electricity cost under time-of-use
tariffs, generate reproducible scenarios, and cross-check everything with a
brute-force oracle.

Importing the package loads none of its modules.  Each public name is
imported from its home module when it is first looked up (PEP 562), so a
command loads only the modules it runs.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it, in ``__all__`` order.
_HOMES = {
    "SwapSchedError": "errors",
    "GridParseError": "errors",
    "TransitionError": "errors",
    "ProfileError": "errors",
    "DimensionError": "errors",
    "InstanceError": "errors",
    "InfeasibleError": "errors",
    "EnumerationBudgetError": "errors",
    "BatteryState": "model",
    "to_exact": "model",
    "format_exact": "model",
    "StationConfig": "model",
    "BatteryStart": "model",
    "InitialConditions": "model",
    "ScheduleGrid": "model",
    "EventProfiles": "model",
    "extract_events": "scenario",
    "render_grid": "model",
    "parse_grid": "model",
    "Instance": "model",
    "Violation": "validation",
    "ValidationReport": "validation",
    "validate": "validation",
    "SolveObjective": "solver",
    "ChargeJob": "exact",
    "CostBreakdown": "solver",
    "DEFAULT_ORACLE_BUDGET": "model",
    "build_jobs": "exact",
    "start_domain": "exact",
    "schedule_cost": "solver",
    "solve_greedy": "solver",
    "solve_exact": "exact",
    "solve_oracle": "exact",
    "UniformShape": "scenario",
    "PeakedShape": "scenario",
    "ExplicitShape": "scenario",
    "FlatTariff": "scenario",
    "TouTariff": "scenario",
    "ExplicitTariff": "scenario",
    "ScenarioSpec": "scenario",
    "generate": "scenario",
    "save_profiles": "bundle",
    "load_profiles": "bundle",
    "save_instance": "bundle",
    "load_instance": "bundle",
    "load_spec": "scenario",
    "demo_instance": "scenario",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
