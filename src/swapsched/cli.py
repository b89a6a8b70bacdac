"""Command-line interface.

Subcommands::

    swapsched validate  --instance DIR [--schedule FILE] [--mode lenient|strict] [--format text|json]
    swapsched solve     --instance DIR [--method greedy|exact|oracle] [--objective min-cost|feasibility]
                        [--budget N] [--out DIR] [--format text|json]
    swapsched generate  --spec FILE --out DIR
    swapsched render    --instance DIR [--schedule FILE] [--counts]
    swapsched demo      [--out DIR]

Exit codes: 0 success (and, for validate, a feasible schedule); 1 an
infeasible schedule or an unsatisfiable instance; 2 malformed input
(files, formats, dimensions); 3 enumeration budget exceeded; 4 an internal
error (any other exception, reported without a traceback).

Each command imports the modules it runs, and no others, when it runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import swapsched  # its lazy names type the reports without loading validation
from .bundle import _read_text, _write_texts, load_instance, save_instance
from .errors import EnumerationBudgetError, InfeasibleError, SwapSchedError
from .model import (
    DEFAULT_ORACLE_BUDGET, Instance, ScheduleGrid, _json_text, _scan, format_exact, parse_grid, render_grid
)

__all__ = ["main"]


def _read_schedule(instance: Instance, instance_dir: str, override: str | None) -> ScheduleGrid:
    path = Path(override) if override else Path(instance_dir) / "schedule.txt"
    return parse_grid(_read_text(path, "schedule file"), instance.config)


def _print_violation(v: swapsched.Violation) -> None:
    print(f"  [{v.constraint}] {v.message}")


def _print_report(report: swapsched.ValidationReport, mode: str) -> None:
    if report.feasible:
        print(f"feasible ({mode} mode): all constraints hold")
    else:
        print(f"infeasible ({mode} mode): {len(report.violations)} violation(s)")
        for v in report.violations:
            _print_violation(v)


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import validate

    instance = load_instance(args.instance)
    grid = _read_schedule(instance, args.instance, args.schedule)
    report = validate(grid, instance, args.mode)
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        _print_report(report, args.mode)
    return 0 if report.feasible else 1


def cmd_solve(args: argparse.Namespace) -> int:
    from .solver import SolveObjective, _greedy_starts, _simulate

    instance = load_instance(args.instance)
    objective = SolveObjective(args.objective)
    if args.method == "greedy":
        grid, cost = _simulate(instance, _greedy_starts(instance))
    elif args.method == "exact":
        from .exact import solve_exact

        grid, cost = solve_exact(instance, objective)
    else:
        from .exact import solve_oracle

        grid, cost = solve_oracle(instance, objective, budget=args.budget)
    schedule = render_grid(grid)
    if args.out:
        _write_texts(args.out, {"schedule.txt": schedule, "cost.json": cost.to_json()})
    if args.format == "json":
        payload = {
            "method": args.method,
            "objective": args.objective,
            "total_cost": format_exact(cost.total),
            "energy_kwh": format_exact(cost.energy_kwh),
            "schedule": schedule,
        }
        print(_json_text(payload), end="")
    else:
        print(schedule, end="")
        print(f"total cost: {format_exact(cost.total)}")
        print(f"energy charged: {format_exact(cost.energy_kwh)} kWh")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .scenario import generate, load_spec

    spec = load_spec(args.spec)
    instance = generate(spec)
    save_instance(args.out, instance)
    print(f"wrote instance bundle to {args.out}")
    print(
        f"  {instance.config.n_batteries} batteries, "
        f"{instance.config.n_chargers} chargers, {instance.config.horizon} hours; "
        f"demand {sum(instance.events.demand)}, arrivals {sum(instance.events.arrivals)}"
    )
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    grid = _read_schedule(instance, args.instance, args.schedule)
    print(render_grid(grid), end="")
    if args.counts:
        print()
        for letter, counts in _scan(grid)[0].items():
            print(f"{letter}: " + " ".join(map(str, counts)))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from .scenario import demo_instance
    from .solver import solve_greedy
    from .validation import validate

    instance, reference = demo_instance()
    print(render_grid(reference), end="")
    print()
    # The published reference is never lenient-feasible: it puts five
    # batteries on four chargers at hours 15 and 16.
    report = validate(reference, instance, "lenient")
    print(f"reference schedule: {len(report.violations)} lenient violation(s)")
    for v in report.violations:
        _print_violation(v)
    greedy = solve_greedy(instance)
    diff = [
        (b, t)
        for b, (ours, theirs) in enumerate(zip(greedy.rows, reference.rows), start=1)
        for t, (a, r) in enumerate(zip(ours, theirs), start=1)
        if a != r
    ]
    cells = ", ".join(f"B{b}@{t}" for b, t in diff)
    print(f"greedy schedule differs from the reference in {len(diff)} cell(s): {cells}")
    if args.out:
        save_instance(args.out, instance, schedule=reference)
        print(f"wrote demo bundle to {args.out}")
    return 0


def _budget(text: str) -> int:
    """An enumeration budget: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsched",
        description="Battery-swap-station schedule validation and charge planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a schedule against an instance")
    p.add_argument("--instance", required=True, help="instance bundle directory")
    p.add_argument("--schedule", help="schedule file (default: <instance>/schedule.txt)")
    p.add_argument("--mode", choices=["lenient", "strict"], default="lenient")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="compute a charging schedule")
    p.add_argument("--instance", required=True, help="instance bundle directory")
    p.add_argument("--method", choices=["greedy", "exact", "oracle"], default="exact")
    p.add_argument("--objective", choices=["min-cost", "feasibility"], default="min-cost")
    p.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_ORACLE_BUDGET,
        help="oracle enumeration limit (start vectors)",
    )
    p.add_argument("--out", help="directory for schedule.txt and cost.json")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="draw an instance from a scenario spec")
    p.add_argument("--spec", required=True, help="scenario spec JSON file")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("render", help="pretty-print a schedule")
    p.add_argument("--instance", required=True, help="instance bundle directory")
    p.add_argument("--schedule", help="schedule file (default: <instance>/schedule.txt)")
    p.add_argument("--counts", action="store_true", help="append per-state hourly counts")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("demo", help="show the bundled worked example")
    p.add_argument("--out", help="also export the demo as an instance bundle")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        if exc.hour is not None:
            print(f"infeasible at hour {exc.hour}: {exc}", file=sys.stderr)
        else:
            print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (SwapSchedError, ValueError, OSError) as exc:  # every other input error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "infeasible", so a bug must not end there
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
