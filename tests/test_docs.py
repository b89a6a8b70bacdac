"""The README's library example runs as it is printed, and its scenario spec generates."""

from __future__ import annotations

import contextlib
import io

from swapsched import generate, load_spec, render_grid, schedule_cost, solve_exact, solve_greedy, validate
from conftest import README, readme_blocks, readme_spec


def test_the_readme_library_example_runs():
    """README's one ``python`` block runs cleanly: it solves a generated
    station exactly, checks the grid strictly valid, and prints the grid
    and its cost, which is no higher than greedy's."""
    blocks = readme_blocks("python")
    assert len(blocks) == 1
    out, namespace = io.StringIO(), {"__name__": "readme"}
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    grid, cost, baseline = namespace["grid"], namespace["cost"], namespace["baseline"]
    assert out.getvalue() == f"{render_grid(grid)}\nexact {cost.total} vs greedy {baseline.total}\n"
    assert cost.total <= baseline.total


def test_the_readme_scenario_spec_loads_and_both_solvers_solve_what_it_generates(tmp_path):
    """README's one scenario spec loads as printed; greedy and exact both
    solve the station it generates, strictly valid, exact no dearer."""
    path = tmp_path / "scenario.json"
    path.write_text(readme_spec())
    instance = generate(load_spec(path))
    greedy = solve_greedy(instance)
    grid, cost = solve_exact(instance)
    for schedule in (greedy, grid):
        assert validate(schedule, instance, "strict").feasible
    assert cost.total <= schedule_cost(greedy, instance.config, instance.events.price).total
