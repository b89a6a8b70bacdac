"""The README's library example runs as it is printed."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from swapsched import render_grid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_library_example_runs():
    """README's one ``python`` block runs cleanly: it solves a generated
    station exactly, checks the grid strictly valid, and prints the grid
    and its cost, which is no higher than greedy's."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    out, namespace = io.StringIO(), {"__name__": "readme"}
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    grid, cost, baseline = namespace["grid"], namespace["cost"], namespace["baseline"]
    assert out.getvalue() == f"{render_grid(grid)}\nexact {cost.total} vs greedy {baseline.total}\n"
    assert cost.total <= baseline.total
