"""Record the reference-panel digests that every benchmark run compares against.

Run once, from the root of a checkout, on the commit whose outputs are the
reference::

    python3 bench/record_digests.py --seed 7

Writes ``bench/digests.json``: for each workload, the digest of the exact
solution of each panel instance drawn from ``--seed``, or "timeout".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import cli_bundles  # noqa: E402
import day_ahead  # noqa: E402
from common import HostPace, solve_panel  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description="record reference-panel digests")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    unpaced = HostPace(window=1)  # no chunk ever runs, so its caps are wall-clock seconds
    workloads = {m.NAME: solve_panel(m.panel(args.seed), unpaced) for m in (day_ahead, cli_bundles)}
    data = {"seed": args.seed, "workloads": workloads}
    (BENCH / "digests.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(data, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
