"""swapsched benchmark: one workload, one seed, end-to-end or traced.

Run from the root of a checkout::

    python3 bench/run.py --workload day-ahead-exact --seed 1 --seconds 25 --trace 0

Workloads: day-ahead-exact, cli-bundles.  The run generates its instances
from ``--seed``, sets them up several times, runs whole passes over them (at
least one) for about ``--seconds`` seconds from a single thread (a closed
loop: one op at a time), then verifies every output outside the timed
region.  Human-readable lines come first; the last line of standard
output is one JSON object.  Per-op timings, a per-instance table, a summary
and, when tracing, the spans are written under
``.bench_out/<workload>/seed<seed>-trace<0|1>/``; the bundles live in
``.bench_out/work/<workload>/``, so runs of one workload must not overlap.

``--trace 0`` reports the end-to-end metrics.  Their times are at the
reference pace of ``common.HostPace``: a shared host runs the same Python up
to 1.7 times slower for tens of seconds at a time, so each op's wall-clock
time is divided by the host's pace, as chunks of fixed pure-Python work run
just before it measure it, and each solve's cap is stretched by that pace;
a set-up's time is divided by the pace of chunks run among its items.  The
wall-clock median op and the pace quartiles are in ``summary.json``.

* ``setup_s``: median time to generate the instances and write and read
  their bundles;
* ``op_p50_ms`` and ``op_tail_ms``: the median op, and the highest
  percentile that leaves at least ten of one pass's ops beyond it (the
  output names it and counts the ops beyond); an op stopped at its cap
  counts at the time it was stopped;
* ``ops_per_s``: ops that completed without failing (solved, or stopped at
  the cap) per second of timed op time;
* ``solved_share``: ops that finished within their cap, over ops attempted;
* ``peak_rss_mib``: peak resident memory of the process that ran the ops
  (the child processes, for cli-bundles).

``failed_share`` (ops that raised, exited with an unexpected code or failed
the gate) is printed beside them and is the ``failed`` count of the JSON.

``--trace 1`` runs every op twice, untraced and traced side by side, and
reports per-layer numbers from the spans: the median call of each public
function in wall-clock time, counts that explain a change in speed, and
``trace_overhead_pct``, the traced median op over the untraced one, both in
wall-clock time.
"""

from __future__ import annotations

import argparse
import copy
import csv
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
IMPORT_PAIRS = 7
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
WORKLOADS = ("day-ahead-exact", "cli-bundles")
LAYER_SPANS = (
    "solver.solve_exact", "solver.solve_greedy", "solver.schedule_cost", "validation.validate",
    "model.parse_grid", "model.render_grid", "scenario.generate", "scenario.save_instance",
    "scenario.load_instance", "cli.process", "cli.main",
)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest percentile that leaves at least ten of one pass's ops beyond it."""
    return max(p for p in TAIL_PERCENTILES if p == 50 or ops_per_pass * (100 - p) / 100 >= TAIL_BEYOND)


def time_op(run_op, op, api, cli, pace) -> tuple:
    """(ms, status, output, error) of one op; an op that raises is a failed op, not a crashed run."""
    t0 = time.perf_counter()
    try:
        status, output = run_op(op, api, cli, pace)
        error = ""
    except Exception as exc:
        status, output, error = "error", None, f"{type(exc).__name__}: {exc}"
    return (time.perf_counter() - t0) * 1000, status, output, error


def timed_passes(op_list, run_op, api, cli, seconds: float, pace, pace_chunks: int, untraced=None):
    """Whole passes over ``op_list`` until the next one would end past ``seconds``.

    With ``untraced`` (a list, and a traced ``api``), every op also runs once
    untraced, just before or just after its traced run in turn, and that time
    goes to the list: twins run side by side measure what tracing adds even
    while the machine's speed drifts.  ``pace_chunks`` chunks of the host's
    pace probe ``pace`` run before every op, outside its time, and the
    record keeps the pace they give.
    """
    from common import OpRecord
    from tracing import NullTracer

    plain_cli = copy.copy(cli)
    plain_cli.api = NullTracer()
    records = []
    gc.collect()
    start = time.perf_counter()
    pass_no = 0
    while True:
        pass_start = time.perf_counter()
        for op in op_list:
            op_id = len(records)
            for _ in range(pace_chunks):
                op_pace = pace.sample()
            twin_first = untraced is not None and op_id % 2 == 0
            if twin_first:
                untraced.append(time_op(run_op, op, plain_cli.api, plain_cli, pace)[0])
            with api.op(op_id):
                ms, status, output, error = time_op(run_op, op, api, cli, pace)
            if untraced is not None and not twin_first:
                untraced.append(time_op(run_op, op, plain_cli.api, plain_cli, pace)[0])
            records.append(OpRecord(op_id, pass_no, op[0], op[1], ms, status,
                                    output if pass_no == 0 else None, error, op_pace))
            # Outputs kept for the gate, and the set-up state, are not the
            # program's to collect: keep them out of later ops' collections.
            gc.freeze()
        pass_no += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            gc.unfreeze()
            return records, now - start, pass_no


def import_cost_ms(api) -> float:
    """``import swapsched.cli`` in a fresh interpreter, minus a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_PAIRS):
        for name, code in (("cli.bare_interpreter", "pass"), ("cli.import_process", "import swapsched.cli")):
            api.call(name, subprocess.run, [sys.executable, "-c", code], env=env, check=True)
    return statistics.median(api.durations_ms("cli.import_process")) - statistics.median(
        api.durations_ms("cli.bare_interpreter"))


def check_panel(module, gate, pace) -> None:
    """Re-solve the reference panel and compare with the digests recorded at the seed commit."""
    from common import solve_panel

    recorded = json.loads((BENCH / "digests.json").read_text())
    expected = recorded["workloads"][module.NAME]
    got = solve_panel(module.panel(recorded["seed"]), pace)
    compared = 0
    gate.check(set(got) == set(expected), "panel", "panel instances differ from the recorded ones")
    for name, want in expected.items():
        if want != "timeout" and got.get(name, "timeout") != "timeout":
            compared += 1
            gate.check(got[name] == want, f"panel:{name}", "solution differs from the one recorded at the seed commit")
    gate.notes["panel_compared"] = compared


def write_tables(directory: Path, records, gate) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "timings.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["op", "pass", "item", "kind", "ms", "wall_ms", "pace", "status", "error"])
        for r in records:
            w.writerow([r.op_id, r.pass_no, r.item, r.kind, f"{r.ms:.4f}", f"{r.wall_ms:.4f}",
                        f"{r.pace:.4f}", r.status, r.error])
    if gate.rows:
        with open(directory / "instances.csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(gate.rows[0]))
            w.writeheader()
            w.writerows(gate.rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swapsched" / "__init__.py").is_file():
        print(f"error: no swapsched package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # This process and its children stay on one core, the same in every run,
    # so that runs differ by their inputs and not by where they were placed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import cli_bundles
    import day_ahead
    from common import Cli, HostPace
    from tracing import NullTracer, Tracer

    module = {m.NAME: m for m in (day_ahead, cli_bundles)}[args.workload]
    pace = HostPace(module.PACE_WINDOW)
    out_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    # Bundles are rewritten in place, run after run, rather than deleted:
    # deleting thousands of small files can hold up the writes that follow,
    # which made set-up times swing.
    workdir = OUT / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    setup_times = []
    setup_paces = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        state = None
        gc.collect()  # every set-up starts from the same heap
        first_chunk = len(pace.samples)
        t0 = time.perf_counter()
        state = module.setup(args.seed, workdir, tracer, pace)
        elapsed = time.perf_counter() - t0
        in_chunks, setup_pace = pace.since(first_chunk)
        setup_times.append(elapsed - in_chunks)
        setup_paces.append(setup_pace)

    cli = Cli(SRC, NullTracer(), cli_bundles.CAP_S)
    cli.process(["--help"])  # fills the bytecode cache before anything is timed
    op_list = module.ops(state)
    cli.api = tracer
    untraced = [] if args.trace else None
    records, wall, passes = timed_passes(op_list, module.run_op, tracer, cli, args.seconds, pace,
                                         module.PACE_CHUNKS, untraced)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if module is cli_bundles else resource.RUSAGE_SELF)
    peak_rss_mib = usage.ru_maxrss / 1024

    t0 = time.perf_counter()
    gate = module.verify(state, records, tracer, cli)
    check_panel(module, gate, pace)
    gate.notes["gate_s"] = round(time.perf_counter() - t0, 2)

    attempted = len(records)
    failed_items = set(gate.failures)
    failed = sum(1 for r in records if r.status == "error" or r.item in failed_items)
    solved = sum(1 for r in records if r.status == "ok")
    # an op completes when it ends without failing: solved, or stopped at its cap
    completed = sum(1 for r in records if r.status != "error" and r.item not in failed_items)
    times = [r.ms for r in records]
    timed_s = sum(times) / 1000
    tail_p = tail_percentile(len(op_list))
    tail_beyond = sum(1 for t in times if t > percentile(times, tail_p))
    end_to_end = {
        "setup_s": (statistics.median(t / p for t, p in zip(setup_times, setup_paces)), "s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_tail_ms": (percentile(times, tail_p), "ms"),
        "ops_per_s": (completed / timed_s, "1/s"),
        "solved_share": (solved / attempted, "share"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    failed_share = failed / attempted
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": passes, "ops_per_pass": len(op_list), "attempted": attempted, "failed": failed,
        "failed_share": failed_share, "timeouts": sum(1 for r in records if r.status == "timeout"),
        "tail_percentile": tail_p, "tail_samples_beyond": tail_beyond, "wall_s": wall,
        "wall_op_p50_ms": statistics.median(r.wall_ms for r in records),
        "pace_quartiles": statistics.quantiles([r.pace for r in records], n=4),
        "setup_runs_s": setup_times, "setup_paces": setup_paces,
        "gate_checks": gate.checks, "gate_notes": gate.notes,
        "failures": {k: v[:3] for k, v in list(gate.failures.items())[:50]},
        "errors": sorted({r.error for r in records if r.error})[:20],
    }

    if args.trace:
        # both sides in wall-clock time: each twin ran right beside its traced op
        untraced_p50 = statistics.median(untraced)
        overhead = (summary["wall_op_p50_ms"] / untraced_p50 - 1) * 100
        metrics = {f"{name}.ms": (tracer.median_ms(name), "ms") for name in LAYER_SPANS}
        metrics.update({
            "cli.import.ms": (import_cost_ms(tracer), "ms"),
            "solver.exact_timeouts": (sum(tracer.counts["solver.exact_timeouts"]) / passes, "count"),
            "solver.movable_jobs": (statistics.median(tracer.counts["solver.movable_jobs"]), "count"),
            "solver.search_space_log10": (statistics.median(tracer.counts["solver.search_space_log10"]), "log10"),
            "model.cells": (statistics.median(tracer.counts["model.cells"]), "count"),
            "validation.violations": (sum(tracer.counts["validation.violations"]), "count"),
            "scenario.bundle_bytes": (state["bundle_bytes"], "bytes"),
            "trace_overhead_pct": (overhead, "%"),
        })
        summary["untraced_op_p50_ms"] = untraced_p50
        tracer.write(out_dir, {"trace_overhead_pct": overhead, "untraced_op_p50_ms": untraced_p50,
                               "traced_op_p50_ms": summary["wall_op_p50_ms"]})
    else:
        metrics = end_to_end
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **metrics}.items()}
    write_tables(out_dir, records, gate)
    # the pace probe's chunks in the order they ran: set-up chunks, then those before each op
    (out_dir / "pace_chunks_ms.txt").write_text("".join(f"{ms:.5f}\n" for ms in pace.samples))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")

    print(f"{args.workload} seed {args.seed}: {passes} pass(es) of {len(op_list)} ops in {wall:.2f} s, "
          f"{summary['timeouts']} timeouts, {gate.checks} gate checks, notes {gate.notes}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<16} {value:12.4f} {unit}")
    print(f"  {'failed_share':<16} {failed_share:12.4f} share  ({failed} of {attempted} ops)")
    print(f"  op_tail_ms is p{tail_p:g} of {attempted} ops, {tail_beyond} beyond it")
    print(f"  wall-clock op p50 {summary['wall_op_p50_ms']:.4f} ms; host pace quartiles "
          + " ".join(f"{q:.3f}" for q in summary["pace_quartiles"]))
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:14.4f} {unit}")
    for item, messages in list(gate.failures.items())[:10]:
        print(f"  FAILED {item}: {'; '.join(messages[:3])}")
    for error in summary["errors"][:10]:
        print(f"  ERROR {error}")
    print(json.dumps({
        "correct": failed == 0 and not gate.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
