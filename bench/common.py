"""Pieces every workload shares: op records, the time cap, digests, instance specs."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from swapsched import cli as swapsched_cli
from swapsched import (
    Instance,
    ScenarioSpec,
    StationConfig,
    TouTariff,
    UniformShape,
    build_jobs,
    format_exact,
    generate,
    load_instance,
    render_grid,
    save_instance,
    solve_exact,
    start_domain,
)

# Generated stations see a quarter of their fleet swapped, and a quarter
# returned, per day; denser stations make most small exact solves time out.
SWAPS_PER_BATTERY_DAY = Fraction(1, 4)
RETURNS_PER_BATTERY_DAY = Fraction(1, 4)
CAPACITY_KWH = 60
ORACLE_BUDGET = 2_000  # start vectors; larger searches are not cross-checked by the oracle


class CapExceeded(BaseException):
    """Raised by the SIGALRM handler when a capped call runs past its cap.

    A BaseException, so that no ``except Exception`` in the package can
    swallow the alarm.
    """


class HostPace:
    """How slowly the host runs Python just now, as a multiple of a reference pace.

    A core of a shared host can run the same Python 1.7 times slower for tens
    of seconds while other tenants are busy, and those phases last about as
    long as a run.  So a fixed chunk of pure-Python work (Fraction
    arithmetic and dict updates, like the solver's, and none of swapsched's
    code) runs just before every op, and the pace is the median time of the
    latest ``window`` chunks over ``REFERENCE_MS``, the chunk's usual time on
    a 2-vCPU host.  The host's speed can change within a second, and one
    chunk measures it with some noise, so each workload sets a window that
    spans the last few tenths of a second of its ops.

    A cap multiplied by the pace before an op gives a capped solve the same
    work at any pace, and the op's time divided by that pace is its time at
    the reference pace.  A set-up runs a chunk every ``SETUP_EVERY`` items
    and is timed without them, at the median pace they give.
    """

    REFERENCE_MS = 1.25
    SETUP_EVERY = 4

    def __init__(self, window: int):
        self.window = window  # chunks the pace is the median of
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one chunk; returns the pace from the window it ends."""
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(i % 7, i % 5 + 1)
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        self.samples.append((time.perf_counter() - t0) * 1000)
        return self.current()

    def setup_tick(self, item_no: int) -> None:
        if item_no % self.SETUP_EVERY == 0:
            self.sample()

    def since(self, start: int) -> tuple[float, float]:
        """Seconds spent in chunks from sample ``start`` on, and the median pace they give."""
        chunks = self.samples[start:]
        return sum(chunks) / 1000, statistics.median(chunks) / self.REFERENCE_MS

    def current(self) -> float:
        """Pace from the latest window of chunks; 1 before any chunk ran."""
        recent = self.samples[-self.window:]
        return statistics.median(recent) / self.REFERENCE_MS if recent else 1.0

    def run_capped(self, cap_s: float, fn, *args):
        """``run_capped`` with a cap of ``cap_s`` seconds at the reference pace."""
        return run_capped(cap_s * self.current(), fn, *args)


def _on_alarm(signum, frame):
    raise CapExceeded()


def run_capped(cap_s: float, fn, *args):
    """Call ``fn(*args)``; raise CapExceeded once ``cap_s`` seconds of wall clock pass."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class OpRecord:
    """One timed op.  ``status`` is ok, timeout or error; ``output`` feeds the gate.

    ``wall_ms`` is the op's wall-clock time, ``pace`` the host's pace just
    before it, and ``ms`` their quotient, the op's time at the reference pace.
    """

    op_id: int
    pass_no: int
    item: str
    kind: str
    wall_ms: float
    status: str
    output: object = None
    error: str = ""
    pace: float = 1.0

    @property
    def ms(self) -> float:
        return self.wall_ms / self.pace


@dataclass
class GateResult:
    """What the verification gate found: failures by item, and one table row per item."""

    failures: dict[str, list[str]] = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    checks: int = 0

    def check(self, ok: bool, item: str, message: str) -> bool:
        self.checks += 1
        if not ok:
            self.failures.setdefault(item, []).append(message)
        return ok

    @contextlib.contextmanager
    def guard(self, item: str):
        """A check that raises fails its item instead of stopping the gate."""
        try:
            yield
        except Exception as exc:
            self.check(False, item, f"{type(exc).__name__}: {exc}")


def item_seeds(workload: str, seed: int):
    """Endless stream of per-instance seeds drawn from the run seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(2**32)


def tou_tariff(horizon: int) -> TouTariff:
    """Peak price 4 in hours 8-11 and 18-21 of every day, 1/2 elsewhere."""
    days = (horizon + 23) // 24
    peaks = []
    for d in range(days):
        peaks += [(24 * d + 8, 24 * d + 11), (24 * d + 18, 24 * d + 21)]
    return TouTariff(off_peak=Fraction(1, 2), peak=4, peak_hours=tuple(peaks))


def station_spec(batteries, chargers, charge_hours, horizon, seed, tariff, totals=None) -> ScenarioSpec:
    """Uniform demand and returns at the per-battery-day rates, unless ``totals`` gives them."""
    days = Fraction(horizon, 24)
    swaps, returns = totals or (
        round(batteries * days * SWAPS_PER_BATTERY_DAY),
        round(batteries * days * RETURNS_PER_BATTERY_DAY),
    )
    return ScenarioSpec(
        config=StationConfig(batteries, chargers, charge_hours, Fraction(CAPACITY_KWH), horizon),
        demand=UniformShape(total=swaps),
        arrivals=UniformShape(total=returns),
        tariff=tariff,
        seed=seed,
    )


def rung_name(batteries, chargers, charge_hours, horizon) -> str:
    return f"{batteries}x{chargers}x{charge_hours}x{horizon}"


def digest(grid, cost) -> str:
    """Fingerprint of a solution: the rendered grid and the exact total cost."""
    text = render_grid(grid) + format_exact(cost.total) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def solve_panel(items, pace: HostPace) -> dict[str, str]:
    """Exact-solution digest, or "timeout", for each (name, instance or spec, cap)."""
    out = {}
    for name, source, cap in items:
        instance = source if isinstance(source, Instance) else generate(source)
        try:
            out[name] = digest(*pace.run_capped(cap, solve_exact, instance))
        except CapExceeded:
            out[name] = "timeout"
    return out


def search_size(instance, api) -> tuple[int, int]:
    """Movable jobs, and the number of start vectors the oracle would enumerate."""
    jobs = api.call("solver.build_jobs", build_jobs, instance)
    movable = [j for j in jobs if j.movable]
    space = 1
    for job in movable:
        space *= max(1, len(api.call("solver.start_domain", start_domain, job, instance.config)))
    api.count("solver.movable_jobs", len(movable))
    api.count("solver.search_space_log10", math.log10(space))
    api.count("model.cells", instance.config.n_batteries * instance.config.horizon)
    return len(movable), space


def bundle_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def setup_bundles(items, workdir: Path, api, pace: HostPace) -> dict:
    """Generate each (name, instance or spec, cap), write it as a bundle and read it back.

    The ops get the instances read back from disk; whether they equal the
    generated ones is kept for the gate.
    """
    state = {"items": [], "bundle_bytes": 0, "workdir": workdir}
    for item_no, (name, source, cap) in enumerate(items):
        pace.setup_tick(item_no)
        instance = source if isinstance(source, Instance) else api.call("scenario.generate", generate, source)
        bundle = workdir / name
        api.call("scenario.save_instance", save_instance, bundle, instance)
        loaded = api.call("scenario.load_instance", load_instance, bundle)
        state["items"].append((name, loaded, cap, loaded == instance))
        state["bundle_bytes"] += bundle_bytes(bundle)
    return state


class Cli:
    """Runs ``python -m swapsched`` in a child process, and the same argv in-process when tracing."""

    def __init__(self, src: Path, api, cap_s: float):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.api = api
        self.cap_s = cap_s

    def process(self, argv: list[str]) -> subprocess.CompletedProcess:
        """One child process; on the cap it is killed and waited for, and TimeoutExpired raised."""
        cmd = [sys.executable, "-m", "swapsched", *argv]
        return self.api.call(
            "cli.process", subprocess.run, cmd, env=self.env, capture_output=True, text=True,
            timeout=self.cap_s,
        )

    def main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.api.call("cli.main", swapsched_cli.main, argv)
        return code, out.getvalue()

    def check(self, gate: GateResult, item: str, argv: list[str], expected: int) -> None:
        """Exit code of the child process, and of cli.main in traced runs, must be ``expected``."""
        try:
            code = self.process(argv).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        gate.check(code == expected, item, f"swapsched {argv[0]} exited {code}, expected {expected}")
        if self.api.enabled:
            code, _ = self.main(argv)
            gate.check(code == expected, item, f"cli.main {argv[0]} returned {code}, expected {expected}")
