"""Workload-independent harness: set-up timing, timed passes, resources.

A workload object provides:

* ``name`` and ``sizes()`` — what the manifest records;
* ``workers`` — processes a pass keeps busy at once (calibration runs
  that many copies of its kernel side by side);
* ``min_passes`` — passes a run makes however short ``--seconds`` is;
* ``job_span`` — the name of the span around one job in the rebuild;
* ``build(seed, workdir)`` — the set-up: turn the seed into inputs;
* ``prepare(inputs)`` — untimed per-pass preparation (a fresh cache
  directory), returning the pass's own inputs, and ``release(prepared)``
  to clean them up after the pass;
* ``run_pass(inputs, prepared)`` — one timed pass through the public
  API, returning a :class:`Pass`;
* ``rebuild(inputs, tracer, traced)`` — the layer-by-layer run, every
  call into a layer wrapped in a span; its outputs are the reference the
  check compares the timed passes with (``traced`` also collects the
  program's own telemetry counters where a workload reports them); the
  tracer may be a ``NullTracer``, whose spans record nothing, when the
  traced run times the same rebuild untraced;
* ``check(inputs, passes, reference)`` — number of jobs whose output is
  wrong;
* ``layers(inputs, passes, tracer, reference)`` — per-layer metrics.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import forkserver, resource_tracker
from pathlib import Path

import numpy as np

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Calibration samples taken before the first pass and after the last.
CAL_EDGE_SAMPLES = 10

#: Share of each pass's wall spent on calibration samples right after
#: it (at least one sample), so long passes get as many as short ones.
CAL_PASS_SHARE = 0.05

#: What :func:`calibrate` takes on the reference machine (2-CPU box the
#: benchmark was defined on), in wall and in CPU seconds alike: the speed
#: all times are reported at.
CAL_REF_S = 0.032

#: What a cold start of the program imports (run from the checkout root).
IMPORT_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); "
    "import repro.fleet, repro.netpriv, repro.stream"
)


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds one run of a fixed kernel takes on this
    machine right now.

    The kernel shares no code with the program (Python sorting and dict
    updates, then NumPy sorts and prefix sums), so a change to the
    program cannot move it; a slower or busier machine does.  Wall time
    also sees CPU taken by other tenants; CPU time sees only how fast
    the CPU runs the kernel while it has it.
    """
    start = time.perf_counter()
    cpu0 = time.process_time()
    totals: dict[int, int] = {}
    for key, value in sorted((i * 7919 % 10007, i) for i in range(20000)):
        totals[key] = totals.get(key, 0) + value
    x = np.random.default_rng(0).normal(size=100000)
    for _ in range(4):
        x = np.sort(np.cumsum(x) % 7.0)
    return time.perf_counter() - start, time.process_time() - cpu0


@dataclass
class Pass:
    """One timed pass: jobs it ran, jobs that failed, and its output."""

    jobs: int
    failed: int
    output: object
    wall_s: float = 0.0
    cpu_s: float = 0.0


def cpu_seconds() -> float:
    """User+sys CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload, seed: int, workdir: Path):
    """Build the inputs :data:`SETUP_REPEATS` times; (seconds each, inputs).

    The inputs of the last repetition are the ones the run uses.
    """
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.build(seed, workdir)
        times.append(time.perf_counter() - start)
    return times, inputs


def cold_import_times(root: Path) -> list[float]:
    """Time :data:`SETUP_REPEATS` cold imports of the program, each in a
    fresh interpreter (what every command-line run pays).

    Call it after :func:`peak_rss_mb` is read: the interpreters are
    children, and their peak would otherwise stand in the child term.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], cwd=root, check=True
        )
        times.append(time.perf_counter() - start)
    return times


def setup_seconds(build_s: list[float], import_s: list[float]) -> float:
    """Median over repetitions of one set-up: a cold import plus a build."""
    return statistics.median(b + i for b, i in zip(build_s, import_s))


def _calibration_worker(conn) -> None:
    while conn.recv():
        conn.send(calibrate())
    conn.close()


class Calibration:
    """Kernel samples taken on ``width`` processes side by side.

    Each CPU of the shared box runs the kernel up to ~1.5x faster or
    slower than the other, switching every few seconds; a pass whose
    workers keep every CPU busy sees their mean, which one process
    sampling whichever CPU it is on tracks only loosely.  With
    ``width`` > 1 each sample runs the kernel at once in that many
    forked helpers and keeps the mean of their times.
    """

    def __init__(self, width: int) -> None:
        self.samples: list[tuple[float, float]] = []
        self._conns, self._procs = [], []
        if width > 1:
            context = multiprocessing.get_context("fork")
            for _ in range(width):
                parent, child = context.Pipe()
                proc = context.Process(target=_calibration_worker, args=(child,))
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)

    def sample(self) -> None:
        if not self._conns:
            self.samples.append(calibrate())
            return
        for conn in self._conns:
            conn.send(True)
        times = [conn.recv() for conn in self._conns]
        self.samples.append(
            (
                statistics.mean(wall for wall, _ in times),
                statistics.mean(cpu for _, cpu in times),
            )
        )

    def close(self) -> None:
        for conn in self._conns:
            conn.send(False)
            conn.close()
        for proc in self._procs:
            proc.join()


def timed_passes(workload, inputs, seconds: float):
    """Run passes until the next one would overrun ``seconds``.

    At least ``workload.min_passes`` passes always run.  Each pass's wall
    and CPU time cover ``run_pass`` only; ``prepare`` runs before the
    clock starts.  Returns ``(passes, calibration samples)``: the kernel
    is timed before the first pass, after every pass (for
    :data:`CAL_PASS_SHARE` of its wall) and after the last.
    """
    passes: list[Pass] = []
    cal = Calibration(workload.workers)
    try:
        for _ in range(CAL_EDGE_SAMPLES):
            cal.sample()
        begin = time.perf_counter()
        while True:
            prepared = workload.prepare(inputs)
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            result = workload.run_pass(inputs, prepared)
            result.wall_s = time.perf_counter() - t0
            result.cpu_s = cpu_seconds() - cpu0
            passes.append(result)
            workload.release(prepared)
            cal_end = time.perf_counter() + CAL_PASS_SHARE * result.wall_s
            cal.sample()
            while time.perf_counter() < cal_end:
                cal.sample()
            if len(passes) < workload.min_passes:
                continue
            if time.perf_counter() - begin + result.wall_s > seconds:
                for _ in range(CAL_EDGE_SAMPLES):
                    cal.sample()
                return passes, cal.samples
    finally:
        cal.close()


def speed_factor(cal: list[tuple[float, float]]) -> float:
    """How much slower than the reference machine this run's machine was,
    in wall time.

    Machine speed here drifts by tens of percent over minutes (other
    tenants, frequency), far more than the bounds a regression must
    exceed; dividing every wall time by this factor reports it at the
    reference speed, so runs at different moments compare.
    """
    return statistics.median(wall for wall, _ in cal) / CAL_REF_S


def cpu_factor(cal: list[tuple[float, float]]) -> float:
    """:func:`speed_factor` for CPU times: the kernel's CPU seconds."""
    return statistics.median(cpu for _, cpu in cal) / CAL_REF_S


def jobs_per_s(passes: list[Pass]) -> float:
    """Median over passes of jobs completed per second of pass wall."""
    return statistics.median((p.jobs - p.failed) / p.wall_s for p in passes)


def cpu_ms_per_job(passes: list[Pass]) -> float:
    """Median over passes of CPU milliseconds per job completed."""
    return statistics.median(
        1000.0 * p.cpu_s / max(p.jobs - p.failed, 1) for p in passes
    )


def median_wall(passes: list[Pass]) -> float:
    return statistics.median(p.wall_s for p in passes)


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Pools are shut down where they are used; what outlives them are the
    helpers multiprocessing starts on its own and leaves running by
    design: the resource tracker that spawned workers and shared memory
    start, and a fork server.  Both are told to stop and are waited for.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()


def fresh_dir(parent: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def remove(path: Path | None) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


def git_rev(root: Path) -> str:
    """The checkout's commit, or ``unknown`` when it is not a git tree.

    ``--git-dir`` pins git to this checkout's own ``.git``: without it
    git would walk up and could report an enclosing repository.
    """
    git_dir = root / ".git"
    if not git_dir.exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(root: Path, workload, seed: int, seconds: float, traced: bool) -> dict:
    """Machine, code and workload stamp written into every result file."""
    import scipy

    return {
        "git_rev": git_rev(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload.name,
        "sizes": workload.sizes(),
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
    }
