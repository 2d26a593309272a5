"""Fleet engine scaling: worker counts, executor backends, payload channels.

The fleet engine's claims are operational rather than figure-shaped: the
same population must (a) score identically no matter how it is executed,
(b) cost nearly nothing to re-sweep thanks to the content-addressed
cache, and (c) be able to spread across worker processes.
``test_fleet_scaling`` measures all three on one 16-home fleet.

``test_fleet_backend_axis`` extends the matrix along the ``--backend``
axis introduced by the executor-backend layer
(:mod:`repro.fleet.backends`):

* homes/sec for every backend on a 200-home fleet (the ``batched``
  backend amortizes per-job dispatch; reported, not asserted — a 1-CPU
  CI box can invert any wall-clock ranking);
* the trace hand-off duel: with ``keep_traces`` every job ships its
  metered trace to the supervisor.  ``process`` pickles it through the
  result pipe — the supervisor process pays to unpickle those bytes
  *twice* (once in the pool's result plumbing, once in ``payload.recv``)
  — while ``shmem`` parks the samples in a named segment and ships a
  ~300-byte descriptor, so the supervisor pays one memcpy.  Per-job
  payload-transfer cost is therefore measured as **supervisor-process
  CPU time per job** (``time.process_time``), the quantity that caps
  how many workers one supervisor can feed.  The duel runs 200
  trace-shipping jobs through the real fleet supervisor
  (:meth:`FleetRunner.run_jobs`) at a multi-MB trace size, where the
  asserted claim holds robustly; at this fleet's ~34 KB metered traces
  the fixed segment cost (~0.3 ms of syscalls + resource-tracker
  traffic) makes pickling cheaper — the crossover sits near 1 MB/trace,
  and the fleet-scale numbers for both are recorded alongside.

Writes a machine-readable ``BENCH_fleet_backends.json`` (override the
path with ``REPRO_BENCH_FLEET_BACKENDS_OUT``).

Speedup is reported but not asserted: CI boxes (and this container) may
expose a single CPU, where a process pool legitimately loses to serial.
"""

import json
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from bench_util import once, print_table
from repro.fleet import (
    BACKENDS,
    FleetReport,
    FleetRunner,
    FleetSpec,
    materialize_trace,
    new_run_prefix,
    pack_trace,
    run_fleet,
    segment_name,
)
from repro.timeseries import PowerTrace

OUT_ENV = "REPRO_BENCH_FLEET_BACKENDS_OUT"
DEFAULT_OUT = "BENCH_fleet_backends.json"

SPEC = FleetSpec(n_homes=16, days=2, seed=11, defenses=("dp-laplace", "nill"))

#: 200 homes, baseline-only scoring, one detector: cheap enough that
#: dispatch and payload overheads are a visible fraction of the run
SCALE_SPEC = FleetSpec(
    n_homes=200, days=1, seed=17, defenses=(), detectors=("threshold-15m",)
)

#: the fleet-scale hand-off duel: 3-day metered traces (~34 KB each)
PAYLOAD_SPEC = FleetSpec(
    n_homes=200, days=3, seed=23, defenses=(), detectors=("threshold-15m",)
)

#: the supervisor-CPU duel: 200 jobs each shipping a 4 MB trace through
#: the fleet supervisor — payload transfer dominates, simulation absent
SHIP_JOBS = 200
SHIP_SAMPLES = 524_288
WORKERS = 4


@dataclass(frozen=True)
class ShipJob:
    """A supervised job that only ships one trace back (no simulation)."""

    index: int
    channel: str
    name: str = ""
    preset: str = "ship"
    attempt: int = 0


@dataclass(frozen=True)
class ShipResult:
    index: int
    payload: object
    telemetry: object = None


_SHIP_TRACE = None


def _ship_trace() -> PowerTrace:
    """The duel's 4 MB trace, built once per worker process."""
    global _SHIP_TRACE
    if _SHIP_TRACE is None:
        values = np.random.default_rng(0).normal(500.0, 100.0, SHIP_SAMPLES)
        _SHIP_TRACE = PowerTrace(values, 1.0, 0.0)
    return _SHIP_TRACE


def run_ship_job(job: ShipJob) -> ShipResult:
    trace = _ship_trace()
    if job.channel == "shmem":
        payload = pack_trace(trace, "shmem", name=job.name)
    else:
        payload = pack_trace(trace, "inline")
    return ShipResult(index=job.index, payload=payload)


def test_fleet_scaling(benchmark):
    timings: dict[str, float] = {}
    reports: dict[str, FleetReport] = {}

    def experiment():
        with tempfile.TemporaryDirectory() as cache_dir:
            t0 = time.perf_counter()
            serial = run_fleet(SPEC, workers=1)
            timings["serial"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            parallel = run_fleet(SPEC, workers=4)
            timings["parallel(4)"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            cold = run_fleet(SPEC, workers=1, cache_dir=cache_dir)
            timings["cache cold"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            warm = run_fleet(SPEC, workers=1, cache_dir=cache_dir)
            timings["cache warm"] = time.perf_counter() - t0

            reports["serial"] = FleetReport.from_result(serial)
            reports["parallel"] = FleetReport.from_result(parallel)
            reports["warm"] = FleetReport.from_result(warm)
            return warm

    warm = once(benchmark, experiment)

    rows = [
        [mode, elapsed, SPEC.n_homes / elapsed if elapsed > 0 else float("inf")]
        for mode, elapsed in timings.items()
    ]
    print_table(
        f"fleet scaling — {SPEC.n_homes} homes x {SPEC.days} days "
        f"({os.cpu_count()} cpus)",
        ["mode", "seconds", "homes/s"],
        rows,
    )
    print(f"parallel speedup: {timings['serial'] / timings['parallel(4)']:.2f}x")
    print(f"warm-cache speedup: {timings['cache cold'] / timings['cache warm']:.1f}x")
    print(f"warm-cache hit rate: {warm.cache_stats.hit_rate:.0%}")

    # correctness claims: identical reports however executed, and a warm
    # re-sweep that is all hits and much cheaper than the cold pass
    assert reports["serial"].comparable(reports["parallel"])
    assert reports["serial"].comparable(reports["warm"])
    assert warm.cache_stats.hit_rate >= 0.9
    assert timings["cache warm"] < timings["cache cold"] / 2


def _fleet_handoff(backend: str) -> dict:
    """One keep_traces fleet run; returns its payload-channel accounting."""
    cpu0 = time.process_time()
    result = run_fleet(
        PAYLOAD_SPEC, workers=WORKERS, backend=backend,
        keep_traces=True, telemetry=True,
    )
    supervisor_cpu = time.process_time() - cpu0
    assert result.ok
    timers = result.telemetry.timers
    pack = timers.get("payload.pack")
    recv = timers.get("payload.recv")
    return {
        "backend": backend,
        "elapsed_s": round(result.elapsed_s, 3),
        "supervisor_cpu_s": round(supervisor_cpu, 3),
        "pack_s": round(pack.total_s, 4) if pack else None,
        "recv_s": round(recv.total_s, 4) if recv else None,
        "payload_bytes": result.telemetry.counters.get("payload.bytes", 0),
    }


def _ship_duel(channel: str) -> dict:
    """200 trace-shipping jobs through the real fleet supervisor."""
    prefix = new_run_prefix()
    jobs = [
        ShipJob(
            index=i,
            channel=channel,
            name=segment_name(prefix, i, 0) if channel == "shmem" else "",
        )
        for i in range(SHIP_JOBS)
    ]
    landed = []

    def land(result: ShipResult) -> None:
        landed.append(materialize_trace(result.payload))

    runner = FleetRunner(workers=WORKERS)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    outcome = runner.run_jobs(jobs, run_ship_job, on_result=land)
    wall = time.perf_counter() - t0
    supervisor_cpu = time.process_time() - cpu0
    assert outcome.ok
    assert len(landed) == SHIP_JOBS
    assert all(len(t.values) == SHIP_SAMPLES for t in landed)
    return {
        "channel": channel,
        "wall_s": round(wall, 3),
        "supervisor_cpu_s": round(supervisor_cpu, 3),
        "supervisor_cpu_ms_per_job": round(supervisor_cpu / SHIP_JOBS * 1e3, 3),
        "trace_mb": round(SHIP_SAMPLES * 8 / 1e6, 1),
    }


def test_fleet_backend_axis(benchmark):
    scale: dict[str, dict] = {}
    handoff: dict[str, dict] = {}
    duel: dict[str, dict] = {}

    def experiment():
        digests = {}
        for backend in BACKENDS:
            workers = 1 if backend == "serial" else WORKERS
            t0 = time.perf_counter()
            result = run_fleet(SCALE_SPEC, workers=workers, backend=backend)
            elapsed = time.perf_counter() - t0
            assert result.ok
            digests[backend] = [h.trace_digest for h in result.homes]
            scale[backend] = {
                "workers": workers,
                "elapsed_s": round(elapsed, 3),
                "homes_per_s": round(SCALE_SPEC.n_homes / elapsed, 1),
            }
        # parity at scale: 200 homes agree bit-for-bit on every backend
        for backend in BACKENDS:
            assert digests[backend] == digests["process"], backend

        handoff["inline"] = _fleet_handoff("process")
        handoff["shmem"] = _fleet_handoff("shmem")
        duel["inline"] = _ship_duel("inline")
        duel["shmem"] = _ship_duel("shmem")
        return digests

    once(benchmark, experiment)

    print_table(
        f"backend scaling — {SCALE_SPEC.n_homes} homes x {SCALE_SPEC.days} "
        f"day(s) ({os.cpu_count()} cpus)",
        ["backend", "workers", "seconds", "homes/s"],
        [
            [name, row["workers"], row["elapsed_s"], row["homes_per_s"]]
            for name, row in scale.items()
        ],
    )
    print_table(
        f"fleet trace hand-off — {PAYLOAD_SPEC.n_homes} homes x "
        f"{PAYLOAD_SPEC.days} days, keep_traces (~34 KB/trace)",
        ["channel", "wall s", "supervisor cpu s", "pack s", "recv s", "MB"],
        [
            [
                name,
                row["elapsed_s"],
                row["supervisor_cpu_s"],
                row["pack_s"],
                row["recv_s"],
                round(row["payload_bytes"] / 1e6, 1),
            ]
            for name, row in handoff.items()
        ],
    )
    print_table(
        f"payload transfer duel — {SHIP_JOBS} jobs x "
        f"{duel['inline']['trace_mb']} MB through the fleet supervisor",
        ["channel", "wall s", "supervisor cpu s", "cpu ms/job"],
        [
            [
                name,
                row["wall_s"],
                row["supervisor_cpu_s"],
                row["supervisor_cpu_ms_per_job"],
            ]
            for name, row in duel.items()
        ],
    )
    saving = (
        duel["inline"]["supervisor_cpu_ms_per_job"]
        / duel["shmem"]["supervisor_cpu_ms_per_job"]
        if duel["shmem"]["supervisor_cpu_ms_per_job"]
        else float("inf")
    )
    print(f"shmem supervisor-cpu saving over inline pickling: {saving:.2f}x")

    doc = {
        "schema": "repro.bench_fleet_backends/1",
        "cpus": os.cpu_count(),
        "scale_spec": {
            "n_homes": SCALE_SPEC.n_homes,
            "days": SCALE_SPEC.days,
            "seed": SCALE_SPEC.seed,
        },
        "backends": scale,
        "fleet_handoff": handoff,
        "payload_duel": duel,
        "shmem_supervisor_cpu_saving": round(saving, 2),
    }
    out = os.environ.get(OUT_ENV, DEFAULT_OUT)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")

    # the acceptance claim: per-job payload transfer costs the supervisor
    # process less CPU through a named segment than through the pickled
    # result pipe (which unpickles the same bytes twice)
    assert (
        duel["shmem"]["supervisor_cpu_s"] < duel["inline"]["supervisor_cpu_s"]
    )
