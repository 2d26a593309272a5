"""Netpriv arms-race sweeps: defense × dial × seed grids of LAN battles.

The energy-side sweep (:mod:`repro.fleet.sweep`) fans privacy-knob dials
over simulated *meters*; this module fans the Sec. IV traffic defenses
over simulated *LANs*, pitting naive and adaptive attackers
(:func:`repro.netpriv.adaptive.evaluate_arms_race`) against every
``defense@setting`` dial.  The grid rides the same supervised execution
substrate — :meth:`repro.fleet.engine.FleetRunner.run_jobs` provides the
retries, timeouts, crash recovery and telemetry merging — and the
deliverable is the same :class:`~repro.fleet.frontier.FrontierReport`
under the :data:`~repro.fleet.frontier.NETPRIV_FRONTIER` schema, whose
running-min monotone gate watches the *adaptive* attack.

:class:`NetprivGrid` is a :class:`~repro.fleet.grid.Grid`, so sharding,
cell ordering, and ``name@setting`` labels are the energy sweep's own:
``repro netpriv`` and ``repro sweep`` are the same tool pointed at
different threat surfaces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..netpriv.adaptive import ArmsRaceOutcome, evaluate_arms_race
from ..netpriv.devices import DeviceType
from ..netpriv.lan import LanConfig
from ..netpriv.shaping import NETPRIV_KNOB_DOMAIN
from ..obs import TELEMETRY, TelemetrySnapshot
from .backends import DEFAULT_BACKEND
from .engine import FleetRunner, HomeFailure
from .frontier import NETPRIV_FRONTIER, FrontierReport
from .grid import Cell, Grid, SweepError, shard_cells


def _small_lan() -> LanConfig:
    return LanConfig(
        device_counts={
            DeviceType.CAMERA: 1,
            DeviceType.THERMOSTAT: 1,
            DeviceType.SMART_PLUG: 2,
            DeviceType.HUB: 1,
            DeviceType.LIGHT_BULB: 3,
            DeviceType.VOICE_ASSISTANT: 1,
        }
    )


#: Named LAN compositions a grid can reference (factories, never shared
#: instances).  ``small`` (9 devices) is the CI-smoke composition;
#: ``default`` is the 24-device home of :class:`repro.netpriv.lan.LanConfig`.
NETPRIV_LAN_CONFIGS: dict[str, Callable[[], LanConfig]] = {
    "default": LanConfig,
    "small": _small_lan,
}


def netpriv_lan_config(name: str) -> LanConfig:
    """Instantiate a named LAN composition."""
    if name not in NETPRIV_LAN_CONFIGS:
        raise SweepError(
            f"unknown LAN config {name!r}; "
            f"available: {sorted(NETPRIV_LAN_CONFIGS)}"
        )
    return NETPRIV_LAN_CONFIGS[name]()


@dataclass(frozen=True)
class NetprivJob:
    """One picklable arms-race experiment: a cell's ``lan_index``-th LAN.

    Carries only primitives; the worker derives its seed stream as
    ``SeedSequence(seed, spawn_key=(lan_index,))``, so within one grid
    ``seed`` the simulated LAN populations are *identical across cells* —
    cells differ only by the dialed defense, exactly what a frontier
    comparison needs (the same property the energy sweep gets from fleet
    seeding).
    """

    index: int
    preset: str  # failure-report label, e.g. "cover@0.5 seed=0 lan=1"
    defense: str
    setting: float
    seed: int
    lan_index: int
    days: int
    lan: str  # NETPRIV_LAN_CONFIGS name
    attempt: int = 0


def run_netpriv_job(job: NetprivJob) -> "NetprivJobResult":
    """Run one arms-race experiment.  Runs inside workers; picklable."""
    before = TELEMETRY.snapshot() if TELEMETRY.enabled else None
    with TELEMETRY.timer("stage.netpriv_job"):
        outcome = evaluate_arms_race(
            job.defense,
            job.setting,
            days=job.days,
            seed=np.random.SeedSequence(job.seed, spawn_key=(job.lan_index,)),
            lan_config=netpriv_lan_config(job.lan),
        )
    snapshot = None
    if before is not None:
        # ship the job's delta; restore the ambient registry (see
        # run_home_job for why the supervisor needs job-free counters)
        snapshot = TELEMETRY.snapshot().minus(before)
        TELEMETRY.restore(before)
    return NetprivJobResult(
        index=job.index,
        preset=job.preset,
        defense=job.defense,
        setting=job.setting,
        seed=job.seed,
        lan_index=job.lan_index,
        outcome=outcome,
        telemetry=snapshot,
    )


@dataclass(frozen=True)
class NetprivJobResult:
    """One executed arms-race job, addressable back to its grid cell."""

    index: int
    preset: str
    defense: str
    setting: float
    seed: int
    lan_index: int
    outcome: ArmsRaceOutcome
    telemetry: TelemetrySnapshot | None = None


@dataclass(frozen=True, kw_only=True)
class NetprivGrid(Grid):
    """Declarative netpriv sweep: a knob grid over simulated LANs.

    ``n_lans`` is the per-cell population size (independent LAN
    simulations sharing the cell's seed stream); ``lan`` names the
    composition in :data:`NETPRIV_LAN_CONFIGS`.
    """

    n_lans: int = 1
    days: int = 2
    lan: str = "small"

    KNOB_DOMAIN = NETPRIV_KNOB_DOMAIN

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_lans < 1:
            raise SweepError("n_lans must be >= 1")
        if self.days < 1:
            raise SweepError("days must be >= 1")
        netpriv_lan_config(self.lan)  # raises on unknown name

    @property
    def n_jobs(self) -> int:
        return self.n_cells * self.n_lans

    def jobs_for(self, cells: Sequence[Cell]) -> list[NetprivJob]:
        """Flat supervised-job list for a cell subset (e.g. one shard)."""
        jobs = []
        for i, cell in enumerate(cells):
            for lan_index in range(self.n_lans):
                jobs.append(
                    NetprivJob(
                        index=i * self.n_lans + lan_index,
                        preset=f"{cell.label()} lan={lan_index}",
                        defense=cell.defense,
                        setting=cell.setting,
                        seed=cell.seed,
                        lan_index=lan_index,
                        days=self.days,
                        lan=self.lan,
                    )
                )
        return jobs


@dataclass(frozen=True)
class NetprivSweepResult:
    """Everything one netpriv sweep pass (one shard) produced."""

    grid: NetprivGrid
    shard: tuple[int, int]
    results: tuple[NetprivJobResult, ...]
    failures: tuple[HomeFailure, ...]
    elapsed_s: float
    workers_used: int
    pool_rebuilds: int = 0
    telemetry: TelemetrySnapshot | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def frontier(self) -> FrontierReport:
        """One point per cell with surviving LANs; a cell's failed jobs
        are the failures whose label carries the cell's label."""
        grouped: dict[Cell, list[ArmsRaceOutcome]] = {}
        for r in self.results:
            grouped.setdefault(Cell(r.defense, r.setting, r.seed), []).append(r.outcome)
        return FrontierReport.reduce(
            NETPRIV_FRONTIER,
            (
                (
                    cell,
                    outcomes,
                    sum(f.preset.startswith(f"{cell.label()} ") for f in self.failures),
                )
                for cell, outcomes in grouped.items()
            ),
        )


def run_netpriv_sweep(
    grid: NetprivGrid,
    workers: int = 1,
    shard: tuple[int, int] = (1, 1),
    *,
    max_retries: int = 2,
    job_timeout: float | None = None,
    fail_fast: bool = False,
    telemetry: bool = False,
    backend: str | None = None,
    on_result: Callable[[NetprivJobResult], None] | None = None,
) -> NetprivSweepResult:
    """Run one shard of ``grid`` under the fleet supervisor.

    All of the shard's jobs go to :meth:`FleetRunner.run_jobs` as one
    batch, so worker parallelism spans cells (a cell is often a single
    LAN).  The supervision parameters configure the uncached
    :class:`~repro.fleet.engine.FleetRunner` (``backend=None`` is the
    default backend); netpriv jobs return scalar tables, not traces, so
    shmem behaves like process and batched is refused.  ``on_result``
    fires per completed job in completion order — the CLI's progress line.
    """
    start = time.perf_counter()
    jobs = grid.jobs_for(shard_cells(grid.cells(), shard))
    runner = FleetRunner(
        workers,
        cache_dir=None,
        max_retries=max_retries,
        job_timeout=job_timeout,
        fail_fast=fail_fast,
        telemetry=telemetry,
        backend=backend or DEFAULT_BACKEND,
    )
    batch = runner.run_jobs(jobs, run_netpriv_job, on_result=on_result)
    return NetprivSweepResult(
        grid=grid,
        shard=shard,
        results=tuple(batch.results),
        failures=batch.failures,
        elapsed_s=time.perf_counter() - start,
        workers_used=batch.workers_used,
        pool_rebuilds=batch.pool_rebuilds,
        telemetry=batch.telemetry,
    )


__all__ = [
    "NETPRIV_LAN_CONFIGS",
    "netpriv_lan_config",
    "NetprivJob",
    "NetprivJobResult",
    "run_netpriv_job",
    "NetprivGrid",
    "NetprivSweepResult",
    "run_netpriv_sweep",
]
