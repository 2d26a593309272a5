"""Fleet-scale evaluation: many homes, worker processes, cached cells.

The paper's threat model is utility-scale — an adversary (or an auditing
utility) observes *populations* of homes, not one household.  This package
turns the single-home pipeline into a population instrument:

- :class:`FleetSpec` — declare N homes from the preset registry with
  deterministic per-home ``SeedSequence.spawn`` seeding;
- :class:`FleetRunner` / :func:`run_fleet` — *supervised* fan-out over a
  process pool: per-home failure isolation, bounded retries with
  backoff, per-job wall-clock timeouts, pool rebuild after worker
  crashes, streaming writes to an on-disk result cache, and a serial
  fallback for pool-less platforms;
- :class:`FleetReport` — per-defense population distributions
  (mean/median/p10/p90 of worst-case MCC, utility, energy cost) plus
  the sweep's :class:`HomeFailure` records;
- :mod:`repro.fleet.backends` — pluggable executor backends
  (``--backend serial|process|shmem|batched``): shared-memory trace
  passing and across-home batched simulation, every backend pinned
  bit-identical to the others by the backend-parity test matrix;
- :mod:`repro.fleet.faults` — deterministic fault injection (worker
  errors, crashes, hangs) so the recovery paths above are *tested*, not
  trusted;
- :class:`Grid` — the (defense × knob setting × seed) knob grid shared
  by both sweep domains, expanded into one :class:`Cell` per combination
  in a canonical order that ``--shard i/n`` slices;
- :class:`SweepGrid` / :func:`run_sweep` — the Sec. III-E energy sweep:
  each cell one fleet run of a single ``name@setting`` parametrized
  defense, resumable through the same cache;
- :class:`NetprivGrid` / :func:`run_netpriv_sweep` — the Sec. IV traffic
  arms race: each cell ``n_lans`` LAN battles under the same supervisor;
- :class:`FrontierReport` — either sweep reduced to privacy-utility
  frontier points under its domain's :class:`FrontierSchema`
  (:data:`SWEEP_FRONTIER` / :data:`NETPRIV_FRONTIER`), with JSON/CSV/table
  exports and the running-min monotone gate;
- telemetry (``telemetry=True`` / ``repro fleet --telemetry``) — per-stage
  counter/timer snapshots from :mod:`repro.obs`, captured inside each
  worker, merged into fleet totals on :class:`FleetResult` and surfaced in
  :class:`FleetReport`; ``profile_dir=`` dumps per-job cProfile stats.

Quickstart::

    from repro.fleet import FleetSpec, run_fleet, FleetReport
    result = run_fleet(FleetSpec(n_homes=50, days=3, seed=0), workers=4)
    print(FleetReport.from_result(result).format_table())
"""

from .artifacts import (
    Artifact,
    ArtifactError,
    ArtifactRow,
    artifact_from_frontier,
    artifact_from_stream,
    load_artifact,
)
from .backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    HomeBlockJob,
    HomeBlockResult,
    InlinePayload,
    ShmemPayload,
    materialize_trace,
    new_run_prefix,
    pack_trace,
    partition_blocks,
    resolve_backend,
    run_home_block,
    segment_name,
    sweep_segments,
)
from .cache import CACHE_FORMAT_VERSION, CacheStats, ResultCache, job_cache_key
from .engine import (
    FLEET_DETECTORS,
    FleetResult,
    FleetRunner,
    HomeFailure,
    HomeResult,
    HomeStreamResult,
    JobsResult,
    StreamFleetResult,
    result_digest,
    run_fleet,
    run_home_job,
    run_stream_job,
    trace_digest,
)
from .faults import FAULTS_ENV, FaultInjected, FaultPlan
from .frontier import (
    NETPRIV_FRONTIER,
    SWEEP_FRONTIER,
    FrontierPoint,
    FrontierReport,
    FrontierSchema,
)
from .grid import Cell, Grid, SweepError, parse_shard, shard_cells
from .netpriv import (
    NETPRIV_LAN_CONFIGS,
    NetprivGrid,
    NetprivJob,
    NetprivJobResult,
    NetprivSweepResult,
    netpriv_lan_config,
    run_netpriv_job,
    run_netpriv_sweep,
)
from .report import (
    BASELINE,
    DefenseDistribution,
    FleetReport,
    PopulationStats,
)
from .spec import DEFAULT_FLEET_DETECTORS, FleetSpec, HomeJob
from .sweep import (
    CellResult,
    SweepGrid,
    SweepResult,
    load_grid,
    run_sweep,
)

__all__ = [
    "Artifact",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "HomeBlockJob",
    "HomeBlockResult",
    "InlinePayload",
    "ShmemPayload",
    "materialize_trace",
    "new_run_prefix",
    "pack_trace",
    "partition_blocks",
    "resolve_backend",
    "run_home_block",
    "segment_name",
    "sweep_segments",
    "ArtifactError",
    "ArtifactRow",
    "artifact_from_frontier",
    "artifact_from_stream",
    "load_artifact",
    "BASELINE",
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "Cell",
    "CellResult",
    "DEFAULT_FLEET_DETECTORS",
    "DefenseDistribution",
    "FAULTS_ENV",
    "FLEET_DETECTORS",
    "FaultInjected",
    "FaultPlan",
    "FleetReport",
    "FleetResult",
    "FleetRunner",
    "FleetSpec",
    "FrontierPoint",
    "FrontierReport",
    "FrontierSchema",
    "Grid",
    "HomeFailure",
    "HomeJob",
    "HomeResult",
    "HomeStreamResult",
    "JobsResult",
    "NETPRIV_FRONTIER",
    "NETPRIV_LAN_CONFIGS",
    "NetprivGrid",
    "NetprivJob",
    "NetprivJobResult",
    "NetprivSweepResult",
    "netpriv_lan_config",
    "run_netpriv_job",
    "run_netpriv_sweep",
    "PopulationStats",
    "ResultCache",
    "StreamFleetResult",
    "SWEEP_FRONTIER",
    "SweepError",
    "SweepGrid",
    "SweepResult",
    "job_cache_key",
    "load_grid",
    "parse_shard",
    "result_digest",
    "run_fleet",
    "run_home_job",
    "run_stream_job",
    "run_sweep",
    "shard_cells",
    "trace_digest",
]
