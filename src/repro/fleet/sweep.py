"""Declarative privacy-knob sweeps over the fleet (the Sec. III-E grid).

:func:`~repro.core.knob.sweep_knob` dials one home along one axis; the
paper's knob story is population-scale — how does the frontier look over
a service territory, per mechanism, per dial position?  A
:class:`SweepGrid` declares that grid — a :class:`~repro.fleet.grid.Grid`
(defense × knob setting × fleet seed) over a fixed home population — and
:func:`run_sweep` executes it as a sequence of
:class:`~repro.fleet.spec.FleetSpec` runs on one fault-tolerant
:class:`~repro.fleet.engine.FleetRunner`.

Design choices that make the grid cheap and resumable:

* **One cell = one fleet run with a single parametrized defense.**  The
  cell's defense travels as the string ``name@setting``
  (:func:`~repro.core.knob.knob_defense_name`), which flows through
  pickled :class:`~repro.fleet.spec.HomeJob`\\ s and into the
  content-addressed cache key untouched — so the sweep inherits the
  fleet cache at per-(home, cell) granularity with zero cache-format
  changes.  A killed sweep, rerun over the same ``cache_dir``, replays
  finished homes from disk and executes only the remainder.
* **Shards** slice the canonical cell order (:mod:`repro.fleet.grid`).
* **Telemetry is merged per cell, then across the sweep** via
  :func:`repro.obs.merge_snapshots`; each
  :class:`CellResult` keeps its own snapshot so a cell's cost stays
  attributable.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from ..obs import TelemetrySnapshot, merge_snapshots
from .backends import DEFAULT_BACKEND
from .engine import FleetResult, FleetRunner
from .frontier import SWEEP_FRONTIER, FrontierReport
from .grid import Cell, Grid, SweepError, shard_cells
from .spec import DEFAULT_FLEET_DETECTORS, FleetSpec


@dataclass(frozen=True, kw_only=True)
class SweepGrid(Grid):
    """The energy sweep: a knob grid over one fleet population shape.

    Every cell shares the same home population shape (``n_homes``,
    ``days``, ``mix``, ``detectors``).  Within one ``seed`` the *homes*
    are identical across cells (fleet seeding is a pure function of the
    fleet seed), so cells differ only by the dialed defense — which is
    exactly what a frontier comparison needs.
    """

    n_homes: int = 20
    days: int = 1
    mix: tuple[str, ...] = ("random",)
    detectors: tuple[str, ...] = DEFAULT_FLEET_DETECTORS
    #: executor backend for every cell's fleet run (``None`` defers to
    #: the runner); excluded from cache keys like FleetSpec.backend
    backend: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        # population-shape validation is delegated to FleetSpec, once,
        # here — not per cell deep inside a shard on another machine
        self.cell_spec(Cell(self.defenses[0], self.settings[0], self.seeds[0]))

    def cell_spec(self, cell: Cell) -> FleetSpec:
        """The fleet run computing one cell."""
        return FleetSpec(
            n_homes=self.n_homes,
            days=self.days,
            seed=cell.seed,
            mix=self.mix,
            defenses=(cell.knob_name,),
            detectors=self.detectors,
            backend=self.backend,
        )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value: object) -> bool:
    return isinstance(value, str)


#: grid-file key -> (element check, what it must be, holds a list)
_GRID_KEYS = {
    "defenses": (_is_str, "a string", True),
    "settings": (_is_real, "a real number", True),
    "seeds": (_is_int, "an integer", True),
    "mix": (_is_str, "a string", True),
    "detectors": (_is_str, "a string", True),
    "n_homes": (_is_int, "an integer", False),
    "days": (_is_int, "an integer", False),
    "backend": (_is_str, "a string", False),
}


def load_grid(path: str | Path) -> SweepGrid:
    """Read a grid from a small TOML or JSON file.

    The file holds exactly the :meth:`SweepGrid.as_dict` keys (all
    optional except ``defenses`` and ``settings``); extension picks the
    parser.  Values are type-checked, never coerced: list keys need
    lists, integer keys need integers (not bools), settings need real
    numbers.  TOML needs no dependency — :mod:`tomllib` ships with the
    interpreter.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SweepError(f"cannot read grid file {path}: {exc}") from exc
    if path.suffix == ".toml":
        import tomllib

        try:
            doc = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SweepError(f"bad TOML in {path}: {exc}") from exc
    elif path.suffix == ".json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepError(f"bad JSON in {path}: {exc}") from exc
    else:
        raise SweepError(
            f"grid file {path} must end in .toml or .json"
        )
    if not isinstance(doc, dict):
        raise SweepError(f"grid file {path} must hold a table/object")
    unknown = set(doc) - set(_GRID_KEYS)
    if unknown:
        raise SweepError(
            f"unknown grid keys in {path}: {sorted(unknown)}; "
            f"known: {sorted(_GRID_KEYS)}"
        )
    missing = {"defenses", "settings"} - set(doc)
    if missing:
        raise SweepError(f"grid file {path} missing keys: {sorted(missing)}")
    kwargs: dict = {}
    for key, value in doc.items():
        check, want, is_list = _GRID_KEYS[key]
        if key == "backend" and value is None:
            kwargs[key] = None
            continue
        if is_list and not isinstance(value, list):
            raise SweepError(
                f"grid key {key!r} in {path} must be a list, got {value!r}"
            )
        for item in value if is_list else [value]:
            if not check(item):
                raise SweepError(
                    f"grid key {key!r} in {path}: {item!r} is not {want}"
                )
        if key == "settings":
            value = [float(v) for v in value]
        kwargs[key] = tuple(value) if is_list else value
    try:
        return SweepGrid(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SweepError(f"bad grid in {path}: {exc}") from exc


@dataclass(frozen=True)
class CellResult:
    """One executed cell: its fleet result plus attributable telemetry."""

    cell: Cell
    fleet: FleetResult

    @property
    def telemetry(self) -> TelemetrySnapshot | None:
        return self.fleet.telemetry


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep pass (one shard) produced."""

    grid: SweepGrid
    shard: tuple[int, int]
    cells: tuple[CellResult, ...]
    elapsed_s: float
    executed: int  # fleet jobs actually run (not replayed from cache)
    #: sweep-level totals: every cell's fleet telemetry merged; ``None``
    #: unless the runner collected telemetry
    telemetry: TelemetrySnapshot | None = None

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_failed_homes(self) -> int:
        return sum(c.fleet.n_failed for c in self.cells)

    @property
    def ok(self) -> bool:
        return all(c.fleet.ok for c in self.cells)

    def frontier(self) -> FrontierReport:
        return FrontierReport.reduce(
            SWEEP_FRONTIER,
            (
                (
                    c.cell,
                    [home.defenses[c.cell.knob_name] for home in c.fleet.homes],
                    c.fleet.n_failed,
                )
                for c in self.cells
            ),
        )


def run_sweep(
    grid: SweepGrid,
    shard: tuple[int, int] = (1, 1),
    workers: int = 1,
    cache_dir: str | Path | None = None,
    *,
    max_retries: int = 2,
    job_timeout: float | None = None,
    fail_fast: bool = False,
    telemetry: bool = False,
    profile_dir: str | Path | None = None,
    backend: str = DEFAULT_BACKEND,
    on_cell=None,
) -> SweepResult:
    """Run one shard of ``grid`` cell by cell; per-cell results accumulate.

    The other parameters configure one
    :class:`~repro.fleet.engine.FleetRunner` shared by every cell, so
    cache statistics accumulate over the whole sweep.  ``on_cell``
    (optional callable of one :class:`CellResult`) fires as each cell
    completes — the CLI's progress hook.
    """
    runner = FleetRunner(
        workers,
        cache_dir,
        max_retries=max_retries,
        job_timeout=job_timeout,
        fail_fast=fail_fast,
        telemetry=telemetry,
        profile_dir=profile_dir,
        backend=backend,
    )
    start = time.perf_counter()
    results: list[CellResult] = []
    for cell in shard_cells(grid.cells(), shard):
        result = CellResult(cell=cell, fleet=runner.run(grid.cell_spec(cell)))
        results.append(result)
        if on_cell is not None:
            on_cell(result)
    snapshots = [r.telemetry for r in results if r.telemetry is not None]
    return SweepResult(
        grid=grid,
        shard=shard,
        cells=tuple(results),
        elapsed_s=time.perf_counter() - start,
        executed=sum(r.fleet.executed for r in results),
        telemetry=merge_snapshots(snapshots) if snapshots else None,
    )
