"""The declarative knob grid shared by the energy and netpriv sweeps.

Both sweeps dial knob-mapped defenses: a :class:`Grid` declares
``defenses`` × ``settings`` × ``seeds``, validates them once against its
domain's knob registry, and expands them into :class:`Cell`\\ s.
Subclasses add only the population each cell runs over —
:class:`~repro.fleet.sweep.SweepGrid` a fleet of homes,
:class:`~repro.fleet.netpriv.NetprivGrid` a set of simulated LANs.

**Shards are a pure function of the cell list.**  ``--shard i/n`` takes
cells ``i-1::n`` of the canonical cell ordering (:meth:`Grid.cells`), so
*n* machines sharing nothing but the grid partition the work exactly,
and any shard can be re-run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

from ..core.knob import knob_defense_name, knob_mapping_names


class SweepError(ValueError):
    """A malformed grid, shard, or grid file."""


@dataclass(frozen=True)
class Cell:
    """One point of a grid: a dialed defense over one seeded population."""

    defense: str
    setting: float
    seed: int

    @property
    def knob_name(self) -> str:
        """The ``name@setting`` string the jobs (and the cache) see."""
        return knob_defense_name(self.defense, self.setting)

    def label(self) -> str:
        return f"{self.knob_name} seed={self.seed}"


@dataclass(frozen=True)
class Grid:
    """Which dials, which positions, which seeds — validated here, once,
    not per job deep inside a worker or a shard on another machine."""

    defenses: tuple[str, ...]
    settings: tuple[float, ...]
    seeds: tuple[int, ...] = (0,)

    #: knob-registry domain the defenses must have mappings in
    KNOB_DOMAIN: ClassVar[str] = "energy"

    def __post_init__(self) -> None:
        if not self.defenses:
            raise SweepError("grid needs at least one defense")
        if not self.settings:
            raise SweepError("grid needs at least one knob setting")
        if not self.seeds:
            raise SweepError("grid needs at least one seed")
        available = knob_mapping_names(self.KNOB_DOMAIN)
        unknown = set(self.defenses) - set(available)
        if unknown:
            raise SweepError(
                f"no knob mapping for: {sorted(unknown)} in domain "
                f"{self.KNOB_DOMAIN!r}; available: {available}"
            )
        for s in self.settings:
            if not 0.0 <= s <= 1.0:
                raise SweepError(f"knob setting {s!r} outside [0, 1]")
        if len(set(self.settings)) != len(self.settings):
            raise SweepError("duplicate knob settings in grid")
        if len(set(self.defenses)) != len(self.defenses):
            raise SweepError("duplicate defenses in grid")
        if len(set(self.seeds)) != len(self.seeds):
            raise SweepError("duplicate seeds in grid")

    @property
    def n_cells(self) -> int:
        return len(self.defenses) * len(self.settings) * len(self.seeds)

    def cells(self) -> list[Cell]:
        """All cells in the canonical (defense, sorted setting, seed) order.

        The order is part of the sweep's contract: shards slice it, so
        it must be identical on every machine given the same grid.
        """
        return [
            Cell(defense=d, setting=float(s), seed=int(seed))
            for d in self.defenses
            for s in sorted(self.settings)
            for seed in self.seeds
        ]

    def as_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc


def parse_shard(text: str) -> tuple[int, int]:
    """Parse and validate a ``--shard i/n`` argument."""
    head, sep, tail = text.partition("/")
    if not sep:
        raise SweepError(f"shard must look like i/n, got {text!r}")
    try:
        index, total = int(head), int(tail)
    except ValueError:
        raise SweepError(f"shard must be two integers i/n, got {text!r}") from None
    if total < 1 or not 1 <= index <= total:
        raise SweepError(
            f"shard index must satisfy 1 <= i <= n, got {index}/{total}"
        )
    return index, total


def shard_cells(cells: Sequence[Cell], shard: tuple[int, int]) -> list[Cell]:
    """Round-robin slice of the canonical cell order for shard ``(i, n)``.

    Round-robin (``cells[i-1::n]``) rather than contiguous blocks so each
    shard spans the whole grid — expensive settings spread evenly instead
    of landing on one machine.
    """
    index, total = shard
    if total < 1 or not 1 <= index <= total:
        raise SweepError(
            f"shard index must satisfy 1 <= i <= n, got {index}/{total}"
        )
    return list(cells[index - 1 :: total])
