"""Privacy-utility frontiers for both knob-sweep domains (Sec. III-E, IV).

A sweep cell answers "what happens at *this* dial position of *this*
defense, over *this* seeded population"; the paper's Fig. 6 story is the
resulting *curve* — attack success traded against what the dial costs.
:class:`FrontierReport` reduces each cell's per-member outcomes into one
:class:`FrontierPoint` carrying population distributions of its domain's
axes, which a :class:`FrontierSchema` names:

* :data:`SWEEP_FRONTIER` (energy sweeps, over homes): ``mcc`` — worst-case
  attack MCC; ``distortion_w`` — load-profile RMSE; ``bill_error`` —
  billing energy error fraction; ``extra_kwh`` — energy the defense
  itself burned.
* :data:`NETPRIV_FRONTIER` (traffic sweeps, over LANs): naive/adaptive
  pairs of occupancy MCC and device-fingerprint accuracy — the gap
  between them *is* the arms race — plus the defense's cover bandwidth
  and added delay.

The report also knows the *shape* the knob semantics promise: turning the
dial up must not make the attack better.  :meth:`monotone_violations`
checks that per (defense, seed) series on the schema's gate axis — the
energy ``mcc``, or the *adaptive* attacker's ``adaptive_mcc`` for
traffic, since a dial that only defeats the naive attacker has bought
obscurity, not privacy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .report import PopulationStats

if TYPE_CHECKING:  # pragma: no cover — typing only
    from .grid import Cell


@dataclass(frozen=True)
class FrontierSchema:
    """One sweep domain's frontier: axes, monotone gate, export layout."""

    #: artifact kind a frontier JSON of this domain sniffs as
    kind: str
    #: population-size field of each point (``n_homes`` / ``n_lans``)
    count_key: str
    #: stat axis -> attribute path read off each member outcome
    axes: dict[str, str]
    #: axis whose mean must not rise with the dial
    gate: str
    #: derived metric -> (minuend, subtrahend) metric names
    derived: dict[str, tuple[str, str]]
    #: CSV metric columns after the shared leading five
    csv: tuple[str, ...]
    #: CSV headers that are not simply the metric name with ``.`` -> ``_``
    csv_rename: dict[str, str]
    #: table columns after defense/setting/seed: (title, metric, width, format)
    table: tuple[tuple[str, str, int, str], ...]
    #: width of the table's defense column
    defense_width: int

    @property
    def csv_header(self) -> tuple[str, ...]:
        return ("defense", "setting", "seed", self.count_key, "n_failed") + tuple(
            self.csv_rename.get(m, m.replace(".", "_")) for m in self.csv
        )


SWEEP_FRONTIER = FrontierSchema(
    kind="sweep-frontier",
    count_key="n_homes",
    axes={
        "mcc": "privacy.worst_case_mcc",
        "distortion_w": "utility.profile_rmse_w",
        "bill_error": "utility.energy_error_fraction",
        "extra_kwh": "extra_energy_kwh",
    },
    gate="mcc",
    derived={},
    csv=(
        "mcc.mean", "mcc.median", "mcc.p10", "mcc.p90",
        "distortion_w.mean", "distortion_w.median",
        "bill_error.mean", "bill_error.median",
        "extra_kwh.mean", "extra_kwh.median",
    ),
    csv_rename={},
    table=(
        ("mcc", "mcc.mean", 6, ".3f"),
        ("p90", "mcc.p90", 6, ".3f"),
        ("rmse W", "distortion_w.mean", 8, ".1f"),
        ("bill", "bill_error.mean", 6, ".3f"),
        ("kwh", "extra_kwh.mean", 7, ".2f"),
    ),
    defense_width=12,
)

NETPRIV_FRONTIER = FrontierSchema(
    kind="netpriv-frontier",
    count_key="n_lans",
    axes={
        "naive_mcc": "naive.occupancy_mcc",
        "adaptive_mcc": "adaptive.occupancy_mcc",
        "naive_fingerprint_acc": "naive.fingerprint_accuracy",
        "adaptive_fingerprint_acc": "adaptive.fingerprint_accuracy",
        "cover_mb_per_day": "cover_mb_per_day",
        "mean_added_delay_s": "mean_added_delay_s",
    },
    gate="adaptive_mcc",
    # mean occupancy-MCC the retrained attacker claws back
    derived={"adaptive_advantage": ("adaptive_mcc.mean", "naive_mcc.mean")},
    csv=(
        "naive_mcc.mean", "naive_mcc.median",
        "adaptive_mcc.mean", "adaptive_mcc.median", "adaptive_mcc.p90",
        "adaptive_advantage",
        "naive_fingerprint_acc.mean", "adaptive_fingerprint_acc.mean",
        "cover_mb_per_day.mean", "mean_added_delay_s.mean",
    ),
    csv_rename={
        "naive_fingerprint_acc.mean": "naive_fp_acc_mean",
        "adaptive_fingerprint_acc.mean": "adaptive_fp_acc_mean",
    },
    table=(
        ("naive", "naive_mcc.mean", 6, ".3f"),
        ("adapt", "adaptive_mcc.mean", 6, ".3f"),
        ("gap", "adaptive_advantage", 6, "+.3f"),
        ("fp_n", "naive_fingerprint_acc.mean", 5, ".3f"),
        ("fp_a", "adaptive_fingerprint_acc.mean", 5, ".3f"),
        ("MB/day", "cover_mb_per_day.mean", 8, ".1f"),
        ("delay", "mean_added_delay_s.mean", 7, ".1f"),
    ),
    defense_width=14,
)

#: Every frontier domain, in sniffing order: a JSON point belongs to the
#: first schema whose axes it carries.
FRONTIER_SCHEMAS = (NETPRIV_FRONTIER, SWEEP_FRONTIER)


def schema_for(row: dict) -> FrontierSchema | None:
    """The schema whose stat axes one frontier JSON point carries."""
    for schema in FRONTIER_SCHEMAS:
        if all(axis in row for axis in schema.axes):
            return schema
    return None


def derived_metrics(
    schema: FrontierSchema, metrics: dict[str, float]
) -> dict[str, float]:
    """The schema's derived metrics over a flat ``axis.stat`` mapping."""
    return {name: metrics[a] - metrics[b] for name, (a, b) in schema.derived.items()}


@dataclass(frozen=True)
class FrontierPoint:
    """One sweep cell reduced to its domain's frontier axes.

    ``stats`` maps each of the schema's axes to its population
    distribution; ``count`` is the schema's count key (``n_homes`` /
    ``n_lans``).  :meth:`metric` reads axis statistics and derived
    metrics by name.
    """

    defense: str
    setting: float
    seed: int
    count: int
    n_failed: int
    stats: dict[str, PopulationStats]
    schema: FrontierSchema

    def metric(self, name: str) -> float:
        """A dotted ``axis.stat`` value or a derived metric by name."""
        if name in self.schema.derived:
            minuend, subtrahend = self.schema.derived[name]
            return self.metric(minuend) - self.metric(subtrahend)
        axis, _, stat = name.partition(".")
        return getattr(self.stats[axis], stat)

    def as_dict(self) -> dict:
        return {
            "defense": self.defense,
            "setting": self.setting,
            "seed": self.seed,
            self.schema.count_key: self.count,
            "n_failed": self.n_failed,
            **{axis: stats.as_dict() for axis, stats in self.stats.items()},
        }


@dataclass(frozen=True)
class FrontierReport:
    """A sweep's deliverable: frontier points plus their sanity checks.

    Equality compares the points, which carry their schema; an empty
    report's schema only shapes its CSV header and table.
    """

    schema: FrontierSchema = field(compare=False)
    points: tuple[FrontierPoint, ...]

    @classmethod
    def reduce(
        cls,
        schema: FrontierSchema,
        cells: Iterable[tuple["Cell", Sequence, int]],
    ) -> "FrontierReport":
        """Reduce ``(cell, member outcomes, n_failed)`` triples to points.

        A cell with no surviving outcomes contributes no point; the
        sweep's failure report carries its post-mortem.
        """
        getters = {axis: attrgetter(path) for axis, path in schema.axes.items()}
        points = [
            FrontierPoint(
                defense=cell.defense,
                setting=cell.setting,
                seed=cell.seed,
                count=len(outcomes),
                n_failed=n_failed,
                stats={
                    axis: PopulationStats.of([get(o) for o in outcomes])
                    for axis, get in getters.items()
                },
                schema=schema,
            )
            for cell, outcomes, n_failed in cells
            if outcomes
        ]
        points.sort(key=lambda p: (p.defense, p.setting, p.seed))
        return cls(schema=schema, points=tuple(points))

    # ------------------------------------------------------------------
    # Frontier-shape checks
    # ------------------------------------------------------------------
    def monotone_violations(self, tolerance: float = 0.05) -> list[str]:
        """Knob semantics check: a higher setting must not raise the gate.

        Gate estimates are noisy (finite populations, stochastic
        defenses), so each point is compared against the *running
        minimum* of its (defense, seed) series with a tolerance, not
        against the previous point exactly.  Returns human-readable
        violation descriptions (empty = frontier is sane).
        """
        if tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        gate = self.schema.gate
        series: dict[tuple[str, int], list[FrontierPoint]] = {}
        for point in self.points:
            series.setdefault((point.defense, point.seed), []).append(point)
        violations = []
        for (defense, seed), pts in sorted(series.items()):
            running_min = float("inf")
            for point in sorted(pts, key=lambda p: p.setting):
                mean = point.stats[gate].mean
                if mean > running_min + tolerance:
                    violations.append(
                        f"{defense}@{point.setting:g} (seed {seed}): "
                        f"{gate.replace('_', ' ')} {mean:.3f} exceeds "
                        f"running min {running_min:.3f} + {tolerance:g}"
                    )
                running_min = min(running_min, mean)
        return violations

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {"points": [p.as_dict() for p in self.points]}

    def to_json(self, path: str | Path | None = None) -> str:
        doc = json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(doc + "\n")
        return doc

    @classmethod
    def from_json(cls, path: str | Path) -> "FrontierReport":
        """Round-trip a :meth:`to_json` export, sniffing its domain.

        A frontier without points (every cell failed) names no axes; it
        reads back as an empty report under :data:`SWEEP_FRONTIER`, which
        still equals the empty report of either domain.
        """
        rows = json.loads(Path(path).read_text())["points"]
        schema = schema_for(rows[0]) if rows else SWEEP_FRONTIER
        if schema is None:
            raise ValueError(f"{path}: no frontier schema matches its points")
        points = tuple(
            FrontierPoint(
                defense=row["defense"],
                setting=float(row["setting"]),
                seed=int(row["seed"]),
                count=int(row[schema.count_key]),
                n_failed=int(row["n_failed"]),
                stats={axis: PopulationStats(**row[axis]) for axis in schema.axes},
                schema=schema,
            )
            for row in rows
        )
        return cls(schema=schema, points=points)

    def csv_rows(self) -> list[list]:
        return [
            [p.defense, p.setting, p.seed, p.count, p.n_failed]
            + [p.metric(name) for name in self.schema.csv]
            for p in self.points
        ]

    def to_csv(self, path: str | Path) -> Path:
        from ..datasets.io import save_rows_csv

        path = Path(path)
        save_rows_csv(path, self.schema.csv_header, self.csv_rows())
        return path

    def format_table(self) -> str:
        """Aligned text view: one line per frontier point."""
        width = self.schema.defense_width
        header = f"{'defense':<{width}s} {'setting':>7s} {'seed':>4s}" + "".join(
            f" {title:>{w}s}" for title, _, w, _ in self.schema.table
        )
        lines = [header, "-" * len(header)]
        for p in self.points:
            lines.append(
                f"{p.defense:<{width}s} {p.setting:>7.3f} {p.seed:>4d}"
                + "".join(
                    f" {format(p.metric(metric), spec):>{w}s}"
                    for _, metric, w, spec in self.schema.table
                )
            )
        return "\n".join(lines)
