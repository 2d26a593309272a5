"""End-to-end experiment pipeline: home -> defense -> attacks -> scores.

The convenience layer that the examples and benchmarks share: simulate (or
accept) a home, run a set of named defenses over its metered trace, attack
every visible trace with the NIOM ensemble, and return one
:class:`TradeoffPoint` per defense (plus the undefended baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..defenses.base import DefenseOutcome
from ..home.household import HomeSimulation, simulate_home
from ..home.presets import home_b
from ..obs import TELEMETRY
from .evaluation import DEFAULT_DETECTORS, TradeoffPoint, evaluate_defense_outcome
from .registry import make_defense


@dataclass(frozen=True)
class PipelineResult:
    """Scores for the baseline and every requested defense."""

    baseline: TradeoffPoint
    defenses: dict[str, TradeoffPoint]

    def mcc_reduction(self, defense: str) -> float:
        """Factor by which the defense reduced worst-case attack MCC."""
        after = self.defenses[defense].privacy.worst_case_mcc
        before = self.baseline.privacy.worst_case_mcc
        if after <= 0:
            return float("inf") if before > 0 else 1.0
        return before / after


def evaluate_simulation(
    sim: HomeSimulation,
    defense_names: list[str] | None = None,
    rng: np.random.Generator | int | None = None,
    detectors=DEFAULT_DETECTORS,
) -> PipelineResult:
    """Score the baseline and every requested defense on one simulation.

    This is the process-safe core of :func:`run_pipeline`: a plain
    module-level function of picklable arguments (plus detector factories),
    so fleet worker processes can import and call it directly.

    Detection is memoised for the duration of the call: a visible trace
    identical to one already attacked (``identity`` reproduces the metered
    baseline, and so can a knob at setting 0) reuses its detector scores,
    under the factory contract documented on
    :func:`~repro.core.evaluation.occupancy_privacy`.
    """
    rng = np.random.default_rng(rng)
    if defense_names is None:
        from .registry import defense_names as all_names

        defense_names = all_names()

    occupancy = sim.occupancy
    metered = sim.metered
    memo: dict = {}
    baseline_outcome = DefenseOutcome(visible=metered)
    with TELEMETRY.timer("stage.attack"):
        baseline = evaluate_defense_outcome(
            "baseline", baseline_outcome, metered, occupancy, detectors, memo
        )
    results: dict[str, TradeoffPoint] = {}
    for name in defense_names:
        defense = make_defense(name)
        # per component, not per knob setting: ``noise@0.5`` times as ``noise``
        with TELEMETRY.timer("stage.defend"), TELEMETRY.timer(
            f"stage.defend.{defense.name}"
        ):
            outcome = defense.apply(metered, rng)
        with TELEMETRY.timer("stage.attack"):
            results[name] = evaluate_defense_outcome(
                name, outcome, metered, occupancy, detectors, memo
            )
    return PipelineResult(baseline=baseline, defenses=results)


def run_pipeline(
    sim: HomeSimulation | None = None,
    defense_names: list[str] | None = None,
    n_days: int = 7,
    rng: np.random.Generator | int | None = None,
    detectors=DEFAULT_DETECTORS,
) -> PipelineResult:
    """Evaluate defenses on a simulated home.

    With no arguments: simulate the Fig. 1 Home-B for a week and sweep all
    registered defenses.
    """
    rng = np.random.default_rng(rng)
    if sim is None:
        sim = simulate_home(home_b(), n_days, rng)
    return evaluate_simulation(sim, defense_names, rng, detectors)
