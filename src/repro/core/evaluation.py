"""Attack/defense evaluation: the measurements every experiment reports.

Quantifies the three axes of the paper's tradeoff (Sec. III): *privacy*
(how badly do the attacks do against the visible data), *utility* (how
much legitimate analytics are damaged), and *cost* (extra energy/comfort).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..attacks.niom import ClusterNIOM, HMMNIOM, ThresholdNIOM, score_occupancy_attack
from ..defenses.base import DefenseOutcome
from ..obs import TELEMETRY
from ..timeseries import BinaryTrace, PowerTrace

# The ensemble follows the literature's convention of assuming residents
# sleep at home (the night prior): detectors answer the daytime question,
# which is also what the paper's figures evaluate.
DEFAULT_DETECTORS = (
    ("threshold-15m", lambda: ThresholdNIOM(night_prior=True)),
    ("threshold-60m", lambda: ThresholdNIOM(window_s=3600.0, night_prior=True)),
    ("hmm", lambda: HMMNIOM(rng=0)),
)


@dataclass(frozen=True)
class PrivacyScore:
    """Attack success against one visible trace.

    ``worst_case_mcc`` is the headline number: a defense is only as strong
    as its performance against the *best* attack, so we report the maximum
    MCC over the detector ensemble (the paper's Fig. 6 numbers are MCCs of
    its occupancy attack).
    """

    per_detector_mcc: dict[str, float]
    per_detector_accuracy: dict[str, float]

    @property
    def worst_case_mcc(self) -> float:
        return max(self.per_detector_mcc.values())

    @property
    def worst_case_accuracy(self) -> float:
        return max(self.per_detector_accuracy.values())


def occupancy_privacy(
    visible: PowerTrace,
    truth: BinaryTrace,
    detectors=DEFAULT_DETECTORS,
) -> PrivacyScore:
    """Run the NIOM detector ensemble against a visible trace."""
    mccs: dict[str, float] = {}
    accs: dict[str, float] = {}
    for name, factory in detectors:
        with TELEMETRY.timer(f"stage.attack.{name}"):
            result = factory().detect(visible)
            scores = score_occupancy_attack(result.occupancy, truth)
        mccs[name] = scores["mcc"]
        accs[name] = scores["accuracy"]
    return PrivacyScore(per_detector_mcc=mccs, per_detector_accuracy=accs)


@dataclass(frozen=True)
class UtilityScore:
    """How useful the visible trace remains for legitimate analytics."""

    energy_error_fraction: float  # billing error
    peak_error_fraction: float  # demand-planning error
    profile_rmse_w: float  # load-shape analytics error

    def composite(self) -> float:
        """Single [0, 1] utility figure (1 = perfect fidelity)."""
        penalty = (
            min(self.energy_error_fraction, 1.0)
            + min(self.peak_error_fraction, 1.0)
            + min(self.profile_rmse_w / 1000.0, 1.0)
        ) / 3.0
        return 1.0 - penalty


def analytics_utility(visible: PowerTrace, truth: PowerTrace) -> UtilityScore:
    """Compare the analytics a utility actually runs on both traces."""
    true_energy = truth.energy_kwh()
    energy_err = (
        abs(visible.energy_kwh() - true_energy) / true_energy if true_energy > 0 else 0.0
    )
    # peaks compared on a common hourly clock (demand planning works hourly)
    v_hourly = visible.resample(3600.0) if visible.period_s < 3600.0 else visible
    t_hourly = truth.resample(3600.0) if truth.period_s < 3600.0 else truth
    true_peak = t_hourly.max()
    peak_err = (
        abs(v_hourly.max() - true_peak) / true_peak if true_peak > 0 else 0.0
    )

    # hourly profile RMSE on the overlapping span
    n = min(len(v_hourly), len(t_hourly))
    rmse = float(
        np.sqrt(np.mean((v_hourly.values[:n] - t_hourly.values[:n]) ** 2))
    )
    return UtilityScore(
        energy_error_fraction=float(energy_err),
        peak_error_fraction=float(peak_err),
        profile_rmse_w=rmse,
    )


@dataclass(frozen=True)
class TradeoffPoint:
    """One defense's position in the privacy/utility/cost space."""

    defense: str
    privacy: PrivacyScore
    utility: UtilityScore
    extra_energy_kwh: float
    comfort_violation_fraction: float

    def summary(self) -> dict[str, float]:
        return {
            "worst_case_mcc": self.privacy.worst_case_mcc,
            "utility": self.utility.composite(),
            "extra_energy_kwh": self.extra_energy_kwh,
            "comfort_violations": self.comfort_violation_fraction,
        }


def evaluate_defense_outcome(
    name: str,
    outcome: DefenseOutcome,
    true_load: PowerTrace,
    occupancy: BinaryTrace,
    detectors=DEFAULT_DETECTORS,
) -> TradeoffPoint:
    """Score one defense's outcome on all three axes."""
    return TradeoffPoint(
        defense=name,
        privacy=occupancy_privacy(outcome.visible, occupancy, detectors),
        utility=analytics_utility(outcome.visible, true_load),
        extra_energy_kwh=outcome.extra_energy_kwh,
        comfort_violation_fraction=outcome.comfort_violation_fraction,
    )
