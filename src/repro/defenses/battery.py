"""Battery-based load hiding (Sec. III-B, refs. [26], [27]).

Unlike CHPr, a battery can both *absorb* and *supply* power, so it can
flatten the metered signal directly — at the cost of buying and wearing a
battery.  Two classic algorithms are implemented:

* :class:`NILLDefense` — Non-Intrusive Load Leveling (McLaughlin et al.,
  CCS'11): hold the meter at a constant target; when the battery saturates,
  step the target and continue.
* :class:`SteppedDefense` — stepping/quantization (Yang et al., CCS'12):
  the meter may only report integer multiples of a step size, so small
  appliance edges (the NILM features) vanish into the quantizer.

Both respect a physical battery model with capacity, power limits, and
round-trip efficiency, and report the extra energy burned in conversion
losses — the "high cost to install and maintain" the paper contrasts with
CHPr's free storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..timeseries import PowerTrace
from .base import DefenseOutcome, TraceDefense


@dataclass(frozen=True)
class BatteryConfig:
    """A stationary home battery."""

    capacity_wh: float = 3000.0
    max_charge_w: float = 3000.0
    max_discharge_w: float = 3000.0
    efficiency: float = 0.9  # round-trip, applied on charge
    initial_soc: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity_wh <= 0:
            raise ValueError("capacity must be positive")
        if self.max_charge_w <= 0 or self.max_discharge_w <= 0:
            raise ValueError("power limits must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ValueError("initial_soc must be in [0, 1]")


class Battery:
    """Mutable battery state; positive power = discharging to the home."""

    def __init__(self, config: BatteryConfig) -> None:
        self.config = config
        self.energy_wh = config.capacity_wh * config.initial_soc
        self.losses_wh = 0.0
        #: whether any step has charged (see :func:`_losses_kwh`)
        self.charged = False

    @property
    def soc(self) -> float:
        return self.energy_wh / self.config.capacity_wh

    def step(self, requested_w: float, dt_s: float) -> float:
        """Attempt to (dis)charge; returns the power actually delivered.

        Positive ``requested_w`` discharges (reduces metered load),
        negative charges (increases metered load).
        """
        cfg = self.config
        dt_h = dt_s / 3600.0
        if requested_w >= 0:
            power = min(requested_w, cfg.max_discharge_w, self.energy_wh / dt_h if dt_h else 0.0)
            self.energy_wh -= power * dt_h
        else:
            room_wh = cfg.capacity_wh - self.energy_wh
            power = -min(-requested_w, cfg.max_charge_w, room_wh / (cfg.efficiency * dt_h) if dt_h else 0.0)
            stored = -power * dt_h * cfg.efficiency
            self.energy_wh += stored
            self.losses_wh += -power * dt_h * (1.0 - cfg.efficiency)
            self.charged = True
        return power


def _losses_kwh(battery: Battery) -> float:
    """The battery's conversion losses in kWh, typed as they always were.

    The defenses below once stepped the battery with NumPy scalars, which
    left ``losses_wh`` an ``np.float64`` from the first charging step on
    (and a ``float`` if the battery never charged).  ``result_digest``
    hashes pickled types, so the float loops restore that type here rather
    than flip every digest that includes a battery defense.
    """
    losses = np.float64(battery.losses_wh) if battery.charged else battery.losses_wh
    return losses / 1000.0


def _ceil(x: float) -> float:
    """``np.ceil`` for a finite Python float, signed zero included.

    ``math.ceil(-0.3)`` is ``0``; ``np.ceil(-0.3)`` is ``-0.0``, and the
    sign reaches the visible trace's bytes through ``demand - level``.
    """
    return float(math.ceil(x)) or math.copysign(0.0, x)


def _empty_outcome(true_load: PowerTrace) -> DefenseOutcome:
    """No samples: nothing to hide, nothing to spend."""
    return DefenseOutcome(visible=true_load.with_values(true_load.values.copy()))


class NILLDefense(TraceDefense):
    """Non-Intrusive Load Leveling: hold the meter at a flat target.

    The target starts at the trace's trailing mean; whenever the battery
    hits empty/full the target steps up/down so the battery can recover.
    The meter sees long flat stretches punctuated by target steps — almost
    no appliance features survive.
    """

    name = "nill"

    def __init__(self, battery: BatteryConfig | None = None, window_s: float = 3600.0):
        self.battery_config = battery or BatteryConfig()
        self.window_s = window_s

    def apply(self, true_load, rng=None) -> DefenseOutcome:
        if not len(true_load):
            return _empty_outcome(true_load)
        battery = Battery(self.battery_config)
        values = true_load.values
        period = true_load.period_s
        visible = np.empty_like(values)
        target = float(values[: max(1, int(self.window_s / period))].mean())
        demand_ema = target
        alpha = min(1.0, period / self.window_s)
        for i, demand in enumerate(values.tolist()):
            demand_ema = (1.0 - alpha) * demand_ema + alpha * demand
            # positive request discharges to pull the meter down to target
            requested = demand - target
            delivered = battery.step(requested, period)
            visible[i] = max(demand - delivered, 0.0)
            # saturation: nudge the target toward the running demand level
            # so the battery recovers — gently, or the target steps
            # themselves become a bigger signal than the load they hide
            if battery.soc <= 0.05 and target < demand_ema * 1.1:
                target = demand_ema * 1.15 + 100.0
            elif battery.soc >= 0.95 and target > demand_ema * 0.9:
                target = max(demand_ema * 0.85 - 50.0, 0.0)
        out = true_load.with_values(visible)
        return DefenseOutcome(
            visible=out,
            extra_energy_kwh=_losses_kwh(battery),
            utility_distortion=self._distortion(out, true_load),
        )


class SteppedDefense(TraceDefense):
    """Stepping battery privacy: meter readings quantized to a step grid.

    The battery covers the difference between true demand and the nearest
    feasible step level at or above recent demand; readings change rarely
    and only by whole steps, which removes the edge features NILM needs
    while bounding battery throughput.
    """

    name = "stepped"

    def __init__(
        self,
        battery: BatteryConfig | None = None,
        step_w: float = 500.0,
    ) -> None:
        if step_w <= 0:
            raise ValueError("step_w must be positive")
        self.battery_config = battery or BatteryConfig()
        self.step_w = step_w

    def apply(self, true_load, rng=None) -> DefenseOutcome:
        if not len(true_load):
            return _empty_outcome(true_load)
        battery = Battery(self.battery_config)
        values = true_load.values.tolist()
        period = true_load.period_s
        visible = np.empty(len(values))
        level = _ceil(values[0] / self.step_w) * self.step_w
        for i, demand in enumerate(values):
            # choose the step level nearest demand that the battery can bridge
            desired = _ceil(demand / self.step_w) * self.step_w
            if battery.soc < 0.1:
                desired += self.step_w  # charge up while we can
            elif battery.soc > 0.9:
                desired = max(desired - self.step_w, 0.0)
            # hysteresis: keep the current level while it remains feasible
            if abs(level - demand) <= self.step_w and 0.1 <= battery.soc <= 0.9:
                desired = level
            level = desired
            requested = demand - level  # discharge if demand above level
            delivered = battery.step(requested, period)
            visible[i] = max(demand - delivered, 0.0)
        out = true_load.with_values(visible)
        return DefenseOutcome(
            visible=out,
            extra_energy_kwh=_losses_kwh(battery),
            utility_distortion=self._distortion(out, true_load),
        )
