"""Electric water heater thermal model and baseline thermostat control.

CHPr (Combined Heat and Privacy, ref. [25]; Fig. 6 of the paper) works by
re-scheduling *when* an electric water heater draws its energy, exploiting
the tank's large thermal storage.  For the defense's tradeoffs to be honest,
the tank must obey real physics: energy balance between the heating element,
hot-water draws, and standby losses, with comfort violated whenever tank
temperature falls below a minimum delivery temperature.  This module holds
that shared physics; the baseline thermostat controller lives here, and the
CHPr controller lives in :mod:`repro.defenses.chpr`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..timeseries import BinaryTrace, PowerTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR

WATER_HEAT_CAPACITY_J_PER_L_K = 4186.0
GALLON_LITERS = 3.785


@dataclass(frozen=True)
class WaterHeaterConfig:
    """Physical tank and element parameters (defaults: a 50-gallon unit)."""

    tank_liters: float = 50.0 * GALLON_LITERS
    element_power_w: float = 4500.0
    setpoint_c: float = 60.0
    deadband_c: float = 3.0
    inlet_c: float = 12.0
    ambient_c: float = 20.0
    min_delivery_c: float = 40.0
    standby_loss_w_per_k: float = 1.8
    modulating: bool = False  # True: element power is continuously variable

    def __post_init__(self) -> None:
        if self.tank_liters <= 0 or self.element_power_w <= 0:
            raise ValueError("tank size and element power must be positive")
        if self.setpoint_c <= self.inlet_c:
            raise ValueError("setpoint must exceed inlet temperature")
        if self.min_delivery_c > self.setpoint_c:
            raise ValueError("min_delivery_c cannot exceed setpoint")
        if self.deadband_c <= 0:
            raise ValueError("deadband must be positive")

    @property
    def thermal_mass_j_per_k(self) -> float:
        return self.tank_liters * WATER_HEAT_CAPACITY_J_PER_L_K

    def storable_energy_kwh(self) -> float:
        """Energy between min delivery temp and setpoint — the CHPr budget."""
        return (
            self.thermal_mass_j_per_k
            * (self.setpoint_c - self.min_delivery_c)
            / 3.6e6
        )


class WaterHeaterTank:
    """Mutable tank state advanced one sample at a time.

    A fully mixed single-node model: draws replace hot water with inlet-
    temperature water, the element adds heat, the jacket leaks heat to
    ambient.  Single-node mixing is the standard simplification in the
    demand-response literature and is conservative for CHPr (a stratified
    tank would store *more* usable heat).
    """

    def __init__(self, config: WaterHeaterConfig, initial_temp_c: float | None = None):
        self.config = config
        self.temp_c = initial_temp_c if initial_temp_c is not None else config.setpoint_c
        self.comfort_violations = 0
        self.samples = 0

    def step(self, dt_s: float, draw_liters: float, element_power_w: float) -> float:
        """Advance one sample; returns the electrical power actually drawn."""
        cfg = self.config
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if not draw_liters >= 0:
            raise ValueError(f"draw_liters must be a number >= 0, got {draw_liters!r}")
        power = float(element_power_w)
        if not math.isfinite(power):
            raise ValueError(f"element_power_w must be finite, got {power!r}")
        # a plain-float clip: a scalar np.clip costs ~3 us, more than the physics
        power = min(max(power, 0.0), cfg.element_power_w)
        if not cfg.modulating and 0.0 < power < cfg.element_power_w:
            power = cfg.element_power_w  # relay element: on is full power

        # draw mixing (hot water out, inlet water in)
        if draw_liters > 0:
            frac = min(1.0, draw_liters / cfg.tank_liters)
            self.temp_c += frac * (cfg.inlet_c - self.temp_c)

        # element heat and standby loss
        loss_w = cfg.standby_loss_w_per_k * max(0.0, self.temp_c - cfg.ambient_c)
        net_w = power - loss_w
        self.temp_c += net_w * dt_s / cfg.thermal_mass_j_per_k

        # thermostat ceiling: element cannot push past setpoint
        if self.temp_c > cfg.setpoint_c:
            overshoot_j = (self.temp_c - cfg.setpoint_c) * cfg.thermal_mass_j_per_k
            power = max(0.0, power - overshoot_j / dt_s)
            self.temp_c = cfg.setpoint_c

        self.samples += 1
        if self.temp_c < cfg.min_delivery_c:
            self.comfort_violations += 1
        return power

    @property
    def comfort_violation_fraction(self) -> float:
        return self.comfort_violations / self.samples if self.samples else 0.0


@dataclass(frozen=True)
class DrawConfig:
    """Hot-water demand behaviour.

    Defaults correspond to a small family (~160-200 liters of hot water per
    day): showers morning and evening, frequent sink draws, and occasional
    appliance draws (dishwasher, warm-wash laundry).
    """

    showers_per_occupied_day: float = 2.2
    shower_liters: tuple[float, float] = (40.0, 70.0)
    shower_minutes: float = 8.0
    sink_draws_per_occupied_day: float = 8.0
    sink_liters: tuple[float, float] = (2.0, 8.0)
    appliance_draws_per_day: float = 1.0
    appliance_liters: tuple[float, float] = (15.0, 30.0)


def generate_draws(
    occupancy: BinaryTrace,
    rng: np.random.Generator,
    config: DrawConfig | None = None,
) -> np.ndarray:
    """Per-sample hot-water draw volumes (liters) aligned with occupancy.

    Draws only happen while someone is home; showers favour mornings and
    evenings, sink draws are spread across occupied hours.
    """
    config = config or DrawConfig()
    period = occupancy.period_s
    n = len(occupancy)
    draws = np.zeros(n)
    n_days = max(1, int(np.ceil(occupancy.duration_s / SECONDS_PER_DAY)))

    def place(day: int, hour: float, liters: float, minutes: float) -> None:
        i0 = int((day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR) / period)
        if i0 >= n or not occupancy.values[i0]:
            return
        n_samples = max(1, int(round(minutes * 60.0 / period)))
        i1 = min(n, i0 + n_samples)
        draws[i0:i1] += liters / (i1 - i0)

    for day in range(n_days):
        for _ in range(rng.poisson(config.showers_per_occupied_day)):
            hour = rng.normal(7.0, 1.0) if rng.uniform() < 0.6 else rng.normal(21.0, 1.2)
            place(day, float(np.clip(hour, 0.0, 23.5)),
                  rng.uniform(*config.shower_liters), config.shower_minutes)
        for _ in range(rng.poisson(config.sink_draws_per_occupied_day)):
            place(day, rng.uniform(6.0, 23.0), rng.uniform(*config.sink_liters), 1.0)
        for _ in range(rng.poisson(config.appliance_draws_per_day)):
            place(
                day,
                rng.uniform(9.0, 21.0),
                rng.uniform(*config.appliance_liters),
                20.0,
            )
    return draws


def thermostat_power(
    draws: np.ndarray,
    period_s: float,
    config: WaterHeaterConfig | None = None,
    initial_temp_c: float | None = None,
) -> tuple[np.ndarray, WaterHeaterTank]:
    """Baseline hysteresis thermostat: heat whenever temp drops below
    (setpoint - deadband), stop at setpoint.

    Returns the per-sample electrical power and the final tank (for
    inspecting comfort).  This is the "original" water-heater load that CHPr
    replaces — note it reacts *immediately* to draws, which is exactly what
    correlates heater activity with occupancy.
    """
    config = config or WaterHeaterConfig()
    tank = WaterHeaterTank(config, initial_temp_c)
    power = np.zeros(len(draws))
    heating = False
    for i, draw in enumerate(np.asarray(draws, dtype=float).tolist()):
        if tank.temp_c <= config.setpoint_c - config.deadband_c:
            heating = True
        elif tank.temp_c >= config.setpoint_c - 1e-9:
            heating = False
        power[i] = tank.step(period_s, draw, config.element_power_w if heating else 0.0)
    return power, tank


def heater_trace(power: np.ndarray, occupancy: BinaryTrace) -> PowerTrace:
    """Wrap per-sample heater power as a trace on the occupancy clock."""
    return PowerTrace(power, occupancy.period_s, occupancy.start_s, "W")
