"""NumPy-scalar reference implementations of the per-sample defense loops.

These are the original loop bodies of ``WaterHeaterTank.step`` (with its
scalar ``np.clip``), ``thermostat_power``, ``CHPrController.control`` and
``NILLDefense.apply`` / ``SteppedDefense.apply``, kept verbatim as
*reference semantics* for the pure-float loops that replaced them (see
``docs/PERFORMANCE.md``).

The contract is strict: given the same inputs and RNG seed, the production
loops must produce **bitwise-identical** power, temperature and visible
traces, the same final tank state, the same type and value of
``extra_energy_kwh`` (``result_digest`` pickles types), and leave the
controller's generator at the same stream position.
``tests/test_kernel_equivalence.py`` pins each production path to these
functions; ``benchmarks/bench_kernels.py`` times the pairs.
"""

from __future__ import annotations

import numpy as np

from ..home.waterheater import WaterHeaterConfig, WaterHeaterTank
from ..timeseries import PowerTrace
from .base import DefenseOutcome
from .battery import Battery


class ClipTank(WaterHeaterTank):
    """:class:`WaterHeaterTank` advanced by the original ``np.clip`` step."""

    def step(self, dt_s: float, draw_liters: float, element_power_w: float) -> float:
        """Advance one sample; returns the electrical power actually drawn."""
        cfg = self.config
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if draw_liters < 0:
            raise ValueError("draw_liters cannot be negative")
        power = float(np.clip(element_power_w, 0.0, cfg.element_power_w))
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


def thermostat_power_loop(
    draws: np.ndarray,
    period_s: float,
    config: WaterHeaterConfig | None = None,
    initial_temp_c: float | None = None,
) -> tuple[np.ndarray, WaterHeaterTank]:
    """Original NumPy-scalar loop of ``thermostat_power``."""
    config = config or WaterHeaterConfig()
    tank = ClipTank(config, initial_temp_c)
    power = np.zeros(len(draws))
    heating = False
    for i, draw in enumerate(draws):
        if tank.temp_c <= config.setpoint_c - config.deadband_c:
            heating = True
        elif tank.temp_c >= config.setpoint_c - 1e-9:
            heating = False
        power[i] = tank.step(period_s, float(draw), config.element_power_w if heating else 0.0)
    return power, tank


def chpr_control_loop(
    controller, rest_of_home: PowerTrace, draws: np.ndarray
) -> tuple[np.ndarray, WaterHeaterTank]:
    """Original NumPy-scalar loop of ``CHPrController.control``.

    Takes the controller as its first argument (so it can stand in for the
    method) and, like it, draws from ``controller._rng`` and sets
    ``controller.last_temps_c``.
    """
    self = controller
    if len(draws) != len(rest_of_home):
        raise ValueError("draws and load must have equal length")
    cfg = self.config
    period = rest_of_home.period_s
    tank = ClipTank(self.heater)
    samples_per_window = max(1, int(cfg.window_s / period))
    window_h = cfg.window_s / 3600.0

    values = rest_of_home.values
    hours = rest_of_home.hours_of_day()
    n = len(values)
    power = np.zeros(n)
    temps = np.zeros(n)

    plan_power = 0.0  # requested burst level for the current window
    plan_start = 0
    plan_end = 0
    for i in range(n):
        if i % samples_per_window == 0:
            plan_power = 0.0
            w = values[i : i + samples_per_window]
            quiet = (
                cfg.mask_start_hour <= hours[i] < cfg.mask_end_hour
                and w.mean() < cfg.target_mean_w
                and w.std() < cfg.target_std_w
            )
            headroom_kwh = (
                (self.heater.setpoint_c - cfg.headroom_margin_c - tank.temp_c)
                * self.heater.thermal_mass_j_per_k
                / 3.6e6
            )
            if quiet and headroom_kwh > 0.02:
                remaining_h = max(1.0, cfg.mask_end_hour - hours[i])
                pacing_kwh = headroom_kwh * (window_h / remaining_h) * 2.0
                target_add_w = self._rng.uniform(*cfg.mask_mean_range_w)
                energy_kwh = min(
                    target_add_w * window_h / 1000.0, pacing_kwh, headroom_kwh
                )
                lo, hi = cfg.burst_power_fraction
                level = self.heater.element_power_w * self._rng.uniform(lo, hi)
                burst_samples = max(
                    1, int(round(energy_kwh * 3.6e6 / level / period))
                )
                burst_samples = min(burst_samples, samples_per_window)
                offset = int(
                    self._rng.integers(0, samples_per_window - burst_samples + 1)
                )
                plan_power = level
                plan_start = i + offset
                plan_end = plan_start + burst_samples

        must_heat = tank.temp_c <= self.heater.min_delivery_c + cfg.comfort_margin_c
        preheat_target = min(
            self.heater.min_delivery_c + cfg.preheat_buffer_c,
            self.heater.setpoint_c - self.heater.deadband_c,
        )
        preheating = (
            any(lo <= hours[i] < hi for lo, hi in cfg.preheat_hours)
            and tank.temp_c < preheat_target
        )
        if must_heat or preheating:
            requested = self.heater.element_power_w
        elif plan_start <= i < plan_end:
            requested = plan_power
        else:
            requested = 0.0
        power[i] = tank.step(period, float(draws[i]), requested)
        temps[i] = tank.temp_c
    self.last_temps_c = temps
    return power, tank


def nill_apply_loop(defense, true_load: PowerTrace) -> DefenseOutcome:
    """Original NumPy-scalar loop of ``NILLDefense.apply``."""
    self = defense
    battery = Battery(self.battery_config)
    values = true_load.values
    period = true_load.period_s
    visible = np.empty_like(values)
    target = float(values[: max(1, int(self.window_s / period))].mean())
    demand_ema = target
    alpha = min(1.0, period / self.window_s)
    for i, demand in enumerate(values):
        demand_ema = (1.0 - alpha) * demand_ema + alpha * demand
        requested = demand - target
        delivered = battery.step(requested, period)
        visible[i] = max(demand - delivered, 0.0)
        if battery.soc <= 0.05 and target < demand_ema * 1.1:
            target = demand_ema * 1.15 + 100.0
        elif battery.soc >= 0.95 and target > demand_ema * 0.9:
            target = max(demand_ema * 0.85 - 50.0, 0.0)
    out = true_load.with_values(visible)
    return DefenseOutcome(
        visible=out,
        extra_energy_kwh=battery.losses_wh / 1000.0,
        utility_distortion=self._distortion(out, true_load),
    )


def stepped_apply_loop(defense, true_load: PowerTrace) -> DefenseOutcome:
    """Original NumPy-scalar loop of ``SteppedDefense.apply``."""
    self = defense
    battery = Battery(self.battery_config)
    values = true_load.values
    period = true_load.period_s
    visible = np.empty_like(values)
    level = float(np.ceil(values[0] / self.step_w)) * self.step_w
    for i, demand in enumerate(values):
        desired = float(np.ceil(demand / self.step_w)) * self.step_w
        if battery.soc < 0.1:
            desired += self.step_w
        elif battery.soc > 0.9:
            desired = max(desired - self.step_w, 0.0)
        if abs(level - demand) <= self.step_w and 0.1 <= battery.soc <= 0.9:
            desired = level
        level = desired
        requested = demand - level
        delivered = battery.step(requested, period)
        visible[i] = max(demand - delivered, 0.0)
    out = true_load.with_values(visible)
    return DefenseOutcome(
        visible=out,
        extra_energy_kwh=battery.losses_wh / 1000.0,
        utility_distortion=self._distortion(out, true_load),
    )
