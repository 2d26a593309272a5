"""Tests for the smart-home simulation substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.home import (
    FIG2_DEVICES,
    DrawConfig,
    HomeConfig,
    LightingAppliance,
    MeterConfig,
    NetMeter,
    OccupancyConfig,
    OccupantProfile,
    ResistiveAppliance,
    SmartMeter,
    TimeOfDayAffinity,
    UsagePattern,
    WaterHeaterConfig,
    WaterHeaterTank,
    fig2_home,
    fig6_home,
    generate_draws,
    home_a,
    home_b,
    random_home,
    simulate_home,
    simulate_occupancy,
    thermostat_power,
)
from repro.home.appliances import CyclicAppliance, MEALS
from repro.timeseries import SECONDS_PER_DAY, PowerTrace, constant


class TestTimeOfDayAffinity:
    def test_sample_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            hour = MEALS.sample_hour(rng)
            assert 0.0 <= hour < 24.0

    def test_density_peaks_where_expected(self):
        affinity = TimeOfDayAffinity(((18.0, 1.0, 1.0),))
        hours = np.asarray([3.0, 18.0])
        density = affinity.density(hours)
        assert density[1] > density[0]

    def test_density_wraps_midnight(self):
        affinity = TimeOfDayAffinity(((23.5, 1.0, 1.0),))
        density = affinity.density(np.asarray([0.5, 12.0]))
        assert density[0] > density[1]

    def test_invalid_peak_rejected(self):
        with pytest.raises(ValueError):
            TimeOfDayAffinity(((25.0, 1.0, 1.0),))


class TestOccupancy:
    def test_shape_and_period(self):
        occ = simulate_occupancy(OccupancyConfig(), 5, 60.0, rng=0)
        assert len(occ) == 5 * SECONDS_PER_DAY // 60
        assert occ.period_s == 60.0

    def test_nights_mostly_occupied(self):
        occ = simulate_occupancy(
            OccupancyConfig(vacation_probability_per_day=0.0), 20, 60.0, rng=1
        )
        hours = (occ.times() % SECONDS_PER_DAY) / 3600.0
        night = occ.values[(hours >= 1.0) & (hours < 5.0)]
        assert night.mean() > 0.95

    def test_workday_middays_mostly_empty(self):
        config = OccupancyConfig(
            occupants=(OccupantProfile(workday_probability=1.0),),
            vacation_probability_per_day=0.0,
        )
        occ = simulate_occupancy(config, 20, 60.0, rng=2)
        hours = (occ.times() % SECONDS_PER_DAY) / 3600.0
        midday = occ.values[(hours >= 11.0) & (hours < 15.0)]
        assert midday.mean() < 0.2

    def test_more_occupants_more_occupancy(self):
        one = simulate_occupancy(
            OccupancyConfig(occupants=(OccupantProfile(),)), 15, 60.0, rng=3
        )
        three = simulate_occupancy(
            OccupancyConfig(occupants=(OccupantProfile(),) * 3), 15, 60.0, rng=3
        )
        assert three.fraction_true() >= one.fraction_true()

    def test_deterministic_given_seed(self):
        a = simulate_occupancy(OccupancyConfig(), 3, 60.0, rng=7)
        b = simulate_occupancy(OccupancyConfig(), 3, 60.0, rng=7)
        assert np.array_equal(a.values, b.values)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            OccupantProfile(leave_hour=10.0, return_hour=9.0)


class TestAppliances:
    @staticmethod
    def always_home(n_days=3, period_s=60.0):
        from repro.timeseries import BinaryTrace

        n = int(n_days * SECONDS_PER_DAY / period_s)
        return BinaryTrace(np.ones(n, dtype=int), period_s)

    @staticmethod
    def never_home(n_days=3, period_s=60.0):
        from repro.timeseries import BinaryTrace

        n = int(n_days * SECONDS_PER_DAY / period_s)
        return BinaryTrace(np.zeros(n, dtype=int), period_s)

    def test_cyclic_runs_regardless_of_occupancy(self):
        fridge = CyclicAppliance("fridge", 150.0, 15.0, 30.0)
        rng = np.random.default_rng(0)
        trace = fridge.simulate(self.never_home(), rng)
        assert trace.energy_kwh() > 0.5  # runs while nobody is home

    def test_cyclic_duty_cycle_roughly_matches(self):
        fridge = CyclicAppliance("fridge", 150.0, 15.0, 30.0, jitter=0.0, noise_w=0.0)
        trace = fridge.simulate(self.always_home(10), np.random.default_rng(1))
        on_fraction = (trace.values > 1.0).mean()
        assert on_fraction == pytest.approx(1 / 3, abs=0.05)

    def test_interactive_never_runs_when_empty(self):
        toaster = ResistiveAppliance(
            "toaster", UsagePattern(3.0, (2.0, 4.0)), power_w=1000.0
        )
        trace = toaster.simulate(self.never_home(), np.random.default_rng(2))
        assert trace.max() == 0.0

    def test_interactive_runs_when_home(self):
        toaster = ResistiveAppliance(
            "toaster", UsagePattern(5.0, (2.0, 4.0)), power_w=1000.0
        )
        trace = toaster.simulate(self.always_home(10), np.random.default_rng(3))
        assert trace.max() > 900.0

    def test_lighting_zero_when_empty(self):
        lights = LightingAppliance()
        trace = lights.simulate(self.never_home(), np.random.default_rng(4))
        assert trace.max() == 0.0

    def test_lighting_evening_exceeds_midday(self):
        lights = LightingAppliance(max_power_w=300.0)
        trace = lights.simulate(self.always_home(10), np.random.default_rng(5))
        hours = (trace.times() % SECONDS_PER_DAY) / 3600.0
        evening = trace.values[(hours >= 20.0) & (hours < 23.0)].mean()
        midday = trace.values[(hours >= 12.0) & (hours < 15.0)].mean()
        assert evening > midday

    def test_power_never_negative(self):
        for config in (home_a(), home_b(), fig2_home()):
            sim = simulate_home(config, 2, rng=6)
            assert sim.total.min() >= 0.0
            assert sim.metered.min() >= 0.0


class TestWaterHeater:
    def test_draws_only_when_occupied(self):
        occ = TestAppliances.never_home(5)
        draws = generate_draws(occ, np.random.default_rng(0))
        assert draws.sum() == 0.0

    def test_thermostat_maintains_comfort(self):
        occ = TestAppliances.always_home(7)
        draws = generate_draws(occ, np.random.default_rng(1))
        power, tank = thermostat_power(draws, 60.0)
        assert tank.comfort_violation_fraction < 0.01
        assert power.max() <= WaterHeaterConfig().element_power_w + 1e-9

    def test_energy_balance_plausible(self):
        # heating the daily draw volume from inlet to setpoint bounds energy below
        occ = TestAppliances.always_home(7)
        draws = generate_draws(occ, np.random.default_rng(2))
        power, _ = thermostat_power(draws, 60.0)
        electrical_kwh = power.sum() * 60.0 / 3.6e6
        cfg = WaterHeaterConfig()
        thermal_kwh = draws.sum() * 4186.0 * (cfg.setpoint_c - cfg.inlet_c) / 3.6e6
        assert electrical_kwh >= 0.9 * thermal_kwh  # heat delivered + losses

    def test_tank_cools_without_heating(self):
        tank = WaterHeaterTank(WaterHeaterConfig())
        t0 = tank.temp_c
        for _ in range(600):
            tank.step(60.0, 0.2, 0.0)
        assert tank.temp_c < t0

    @pytest.mark.parametrize("draw", [float("nan"), -1.0])
    def test_tank_rejects_bad_draw(self, draw):
        # NaN used to pass the ``< 0`` check and count as "no draw"
        tank = WaterHeaterTank(WaterHeaterConfig())
        with pytest.raises(ValueError, match="draw_liters"):
            tank.step(60.0, draw, 0.0)

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), -float("inf")])
    def test_tank_rejects_non_finite_power(self, power):
        # NaN power used to poison temp_c for the rest of the run
        tank = WaterHeaterTank(WaterHeaterConfig())
        with pytest.raises(ValueError, match="element_power_w"):
            tank.step(60.0, 0.0, power)
        assert tank.temp_c == WaterHeaterConfig().setpoint_c
        assert tank.samples == 0

    def test_element_respects_setpoint_ceiling(self):
        cfg = WaterHeaterConfig()
        tank = WaterHeaterTank(cfg, initial_temp_c=cfg.setpoint_c)
        drawn = tank.step(60.0, 0.0, cfg.element_power_w)
        assert drawn == pytest.approx(0.0, abs=cfg.standby_loss_w_per_k * 40)
        assert tank.temp_c <= cfg.setpoint_c + 1e-9

    def test_relay_element_rounds_up(self):
        cfg = WaterHeaterConfig(modulating=False)
        tank = WaterHeaterTank(cfg, initial_temp_c=40.0)
        drawn = tank.step(60.0, 0.0, 1000.0)  # ask for partial power
        assert drawn == pytest.approx(cfg.element_power_w)

    def test_modulating_element_honors_partial(self):
        cfg = WaterHeaterConfig(modulating=True)
        tank = WaterHeaterTank(cfg, initial_temp_c=40.0)
        drawn = tank.step(60.0, 0.0, 1000.0)
        assert drawn == pytest.approx(1000.0)


class TestMeter:
    def test_resamples_to_reporting_period(self):
        trace = constant(500.0, 600, 60.0)
        metered = SmartMeter(MeterConfig(period_s=300.0, noise_std_w=0.0)).observe(trace, 0)
        assert metered.period_s == 300.0
        assert metered.values[0] == pytest.approx(500.0)

    def test_noise_added(self):
        trace = constant(500.0, 1000, 60.0)
        metered = SmartMeter(MeterConfig(noise_std_w=20.0, quantum_w=0.0)).observe(trace, 1)
        assert 10.0 < metered.values.std() < 30.0

    def test_quantization(self):
        trace = constant(503.3, 10, 60.0)
        metered = SmartMeter(MeterConfig(noise_std_w=0.0, quantum_w=10.0)).observe(trace, 2)
        assert np.all(metered.values % 10.0 == 0.0)

    def test_finer_than_simulation_rejected(self):
        trace = constant(1.0, 10, 60.0)
        with pytest.raises(ValueError):
            SmartMeter(MeterConfig(period_s=1.0)).observe(trace, 3)

    def test_net_meter_can_go_negative(self):
        cons = constant(200.0, 60, 60.0)
        gen = constant(1500.0, 60, 60.0)
        net = NetMeter(MeterConfig(noise_std_w=0.0)).observe_net(cons, gen, 4)
        assert net.values.mean() < 0.0


class TestHousehold:
    def test_total_is_sum_of_appliances(self):
        sim = simulate_home(home_a(), 2, rng=0)
        summed = sum(t.values for t in sim.appliance_traces.values())
        assert np.allclose(summed, sim.total.values)

    def test_deterministic_given_seed(self):
        a = simulate_home(home_b(), 2, rng=42)
        b = simulate_home(home_b(), 2, rng=42)
        assert np.array_equal(a.metered.values, b.metered.values)

    def test_different_seeds_differ(self):
        a = simulate_home(home_b(), 2, rng=1)
        b = simulate_home(home_b(), 2, rng=2)
        assert not np.array_equal(a.metered.values, b.metered.values)

    def test_fig2_home_has_target_devices(self):
        sim = simulate_home(fig2_home(), 2, rng=3)
        for device in FIG2_DEVICES:
            assert device in sim.appliance_traces

    def test_fig6_home_has_water_heater(self):
        sim = simulate_home(fig6_home(), 3, rng=4)
        assert "water_heater" in sim.appliance_traces
        assert sim.hot_water_draws is not None
        assert sim.hot_water_draws.sum() > 0.0

    def test_aggregate_without(self):
        sim = simulate_home(home_a(), 2, rng=5)
        rest = sim.aggregate_without("fridge")
        assert np.allclose(
            rest.values + sim.appliance_traces["fridge"].values, sim.total.values
        )
        with pytest.raises(KeyError):
            sim.aggregate_without("spaceship")

    def test_occupied_periods_are_busier(self):
        sim = simulate_home(home_b(), 7, rng=6)
        occ = sim.metered_occupancy().values
        metered = sim.metered.values
        assert metered[occ == 1].mean() > 1.5 * metered[occ == 0].mean()

    def test_duplicate_appliance_names_rejected(self):
        fridge = CyclicAppliance("fridge", 150.0, 15.0, 30.0)
        with pytest.raises(ValueError):
            HomeConfig(name="bad", appliances=(fridge, fridge))

    def test_random_home_valid(self):
        for seed in range(5):
            sim = simulate_home(random_home(seed), 2, rng=seed)
            assert sim.total.min() >= 0.0
            assert len(sim.appliance_traces) >= 3


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_home_simulation_invariants_property(seed):
    """Any seed yields non-negative power and a valid occupancy fraction."""
    sim = simulate_home(home_a(), 1, rng=seed)
    assert sim.total.min() >= 0.0
    assert 0.0 <= sim.occupancy.fraction_true() <= 1.0
