"""Tests for all Sec. III defenses."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import ThresholdNIOM, score_occupancy_attack
from repro.defenses import (
    Battery,
    BatteryConfig,
    BillProof,
    CHPrConfig,
    CoarseningDefense,
    DPConfig,
    LaplaceReleaseDefense,
    LocalAnalyticsHub,
    NILLDefense,
    NoiseInjectionDefense,
    PedersenParams,
    PrivateMeter,
    SmoothingDefense,
    SteppedDefense,
    UtilityVerifier,
    apply_chpr,
    dp_aggregate_consumption,
)
from repro.home import fig6_home, home_b, simulate_home
from repro.timeseries import PowerTrace, constant


@pytest.fixture(scope="module")
def week_home():
    return simulate_home(home_b(), 7, rng=3)


@pytest.fixture(scope="module")
def chpr_home():
    return simulate_home(fig6_home(), 7, rng=5)


def attack_mcc(trace, occupancy):
    detector = ThresholdNIOM(window_s=3600.0)
    result = detector.detect(trace)
    return score_occupancy_attack(result.occupancy, occupancy)["mcc"]


# ---------------------------------------------------------------------------
# CHPr
# ---------------------------------------------------------------------------
class TestCHPr:
    def test_reduces_attack_mcc_substantially(self, chpr_home):
        before = attack_mcc(chpr_home.metered, chpr_home.occupancy)
        outcome = apply_chpr(chpr_home, rng=105)
        after = attack_mcc(outcome.visible, chpr_home.occupancy)
        assert before > 0.4  # the attack works on the original
        assert after < before / 2.5  # and CHPr breaks it

    def test_comfort_mostly_preserved(self, chpr_home):
        outcome = apply_chpr(chpr_home, rng=105)
        assert outcome.comfort_violation_fraction < 0.02

    def test_roughly_energy_neutral(self, chpr_home):
        outcome = apply_chpr(chpr_home, rng=105)
        baseline_kwh = chpr_home.appliance_traces["water_heater"].energy_kwh()
        assert abs(outcome.extra_energy_kwh) < 0.35 * baseline_kwh

    def test_requires_water_heater(self, week_home):
        with pytest.raises(ValueError):
            apply_chpr(week_home)

    def test_deterministic_given_rng(self, chpr_home):
        a = apply_chpr(chpr_home, rng=7).visible
        b = apply_chpr(chpr_home, rng=7).visible
        assert np.array_equal(a.values, b.values)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CHPrConfig(target_mean_w=-5.0)
        with pytest.raises(ValueError):
            CHPrConfig(mask_start_hour=10.0, mask_end_hour=9.0)


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------
class TestBattery:
    def test_soc_bounds_respected(self):
        battery = Battery(BatteryConfig(capacity_wh=100.0))
        for _ in range(500):
            battery.step(5000.0, 60.0)  # try to over-discharge
        assert battery.energy_wh >= -1e-9
        for _ in range(500):
            battery.step(-5000.0, 60.0)  # try to over-charge
        assert battery.energy_wh <= 100.0 + 1e-9

    def test_charging_incurs_losses(self):
        battery = Battery(BatteryConfig(efficiency=0.8, initial_soc=0.0))
        battery.step(-1000.0, 3600.0)
        assert battery.losses_wh > 0.0

    def test_power_limits(self):
        battery = Battery(BatteryConfig(max_discharge_w=500.0))
        assert battery.step(2000.0, 60.0) <= 500.0

    def test_nill_flattens_signal(self, week_home):
        outcome = NILLDefense(BatteryConfig(capacity_wh=4000.0)).apply(week_home.metered)
        assert outcome.visible.std() < 0.9 * week_home.metered.std()

    def test_nill_reduces_attack(self, week_home):
        before = attack_mcc(week_home.metered, week_home.occupancy)
        outcome = NILLDefense(BatteryConfig(capacity_wh=4000.0)).apply(week_home.metered)
        after = attack_mcc(outcome.visible, week_home.occupancy)
        assert after < before

    def test_bigger_battery_hides_more(self, week_home):
        small = NILLDefense(BatteryConfig(capacity_wh=500.0)).apply(week_home.metered)
        large = NILLDefense(BatteryConfig(capacity_wh=8000.0)).apply(week_home.metered)
        assert large.visible.std() <= small.visible.std()

    def test_stepped_output_quantized_mostly(self, week_home):
        defense = SteppedDefense(BatteryConfig(capacity_wh=4000.0), step_w=500.0)
        outcome = defense.apply(week_home.metered)
        on_grid = np.abs(outcome.visible.values % 500.0)
        on_grid = np.minimum(on_grid, 500.0 - on_grid)
        # most samples sit on the step grid (battery saturation breaks some)
        assert (on_grid < 1.0).mean() > 0.5

    def test_visible_never_negative(self, week_home):
        for defense in (NILLDefense(), SteppedDefense()):
            assert defense.apply(week_home.metered).visible.min() >= 0.0

    @pytest.mark.parametrize("defense", [NILLDefense(), SteppedDefense()],
                             ids=["nill", "stepped"])
    def test_empty_trace_gives_empty_outcome(self, defense):
        # stepped used to raise IndexError; NILL warned about an empty mean
        empty = PowerTrace(np.array([]), 60.0, start_s=120.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = defense.apply(empty)
        assert len(outcome.visible) == 0
        assert outcome.visible.period_s == 60.0
        assert outcome.visible.start_s == 120.0
        assert outcome.extra_energy_kwh == 0.0
        assert outcome.utility_distortion == 0.0


# ---------------------------------------------------------------------------
# Differential privacy
# ---------------------------------------------------------------------------
class TestDP:
    def test_low_epsilon_destroys_attack(self, week_home):
        outcome = LaplaceReleaseDefense(DPConfig(epsilon=0.5)).apply(week_home.metered, rng=1)
        after = attack_mcc(outcome.visible, week_home.occupancy)
        assert abs(after) < 0.25

    def test_high_epsilon_preserves_energy(self, week_home):
        outcome = LaplaceReleaseDefense(DPConfig(epsilon=50.0)).apply(week_home.metered, rng=2)
        assert outcome.visible.energy_kwh() == pytest.approx(
            week_home.metered.energy_kwh(), rel=0.1
        )

    def test_noise_scale(self):
        config = DPConfig(epsilon=2.0, sensitivity_w=1000.0)
        assert config.noise_scale_w == 500.0

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            DPConfig(epsilon=0.0)

    def test_aggregate_error_shrinks_with_population(self):
        rng = np.random.default_rng(0)
        homes = [
            PowerTrace(rng.uniform(0, 1000, 500), 60.0) for _ in range(40)
        ]
        true_mean = np.mean([h.values for h in homes], axis=0)
        small = dp_aggregate_consumption(homes[:4], 1.0, 2000.0, rng=1)
        large = dp_aggregate_consumption(homes, 1.0, 2000.0, rng=1)
        err_small = np.abs(small.values - np.mean([h.values for h in homes[:4]], axis=0)).mean()
        err_large = np.abs(large.values - true_mean).mean()
        assert err_large < err_small


# ---------------------------------------------------------------------------
# ZKP billing
# ---------------------------------------------------------------------------
class TestZKPBilling:
    def test_bill_verifies(self):
        meter = PrivateMeter(rng=0)
        for reading in (1200, 800, 1500, 40):
            meter.record(reading)
        tariffs = [10, 10, 25, 25]  # time-of-use
        proof = meter.billing_response(tariffs)
        assert proof.bill == 10 * 1200 + 10 * 800 + 25 * 1500 + 25 * 40
        assert UtilityVerifier().verify_bill(meter.commitments, tariffs, proof)

    def test_forged_bill_rejected(self):
        meter = PrivateMeter(rng=1)
        for reading in (500, 700):
            meter.record(reading)
        proof = meter.billing_response([1, 1])
        forged = BillProof(bill=proof.bill - 100, aggregate_blinding=proof.aggregate_blinding)
        assert not UtilityVerifier().verify_bill(meter.commitments, [1, 1], forged)

    def test_commitments_hide_readings(self):
        # same reading, different blinding -> different commitments
        meter = PrivateMeter(rng=2)
        c1 = meter.record(1000)
        c2 = meter.record(1000)
        assert c1.value_c != c2.value_c

    def test_opening_proof_round_trip(self):
        meter = PrivateMeter(rng=3)
        commitment = meter.record(123)
        proof = meter.prove_opening(0)
        assert UtilityVerifier().verify_opening(commitment, proof)

    def test_opening_proof_rejects_wrong_commitment(self):
        meter = PrivateMeter(rng=4)
        c0 = meter.record(100)
        meter.record(999)
        proof_for_1 = meter.prove_opening(1)
        assert not UtilityVerifier().verify_opening(c0, proof_for_1)

    def test_record_trace(self, week_home):
        meter = PrivateMeter(rng=5)
        hourly = week_home.metered.resample(3600.0)
        commitments = meter.record_trace(hourly)
        assert len(commitments) == len(hourly)
        tariffs = [1] * len(commitments)
        proof = meter.billing_response(tariffs)
        assert UtilityVerifier().verify_bill(commitments, tariffs, proof)
        # the verified bill equals total energy (in Wh, rounding aside)
        assert proof.bill == pytest.approx(hourly.energy_kwh() * 1000.0, rel=0.01)

    def test_negative_reading_rejected(self):
        with pytest.raises(ValueError):
            PrivateMeter(rng=6).record(-1)

    def test_params_commit_is_binding_shape(self):
        params = PedersenParams()
        c = params.commit(42, 12345)
        assert c != params.commit(43, 12345)
        assert c != params.commit(42, 12346)


# ---------------------------------------------------------------------------
# Local services
# ---------------------------------------------------------------------------
class TestLocalHub:
    def test_billing_matches_raw(self, week_home):
        hub = LocalAnalyticsHub(week_home.metered)
        assert hub.bill_cents(20.0) == pytest.approx(
            week_home.metered.energy_kwh() * 20.0
        )

    def test_payload_weaker_than_raw_for_niom(self, week_home):
        hub = LocalAnalyticsHub(week_home.metered)
        payload = hub.shared_payload()
        reconstruction = payload.as_trace()
        # the tiled average profile leaks only the *typical* schedule; the
        # attack degrades sharply relative to the raw trace and can never
        # distinguish one day from another
        mcc = attack_mcc(reconstruction, week_home.occupancy)
        direct = attack_mcc(week_home.metered, week_home.occupancy)
        assert mcc < direct * 0.75
        days = np.asarray(payload.mean_daily_profile_w)
        rebuilt = reconstruction.values.reshape(-1, len(days))
        assert np.allclose(rebuilt, rebuilt[0])  # every day identical

    def test_schedule_recommendation_sane(self, week_home):
        rec = LocalAnalyticsHub(week_home.metered).recommend_schedule()
        assert 0 <= rec.setback_start_hour < rec.setback_end_hour <= 24

    def test_cloud_model_runs_locally(self, week_home):
        class CloudModel:
            def predict(self, X):
                return (X[:, 0] > X[:, 0].mean()).astype(int)

        hub = LocalAnalyticsHub(week_home.metered)
        out = hub.evaluate_cloud_model(CloudModel(), np.arange(10.0).reshape(-1, 1))
        assert out.shape == (10,)

    def test_empty_trace_rejected(self):
        with pytest.raises(Exception):
            LocalAnalyticsHub(PowerTrace(np.asarray([]), 60.0))


# ---------------------------------------------------------------------------
# Obfuscation baselines
# ---------------------------------------------------------------------------
class TestObfuscation:
    def test_smoothing_preserves_energy(self, week_home):
        outcome = SmoothingDefense(1800.0).apply(week_home.metered)
        assert outcome.visible.energy_kwh() == pytest.approx(
            week_home.metered.energy_kwh(), rel=0.02
        )

    def test_coarsening_preserves_energy(self, week_home):
        outcome = CoarseningDefense(3600.0).apply(week_home.metered)
        assert outcome.visible.energy_kwh() == pytest.approx(
            week_home.metered.energy_kwh(), rel=0.02
        )

    def test_physical_noise_only_adds(self, week_home):
        outcome = NoiseInjectionDefense(std_w=200.0, physical=True).apply(
            week_home.metered, rng=1
        )
        n = len(outcome.visible)
        assert np.all(outcome.visible.values >= week_home.metered.values[:n] - 1e-9)
        assert outcome.extra_energy_kwh > 0.0


@given(st.floats(min_value=100.0, max_value=10000.0))
@settings(max_examples=20, deadline=None)
def test_battery_energy_conservation_property(capacity):
    """Energy out <= energy in * efficiency, for any capacity."""
    battery = Battery(BatteryConfig(capacity_wh=capacity, initial_soc=0.0, efficiency=0.9))
    rng = np.random.default_rng(int(capacity))
    charged = 0.0
    discharged = 0.0
    for _ in range(200):
        request = float(rng.uniform(-2000, 2000))
        delivered = battery.step(request, 60.0)
        if delivered > 0:
            discharged += delivered * 60.0 / 3600.0
        else:
            charged += -delivered * 60.0 / 3600.0
    assert discharged <= charged * 0.9 + 1e-6
