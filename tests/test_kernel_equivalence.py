"""Equivalence and performance pins for the vectorized hot-path kernels.

Every vectorized kernel in the repo ships next to its pre-vectorization
loop implementation (``repro.ml.kernels``'s ``*_loop`` functions and the
``_reference`` modules under ``repro.home``, ``repro.timeseries``,
``repro.attacks.nilm`` and ``repro.defenses``).  These tests pin each
production kernel to its reference:

* bitwise-identical where the arithmetic permits (Viterbi paths,
  joint-chain parameters, Gaussian log-densities, simulated appliance
  traces, window features, detected edges, PowerPlay candidate lists);
* documented-tolerance-identical for the scan-based E-step (posteriors to
  1e-10, EM-fitted parameters to 1e-9), whose matrix-product prefix scan
  necessarily reassociates float additions;
* RNG-stream-identical for the appliance simulators: the vectorized
  generators must consume the seeded generator exactly as the loops did,
  or every seeded trace digest and cached fleet result would silently
  change;
* bitwise- and RNG-stream-identical for the pure-float defense loops
  (water-heater thermostat, CHPr controller, NILL and stepped batteries)
  against their NumPy-scalar originals, down to signed zeros, the final
  tank state and the pickled type of ``extra_energy_kwh``.

The perf test at the bottom asserts the headline speedup (vectorized HMM
fit+decode at least 3x the loop baseline) with best-of-N timing;
``benchmarks/bench_kernels.py`` records the full speedup table.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.attacks.nilm._reference import pair_candidates_loop
from repro.attacks.nilm.powerplay import LoadKind, _pair_candidates, fig2_signatures
from repro.defenses import (
    BatteryConfig,
    CHPrConfig,
    CHPrController,
    CHPrTraceDefense,
    NILLDefense,
    SteppedDefense,
    apply_chpr,
)
from repro.defenses import chpr as chpr_module
from repro.defenses._reference import (
    ClipTank,
    chpr_control_loop,
    nill_apply_loop,
    stepped_apply_loop,
    thermostat_power_loop,
)
from repro.home import fig6_home, simulate_home
from repro.home._reference import (
    simulate_continuous_loop,
    simulate_cyclic_loop,
    simulate_lighting_loop,
)
from repro.home.appliances import (
    ContinuousAppliance,
    CyclicAppliance,
    LightingAppliance,
)
from repro.home.waterheater import (
    WaterHeaterConfig,
    WaterHeaterTank,
    thermostat_power,
)
from repro.ml import kernels
from repro.ml._reference import decode_loop, fit_loop, posterior_loop
from repro.ml.hmm import GaussianHMM
from repro.ml.fhmm import FactorialHMM, fit_appliance_chain
from repro.timeseries import BinaryTrace, Edge, PowerTrace
from repro.timeseries._reference import detect_edges_loop, window_features_loop
from repro.timeseries.events import detect_edges
from repro.timeseries.stats import window_features


def _random_hmm_inputs(seed: int, n_max: int = 800):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max))
    k = int(rng.choice([1, 2, 3, 5]))
    transmat = rng.dirichlet(np.ones(k) * 2.0, size=k)
    startprob = rng.dirichlet(np.ones(k))
    log_b = rng.normal(-10.0, 8.0, (n, k))
    b = np.exp(log_b - log_b.max(axis=1, keepdims=True))
    return startprob, transmat, b


class TestHMMKernels:
    def test_log_gaussian_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            X = rng.normal(100.0, 50.0, (n, d))
            means = rng.normal(100.0, 80.0, (k, d))
            variances = rng.uniform(1.0, 500.0, (k, d))
            a = kernels.log_gaussian(X, means, variances)
            b = kernels.log_gaussian_loop(X, means, variances)
            assert np.array_equal(a, b)

    def test_estep_scan_matches_loop(self):
        for seed in range(25):
            startprob, transmat, b = _random_hmm_inputs(seed)
            g1, x1, l1 = kernels.estep_loop(startprob, transmat, b)
            g2, x2, l2 = kernels._estep_scan(startprob, transmat, b, want_xi=True)
            assert np.all(np.isfinite(g2))
            assert np.max(np.abs(g1 - g2)) < 1e-10
            assert abs(l1 - l2) <= 1e-9 * max(1.0, abs(l1))
            if x1 is None:
                assert x2 is None or not np.any(x2)
            else:
                scale = max(1.0, float(np.abs(x1).max()))
                assert np.max(np.abs(x1 - x2)) / scale < 1e-9

    def test_estep_scan_survives_extreme_dynamic_range(self):
        # Regression for the lazy-renormalization overflow: matrices whose
        # maxima straddle many hundreds of orders of magnitude used to
        # overflow the doubling passes before the upper rescale trigger
        # was added.
        rng = np.random.default_rng(3)
        n, k = 2554, 4
        transmat = rng.dirichlet(np.ones(k) * 5.0, size=k)
        startprob = rng.dirichlet(np.ones(k))
        b = rng.uniform(1e-280, 1.0, (n, k))
        b[rng.uniform(size=n) < 0.3] *= 1e-200
        g1, x1, l1 = kernels.estep_loop(startprob, transmat, b)
        g2, x2, l2 = kernels._estep_scan(startprob, transmat, b, want_xi=True)
        assert np.all(np.isfinite(g2)) and np.all(np.isfinite(x2))
        assert np.max(np.abs(g1 - g2)) < 1e-10
        assert abs(l1 - l2) <= 1e-9 * abs(l1)

    def test_estep_dispatch_is_shape_based(self):
        startprob, transmat, b = _random_hmm_inputs(11)
        short = b[: kernels.SCAN_MIN_SAMPLES - 1]
        g1, x1, l1 = kernels.estep(startprob, transmat, short)
        g2, x2, l2 = kernels.estep_loop(startprob, transmat, short)
        assert np.array_equal(g1, g2) and l1 == l2

    def test_viterbi_bitwise_small_and_large_k(self):
        rng = np.random.default_rng(1)
        for k in (1, 2, 3, kernels.VITERBI_PRUNE_MIN_STATES, 40):
            for n in (1, 2, 50, 400):
                log_pi = np.log(rng.dirichlet(np.ones(k)) + 1e-300)
                transmat = np.full((k, k), 0.05 / max(k - 1, 1))
                np.fill_diagonal(transmat, 0.95 if k > 1 else 1.0)
                transmat /= transmat.sum(axis=1, keepdims=True)
                log_a = np.log(transmat + 1e-300)
                log_b = rng.normal(-5.0, 4.0, (n, k))
                p1 = kernels.viterbi(log_pi, log_a, log_b)
                p2 = kernels.viterbi_loop(log_pi, log_a, log_b)
                assert np.array_equal(p1, p2), (k, n)

    def test_viterbi_bitwise_on_ties(self):
        # Degenerate emissions (a NILL-defended constant trace) produce
        # exact score ties; tie-breaking must match the reference argmax.
        k, n = 20, 120
        log_pi = np.zeros(k)
        log_a = np.zeros((k, k))
        log_b = np.zeros((n, k))
        assert np.array_equal(
            kernels.viterbi(log_pi, log_a, log_b),
            kernels.viterbi_loop(log_pi, log_a, log_b),
        )

    def test_joint_chain_params_bitwise(self):
        rng = np.random.default_rng(5)
        for n_chains in (1, 2, 3, 5):
            startprobs, transmats, means, variances = [], [], [], []
            for _ in range(n_chains):
                k = int(rng.integers(2, 4))
                startprobs.append(rng.dirichlet(np.ones(k)))
                transmats.append(rng.dirichlet(np.ones(k), size=k))
                means.append(rng.uniform(0.0, 500.0, k))
                variances.append(rng.uniform(1.0, 100.0, k))
            fast = kernels.joint_chain_params(
                startprobs, transmats, means, variances, 100.0
            )
            slow = kernels.joint_chain_params_loop(
                startprobs, transmats, means, variances, 100.0
            )
            for a, b in zip(fast, slow):
                assert np.array_equal(a, b)


class TestModelEquivalence:
    """Whole-model pins: production GaussianHMM/FactorialHMM vs loop baseline."""

    @staticmethod
    def _training_signal(seed: int, n: int = 600, k: int = 2):
        rng = np.random.default_rng(seed)
        means = np.linspace(0.0, 400.0, k)
        states = np.zeros(n, dtype=int)
        for i in range(1, n):
            states[i] = states[i - 1] if rng.uniform() < 0.9 else rng.integers(k)
        return (means[states] + rng.normal(0.0, 30.0, n)).reshape(-1, 1)

    def test_fit_params_within_1e9_of_loop_baseline(self):
        for seed in range(3):
            X = self._training_signal(seed)
            vec = GaussianHMM(2, n_iter=15, rng=seed).fit(X)
            ref = fit_loop(GaussianHMM(2, n_iter=15, rng=seed), X)
            for a, b in (
                (vec.startprob_, ref.startprob_),
                (vec.transmat_, ref.transmat_),
                (vec.means_, ref.means_),
                (vec.variances_, ref.variances_),
            ):
                assert np.max(np.abs(a - b)) < 1e-9

    def test_decode_paths_identical(self):
        X = self._training_signal(7)
        model = GaussianHMM(2, n_iter=15, rng=7).fit(X)
        assert np.array_equal(model.decode(X), decode_loop(model, X))

    def test_posterior_matches_loop(self):
        X = self._training_signal(9)
        model = GaussianHMM(2, n_iter=15, rng=9).fit(X)
        assert np.max(np.abs(model.posterior(X) - posterior_loop(model, X))) < 1e-10

    def test_fhmm_decode_matches_loop_viterbi(self):
        rng = np.random.default_rng(2)
        chains = []
        for power in (150.0, 400.0, 1000.0):
            on = (rng.uniform(size=500) < 0.4).astype(float) * power
            signal = on + rng.normal(0.0, 15.0, 500)
            chains.append(fit_appliance_chain(signal, n_states=2, rng=1))
        fhmm = FactorialHMM(chains, noise_var=200.0)
        aggregate = np.abs(rng.normal(600.0, 300.0, 300))
        log_b = fhmm._emission_logprob(aggregate)
        log_pi = np.log(fhmm._startprob + 1e-300)
        log_a = np.log(fhmm._transmat + 1e-300)
        joint_ref = kernels.viterbi_loop(log_pi, log_a, log_b)
        assert np.array_equal(fhmm.decode(aggregate), fhmm._joint_states[joint_ref])


class TestApplianceStreamEquivalence:
    """Vectorized simulators: bitwise traces AND identical RNG consumption."""

    CASES = [
        (
            CyclicAppliance("fridge", on_power_w=150.0, on_minutes=15.0,
                            off_minutes=30.0, spike_power_w=600.0),
            simulate_cyclic_loop,
        ),
        (
            CyclicAppliance("freezer", on_power_w=120.0, on_minutes=12.0,
                            off_minutes=40.0, jitter=0.4),
            simulate_cyclic_loop,
        ),
        (
            ContinuousAppliance("hrv", base_power_w=80.0, boost_power_w=160.0,
                                boosts_per_day=3.0),
            simulate_continuous_loop,
        ),
        (
            LightingAppliance("lights", max_power_w=300.0),
            simulate_lighting_loop,
        ),
    ]

    @pytest.mark.parametrize("period_s", [30.0, 60.0, 300.0, 1800.0])
    def test_bitwise_and_stream_identical(self, period_s):
        n = int(2 * 86400 / period_s)
        for app, reference in self.CASES:
            for seed in range(4):
                rng = np.random.default_rng(seed)
                occ_vals = (np.random.default_rng(seed + 1).uniform(size=n) < 0.6)
                occupancy = BinaryTrace(occ_vals.astype(int), period_s)
                rng_ref = np.random.default_rng(seed)
                got = app.simulate(occupancy, rng)
                want = reference(app, occupancy, rng_ref)
                assert np.array_equal(got.values, want.values), (app.name, seed)
                # stream position must match exactly: draw once from both
                assert rng.uniform() == rng_ref.uniform(), (app.name, seed)


class TestTimeseriesEquivalence:
    @staticmethod
    def _trace(seed: int, n: int = 4000, period_s: float = 60.0) -> PowerTrace:
        rng = np.random.default_rng(seed)
        vals = np.abs(rng.normal(200.0, 150.0, n))
        vals += rng.choice([0.0, 400.0], n, p=[0.85, 0.15])
        return PowerTrace(vals, period_s, start_s=float(rng.integers(0, 3600)))

    def test_window_features_bitwise(self):
        for seed in range(5):
            trace = self._trace(seed)
            for window_s in (60.0, 300.0, 900.0, 3600.0):
                assert np.array_equal(
                    window_features(trace, window_s),
                    window_features_loop(trace, window_s),
                )

    def test_detect_edges_bitwise(self):
        for seed in range(5):
            trace = self._trace(seed, n=2000)
            for settle in (1, 2, 3, 7, 5000):
                assert detect_edges(trace, 30.0, settle) == detect_edges_loop(
                    trace, 30.0, settle
                )

    def test_powerplay_candidates_identical(self):
        rng = np.random.default_rng(4)
        period = 30.0
        idxs = np.sort(rng.choice(np.arange(1, 8000), size=300, replace=False))
        edges = []
        for idx in idxs:
            mag = float(rng.choice([120.0, 150.0, 1050.0]) * rng.uniform(0.8, 1.2))
            delta = mag if rng.uniform() < 0.5 else -mag
            edges.append(
                Edge(index=int(idx), time_s=idx * period, delta_w=delta,
                     pre_w=200.0, post_w=200.0 + delta)
            )
        used = rng.uniform(size=len(edges)) < 0.15
        for signature in fig2_signatures():
            target = signature.on_power_w + (
                signature.motor_power_w
                if signature.kind is LoadKind.COMPOUND
                else 0.0
            )
            assert _pair_candidates(edges, used.copy(), signature, target) == (
                pair_candidates_loop(edges, used.copy(), signature, target)
            )


def _defense_trace(seed: int, period_s: float, days: float = 2.0) -> PowerTrace:
    """A load trace with quiet and busy stretches, negative samples and
    signed zeros (a net-metered feed can dip below zero)."""
    rng = np.random.default_rng(seed)
    n = int(days * 86400 / period_s)
    vals = np.abs(rng.normal(250.0, 300.0, n))
    vals += rng.choice([0.0, 1800.0], n, p=[0.9, 0.1])
    vals[rng.uniform(size=n) < 0.3] *= 0.05  # quiet windows CHPr masks
    negative = rng.uniform(size=n) < 0.1
    vals[negative] = -rng.uniform(0.0, 600.0, int(negative.sum()))
    vals[::29] = -0.0
    vals[::31] = 0.0
    return PowerTrace(vals, period_s, start_s=float(rng.integers(0, 86400)))


def _tank_state(tank) -> tuple:
    return tank.temp_c, tank.comfort_violations, tank.samples


def _same_outcome(a, b) -> bool:
    """Pickle-identical outcomes (what ``result_digest`` hashes): bitwise
    visible traces and identically typed scalar fields."""
    return pickle.dumps(a) == pickle.dumps(b)


PERIODS = [30.0, 60.0, 300.0]
STRENGTHS = [0.25, 0.5, 1.0]


class TestDefenseLoopEquivalence:
    """Pure-float defense loops vs their NumPy-scalar originals."""

    @pytest.mark.parametrize("period_s", PERIODS)
    def test_tank_step_bitwise(self, period_s):
        rng = np.random.default_rng(int(period_s))
        n = 3000
        # requests below zero, signed zeros, partial, full and above rating
        requested = rng.choice(
            [-500.0, -0.0, 0.0, 1200.0, 4500.0, 9000.0], n
        ) * rng.uniform(0.5, 1.0, n)
        draws = rng.exponential(2.0, n) * (rng.uniform(size=n) < 0.2)
        for modulating in (False, True):
            config = WaterHeaterConfig(modulating=modulating)
            fast, slow = WaterHeaterTank(config, 45.0), ClipTank(config, 45.0)
            for draw, power in zip(draws.tolist(), requested.tolist()):
                got = fast.step(period_s, draw, power)
                want = slow.step(period_s, draw, power)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                assert _tank_state(fast) == _tank_state(slow)

    @pytest.mark.parametrize("period_s", PERIODS)
    def test_thermostat_bitwise(self, period_s):
        heater = WaterHeaterConfig()
        for seed in range(3):
            draws = CHPrTraceDefense()._draws(_defense_trace(seed, period_s))
            draws += np.random.default_rng(seed).exponential(0.3, len(draws))
            for initial in (None, 35.0):
                got, tank = thermostat_power(draws, period_s, heater, initial)
                want, ref = thermostat_power_loop(draws, period_s, heater, initial)
                assert got.tobytes() == want.tobytes(), (seed, initial)
                assert _tank_state(tank) == _tank_state(ref)

    @pytest.mark.parametrize("period_s", PERIODS)
    @pytest.mark.parametrize("strength", STRENGTHS)
    def test_chpr_control_bitwise_and_stream_identical(self, period_s, strength):
        heater = WaterHeaterConfig()
        configs = [
            CHPrConfig(mask_mean_range_w=(250.0 * strength, 900.0 * strength)),
            CHPrConfig(
                mask_mean_range_w=(250.0 * strength, 900.0 * strength),
                preheat_hours=((5.0, 6.5), (16.5, 18.0)),
            ),
        ]
        for seed in range(3):
            load = _defense_trace(seed, period_s)
            draws = CHPrTraceDefense()._draws(load)
            for config in configs:
                fast = CHPrController(heater, config, seed)
                slow = CHPrController(heater, config, seed)
                got, tank = fast.control(load, draws)
                want, ref = chpr_control_loop(slow, load, draws)
                assert got.tobytes() == want.tobytes(), (seed, config)
                assert fast.last_temps_c.tobytes() == slow.last_temps_c.tobytes()
                assert _tank_state(tank) == _tank_state(ref)
                # the generator must sit at the same stream position
                assert fast._rng.uniform() == slow._rng.uniform()

    @pytest.mark.parametrize("strength", STRENGTHS)
    def test_chpr_trace_defense_matches_reference(self, strength, monkeypatch):
        load = _defense_trace(11, 60.0, days=3.0)
        for seed in range(2):
            fast = CHPrTraceDefense(strength=strength)
            got = fast.apply(load, seed)
            with monkeypatch.context() as m:
                m.setattr(CHPrController, "control", chpr_control_loop)
                m.setattr(chpr_module, "thermostat_power", thermostat_power_loop)
                slow = CHPrTraceDefense(strength=strength)
                want = slow.apply(load, seed)
            assert _same_outcome(got, want), (strength, seed)
            assert _tank_state(fast.last_tank) == _tank_state(slow.last_tank)
            assert (
                fast.last_controller.last_temps_c.tobytes()
                == slow.last_controller.last_temps_c.tobytes()
            )

    def test_apply_chpr_fig6_path_matches_reference(self, monkeypatch):
        sim = simulate_home(fig6_home(), 2, rng=5)
        for seed in (105, 7):
            got = apply_chpr(sim, rng=seed)
            with monkeypatch.context() as m:
                m.setattr(CHPrController, "control", chpr_control_loop)
                m.setattr(chpr_module, "thermostat_power", thermostat_power_loop)
                want = apply_chpr(sim, rng=seed)
            assert _same_outcome(got, want), seed

    @pytest.mark.parametrize("period_s", PERIODS)
    def test_battery_defenses_bitwise(self, period_s):
        batteries = [
            BatteryConfig(),
            # small and lossy: the state of charge hits both rails often
            BatteryConfig(capacity_wh=400.0, max_charge_w=900.0,
                          max_discharge_w=1200.0, efficiency=0.8,
                          initial_soc=0.1),
        ]
        for seed in range(3):
            load = _defense_trace(seed, period_s)
            for battery in batteries:
                for defense, reference in (
                    (NILLDefense(battery), nill_apply_loop),
                    (SteppedDefense(battery), stepped_apply_loop),
                    (SteppedDefense(battery, step_w=150.0), stepped_apply_loop),
                ):
                    got = defense.apply(load)
                    want = reference(defense, load)
                    assert _same_outcome(got, want), (defense.name, seed)
                    assert type(got.extra_energy_kwh) is np.float64
                    assert got.extra_energy_kwh == want.extra_energy_kwh

    def test_battery_that_never_charges_keeps_float_losses(self):
        # a flat load sits on NILL's target: the battery never charges, so
        # the NumPy-scalar loop left ``losses_wh`` a plain float
        load = PowerTrace(np.full(240, 400.0), 60.0)
        defense = NILLDefense()
        got = defense.apply(load)
        want = nill_apply_loop(defense, load)
        assert _same_outcome(got, want)
        assert type(got.extra_energy_kwh) is float


def _best_of(f, reps: int = 5) -> float:
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def test_hmm_fit_decode_speedup_at_least_3x():
    """The headline perf pin: vectorized fit+decode >= 3x the loop baseline.

    Uses best-of-N wall times (machine noise between runs is real) on the
    NIOM-detector shape (2 states, ~1.4 days of minutes); the measured
    factor is ~4.5-5x, so 3x leaves headroom for a loaded CI box.
    """
    rng = np.random.default_rng(7)
    n, k = 2000, 2
    means = np.array([0.0, 500.0])
    states = np.zeros(n, dtype=int)
    for i in range(1, n):
        states[i] = states[i - 1] if rng.uniform() < 0.9 else rng.integers(k)
    X = (means[states] + rng.normal(0.0, 40.0, n)).reshape(-1, 1)

    def vectorized():
        model = GaussianHMM(k, n_iter=20, tol=0.0, rng=3)
        model.fit(X)
        return model.decode(X)

    def baseline():
        model = GaussianHMM(k, n_iter=20, tol=0.0, rng=3)
        fit_loop(model, X)
        return decode_loop(model, X)

    assert np.array_equal(vectorized(), baseline())
    t_vec = _best_of(vectorized)
    t_loop = _best_of(baseline)
    speedup = t_loop / t_vec
    print(f"hmm fit+decode: loop {t_loop*1e3:.1f} ms, vec {t_vec*1e3:.1f} ms, "
          f"{speedup:.2f}x")
    assert speedup >= 3.0, f"fit+decode speedup {speedup:.2f}x < 3x"
