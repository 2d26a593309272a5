"""Kernel speedup benchmark: vectorized hot paths vs their loop references.

Times every vectorized kernel in the repo against the pre-vectorization
loop implementation it replaced, and each pure-float defense loop against
its NumPy-scalar original (see ``docs/PERFORMANCE.md`` for the full
hot-path inventory), and writes a machine-readable ``BENCH_kernels.json``
next to the working directory (override with ``REPRO_BENCH_KERNELS_OUT``).
CI uploads that file as a workflow artifact so speedups can be compared
across commits.

Timing is best-of-N wall clock: the minimum over ``reps`` runs is the
figure of record, because scheduler noise only ever adds time.  Every
workload also checks equivalence (bitwise where the kernel contract is
bitwise, documented tolerance for the E-step scan) — a speedup obtained
by computing something different would be a bug, not a win.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py

or through pytest (``python -m pytest benchmarks/bench_kernels.py``),
which additionally asserts the acceptance floors: >= 3x on the HMM
fit+decode pipeline, on FHMM joint-space decoding and on the small-k
Viterbi the NIOM detector decodes with.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.attacks.nilm._reference import pair_candidates_loop
from repro.attacks.nilm.powerplay import _pair_candidates, fig2_signatures
from repro.defenses import CHPrController, CHPrTraceDefense, NILLDefense, SteppedDefense
from repro.defenses._reference import (
    chpr_control_loop,
    nill_apply_loop,
    stepped_apply_loop,
    thermostat_power_loop,
)
from repro.home._reference import simulate_cyclic_loop, simulate_lighting_loop
from repro.home.appliances import CyclicAppliance, LightingAppliance
from repro.home.waterheater import thermostat_power
from repro.ml import kernels
from repro.ml._reference import decode_loop, fit_loop
from repro.ml.fhmm import FactorialHMM, fit_appliance_chain
from repro.ml.hmm import GaussianHMM
from repro.timeseries import BinaryTrace, Edge, PowerTrace
from repro.timeseries._reference import detect_edges_loop, window_features_loop
from repro.timeseries.events import detect_edges
from repro.timeseries.stats import window_features

OUT_ENV = "REPRO_BENCH_KERNELS_OUT"
DEFAULT_OUT = "BENCH_kernels.json"

#: acceptance floors asserted by the pytest entry point
FLOORS = {"hmm_fit_decode": 3.0, "fhmm_decode": 3.0, "viterbi_small_k": 3.0}


def _best_of(f, reps: int) -> float:
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def _entry(name, loop_fn, vec_fn, equal_fn, reps, detail):
    loop_out = loop_fn()
    vec_out = vec_fn()
    equivalent = bool(equal_fn(loop_out, vec_out))
    loop_s = _best_of(loop_fn, reps)
    vec_s = _best_of(vec_fn, reps)
    return name, {
        "loop_s": round(loop_s, 6),
        "vectorized_s": round(vec_s, 6),
        "speedup": round(loop_s / vec_s, 2),
        "equivalent": equivalent,
        "detail": detail,
    }


def _hmm_training_signal(n: int = 2000, k: int = 2):
    rng = np.random.default_rng(7)
    means = np.linspace(0.0, 500.0, k)
    states = np.zeros(n, dtype=int)
    for i in range(1, n):
        states[i] = states[i - 1] if rng.uniform() < 0.9 else rng.integers(k)
    return (means[states] + rng.normal(0.0, 40.0, n)).reshape(-1, 1)


def _fitted_fhmm() -> tuple[FactorialHMM, np.ndarray]:
    rng = np.random.default_rng(2)
    chains = []
    for power in (80.0, 150.0, 400.0, 1000.0, 4800.0):
        on = (rng.uniform(size=600) < 0.4).astype(float) * power
        chains.append(fit_appliance_chain(on + rng.normal(0.0, 15.0, 600),
                                          n_states=3, rng=1))
    aggregate = np.abs(rng.normal(900.0, 500.0, 1440))
    return FactorialHMM(chains, noise_var=200.0), aggregate


def _synthetic_edges(n_edges: int = 400, period: float = 30.0) -> list[Edge]:
    rng = np.random.default_rng(1)
    idxs = np.sort(rng.choice(np.arange(1, 20000), size=n_edges, replace=False))
    edges = []
    for idx in idxs:
        mag = float(rng.choice([120.0, 150.0, 1050.0]) * rng.uniform(0.8, 1.2))
        delta = mag if rng.uniform() < 0.5 else -mag
        edges.append(Edge(index=int(idx), time_s=idx * period, delta_w=delta,
                          pre_w=200.0, post_w=200.0 + delta))
    return edges


def run_benchmarks(reps: int = 3) -> dict:
    """Time every kernel pair; returns the BENCH_kernels.json document."""
    results: dict[str, dict] = {}

    # --- HMM fit + decode pipeline (the NIOM detector shape) ---
    X = _hmm_training_signal()

    def fit_decode_vec():
        model = GaussianHMM(2, n_iter=20, tol=0.0, rng=3)
        model.fit(X)
        return model.decode(X)

    def fit_decode_loop():
        model = GaussianHMM(2, n_iter=20, tol=0.0, rng=3)
        fit_loop(model, X)
        return decode_loop(model, X)

    name, row = _entry(
        "hmm_fit_decode", fit_decode_loop, fit_decode_vec,
        lambda a, b: np.array_equal(a, b), reps,
        "GaussianHMM(k=2) Baum-Welch 20 iters + Viterbi, n=2000",
    )
    results[name] = row

    # --- E-step kernel alone ---
    rng = np.random.default_rng(0)
    b = rng.uniform(0.1, 1.0, (2000, 2))
    pi = np.array([0.5, 0.5])
    A = np.array([[0.95, 0.05], [0.05, 0.95]])
    name, row = _entry(
        "hmm_estep",
        lambda: kernels.estep_loop(pi, A, b),
        lambda: kernels._estep_scan(pi, A, b, want_xi=True),
        lambda x, y: (np.max(np.abs(x[0] - y[0])) < 1e-10
                      and abs(x[2] - y[2]) <= 1e-9 * max(1.0, abs(x[2]))),
        reps, "forward/backward + xi statistics, n=2000 k=2",
    )
    results[name] = row

    # --- FHMM joint-space construction and decoding ---
    fhmm, aggregate = _fitted_fhmm()
    sp = [c.startprob_ for c in fhmm.chains]
    tm = [c.transmat_ for c in fhmm.chains]
    mu = [c.means_[:, 0] for c in fhmm.chains]
    var = [c.variances_[:, 0] for c in fhmm.chains]
    name, row = _entry(
        "fhmm_joint_build",
        lambda: kernels.joint_chain_params_loop(sp, tm, mu, var, 200.0),
        lambda: kernels.joint_chain_params(sp, tm, mu, var, 200.0),
        lambda a, b: all(np.array_equal(x, y) for x, y in zip(a, b)),
        reps, "5 chains x 3 states -> 243 joint states",
    )
    results[name] = row

    log_b = fhmm._emission_logprob(aggregate)
    log_pi = np.log(fhmm._startprob + 1e-300)
    log_a = np.log(fhmm._transmat + 1e-300)
    name, row = _entry(
        "fhmm_decode",
        lambda: kernels.viterbi_loop(log_pi, log_a, log_b),
        lambda: kernels.viterbi(log_pi, log_a, log_b),
        lambda a, b: np.array_equal(a, b), reps,
        "bound-pruned Viterbi, 243 joint states, n=1440 (one day of minutes)",
    )
    results[name] = row

    # --- small-k Viterbi (the HMM NIOM detector: 3 days of 15-min windows) ---
    rng = np.random.default_rng(6)
    log_pi = np.log(np.array([0.5, 0.5]))
    log_a = np.log(np.array([[0.95, 0.05], [0.05, 0.95]]))
    log_b = rng.normal(-5.0, 4.0, (288, 2))
    name, row = _entry(
        "viterbi_small_k",
        lambda: kernels.viterbi_loop(log_pi, log_a, log_b),
        lambda: kernels.viterbi(log_pi, log_a, log_b),
        lambda a, b: np.array_equal(a, b), reps,
        "Python-float trellis, k=2, n=288 (the NIOM detector shape)",
    )
    results[name] = row

    # --- appliance simulators (bitwise + RNG-stream preserving) ---
    n = int(7 * 86400 / 30.0)
    occupancy = BinaryTrace(
        (np.random.default_rng(5).uniform(size=n) < 0.6).astype(int), 30.0
    )
    fridge = CyclicAppliance("fridge", on_power_w=150.0, on_minutes=15.0,
                             off_minutes=30.0, spike_power_w=600.0)
    lights = LightingAppliance("lights", max_power_w=300.0)
    name, row = _entry(
        "appliance_cyclic",
        lambda: simulate_cyclic_loop(fridge, occupancy, np.random.default_rng(9)),
        lambda: fridge.simulate(occupancy, np.random.default_rng(9)),
        lambda a, b: np.array_equal(a.values, b.values), reps,
        "CyclicAppliance, 7 days @ 30 s",
    )
    results[name] = row
    name, row = _entry(
        "appliance_lighting",
        lambda: simulate_lighting_loop(lights, occupancy, np.random.default_rng(9)),
        lambda: lights.simulate(occupancy, np.random.default_rng(9)),
        lambda a, b: np.array_equal(a.values, b.values), reps,
        "LightingAppliance per-sample modulation, 7 days @ 30 s",
    )
    results[name] = row

    # --- timeseries features and edge detection ---
    rng = np.random.default_rng(0)
    vals = np.abs(rng.normal(200.0, 150.0, n))
    vals += rng.choice([0.0, 400.0], n, p=[0.85, 0.15])
    trace = PowerTrace(vals, 30.0)
    name, row = _entry(
        "window_features",
        lambda: window_features_loop(trace, 900.0),
        lambda: window_features(trace, 900.0),
        lambda a, b: np.array_equal(a, b), reps,
        "NIOM 15-min feature windows over 7 days @ 30 s",
    )
    results[name] = row
    name, row = _entry(
        "detect_edges",
        lambda: detect_edges_loop(trace, 30.0, 3),
        lambda: detect_edges(trace, 30.0, 3),
        lambda a, b: a == b, reps,
        "edge detection with settle medians over 7 days @ 30 s",
    )
    results[name] = row

    # --- PowerPlay rise/fall pairing ---
    edges = _synthetic_edges()
    used = np.zeros(len(edges), dtype=bool)
    fridge_sig = next(s for s in fig2_signatures() if s.name == "fridge")
    name, row = _entry(
        "powerplay_pairing",
        lambda: pair_candidates_loop(edges, used, fridge_sig, 150.0),
        lambda: _pair_candidates(edges, used, fridge_sig, 150.0),
        lambda a, b: a == b, reps,
        "broadcast rise x fall candidate scoring, 400 edges",
    )
    results[name] = row

    # --- per-sample defense recurrences (pure floats vs NumPy scalars) ---
    n = int(3 * 86400 / 30.0)
    rng = np.random.default_rng(4)
    vals = np.abs(rng.normal(250.0, 300.0, n))
    vals[rng.uniform(size=n) < 0.3] *= 0.05
    load = PowerTrace(vals, 30.0)
    chpr = CHPrTraceDefense()
    draws = chpr._draws(load)

    def same_tank_run(a, b):
        (p1, t1), (p2, t2) = a, b
        return np.array_equal(p1, p2) and (t1.temp_c, t1.samples) == (
            t2.temp_c, t2.samples
        )

    name, row = _entry(
        "thermostat",
        lambda: thermostat_power_loop(draws, 30.0, chpr.heater),
        lambda: thermostat_power(draws, 30.0, chpr.heater),
        same_tank_run, reps,
        "water-heater hysteresis thermostat, 3 days @ 30 s",
    )
    results[name] = row
    name, row = _entry(
        "chpr_control",
        lambda: chpr_control_loop(
            CHPrController(chpr.heater, chpr.config, 1), load, draws
        ),
        lambda: CHPrController(chpr.heater, chpr.config, 1).control(load, draws),
        same_tank_run, reps,
        "CHPr window planner + tank recurrence, 3 days @ 30 s",
    )
    results[name] = row
    for defense, reference in (
        (NILLDefense(), nill_apply_loop),
        (SteppedDefense(), stepped_apply_loop),
    ):
        name, row = _entry(
            defense.name,
            lambda d=defense, ref=reference: ref(d, load),
            lambda d=defense: d.apply(load),
            lambda a, b: (
                np.array_equal(a.visible.values, b.visible.values)
                and a.extra_energy_kwh == b.extra_energy_kwh
            ),
            reps,
            f"{defense.name} battery recurrence, 3 days @ 30 s",
        )
        results[name] = row

    return {
        "schema": "repro.bench_kernels/1",
        "floors": FLOORS,
        "workloads": results,
    }


def write_report(doc: dict) -> str:
    out = os.environ.get(OUT_ENV, DEFAULT_OUT)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
    return out


def _print_table(doc: dict) -> None:
    print(f"\n{'workload':<20} {'loop':>10} {'vectorized':>11} "
          f"{'speedup':>8}  {'equal':>5}")
    for name, row in doc["workloads"].items():
        print(f"{name:<20} {row['loop_s']*1e3:>8.1f}ms {row['vectorized_s']*1e3:>9.1f}ms "
              f"{row['speedup']:>7.2f}x  {str(row['equivalent']):>5}")


def test_bench_kernels():
    """Pytest entry: record the table, assert floors and equivalence."""
    doc = run_benchmarks()
    out = write_report(doc)
    _print_table(doc)
    print(f"wrote {out}")
    for name, row in doc["workloads"].items():
        assert row["equivalent"], f"{name}: vectorized output diverged from loop"
    for name, floor in FLOORS.items():
        got = doc["workloads"][name]["speedup"]
        assert got >= floor, f"{name}: {got}x below the {floor}x acceptance floor"


if __name__ == "__main__":
    doc = run_benchmarks()
    out = write_report(doc)
    _print_table(doc)
    print(f"wrote {out}")
