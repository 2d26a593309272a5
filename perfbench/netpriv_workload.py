"""The ``netpriv-arms-race`` workload: one seed's traffic-defense sweep.

The timed pass is ``run_netpriv_sweep`` over four shapers at three dial
settings (12 LAN battles on one-day LANs) with two workers.  The
layer-by-layer rebuild replays each battle through the same public calls
``evaluate_arms_race`` makes, with a span around each, on two worker
processes; the check compares every battle's shaped-log digest and both
attackers' MCCs.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from repro.attacks.niom import score_occupancy_attack
from repro.fleet import NetprivGrid, netpriv_lan_config, run_netpriv_sweep
from repro.netpriv import (
    AdaptiveOccupancyInferrer,
    DeviceFingerprinter,
    device_window_features,
    flow_log_digest,
    make_shaper,
    occupancy_from_traffic,
    simulate_lan,
)

from harness import Pass, median_wall
from spans import NullTracer, Tracer

WORKERS = 2
SHAPERS = ("cover", "constant-rate", "merge", "jitter")
SETTINGS = (0.0, 0.5, 1.0)
#: ``evaluate_arms_race`` defaults the sweep relies on
WINDOW_S = 1800.0
FINGERPRINT_WINDOW_S = 3600.0


def rebuild_battle(job, record: bool = True) -> tuple:
    """One sweep job, layer by layer, in a fresh tracer (one that records
    nothing unless ``record``).

    Returns ``(index, key fields, raw flow count, spans)``; module-level
    so a worker process can run it.
    """
    tracer = Tracer() if record else NullTracer()
    with tracer.span("netpriv.job", job=f"lan-{job.index}"):
        seeds = np.random.SeedSequence(
            job.seed, spawn_key=(job.lan_index,)
        ).spawn(6)
        lab_seed, victim_seed, lab_shape, victim_shape, naive_fp, adaptive_fp = seeds
        config = netpriv_lan_config(job.lan)
        lans = []
        for seed in (lab_seed, victim_seed):
            with tracer.span("netpriv.lan"):
                lans.append(
                    simulate_lan(config, job.days, np.random.default_rng(seed))
                )
        lab, victim = lans
        with tracer.span(f"netpriv.shaping.{job.defense}"):
            shaper = make_shaper(job.defense, job.setting)
            shaped_lab, _ = shaper.shape(
                lab.log, lab.devices, lab.duration_s,
                np.random.default_rng(lab_shape),
            )
            shaped_victim, _ = shaper.shape(
                victim.log, victim.devices, victim.duration_s,
                np.random.default_rng(victim_shape),
            )
        with tracer.span("netpriv.fingerprint.features"):
            train_naive = device_window_features(
                lab.log, lab.duration_s, FINGERPRINT_WINDOW_S,
                devices=lab.devices,
            )
            train_adaptive = device_window_features(
                shaped_lab, lab.duration_s, FINGERPRINT_WINDOW_S,
                devices=lab.devices,
            )
            test = device_window_features(
                shaped_victim, victim.duration_s, FINGERPRINT_WINDOW_S,
                devices=victim.devices,
            )
        with tracer.span("netpriv.fingerprint.evaluate"):
            for train, seed in ((train_naive, naive_fp), (train_adaptive, adaptive_fp)):
                DeviceFingerprinter(rng=np.random.default_rng(seed)).evaluate(
                    train, test, lab.devices
                )
        with tracer.span("netpriv.threats.naive"):
            naive = score_occupancy_attack(
                occupancy_from_traffic(
                    shaped_victim, victim.devices, victim.duration_s, WINDOW_S
                ),
                victim.occupancy,
            )
        with tracer.span("netpriv.adaptive.fit"):
            inferrer = AdaptiveOccupancyInferrer(WINDOW_S).fit(
                shaped_lab, lab.devices, lab.occupancy, lab.duration_s
            )
        with tracer.span("netpriv.adaptive.infer"):
            adaptive = score_occupancy_attack(
                inferrer.infer(shaped_victim, victim.devices, victim.duration_s),
                victim.occupancy,
            )
        key = (flow_log_digest(shaped_victim), naive["mcc"], adaptive["mcc"])
    return job.index, key, len(lab.log) + len(victim.log), tracer.spans


def _battle_key(outcome) -> tuple:
    return (
        outcome.shaped_digest,
        outcome.naive.occupancy_mcc,
        outcome.adaptive.occupancy_mcc,
    )


class NetprivArmsRace:
    """Four shapers x three settings x one seed, one small LAN per cell."""

    name = "netpriv-arms-race"
    job_span = "netpriv.job"
    #: so that calibration samples fall between sweeps, not only before
    #: and after a single one (the machine's speed drifts within a run)
    min_passes = 2
    workers = WORKERS

    def __init__(
        self, shapers=SHAPERS, settings=SETTINGS, days: int = 1
    ) -> None:
        self.shapers = tuple(shapers)
        self.settings = tuple(settings)
        self.days = days

    def sizes(self) -> dict:
        return {
            "shapers": list(self.shapers),
            "settings": list(self.settings),
            "n_lans": 1,
            "days": self.days,
            "lan": "small",
            "jobs": len(self.shapers) * len(self.settings),
            "workers": WORKERS,
        }

    def build(self, seed, workdir):
        return {
            "grid": NetprivGrid(
                defenses=self.shapers,
                settings=self.settings,
                seeds=(seed,),
                n_lans=1,
                days=self.days,
                lan="small",
            )
        }

    def prepare(self, inputs):
        return None

    def release(self, prepared) -> None:
        pass

    def run_pass(self, inputs, prepared) -> Pass:
        grid = inputs["grid"]
        result = run_netpriv_sweep(grid, workers=WORKERS)
        return Pass(
            jobs=grid.n_jobs,
            failed=len(result.failures),
            output={
                "battles": {r.index: _battle_key(r.outcome) for r in result.results},
                "failed": {f.index for f in result.failures},
                "pool_rebuilds": result.pool_rebuilds,
            },
        )

    def rebuild(self, inputs, tracer, traced: bool) -> dict:
        """Rebuild every battle on as many worker processes as the sweep
        uses: the costliest rebuild, and its layer times then carry the
        same two-core contention as the timed sweep."""
        grid = inputs["grid"]
        jobs = grid.jobs_for(grid.cells())
        battles, flows = {}, 0
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
            battle = partial(rebuild_battle, record=tracer.record)
            for index, key, n_flows, spans in pool.map(battle, jobs):
                battles[index] = key
                flows += n_flows
                tracer.extend(spans)
        # a LAN is a pure function of (composition, days, seed, lan index,
        # lab or victim): count the simulations that rebuild an earlier one
        built = [
            (job.lan, job.days, job.seed, job.lan_index, role)
            for job in jobs
            for role in ("lab", "victim")
        ]
        repeats = len(built) - len(set(built))
        return {"battles": battles, "flows": flows, "repeats": repeats}

    def check(self, inputs, passes, reference) -> int:
        """Battles whose digest or MCCs differ from the rebuilt ones
        (battles the sweep reported as failed are not counted again)."""
        return sum(
            1
            for p in passes
            for index, key in reference["battles"].items()
            if index not in p.output["failed"]
            and p.output["battles"].get(index) != key
        )

    def layers(self, inputs, passes, tracer, reference) -> dict:
        metrics = {
            "fleet.engine.pool_efficiency": tracer.busy("netpriv.job")
            / (median_wall(passes) * WORKERS),
            "fleet.engine.pool_rebuilds": passes[-1].output["pool_rebuilds"],
            "netpriv.lan.busy_s": tracer.busy("netpriv.lan"),
            "netpriv.lan.flows": reference["flows"],
            "netpriv.lan.repeat_frac": reference["repeats"]
            / max(tracer.count("netpriv.lan"), 1),
            "netpriv.fingerprint.features_s": tracer.busy(
                "netpriv.fingerprint.features"
            ),
            "netpriv.fingerprint.evaluate_s": tracer.busy(
                "netpriv.fingerprint.evaluate"
            ),
            "netpriv.adaptive.fit_s": tracer.busy("netpriv.adaptive.fit"),
            "netpriv.adaptive.infer_s": tracer.busy("netpriv.adaptive.infer"),
            "netpriv.threats.naive_s": tracer.busy("netpriv.threats.naive"),
        }
        for name in SHAPERS:
            metrics[f"netpriv.shaping.{name}.busy_s"] = tracer.busy(
                f"netpriv.shaping.{name}"
            )
        return metrics
