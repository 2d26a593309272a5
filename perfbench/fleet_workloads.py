"""The two energy-fleet workloads: ``fleet-defended`` and ``fleet-resume``.

Both time ``FleetRunner.run`` with two workers on the default ``process``
backend, each pass against a fresh cache directory.  The layer-by-layer
rebuild runs every home in this process through the same public calls
``run_home_job`` makes — simulate, each defense, each detector, scoring —
with a span around each, and rebuilds ``result_digest`` from them.
"""

from __future__ import annotations

import hashlib
import pickle
import shutil
import statistics

import numpy as np

from repro.attacks.niom import score_occupancy_attack
from repro.core.evaluation import (
    PrivacyScore,
    TradeoffPoint,
    analytics_utility,
)
from repro.core.registry import defense_names, make_defense
from repro.defenses.base import DefenseOutcome
from repro.fleet import (
    FLEET_DETECTORS,
    FleetResult,
    FleetRunner,
    FleetSpec,
    HomeResult,
    ResultCache,
    job_cache_key,
    result_digest,
    trace_digest,
)
from repro.home.household import simulate_home
from repro.obs import TELEMETRY

from harness import Pass, fresh_dir, median_wall, remove

WORKERS = 2
DAYS = 3


def _score(tracer, name, outcome, metered, occupancy, detectors, seen):
    """``evaluate_defense_outcome`` rebuilt with a span per layer call."""
    visible = outcome.visible
    digest = hashlib.sha256(visible.values.tobytes()).hexdigest()
    mccs, accs = {}, {}
    for det in detectors:
        seen.append((det, digest))
        with tracer.span(f"attacks.niom.{det}"):
            detected = FLEET_DETECTORS[det]().detect(visible)
        with tracer.span("core.evaluation"):
            scores = score_occupancy_attack(detected.occupancy, occupancy)
        mccs[det] = scores["mcc"]
        accs[det] = scores["accuracy"]
    with tracer.span("core.evaluation"):
        utility = analytics_utility(visible, metered)
    return TradeoffPoint(
        defense=name,
        privacy=PrivacyScore(per_detector_mcc=mccs, per_detector_accuracy=accs),
        utility=utility,
        extra_energy_kwh=outcome.extra_energy_kwh,
        comfort_violation_fraction=outcome.comfort_violation_fraction,
    )


def rebuild_home(tracer, job, repeats: list) -> tuple[HomeResult, int]:
    """One home's job, layer by layer: (result, metered sample count).

    ``repeats`` collects one flag per detect call: True when the same
    detector already saw the same trace in this home.
    """
    seen: list[tuple[str, str]] = []
    with tracer.span("fleet.job", job=f"home-{job.index}"):
        with tracer.span("home.simulate"):
            sim = simulate_home(
                job.config, job.days, np.random.default_rng(job.sim_seed)
            )
        metered, occupancy = sim.metered, sim.occupancy
        rng = np.random.default_rng(job.defense_seed)
        baseline = _score(
            tracer, "baseline", DefenseOutcome(visible=metered),
            metered, occupancy, job.detectors, seen,
        )
        points = {}
        for name in job.defenses:
            with tracer.span(f"defenses.{name}"):
                outcome = make_defense(name).apply(metered, rng)
            points[name] = _score(
                tracer, name, outcome, metered, occupancy, job.detectors, seen
            )
        result = HomeResult(
            index=job.index,
            preset=job.preset,
            home_name=job.config.name,
            fingerprint=job.fingerprint,
            days=job.days,
            trace_digest=trace_digest(metered),
            energy_kwh=metered.energy_kwh(),
            baseline=baseline,
            defenses=points,
        )
    first: set[tuple[str, str]] = set()
    for key in seen:
        repeats.append(key in first)
        first.add(key)
    return result, len(metered)


class _FleetWorkload:
    """Shared timed pass, rebuild, check and layer metrics."""

    name = ""
    job_span = "fleet.job"
    min_passes = 1
    workers = WORKERS

    #: homes per pass
    homes = 0

    def __init__(self, homes: int | None = None, faults=None) -> None:
        if homes is not None:
            self.homes = homes
        self.faults = faults  # a FaultPlan, for the harness's own tests

    def spec(self, seed: int) -> FleetSpec:
        raise NotImplementedError

    def sizes(self) -> dict:
        return {"homes": self.homes, "days": DAYS, "workers": WORKERS}

    def executed_jobs(self) -> set[str]:
        """Job ids a timed pass computes (the rest are cache hits)."""
        return {f"home-{i}" for i in range(self.homes)}

    def build(self, seed, workdir):
        return {"spec": self.spec(seed), "workdir": workdir}

    def prepare(self, inputs):
        return fresh_dir(inputs["workdir"], "cache-")

    def release(self, prepared) -> None:
        remove(prepared)

    def run_pass(self, inputs, cache_dir) -> Pass:
        spec = inputs["spec"]
        result = FleetRunner(
            workers=WORKERS, cache_dir=cache_dir, faults=self.faults
        ).run(spec)
        return Pass(
            jobs=spec.n_homes,
            failed=result.n_failed,
            output={
                "digest": result_digest(result),
                "home_digests": {
                    h.index: _digest(spec, [h]) for h in result.homes
                },
                "failed": {f.index for f in result.failures},
                "cache": result.cache_stats.as_dict(),
            },
        )

    def rebuild(self, inputs, tracer, traced: bool) -> dict:
        spec = inputs["spec"]
        if traced:
            TELEMETRY.reset()
            TELEMETRY.enabled = True
        try:
            with tracer.span("fleet.spec"):
                jobs = spec.jobs()
            repeats: list[bool] = []
            homes, samples = [], 0
            for job in jobs:
                home, n = rebuild_home(tracer, job, repeats)
                homes.append(home)
                samples += n
            counters = dict(TELEMETRY.snapshot().counters) if traced else {}
        finally:
            TELEMETRY.enabled = False
            TELEMETRY.reset()
        cache = ResultCache(fresh_dir(inputs["workdir"], "rebuild-"))
        keys = [job_cache_key(job) for job in jobs]
        try:
            for key, home in zip(keys, homes):
                with tracer.span("fleet.cache.write"):
                    cache.put(key, home)
            replayed = []
            for key in keys:
                with tracer.span("fleet.cache.read"):
                    replayed.append(cache.get(key))
        finally:
            remove(cache.cache_dir)
        return {
            "digest": _digest(spec, homes),
            "home_digests": {h.index: _digest(spec, [h]) for h in homes},
            "replayed_digest": _digest(spec, replayed),
            "jobs": jobs,
            "results": homes,
            "samples": samples,
            "repeats": repeats,
            "counters": counters,
        }

    def check(self, inputs, passes, reference) -> int:
        """Homes whose pass result differs from the rebuilt one.

        Homes the pass already reported as failed are not counted again.
        A run without failures must also match the rebuild's whole-run
        ``result_digest``, and the rebuild must survive a cache round trip.
        """
        if reference["replayed_digest"] != reference["digest"]:
            return sum(p.jobs for p in passes)
        bad = 0
        for p in passes:
            wrong = sum(
                1
                for index, digest in reference["home_digests"].items()
                if index not in p.output["failed"]
                and p.output["home_digests"].get(index) != digest
            )
            whole = p.output["digest"] == reference["digest"]
            if not wrong and not p.failed and not whole:
                wrong = p.jobs
            bad += wrong
        return bad

    def layers(self, inputs, passes, tracer, reference) -> dict:
        spec = inputs["spec"]
        last = passes[-1].output
        counters = reference["counters"]
        scans = counters.get("hmm.estep_scan", 0.0)
        fallbacks = counters.get("hmm.estep_fallback", 0.0)
        payload = statistics.mean(
            len(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL))
            + len(pickle.dumps(home, protocol=pickle.HIGHEST_PROTOCOL))
            for job, home in zip(reference["jobs"], reference["results"])
        )
        supervised = self._telemetry_pass(inputs)
        repeats = reference["repeats"]
        metrics = {
            "fleet.spec.busy_s": tracer.busy("fleet.spec"),
            "fleet.cache.hits": last["cache"]["hits"],
            "fleet.cache.misses": last["cache"]["misses"],
            "fleet.cache.stores": last["cache"]["stores"],
            "fleet.cache.read_s": tracer.busy("fleet.cache.read"),
            "fleet.cache.write_s": tracer.busy("fleet.cache.write"),
            "fleet.engine.pool_efficiency": tracer.busy(
                "fleet.job", self.executed_jobs()
            )
            / (median_wall(passes) * WORKERS),
            "fleet.engine.retries": supervised["retries"],
            "fleet.engine.pool_rebuilds": supervised["pool_rebuilds"],
            "fleet.engine.payload_bytes": payload,
            "home.simulate.busy_s": tracer.busy("home.simulate"),
            "home.samples": reference["samples"],
            "attacks.niom.repeat_frac": sum(repeats) / max(len(repeats), 1),
            "ml.hmm.fits": counters.get("hmm.fits", 0.0),
            "ml.hmm.em_iterations": counters.get("hmm.em_iterations", 0.0),
            "ml.kernels.estep_scan_frac": scans / (scans + fallbacks)
            if scans + fallbacks
            else 0.0,
            "core.evaluation.busy_s": tracer.busy("core.evaluation"),
        }
        for name in defense_names():
            metrics[f"defenses.{name}.busy_s"] = tracer.busy(f"defenses.{name}")
        for det in spec.detectors:
            metrics[f"attacks.niom.{det}.busy_s"] = tracer.busy(
                f"attacks.niom.{det}"
            )
            metrics[f"attacks.niom.{det}.calls"] = tracer.count(
                f"attacks.niom.{det}"
            )
        return metrics

    def _telemetry_pass(self, inputs) -> dict:
        """One supervised pass with the program's own telemetry on, for
        the supervisor counters a plain ``FleetResult`` does not carry."""
        cache_dir = self.prepare(inputs)
        try:
            result = FleetRunner(
                workers=WORKERS, cache_dir=cache_dir, telemetry=True
            ).run(inputs["spec"])
        finally:
            self.release(cache_dir)
        return {
            "retries": result.telemetry.counters.get("fleet.retry", 0.0),
            "pool_rebuilds": result.pool_rebuilds,
        }


def _digest(spec: FleetSpec, homes) -> str:
    return result_digest(
        FleetResult(
            spec=spec, homes=list(homes), elapsed_s=0.0,
            workers_used=1, executed=len(homes),
        )
    )


class FleetDefended(_FleetWorkload):
    """All-``random`` homes, every registered defense, default detectors,
    cold cache: the ``repro fleet`` default shape."""

    name = "fleet-defended"
    homes = 24

    def spec(self, seed: int) -> FleetSpec:
        return FleetSpec(n_homes=self.homes, days=DAYS, seed=seed)


class FleetResume(_FleetWorkload):
    """Baseline-only homes; each pass starts from a cache template that
    holds the first half of them, so half the lookups hit."""

    name = "fleet-resume"
    homes = 200

    def spec(self, seed: int, homes: int | None = None) -> FleetSpec:
        return FleetSpec(
            n_homes=homes or self.homes, days=DAYS, seed=seed, defenses=()
        )

    def build(self, seed, workdir):
        inputs = super().build(seed, workdir)
        # child i of a fleet seed does not depend on the fleet size, so
        # the first half of the homes has the same cache keys here
        template = fresh_dir(workdir, "template-")
        result = FleetRunner(workers=WORKERS, cache_dir=template).run(
            self.spec(seed, self.homes // 2)
        )
        if not result.ok:
            raise RuntimeError(f"cache template failed: {result.failures}")
        inputs["template"] = template
        return inputs

    def executed_jobs(self) -> set[str]:
        return {f"home-{i}" for i in range(self.homes // 2, self.homes)}

    def prepare(self, inputs):
        cache_dir = fresh_dir(inputs["workdir"], "cache-")
        shutil.copytree(inputs["template"], cache_dir, dirs_exist_ok=True)
        return cache_dir

    def check(self, inputs, passes, reference) -> int:
        bad = super().check(inputs, passes, reference)
        if any(p.output["cache"]["hits"] != self.homes // 2 for p in passes):
            return sum(p.jobs for p in passes)
        # a cold-cache run of the same spec must give the same digest
        cold = fresh_dir(inputs["workdir"], "cold-")
        try:
            result = FleetRunner(workers=WORKERS, cache_dir=cold).run(
                inputs["spec"]
            )
        finally:
            remove(cold)
        if result_digest(result) != reference["digest"]:
            return sum(p.jobs for p in passes)
        return bad
