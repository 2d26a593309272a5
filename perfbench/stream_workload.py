"""The ``stream-replay`` workload: home feeds replayed one at a time.

Set-up simulates the homes.  A timed pass replays each home's metered
trace in 60-sample chunks through ``FeedGuard`` into a ``StreamSession``
running all four stream attacks, timing every ``FeedGuard.push``: a
closed loop with one feed in flight.  The traced rebuild runs the same
replay with each attack adapter wrapped so every ``push`` into it is a
span inside the span of the ``FeedGuard.push`` that caused it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.attacks import ThresholdNIOM
from repro.fleet import FleetSpec
from repro.home.household import simulate_home
from repro.stream import (
    FeedGuard,
    StreamClock,
    StreamSession,
    iter_chunks,
    make_stream_attack,
)
from repro.timeseries import detect_edges

from harness import Pass
from spans import percentile

ATTACKS = ("edges", "niom", "hmm", "fhmm")
CHUNK = 60
LAG = 30
DAYS = 7
#: homes simulated in set-up; 6 week-long feeds give the 1,008 pushes a
#: p99 with ten samples beyond it needs
HOMES = 6


def _attacks(wrap=None) -> dict:
    built = {}
    for name in ATTACKS:
        attack = make_stream_attack(
            name, **({"lag": LAG} if name in ("hmm", "fhmm") else {})
        )
        built[name] = wrap(name, attack) if wrap else attack
    return built


class _Spanned:
    """An attack adapter whose ``push`` and ``finalize`` record spans."""

    def __init__(self, tracer, name: str, attack) -> None:
        self.tracer, self.name, self.attack = tracer, name, attack

    def open(self, clock) -> None:
        self.attack.open(clock)

    def push(self, values) -> None:
        with self.tracer.span(f"stream.{self.name}"):
            self.attack.push(values)

    def finalize(self) -> dict:
        with self.tracer.span(f"stream.{self.name}.finalize"):
            return self.attack.finalize()


def replay(trace, attacks: dict, push):
    """Replay one feed through a guarded session: (session, report).

    ``push(guard, chunk)`` delivers each chunk, so callers can time or
    trace every ``FeedGuard.push``.
    """
    session = StreamSession(StreamClock.of(trace), attacks)
    guard = FeedGuard(session)
    for chunk in iter_chunks(trace.values, CHUNK):
        push(guard, chunk)
    return session, session.finalize(guard=guard)


def matches_batch(trace, attacks: dict) -> bool:
    """The streamed-vs-batch contract ``benchmarks/bench_stream.py`` checks."""
    niom = attacks["niom"].result
    batch = ThresholdNIOM().detect(trace)
    return (
        attacks["edges"].detector.edges == detect_edges(trace)
        and np.array_equal(niom.features, batch.features)
        and np.array_equal(niom.occupancy.values, batch.occupancy.values)
        and len(attacks["hmm"].decoder.labels) == len(trace)
        and len(attacks["fhmm"].decoder.states) == len(trace)
    )


class StreamReplay:
    """``HOMES`` simulated homes, 7 days at a 60 s period, replayed one by one.

    A pass is one feed; passes cycle through the homes, so a run's
    median per-feed rate comes from every home several times over.
    """

    name = "stream-replay"
    job_span = "stream.feed"
    workers = 1

    #: every home at least once
    min_passes = HOMES

    def sizes(self) -> dict:
        return {
            "homes": HOMES,
            "days": DAYS,
            "chunk_samples": CHUNK,
            "attacks": list(ATTACKS),
            "lag": LAG,
        }

    def build(self, seed, workdir):
        traces = [
            simulate_home(
                job.config, DAYS, np.random.default_rng(job.sim_seed)
            ).metered
            for job in FleetSpec(n_homes=HOMES, days=DAYS, seed=seed).jobs()
        ]
        return {"traces": traces, "replays": 0}

    def prepare(self, inputs):
        """The feed to replay next, and whether it is its first replay."""
        k = inputs["replays"] % HOMES
        first = inputs["replays"] < HOMES
        inputs["replays"] += 1
        return k, first

    def release(self, prepared) -> None:
        pass

    def run_pass(self, inputs, prepared) -> Pass:
        k, first = prepared
        push_s: list[float] = []

        def push(guard, chunk):
            t0 = time.perf_counter()
            guard.push(chunk)
            push_s.append(time.perf_counter() - t0)

        session, report = replay(inputs["traces"][k], _attacks(), push)
        return Pass(
            jobs=1,
            failed=int(not report.ok),
            output={
                "feed": k,
                "results": report.results,
                # attack state is kept for the batch check on first replays
                # only, so memory does not grow with the run length
                "attacks": session.attacks if first else None,
                "push_s": push_s,
            },
        )

    def rebuild(self, inputs, tracer, traced: bool) -> dict:
        def push(guard, chunk):
            with tracer.span("stream.guard.push"):
                guard.push(chunk)

        wrap = (lambda name, a: _Spanned(tracer, name, a)) if tracer.record else None
        results = []
        for k, trace in enumerate(inputs["traces"]):
            with tracer.span("stream.feed", job=f"feed-{k}"):
                _, report = replay(trace, _attacks(wrap), push)
            results.append(report.results)
        return {"results": results}

    def check(self, inputs, passes, reference) -> int:
        """Healthy replays whose results differ from the traced replay's,
        or whose attack state breaks the streamed-vs-batch contract."""
        bad = 0
        for p in passes:
            if p.failed:
                continue  # already counted as failed
            k = p.output["feed"]
            wrong = p.output["results"] != reference["results"][k]
            if p.output["attacks"] is not None:
                wrong = wrong or not matches_batch(
                    inputs["traces"][k], p.output["attacks"]
                )
            bad += wrong
        return bad

    def layers(self, inputs, passes, tracer, reference) -> dict:
        push_ms = [1e3 * s for p in passes for s in p.output["push_s"]]
        attack_push = sum(tracer.busy(f"stream.{name}") for name in ATTACKS)
        metrics = {
            "stream.push_p50_ms": percentile(push_ms, 50),
            "stream.push_p99_ms": percentile(push_ms, 99),
            "stream.pushes": len(push_ms),
            "stream.guard.overhead_s": tracer.busy("stream.guard.push")
            - attack_push,
        }
        for name in ATTACKS:
            metrics[f"stream.{name}.busy_s"] = tracer.busy(f"stream.{name}")
            metrics[f"stream.{name}.push_p99_ms"] = percentile(
                [1e3 * s for s in tracer.durations(f"stream.{name}")], 99
            )
        return metrics
