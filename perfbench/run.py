"""Benchmark entry point: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-defended --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` (times
at the reference machine speed, see ``harness.speed_factor``);
``--trace 1`` prints every per-layer metric instead, from a run whose
layer calls are wrapped in spans.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file (with a machine/code manifest) and, when
traced, a span file go to ``perfbench/out/``; caches live in a work
directory under it that the run removes.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402,F401  — fails fast outside a full checkout

from fleet_workloads import FleetDefended, FleetResume  # noqa: E402
from harness import (  # noqa: E402
    cold_import_times,
    cpu_factor,
    cpu_ms_per_job,
    cpu_seconds,
    fresh_dir,
    jobs_per_s,
    manifest,
    measure_setup,
    peak_rss_mb,
    remove,
    setup_seconds,
    speed_factor,
    stop_children,
    timed_passes,
)
from netpriv_workload import NetprivArmsRace  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from stream_workload import StreamReplay  # noqa: E402

WORKLOADS = {
    "fleet-defended": FleetDefended,
    "fleet-resume": FleetResume,
    "netpriv-arms-race": NetprivArmsRace,
    "stream-replay": StreamReplay,
}

OUT_DIR = HERE / "out"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_workload(
    workload,
    seed: int,
    seconds: float,
    traced: bool,
    spec: dict,
    out_dir: Path = OUT_DIR,
) -> dict:
    """Set up, time, rebuild, check; returns the result document."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = fresh_dir(out_dir, f"work-{workload.name}-")
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(workdir)  # the program's own temp files too
    try:
        build_s, inputs = measure_setup(workload, seed, workdir)
        passes, cal = timed_passes(workload, inputs, seconds)
        rss = peak_rss_mb()
        setup_s = setup_seconds(build_s, cold_import_times(ROOT))
        factor = speed_factor(cal)
        factor_cpu = cpu_factor(cal)

        if traced:
            untraced = [untraced_rebuild_s(workload, inputs)]
        tracer = Tracer()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        reference = workload.rebuild(inputs, tracer, traced)
        rebuild_wall = time.perf_counter() - t0
        rebuild_cpu = cpu_seconds() - cpu0
        if traced:
            untraced.append(untraced_rebuild_s(workload, inputs))
        bad = workload.check(inputs, passes, reference)

        attempted = sum(p.jobs for p in passes)
        failed = min(attempted, sum(p.failed for p in passes) + bad)
        raw = {
            "setup_s": setup_s,
            "jobs_per_s": jobs_per_s(passes),
            "cpu_ms_per_job": cpu_ms_per_job(passes),
        }
        # times at the reference machine speed (see harness.speed_factor)
        computed = {
            "setup_s": raw["setup_s"] / factor,
            "jobs_per_s": raw["jobs_per_s"] * factor,
            "cpu_ms_per_job": raw["cpu_ms_per_job"] / factor_cpu,
            "peak_rss_mb": rss,
        }
        names = spec["end_to_end"]
        known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        if traced:
            computed.update(
                trace_metrics(
                    workload, passes, tracer, failed,
                    rebuild_cpu, rebuild_wall, statistics.mean(untraced),
                )
            )
            computed.update(workload.layers(inputs, passes, tracer, reference))
            names = spec["per_layer"]
        unknown = set(computed) - known
        if unknown:
            raise KeyError(f"not in BENCHMARK.json: {sorted(unknown)}")
        # a per-layer metric a workload does not touch reads 0; an
        # end-to-end one it fails to compute is a harness bug (KeyError)
        metrics = {
            m["name"]: {
                "value": float(
                    computed.get(m["name"], 0.0) if traced else computed[m["name"]]
                ),
                "unit": m["unit"],
            }
            for m in names
        }
    finally:
        tempfile.tempdir = saved_tempdir
        remove(workdir)
        stop_children()

    result = {
        "correct": bad == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{workload.name}-seed{seed}-trace{int(traced)}"
    doc = {
        "manifest": manifest(ROOT, workload, seed, seconds, traced),
        "passes": [
            {
                "jobs": p.jobs,
                "failed": p.failed,
                "wall_s": p.wall_s,
                "cpu_s": p.cpu_s,
            }
            for p in passes
        ],
        "result": result,
        "raw": raw,
        "speed_factor": factor,
        "cpu_factor": factor_cpu,
        "calibration_s": {
            "wall": [wall for wall, _ in cal],
            "cpu": [cpu for _, cpu in cal],
        },
        # the rest of the listed metrics read 0: this workload skips them
        "measured": sorted(computed),
    }
    if traced:
        doc["rebuild_s"] = {"traced": rebuild_wall, "untraced": untraced}
        spans_path = out_dir / f"{stem}.spans.jsonl"
        tracer.write(spans_path)
        doc["spans_file"] = spans_path.name
    with open(out_dir / f"{stem}.json", "w") as handle:
        json.dump(doc, handle, indent=2)
    return doc


def untraced_rebuild_s(workload, inputs) -> float:
    """Wall seconds of the rebuild with spans that record nothing."""
    t0 = time.perf_counter()
    workload.rebuild(inputs, NullTracer(), False)
    return time.perf_counter() - t0


def trace_metrics(
    workload, passes, tracer, failed, rebuild_cpu, rebuild_wall, untraced_wall
) -> dict:
    """Per-layer figures every traced workload reports.

    The tracing overhead compares the traced rebuild with the same
    rebuild run untraced (spans that record nothing, the program's
    telemetry counters off) just before and just after it:
    (traced wall − mean untraced wall) ÷ mean untraced wall.  The two
    bracketing runs cancel a steady drift in machine speed, but single
    rebuilds still differ in wall by up to ~10% on the 2-CPU box, far
    more than the spans cost: the figure bounds the overhead rather than
    resolving it, and often reads negative.
    """
    job_total = tracer.busy(workload.job_span)
    job_self = tracer.self_times().get(workload.job_span, 0.0)
    attempted = sum(p.jobs for p in passes)
    return {
        "trace.spans": len(tracer.spans),
        "trace.cpu_ms_per_job": 1000.0
        * rebuild_cpu
        / tracer.count(workload.job_span),
        "trace.overhead_frac": (rebuild_wall - untraced_wall) / untraced_wall,
        "trace.layer_coverage": 1.0 - job_self / job_total,
        "failed_frac": failed / attempted,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    start = time.perf_counter()
    doc = run_workload(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), spec
    )
    result = doc["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40s} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"  (machine at {1 / doc['speed_factor']:.3f}x reference speed; "
        "raw: "
        + ", ".join(f"{k} {v:.6g}" for k, v in doc["raw"].items())
        + ")"
    )
    verdict = "PASS" if result["correct"] else "FAIL"
    print(
        f"  output check {verdict}: {result['failed']} of "
        f"{result['attempted']} jobs failed; run took "
        f"{time.perf_counter() - start:.1f} s"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
