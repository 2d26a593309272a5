"""Self-tests for the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The workload tests run each workload at a tiny size for one short pass,
so they check what the harness emits, not how fast anything is.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  — also puts the program's src/ on sys.path
from fleet_workloads import FleetDefended, FleetResume  # noqa: E402
from netpriv_workload import NetprivArmsRace  # noqa: E402
from repro.fleet import FaultPlan  # noqa: E402
from spans import NullTracer, Tracer, percentile, self_times  # noqa: E402
from stream_workload import StreamReplay  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = run.load_spec()


def tiny(name: str):
    """Each workload at the smallest size that still exercises it."""
    return {
        "fleet-defended": lambda: FleetDefended(homes=2),
        "fleet-resume": lambda: FleetResume(homes=4),
        "netpriv-arms-race": lambda: NetprivArmsRace(
            shapers=("cover",), settings=(0.5,), days=1
        ),
        "stream-replay": StreamReplay,
    }[name]()


def test_percentile_refuses_a_thin_tail():
    assert percentile(range(20), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    assert percentile(range(1000), 99) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        percentile(range(999), 99)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        (0, "job", 0.0, 10.0, None, "a"),
        (1, "layer", 1.0, 4.0, 0, "a"),
        (2, "layer", 3.0, 6.0, 0, "a"),  # overlaps its sibling
        (3, "kernel", 1.0, 2.0, 1, "a"),
    ]
    times = self_times(spans)
    assert times["job"] == pytest.approx(5.0)
    assert times["layer"] == pytest.approx(2.0 + 3.0)
    assert times["kernel"] == pytest.approx(1.0)


def test_tracer_nests_spans_and_inherits_the_job():
    tracer = Tracer()
    with tracer.span("outer", job="home-1"):
        with tracer.span("inner"):
            pass
    inner, outer = sorted(tracer.spans, key=lambda s: s[1])
    assert inner[4] == outer[0] and inner[5] == "home-1"
    assert outer[4] is None


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("outer", job="home-1"):
        with tracer.span("inner"):
            pass
    tracer.extend([(0, "remote", 0.0, 1.0, None, "lan-0")])
    assert not tracer.record and list(tracer.spans) == []


def test_metric_and_workload_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Result documents of every tiny workload, untraced and traced."""
    out = tmp_path_factory.mktemp("out")
    return {
        (name, traced): run.run_workload(tiny(name), 3, 0.1, traced, SPEC, out)
        for name in run.WORKLOADS
        for traced in (False, True)
    }


@pytest.mark.parametrize("traced", (False, True))
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_emits_every_listed_metric(tiny_runs, name, traced):
    doc = tiny_runs[name, traced]
    result = doc["result"]
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if traced else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not traced:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric in doc["measured"]:
        assert NAME.fullmatch(metric), metric
    manifest = doc["manifest"]
    assert manifest["seed"] == 3 and manifest["traced"] is traced
    assert manifest["workload"] == name and manifest["nproc"] >= 1


def test_every_per_layer_metric_is_measured_by_some_workload(tiny_runs):
    measured = set()
    for (_name, traced), doc in tiny_runs.items():
        if traced:
            measured.update(doc["measured"])
    assert {m["name"] for m in SPEC["per_layer"]} <= measured


def test_failed_frac_counts_an_injected_failure(tmp_path):
    plan = FaultPlan(kind="error", indices=(0,))  # home 0 fails every try
    doc = run.run_workload(
        FleetDefended(homes=2, faults=plan), 7, 0.1, True, SPEC, tmp_path
    )
    result = doc["result"]
    assert not result["correct"]
    assert result["failed"] * 2 == result["attempted"]
    assert result["metrics"]["failed_frac"]["value"] == pytest.approx(0.5)
