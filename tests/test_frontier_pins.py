"""Byte pins for the frontier exports of both sweep domains.

Each fixture under ``tests/fixtures/`` is a small hand-made frontier JSON
(no simulation) together with the exact bytes its exports must produce:
the JSON itself, the CSV, the aligned table followed by the
``monotone_violations(0.0)`` lines, and the claims-facing artifact rows.
The expected files were written by the two-stack implementation these
exports replaced, so any drift in column layout, float formatting or
violation wording fails here.
"""

import json
from pathlib import Path

import pytest

from repro.fleet import (
    NETPRIV_FRONTIER,
    SWEEP_FRONTIER,
    ArtifactError,
    FrontierReport,
    load_artifact,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "domain, kind",
    [("sweep", "sweep-frontier"), ("netpriv", "netpriv-frontier")],
)
def test_frontier_exports_reproduce_committed_bytes(domain, kind, tmp_path):
    source = FIXTURES / f"{domain}_frontier.json"
    report = FrontierReport.from_json(source)

    assert report.to_json() + "\n" == source.read_text()
    assert (
        report.to_csv(tmp_path / "frontier.csv").read_text()
        == (FIXTURES / f"{domain}_frontier.csv").read_text()
    )
    violations = report.monotone_violations(0.0)
    assert violations  # each fixture carries one deliberate violation
    text = report.format_table() + "\n" + "".join(v + "\n" for v in violations)
    assert text == (FIXTURES / f"{domain}_frontier.txt").read_text()

    artifact = load_artifact(source)
    expected = json.loads((FIXTURES / f"{domain}_frontier.artifact.json").read_text())
    assert artifact.kind == expected["kind"] == kind
    assert [
        {
            "label": row.label,
            "defense": row.defense,
            "setting": row.setting,
            "seed": row.seed,
            "metrics": row.metrics,
        }
        for row in artifact.rows
    ] == expected["rows"]


@pytest.mark.parametrize("schema", [SWEEP_FRONTIER, NETPRIV_FRONTIER])
def test_empty_frontier_round_trips(schema, tmp_path):
    """A sweep whose every cell failed still exports a readable frontier,
    but it is no evidence for a claim."""
    empty = FrontierReport(schema=schema, points=())
    path = tmp_path / "frontier.json"
    empty.to_json(path)
    assert path.read_text() == '{\n  "points": []\n}\n'
    assert FrontierReport.from_json(path) == empty
    with pytest.raises(ArtifactError, match="no points"):
        load_artifact(path)
