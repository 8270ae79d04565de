"""Golden digests of every artifact an audited traced run exports.

One small audited 2DFQ run -- 40 closed-loop tenants, so the adaptive
selection index is active, known costs so the estimator-drift monitor
stays quiet, and a fault plan so ``fault``/``cancel`` instants and
flight-recorder dumps appear -- is exported through a
:class:`~repro.obs.TraceSession`, and the SHA-256 of each artifact is
compared with ``tests/data/golden_audit_artifacts.json``.  The digests
were recorded before the event store and the exporters were rewritten,
so they pin the exported bytes, not just their JSON meaning.

Regenerate after an *intentional* format change with::

    PYTHONPATH=src:tests python -c \
        "from test_obs_artifacts import write_digests; write_digests()"
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.core.request import Request
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.obs import AuditConfig, trace_session
from repro.workloads.synthetic import expensive_requests_population

DIGESTS = Path(__file__).parent / "data" / "golden_audit_artifacts.json"

#: Artifacts pinned byte for byte (``manifest.json`` carries the git
#: SHA and argv, so it is checked field by field instead).
ARTIFACTS = (
    "events.jsonl",
    "chrome_trace.json",
    "audit_report.json",
    "metrics.prom",
    "flight_recorder.json",
)

FAULT_PLAN = {
    "slowdowns": [{"worker": 0, "start": 0.1, "end": 0.2, "factor": 0.5}],
    "crashes": [{"worker": 2, "at": 0.15, "restart_at": 0.25, "redispatch": True}],
    "deadlines": [
        {"deadline": 0.3, "max_retries": 1, "backoff": 0.01, "tenants": None}
    ],
    "seed": 0,
}


def golden_run(directory):
    """Run the pinned audited cell into ``directory``; returns its run
    directory."""
    config = ExperimentConfig(
        name="golden-audit",
        schedulers=("2dfq",),
        num_threads=4,
        thread_rate=1000.0,
        duration=0.4,
        sample_interval=0.02,
        refresh_interval=None,
        seed=0,
        fault_plan=FAULT_PLAN,
    )
    specs = expensive_requests_population(num_small=30, total=40)
    with trace_session(directory, audit=AuditConfig(), flight_events=64) as session:
        run_single("2dfq", specs, config)
    (run,) = session.runs
    return Path(directory) / run


def artifact_digests(run_dir):
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


def write_digests():
    """Re-record the committed digests (intentional changes only)."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = artifact_digests(golden_run(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return golden_run(tmp_path_factory.mktemp("golden-audit"))


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_bytes_match_golden_digest(run_dir, name):
    expected = json.loads(DIGESTS.read_text())
    got = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    assert got == expected[name], f"{name} drifted from its golden digest"


def test_artifacts_do_not_depend_on_earlier_runs(run_dir, tmp_path):
    """A second run of the same cell in the same process, after other
    requests were created, exports the same bytes: every run numbers its
    requests from seqno 0."""
    Request(tenant_id="earlier", cost=1.0)
    again = golden_run(tmp_path)
    assert artifact_digests(again) == artifact_digests(run_dir)


def test_golden_run_covers_the_instant_kinds(run_dir):
    kinds = {
        json.loads(line)["kind"]
        for line in (run_dir / "events.jsonl").read_text().splitlines()
    }
    assert {"fault", "cancel", "select", "dispatch", "complete"} <= kinds
    selects = [
        json.loads(line)
        for line in (run_dir / "events.jsonl").read_text().splitlines()
        if '"kind": "select"' in line
    ]
    assert any(s["indexed"] for s in selects), "index never activated"
    report = json.loads((run_dir / "audit_report.json").read_text())
    assert report["monitors"]["estimator_drift"]["tripped"] is False
    flight = json.loads((run_dir / "flight_recorder.json").read_text())
    assert flight["dumps"]


def test_manifest_counters_match_the_event_stream(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    assert manifest["counters"]["trace.events"] == len(lines)
    assert manifest["counters"]["trace.dropped_events"] == 0
