"""Golden digests of every artifact an audited traced run exports.

One small audited 2DFQ run -- 40 closed-loop tenants, known costs so
the estimator-drift monitor stays quiet, and a fault plan so
``fault``/``cancel`` instants and flight-recorder dumps appear -- is
exported through a
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
from repro.experiments.fleet import run_fleet
from repro.experiments.runner import run_single
from repro.faults import FaultPlan
from repro.obs import AuditConfig, trace_session
from repro.workloads.synthetic import expensive_requests_population

DIGESTS = Path(__file__).parent / "data" / "golden_audit_artifacts.json"
CHAOS_PLAN = Path(__file__).parent / "data" / "chaos_plan.json"

#: Artifacts pinned byte for byte (``manifest.json`` carries the git
#: SHA and argv, so it is checked field by field instead).
ARTIFACTS = (
    "events.jsonl",
    "chrome_trace.json",
    "audit_report.json",
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


def test_run_directory_holds_exactly_the_artifacts(run_dir):
    """The audited run writes these five files and nothing else."""
    assert {path.name for path in run_dir.iterdir()} == {
        "events.jsonl",
        "chrome_trace.json",
        "manifest.json",
        "audit_report.json",
        "flight_recorder.json",
    }


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
    report = json.loads((run_dir / "audit_report.json").read_text())
    assert report["monitors"]["estimator_drift"]["tripped"] is False
    flight = json.loads((run_dir / "flight_recorder.json").read_text())
    assert flight["dumps"]


def test_manifest_counters_match_the_event_stream(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    assert manifest["counters"]["trace.events"] == len(lines)
    assert manifest["counters"]["trace.dropped_events"] == 0


# -- request slices: drawn from the event rows -----------------------------------


def chrome_events(run_dir):
    return json.loads((run_dir / "chrome_trace.json").read_text())["traceEvents"]


def event_lines(run_dir):
    return [
        json.loads(line)
        for line in (run_dir / "events.jsonl").read_text().splitlines()
    ]


def dispatched_slices(run_dir):
    """``(dispatch event, "X" slice)`` pairs: slices come in dispatch
    order, one per dispatch event."""
    slices = [e for e in chrome_events(run_dir) if e["ph"] == "X"]
    dispatches = [e for e in event_lines(run_dir) if e["kind"] == "dispatch"]
    assert slices, "the trace has no request slices"
    assert len(slices) == len(dispatches)
    for event, slice_ in zip(dispatches, slices):
        assert slice_["args"]["tenant"] == event["tenant"]
        assert slice_["ts"] == event["t"] * 1e6
    return list(zip(dispatches, slices))


def assert_slices_do_not_overlap(slices):
    lanes = {}
    for slice_ in slices:
        lanes.setdefault((slice_["pid"], slice_["tid"]), []).append(
            (slice_["ts"], slice_["ts"] + slice_["dur"], slice_["name"])
        )
    for lane, intervals in lanes.items():
        intervals.sort()
        for left, right in zip(intervals, intervals[1:]):
            # 1e-3 us absorbs the rounding of ts + dur at a shared edge.
            assert left[1] <= right[0] + 1e-3, f"{lane}: {left} overlaps {right}"


class TestRequestSlices:
    def test_slices_do_not_overlap_on_a_thread(self, run_dir):
        pairs = dispatched_slices(run_dir)
        assert_slices_do_not_overlap([slice_ for _, slice_ in pairs])

    def test_running_cancel_ends_its_slice(self, run_dir):
        pairs = dispatched_slices(run_dir)
        cancels = [
            e for e in event_lines(run_dir)
            if e["kind"] == "cancel" and e["was_running"]
        ]
        assert cancels, "the golden run aborts no running request"
        for cancel in cancels:
            # The cancelled attempt is the seqno's last dispatch before it.
            (_, slice_), *_ = [
                (event, slice_) for event, slice_ in reversed(pairs)
                if event["seqno"] == cancel["seqno"] and event["t"] <= cancel["t"]
            ]
            end = slice_["ts"] + slice_["dur"]
            assert end == pytest.approx(cancel["t"] * 1e6, abs=1e-3), cancel

    @pytest.mark.parametrize("scheduler", ["2dfq", "wfq", "2dfq-e"])
    def test_completed_slices_match_the_dispatch_log(self, tmp_path, scheduler):
        """Unfaulted, every completion lands at its predicted end, so the
        slices drawn from the rows equal the metrics dispatch log's."""
        config = ExperimentConfig(
            name="slices",
            schedulers=(scheduler,),
            num_threads=4,
            thread_rate=1000.0,
            duration=0.4,
            sample_interval=0.02,
            seed=0,
        )
        specs = expensive_requests_population(num_small=30, total=40)
        with trace_session(tmp_path) as session:
            metrics = run_single(scheduler, specs, config)
        (run,) = session.runs
        run_dir = tmp_path / run
        pairs = dispatched_slices(run_dir)
        completed = {
            e["seqno"] for e in event_lines(run_dir) if e["kind"] == "complete"
        }
        assert len(pairs) == len(metrics.dispatch_log)
        matched = 0
        for (event, slice_), record in zip(pairs, metrics.dispatch_log):
            assert slice_["tid"] == record.thread_id
            assert slice_["name"] == f"{record.tenant_id}/{record.api}"
            assert slice_["ts"] == record.start * 1e6
            assert slice_["args"]["cost"] == record.cost
            if event["seqno"] in completed:
                assert slice_["dur"] == max(0.0, record.end - record.start) * 1e6
                matched += 1
        assert matched > 20

    @pytest.mark.parametrize("scheduler", ["2dfq", "wfq", "2dfq-e"])
    def test_faulted_slices_end_where_their_dispatch_records_end(
        self, tmp_path, scheduler
    ):
        """Under the canned chaos plan -- a slowed worker, a stalled one,
        a crashed one and deadline aborts -- a request leaves its worker
        when it completes or is cancelled, not at ``start + cost / rate``:
        every completed or cancelled slice ends where its dispatch
        record ends.  Requests still running at the horizon are skipped
        (their record keeps the predicted end)."""
        config = ExperimentConfig(
            name="faulted-slices",
            schedulers=(scheduler,),
            num_threads=4,
            thread_rate=1000.0,
            duration=1.6,
            sample_interval=0.02,
            seed=0,
            fault_plan=FaultPlan.load(CHAOS_PLAN),
        )
        specs = expensive_requests_population(num_small=30, total=40)
        with trace_session(tmp_path) as session:
            metrics = run_single(scheduler, specs, config)
        (run,) = session.runs
        run_dir = tmp_path / run
        pairs = dispatched_slices(run_dir)
        assert len(pairs) == len(metrics.dispatch_log)
        # Which dispatch (by its position) each complete or running
        # cancel ends.
        running = {}
        ended = {}
        for event in event_lines(run_dir):
            if event["kind"] == "dispatch":
                running[event["seqno"]] = len(running) + len(ended)
            elif event["kind"] == "complete" or (
                event["kind"] == "cancel" and event["was_running"]
            ):
                ended[running.pop(event["seqno"])] = event["kind"]
        moved = {"complete": 0, "cancel": 0}
        for i, ((event, slice_), record) in enumerate(zip(pairs, metrics.dispatch_log)):
            assert slice_["tid"] == record.thread_id
            assert slice_["ts"] == record.start * 1e6
            if i in ended:
                assert slice_["dur"] == max(0.0, record.end - record.start) * 1e6
                predicted = record.start + record.cost / config.thread_rate
                moved[ended[i]] += record.end != predicted
        assert moved["complete"] > 0, "no completion left its predicted end"
        assert moved["cancel"] > 0, "no running request was cancelled"


@pytest.fixture(scope="module")
def fleet_run_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet-slices")
    with trace_session(directory) as session:
        run_fleet(router="round-robin", duration=2.0, seed=1, name="fleet-rr")
    (run,) = session.runs
    return directory / run


def routed_servers(run_dir):
    servers = {}
    for event in event_lines(run_dir):
        if event["kind"] == "route" and event["accepted"]:
            servers.setdefault(event["seqno"], []).append(event["server"])
    return servers


class TestFleetSlices:
    def test_slices_sit_in_their_servers_process(self, fleet_run_dir):
        pairs = dispatched_slices(fleet_run_dir)
        processes = {
            e["pid"]: e["args"]["name"]
            for e in chrome_events(fleet_run_dir)
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        servers = routed_servers(fleet_run_dir)
        for event, slice_ in pairs:
            server = servers[event["seqno"]][-1]
            assert processes[slice_["pid"]] == f"fleet-rr/server-{server}"
        assert_slices_do_not_overlap([slice_ for _, slice_ in pairs])

    def test_counter_tracks_are_per_server(self, fleet_run_dir):
        pids = {
            e["pid"] for e in chrome_events(fleet_run_dir)
            if e["ph"] == "C" and e["name"] == "virtual_time"
        }
        slice_pids = {slice_["pid"] for _, slice_ in dispatched_slices(fleet_run_dir)}
        assert pids == slice_pids and len(pids) == 4
