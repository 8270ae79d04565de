"""Exporter and trace-session tests: JSONL, Chrome trace, manifest."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from reference.export_writers import chrome_trace_events, write_events_jsonl
from repro.errors import ConfigurationError
from repro.obs import (
    TraceEvent,
    TraceSession,
    Tracer,
    build_manifest,
    current_session,
    trace_session,
    write_chrome_trace,
    write_manifest,
    write_rows_jsonl,
)
from repro.obs import exporters
from repro.obs.exporters import encode_rows_jsonl

VALID_PHASES = {"M", "X", "C", "i"}


def _rows():
    """Three requests on two threads: A on thread 0 over [0, 1] and
    [1, 2], B on thread 1 over [0, 4]."""
    tracer = Tracer("rows")
    for seqno, (tenant, thread, start, end) in enumerate(
        [("A", 0, 0.0, 1.0), ("B", 1, 0.0, 4.0), ("A", 0, 1.0, 2.0)]
    ):
        tracer.enqueue(
            seqno, 0.0, tenant, seqno=seqno, api="op", cost=end - start,
            start_tag=0.0, queue_depth=1, backlog=3 - seqno,
        )
    for seqno, (tenant, thread, start, end) in enumerate(
        [("A", 0, 0.0, 1.0), ("B", 1, 0.0, 4.0), ("A", 0, 1.0, 2.0)]
    ):
        tracer.dispatch(
            start, start, tenant, seqno=seqno, api="op", thread=thread,
            estimate=end - start, start_tag_after=end, backlog=2 - seqno,
        )
        tracer.complete(
            end, end, tenant, seqno=seqno, api="op", actual=end - start,
            charged=end - start, start_tag_after=end, running=0,
        )
    return tracer.rows


def _exceptional_rows():
    events = [
        TraceEvent(
            "cancel", 1.5, 2.0, "A", {"seqno": 7, "api": "op", "was_running": False}
        ),
        TraceEvent("fault", 2.0, None, None, {"fault": "worker_crash", "worker": 1}),
        TraceEvent("invariant", 2.5, 3.0, "B", {"code": "vt-monotonic"}),
        TraceEvent("audit", 3.0, None, "B", {"monitor": "bursty", "tripped": True}),
    ]
    return [event.as_row() for event in events]


class TestEventsJsonl:
    def test_round_trips(self, tmp_path):
        events = [TraceEvent.from_row(row) for row in _rows()]
        path = write_events_jsonl(events, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        first = json.loads(lines[0])
        assert first["kind"] == "enqueue"
        assert first["tenant"] == "A"

    def test_accepts_plain_dicts(self, tmp_path):
        path = write_events_jsonl([{"kind": "x"}], tmp_path / "e.jsonl")
        assert json.loads(path.read_text()) == {"kind": "x"}


class TestChromeTrace:
    def test_schema(self, tmp_path):
        path = write_chrome_trace(
            _rows(), tmp_path / "trace.json", process_name="test-run"
        )
        payload = json.loads(path.read_text())
        assert set(payload) >= {"traceEvents", "displayTimeUnit"}
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert event["ph"] in VALID_PHASES
            assert event["pid"] == 1
            if event["ph"] == "X":
                assert isinstance(event["ts"], float)
                assert event["dur"] >= 0.0

    def test_slices_and_metadata(self):
        events = chrome_trace_events(_rows(), process_name="p")
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 3
        # Timestamps are microseconds.
        assert slices[1]["dur"] == pytest.approx(4.0e6)
        names = {
            e["name"]: e["args"] for e in events if e["ph"] == "M"
        }
        assert names["process_name"] == {"name": "p"}
        assert "thread_name" in names
        # One timeline row per seen worker thread.
        tids = {e["tid"] for e in slices}
        assert tids == {0, 1}

    def test_counter_tracks_from_trace_events(self):
        events = chrome_trace_events(_rows())
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {"virtual_time", "backlog"}

    def test_instant_event_schema(self):
        """cancel/fault/invariant/audit render as tenant-colored
        process-scoped instant events carrying the full payload."""
        events = chrome_trace_events(_rows() + _exceptional_rows())
        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == [
            "cancel",
            "fault:worker_crash",
            "invariant:vt-monotonic",
            "audit:bursty",
        ]
        for instant in instants:
            assert instant["s"] == "p"
            assert instant["pid"] == 1
            assert isinstance(instant["ts"], float)
            assert instant["cat"] in {"cancel", "fault", "invariant", "audit"}
            assert isinstance(instant["cname"], str) and instant["cname"]
            assert "kind" not in instant["args"] and "t" not in instant["args"]
        cancel, fault, inv, audit = instants
        assert cancel["args"]["seqno"] == 7
        assert fault["args"]["fault"] == "worker_crash"
        assert inv["args"]["code"] == "vt-monotonic"
        assert audit["args"]["monitor"] == "bursty"
        # Tenant coloring is deterministic: same tenant, same color;
        # tenantless events get the neutral color.
        assert inv["cname"] == audit["cname"]
        assert fault["cname"] == "generic_work"

    def test_instant_events_skipped_without_trace_events(self):
        events = chrome_trace_events(_rows())
        assert not [e for e in events if e["ph"] == "i"]


def _mixed_tracer(fleet=False):
    """One tracer holding every row shape the encoders special-case:
    non-finite and signed-zero floats, int timestamps, non-ASCII and
    ``%``-bearing strings, absent vt/tenant headers, the ``**fields``
    kinds (with nested values), both route shapes, event objects whose
    payload collides with a header name, and occupancies closed by a
    complete, by a cancel, out of time order and not at all.  With
    ``fleet``, the dispatched requests are first routed to three
    servers."""
    nan, inf = float("nan"), float("inf")
    tracer = Tracer("encoders")
    if fleet:
        for seqno in (0, 1, 2, 3, 4, 9, 13, 14):
            tracer.route(
                0.0, "A", seqno=seqno, server=seqno % 3, policy="round-robin",
                healthy=3, backlog=0, accepted=True,
            )
    tracer.enqueue(
        0, 0.0, "t\u00e9nant-\u4e2d", seqno=1, api="op%s", cost=nan,
        start_tag=inf, queue_depth=1, backlog=2,
    )
    tracer.select(
        0.5, -0.0, "A", thread=0, policy="2dfq", start_tag=-inf,
        finish_tag=1e-300, eligible=3, backlogged=4, fallback=True,
        stagger=0.25,
    )
    for i in range(5):
        tracer.dispatch(
            1.0 + i, 2.0 / 3.0 + i, "A", seqno=i, api="op", thread=i % 2,
            estimate=1.0, start_tag_after=1.5 * i, backlog=5 - i,
        )
        tracer.complete(
            1.25 + i, 0.1 * i, "A", seqno=i, api="op", actual=1.0,
            charged=0.1 * 3, start_tag_after=-0.0, running=0,
        )
    tracer.dispatch(
        2.05, 5.0, "B", seqno=9, api="", thread=1, estimate=1.0,
        start_tag_after=6.0, backlog=0,
    )
    tracer.vt_update(2.0, 2.0, None, reason="tenant_idle", active_weight=0.0)
    tracer.vt_update(2.1, 2.0, "B", reason="refresh_charge", seqno=9, usage=nan)
    tracer.cancel(2.2, None, "B", seqno=9, api="op", was_running=True, backlog=0)
    tracer.fault(2.3, "worker_crash", worker=1, windows=[1, 2.5], info={"a": None})
    tracer.fault(2.35, "server_down", tenant="B", server=2)
    tracer.invariant(2.5, "vt-monotonic", vt=3.0, tenant="B", message="na\u00efve %d")
    tracer.estimate(3.0, "A", api="x", old=None, new=1.5, actual=2.0)
    tracer.route(
        3.1, "A", seqno=11, server=1, policy="round-robin", healthy=4,
        backlog=0, accepted=True,
    )
    tracer.route(
        3.2, "A", seqno=12, server=None, policy="least-backlog", healthy=0,
        backlog=7, accepted=False, reason="overload",
    )
    tracer.dispatch(
        3.25, 7.0, "A", seqno=13, api="op", thread=0, estimate=1.0,
        start_tag_after=8.0, backlog=0,
    )
    tracer.dispatch(
        3.3, 7.0, "t\u00e9", seqno=14, api="op", thread=3, estimate=1.0,
        start_tag_after=8.0, backlog=0,
    )
    tracer.complete(
        3.28, 7.0, "t\u00e9", seqno=14, api="op", actual=1, charged=1.0,
        start_tag_after=8.0, running=0,
    )
    # Audit rows as the audit fold builds them (repro.obs.audit).
    tracer.emit(TraceEvent(
        "audit", 3.3, None, None,
        {"monitor": "bursty", "tripped": True, "cov": -inf, "window": 10},
    ))
    tracer.emit(TraceEvent(
        "audit", 3.4, None, "A",
        {"monitor": "lag", "tripped": False, "lag_seconds": 0.0},
    ))
    tracer.emit(TraceEvent("enqueue", 4.0, None, "A", {"t": 9.0, "x%s": 1}))
    tracer.emit(TraceEvent("dispatch", 4.5, 1.0, "A", {"vt": 2.0, "backlog": 1}))
    tracer.emit(TraceEvent("dispatch", 5.0, None, None, {}))
    tracer.emit(TraceEvent("cancel", 5.5, None, "A", {"kind": "audit"}))
    return tracer


def _reference_jsonl(events):
    return "".join(json.dumps(event.as_dict()) + "\n" for event in events)


def _reference_chrome(rows, name="p", metadata=None):
    payload = {
        "traceEvents": chrome_trace_events(rows, process_name=name),
        "displayTimeUnit": "ms",
        "otherData": metadata or {},
    }
    return json.dumps(payload) + "\n"


class TestRowEncoders:
    """The row encoders write exactly the reference ``json.dumps`` bytes."""

    def test_jsonl_matches_json_dumps(self, tmp_path):
        tracer = _mixed_tracer()
        expected = _reference_jsonl(tracer.events)
        assert "".join(encode_rows_jsonl(tracer.rows)) == expected
        path = write_rows_jsonl(tracer.rows, tmp_path / "events.jsonl")
        assert path.read_text() == expected
        reference = write_events_jsonl(tracer.events, tmp_path / "ref.jsonl")
        assert reference.read_text() == expected

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_jsonl_chunk_boundaries(self, monkeypatch, chunk):
        tracer = _mixed_tracer()
        monkeypatch.setattr(exporters, "CHUNK_ROWS", chunk)
        chunks = list(encode_rows_jsonl(tracer.rows))
        assert len(chunks) == -(-len(tracer.rows) // chunk)
        assert "".join(chunks) == _reference_jsonl(tracer.events)

    @pytest.mark.parametrize("chunk", [None, 1, 4])
    @pytest.mark.parametrize("form", ["rows", "fleet"])
    def test_chrome_trace_matches_reference(self, tmp_path, monkeypatch, chunk, form):
        if chunk is not None:
            monkeypatch.setattr(exporters, "CHUNK_ROWS", chunk)
        rows = _mixed_tracer(fleet=form == "fleet").rows
        metadata = {"run": "r\u00fcn"}
        path = write_chrome_trace(
            rows, tmp_path / "trace.json", process_name="p", metadata=metadata
        )
        expected = _reference_chrome(rows, metadata=metadata)
        assert path.read_text() == expected
        slices = [e for e in json.loads(expected)["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 8
        assert len({e["pid"] for e in slices}) == (3 if form == "fleet" else 1)

    def test_chrome_trace_without_events_or_log(self, tmp_path):
        path = write_chrome_trace([], tmp_path / "empty.json")
        assert path.read_text() == _reference_chrome([], name="repro")


#: Floats whose text a float table could get wrong: both zeros (equal as
#: floats, different as text), the smallest subnormal, repr's switch to
#: exponent notation on both sides, and a sum with a 17-digit repr.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2)


class TestFloatTable:
    """Every finite float column of a chunk is written from one table
    of the chunk's distinct bit patterns."""

    def test_texts_keep_both_zeros_and_share_one_table(self):
        texts = list(
            exporters._float_texts(
                [[0.0, -0.0, 0.0], [-0.0, 0.0], [5e-324, 1e16, 1e-7, 0.1 + 0.2]]
            )
        )
        assert texts == [
            ["0.0", "-0.0", "0.0"],
            ["-0.0", "0.0"],
            ["5e-324", "1e+16", "1e-07", "0.30000000000000004"],
        ]
        # One text object per distinct bit pattern, across columns.
        assert texts[0][0] is texts[0][2] is texts[1][1]
        assert texts[0][1] is texts[1][0]
        assert texts[0][0] is not texts[0][1]

    def test_edge_floats_in_one_chunk(self, monkeypatch):
        """``0.0`` and ``-0.0`` in one column (``a``) and across columns
        (``t`` against ``vt``, ``a`` against ``b``) of one chunk."""
        events = [
            TraceEvent("vt_update", x, -x, "A", {"a": x, "b": y})
            for x, y in zip(_EDGE_FLOATS, reversed(_EDGE_FLOATS))
        ]
        tabled = []
        real = exporters._float_texts

        def spy(columns):
            tabled.append([list(column) for column in columns])
            return real(columns)

        monkeypatch.setattr(exporters, "_float_texts", spy)
        text = "".join(encode_rows_jsonl([event.as_row() for event in events]))
        assert text == _reference_jsonl(events)
        assert text.startswith(
            '{"kind": "vt_update", "t": 0.0, "vt": -0.0, "tenant": "A", '
            '"a": 0.0, "b": 0.30000000000000004}\n'
        )
        x = list(_EDGE_FLOATS)
        assert tabled == [[x, [-v for v in x], x, x[::-1]]]

    def test_nonfinite_and_mixed_columns_take_the_fallback(self, monkeypatch):
        nan, inf = float("nan"), float("inf")
        events = [
            TraceEvent("vt_update", 1.0, 2.0, "A", {"x": x, "y": y})
            for x, y in [(nan, 1), (inf, 2.5), (-inf, 3)]
        ]
        tabled, fallback = [], []
        real_texts = exporters._float_texts
        real_value = exporters._ColumnEncoder.value

        def spy_texts(columns):
            tabled.append([list(column) for column in columns])
            return real_texts(columns)

        def spy_value(self, value):
            fallback.append(value)
            return real_value(self, value)

        monkeypatch.setattr(exporters, "_float_texts", spy_texts)
        monkeypatch.setattr(exporters._ColumnEncoder, "value", spy_value)
        rows = [event.as_row() for event in events]
        assert "".join(encode_rows_jsonl(rows)) == _reference_jsonl(events)
        assert tabled == [[[1.0] * 3, [2.0] * 3]]  # t and vt only
        assert list(map(repr, fallback)) == ["nan", "inf", "-inf", "1", "2.5", "3"]

    def test_chrome_floats_go_through_the_table(self, monkeypatch, tmp_path):
        tabled = []
        real = exporters._float_texts

        def spy(columns):
            tabled.append([list(column) for column in columns])
            return real(columns)

        monkeypatch.setattr(exporters, "_float_texts", spy)
        rows = _rows()
        path = write_chrome_trace(rows, tmp_path / "trace.json", process_name="p")
        assert path.read_text() == _reference_chrome(rows)
        slices, counters = tabled
        # slice ts, dur and cost; counter ts and vt
        assert slices == [[0.0, 0.0, 1e6], [1e6, 4e6, 1e6], [1.0, 4.0, 1.0]]
        assert counters == [[0.0, 0.0, 1e6], [0.0, 0.0, 1.0]]


_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(), st.floats(-4.0, 4.0))
#: Mostly floats; an int now and then makes its column mixed.
_values = st.one_of(_floats, _floats, _floats, st.integers(-2, 2))


@st.composite
def _float_tracer(draw):
    """A tracer holding random enqueue/select/dispatch/complete rows:
    random, repeated, signed-zero, subnormal and non-finite floats in the
    header and payload, so one chunk mixes tabled and fallback columns
    and opens and closes thread occupancies."""
    tracer = Tracer("floats")
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["enqueue", "select", "dispatch", "complete"]))
        t, vt = draw(_floats), draw(_values)
        seqno = draw(st.integers(0, 3))
        if kind == "enqueue":
            tracer.enqueue(
                t, vt, "A", seqno=seqno, api="op", cost=draw(_values),
                start_tag=draw(_values), queue_depth=1, backlog=seqno,
            )
        elif kind == "select":
            tracer.select(
                t, vt, "B", thread=0, policy="2dfq", start_tag=draw(_values),
                finish_tag=draw(_values), eligible=2, backlogged=3,
                fallback=False, stagger=draw(_values),
            )
        elif kind == "dispatch":
            tracer.dispatch(
                t, vt, "A", seqno=seqno, api="op", thread=draw(st.integers(0, 1)),
                estimate=draw(_values), start_tag_after=draw(_values), backlog=1,
            )
        else:
            tracer.complete(
                t, vt, "A", seqno=seqno, api="op", actual=draw(_values),
                charged=draw(_values), start_tag_after=draw(_values), running=0,
            )
    return tracer


@settings(max_examples=80, deadline=None)
@given(tracer=_float_tracer(), chunk=st.integers(1, 7))
def test_float_payloads_match_reference_writers(tracer, chunk):
    rows = tracer.rows
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        with mock.patch.object(exporters, "CHUNK_ROWS", chunk):
            jsonl = write_rows_jsonl(rows, out / "events.jsonl")
            chrome = write_chrome_trace(rows, out / "trace.json", process_name="p")
        reference = write_events_jsonl(tracer.events, out / "ref.jsonl")
        assert jsonl.read_text() == reference.read_text()
        assert chrome.read_text() == _reference_chrome(rows)


class TestManifest:
    def test_required_fields(self, tmp_path):
        path = write_manifest(
            tmp_path / "manifest.json",
            name="run",
            seed=7,
            config={"duration": 2.0},
            scheduler={"name": "2dfq"},
            counters={"scheduler.dispatches": 3},
        )
        manifest = json.loads(path.read_text())
        assert manifest["name"] == "run"
        assert manifest["seed"] == 7
        assert manifest["config"]["duration"] == 2.0
        assert manifest["scheduler"]["name"] == "2dfq"
        assert manifest["counters"]["scheduler.dispatches"] == 3
        assert "python" in manifest["versions"]
        assert "machine" in manifest["platform"]
        # In this repo the git SHA resolves; outside one it may be None.
        assert "git_sha" in manifest

    def test_non_jsonable_values_fall_back_to_repr(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.json", name="r", config={"obj": object()}
        )
        manifest = json.loads(path.read_text())
        assert "object" in manifest["config"]["obj"]

    def test_build_manifest_defaults(self):
        manifest = build_manifest(name="x")
        assert manifest["config"] == {}
        assert manifest["scheduler"] == {}
        assert "counters" not in manifest

    def test_provenance_cached_one_subprocess_per_process(self, monkeypatch):
        """Two manifest builds spawn exactly one git subprocess: the SHA
        and package versions are memoized per process."""
        from repro.obs import exporters

        calls = []
        real_run = exporters.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(exporters.subprocess, "run", counting_run)
        exporters._git_sha.cache_clear()
        exporters._cached_package_versions.cache_clear()
        first = build_manifest(name="a")
        second = build_manifest(name="b")
        assert len(calls) == 1
        assert first["git_sha"] == second["git_sha"]
        assert first["versions"] == second["versions"]

    def test_cached_versions_are_copies(self):
        first = build_manifest(name="a")
        first["versions"]["python"] = "mutated"
        assert build_manifest(name="b")["versions"]["python"] != "mutated"


class TestTraceSession:
    def test_export_run_writes_three_artifacts(self, tmp_path):
        session = TraceSession(tmp_path)
        tracer = session.tracer("demo run/1")
        tracer.dispatch(
            0.0, 0.0, "A", seqno=0, api="x", thread=0, estimate=1.0,
            start_tag_after=1.0, backlog=1,
        )
        run_dir = session.export_run(tracer, seed=3, config={"d": 1})
        for artifact in ("events.jsonl", "chrome_trace.json", "manifest.json"):
            assert (run_dir / artifact).exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["counters"]["trace.events"] == 1
        assert manifest["counters"]["trace.dropped_events"] == 0
        assert manifest["counters"]["scheduler.dispatches"] == 1
        assert session.runs == [run_dir.name]

    def test_run_labels_are_slugged_and_unique(self, tmp_path):
        session = TraceSession(tmp_path)
        first = session.export_run(session.tracer("fig (a)"))
        second = session.export_run(session.tracer("fig (a)"))
        assert first != second
        assert " " not in first.name and "(" not in first.name

    def test_session_tracers_cap_events(self, tmp_path):
        session = TraceSession(tmp_path, max_events=1)
        tracer = session.tracer("t")
        tracer.vt_update(0.0, 0.0, None, reason="a")
        tracer.vt_update(1.0, 1.0, None, reason="b")
        assert len(tracer) == 1
        assert tracer.dropped_events == 1

    def test_bad_limits_rejected(self, tmp_path):
        # A dump's ring must hold at least its own trigger row.
        for flight_events in (0, -1):
            with pytest.raises(ConfigurationError, match=f"got {flight_events}"):
                TraceSession(tmp_path, flight_events=flight_events)
            with pytest.raises(ConfigurationError, match="flight_events"):
                with trace_session(tmp_path, flight_events=flight_events):
                    pass
        with pytest.raises(ConfigurationError, match="max_events must be >= 0, got -1"):
            TraceSession(tmp_path, max_events=-1)
        assert current_session() is None
        assert TraceSession(tmp_path, max_events=None, flight_events=1).flight_events == 1

    def test_context_manager_sets_and_restores(self, tmp_path):
        assert current_session() is None
        with trace_session(tmp_path) as session:
            assert current_session() is session
            with trace_session(tmp_path / "inner") as inner:
                assert current_session() is inner
            assert current_session() is session
        assert current_session() is None
