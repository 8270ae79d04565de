"""Tracer semantics, scheduler instrumentation, and the golden trace.

The golden-file test pins the *exact* decision-event stream of a tiny
seeded 2-tenant 2DFQ run against ``tests/data/golden_2dfq_trace.jsonl``.
The scenario is the paper's Figure 5/6 premise shrunk to two tenants: A
sends unit-cost requests, B sends cost-4 requests, two unit-rate worker
threads, equal weights.  Under 2DFQ thread 0 (stagger 0) runs the small
requests and thread 1 (stagger 1/2) the large ones, and every start/
finish tag in between is hand-checkable.

A second golden pins the 2DFQ^E estimated variant of the same scenario
(``tests/data/golden_2dfqe_trace.jsonl``): a pessimistic estimator with
initial estimate 1.0 under-charges B's cost-4 requests at dispatch, so
the stream additionally exercises ``refresh_charge`` virtual-time
updates (interim usage exceeding the pre-paid credit) and ``estimate``
events (the estimator absorbing measured costs at completion).

Regenerate after an *intentional* semantics change with::

    PYTHONPATH=src:tests python -c \
        "from test_obs_tracer import write_golden, write_golden_estimated; \
         write_golden(); write_golden_estimated()"
"""

import heapq
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

import repro.core.request as request_module
from repro.core import make_scheduler
from repro.core.registry import scheduler_names
from repro.core.request import Request
from repro.core.vt_base import VirtualTimeScheduler
from repro.estimation.pessimistic import PessimisticEstimator
from repro.obs import EVENT_KINDS, TraceEvent, Tracer
from repro.simulator.rng import make_rng

GOLDEN = Path(__file__).parent / "data" / "golden_2dfq_trace.jsonl"
GOLDEN_E = Path(__file__).parent / "data" / "golden_2dfqe_trace.jsonl"


def run_golden_example():
    """The tiny seeded 2-tenant 2DFQ run behind the golden trace.

    Deterministic worked-example sequencer: both tenants enqueue before
    the first dispatch, threads are offered work in ascending index
    order, every dispatched request is immediately replaced so both
    tenants stay backlogged, completions are delivered in time order.
    Caller must reset ``repro.core.request._SEQUENCE`` first so seqnos
    are stable.
    """
    scheduler = make_scheduler("2dfq", num_threads=2, thread_rate=1.0)
    tracer = Tracer("golden-2dfq")
    scheduler.attach_tracer(tracer)
    costs = {"A": 1.0, "B": 4.0}

    def enqueue(tenant, now):
        scheduler.enqueue(Request(tenant_id=tenant, cost=costs[tenant]), now)

    for tenant in ("A", "B"):
        enqueue(tenant, 0.0)
    free_heap = [(0.0, 0), (0.0, 1)]
    heapq.heapify(free_heap)
    completions = []
    while free_heap:
        now, thread_id = heapq.heappop(free_heap)
        if now >= 8.0:
            continue
        while completions and completions[0][0] <= now:
            end, _, done = heapq.heappop(completions)
            scheduler.complete(done, done.cost, end)
        request = scheduler.dequeue(thread_id, now)
        end = now + request.cost
        enqueue(request.tenant_id, now)
        heapq.heappush(completions, (end, request.seqno, request))
        heapq.heappush(free_heap, (end, thread_id))
    return tracer


def run_golden_estimated_example():
    """The 2DFQ^E variant of the golden run (estimated costs).

    Same two-tenant scenario as :func:`run_golden_example`, but with a
    pessimistic estimator starting at 1.0 -- so B's cost-4 requests are
    under-estimated at first dispatch -- and with the server-side usage
    reporting modeled in: each running request reports 1.0 usage at unit
    intervals (the paper's refresh charging, §5) and completes with its
    true cost (retroactive charging).  Caller must reset
    ``repro.core.request._SEQUENCE`` first.
    """
    scheduler = make_scheduler(
        "2dfq-e", num_threads=2, thread_rate=1.0, estimator=PessimisticEstimator()
    )
    tracer = Tracer("golden-2dfq-e")
    scheduler.attach_tracer(tracer)
    scheduler.estimator.attach_tracer(tracer)
    costs = {"A": 1.0, "B": 4.0}

    def enqueue(tenant, now):
        scheduler.enqueue(
            Request(tenant_id=tenant, cost=costs[tenant], api="op"), now
        )

    for tenant in ("A", "B"):
        enqueue(tenant, 0.0)
    free_heap = [(0.0, 0), (0.0, 1)]
    heapq.heapify(free_heap)
    # (time, seqno, phase, request): phase 0 = interim refresh report,
    # phase 1 = completion.  The (time, seqno, phase) prefix is unique,
    # so requests never need comparing.
    pending = []
    while free_heap:
        now, thread_id = heapq.heappop(free_heap)
        if now >= 8.0:
            continue
        while pending and pending[0][0] <= now:
            t, _, phase, req = heapq.heappop(pending)
            if phase == 0:
                scheduler.refresh(req, 1.0, t)
            else:
                scheduler.complete(req, req.cost, t)
        request = scheduler.dequeue(thread_id, now)
        end = now + request.cost
        enqueue(request.tenant_id, now)
        for k in range(1, int(request.cost)):
            heapq.heappush(pending, (now + float(k), request.seqno, 0, request))
        heapq.heappush(pending, (end, request.seqno, 1, request))
        heapq.heappush(free_heap, (end, thread_id))
    return tracer


def _write_golden_file(path, tracer):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for event in tracer.events:
            fh.write(json.dumps(event.as_dict()) + "\n")


def write_golden():
    """Regenerate the committed golden trace (intentional changes only)."""
    request_module._SEQUENCE = itertools.count()
    _write_golden_file(GOLDEN, run_golden_example())


def write_golden_estimated():
    """Regenerate the committed 2DFQ^E golden trace."""
    request_module._SEQUENCE = itertools.count()
    _write_golden_file(GOLDEN_E, run_golden_estimated_example())


class TestTracerSemantics:
    def test_emit_and_of_kind(self):
        tracer = Tracer("t")
        tracer.vt_update(0.0, 0.0, "A", reason="tenant_active")
        tracer.vt_update(1.0, 1.0, None, reason="refresh_charge")
        assert len(tracer) == 2
        assert [e.kind for e in tracer] == ["vt_update", "vt_update"]
        assert len(tracer.of_kind("vt_update")) == 2
        assert tracer.of_kind("dispatch") == []

    def test_disabled_tracer_drops_everything(self):
        tracer = Tracer("t", enabled=False)
        tracer.emit(TraceEvent("enqueue", 0.0, 0.0, "A", {}))
        tracer.dispatch(
            0.0, 0.0, "A", seqno=0, api="x", thread=0, estimate=1.0,
            start_tag_after=1.0, backlog=1,
        )
        assert len(tracer) == 0

    def test_max_events_counts_overflow(self):
        tracer = Tracer("t", max_events=2)
        for i in range(5):
            tracer.vt_update(float(i), 0.0, None, reason="r")
        assert len(tracer) == 2
        assert tracer.dropped_events == 3

    def test_typed_emitters_update_counters(self):
        tracer = Tracer("t")
        tracer.dispatch(
            0.0, 0.0, "A", seqno=0, api="x", thread=0, estimate=1.0,
            start_tag_after=1.0, backlog=1,
        )
        tracer.complete(
            1.0, 1.0, "A", seqno=0, api="x", actual=1.5, charged=1.0,
            start_tag_after=1.0, running=0,
        )
        tracer.estimate(1.0, "A", api="x", old=1.0, new=1.25, actual=1.5)
        snap = tracer.registry.snapshot()
        assert snap["scheduler.dispatches"] == 1
        assert snap["scheduler.completions"] == 1
        assert snap["estimator.refreshes"] == 1
        # The completion event carries the estimate error.
        (complete,) = tracer.of_kind("complete")
        assert complete.data["error"] == pytest.approx(-0.5)

    def test_event_as_dict_headers_first(self):
        event = TraceEvent("select", 1.0, 2.0, "A", {"thread": 0})
        record = event.as_dict()
        assert list(record)[:4] == ["kind", "t", "vt", "tenant"]
        assert record["thread"] == 0

    def test_as_dict_omits_absent_header_fields(self):
        record = TraceEvent("estimate", 1.0, None, None, {"api": "x"}).as_dict()
        assert "vt" not in record and "tenant" not in record


class TestAttachSemantics:
    def test_attach_none_and_disabled_keep_fast_path(self):
        scheduler = make_scheduler("2dfq", num_threads=2)
        assert scheduler.tracer is None
        scheduler.attach_tracer(None)
        assert scheduler._trace is None
        scheduler.attach_tracer(Tracer("t", enabled=False))
        assert scheduler._trace is None

    def test_attach_enabled_tracer(self):
        scheduler = make_scheduler("2dfq", num_threads=2)
        tracer = Tracer("t")
        scheduler.attach_tracer(tracer)
        assert scheduler.tracer is tracer

    def test_untraced_run_emits_nothing(self):
        # The default: no tracer, every site is one attribute check.
        scheduler = make_scheduler("2dfq", num_threads=1)
        scheduler.enqueue(Request(tenant_id="A", cost=1.0), 0.0)
        request = scheduler.dequeue(0, 0.0)
        scheduler.complete(request, request.cost, 1.0)
        assert scheduler.tracer is None


class TestInstrumentedRun:
    def test_event_kinds_covered_and_well_formed(self):
        scheduler = make_scheduler(
            "2dfq-e",
            num_threads=2,
            estimator=PessimisticEstimator(),
        )
        tracer = Tracer("run")
        scheduler.attach_tracer(tracer)
        scheduler.estimator.attach_tracer(tracer)
        for i in range(4):
            scheduler.enqueue(
                Request(tenant_id=f"T{i % 2}", cost=1.0 + i, api="op"), 0.0
            )
        now = 0.0
        for _ in range(4):
            now += 1.0
            request = scheduler.dequeue(0, now)
            # The server stamps completion_time before complete().
            request.completion_time = now + 0.5
            scheduler.complete(request, request.cost, now + 0.5)
        # The remaining taxonomy: a cancelled request plus the fault /
        # invariant kinds emitted by repro.faults and repro.validate.
        now += 1.0
        doomed = Request(tenant_id="T0", cost=2.0, api="op")
        scheduler.enqueue(doomed, now)
        assert scheduler.cancel(doomed, now)
        tracer.fault(now, "worker_crash", worker=0)
        tracer.invariant(now, "vt-monotonic", tenant="T0", message="test")
        tracer.audit(now, "bursty", tenant="T0", tripped=True, cov=1.5)
        tracer.route(
            now, "T0", seqno=doomed.seqno, server=1, policy="round-robin",
            healthy=4, backlog=0, accepted=True,
        )
        kinds = {event.kind for event in tracer}
        assert kinds == set(EVENT_KINDS)
        for event in tracer:
            assert event.kind in EVENT_KINDS
            assert event.t >= 0.0
        # One select+dispatch pair per dequeue, in order.
        selects = tracer.of_kind("select")
        dispatches = tracer.of_kind("dispatch")
        assert len(selects) == len(dispatches) == 4
        assert tracer.registry.snapshot()["scheduler.dispatches"] == 4

    def test_select_event_carries_decision_state(self):
        scheduler = make_scheduler("2dfq", num_threads=2)
        tracer = Tracer("run")
        scheduler.attach_tracer(tracer)
        scheduler.enqueue(Request(tenant_id="A", cost=1.0), 0.0)
        scheduler.enqueue(Request(tenant_id="B", cost=4.0), 0.0)
        scheduler.dequeue(1, 0.0)
        (select,) = tracer.of_kind("select")
        assert select.data["thread"] == 1
        assert select.data["policy"] == "2dfq"
        assert select.data["stagger"] == pytest.approx(0.5)
        assert select.data["backlogged"] == 2
        # Two backlogged tenants sit below the adaptive crossover, so
        # the default "auto" mode runs the linear scan here.
        assert select.data["indexed"] is False
        assert isinstance(select.data["fallback"], bool)

    def test_custom_policy_select_rows_follow_its_declaration(self):
        """A policy declared outside the library -- the example's
        quadratic stagger -- records its own stagger and eligibility set
        in ``select`` rows, not the ungated defaults (stagger 0, every
        backlogged tenant eligible)."""
        path = Path(__file__).parent.parent / "examples" / "custom_scheduler.py"
        spec = importlib.util.spec_from_file_location("custom_scheduler", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        num_threads = 4
        scheduler = example.QuadraticStagger2DFQ(num_threads)
        tracer = Tracer("custom")
        scheduler.attach_tracer(tracer)
        for i, cost in enumerate((1.0, 2.0, 4.0, 8.0, 16.0, 32.0)):
            for _ in range(3):
                scheduler.enqueue(Request(tenant_id=f"T{i}", cost=cost), 0.0)
        expected = []
        now = 0.0
        for step in range(12):
            thread = num_threads - 1 - step % num_threads
            stagger = (thread / num_threads) ** 2
            vnow = scheduler.virtual_time(now)
            threshold = vnow + 1e-9 * max(1.0, abs(vnow))
            eligible = sum(
                1
                for state in scheduler.backlogged_tenants()
                if state.start_tag - stagger * state.queue[0].cost <= threshold
            )
            expected.append((thread, stagger, eligible))
            request = scheduler.dequeue(thread, now)
            now += 0.5
            scheduler.complete(request, request.cost, now)
        rows = [
            (s.data["thread"], s.data["stagger"], s.data["eligible"])
            for s in tracer.of_kind("select")
        ]
        assert rows == expected
        assert any(stagger > 0.0 for _, stagger, _ in rows)
        backlogs = [s.data["backlogged"] for s in tracer.of_kind("select")]
        assert any(e < b for (_, _, e), b in zip(rows, backlogs))

    def test_refresh_charging_traced(self):
        scheduler = make_scheduler("wfq", num_threads=1)
        tracer = Tracer("run")
        scheduler.attach_tracer(tracer)
        scheduler.enqueue(Request(tenant_id="A", cost=4.0), 0.0)
        request = scheduler.dequeue(0, 0.0)
        # Report more interim usage than the pre-paid credit.
        scheduler.refresh(request, 5.0, 1.0)
        refreshes = [
            e for e in tracer.of_kind("vt_update")
            if e.data["reason"] == "refresh_charge"
        ]
        assert len(refreshes) == 1
        assert refreshes[0].data["usage"] == pytest.approx(5.0)
        scheduler.complete(request, request.cost, 2.0)


#: Every registry name built on the shared virtual-time bookkeeping.
VT_POLICIES = [
    name
    for name in scheduler_names()
    if isinstance(make_scheduler(name, 1), VirtualTimeScheduler)
]

#: Operations of the parity script, and their draw weights while the
#: backlog fills and while it drains.
PARITY_OPS = (
    "enqueue", "dispatch", "refresh", "complete",
    "cancel_queued", "cancel_running", "stale_cancel",
)
FILL_WEIGHTS = (0.5, 0.2, 0.08, 0.1, 0.05, 0.04, 0.03)
DRAIN_WEIGHTS = (0.08, 0.32, 0.1, 0.3, 0.1, 0.07, 0.03)


def run_parity_script(name, seed=0, steps=1800, tenants=40, threads=4):
    """Drive ``name`` directly through a seeded mix of enqueue,
    dispatch, refresh, complete, queued cancel, running cancel and stale
    cancel, counting each call the scheduler acknowledged.  Returns the
    tracer and the script's own counts, keyed like :func:`trace_counts`.

    The mix alternates every 300 steps between filling and draining the
    backlog, so tenants go active and idle many times and the backlog
    crosses the adaptive index thresholds both ways: both selection
    paths run."""
    rng = make_rng(seed, "trace-parity", name)
    scheduler = make_scheduler(name, threads)
    tracer = Tracer("parity")
    scheduler.attach_tracer(tracer)
    queued, running, done = [], {}, []
    counts = dict.fromkeys(
        ("enqueue", "select", "dispatch", "complete", "cancel", "cancel_refund"),
        0,
    )
    now = 0.0
    for step in range(steps):
        now += float(rng.exponential(0.01))
        weights = DRAIN_WEIGHTS if step // 300 % 2 else FILL_WEIGHTS
        op = PARITY_OPS[int(rng.choice(len(PARITY_OPS), p=weights))]
        busy = sorted(running)
        if op == "enqueue":
            request = Request(
                tenant_id=f"T{int(rng.integers(tenants))}",
                cost=float(rng.lognormal(0.0, 1.0)),
                api=f"op{int(rng.integers(3))}",
            )
            scheduler.enqueue(request, now)
            queued.append(request)
            counts["enqueue"] += 1
        elif op == "dispatch":
            free = [t for t in range(threads) if t not in running]
            if free and queued:
                thread = free[int(rng.integers(len(free)))]
                request = scheduler.dequeue(thread, now)
                queued.remove(request)
                running[thread] = request
                counts["select"] += 1
                counts["dispatch"] += 1
        elif op == "refresh":
            if busy:
                request = running[busy[int(rng.integers(len(busy)))]]
                left = request.cost - request.reported_usage
                scheduler.refresh(request, left * float(rng.random()) / 2, now)
        elif op == "complete":
            if busy:
                request = running.pop(busy[int(rng.integers(len(busy)))])
                scheduler.complete(request, request.cost - request.reported_usage, now)
                done.append(request)
                counts["complete"] += 1
        elif op == "cancel_queued":
            if queued:
                request = queued.pop(int(rng.integers(len(queued))))
                assert scheduler.cancel(request, now)
                counts["cancel"] += 1
        elif op == "cancel_running":
            if busy:
                request = running.pop(busy[int(rng.integers(len(busy)))])
                assert scheduler.cancel(request, now)
                counts["cancel"] += 1
                counts["cancel_refund"] += 1
        elif done:
            # A stale cancel racing a completion is refused, not traced.
            assert not scheduler.cancel(done[int(rng.integers(len(done)))], now)
    outstanding = {r.tenant_id for r in queued} | {
        r.tenant_id for r in running.values()
    }
    counts["active_tenants"] = len(outstanding)
    return tracer, counts


def trace_counts(tracer):
    """The script's counts as read back from the tracer rows."""
    reasons = [e.data["reason"] for e in tracer.of_kind("vt_update")]
    counts = {
        kind: len(tracer.of_kind(kind))
        for kind in ("enqueue", "select", "dispatch", "complete", "cancel")
    }
    counts["cancel_refund"] = reasons.count("cancel_refund")
    counts["active_tenants"] = reasons.count("tenant_active") - reasons.count(
        "tenant_idle"
    )
    return counts


class TestTraceParity:
    """Every acknowledged scheduler call leaves its trace row.

    Golden traces and the exporters pin the rows a run emits, not the
    rows it should have emitted: a policy override that keeps the
    bookkeeping but drops its rows (a ``complete`` or ``_cancel_running``
    without the tracer call) passes them.  This script counts the calls
    itself, so any row a policy drops, on either selection path, shows.
    """

    def test_covers_every_virtual_time_policy(self):
        assert len(VT_POLICIES) == 8
        assert {"wfq", "wf2q", "msf2q", "sfq", "2dfq"} <= set(VT_POLICIES)

    @pytest.mark.parametrize("name", VT_POLICIES)
    def test_rows_match_the_scripts_counts(self, name):
        tracer, expected = run_parity_script(name)
        assert trace_counts(tracer) == expected
        # The script reaches every operation it counts.
        assert all(expected[key] > 0 for key in expected)
        assert any(e.data["indexed"] for e in tracer.of_kind("select"))
        assert not all(e.data["indexed"] for e in tracer.of_kind("select"))


class TestGoldenTrace:
    @pytest.fixture(autouse=True)
    def _fresh_seqnos(self, monkeypatch):
        monkeypatch.setattr(request_module, "_SEQUENCE", itertools.count())

    def test_matches_committed_golden_file(self):
        tracer = run_golden_example()
        produced = [event.as_dict() for event in tracer.events]
        with GOLDEN.open() as fh:
            expected = [json.loads(line) for line in fh]
        assert len(produced) == len(expected)
        for i, (got, want) in enumerate(zip(produced, expected)):
            assert got == want, f"event {i} diverged"

    def test_pinned_worked_example_values(self):
        # Hand-derived from the paper's tag arithmetic: capacity 2,
        # active weight 2, so v advances at 1/s.  Both tenants start at
        # S=0; A's head finish tag is 1, B's is 4.
        tracer = run_golden_example()
        selects = tracer.of_kind("select")
        first, second = selects[0], selects[1]
        # Thread 0 (stagger 0): both eligible at v=0, min finish = A.
        assert first.tenant == "A"
        assert first.data["thread"] == 0
        assert first.data["stagger"] == pytest.approx(0.0)
        assert first.data["eligible"] == 2
        assert first.data["start_tag"] == pytest.approx(0.0)
        assert first.data["finish_tag"] == pytest.approx(1.0)
        # Thread 1 (stagger 1/2): A's replacement has S=1, staggered
        # 1 - 0.5*1 = 0.5 > v=0, so only B (0 - 0.5*4 = -2) is eligible
        # -- the large request lands on the staggered thread.
        assert second.tenant == "B"
        assert second.data["thread"] == 1
        assert second.data["stagger"] == pytest.approx(0.5)
        assert second.data["eligible"] == 1
        assert second.data["finish_tag"] == pytest.approx(4.0)
        # 2DFQ keeps the partition for the whole horizon: thread 0
        # serves only A, thread 1 only B.
        for select in selects:
            expected_tenant = "A" if select.data["thread"] == 0 else "B"
            assert select.tenant == expected_tenant
        # Charging moves the start tag by estimate/weight at every
        # dispatch (Figure 7, lines 22-24).
        for dispatch in tracer.of_kind("dispatch"):
            assert dispatch.data["start_tag_after"] == pytest.approx(
                dispatch.data["estimate"]
                + next(
                    s.data["start_tag"]
                    for s in selects
                    if s.data.get("thread") == dispatch.data["thread"]
                    and s.t == dispatch.t
                )
            )

    def test_golden_covers_expected_kinds(self):
        tracer = run_golden_example()
        kinds = {event.kind for event in tracer}
        assert kinds == {"vt_update", "enqueue", "select", "dispatch", "complete"}


class TestGoldenEstimatedTrace:
    @pytest.fixture(autouse=True)
    def _fresh_seqnos(self, monkeypatch):
        monkeypatch.setattr(request_module, "_SEQUENCE", itertools.count())

    def test_matches_committed_golden_file(self):
        tracer = run_golden_estimated_example()
        produced = [event.as_dict() for event in tracer.events]
        with GOLDEN_E.open() as fh:
            expected = [json.loads(line) for line in fh]
        assert len(produced) == len(expected)
        for i, (got, want) in enumerate(zip(produced, expected)):
            assert got == want, f"event {i} diverged"

    def test_covers_the_estimator_event_path(self):
        tracer = run_golden_estimated_example()
        kinds = {event.kind for event in tracer}
        # The known-cost golden never exercises these two.
        assert "estimate" in kinds
        refreshes = [
            e for e in tracer.of_kind("vt_update")
            if e.data["reason"] == "refresh_charge"
        ]
        assert refreshes, "under-estimated B requests must refresh-charge"
        assert all(e.tenant == "B" for e in refreshes)

    def test_pessimistic_estimator_learns_b(self):
        tracer = run_golden_estimated_example()
        b_dispatches = [
            e for e in tracer.of_kind("dispatch") if e.tenant == "B"
        ]
        assert len(b_dispatches) >= 2
        # Both B dispatches inside the horizon happen before B's first
        # completion (the closed loop keeps two in flight), so both are
        # charged the initial estimate 1.0 -- far below the true cost 4.
        for dispatch in b_dispatches:
            assert dispatch.data["estimate"] == pytest.approx(1.0)
        # Completion reconciliation reports the under-charge...
        b_completes = [
            e for e in tracer.of_kind("complete") if e.tenant == "B"
        ]
        assert b_completes[0].data["error"] == pytest.approx(1.0 - 4.0)
        # ...and the pessimistic max-decay estimator absorbs the real
        # cost the moment it observes it.
        b_estimates = [
            e for e in tracer.of_kind("estimate") if e.tenant == "B"
        ]
        assert b_estimates[0].data["old"] is None
        assert b_estimates[0].data["new"] == pytest.approx(4.0)
