"""Fault injection (repro.faults): plan DSL, injector, estimator faults.

Behavioral tests drive a real :class:`ThreadPoolServer` + scheduler
through a :class:`FaultInjector` and check the piecewise-progress
arithmetic, crash re-dispatch, deadline retry/abandon, and the summary
counts/trace events, all hand-derivable from the plan times.

The golden crash-trace test pins the *exact* event stream of a tiny
2-tenant 2DFQ run with one injected worker crash against
``tests/data/golden_2dfq_crash_trace.jsonl`` -- in particular the
re-dispatch ordering: cancel (with refund) then re-enqueue at the crash
instant, then a later dispatch of the same seqno.  Regenerate after an
*intentional* semantics change with::

    PYTHONPATH=src:tests python -c \
        "from test_faults import write_crash_golden; write_crash_golden()"
"""

import itertools
import json
import pickle
import re
from pathlib import Path

import pytest

import repro.core.request as request_module
from repro.core import make_scheduler
from repro.core.request import Request, RequestPhase
from repro.errors import ConfigurationError
from repro.estimation.base import CostEstimator
from repro.experiments import ExperimentConfig, run_comparison
from repro.faults import (
    DeadlinePolicy,
    EstimatorFault,
    FaultInjector,
    FaultPlan,
    FaultyEstimator,
    WorkerCrash,
    WorkerSlowdown,
)
from repro.obs import Tracer
from repro.parallel.spec import canonicalize
from repro.simulator.clock import Simulation
from repro.simulator.server import ThreadPoolServer
from repro.workloads.arrivals import Backlogged
from repro.workloads.distributions import FixedCost
from repro.workloads.spec import TenantSpec

CRASH_GOLDEN = Path(__file__).parent / "data" / "golden_2dfq_crash_trace.jsonl"
CHAOS_PLAN = Path(__file__).parent / "data" / "chaos_plan.json"


def make_server(plan, workers=1, scheduler_name="2dfq", tracer=None):
    """A unit-rate pool with ``plan`` installed; simulation not yet run."""
    sim = Simulation()
    scheduler = make_scheduler(scheduler_name, num_threads=workers)
    server = ThreadPoolServer(
        sim, scheduler, num_threads=workers, rate=1.0, refresh_interval=None
    )
    if tracer is not None:
        scheduler.attach_tracer(tracer)
        server.attach_tracer(tracer)
    injector = FaultInjector(server, plan)
    injector.install()
    injector.wire_estimator(scheduler)
    return sim, scheduler, server, injector


class TestPlanDSL:
    def full_plan(self):
        return FaultPlan(
            slowdowns=(WorkerSlowdown(worker=0, start=1.0, end=2.0, factor=0.5),),
            crashes=(WorkerCrash(worker=1, at=0.5, restart_at=3.0),),
            deadlines=(
                DeadlinePolicy(deadline=1.0, max_retries=2, tenants=("A", "B")),
            ),
            estimator_faults=(
                EstimatorFault(start=0.0, end=1.0, mode="bias", bias=2.0),
            ),
            seed=7,
        )

    def test_json_round_trip(self):
        plan = self.full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_file_round_trip(self, tmp_path):
        plan = self.full_plan()
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path) == plan

    def test_dict_coercion_in_constructor(self):
        # The ExperimentConfig __post_init__ path: plans arriving as
        # plain dicts (e.g. out of JSON) coerce to the frozen classes.
        plan = FaultPlan(
            crashes=({"worker": 0, "at": 1.0},),
            slowdowns=({"worker": 1, "start": 0.0, "end": 1.0, "factor": 0.0},),
        )
        assert plan.crashes[0] == WorkerCrash(worker=0, at=1.0)
        assert plan.slowdowns[0].factor == 0.0

    def test_is_empty_and_policy_for(self):
        assert FaultPlan().is_empty
        plan = self.full_plan()
        assert not plan.is_empty
        assert plan.policy_for("A").deadline == 1.0
        assert plan.policy_for("Z") is None
        catch_all = FaultPlan(deadlines=(DeadlinePolicy(deadline=2.0),))
        assert catch_all.policy_for("anyone").deadline == 2.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: WorkerSlowdown(worker=-1, start=0.0, end=1.0, factor=1.0),
            lambda: WorkerSlowdown(worker=0, start=1.0, end=1.0, factor=1.0),
            lambda: WorkerSlowdown(worker=0, start=0.0, end=1.0, factor=-0.1),
            lambda: WorkerCrash(worker=0, at=-1.0),
            lambda: WorkerCrash(worker=0, at=2.0, restart_at=1.0),
            lambda: DeadlinePolicy(deadline=0.0),
            lambda: DeadlinePolicy(deadline=1.0, max_retries=-1),
            lambda: DeadlinePolicy(deadline=1.0, growth=0.5),
            lambda: EstimatorFault(start=0.0, end=1.0, mode="wat"),
            lambda: EstimatorFault(start=0.0, end=1.0, bias=0.0),
            lambda: EstimatorFault(start=0.0, end=1.0, fallback=-1.0),
            lambda: FaultPlan(crashes=("not-a-crash",)),
        ],
    )
    def test_invalid_plans_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"slowdown": []})  # typo'd key

    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"deadlines": [{"deadline": NaN}]}', "deadlines[0]"),
            (
                '{"slowdowns": [{"worker": 0, "start": 0, "end": 1, "factor": NaN}]}',
                "slowdowns[0]",
            ),
            ('{"estimator_faults": [{"start": NaN, "end": 1}]}', "estimator_faults[0]"),
            ('{"deadlines": [{"deadline": 1, "max_retries": 1.5}]}', "deadlines[0]"),
            ('{"crashes": [{"worker": 0, "at": 1}, {"worker": 0, "at": 1, "x": 2}]}',
             "crashes[1]"),
            ('{"crashes": [{"worker": 0}]}', "crashes[0]"),
            ('{"crashes": [3]}', "crashes[0]"),
            ("[]", "must be an object"),
            ('{"seed": "x"}', "seed"),
        ],
        ids=[
            "nan-deadline", "nan-factor", "nan-start", "fractional-retries",
            "unknown-field", "missing-field", "non-object-entry",
            "top-level-list", "string-seed",
        ],
    )
    def test_bad_plan_files_fail_at_load_naming_the_entry(self, tmp_path, text, where):
        path = tmp_path / "plan.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=re.escape(where)):
            FaultPlan.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FaultPlan.load(tmp_path / "nope.json")

    def test_committed_chaos_plan_loads(self):
        # The canned plan the CI chaos job feeds to --faults.
        plan = FaultPlan.load(CHAOS_PLAN)
        assert not plan.is_empty
        assert plan.crashes and plan.slowdowns


class TestWorkerFaults:
    def test_slowdown_stretches_completion_piecewise(self):
        # 0.2s at speed 1, then 0.5s at speed 0.5 (0.25 units), leaving
        # 0.55 units at full speed: completion at 0.2+0.5+0.55 = 1.25.
        plan = FaultPlan(
            slowdowns=(WorkerSlowdown(worker=0, start=0.2, end=0.7, factor=0.5),)
        )
        sim, _, server, injector = make_server(plan)
        request = Request(tenant_id="A", cost=1.0)
        sim.at(0.0, server.submit, request)
        sim.run(until=5.0)
        assert request.completion_time == pytest.approx(1.25)
        assert server.completed_requests == 1
        assert injector.counts["slowdowns"] == 1

    def test_stall_freezes_progress(self):
        # 0.2 units done, frozen for 0.5s, remaining 0.8: done at 1.5.
        plan = FaultPlan(
            slowdowns=(WorkerSlowdown(worker=0, start=0.2, end=0.7, factor=0.0),)
        )
        sim, _, server, _ = make_server(plan)
        request = Request(tenant_id="A", cost=1.0)
        sim.at(0.0, server.submit, request)
        sim.run(until=0.5)
        # Mid-stall the request is alive but making no progress.
        assert server.service_received("A") == pytest.approx(0.2)
        sim.run(until=5.0)
        assert request.completion_time == pytest.approx(1.5)

    def test_stalled_worker_still_accepts_work(self):
        # A stall is degradation, not death: dispatch lands a request on
        # the stalled worker, which holds it frozen until recovery.
        plan = FaultPlan(
            slowdowns=(WorkerSlowdown(worker=0, start=0.0, end=1.0, factor=0.0),)
        )
        sim, _, server, _ = make_server(plan)
        request = Request(tenant_id="A", cost=1.0)
        sim.at(0.5, server.submit, request)
        sim.run(until=5.0)
        assert request.completion_time == pytest.approx(2.0)

    def test_crash_redispatch_restarts_from_scratch(self):
        # Crash at 0.5 loses 0.5 units of progress; the re-enqueued
        # request waits for the restart at 1.0 and runs in full: done at
        # 2.0, still exactly one completion.
        plan = FaultPlan(crashes=(WorkerCrash(worker=0, at=0.5, restart_at=1.0),))
        sim, _, server, injector = make_server(plan)
        request = Request(tenant_id="A", cost=1.0)
        sim.at(0.0, server.submit, request)
        sim.run(until=5.0)
        assert request.completion_time == pytest.approx(2.0)
        assert server.completed_requests == 1
        assert server.completed_cost("A") == pytest.approx(1.0)
        assert injector.counts["crashes"] == 1
        assert injector.counts["restarts"] == 1

    def test_crash_without_redispatch_drops_request(self):
        plan = FaultPlan(
            crashes=(
                WorkerCrash(worker=0, at=0.5, restart_at=1.0, redispatch=False),
            )
        )
        sim, _, server, _ = make_server(plan)
        request = Request(tenant_id="A", cost=1.0)
        sim.at(0.0, server.submit, request)
        sim.run(until=5.0)
        assert request.phase == RequestPhase.CANCELLED
        assert server.completed_requests == 0

    def test_crash_moves_work_to_surviving_worker(self):
        # Two workers; the crashed worker's request re-enters the
        # scheduler and runs on the survivor once it frees up.
        plan = FaultPlan(crashes=(WorkerCrash(worker=1, at=0.25),))
        sim, _, server, _ = make_server(plan, workers=2)
        a = Request(tenant_id="A", cost=1.0)
        b = Request(tenant_id="B", cost=1.0)
        sim.at(0.0, server.submit, a)  # descending dispatch: worker 1
        sim.at(0.0, server.submit, b)  # worker 0
        sim.run(until=5.0)
        assert server.completed_requests == 2
        # B ran [0,1] on worker 0; A restarted there afterwards.
        assert b.completion_time == pytest.approx(1.0)
        assert a.completion_time == pytest.approx(2.0)

    def test_plan_for_larger_pool_skips_missing_workers(self):
        plan = FaultPlan(
            slowdowns=(WorkerSlowdown(worker=5, start=0.1, end=0.2, factor=0.0),),
            crashes=(WorkerCrash(worker=9, at=0.1),),
        )
        sim, _, server, injector = make_server(plan)
        request = Request(tenant_id="A", cost=1.0)
        sim.at(0.0, server.submit, request)
        sim.run(until=5.0)
        assert request.completion_time == pytest.approx(1.0)
        assert injector.counts["crashes"] == 0

    def test_fault_events_traced(self):
        tracer = Tracer("faulted")
        plan = FaultPlan(
            slowdowns=(WorkerSlowdown(worker=0, start=0.2, end=0.4, factor=0.5),),
            crashes=(WorkerCrash(worker=0, at=0.6, restart_at=0.8),),
        )
        sim, _, server, _ = make_server(plan, tracer=tracer)
        sim.at(0.0, server.submit, Request(tenant_id="A", cost=2.0))
        sim.run(until=5.0)
        faults = [e.data["fault"] for e in tracer.of_kind("fault")]
        assert faults == [
            "slowdown_begin",
            "slowdown_end",
            "worker_crash",
            "worker_restart",
        ]
        snap = tracer.registry.snapshot()
        assert snap["faults.worker_crash"] == 1
        assert snap["faults.slowdown_begin"] == 1


class TestDeadlines:
    def policy(self, **overrides):
        base = dict(
            deadline=1.1, max_retries=1, backoff=0.5, growth=2.0,
            jitter=0.0, tenants=("T",),
        )
        base.update(overrides)
        return FaultPlan(deadlines=(DeadlinePolicy(**base),))

    def test_queued_expiry_retries_and_succeeds(self):
        # R2 misses its 1.1s deadline stuck behind a 1.2s request,
        # retries 0.5s later (backoff * growth^0, no jitter) and runs on
        # the by-then-idle worker: completion at 1.6 + 1.0 = 2.6.
        sim, _, server, injector = make_server(self.policy())
        slow = Request(tenant_id="SLOW", cost=1.2)
        timed = Request(tenant_id="T", cost=1.0)
        sim.at(0.0, server.submit, slow)
        sim.at(0.0, server.submit, timed)
        sim.run(until=10.0)
        assert timed.completion_time == pytest.approx(2.6)
        assert server.completed_requests == 2
        assert injector.counts["deadline_expiries"] == 1
        assert injector.counts["retries"] == 1
        assert injector.counts["abandoned"] == 0

    def test_exhausted_retries_abandon_and_notify_source(self):
        class FakeSource:
            completed = ()

            def on_request_complete(self, request):
                self.completed += (request,)

        source = FakeSource()
        sim, _, server, injector = make_server(self.policy(max_retries=0))
        slow = Request(tenant_id="SLOW", cost=5.0)
        timed = Request(tenant_id="T", cost=1.0, source=source)
        sim.at(0.0, server.submit, slow)
        sim.at(0.0, server.submit, timed)
        sim.run(until=10.0)
        assert timed.phase == RequestPhase.CANCELLED
        assert source.completed == (timed,)  # closed loop keeps moving
        assert injector.counts["abandoned"] == 1
        assert injector.counts["retries"] == 0
        assert server.completed_requests == 1  # only SLOW

    def test_running_request_torn_off_worker(self):
        tracer = Tracer("deadline")
        sim, _, server, injector = make_server(
            self.policy(max_retries=0), tracer=tracer
        )
        hog = Request(tenant_id="T", cost=5.0)
        nxt = Request(tenant_id="SLOW", cost=1.0)
        sim.at(0.0, server.submit, hog)
        sim.at(0.0, server.submit, nxt)
        sim.run(until=10.0)
        # The hog was aborted mid-run at 1.1; the freed worker picked up
        # the queued request immediately.
        assert hog.phase == RequestPhase.CANCELLED
        assert nxt.completion_time == pytest.approx(2.1)
        (expired,) = [
            e for e in tracer.of_kind("fault")
            if e.data["fault"] == "deadline_expired"
        ]
        assert expired.data["was_running"] is True
        assert expired.tenant == "T"
        assert injector.counts["deadline_expiries"] == 1

    def test_completion_before_deadline_is_not_expired(self):
        sim, _, server, injector = make_server(self.policy())
        quick = Request(tenant_id="T", cost=0.5)
        sim.at(0.0, server.submit, quick)
        sim.run(until=10.0)
        assert quick.completion_time == pytest.approx(0.5)
        assert injector.counts["deadline_expiries"] == 0

    def test_policy_only_applies_to_listed_tenants(self):
        sim, _, server, injector = make_server(self.policy(tenants=("OTHER",)))
        slow = Request(tenant_id="SLOW", cost=1.2)
        timed = Request(tenant_id="T", cost=1.0)
        sim.at(0.0, server.submit, slow)
        sim.at(0.0, server.submit, timed)
        sim.run(until=10.0)
        assert injector.counts["deadline_expiries"] == 0
        assert timed.completion_time == pytest.approx(2.2)


class StubEstimator(CostEstimator):
    name = "stub"

    def __init__(self, value=2.0):
        self.value = value
        self.observed = []

    def estimate(self, request):
        return self.value

    def observe(self, request, actual_cost):
        self.observed.append(actual_cost)


class TestFaultyEstimator:
    def wrap(self, faults, inner=None):
        self.now = 0.0
        inner = inner if inner is not None else StubEstimator()
        return inner, FaultyEstimator(inner, faults, clock=lambda: self.now)

    def test_transparent_outside_windows(self):
        inner, faulty = self.wrap(
            (EstimatorFault(start=1.0, end=2.0, mode="bias", bias=10.0),)
        )
        request = Request(tenant_id="A", cost=1.0)
        assert faulty.estimate(request) == 2.0
        faulty.observe(request, 3.0)
        assert inner.observed == [3.0]

    def test_bias_window_skews_but_keeps_learning(self):
        inner, faulty = self.wrap(
            (EstimatorFault(start=1.0, end=2.0, mode="bias", bias=10.0),)
        )
        request = Request(tenant_id="A", cost=1.0)
        self.now = 1.5
        assert faulty.estimate(request) == pytest.approx(20.0)
        faulty.observe(request, 3.0)
        assert inner.observed == [3.0]  # bias does not lose measurements

    def test_outage_pins_to_explicit_fallback_and_drops_observations(self):
        inner, faulty = self.wrap(
            (EstimatorFault(start=1.0, end=2.0, mode="outage", fallback=9.0),)
        )
        request = Request(tenant_id="A", cost=1.0)
        self.now = 1.5
        assert faulty.estimate(request) == 9.0
        faulty.observe(request, 3.0)
        assert inner.observed == []  # lost during the outage
        assert faulty.dropped_observations == 1
        self.now = 2.0  # window closed: transparent again
        assert faulty.estimate(request) == 2.0

    def test_outage_default_fallback_is_frozen_max_seen(self):
        inner, faulty = self.wrap(
            (EstimatorFault(start=1.0, end=2.0, mode="outage"),)
        )
        request = Request(tenant_id="A", cost=1.0)
        faulty.observe(request, 7.0)  # before the window: passes through
        self.now = 1.2
        assert faulty.estimate(request) == 7.0  # max(seen=7, inner=2)
        faulty.observe(request, 50.0)  # dropped, and must not move the pin
        assert faulty.estimate(request) == 7.0
        assert inner.observed == [7.0]

    def test_reset_clears_fault_state(self):
        _, faulty = self.wrap((EstimatorFault(start=0.0, end=1.0),))
        faulty.observe(Request(tenant_id="A", cost=1.0), 5.0)
        faulty.reset()
        assert faulty.dropped_observations == 0
        assert faulty._frozen == {}

    def test_injector_wires_estimated_scheduler(self):
        plan = FaultPlan(estimator_faults=(EstimatorFault(start=0.5, end=1.0),))
        sim, scheduler, _, _ = make_server(plan, scheduler_name="2dfq-e")
        assert isinstance(scheduler.estimator, FaultyEstimator)

    def test_injector_skips_schedulers_without_estimator(self):
        plan = FaultPlan(estimator_faults=(EstimatorFault(start=0.5, end=1.0),))
        sim, scheduler, _, _ = make_server(plan, scheduler_name="fifo")
        assert not hasattr(scheduler, "estimator")


class TestDifferential:
    def specs(self):
        return [
            TenantSpec(
                tenant_id=t,
                api_costs={"op": FixedCost(c)},
                arrivals=Backlogged(window=2),
            )
            for t, c in (("A", 1.0), ("B", 4.0))
        ]

    def config(self, **overrides):
        base = dict(
            name="faults-diff",
            schedulers=("2dfq", "wfq"),
            num_threads=2,
            thread_rate=1.0,
            duration=3.0,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_empty_plan_is_bit_identical_to_no_plan(self):
        # The tentpole's hot-path contract: an inert plan must not
        # perturb a single float anywhere in the run.
        plain = run_comparison(self.specs(), self.config())
        inert = run_comparison(
            self.specs(), self.config(fault_plan=FaultPlan())
        )
        for name in ("2dfq", "wfq"):
            assert pickle.dumps(plain[name]) == pickle.dumps(inert[name])

    def test_faulted_run_differs_and_completes(self):
        plan = FaultPlan(
            slowdowns=(WorkerSlowdown(worker=0, start=0.5, end=2.0, factor=0.0),)
        )
        plain = run_comparison(self.specs(), self.config())
        faulted = run_comparison(
            self.specs(), self.config(fault_plan=plan)
        )
        assert pickle.dumps(plain["2dfq"]) != pickle.dumps(faulted["2dfq"])

    def test_fault_plan_changes_cache_key_material(self):
        # DESIGN.md §10 purity contract: faulted and fault-free configs
        # canonicalize differently, so they can never collide in the
        # content-addressed run cache.
        plan = FaultPlan(crashes=(WorkerCrash(worker=0, at=1.0),))
        assert canonicalize(self.config()) != canonicalize(
            self.config(fault_plan=plan)
        )

    def test_config_coerces_plan_dicts(self):
        config = self.config(
            fault_plan={"crashes": [{"worker": 0, "at": 1.0}]}
        )
        assert isinstance(config.fault_plan, FaultPlan)
        assert config.fault_plan.crashes[0].worker == 0


def run_crash_example():
    """The tiny 2-tenant 2DFQ run behind the golden crash trace.

    Two unit-rate workers, refresh charging off, A sends three unit-cost
    requests and B two cost-4 requests, all at t=0.  Worker 0 crashes at
    t=1.5 mid-request and restarts at t=4.0.  Caller must reset
    ``repro.core.request._SEQUENCE`` first so seqnos are stable.
    """
    sim = Simulation()
    scheduler = make_scheduler("2dfq", num_threads=2)
    server = ThreadPoolServer(
        sim, scheduler, num_threads=2, rate=1.0, refresh_interval=None
    )
    tracer = Tracer("golden-crash")
    scheduler.attach_tracer(tracer)
    server.attach_tracer(tracer)
    plan = FaultPlan(crashes=(WorkerCrash(worker=0, at=1.5, restart_at=4.0),))
    injector = FaultInjector(server, plan)
    injector.install()
    for tenant, cost in (("A", 1.0), ("B", 4.0), ("A", 1.0), ("B", 4.0), ("A", 1.0)):
        sim.at(0.0, server.submit, Request(tenant_id=tenant, cost=cost))
    sim.run(until=30.0)
    return tracer, server, injector


def write_crash_golden():
    """Regenerate the committed crash trace (intentional changes only)."""
    request_module._SEQUENCE = itertools.count()
    tracer, _, _ = run_crash_example()
    CRASH_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with CRASH_GOLDEN.open("w") as fh:
        for event in tracer.events:
            fh.write(json.dumps(event.as_dict()) + "\n")


class TestGoldenCrashTrace:
    @pytest.fixture(autouse=True)
    def _fresh_seqnos(self, monkeypatch):
        monkeypatch.setattr(request_module, "_SEQUENCE", itertools.count())

    def test_matches_committed_golden_file(self):
        tracer, _, _ = run_crash_example()
        produced = [event.as_dict() for event in tracer.events]
        with CRASH_GOLDEN.open() as fh:
            expected = [json.loads(line) for line in fh]
        assert len(produced) == len(expected)
        for i, (got, want) in enumerate(zip(produced, expected)):
            assert got == want, f"event {i} diverged"

    def test_redispatch_ordering_pinned(self):
        # The crash must read, in stream order: fault(worker_crash
        # naming the interrupted seqno) after a cancel (the refund) and
        # a fresh enqueue of the same seqno at the crash instant, and
        # the request must later dispatch again and complete exactly
        # once.
        tracer, server, injector = run_crash_example()
        (crash,) = [
            e for e in tracer.of_kind("fault")
            if e.data["fault"] == "worker_crash"
        ]
        seqno = crash.data["interrupted"]
        assert seqno is not None and crash.t == pytest.approx(1.5)
        kinds_at_crash = [
            e.kind
            for e in tracer
            if e.t == crash.t and e.data.get("seqno") == seqno
        ]
        # Refund (the vt_update), cancel record, then the re-enqueue.
        assert kinds_at_crash == ["vt_update", "cancel", "enqueue"]
        (refund,) = [
            e for e in tracer.of_kind("vt_update")
            if e.t == crash.t and e.data.get("seqno") == seqno
        ]
        assert refund.data["reason"] == "cancel_refund"
        dispatches = [
            e.t for e in tracer.of_kind("dispatch")
            if e.data["seqno"] == seqno
        ]
        assert len(dispatches) == 2  # original + re-dispatch
        assert dispatches[1] >= crash.t
        completions = [
            e for e in tracer.of_kind("complete")
            if e.data["seqno"] == seqno
        ]
        assert len(completions) == 1
        # Nothing was lost or double-counted across the crash.
        assert server.completed_requests == 5
        assert server.completed_cost("A") == pytest.approx(3.0)
        assert server.completed_cost("B") == pytest.approx(8.0)
        assert injector.counts == {
            "slowdowns": 0,
            "crashes": 1,
            "restarts": 1,
            "deadline_expiries": 0,
            "retries": 0,
            "abandoned": 0,
        }

    def test_golden_covers_fault_and_cancel_kinds(self):
        tracer, _, _ = run_crash_example()
        kinds = {event.kind for event in tracer}
        assert {"enqueue", "select", "dispatch", "complete",
                "cancel", "fault", "vt_update"} <= kinds
