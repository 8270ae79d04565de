"""The runtime invariant watchdog (repro.validate).

Mutation tests: deliberately broken scheduler subclasses must be caught
by :class:`ValidatingScheduler` with the right violation code, full
event context, and an ``invariant`` trace event through repro.obs.  A
clean scheduler driven through a full simulated run must produce zero
violations -- and, results-wise, the watchdog must be invisible.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import make_scheduler
from repro.core.request import Request
from repro.core.twodfq import TwoDFQEScheduler, TwoDFQScheduler
from repro.errors import InvariantViolation
from repro.experiments import ExperimentConfig, run_comparison
from repro.obs import Tracer
from repro.validate import ValidatingScheduler, env_validate
from repro.workloads.distributions import FixedCost
from repro.workloads.arrivals import Backlogged
from repro.workloads.spec import TenantSpec

from conftest import force_selection


# -- deliberately broken schedulers (the mutants) ----------------------------


class OvercountingScheduler(TwoDFQScheduler):
    """Forgets that it already counted: backlog runs away."""

    def enqueue(self, request, now):
        super().enqueue(request, now)
        self._size += 1  # the seeded bug


class LazyScheduler(TwoDFQScheduler):
    """Refuses work while requests are queued (not work conserving)."""

    def dequeue(self, thread_id, now):
        return None


class DoubleDispatchScheduler(TwoDFQScheduler):
    """Hands the same request out twice."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._again = None

    def dequeue(self, thread_id, now):
        if self._again is not None:
            request, self._again = self._again, None
            return request
        request = super().dequeue(thread_id, now)
        self._again = request
        return request


class ShortchargingScheduler(TwoDFQScheduler):
    """Completes requests without reconciling the full cost."""

    def complete(self, request, usage, now):
        super().complete(request, usage, now)
        request.reported_usage = request.cost * 0.5  # the seeded bug


class RewindingScheduler(TwoDFQScheduler):
    """Drags system virtual time backwards when it cancels."""

    def cancel(self, request, now):
        cancelled = super().cancel(request, now)
        self._clock._value -= 1.0  # the seeded bug
        return cancelled


def without_touch(cls, method_name):
    """A subclass whose ``method_name`` skips the head-key invalidation
    (``_touch``) it would otherwise make."""
    method = getattr(cls, method_name)

    def mutated(self, *args):
        self._touch = lambda state: None  # shadows the bound method
        try:
            return method(self, *args)
        finally:
            del self._touch

    return type(f"Stale{method_name.strip('_').title()}", (cls,), {method_name: mutated})


def drive_two(scheduler, now=0.0):
    a = Request(tenant_id="A", cost=1.0)
    b = Request(tenant_id="B", cost=4.0)
    scheduler.enqueue(a, now)
    scheduler.enqueue(b, now)
    return a, b


class TestMutants:
    def test_overcounting_caught_as_backlog_consistency(self):
        watched = ValidatingScheduler(OvercountingScheduler(num_threads=1))
        with pytest.raises(InvariantViolation) as excinfo:
            watched.enqueue(Request(tenant_id="A", cost=1.0), 0.0)
        assert excinfo.value.code == "backlog-consistency"
        assert excinfo.value.context["op"] == "enqueue"
        assert excinfo.value.context["tenant"] == "A"

    def test_lazy_scheduler_caught_as_work_conservation(self):
        watched = ValidatingScheduler(LazyScheduler(num_threads=1))
        drive_two(watched)
        with pytest.raises(InvariantViolation) as excinfo:
            watched.dequeue(0, 0.0)
        assert excinfo.value.code == "work-conservation"
        assert excinfo.value.context["thread"] == 0

    def test_double_dispatch_caught_as_duplicate(self):
        watched = ValidatingScheduler(DoubleDispatchScheduler(num_threads=2))
        drive_two(watched)
        first = watched.dequeue(0, 0.0)
        assert first is not None
        with pytest.raises(InvariantViolation) as excinfo:
            watched.dequeue(1, 0.0)
        assert excinfo.value.code == "no-duplicate-requests"
        assert excinfo.value.context["seqno"] == first.seqno

    def test_shortcharging_caught_as_charge_reconciliation(self):
        watched = ValidatingScheduler(ShortchargingScheduler(num_threads=1))
        a, _ = drive_two(watched)
        request = watched.dequeue(0, 0.0)
        with pytest.raises(InvariantViolation) as excinfo:
            watched.complete(request, request.cost, 1.0)
        assert excinfo.value.code == "charge-reconciliation"

    def test_rewinding_cancel_caught_as_vt_monotonic(self):
        # No scheduler may lower virtual time, a cancel refund included.
        watched = ValidatingScheduler(RewindingScheduler(num_threads=1))
        _, b = drive_two(watched)
        watched.dequeue(0, 0.0)
        with pytest.raises(InvariantViolation) as excinfo:
            watched.cancel(b, 1.0)
        assert excinfo.value.code == "vt-monotonic"
        assert excinfo.value.context["op"] == "cancel"

    def test_foreign_complete_caught_as_lost_request(self):
        inner = TwoDFQScheduler(num_threads=1)
        watched = ValidatingScheduler(inner)
        drive_two(watched)
        watched.dequeue(0, 0.0)
        never_dispatched = Request(tenant_id="A", cost=1.0)
        never_dispatched.phase = never_dispatched.phase  # untouched
        with pytest.raises(InvariantViolation) as excinfo:
            watched.refresh(never_dispatched, 0.5, 0.5)
        assert excinfo.value.code == "no-lost-requests"

    def test_non_strict_records_and_reports_via_obs(self):
        # strict=False: violations collect instead of raising, and each
        # one lands in the trace stream with its context.
        watched = ValidatingScheduler(
            OvercountingScheduler(num_threads=1), strict=False
        )
        tracer = Tracer("mutant-run")
        watched.attach_tracer(tracer)
        watched.enqueue(Request(tenant_id="A", cost=1.0), 0.0)
        assert len(watched.violations) == 1
        record = watched.violations[0]
        assert record["code"] == "backlog-consistency"
        (event,) = tracer.of_kind("invariant")
        assert event.data["code"] == "backlog-consistency"
        assert event.data["op"] == "enqueue"
        assert event.tenant == "A"
        assert tracer.registry.snapshot()["validate.violations"] == 1
        summary = watched.summary()
        assert summary["violations"] == 1
        assert summary["codes"] == ["backlog-consistency"]
        assert summary["strict"] is False


def prime_head_keys(scheduler):
    """A's first request runs, B's runs next; the second dequeue's scan
    caches A's head key for ``a2`` (estimate 1 under the pessimistic
    estimator, true costs 4)."""
    a1, a2, a3 = (Request(tenant_id="A", cost=4.0, api="x") for _ in range(3))
    for request in (a1, a2, a3, Request(tenant_id="B", cost=1.0, api="x")):
        scheduler.enqueue(request, 0.0)
    assert scheduler.dequeue(0, 0.0) is a1
    assert scheduler.dequeue(0, 0.0).tenant_id == "B"
    return a1, a2


#: Invalidation site -> (the contract call that must trip, the step
#: after priming that exercises the site).
INVALIDATIONS = {
    "dequeue": ("dequeue", lambda w, a1, a2: None),
    "refresh": ("refresh", lambda w, a1, a2: w.refresh(a1, 2.0, 1.0)),
    "complete": ("complete", lambda w, a1, a2: w.complete(a1, 4.0, 4.0)),
    "_cancel_running": ("cancel", lambda w, a1, a2: w.cancel(a1, 1.0)),
    "_cancel_queued": ("cancel", lambda w, a1, a2: w.cancel(a2, 1.0)),
}


class TestHeadKeyCoherence:
    @pytest.mark.parametrize("method", sorted(INVALIDATIONS))
    def test_missed_invalidation_caught(self, method):
        op, step = INVALIDATIONS[method]
        mutant = force_selection(
            without_touch(TwoDFQEScheduler, method)(num_threads=1), False
        )
        watched = ValidatingScheduler(mutant)
        with pytest.raises(InvariantViolation) as excinfo:
            a1, a2 = prime_head_keys(watched)
            step(watched, a1, a2)
        assert excinfo.value.code == "head-key-coherence"
        assert excinfo.value.context["op"] == op
        assert excinfo.value.context["tenant"] == "A"

    @pytest.mark.parametrize("method", sorted(INVALIDATIONS))
    def test_clean_scheduler_passes_the_same_steps(self, method):
        _, step = INVALIDATIONS[method]
        watched = ValidatingScheduler(
            force_selection(TwoDFQEScheduler(num_threads=1), False), audit_interval=1
        )
        a1, a2 = prime_head_keys(watched)
        step(watched, a1, a2)
        assert watched.violations == []

    def test_audit_checks_every_backlogged_tenant(self):
        inner = force_selection(TwoDFQEScheduler(num_threads=1), False)
        watched = ValidatingScheduler(inner, audit_interval=1)
        prime_head_keys(watched)
        state = inner.tenant_state("A")
        finish, estimate, seqno = state.head_key
        state.head_key = (finish + 1.0, estimate, seqno)
        # The call names tenant C; only the audit looks at A.
        with pytest.raises(InvariantViolation) as excinfo:
            watched.enqueue(Request(tenant_id="C", cost=1.0), 0.5)
        assert excinfo.value.code == "head-key-coherence"
        assert excinfo.value.context["tenant"] == "A"


class TestCleanRuns:
    def test_watchdog_clean_on_every_scheduler(self):
        from repro.core import scheduler_names

        for name in scheduler_names():
            watched = ValidatingScheduler(
                make_scheduler(name, num_threads=2), audit_interval=1
            )
            requests = [
                Request(tenant_id=t, cost=c)
                for t, c in (("A", 1.0), ("B", 4.0), ("A", 2.0), ("C", 0.5))
            ]
            for r in requests:
                watched.enqueue(r, 0.0)
            watched.cancel(requests[2], 0.0)
            now = 0.0
            running = [watched.dequeue(0, now), watched.dequeue(1, now)]
            watched.refresh(running[0], 0.25, 0.25)
            for r in running:
                now += r.cost
                watched.complete(r, r.cost, now)
            last = watched.dequeue(0, now)
            watched.cancel(last, now)
            assert watched.violations == [], name
            assert watched.summary()["checked_ops"] > 0

    def test_watchdog_is_invisible_in_results(self):
        # A full simulated comparison with validate=True must produce
        # byte-identical metrics to the unwatched run.
        specs = [
            TenantSpec(
                tenant_id=t,
                api_costs={"op": FixedCost(costs[0])},
                arrivals=Backlogged(window=2),
            )
            for t, costs in (("A", (1.0,)), ("B", (4.0,)))
        ]
        config = ExperimentConfig(
            name="watchdog-diff",
            schedulers=("2dfq", "wfq", "round-robin"),
            num_threads=2,
            thread_rate=1.0,
            duration=3.0,
        )
        import dataclasses

        plain = run_comparison(specs, config)
        watched = run_comparison(
            specs, dataclasses.replace(config, validate=True)
        )
        for name in config.schedulers:
            assert pickle.dumps(plain[name]) == pickle.dumps(watched[name])


class TestEnvSwitch:
    def test_env_validate_parses_common_values(self, monkeypatch):
        for value, expected in (
            ("", False), ("0", False), ("false", False), ("no", False),
            ("1", True), ("true", True), ("yes", True), ("on", True),
        ):
            monkeypatch.setenv("REPRO_VALIDATE", value)
            assert env_validate() is expected, value
        monkeypatch.delenv("REPRO_VALIDATE")
        assert env_validate() is False

    def test_env_validate_wraps_runner(self, monkeypatch):
        # REPRO_VALIDATE=1 + a seeded mutant must blow up a run_single.
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        import repro.core.registry as registry

        monkeypatch.setitem(
            registry._FACTORIES, "2dfq", OvercountingScheduler
        )
        specs = [
            TenantSpec(
                tenant_id="A",
                api_costs={"op": FixedCost(1.0)},
                arrivals=Backlogged(window=1),
            )
        ]
        config = ExperimentConfig(
            name="env-validate",
            schedulers=("2dfq",),
            num_threads=1,
            thread_rate=1.0,
            duration=1.0,
        )
        from repro.experiments import run_single

        with pytest.raises(InvariantViolation):
            run_single("2dfq", specs, config)
