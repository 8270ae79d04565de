"""Differential tests: indexed selection == linear-scan selection.

The O(log N) selection index (repro.core.selection) must be
*dispatch-for-dispatch identical* to the reference linear scans -- same
tenants, same order, on every scheduler, under both estimator families.
These tests run the two modes side by side:

* on seeded Azure-like workloads through the real simulator (server,
  refresh charging, open-loop arrival traces);
* on seeded random workloads (random weights, arrival times, APIs and
  costs) through a direct scheduler driver with interleaved refreshes --
  a property-style loop over many seeds and every indexed scheduler;
* traced, comparing whole decision-event streams -- which pins the
  index's eligibility counts (the ``eligible`` field of ``select``
  events) against the linear scans, across adaptive index activation
  and teardown, up to the 32-thread pools the production cells run;
* with running requests cancelled mid-run.
"""

from __future__ import annotations

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.request as request_module
from repro.core import make_scheduler
from repro.core.request import Request
from repro.obs import Tracer
from repro.obs.events import row_as_dict
from repro.simulator import BackloggedSource
from repro.simulator.clock import Simulation
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.workloads.azure import random_tenants
from repro.workloads.build import attach_specs

from conftest import build_scheduler

#: Every virtual-time scheduler with an indexed path, covering all three
#: estimator families: oracle (plain names), pessimistic (2dfq-e), and
#: EMA (wf2q-e).
INDEXED_SCHEDULERS = ["wfq", "sfq", "wf2q", "msf2q", "2dfq", "2dfq-e", "wf2q-e"]


# ---------------------------------------------------------------------------
# Direct driver: deterministic quantized event loop with refresh charging
# ---------------------------------------------------------------------------


def drive_trace(scheduler, requests, num_threads, rate=10.0, refresh_every=3):
    """Run a list of timed requests to completion, returning the dispatch
    order as trace indices.  Completions are reported in (end-time,
    seqno) order; every ``refresh_every`` steps the running requests
    report interim usage, exercising refresh charging."""
    arrivals = deque(requests)
    busy = {}  # thread -> [end, last_report, request]
    order = []
    index_of = {id(request): i for i, (_, request) in enumerate(requests)}
    now, step, steps = 0.0, 0.05, 0
    while arrivals or scheduler.backlog > 0 or busy:
        done = sorted(
            (entry[0], entry[2].seqno, thread)
            for thread, entry in busy.items()
            if entry[0] <= now
        )
        for end, _, thread in done:
            request = busy.pop(thread)[2]
            scheduler.complete(request, (end - now) * rate + 0.0, end)
        while arrivals and arrivals[0][0] <= now:
            _, request = arrivals.popleft()
            scheduler.enqueue(request, now)
        if steps % refresh_every == 0:
            for thread in sorted(busy):
                entry = busy[thread]
                usage = (now - entry[1]) * rate
                if usage > 0.0:
                    scheduler.refresh(entry[2], usage, now)
                    entry[1] = now
        for thread in range(num_threads):
            if thread not in busy and scheduler.backlog > 0:
                request = scheduler.dequeue(thread, now)
                busy[thread] = [now + request.cost / rate, now, request]
                order.append(index_of[id(request)])
        now += step
        steps += 1
        assert steps < 500_000, "driver failed to converge"
    return order


def random_timed_requests(seed, num_tenants=6, count=150):
    """Seeded (arrival_time, Request) list with random weights, APIs,
    costs, and bursty arrival times."""
    rng = make_rng(seed, "differential")
    weights = {
        f"T{i}": float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        for i in range(num_tenants)
    }
    requests = []
    now = 0.0
    for _ in range(count):
        now += float(rng.exponential(0.08))
        tenant = f"T{int(rng.integers(num_tenants))}"
        requests.append(
            (
                now,
                Request(
                    tenant_id=tenant,
                    cost=float(10.0 ** rng.uniform(-0.5, 2.0)),
                    api=str(rng.choice(["A", "B", "G"])),
                    weight=weights[tenant],
                ),
            )
        )
    return requests


def rebuild(requests):
    """Fresh Request objects for the second run (requests are mutated
    in place by the scheduler, and seqnos must be re-issued in the same
    relative order)."""
    return [
        (
            t,
            Request(
                tenant_id=r.tenant_id, cost=r.cost, api=r.api, weight=r.weight
            ),
        )
        for t, r in requests
    ]


class TestDifferentialDirect:
    @pytest.mark.parametrize("name", INDEXED_SCHEDULERS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_indexed_matches_linear_scan(self, name, seed):
        trace = random_timed_requests(seed)
        linear = make_scheduler(name, num_threads=3, thread_rate=10.0, indexed=False)
        indexed = make_scheduler(name, num_threads=3, thread_rate=10.0, indexed=True)
        assert not linear.indexed and indexed.indexed
        order_linear = drive_trace(linear, rebuild(trace), num_threads=3)
        order_indexed = drive_trace(indexed, rebuild(trace), num_threads=3)
        assert order_linear == order_indexed
        assert len(order_linear) == len(trace)

    @pytest.mark.parametrize("name", ["2dfq", "wf2q", "sfq-e", "msf2q-e"])
    def test_single_thread_and_many_threads(self, name):
        """Edge pool shapes: one thread (stagger degenerate) and more
        threads than tenants."""
        for num_threads in (1, 8):
            trace = random_timed_requests(11, num_tenants=4, count=80)
            runs = []
            for indexed in (False, True):
                s = build_scheduler(
                    name, num_threads=num_threads, thread_rate=10.0, indexed=indexed
                )
                runs.append(drive_trace(s, rebuild(trace), num_threads=num_threads))
            assert runs[0] == runs[1]


class TestDifferentialAzureSimulator:
    """Side-by-side runs through the real simulator on seeded Azure-like
    open-loop workloads (refresh charging on, trace arrivals)."""

    def _dispatch_sequence(self, scheduler_name, indexed, seed):
        sim = Simulation()
        num_threads, rate = 4, 2.0e5
        scheduler = make_scheduler(
            scheduler_name,
            num_threads=num_threads,
            thread_rate=rate,
            indexed=indexed,
        )
        server = ThreadPoolServer(
            sim, scheduler, num_threads=num_threads, rate=rate, refresh_interval=0.01
        )
        dispatches = []
        server.on_dispatch(
            lambda r: dispatches.append(
                (r.tenant_id, r.api, r.cost, r.arrival_time, r.thread_id)
            )
        )
        specs = random_tenants(6, seed=seed)
        attach_specs(server, specs, seed=seed, duration=4.0)
        sim.run(until=4.0)
        return dispatches

    @pytest.mark.parametrize("name", ["2dfq", "2dfq-e", "wf2q", "wfq", "wf2q-e"])
    def test_identical_dispatch_sequences(self, name):
        linear = self._dispatch_sequence(name, indexed=False, seed=42)
        indexed = self._dispatch_sequence(name, indexed=True, seed=42)
        assert len(linear) > 100, "workload too small to be meaningful"
        assert linear == indexed


class TestIndexMechanics:
    def test_heap_sizes_stay_bounded(self):
        """Lazy invalidation must not leak: after many dispatch cycles
        the heaps -- including ready heaps holding copies their tenants
        have since moved below -- stay O(backlogged tenants), not
        O(total dispatches)."""
        for num_threads in (4, 16):
            s = make_scheduler("2dfq", num_threads=num_threads, thread_rate=1.0)
            num_tenants = 50
            for i in range(num_tenants):
                for _ in range(2):
                    s.enqueue(Request(tenant_id=f"t{i}", cost=1.0 + i % 3), 0.0)
            now = 0.0
            for i in range(5000):
                now += 1e-3
                out = s.dequeue(i % num_threads, now)
                s.complete(out, out.cost, now)
                s.enqueue(Request(tenant_id=out.tenant_id, cost=out.cost), now)
            sizes = s.selection_index.heap_sizes()
            assert "gate" in sizes and f"ready[{num_threads - 1}]" in sizes
            for heap_name, size in sizes.items():
                assert size <= 8 * num_tenants + 256, (num_threads, heap_name, sizes)

    def test_stagger_churn_stays_constant_per_touch(self):
        """2DFQ's staggered eligibility costs a few heap pushes per
        touch on any thread count, not one cascade step per slot: 100
        closed-loop tenants (half of them 1000x more expensive) on 16
        threads, the Figure 8a shape."""
        sim = Simulation()
        scheduler = make_scheduler("2dfq", 16, thread_rate=1000.0, indexed=True)
        server = ThreadPoolServer(sim, scheduler, num_threads=16, rate=1000.0)
        for i in range(50):
            BackloggedSource(server, f"E{i}", lambda: ("big", 1000.0)).start()
            BackloggedSource(server, f"S{i}", lambda: ("small", 1.0)).start()
        sim.run(until=2.0)
        stats = scheduler.selection_index.stats()
        assert stats["touches"] > 10_000
        assert stats["pushes"] / stats["touches"] <= 4, stats

    def test_lower_slot_after_higher_slot_matches_linear(self):
        """Querying a high stagger slot drains the gate heap to the
        threshold; every lower slot queried afterwards at the same
        threshold must still see exactly the linear scan's choice."""
        num_threads = 8
        trace = random_timed_requests(7, num_tenants=40, count=400)
        linear = make_scheduler("2dfq", num_threads, thread_rate=10.0, indexed=False)
        indexed = make_scheduler("2dfq", num_threads, thread_rate=10.0, indexed=True)
        runs = [(linear, rebuild(trace)), (indexed, rebuild(trace))]
        index = indexed.selection_index
        checked = 0
        for step in range(len(trace)):
            now = trace[step][0]
            for scheduler, requests in runs:
                scheduler.enqueue(requests[step][1], now)
            if step % 3:
                continue
            vnow = linear.virtual_time(now)
            assert indexed.virtual_time(now) == vnow
            threshold = indexed._eligibility_threshold(vnow)
            for slot in range(num_threads - 1, -1, -1):
                want = linear._select(slot, vnow)
                got = index.min_eligible_finish(slot, threshold)
                assert (got and got.tenant_id) == (want and want.tenant_id), (step, slot)
                checked += want is not None
            for scheduler, _ in runs:
                out = scheduler.dequeue(step % num_threads, now)
                scheduler.complete(out, out.cost, now)
        assert checked > 100

    def test_linear_only_subclass_still_works(self):
        """External subclasses that only override _select get the linear
        path -- no index is built, and behaviour is unchanged."""
        from repro.core import TenantState, VirtualTimeScheduler

        class MySched(VirtualTimeScheduler):
            name = "my-sched"

            def _select(self, thread_id, vnow):
                return self._min_finish(self._backlogged.values())

        s = MySched(num_threads=1)
        assert not s.indexed
        s.enqueue(Request(tenant_id="A", cost=1.0), 0.0)
        s.enqueue(Request(tenant_id="B", cost=2.0), 0.0)
        assert s.dequeue(0, 0.0).tenant_id == "A"
        assert s.dequeue(0, 0.0).tenant_id == "B"

    def test_indexed_flag_default_and_off(self):
        # Default is adaptive: the index only materializes once the
        # backlog crosses AUTO_INDEX_HIGH.
        auto = make_scheduler("wf2q", num_threads=2)
        assert auto.selection_mode == "auto"
        assert not auto.indexed
        forced = make_scheduler("wf2q", num_threads=2, indexed=True)
        assert forced.selection_mode == "indexed"
        assert forced.indexed
        linear = make_scheduler("wf2q", num_threads=2, indexed=False)
        assert linear.selection_mode == "linear"
        assert not linear.indexed


def ramped_trace(seed, num_tenants=40, bursts=2, per_burst=80, max_exponent=1.0):
    """Bursty trace engineered to cross both adaptive thresholds: each
    burst backs up every tenant at once (backlog >> AUTO_INDEX_HIGH),
    then a long silence lets the pool drain below AUTO_INDEX_LOW."""
    rng = make_rng(seed, "adaptive-ramp")
    requests = []
    now = 0.0
    for _ in range(bursts):
        for i in range(per_burst):
            requests.append(
                (
                    now,
                    Request(
                        tenant_id=f"T{i % num_tenants}",
                        cost=float(10.0 ** rng.uniform(-0.5, max_exponent)),
                        api=str(rng.choice(["A", "B"])),
                    ),
                )
            )
        now += 60.0
    return requests


class TestAdaptiveSelection:
    """The ``indexed="auto"`` default: linear below the crossover, the
    O(log N) index above, with hysteresis between the two thresholds."""

    def test_activation_and_deactivation_edges(self):
        s = make_scheduler("2dfq", num_threads=4, thread_rate=10.0)
        high, low = type(s).AUTO_INDEX_HIGH, type(s).AUTO_INDEX_LOW
        assert high > low > 0
        for i in range(high - 1):
            s.enqueue(Request(tenant_id=f"t{i}", cost=1.0), 0.0)
        assert not s.indexed  # one short of the rising edge
        s.enqueue(Request(tenant_id=f"t{high - 1}", cost=1.0), 0.0)
        assert s.indexed  # exactly HIGH backlogged tenants
        # Deeper enqueues on an existing tenant never re-test anything.
        s.enqueue(Request(tenant_id="t0", cost=1.0), 0.0)
        assert s.indexed
        # Drain: hysteresis keeps the index alive until the backlog
        # falls to LOW *at dequeue entry*.
        now, i = 0.0, 0
        while len(s._backlogged) > low:
            request = s.dequeue(i % 4, now)
            s.complete(request, request.cost, now)
            now += 0.2
            i += 1
        assert s.indexed  # at LOW+0: the falling edge fires on dequeue
        request = s.dequeue(i % 4, now)
        s.complete(request, request.cost, now)
        assert not s.indexed
        assert s.selection_mode == "auto"
        # Re-activation from scratch on the next rising edge.
        for j in range(2 * high):
            s.enqueue(Request(tenant_id=f"r{j}", cost=1.0), now)
        assert s.indexed

    @pytest.mark.parametrize("name", ["2dfq", "wf2q", "2dfq-e"])
    def test_auto_identical_across_transitions(self, name):
        """A trace that ramps the backlog over HIGH and back under LOW
        (twice) dispatches identically in all three selection modes --
        and the auto run really does transition both ways."""
        trace = ramped_trace(5)
        orders = {}
        transitions = []
        for mode in (False, True, "auto"):
            s = make_scheduler(
                name, num_threads=4, thread_rate=10.0, indexed=mode
            )
            if mode == "auto":
                real_activate = s._activate_index

                def spy():
                    transitions.append("up")
                    real_activate()

                s._activate_index = spy
            orders[mode] = drive_trace(s, rebuild(trace), num_threads=4)
            if mode == "auto":
                assert not s.indexed  # drained => torn back down
        assert orders[False] == orders[True] == orders["auto"]
        assert len(orders[False]) == len(trace)
        assert len(transitions) >= 2, "auto mode never activated"


def traced_stream(name, mode, trace, num_threads):
    """Decision events of one traced run, flattened, each ``select``
    without its ``indexed`` field (the one field the modes may differ
    in); plus the ``indexed`` values seen."""
    saved = request_module._SEQUENCE
    request_module._SEQUENCE = itertools.count()  # same seqnos every run
    try:
        requests = rebuild(trace)
    finally:
        request_module._SEQUENCE = saved
    scheduler = make_scheduler(
        name, num_threads=num_threads, thread_rate=10.0, indexed=mode
    )
    tracer = Tracer(f"{name}-{mode}")
    scheduler.attach_tracer(tracer)
    scheduler.estimator.attach_tracer(tracer)
    drive_trace(scheduler, requests, num_threads=num_threads)
    events = [row_as_dict(row) for row in tracer.rows]
    indexed = {event.pop("indexed") for event in events if event["kind"] == "select"}
    return events, indexed


def assert_streams_identical(name, trace, num_threads):
    streams = {
        mode: traced_stream(name, mode, trace, num_threads)
        for mode in (False, True, "auto")
    }
    linear, _ = streams[False]
    assert streams[False][1] == {False}
    for mode in (True, "auto"):
        events, _ = streams[mode]
        assert len(events) == len(linear)
        for i, (got, want) in enumerate(zip(events, linear)):
            assert got == want, f"{name} indexed={mode!r}: event {i} diverged"
    return streams


class TestTracedDifferential:
    """Indexed and adaptive runs emit the linear run's event stream.

    ``eligible`` comes from :meth:`SelectionIndex.eligible_count` on the
    index and from a backlog scan on the linear path, so this is the
    test that pins the gate histogram."""

    @pytest.mark.parametrize("name", INDEXED_SCHEDULERS)
    def test_event_rows_identical_across_transitions(self, name):
        streams = assert_streams_identical(name, ramped_trace(5), num_threads=4)
        assert streams[True][1] == {True}
        assert streams["auto"][1] == {False, True}, "auto never switched paths"

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(INDEXED_SCHEDULERS),
        num_tenants=st.integers(2, 48),
        num_threads=st.integers(1, 6),
        max_exponent=st.sampled_from([0.0, 1.0, 2.5]),
        seed=st.integers(0, 2**16),
    )
    def test_event_rows_identical_sweep(
        self, name, num_tenants, num_threads, max_exponent, seed
    ):
        trace = ramped_trace(
            seed,
            num_tenants=num_tenants,
            per_burst=2 * num_tenants,
            max_exponent=max_exponent,
        )
        assert_streams_identical(name, trace, num_threads)

    @pytest.mark.parametrize(
        "name,num_threads", itertools.product(["2dfq", "2dfq-e"], [16, 32])
    )
    def test_event_rows_identical_at_cell_thread_counts(self, name, num_threads):
        """The shipped cells run 2DFQ on 16 (``expensive``) and 32
        (``unpredictable``, ``production``) threads, far past the
        sweep's 1-6: the gate heap must agree with the linear scan
        there too, ``eligible`` counts included."""
        trace = ramped_trace(
            num_threads, num_tenants=64, per_burst=256, max_exponent=2.0
        )
        streams = assert_streams_identical(name, trace, num_threads)
        assert streams["auto"][1] == {False, True}, "auto never switched paths"


def drive_with_cancels(scheduler, seed, num_threads=3, num_tenants=41, steps=400):
    """Seeded random arrivals (costs 0.1-20) on ``num_threads`` threads,
    cancelling a random running request on 15% of the steps; returns
    the dispatch order as ``(tenant, seqno relative to the first)``."""
    rng = make_rng(seed, "cancel-differential")
    rate = 10.0
    busy = {}  # thread -> (end, request)
    order = []
    now = 0.0
    for _ in range(steps):
        now += 0.05
        for thread in sorted(busy):
            end, request = busy[thread]
            if end <= now:
                del busy[thread]
                scheduler.complete(request, request.cost, now)
        for _ in range(int(rng.integers(0, 3))):
            scheduler.enqueue(
                Request(
                    tenant_id=f"T{int(rng.integers(num_tenants))}",
                    cost=float(rng.choice([0.1, 1.0, 5.0, 20.0])),
                ),
                now,
            )
        if busy and rng.random() < 0.15:
            thread = sorted(busy)[int(rng.integers(len(busy)))]
            assert scheduler.cancel(busy.pop(thread)[1], now)
        for thread in range(num_threads):
            if thread not in busy and scheduler.backlog > 0:
                request = scheduler.dequeue(thread, now)
                busy[thread] = (now + request.cost / rate, request)
                order.append((request.tenant_id, request.seqno))
    first = min(seqno for _, seqno in order)
    return [(tenant, seqno - first) for tenant, seqno in order]


class TestCancelDifferential:
    """Cancelling a running request refunds its charge; the index must
    still dispatch exactly like the linear scan."""

    @pytest.mark.parametrize("name", ["msf2q", "2dfq", "wf2q"])
    def test_running_cancels_identical_across_modes(self, name):
        for seed in range(12):
            orders = [
                drive_with_cancels(
                    make_scheduler(name, 3, thread_rate=10.0, indexed=mode), seed
                )
                for mode in (False, True, "auto")
            ]
            assert len(orders[0]) > 100
            assert orders[1] == orders[0], (name, seed, "indexed")
            assert orders[2] == orders[0], (name, seed, "auto")
