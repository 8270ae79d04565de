"""Differential tests: every selection-index pick == the linear scan's.

The scheduler core picks through one sorted list of cached keys
(``repro.core.selection``).  ``tests/reference/linear_selection.py``
recomputes each pick by brute force from the tenants' start tags,
fresh estimates and weights, reading none of the core's caches.
``conftest.check_every_pick`` puts the two side by side on every
``dequeue``: the reference pick is computed first, before the dequeue
mutates anything, and the scheduler must hand out that tenant's head
request.  Covered:

* seeded Azure-like workloads through the real simulator (server,
  refresh charging, open-loop arrival traces);
* seeded random timed requests (random weights, arrival times, APIs and
  costs) through a direct driver with interleaved refreshes, on every
  scheduler and under all three estimator families;
* traced runs at the 16- and 32-thread pools the shipped cells use,
  where each ``select`` row's eligibility count and fallback flag are
  checked too;
* running requests cancelled mid-run;
* a hypothesis property over weights and costs.
"""

from __future__ import annotations

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.request import Request
from repro.core.scheduler import MIN_COST
from repro.errors import SchedulerError
from repro.obs import Tracer
from repro.simulator import BackloggedSource
from repro.simulator.clock import Simulation
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.workloads.azure import random_tenants
from repro.workloads.build import attach_specs

from conftest import build_scheduler, check_every_pick
from reference import linear_selection

#: Virtual-time schedulers covering every stagger x order declaration
#: and all three estimator families: oracle (plain names), pessimistic
#: (2dfq-e), and EMA (wf2q-e); plus the two stagger shapes declared
#: in conftest the way a user would.
INDEXED_SCHEDULERS = [
    "wfq",
    "sfq",
    "wf2q",
    "msf2q",
    "2dfq",
    "2dfq-e",
    "wf2q-e",
    "2dfq-quadratic",
    "2dfq-sqrt",
]


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


def bursty_trace(seed, num_tenants=40, bursts=2, per_burst=80, max_exponent=1.0):
    """Each burst backs up every tenant at once, then a long silence
    drains the pool: the backlog sweeps from empty to every tenant and
    back, twice."""
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


class TestDifferentialDirect:
    @pytest.mark.parametrize("name", INDEXED_SCHEDULERS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_indexed_matches_linear_scan(self, name, seed):
        trace = random_timed_requests(seed)
        scheduler = build_scheduler(name, 3, thread_rate=10.0)
        picks = check_every_pick(scheduler)
        order = drive_trace(scheduler, trace, num_threads=3)
        assert len(order) == len(picks) == len(trace)

    @pytest.mark.parametrize("name", ["2dfq", "wf2q", "sfq-e", "msf2q-e"])
    def test_single_thread_and_many_threads(self, name):
        """Edge pool shapes: one thread (stagger degenerate) and more
        threads than tenants."""
        for num_threads in (1, 8):
            trace = random_timed_requests(11, num_tenants=4, count=80)
            scheduler = build_scheduler(name, num_threads, thread_rate=10.0)
            picks = check_every_pick(scheduler)
            drive_trace(scheduler, trace, num_threads=num_threads)
            assert len(picks) == len(trace)


class TestDifferentialAzureSimulator:
    """Seeded Azure-like open-loop workloads through the real simulator
    (refresh charging on, trace arrivals): the dispatch sequence is the
    linear scan's, pick by pick."""

    @pytest.mark.parametrize(
        "name",
        ["2dfq", "2dfq-e", "wf2q", "wfq", "wf2q-e", "2dfq-quadratic", "2dfq-sqrt"],
    )
    def test_identical_dispatch_sequences(self, name):
        sim = Simulation()
        num_threads, rate = 4, 2.0e5
        scheduler = build_scheduler(name, num_threads, thread_rate=rate)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=num_threads, rate=rate, refresh_interval=0.01
        )
        picks = check_every_pick(scheduler)
        dispatches = []
        server.on_dispatch(dispatches.append)
        specs = random_tenants(6, seed=42)
        attach_specs(server, specs, seed=42, duration=4.0)
        sim.run(until=4.0)
        assert len(dispatches) > 100, "workload too small to be meaningful"
        assert len(picks) >= len(dispatches)


def assert_index_exact(scheduler):
    """The index files exactly one entry per backlogged tenant, in key
    order, each equal to a fresh recomputation of its tenant's key."""
    entries = scheduler.selection_index.entries()
    assert entries == sorted(entries)
    filed = [entry[4] for entry in entries]
    backlogged = list(scheduler.backlogged_tenants())
    assert len({id(state) for state in filed}) == len(filed)
    assert {id(state) for state in filed} == {id(state) for state in backlogged}
    by_start = scheduler.order == "start" and scheduler._thread_staggers is None
    for key, estimate, seqno, start, state in entries:
        head = state.queue[0]
        fresh = max(scheduler.estimator.estimate(head), MIN_COST)
        finish = state.start_tag + fresh / state.weight
        assert (estimate, seqno, start) == (fresh, head.seqno, state.start_tag)
        assert key == (state.start_tag if by_start else finish)
        assert state.sel_entry is entries[filed.index(state)]


class TestIndexMechanics:
    @pytest.mark.parametrize("name", ["2dfq-e", "wf2q-e", "sfq-e", "msf2q-e", "wfq"])
    def test_entries_are_exactly_the_backlog(self, name):
        """After every enqueue, dequeue, refresh, complete and cancel
        (queued and running), the index holds one current entry per
        backlogged tenant and nothing else: no stale entry survives a
        touch.  Zero-cost requests check the MIN_COST clamp."""
        s = build_scheduler(name, 4)
        rng = make_rng(3, "index-exactness")
        running = []
        now = 0.0
        for step in range(1500):
            now += 0.01
            op = int(rng.integers(6))
            if op <= 1 or not (s.backlog or running):
                s.enqueue(
                    Request(
                        tenant_id=f"T{int(rng.integers(40))}",
                        cost=float(rng.choice([0.0, 0.1, 1.0, 5.0, 20.0])),
                        api=str(rng.choice(["A", "B"])),
                    ),
                    now,
                )
            elif op == 2 and s.backlog and len(running) < 4:
                running.append(s.dequeue(int(rng.integers(4)), now))
            elif op == 3 and running:
                request = running.pop(int(rng.integers(len(running))))
                s.complete(request, request.cost - request.reported_usage, now)
            elif op == 4 and running:
                request = running[int(rng.integers(len(running)))]
                s.refresh(request, float(rng.uniform(0.0, 2.0)), now)
            elif op == 5:
                queued = [r for state in s.backlogged_tenants() for r in state.queue]
                if queued and rng.random() < 0.5:
                    assert s.cancel(queued[int(rng.integers(len(queued)))], now)
                elif running:
                    request = running.pop(int(rng.integers(len(running))))
                    assert s.cancel(request, now)
            assert_index_exact(s)

    def test_touching_an_entry_the_list_lost_raises(self):
        s = build_scheduler("2dfq", 2)
        for tenant in ("A", "B"):
            s.enqueue(Request(tenant_id=tenant, cost=1.0), 0.0)
        state = s.tenant_state("A")
        s.selection_index._entries.remove(state.sel_entry)
        with pytest.raises(SchedulerError, match="tenant A's selection entry"):
            s.selection_index.touch(state)

    def test_stagger_churn_stays_constant_per_touch(self):
        """2DFQ's staggered eligibility costs at most one filing per
        touch on any thread count: 100 closed-loop tenants (half of
        them 1000x more expensive) on 16 threads, the Figure 8a
        shape."""
        sim = Simulation()
        scheduler = build_scheduler("2dfq", 16, thread_rate=1000.0)
        server = ThreadPoolServer(sim, scheduler, num_threads=16, rate=1000.0)
        for i in range(50):
            BackloggedSource(server, f"E{i}", lambda: ("big", 1000.0)).start()
            BackloggedSource(server, f"S{i}", lambda: ("small", 1.0)).start()
        sim.run(until=2.0)
        stats = scheduler.selection_index.stats()
        assert stats["touches"] > 10_000
        assert stats["pushes"] <= stats["touches"], stats

    def test_lower_slot_after_higher_slot_matches_linear(self):
        """Every thread's stagger, queried from the highest down at one
        threshold, sees exactly the linear scan's choice."""
        num_threads = 8
        trace = random_timed_requests(7, num_tenants=40, count=400)
        scheduler = build_scheduler("2dfq", num_threads, thread_rate=10.0)
        index = scheduler.selection_index
        checked = 0
        for step, (now, request) in enumerate(trace):
            scheduler.enqueue(request, now)
            if step % 3:
                continue
            vnow = scheduler.virtual_time(now)
            threshold = scheduler._eligibility_threshold(vnow)
            for slot in range(num_threads - 1, -1, -1):
                stagger = slot / num_threads
                eligible = linear_selection.eligible_tenants(scheduler, stagger, vnow)
                want = linear_selection.smallest(scheduler, eligible)
                got = index.min_eligible_finish(stagger, threshold)
                assert (got and got[4]) is want, (step, slot)
                checked += want is not None
            out = scheduler.dequeue(step % num_threads, now)
            scheduler.complete(out, out.cost, now)
        assert checked > 100


class TestTracedDifferential:
    @pytest.mark.parametrize(
        "name,num_threads", itertools.product(["2dfq", "2dfq-e"], [16, 32])
    )
    def test_select_rows_match_linear_scan_at_cell_thread_counts(
        self, name, num_threads
    ):
        """The shipped cells run 2DFQ on 16 (``expensive``) and 32
        (``unpredictable``, ``production``) threads: each pick, and its
        ``select`` row's eligibility count and fallback flag, are the
        linear scan's there too, from an empty pool to 64 backlogged
        tenants and back."""
        trace = bursty_trace(
            num_threads, num_tenants=64, per_burst=256, max_exponent=2.0
        )
        scheduler = build_scheduler(name, num_threads, thread_rate=10.0)
        tracer = Tracer(name)
        scheduler.attach_tracer(tracer)
        scheduler.estimator.attach_tracer(tracer)
        picks = check_every_pick(scheduler, tracer)
        drive_trace(scheduler, trace, num_threads=num_threads)
        assert len(picks) == len(trace)
        assert {pick.fallback for pick in picks} == {False, True}


def drive_with_cancels(scheduler, seed, num_threads=3, num_tenants=41, steps=400):
    """Seeded random arrivals (costs 0.1-20) on ``num_threads`` threads,
    cancelling a random running request on 15% of the steps; returns
    the number of dispatches."""
    rng = make_rng(seed, "cancel-differential")
    rate = 10.0
    busy = {}  # thread -> (end, request)
    dispatched = 0
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
                dispatched += 1
    return dispatched


class TestCancelDifferential:
    """Cancelling a running request refunds its charge; every later pick
    must still be the linear scan's."""

    @pytest.mark.parametrize("name", ["msf2q", "2dfq", "wf2q"])
    def test_running_cancels_match_linear_scan(self, name):
        for seed in range(12):
            scheduler = build_scheduler(name, 3)
            picks = check_every_pick(scheduler)
            assert drive_with_cancels(scheduler, seed) == len(picks) > 100


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(INDEXED_SCHEDULERS),
    num_threads=st.integers(1, 6),
    weights=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=12),
    costs=st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 100.0)), min_size=1, max_size=60
    ),
)
def test_every_pick_matches_over_weights_and_costs(name, num_threads, weights, costs):
    """Any weights and costs, zero-cost requests (clamped to MIN_COST)
    included: request ``k`` comes from tenant ``k mod len(weights)``
    every 50 ms, and every pick is the linear scan's."""
    trace = [
        (
            0.05 * k,
            Request(
                tenant_id=f"T{k % len(weights)}",
                cost=cost,
                api=f"A{k % 3}",
                weight=weights[k % len(weights)],
            ),
        )
        for k, cost in enumerate(costs)
    ]
    scheduler = build_scheduler(name, num_threads, thread_rate=10.0)
    picks = check_every_pick(scheduler)
    drive_trace(scheduler, trace, num_threads=num_threads)
    assert len(picks) == len(trace)
