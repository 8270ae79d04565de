"""Unit tests for the thread-pool server."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FIFOScheduler, make_scheduler
from repro.core.request import Request, RequestPhase
from repro.errors import ConfigurationError
from repro.fleet import Fleet
from repro.simulator import BackloggedSource, Simulation, ThreadPoolServer


def build(num_threads=2, rate=1.0, scheduler_name="fifo", refresh=None, **kw):
    sim = Simulation()
    scheduler = make_scheduler(scheduler_name, num_threads=num_threads,
                               thread_rate=rate, **kw)
    server = ThreadPoolServer(
        sim, scheduler, num_threads=num_threads, rate=rate,
        refresh_interval=refresh,
    )
    return sim, server


def req(tenant="A", cost=1.0, api="x"):
    return Request(tenant_id=tenant, cost=cost, api=api)


class TestExecution:
    def test_request_runs_for_cost_over_rate(self):
        sim, server = build(num_threads=1, rate=2.0)
        done = []
        server.on_complete(lambda r: done.append((r.tenant_id, sim.now)))
        sim.at(0.0, server.submit, req(cost=10.0))
        sim.run()
        assert done == [("A", 5.0)]

    def test_parallel_execution_across_threads(self):
        sim, server = build(num_threads=2)
        done = []
        server.on_complete(lambda r: done.append(sim.now))
        sim.at(0.0, server.submit, req(cost=3.0))
        sim.at(0.0, server.submit, req(tenant="B", cost=3.0))
        sim.run()
        assert done == [3.0, 3.0]

    def test_queueing_when_all_threads_busy(self):
        sim, server = build(num_threads=1)
        done = []
        server.on_complete(lambda r: done.append((r.tenant_id, sim.now)))
        sim.at(0.0, server.submit, req("A", 2.0))
        sim.at(0.0, server.submit, req("B", 1.0))
        sim.run()
        assert done == [("A", 2.0), ("B", 3.0)]

    def test_timestamps_recorded(self):
        sim, server = build(num_threads=1)
        sim.at(1.0, server.submit, req("A", 2.0))
        sim.at(1.0, server.submit, req("B", 1.0))
        completed = []
        server.on_complete(completed.append)
        sim.run()
        a, b = completed
        assert a.arrival_time == 1.0 and a.dispatch_time == 1.0
        assert a.completion_time == 3.0
        assert b.arrival_time == 1.0 and b.dispatch_time == 3.0
        assert b.latency == pytest.approx(3.0)

    def test_dispatch_order_descending_by_default(self):
        sim, server = build(num_threads=4)
        threads = []
        server.on_dispatch(lambda r: threads.append(r.thread_id))
        sim.at(0.0, server.submit, req("A", 1.0))
        sim.at(0.0, server.submit, req("B", 1.0))
        sim.run(until=0.5)
        assert threads == [3, 2]

    def test_simultaneous_frees_take_work_until_backlog_drains(self):
        # Restoring a crashed server frees all four workers at one
        # instant: they take the two queued requests in descending index
        # order, and the scan stops at the first empty dequeue.
        sim, server = build(num_threads=4, scheduler_name="wf2q")
        scheduler = server.scheduler
        asked = []
        dequeue = scheduler.dequeue

        def counting_dequeue(thread_id, now):
            asked.append(thread_id)
            return dequeue(thread_id, now)

        scheduler.dequeue = counting_dequeue
        started = []
        server.on_dispatch(lambda r: started.append((r.tenant_id, r.thread_id)))
        server.crash()
        server.submit(req("A", 1.0))
        server.submit(req("B", 2.0))
        assert started == [] and scheduler.backlog == 2
        server.restore()
        assert started == [("A", 3), ("B", 2)]
        assert asked == [3, 2, 1]
        assert scheduler.backlog == 0
        assert [w.busy for w in server.workers] == [False, False, True, True]

    def test_completed_cost_tracking(self):
        sim, server = build(num_threads=1)
        sim.at(0.0, server.submit, req("A", 2.0))
        sim.at(0.0, server.submit, req("A", 3.0))
        sim.run()
        assert server.completed_cost("A") == pytest.approx(5.0)
        assert server.completed_requests == 2

    def test_service_received_counts_partial_progress(self):
        sim, server = build(num_threads=1, rate=1.0)
        sim.at(0.0, server.submit, req("A", 10.0))
        sim.run(until=4.0)
        assert server.service_received("A") == pytest.approx(4.0)


class TestBusyWorkers:
    def test_counts_workers_holding_a_request_through_faults(self):
        sim, server = build(num_threads=4)
        requests = [req(tenant, 10.0) for tenant in "ABCDE"]
        counts = []

        def count():
            assert server.busy_workers == sum(w.busy for w in server.workers)
            counts.append(server.busy_workers)

        count()
        for request in requests[:3]:
            server.submit(request)
        count()
        server.set_worker_speed(3, 0.0)  # stalled: still holds its request
        count()
        server.crash_worker(2, redispatch=True)  # the retry starts on worker 0
        count()
        server.crash_worker(0, redispatch=False)
        count()
        assert server.abort(requests[0])  # running on the stalled worker 3
        count()
        server.submit(requests[3])  # worker 3 is idle again
        server.submit(requests[4])  # workers 0 and 2 are crashed: it queues
        count()
        server.crash()  # frozen in-flight requests stay on their workers
        count()
        server.restore()
        count()
        sim.run()
        count()
        assert counts == [0, 3, 3, 3, 2, 1, 2, 2, 3, 0]


def naive_free(server):
    """The free list recomputed from a scan of the pool: the idle,
    non-crashed workers' indices, ascending."""
    return [
        w.index for w in server.workers if w.request is None and not w.crashed
    ]


#: One fault-path or traffic step of :class:`TestFreeList`; worker
#: indices are taken modulo the pool size.
STEPS = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from("ABC"), st.integers(1, 4)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
    st.tuples(st.just("crash_worker"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("restore_worker"), st.integers(0, 7)),
    st.tuples(st.just("crash")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("abort_queued"), st.integers(0, 63)),
    st.tuples(st.just("abort_running"), st.integers(0, 63)),
    st.tuples(st.just("speed"), st.integers(0, 7), st.sampled_from([0.0, 0.5, 1.0])),
)


class TestFreeList:
    """``ThreadPoolServer._free`` against a naive scan of the pool,
    through every path that frees, occupies, crashes or restores a
    worker."""

    @settings(max_examples=150, deadline=None)
    @given(
        threads=st.integers(1, 8),
        scheduler_name=st.sampled_from(["2dfq", "wfq"]),
        steps=st.lists(STEPS, max_size=40),
    )
    def test_free_list_tracks_the_pool_and_dispatch_takes_its_top(
        self, threads, scheduler_name, steps
    ):
        sim, server = build(num_threads=threads, scheduler_name=scheduler_name)
        scheduler = server.scheduler
        dequeue = scheduler.dequeue

        def checked_dequeue(thread_id, now):
            # Each offer goes to the highest-index free worker.
            free = naive_free(server)
            assert free and thread_id == free[-1], (thread_id, free)
            return dequeue(thread_id, now)

        scheduler.dequeue = checked_dequeue
        submitted = []

        def in_phase(phase):
            return [r for r in submitted if r.phase == phase]

        for step in steps:
            kind = step[0]
            if kind == "submit":
                submitted.append(req(step[1], float(step[2])))
                server.submit(submitted[-1])
            elif kind == "advance":
                sim.run(until=sim.now + step[1])
            elif kind == "crash_worker":
                server.crash_worker(step[1] % threads, redispatch=step[2])
            elif kind == "restore_worker":
                server.restore_worker(step[1] % threads)
            elif kind == "crash":
                server.crash()
            elif kind == "restore":
                server.restore()
            elif kind == "speed":
                server.set_worker_speed(step[1] % threads, step[2])
            else:
                queued = kind == "abort_queued"
                victims = in_phase(
                    RequestPhase.QUEUED if queued else RequestPhase.RUNNING
                )
                if victims:
                    assert server.abort(victims[step[1] % len(victims)])
            assert server._free == naive_free(server), step
            # Work conserving: no free worker while work is queued.
            assert not (server._free and scheduler.backlog), step

        # Everything restored, every queued or running request finishes.
        server.restore()
        sim.run()
        assert server._free == list(range(threads))
        assert not in_phase(RequestPhase.QUEUED)
        assert not in_phase(RequestPhase.RUNNING)


class RaisingSource:
    """A closed-loop source whose completion callback fails."""

    def on_request_complete(self, request):
        raise RuntimeError("source failure")


class TestOneDispatchPassPerCompletion:
    """A submit made while ``_finish`` runs (a closed-loop follow-up)
    leaves dispatch to ``_finish``'s own pass after it."""

    @pytest.mark.parametrize("failing", ["listener", "source"])
    def test_a_failing_completion_callback_leaves_dispatch_working(self, failing):
        sim, server = build(num_threads=1)
        first = req("A", 1.0)
        if failing == "listener":
            failures = []

            def flaky(request):
                if not failures:
                    failures.append(request)
                    raise RuntimeError("listener failure")

            server.on_complete(flaky)
        else:
            first.source = RaisingSource()
        sim.at(0.0, server.submit, first)
        with pytest.raises(RuntimeError, match=f"{failing} failure"):
            sim.run()
        # The worker is idle; a later submit must start on it at once.
        later = req("B", 1.0)
        server.submit(later)
        assert server.workers[0].request is later
        assert later.phase == RequestPhase.RUNNING
        sim.run()
        assert later.completion_time == 2.0

    def test_a_fleet_resubmission_routed_elsewhere_dispatches_at_once(self):
        # Round robin sends the closed loop's second request to server 1
        # from inside server 0's completion; server 1 is not finishing,
        # so it must start the request in that same event.
        sim = Simulation()
        servers = [
            ThreadPoolServer(sim, make_scheduler("2dfq", 1), 1) for _ in range(2)
        ]
        fleet = Fleet(sim, servers, router="round-robin", failover=None)
        completions = []
        dispatches = []
        servers[0].on_complete(lambda r: completions.append(sim.events_processed))
        for index, server in enumerate(servers):
            server.on_dispatch(
                lambda r, i=index: dispatches.append((i, sim.now, sim.events_processed))
            )
        BackloggedSource(fleet, "a", lambda: ("A", 1.0), window=1, limit=2).start()
        sim.run(until=5.0)
        assert [entry[:2] for entry in dispatches] == [(0, 0.0), (1, 1.0)]
        assert dispatches[1][2] == completions[0]

    def test_a_refresh_tick_is_pending_whenever_a_completion_fires(self):
        # Why skipping the re-entrant pass keeps same-instant event order:
        # the follow-up submit's refresh-timer check must schedule
        # nothing, or the tick would take its sequence number ahead of
        # the completion event that _finish's pass schedules.
        entries = []

        class RecordingServer(ThreadPoolServer):
            def _finish(self, worker, request):
                entries.append(self._refresh_scheduled)
                super()._finish(worker, request)

        sim = Simulation()
        server = RecordingServer(
            sim, make_scheduler("2dfq", 4, thread_rate=100.0), 4, rate=100.0,
            refresh_interval=0.01,
        )
        for index in range(4):
            BackloggedSource(server, f"web-{index}", lambda: ("get", 1.0)).start()
            BackloggedSource(server, f"scan-{index}", lambda: ("scan", 100.0)).start()
        sim.run(until=3.0)
        assert len(entries) > 500
        assert all(entries)


class TestRefreshCharging:
    def test_refresh_reports_incremental_usage(self):
        sim, server = build(num_threads=1, scheduler_name="wfq-e",
                            refresh=1.0, initial_estimate=1.0)
        scheduler = server.scheduler
        sim.at(0.0, server.submit, req("A", 5.0))
        sim.run(until=3.5)
        # After 3 refresh ticks the tenant has been charged ~3 units
        # beyond the initial estimate's credit.
        state = scheduler.tenant_state("A")
        assert state.start_tag == pytest.approx(3.0, abs=0.01)

    def test_no_refresh_when_disabled(self):
        sim, server = build(num_threads=1, scheduler_name="wfq-e",
                            refresh=None, initial_estimate=1.0)
        scheduler = server.scheduler
        sim.at(0.0, server.submit, req("A", 5.0))
        sim.run(until=3.5)
        assert scheduler.tenant_state("A").start_tag == pytest.approx(1.0)

    def test_total_reported_usage_equals_cost(self):
        sim, server = build(num_threads=1, scheduler_name="wfq-e",
                            refresh=0.3, initial_estimate=1.0)
        done = []
        server.on_complete(done.append)
        sim.at(0.0, server.submit, req("A", 5.0))
        sim.run()
        assert done[0].reported_usage == pytest.approx(5.0)


class TestValidation:
    def test_scheduler_thread_mismatch(self):
        sim = Simulation()
        scheduler = FIFOScheduler(num_threads=2)
        with pytest.raises(ConfigurationError):
            ThreadPoolServer(sim, scheduler, num_threads=4)

    def test_invalid_rate(self):
        sim = Simulation()
        scheduler = FIFOScheduler(num_threads=1)
        with pytest.raises(ConfigurationError):
            ThreadPoolServer(sim, scheduler, num_threads=1, rate=0.0)

    def test_invalid_refresh_interval(self):
        sim = Simulation()
        scheduler = FIFOScheduler(num_threads=1)
        with pytest.raises(ConfigurationError):
            ThreadPoolServer(
                sim, scheduler, num_threads=1, refresh_interval=-0.1
            )
