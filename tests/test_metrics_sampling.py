"""The periodic metrics sampler (DESIGN.md §13): one worker scan per
sample, and no per-sample cost that grows with the samples already taken.

* Coherence: the one-pass service snapshot a collector reads at every
  sample equals, bit for bit and key for key, the per-tenant, per-worker
  sum the sampler used to make (:func:`per_worker_service`) -- on a
  single server with a degraded worker, a crash re-dispatch and one
  tenant on several threads at once, and on a fleet whose crashed server
  fails over.
* Growth: recording one more sample after 50,000 allocates no zero
  prefix for tenants the recorder already knows.
"""

import tracemalloc

import pytest

from repro.core import make_scheduler
from repro.faults import FaultInjector, FaultPlan, WorkerCrash, WorkerSlowdown
from repro.fleet import Fleet, FleetCollector
from repro.metrics import MetricsCollector, ServiceRecorder
from repro.simulator.clock import Simulation
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.simulator.sources import BackloggedSource


def per_worker_service(server, tenant_id):
    """A tenant's cumulative service summed the way the sampler summed
    it before the one-pass snapshot: completed cost, then each of the
    tenant's running requests, worker by worker."""
    total = server.completed_cost(tenant_id)
    now = server.sim.now
    for worker in server.workers:
        request = worker.request
        if request is not None and request.tenant_id == tenant_id:
            progress = (
                worker.done_work
                + (now - worker.work_mark) * server.rate * worker.speed
            )
            total += min(progress, request.cost)
    return total


def _start(target, tenant, cost, window, seed=1):
    rng = make_rng(seed, "costs", tenant)
    BackloggedSource(
        target,
        tenant,
        lambda: ("A", cost * float(rng.uniform(0.5, 1.5))),
        window=window,
    ).start()


class TestSingleServerSnapshot:
    def test_snapshot_equals_per_worker_sums_at_every_sample(self):
        sim = Simulation()
        server = ThreadPoolServer(
            sim, make_scheduler("2dfq", num_threads=4), 4, rate=10.0
        )
        plan = FaultPlan(
            slowdowns=(WorkerSlowdown(worker=1, start=0.3, end=1.7, factor=0.4),),
            crashes=(WorkerCrash(worker=2, at=0.9, restart_at=1.6),),
        )
        injector = FaultInjector(server, plan)
        injector.install()
        MetricsCollector(server, sample_interval=0.05)
        _start(server, "A", cost=3.0, window=4)
        _start(server, "B", cost=7.0, window=2)
        _start(server, "C", cost=0.5, window=1)

        snapshot = server.service_snapshot
        seen = {"samples": 0, "degraded": 0, "shared": 0}

        def checked(tenant_ids):
            tenant_ids = list(tenant_ids)
            got = snapshot(tenant_ids)
            expected = {t: per_worker_service(server, t) for t in tenant_ids}
            assert got == expected
            assert list(got) == tenant_ids
            # service_received reads the same snapshot, one tenant at a time.
            assert got == {t: snapshot([t])[t] for t in tenant_ids}
            seen["samples"] += 1
            running = [w for w in server.workers if w.request is not None]
            seen["degraded"] += any(w.speed != 1.0 for w in running)
            tenants = [w.request.tenant_id for w in running]
            seen["shared"] += len(tenants) > len(set(tenants))
            return got

        server.service_snapshot = checked
        sim.run(until=3.0)
        assert seen["samples"] == 60
        assert seen["degraded"] > 0
        assert seen["shared"] > 0
        assert injector.counts["slowdowns"] == 1
        assert injector.counts["crashes"] == 1

    def test_empty_and_unknown_tenants(self):
        sim = Simulation()
        server = ThreadPoolServer(sim, make_scheduler("wfq", num_threads=2), 2)
        assert server.service_snapshot(()) == {}
        assert server.service_snapshot(["nobody"]) == {"nobody": 0.0}
        assert server.service_received("nobody") == 0.0


class TestFleetSnapshot:
    def test_snapshot_equals_per_server_sums_at_every_sample(self):
        sim = Simulation()
        servers = [
            ThreadPoolServer(sim, make_scheduler("2dfq", num_threads=2), 2, rate=100.0)
            for _ in range(3)
        ]
        fleet = Fleet(sim, servers, router="round-robin", health_interval=0.02)
        FleetCollector(fleet, sample_interval=0.05)
        _start(fleet, "a", cost=5.0, window=6)
        _start(fleet, "b", cost=9.0, window=3)
        sim.at(0.3, fleet.crash_server, 1)

        snapshot = fleet.service_snapshot
        samples = []

        def checked(tenant_ids):
            tenant_ids = list(tenant_ids)
            got = snapshot(tenant_ids)
            expected = {
                t: sum(per_worker_service(s, t) for s in fleet.servers)
                for t in tenant_ids
            }
            assert got == expected
            assert list(got) == tenant_ids
            assert got == {t: snapshot([t])[t] for t in tenant_ids}
            samples.append(got)
            return got

        fleet.service_snapshot = checked
        sim.run(until=1.5)
        assert len(samples) == 30
        assert fleet.counts["failovers"] == 1
        assert fleet.counts["failover_retries"] > 0


class TestNoPerSampleGrowth:
    SAMPLES = 50_000

    def _peak_bytes(self, observe):
        tracemalloc.start()
        try:
            observe()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_recorder_observe(self):
        recorder = ServiceRecorder()
        for i in range(self.SAMPLES):
            recorder.observe(i * 0.1, {"A": float(i), "B": 1.0}, {"A": 0.5, "B": 2.0})
        peak = self._peak_bytes(
            lambda: recorder.observe(1.0, {"A": 1.0, "B": 1.0}, {"A": 1.0, "B": 1.0})
        )
        assert peak < 64 * 1024
        assert len(recorder.columns("B")[1]) == self.SAMPLES + 1
        assert len(recorder.lags["B"]) == self.SAMPLES + 1

    def test_new_tenant_still_gets_its_zero_prefix(self):
        recorder = ServiceRecorder()
        for i in range(3):
            recorder.observe(i * 0.1, {"A": 1.0}, {"A": 0.5})
        recorder.observe(0.3, {"A": 1.0, "B": 4.0}, {"A": 0.5, "B": 1.0})
        assert list(recorder.lags["B"]) == [0.0, 0.0, 0.0, 3.0]
        _, actual, gps = recorder.columns("B")
        assert actual.tolist() == [0.0, 0.0, 0.0, 4.0]
        assert gps.tolist() == [0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "gps, gps_a, gps_g",
        [
            ({}, [1.0, 1.0], [0.0, 0.0]),
            ({"A": 1.5, "G": 9.0}, [1.0, 1.5], [0.0, 9.0]),
        ],
    )
    def test_keys_missing_on_one_side(self, gps, gps_a, gps_g):
        # A tenant without a GPS value lags by its whole service and its
        # GPS column carries forward; a GPS-only tenant gets a GPS column
        # but no lag.
        recorder = ServiceRecorder()
        recorder.observe(0.1, {"A": 1.0}, {"A": 1.0})
        recorder.observe(0.2, {"A": 2.0}, gps)
        assert list(recorder.lags["A"]) == [0.0, 2.0 - gps.get("A", 0.0)]
        assert set(recorder.lags) == {"A"}
        assert recorder.columns("A")[1].tolist() == [1.0, 2.0]
        assert recorder.columns("A")[2].tolist() == gps_a
        assert recorder.columns("G")[2].tolist() == gps_g
