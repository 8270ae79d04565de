"""Unit tests for the fluid GPS reference server."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.fluid_gps import fluid_service
from reference.lazy_gps import GPSReference as LazyGPS
from repro.errors import ConfigurationError, SimulationError
from repro.simulator.gps import GPSReference
from repro.simulator.rng import make_rng


class TestSingleFlow:
    def test_full_capacity_to_lone_flow(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 50.0, now=0.0)
        gps.advance(2.0)
        assert gps.service("A") == pytest.approx(20.0)
        assert gps.backlog("A") == pytest.approx(30.0)

    def test_flow_drains_and_freezes(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 20.0, now=0.0)
        gps.advance(5.0)  # drains at t=2
        assert gps.service("A") == pytest.approx(20.0)
        assert gps.backlog("A") == 0.0
        assert gps.active_weight == 0.0

    def test_unknown_flow_has_zero_service(self):
        gps = GPSReference(capacity=1.0)
        assert gps.service("nobody") == 0.0
        assert gps.backlog("nobody") == 0.0


class TestSharing:
    def test_equal_split_between_two_flows(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 100.0, now=0.0)
        gps.arrive("B", 100.0, now=0.0)
        gps.advance(4.0)
        assert gps.service("A") == pytest.approx(20.0)
        assert gps.service("B") == pytest.approx(20.0)

    def test_weighted_split(self):
        gps = GPSReference(capacity=12.0)
        gps.arrive("A", 100.0, now=0.0, weight=2.0)
        gps.arrive("B", 100.0, now=0.0, weight=1.0)
        gps.advance(3.0)
        assert gps.service("A") == pytest.approx(24.0)
        assert gps.service("B") == pytest.approx(12.0)

    def test_capacity_redistributes_after_drain(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 10.0, now=0.0)   # drains at t=2 sharing 5/s
        gps.arrive("B", 100.0, now=0.0)
        gps.advance(4.0)
        # B: 5/s for 2s, then 10/s for 2s = 30.
        assert gps.service("A") == pytest.approx(10.0)
        assert gps.service("B") == pytest.approx(30.0)

    def test_late_arrival_joins_sharing(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 100.0, now=0.0)
        gps.advance(1.0)
        assert gps.service("A") == pytest.approx(10.0)
        gps.arrive("B", 100.0, now=1.0)
        gps.advance(3.0)
        assert gps.service("A") == pytest.approx(20.0)
        assert gps.service("B") == pytest.approx(10.0)

    def test_work_conserved_total(self):
        gps = GPSReference(capacity=7.0)
        gps.arrive("A", 30.0, now=0.0)
        gps.arrive("B", 11.0, now=0.5)
        gps.arrive("C", 8.0, now=1.5)
        gps.advance(4.0)
        total = sum(gps.service(f) for f in "ABC")
        assert total == pytest.approx(7.0 * 4.0 - 7.0 * 0.0, rel=1e-9)

    def test_multiple_arrivals_same_flow_extend_backlog(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 10.0, now=0.0)
        gps.arrive("A", 10.0, now=0.0)
        gps.advance(1.0)
        assert gps.backlog("A") == pytest.approx(10.0)


class TestValidation:
    def test_positive_capacity_required(self):
        with pytest.raises(ConfigurationError):
            GPSReference(0.0)

    def test_negative_cost_rejected(self):
        gps = GPSReference(1.0)
        with pytest.raises(ConfigurationError):
            gps.arrive("A", -1.0, now=0.0)

    def test_zero_cost_arrival_is_noop(self):
        gps = GPSReference(1.0)
        gps.arrive("A", 0.0, now=0.0)
        assert gps.active_weight == 0.0

    def test_rearrival_weight_mismatch_rejected(self):
        # A flow's weight is fixed at first arrival: silently keeping
        # the old weight would diverge from the fair-share reference
        # with no signal.
        gps = GPSReference(1.0)
        gps.arrive("A", 1.0, now=0.0, weight=2.0)
        with pytest.raises(ConfigurationError, match="re-arrived with weight"):
            gps.arrive("A", 1.0, now=0.5, weight=3.0)

    def test_rearrival_same_weight_allowed(self):
        gps = GPSReference(1.0)
        gps.arrive("A", 1.0, now=0.0, weight=2.0)
        gps.arrive("A", 1.0, now=0.5, weight=2.0)
        gps.advance(10.0)
        assert gps.service("A") == pytest.approx(2.0)

    def test_time_must_not_regress(self):
        gps = GPSReference(1.0)
        gps.advance(5.0)
        with pytest.raises(SimulationError):
            gps.advance(4.0)

    def test_idle_time_freezes_virtual_time(self):
        gps = GPSReference(10.0)
        gps.arrive("A", 10.0, now=0.0)
        gps.advance(10.0)
        v = gps.virtual_time
        gps.advance(20.0)
        assert gps.virtual_time == v


class TestCapacityChange:
    """``set_capacity``: the fleet-level fluid reference re-rates when
    healthy capacity changes (crash detected / server restored)."""

    def test_halving_capacity_halves_rates_from_now_on(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 100.0, now=0.0)
        gps.arrive("B", 100.0, now=0.0)
        gps.advance(2.0)  # 10 each at full rate
        gps.set_capacity(5.0, now=2.0)
        gps.advance(6.0)  # +10 each over 4s at half rate
        assert gps.service("A") == pytest.approx(20.0)
        assert gps.service("B") == pytest.approx(20.0)

    def test_matches_single_rate_run_piecewise(self):
        # A capacity change is exact: the two-segment run agrees with
        # hand-computed piecewise fluid service, drains included.
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 15.0, now=0.0)
        gps.arrive("B", 100.0, now=0.0)
        gps.set_capacity(20.0, now=1.0)  # A has 10 left, B has 95
        gps.advance(2.0)
        # Segment 2: 10/s each; A drains at t=2 exactly.
        assert gps.service("A") == pytest.approx(15.0)
        assert gps.backlog("A") == pytest.approx(0.0)
        assert gps.service("B") == pytest.approx(15.0)
        gps.advance(3.0)  # B alone at 20/s
        assert gps.service("B") == pytest.approx(35.0)

    def test_restore_speeds_drain_back_up(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 40.0, now=0.0)
        gps.set_capacity(2.0, now=1.0)   # crash detected: 30 left
        gps.set_capacity(10.0, now=2.0)  # restored: 28 left
        gps.advance(4.8)
        assert gps.service("A") == pytest.approx(40.0)
        assert gps.backlog("A") == 0.0

    def test_rejects_non_positive_capacity(self):
        gps = GPSReference(capacity=10.0)
        with pytest.raises(ConfigurationError):
            gps.set_capacity(0.0, now=1.0)
        with pytest.raises(ConfigurationError):
            gps.set_capacity(-5.0, now=1.0)


class TestLazyInvalidation:
    """One heap entry per active flow; a stale key is re-filed only when
    the top could drain."""

    @staticmethod
    def entries(gps):
        return sorted((key, flow.flow_id, seq == flow.seq) for key, seq, flow in gps._heap)

    def test_rearrival_pushes_no_entry(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 10.0, now=0.0)
        assert gps.heap_size == 1
        gps.arrive("A", 10.0, now=0.0)
        # A's entry keeps its old key and is now stale.
        assert self.entries(gps) == [(10.0, "A", False)]
        assert gps.backlog("A") == 20.0

    def test_stale_top_that_could_drain_is_refiled(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 10.0, now=0.0)   # E_A = 10
        gps.arrive("A", 100.0, now=0.0)  # E_A = 110; the entry still says 10
        gps.arrive("B", 50.0, now=0.0)   # E_B = 50
        gps.advance(3.0)  # V = 15: the stale key 10 could drain, E_A cannot
        assert self.entries(gps) == [(50.0, "B", True), (110.0, "A", True)]
        assert gps.virtual_time == 15.0
        assert gps.backlog("A") == pytest.approx(95.0)

    def test_stale_top_that_cannot_drain_stays(self):
        gps = GPSReference(capacity=10.0)
        gps.arrive("A", 10.0, now=0.0)
        gps.arrive("A", 100.0, now=0.0)
        gps.advance(0.5)  # V = 5 < the stale key 10: nothing to re-file
        assert self.entries(gps) == [(10.0, "A", False)]
        assert gps.service("A") == pytest.approx(5.0)

    def test_heap_bounded_under_rearrival_churn(self):
        gps = GPSReference(capacity=1000.0)
        gps.arrive("front", 0.001, now=0.0)
        for _ in range(1000):
            gps.arrive("A", 1.0, now=0.0)
            gps.arrive("B", 1.0, now=0.0)
            assert gps.heap_size == 3
        gps.advance(1.0)  # front drains; A and B stay backlogged
        assert gps.heap_size == 2
        gps.advance(10.0)
        assert gps.heap_size == 0 and gps.active_weight == 0.0
        assert gps.purges == 0

    def test_tied_drains_keep_arrival_order(self):
        # A's stale top is re-filed with the sequence number of its last
        # arrival, so A drains before B, which ties with it on E = 2 but
        # arrived later; the order shows in the last bit of Phi.
        gps = GPSReference(capacity=1.0)
        gps.arrive("C", 100.0, now=0.0, weight=0.3)
        gps.arrive("A", 0.1, now=0.0, weight=0.1)
        gps.arrive("A", 0.1, now=0.0, weight=0.1)
        gps.arrive("B", 0.4, now=0.0, weight=0.2)
        gps.advance(50.0)
        assert gps.active_weight == (0.3 + 0.1 + 0.2) - 0.1 - 0.2
        assert gps.active_weight != (0.3 + 0.1 + 0.2) - 0.2 - 0.1

    def test_service_identical_with_and_without_compaction(self):
        """The old heap's compaction did not perturb the fluid numerics
        on these weights, and the one-entry heap matches both."""

        def drive(gps):
            now = 0.0
            for i in range(200):
                now += 0.01
                gps.arrive("A", 0.5, now=now, weight=2.0)
                if i % 2 == 0:
                    gps.arrive("B", 0.3, now=now)
                if i % 7 == 0:
                    gps.arrive("C", 1.1, now=now)
            gps.advance(now + 1.0)
            return {f: gps.service(f) for f in "ABC"}

        eager = drive(LazyGPS(capacity=10.0, purge_threshold=1))
        lazy = drive(LazyGPS(capacity=10.0, purge_threshold=10_000))
        assert eager == lazy == drive(GPSReference(capacity=10.0))


# -- differential check against the lazy-invalidation heap ---------------------

#: Weights whose every subset sums exactly in binary floating point: the
#: order in which tied flows leave Phi cannot show.
DYADIC = {"a": 1.0, "b": 2.0, "c": 0.5, "d": 3.0}
#: Weights whose sums round, so tied drains must keep their order.
ROUNDING = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.7}
#: A purge threshold the oracle never reaches: compaction off.
NEVER = 10**18


def bits(value):
    return struct.pack("d", value)


def fluid_bits(gps, flows):
    services = gps.services(flows)
    return (
        bits(gps.virtual_time),
        bits(gps.now),
        bits(gps.active_weight),
        [bits(services[f]) for f in flows],
    )


@st.composite
def oracle_runs(draw):
    """A purge threshold for the oracle, a weight set and up to 40 steps:
    ``("arrive", flow, cost, now)``, ``("advance", now)`` or
    ``("capacity", c, now)``.  The oracle's compaction renumbers the
    active flows in creation order, which reorders tied drains, so the
    threshold-1 runs draw only :data:`DYADIC` weights."""
    threshold, weights = draw(st.sampled_from(
        ((1, DYADIC), (NEVER, DYADIC), (NEVER, ROUNDING))
    ))
    steps = []
    now = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        now += draw(st.sampled_from((0.0, 0.0, 0.0, 0.05, 0.25, 1.0 / 3.0, 2.0)))
        kind = draw(st.sampled_from(("arrive",) * 6 + ("advance", "capacity")))
        if kind == "arrive":
            flow = draw(st.sampled_from(sorted(weights)))
            # Costs that are small multiples of the weight tie emptying
            # times across flows; 1e-12 on a large E leaves it unchanged.
            cost = draw(st.one_of(
                st.just(0.0),
                st.just(1e-12),
                st.sampled_from((1.0, 2.0)).map(lambda k: k * weights[flow]),
                st.floats(min_value=1e-12, max_value=50.0),
            ))
            steps.append(("arrive", flow, cost, now))
        elif kind == "advance":
            steps.append(("advance", now))
        else:
            steps.append(("capacity", draw(st.sampled_from((0.5, 1.0, 3.0))), now))
    return threshold, weights, steps


@settings(max_examples=200, deadline=None)
@given(run=oracle_runs())
@example(run=(NEVER, ROUNDING, [
    ("arrive", "c", 100.0, 0.0), ("arrive", "a", 0.1, 0.0),
    ("arrive", "a", 0.1, 0.0), ("arrive", "b", 0.4, 0.0), ("advance", 50.0),
]))
def test_bit_identical_to_the_lazy_heap_oracle(run):
    """After every step, ``V``, ``now``, ``Phi`` and every flow's service
    equal, bit for bit, those of ``tests/reference/lazy_gps.py``: one
    heap entry per active flow drains in the order, and with the
    arithmetic, of a heap holding every superseded entry."""
    threshold, weights, steps = run
    gps = GPSReference(1.0)
    oracle = LazyGPS(1.0, purge_threshold=threshold)
    flows = sorted(weights)
    for step in steps:
        for target in (gps, oracle):
            if step[0] == "arrive":
                _, flow, cost, now = step
                target.arrive(flow, cost, now, weights[flow])
            elif step[0] == "advance":
                target.advance(step[1])
            else:
                target.set_capacity(step[1], step[2])
        assert fluid_bits(gps, flows) == fluid_bits(oracle, flows), step
        active = sorted(f for f, flow in gps._flows.items() if flow.active)
        assert active == sorted(f for f, flow in oracle._flows.items() if flow.active)
        assert gps.heap_size == len(active)


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.floats(0.5, 3.0), min_size=2, max_size=6),
    utilization=st.floats(0.5, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_service_matches_the_stepped_fluid_oracle(weights, utilization, seed):
    """Open-loop log-normal arrivals over unequal weights: at every sample,
    each flow's service equals the event-stepped fluid GPS of
    ``tests/reference/fluid_gps.py``, through overload and idle drains."""
    capacity, n = 4.0, 200
    rng = make_rng(seed, "fluid-gps-oracle")
    costs = rng.lognormal(0.0, 1.0, n)
    gaps = rng.lognormal(0.0, 1.0, n)
    gaps *= costs.sum() / (gaps.sum() * utilization * capacity)
    times = np.cumsum(gaps)
    flows = rng.integers(len(weights), size=n)
    arrivals = [
        (float(t), f"f{k}", float(c), weights[k])
        for t, k, c in zip(times, flows, costs)
    ]
    sample_times = [float(t) for t in np.linspace(0.0, 1.5 * times[-1], 26)[1:]]

    expected = fluid_service(capacity, arrivals, sample_times)
    gps = GPSReference(capacity)
    names = [f"f{k}" for k in range(len(weights))]
    pending = iter(arrivals)
    arrival = next(pending, None)
    tolerance = 1e-9 * float(costs.sum())
    for sample_time, oracle in zip(sample_times, expected):
        while arrival is not None and arrival[0] <= sample_time:
            t, flow, cost, weight = arrival
            gps.arrive(flow, cost, now=t, weight=weight)
            arrival = next(pending, None)
        gps.advance(sample_time)
        served = gps.services(names)
        for name in names:
            assert math.isclose(
                served[name], oracle.get(name, 0.0), rel_tol=1e-9,
                abs_tol=tolerance,
            ), (sample_time, name)
