"""The metrics collector's batched folds keep every bit (DESIGN.md §13).

The server only appends to the collector's run record; the arithmetic
runs in batches.

* Gini: :func:`gini_rows` folds many interval-service rows at once.
  Each row's index must equal, bit for bit, the scalar sorted-rank
  identity applied to that row alone -- across numpy's pairwise-sum
  block edges (8, 128), long rows, all-zero rows and rows whose sums
  overflow into the rescale path.
* GPS: :meth:`GPSReference.replay` of a batch must leave the state that
  one :meth:`~GPSReference.arrive` per record leaves -- with same-instant
  arrivals, a drain landing exactly on an arrival, re-arrivals inside
  a batch (where the old heap, ``tests/reference/lazy_gps.py``,
  compacted) and a capacity change between batches.
* Collectors: the deferred replay and the row samples folded at the end
  give the series, lags, baselines, Gini samples, latencies and
  dispatch log that a per-arrival, per-sample listener collector gives
  (``tests/reference/sample_store.py``), on a single server with a
  tenant joining after the warmup and on a fleet whose capacity changes
  between samples; a bad arrival still raises when the run ends before
  the next sample.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.lazy_gps import GPSReference as LazyGPS
from reference.sample_store import ListenerCollector
from repro.core import make_scheduler
from repro.core.request import Request
from repro.errors import ConfigurationError
from repro.fleet import Fleet, FleetCollector
from repro.metrics import MetricsCollector, gini_index
from repro.metrics.gini import gini_rows
from repro.simulator.clock import Simulation
from repro.simulator.gps import GPSReference
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.simulator.sources import BackloggedSource


def bits(value):
    return struct.pack("d", value)


def scalar_gini(row):
    """The per-row sorted-rank identity on a 1-D array: one ``sum``,
    one ``sort`` and one ``np.dot`` per row, rescaled by the maximum
    when the identity overflows, then clamped."""

    def identity(array):
        total = array.sum()
        if not math.isfinite(total):
            return math.nan
        if total <= 0:
            return 0.0
        ordered = np.sort(array)
        n = ordered.size
        ranks = np.arange(1, n + 1)
        return float((2.0 * np.dot(ranks, ordered)) / (n * total) - (n + 1.0) / n)

    array = np.asarray(row, dtype=float)
    if array.size == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        value = identity(array)
        if not math.isfinite(value):
            value = identity(array / array.max())
    return float(min(max(value, 0.0), 1.0))


def fold(rows):
    flat = [value for row in rows for value in row]
    offsets = [0]
    for row in rows:
        offsets.append(offsets[-1] + len(row))
    with np.errstate(over="ignore", invalid="ignore"):
        return gini_rows(flat, offsets)


#: Row lengths on both sides of numpy's pairwise-sum edges (8-way
#: unrolled blocks, 128-element recursion) and past 256.
EDGE_LENGTHS = (1, 2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 300, 513)

_row_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e6),
    st.just(0.0),
    st.floats(min_value=1e306, max_value=1.7e308),
)


@st.composite
def gini_row(draw):
    n = draw(st.sampled_from(EDGE_LENGTHS))
    kind = draw(st.sampled_from(("drawn", "zeros", "overflow", "spread")))
    if kind == "zeros":
        return [0.0] * n
    if kind == "overflow":
        # Every value near the top of the range: the sum overflows.
        return draw(st.lists(st.floats(min_value=1e307, max_value=1.7e308),
                             min_size=n, max_size=n))
    if kind == "spread":
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = make_rng(seed, "gini-row")
        return (rng.lognormal(0.0, 3.0, n) * (rng.random(n) < 0.8)).tolist()
    return draw(st.lists(_row_values, min_size=n, max_size=n))


class TestGiniFold:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(gini_row(), min_size=1, max_size=12))
    def test_batched_fold_matches_each_row_alone(self, rows):
        folded = fold(rows)
        assert len(folded) == len(rows)
        for row, value in zip(rows, folded):
            assert bits(value) == bits(scalar_gini(row))
            with np.errstate(over="ignore", invalid="ignore"):
                assert bits(value) == bits(gini_index(row))

    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_edge_lengths_in_one_batch(self, n):
        rng = make_rng(n, "gini-edge")
        rows = [rng.random(n) * 10.0 ** rng.integers(-3, 6) for _ in range(5)]
        rows += [np.zeros(n), np.full(n, 1.5e308), rng.random(n) * 1e-310]
        # Interleave lengths, so a group's rows are not adjacent.
        rows.insert(2, rng.random(n + 1))
        for row, value in zip(rows, fold(rows)):
            assert bits(value) == bits(scalar_gini(row))

    def test_overflow_rows_take_the_rescale_path(self):
        rows = [[1e308, 1e308], [1e308] * 3 + [0.0], [1e307, 1e308]]
        folded = fold(rows)
        assert folded[0] == 0.0
        assert folded[1] == pytest.approx(0.25, abs=1e-12)
        assert folded[2] == pytest.approx(gini_index([0.1, 1.0]), abs=1e-12)

    def test_empty_rows_read_zero(self):
        assert gini_rows([], [0]) == []
        assert gini_rows([1.0, 3.0], [0, 0, 2, 2]) == [0.0, 0.25, 0.0]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1.0, 2.0], [1.0, -1.0], [float("nan")]], "non-negative"),
            ([[1.0, 2.0], [float("inf"), 1.0], [-1.0]], "finite"),
            ([[1.0], [2.0, 3.0, float("nan")]], "finite"),
        ],
    )
    def test_first_bad_row_names_the_error(self, rows, message):
        with pytest.raises(ValueError, match=message):
            fold(rows)


# -- GPS replay -----------------------------------------------------------------

WEIGHTS = {"a": 1.0, "b": 2.0, "c": 0.5, "d": 3.0}


def gps_state(gps):
    """Every float of the fluid state, as bits, plus the heap size."""
    flows = sorted(WEIGHTS) + ["x", "y"]
    services = gps.services(flows)
    return (
        bits(gps.virtual_time),
        bits(gps.now),
        bits(gps.active_weight),
        [bits(services[f]) for f in flows],
        [bits(gps.backlog(f)) for f in flows],
        gps.heap_size,
    )


def drive(steps, batched, gps=None):
    """Run ``steps`` -- ``("arrive", record)``, ``("advance", t)``,
    ``("capacity", c, t)`` -- through one GPS reference.  Batched, the
    arrivals queue up until the next other step and are replayed as one
    batch, as the collector replays them at a sample or a capacity
    change.  ``gps`` defaults to a new :class:`GPSReference`."""
    gps = GPSReference(10.0) if gps is None else gps
    pending = []
    for step in steps + [("advance", None)]:
        if step[0] == "arrive":
            if batched:
                pending.append(step[1])
            else:
                gps.arrive(*step[1])
            continue
        if pending:
            gps.replay(pending)
            pending = []
        if step[0] == "capacity":
            gps.set_capacity(step[1], step[2])
        elif step[1] is not None:
            gps.advance(step[1])
    return gps


@st.composite
def gps_steps(draw):
    steps = []
    now = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        # Zero gaps give same-instant arrivals.
        now += draw(st.sampled_from((0.0, 0.0, 0.05, 0.25, 1.0 / 3.0, 2.0)))
        kind = draw(st.sampled_from(("arrive",) * 6 + ("advance", "capacity")))
        if kind == "arrive":
            flow = draw(st.sampled_from(sorted(WEIGHTS)))
            cost = draw(st.one_of(st.just(0.0), st.just(2.5),
                                  st.floats(min_value=1e-12, max_value=50.0)))
            steps.append(("arrive", (flow, cost, now, WEIGHTS[flow])))
        elif kind == "advance":
            steps.append(("advance", now))
        else:
            steps.append(("capacity", draw(st.sampled_from((5.0, 10.0, 40.0))), now))
    return steps


class TestGPSReplay:
    @settings(max_examples=150, deadline=None)
    @given(steps=gps_steps())
    def test_batch_replay_equals_one_arrival_at_a_time(self, steps):
        one = drive(steps, batched=False)
        batch = drive(steps, batched=True)
        assert gps_state(batch) == gps_state(one)

    def test_same_instant_arrivals(self):
        steps = [("arrive", (f, 4.0, 0.5, WEIGHTS[f])) for f in "abcdab"]
        steps.append(("advance", 1.0))
        one, batch = drive(steps, False), drive(steps, True)
        assert gps_state(batch) == gps_state(one)
        # Half a second at rate 10, shared by weights 1 + 2 + 0.5 + 3.
        assert batch.services(["a"])["a"] == pytest.approx(5.0 / 6.5)

    def test_drain_landing_exactly_on_an_arrival(self):
        # a drains at t = 10 / 10 = 1.0 exactly, the instant b arrives.
        steps = [
            ("arrive", ("a", 10.0, 0.0, 1.0)),
            ("arrive", ("b", 10.0, 1.0, 2.0)),
            ("arrive", ("a", 5.0, 1.0, 1.0)),
            ("advance", 1.5),
        ]
        one, batch = drive(steps, False), drive(steps, True)
        assert gps_state(batch) == gps_state(one)
        assert batch.services(["a", "b"]) == {
            "a": pytest.approx(10.0 + 5.0 / 3.0),
            "b": pytest.approx(10.0 / 3.0),
        }

    def test_heap_compaction_inside_a_batch(self):
        # b's entry stays on top while a re-arrives: the one-entry heap
        # keeps a's stale key, where the old heap piled up superseded
        # entries and compacted them inside the batch.
        steps = [("arrive", ("b", 50.0, 0.0, 2.0)), ("arrive", ("a", 100.0, 0.0, 1.0))]
        steps += [("arrive", ("a", 1.0, 0.01 * k, 1.0)) for k in range(1, 12)]
        steps += [("arrive", ("b", 1.0, 0.2, 2.0)), ("advance", 0.3)]
        one, batch = drive(steps, False), drive(steps, True)
        assert batch.heap_size == 2
        assert gps_state(batch) == gps_state(one)
        oracle = drive(steps, True, LazyGPS(10.0, purge_threshold=2))
        assert oracle.purges > 0
        # Every float matches; the oracle's heap size counts superseded entries.
        assert gps_state(batch)[:-1] == gps_state(oracle)[:-1]

    def test_capacity_change_between_arrivals(self):
        steps = [
            ("arrive", ("a", 30.0, 0.0, 1.0)),
            ("arrive", ("b", 30.0, 0.5, 2.0)),
            ("capacity", 5.0, 1.0),
            ("arrive", ("c", 30.0, 1.5, 0.5)),
            ("capacity", 40.0, 2.0),
            ("arrive", ("a", 1.0, 2.0, 1.0)),
            ("advance", 3.0),
        ]
        one, batch = drive(steps, False), drive(steps, True)
        assert gps_state(batch) == gps_state(one)

    def test_a_bad_record_applies_the_ones_before_it(self):
        gps = GPSReference(10.0)
        with pytest.raises(ConfigurationError, match="re-arrived with weight"):
            gps.replay([("a", 5.0, 0.0, 1.0), ("b", 5.0, 0.0, 1.0),
                        ("a", 5.0, 0.1, 2.0), ("c", 5.0, 0.2, 1.0)])
        assert gps.services(["a", "b", "c"])["b"] > 0.0
        assert gps.backlog("c") == 0.0
        with pytest.raises(ConfigurationError, match="cost must be >= 0"):
            gps.replay([("c", -1.0, 0.3, 1.0)])


# -- collectors -------------------------------------------------------------------


def _start(target, tenant, cost, window, start_time=0.0):
    rng = make_rng(3, "costs", tenant)
    BackloggedSource(
        target,
        tenant,
        lambda: ("A", cost * float(rng.uniform(0.5, 1.5))),
        window=window,
        start_time=start_time,
    ).start()


def _store(gini, series, latencies, dispatch_log):
    """Every value a run's store holds, as bits."""
    tenants = sorted(set(series.tenants()) | set(latencies))
    columns = {t: series.columns(t) for t in tenants}
    return (
        [(bits(t), bits(v)) for t, v in gini],
        {t: [[bits(x) for x in c] for c in columns[t]] for t in tenants},
        {t: [bits(x) for x in series.lags.get(t, ())] for t in tenants},
        {t: bits(v) for t, v in series.baselines.items()},
        {t: [bits(x) for x in latencies.get(t, ())] for t in tenants},
        [tuple(record) for record in dispatch_log],
    )


def _stores(metrics, reference):
    """The row store of a run and the listener oracle's store of the
    same run."""
    partial = metrics.partial
    return (
        _store(partial.gini, partial.series, partial.latencies, metrics.dispatch_log),
        _store(
            reference.gini,
            reference.series,
            reference.latencies,
            reference.dispatch_log,
        ),
    )


def _single_server():
    sim = Simulation()
    server = ThreadPoolServer(sim, make_scheduler("2dfq", num_threads=4), 4, rate=10.0)
    collector = MetricsCollector(server, sample_interval=0.1, warmup=0.3)
    reference = ListenerCollector(server, sample_interval=0.1, warmup=0.3)
    for tenant, cost in (("small", 0.5), ("big", 8.0), ("mid", 2.0)):
        _start(server, tenant, cost, window=3)
    # A tenant that joins after the warmup.
    _start(server, "late", 1.0, window=2, start_time=2.05)
    sim.run(until=6.05)
    return collector.result(), reference


def _fleet():
    sim = Simulation()
    servers = [
        ThreadPoolServer(sim, make_scheduler("wfq", num_threads=2), 2, rate=100.0)
        for _ in range(3)
    ]
    fleet = Fleet(sim, servers, router="round-robin", health_interval=0.03)
    collector = FleetCollector(fleet, sample_interval=0.1)
    reference = ListenerCollector(fleet, sample_interval=0.1, fleet=True)
    for tenant, cost in (("a", 2.0), ("b", 6.0)):
        _start(fleet, tenant, cost, window=4)
    sim.at(0.42, fleet.crash_server, 1)
    sim.at(1.07, fleet.restore_server, 1)
    sim.run(until=2.0)
    return collector, collector.result(), reference


class TestCollectors:
    """The run record and row samples against the listener collector
    (``tests/reference/sample_store.py``), attached to the same run:
    per-arrival GPS arithmetic, one Gini index per sample, per-tenant
    columns and lags built sample by sample."""

    def test_single_server_store_matches_per_arrival_collector(self):
        metrics, reference = _single_server()
        deferred, expected = _stores(metrics, reference)
        assert deferred[0], "no Gini samples recorded"
        assert deferred[3], "no warmup baselines recorded"
        assert "late" in deferred[2]
        assert deferred == expected

    def test_fleet_capacity_change_between_samples(self):
        collector, metrics, reference = _fleet()
        times = [t for t, _ in collector.capacity_timeline[1:]]
        assert len(times) >= 2
        # Capacity changes land strictly between samples.
        assert all(abs(t / 0.1 - round(t / 0.1)) > 1e-6 for t in times)
        deferred, expected = _stores(metrics, reference)
        assert deferred[4]
        assert deferred == expected

    def test_result_folds_the_gini_buffer_once(self):
        sim = Simulation()
        server = ThreadPoolServer(sim, make_scheduler("wfq", num_threads=2), 2, rate=10.0)
        collector = MetricsCollector(server, sample_interval=0.1)
        _start(server, "a", 1.0, window=2)
        _start(server, "b", 3.0, window=2)
        sim.run(until=1.05)
        first = collector.result().gini_values
        assert first.size == 10
        assert collector.result().gini_values.tolist() == first.tolist()

    def test_weight_mismatch_raises_when_the_run_ends_before_a_sample(self):
        sim = Simulation()
        server = ThreadPoolServer(sim, make_scheduler("wfq", num_threads=2), 2, rate=10.0)
        collector = MetricsCollector(server, sample_interval=0.1)
        sim.at(0.01, server.submit, Request("a", 1.0, weight=1.0))
        sim.at(0.02, server.submit, Request("a", 1.0, weight=2.0))
        sim.run(until=0.05)
        with pytest.raises(ConfigurationError, match="re-arrived with weight"):
            collector.result()

    def test_weight_mismatch_raises_at_the_next_sample(self):
        sim = Simulation()
        server = ThreadPoolServer(sim, make_scheduler("wfq", num_threads=2), 2, rate=10.0)
        MetricsCollector(server, sample_interval=0.1)
        sim.at(0.01, server.submit, Request("a", 1.0, weight=1.0))
        sim.at(0.02, server.submit, Request("a", 1.0, weight=2.0))
        with pytest.raises(ConfigurationError, match="re-arrived with weight"):
            sim.run(until=0.15)
