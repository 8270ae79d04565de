"""Unit tests for the event heap."""

import pytest

from repro.errors import SimulationError
from repro.simulator.events import EventQueue
from repro.simulator.rng import make_rng


def _noop():
    pass


def run_oracle_trace(seed, ops=4000, purge_threshold=64, cancel_bias=0.2):
    """Drive the heap through one seeded trace of interleaved pushes,
    cancels, peeks and pops, checking it against a naive oracle -- a
    plain list of pending ``(time, seq)`` keys whose minimum is the next
    event -- at every step.  Returns ``(pop_order, queue)``.

    Popped handles are marked consumed via ``handle.cancel()`` directly
    (exactly what ``Simulation.run`` does after firing a callback), so a
    later ``queue.cancel`` on them is a no-op.
    """
    rng = make_rng(seed, "event-queue-oracle", str(purge_threshold))
    queue = EventQueue(purge_threshold=purge_threshold)
    oracle = []  # pending (time, seq) keys
    handles = {}  # seq -> handle
    now = 0.0
    pop_order = []

    def pop_both():
        handle = queue.pop()
        expected = min(oracle)
        assert (handle.time, handle.seq) == expected
        oracle.remove(expected)
        del handles[handle.seq]
        handle.cancel()  # mark consumed, as Simulation.run does
        pop_order.append(expected)
        return handle.time

    for _ in range(ops):
        r = rng.random()
        if r < 0.55 or not oracle:
            u = rng.random()
            if u < 0.10:
                # Same-instant ties at an integral time, often <= now.
                t = float(int(now))
            elif u < 0.18:
                t = now + float(rng.exponential(2_000.0))  # far-future outlier
            else:
                t = now + float(rng.exponential(5.0))
            handle = queue.push(t, _noop)
            oracle.append((t, handle.seq))
            handles[handle.seq] = handle
        elif r < 0.55 + cancel_bias:
            key = sorted(oracle)[int(rng.integers(len(oracle)))]
            oracle.remove(key)
            queue.cancel(handles.pop(key[1]))
        else:
            assert queue.peek_time() == (min(oracle)[0] if oracle else None)
            if oracle:
                now = max(now, pop_both())
        assert len(queue) == len(oracle)
        assert queue.cancelled_backlog >= 0
    while oracle:
        pop_both()
    assert not queue
    assert queue.peek_time() is None
    return pop_order, queue


class TestOracleDifferential:
    def test_seeded_long_horizon_traces(self):
        """Six seeds of mixed push/cancel/peek/pop traffic: exact
        ``(time, seq)`` pop order and step-by-step len/peek agreement
        with the naive oracle."""
        for seed in range(6):
            pop_order, _ = run_oracle_trace(seed)
            assert len(pop_order) > 500
            assert len({seq for _, seq in pop_order}) == len(pop_order)

    def test_forced_compactions_preserve_order(self):
        """A tiny purge threshold plus cancel-heavy traffic forces
        repeated compactions; the pop order must still match."""
        pop_order, queue = run_oracle_trace(
            99, ops=3000, purge_threshold=4, cancel_bias=0.38
        )
        assert queue.purges > 0
        assert len(pop_order) > 300

    def test_exact_tie_fifo(self):
        """Same-instant events pop in push (seq) order."""
        q = EventQueue()
        pushed = [q.push(7.0, _noop).seq for _ in range(10)]
        assert [q.pop().seq for _ in range(10)] == pushed


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(3.0, fired.append, "c")
        q.push(1.0, fired.append, "a")
        q.push(2.0, fired.append, "b")
        while q:
            handle = q.pop()
            handle.fn(*handle.args)
        assert fired == ["a", "b", "c"]

    def test_fifo_among_simultaneous_events(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        second = q.push(1.0, lambda: None)
        first = q.pop()
        assert first.seq < second.seq

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, lambda: None)
        q.push(2.0, lambda: None)
        assert q.peek_time() == 2.0

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()


class TestCancellation:
    def test_cancelled_events_skipped(self):
        q = EventQueue()
        h1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(h1)
        assert len(q) == 1
        assert q.peek_time() == 2.0
        assert q.pop().time == 2.0

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        q.cancel(h)
        q.cancel(h)
        assert len(q) == 0

    def test_cancel_frees_references(self):
        q = EventQueue()
        payload = object()
        h = q.push(1.0, lambda x: None, payload)
        q.cancel(h)
        assert h.args == ()
        assert h.fn is None

    def test_len_counts_live_events(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(5)]
        q.cancel(handles[2])
        q.cancel(handles[4])
        assert len(q) == 3
        assert bool(q)


class TestPurgeHeuristic:
    """Pin the lazy-cancel compaction: dead entries must both exceed the
    threshold and outnumber the live ones before the heap is rebuilt."""

    def test_backlog_tracks_cancelled_entries(self):
        q = EventQueue(purge_threshold=100)
        handles = [q.push(float(i), lambda: None) for i in range(10)]
        assert q.cancelled_backlog == 0
        for h in handles[:4]:
            q.cancel(h)
        assert q.cancelled_backlog == 4
        assert len(q) == 6

    def test_no_purge_below_threshold(self):
        q = EventQueue(purge_threshold=10)
        handles = [q.push(float(i), lambda: None) for i in range(12)]
        # Cancel 10 of 12: backlog (10) > live (2) but not > threshold.
        for h in handles[:10]:
            q.cancel(h)
        assert q.purges == 0
        assert q.cancelled_backlog == 10

    def test_no_purge_while_live_majority(self):
        q = EventQueue(purge_threshold=2)
        handles = [q.push(float(i), lambda: None) for i in range(10)]
        # Cancel 4 of 10: backlog (4) > threshold but not > live (6).
        for h in handles[:4]:
            q.cancel(h)
        assert q.purges == 0

    def test_purge_fires_when_dead_outnumber_live_and_threshold(self):
        q = EventQueue(purge_threshold=2)
        handles = [q.push(float(i), lambda: None) for i in range(7)]
        for h in handles[:3]:
            q.cancel(h)
        assert q.purges == 0  # 3 dead vs 4 live: live still majority
        q.cancel(handles[3])
        assert q.purges == 1  # 4 dead vs 3 live and 4 > threshold
        assert q.cancelled_backlog == 0
        assert len(q) == 3

    def test_pop_order_identical_across_compaction(self):
        """Compaction preserves (time, seq) keys, so the pop sequence
        matches a queue that never compacts."""

        def drive(threshold):
            q = EventQueue(purge_threshold=threshold)
            handles = [
                q.push(float(i % 5), lambda: None) for i in range(50)
            ]
            for i, h in enumerate(handles):
                if i % 3 != 0:
                    q.cancel(h)
            order = []
            while q:
                h = q.pop()
                order.append((h.time, h.seq))
            return q.purges, order

        purges_eager, order_eager = drive(threshold=1)
        purges_lazy, order_lazy = drive(threshold=10_000)
        assert purges_eager > 0
        assert purges_lazy == 0
        assert order_eager == order_lazy

    def test_threshold_validation(self):
        with pytest.raises(SimulationError):
            EventQueue(purge_threshold=0)

    def test_heap_stays_bounded_under_churn(self):
        """Timer churn (push + cancel forever) must not grow the heap:
        the heuristic caps it near 2x live + threshold."""
        q = EventQueue(purge_threshold=8)
        live = [q.push(float(i), lambda: None) for i in range(4)]
        for i in range(1000):
            h = q.push(100.0 + i, lambda: None)
            q.cancel(h)
        assert len(q) == 4
        assert q.cancelled_backlog <= 2 * len(q) + q.purge_threshold + 1
        assert q.purges > 0
        assert sorted(h.time for h in live) == [0.0, 1.0, 2.0, 3.0]
