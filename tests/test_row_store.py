"""The row store of ``repro.metrics.store`` against the per-sample oracle.

``ServiceRecorder`` stores each sample as one row and folds the
per-tenant columns, lags and Gini indices with numpy when first read.
``tests/reference/sample_store.py`` keeps the recorder that walked
every tenant of every sample in Python; these properties hold the row
store to it bit for bit -- sample times, actual and GPS columns, lags
and Gini samples:

* through :meth:`~repro.metrics.store.ServiceRecorder.observe`, with
  tenants that join mid-run, drop out of a later sample (their columns
  carry forward, their lag skips the sample) and lack a GPS value (the
  lag counts it as 0.0);
* through :meth:`~repro.metrics.store.ServiceRecorder.observe_row`, the
  collectors' path, fed by a live fluid reference whose tenants join
  mid-run, with the warmup baselines opening the first Gini interval
  and Gini tenants in their own order, one of them never sampled.
"""

import struct
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from reference.lazy_gps import GPSReference as LazyGPS
from reference.sample_store import ServiceRecorder as Oracle
from reference.sample_store import interval_gini
from repro.metrics import ServiceRecorder
from repro.metrics.gini import gini_index
from repro.simulator.gps import GPSReference

NAMES = ("a", "b", "c", "d", "e")
WEIGHTS = {"a": 1.0, "b": 2.0, "c": 0.5, "d": 3.0, "e": 1.5}


def bits(values):
    return [struct.pack("d", value) for value in values]


def assert_same_store(store, oracle, tenants):
    assert store.tenants() == oracle.tenants()
    assert set(store.lags) == set(oracle.lags)
    for tenant, lag in oracle.lags.items():
        assert bits(store.lags[tenant]) == bits(lag), tenant
    for tenant in tenants:
        got = store.columns(tenant)
        expected = oracle.columns(tenant)
        for got_column, expected_column in zip(got, expected):
            assert bits(got_column) == bits(expected_column), tenant


_service = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def dict_samples(draw):
    samples = []
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        # Unique keys in any order: a tenant joins, leaves, comes back.
        actual = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=5))
        gps = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=5))
        samples.append(
            (
                {t: draw(_service) for t in actual},
                {t: draw(_service) for t in gps},
            )
        )
    return samples


@settings(max_examples=150, deadline=None)
@given(samples=dict_samples())
def test_dict_samples_match_the_oracle(samples):
    store, oracle = ServiceRecorder(), Oracle()
    for k, (actual, gps) in enumerate(samples):
        store.observe(0.1 * k, actual, gps)
        oracle.observe(0.1 * k, actual, gps)
    assert bits(store.times) == bits(oracle.times)
    assert_same_store(store, oracle, NAMES + ("nobody",))
    assert store.gini() == []


@st.composite
def row_runs(draw):
    """Steps of a collector-shaped run: arrivals into the fluid
    reference and samples of every tenant seen so far.  Two tenants
    arrive first, so the baselines and the first Gini row have some."""
    steps = [("arrive", 0.0, "a", 7.0), ("arrive", 0.0, "b", 1.0)]
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        gap = draw(st.sampled_from((0.0, 0.05, 0.1, 1.0 / 3.0)))
        if draw(st.booleans()):
            tenant = draw(st.sampled_from(NAMES))
            cost = draw(st.sampled_from((0.0, 0.5, 1.0, 7.0, 30.0)))
            steps.append(("arrive", gap, tenant, cost))
        else:
            steps.append(("sample", gap))
    gini_order = draw(st.permutations(NAMES + ("ghost",)))
    return steps, list(gini_order)


@settings(max_examples=150, deadline=None)
@given(run=row_runs(), data=st.data())
def test_row_samples_match_the_oracle(run, data):
    steps, gini_order = run
    store, oracle = ServiceRecorder(), Oracle()
    gps, lazy = GPSReference(4.0), LazyGPS(4.0)
    seen = gps.flow_ids()
    now = 0.0
    samples = 0
    previous = {}
    gini = []
    filed = filed_gini = 0
    for step in steps:
        now += step[1]
        if step[0] == "arrive":
            _, _, tenant, cost = step
            gps.arrive(tenant, cost, now, WEIGHTS[tenant])
            lazy.arrive(tenant, cost, now, WEIGHTS[tenant])
            continue
        gps.advance(now)
        lazy.advance(now)
        actual = {t: data.draw(_service) for t in seen}
        if samples == 0 and actual:
            # A pre-warmup sample of the first tenants: the baselines.
            head = data.draw(st.integers(min_value=1, max_value=len(actual)))
            previous = {t: data.draw(_service) for t in list(actual)[:head]}
            store.baselines = dict(previous)
            oracle.baselines = dict(previous)
        if len(seen) > filed:
            new = list(seen)[filed:]
            store.add_tenants(new, gps.weights(filed))
            filed = len(seen)
        # The Gini tenants known so far, each active or not.
        known = data.draw(st.integers(min_value=filed_gini, max_value=len(gini_order)))
        if known > filed_gini:
            new = gini_order[filed_gini:known]
            store.add_gini_tenants(new, [WEIGHTS.get(t, 0.25) for t in new])
            filed_gini = known
        flags = [data.draw(st.booleans()) for _ in range(known)]
        states = {
            t: (flag, WEIGHTS.get(t, 0.25)) for t, flag in zip(gini_order, flags)
        }
        values = interval_gini(states, actual, previous)
        if values:
            gini.append((now, gini_index(values)))
        store.observe_row(now, array("d", actual.values()), gps.sample_row(), bytes(flags))
        oracle.observe(now, actual, lazy.services(actual))
        previous = actual
        samples += 1
    assert bits(store.times) == bits(oracle.times)
    assert_same_store(store, oracle, NAMES + ("ghost",))
    got = store.gini()
    assert bits([t for t, _ in got]) == bits([t for t, _ in gini])
    assert bits([v for _, v in got]) == bits([v for _, v in gini])
