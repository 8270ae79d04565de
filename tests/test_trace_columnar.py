"""Differential tests: the columnar trace layer against the per-record oracle.

``tests/reference/trace_oracle.py`` keeps the row-at-a-time generator the
columnar one replaced.  Every trace here must equal the oracle's exactly
-- row for row, with ``float`` times and costs -- because figure digests
and golden outputs are pinned to those bits.
"""

from __future__ import annotations

import gzip
import re
from itertools import islice
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import trace_oracle as oracle
from repro.errors import WorkloadError
from repro.experiments.production import (
    production_config,
    production_specs,
    production_trace,
)
from repro.experiments.unpredictable import _scrambled_trace
from repro.simulator.rng import make_rng
from repro.workloads import (
    DecayingBurstArrivals,
    FixedCost,
    LogNormalCost,
    LogUniformCost,
    MixtureCost,
    NormalCost,
    OnOffArrivals,
    PoissonArrivals,
    TenantSpec,
)
from repro.workloads.trace import (
    Trace,
    TraceRecord,
    generate_trace,
    load_trace,
    merge_traces,
    rescale_trace,
    save_trace,
    scramble_trace,
    thin_trace,
)
from repro.workloads.spec import BLOCK

#: A record as the oracle's ``(time, tenant, api, cost)`` row.
row_of = attrgetter("time", "tenant", "api", "cost")


def assert_rows_equal(trace, rows):
    """``trace`` equals the oracle's rows exactly, float types included."""
    assert isinstance(trace, Trace)
    got = [row_of(record) for record in trace]
    assert got == rows
    assert trace == [TraceRecord(*row) for row in rows]
    for time, _, _, cost in got:
        assert type(time) is float and type(cost) is float


# -- arrival processes ----------------------------------------------------------

ARRIVAL_CASES = {
    "poisson": PoissonArrivals(rate=80.0),
    "poisson-late-start": PoissonArrivals(rate=80.0, start_time=1.5),
    "poisson-start-after-horizon": PoissonArrivals(rate=80.0, start_time=5.0),
    "poisson-start-at-horizon": PoissonArrivals(rate=80.0, start_time=4.0),
    "poisson-starved": PoissonArrivals(rate=1e-4),
    "poisson-few": PoissonArrivals(rate=3.0),
    "decaying": DecayingBurstArrivals(peak_rate=150.0, tau=1.0, floor_rate=10.0),
    "decaying-late-start": DecayingBurstArrivals(
        peak_rate=150.0, tau=2.0, start_time=2.5, floor_rate=5.0
    ),
    "decaying-start-after-horizon": DecayingBurstArrivals(
        peak_rate=150.0, tau=2.0, start_time=6.0
    ),
    "decaying-starved": DecayingBurstArrivals(peak_rate=1e-4, tau=1.0),
    "on-off": OnOffArrivals(burst_rate=120.0, mean_on=0.5, mean_off=0.3),
    "on-off-long-bursts": OnOffArrivals(burst_rate=40.0, mean_on=10.0, mean_off=0.1),
    "on-off-late-start": OnOffArrivals(
        burst_rate=120.0, mean_on=0.5, mean_off=0.3, start_time=3.0
    ),
    "on-off-start-after-horizon": OnOffArrivals(
        burst_rate=120.0, mean_on=0.5, mean_off=0.3, start_time=4.0
    ),
    "on-off-starved": OnOffArrivals(burst_rate=1e-4, mean_on=1.0, mean_off=1.0),
}


@pytest.mark.parametrize("name", sorted(ARRIVAL_CASES))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_arrival_times_match_oracle(name, seed):
    process = ARRIVAL_CASES[name]
    got = process.arrival_times(make_rng(seed, "arrivals"), 4.0)
    want = oracle.arrival_times(process, make_rng(seed, "arrivals"), 4.0)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tolist() == want.tolist()


def test_edge_cases_are_exercised():
    """The edge cases above really produce no arrivals."""
    for name in ARRIVAL_CASES:
        if name.endswith(("starved", "after-horizon", "at-horizon")):
            process = ARRIVAL_CASES[name]
            assert len(process.arrival_times(make_rng(0, "arrivals"), 4.0)) == 0, name


# -- cost families ----------------------------------------------------------------

COST_FAMILIES = {
    "fixed": FixedCost(64.0),
    "normal": NormalCost(1.0, 0.6),
    "lognormal": LogNormalCost(1e3, 0.8),
    "lognormal-bounded": LogNormalCost(1e3, 1.0, low=200.0, high=5e3),
    "loguniform": LogUniformCost(1e2, 1e6),
    "mixture": MixtureCost(
        [LogNormalCost(1e3, 0.3, low=100.0, high=5e6), LogNormalCost(1e6, 0.4)],
        [0.9, 0.1],
    ),
}


#: Arrival cases that produce arrivals, one per single-API population member.
ACTIVE = ("poisson", "poisson-late-start", "decaying", "decaying-late-start", "on-off",
          "on-off-long-bursts")


def _single(name, dist, arrivals=None):
    return TenantSpec(
        tenant_id=f"S-{name}",
        api_costs={"x": dist},
        arrivals=arrivals or PoissonArrivals(rate=150.0),
    )


def _multi(weights=None):
    return TenantSpec(
        tenant_id="M",
        api_costs={f"api-{name}": dist for name, dist in COST_FAMILIES.items()},
        api_weights=weights,
        arrivals=OnOffArrivals(burst_rate=200.0, mean_on=1.0, mean_off=0.5),
    )


@pytest.mark.parametrize("family", sorted(COST_FAMILIES))
def test_single_api_trace_matches_oracle(family):
    specs = [_single(family, COST_FAMILIES[family])]
    assert_rows_equal(generate_trace(specs, 3.0, seed=5), oracle.generate_trace(specs, 3.0, seed=5))


@pytest.mark.parametrize("weights", [None, {"api-fixed": 0.1, "api-mixture": 3.0, "api-normal": 1.0}])
def test_multi_api_trace_matches_oracle(weights):
    specs = [_multi(weights)]
    assert_rows_equal(generate_trace(specs, 3.0, seed=2), oracle.generate_trace(specs, 3.0, seed=2))


def test_mixed_population_matches_oracle():
    """Every family and arrival shape in one trace: the merged sort too."""
    specs = [
        _single(name, dist, ARRIVAL_CASES[case])
        for (name, dist), case in zip(sorted(COST_FAMILIES.items()), ACTIVE)
    ] + [_multi()]
    for seed in range(3):
        assert_rows_equal(
            generate_trace(specs, 4.0, seed=seed), oracle.generate_trace(specs, 4.0, seed=seed)
        )


@pytest.mark.parametrize("family", sorted(COST_FAMILIES))
def test_sample_costs_is_the_request_sampler_stream(family):
    """``sample_costs(rng, n)`` and the first ``n`` pairs of
    ``request_stream`` == ``n`` calls of the oracle's ``request_sampler``
    on a fresh generator of the same seed, single- and multi-API."""
    for spec in (_single(family, COST_FAMILIES[family]), _multi({f"api-{family}": 2.0, "api-fixed": 1.0})):
        reference = oracle.request_sampler(spec, make_rng(3, "costs"))
        drawn = [reference() for _ in range(500)]
        apis, picks, costs = spec.sample_costs(make_rng(3, "costs"), 500)
        assert [(apis[p], c) for p, c in zip(picks.tolist(), costs.tolist())] == drawn
        assert list(islice(spec.request_stream(make_rng(3, "costs")), 500)) == drawn


def _bounds():
    return st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False)


_BASE_COSTS = st.one_of(
    st.builds(FixedCost, _bounds()),
    st.builds(NormalCost, st.floats(0.1, 1e4), st.floats(0.0, 1e3)),
    st.builds(LogNormalCost, _bounds(), st.floats(0.0, 2.0)),
    st.builds(
        lambda median, sigma, edges: LogNormalCost(median, sigma, *sorted(edges)),
        _bounds(), st.floats(0.0, 2.0), st.tuples(_bounds(), _bounds()),
    ),
    st.builds(
        lambda median, sigma, low: LogNormalCost(median, sigma, low=low),
        _bounds(), st.floats(0.0, 2.0), _bounds(),
    ),
    st.builds(
        lambda median, sigma, high: LogNormalCost(median, sigma, high=high),
        _bounds(), st.floats(0.0, 2.0), _bounds(),
    ),
    st.builds(
        lambda low, ratio: LogUniformCost(low, low * ratio),
        _bounds(), st.floats(1.5, 1e4),
    ),
)

_COSTS = st.one_of(
    _BASE_COSTS,
    st.lists(
        st.tuples(_BASE_COSTS, st.floats(0.01, 10.0)), min_size=1, max_size=3
    ).map(lambda parts: MixtureCost([c for c, _ in parts], [w for _, w in parts])),
)


@st.composite
def _request_specs(draw):
    dists = draw(st.lists(_COSTS, min_size=1, max_size=4))
    names = [f"api-{index}" for index in range(len(dists))]
    weights = draw(
        st.none()
        | st.lists(st.floats(0.0, 5.0), min_size=len(names), max_size=len(names))
        .filter(lambda ws: sum(ws) > 0)
        .map(lambda ws: dict(zip(names, ws)))
    )
    return TenantSpec("P", api_costs=dict(zip(names, dists)), api_weights=weights)


@settings(max_examples=60, deadline=None)
@given(
    spec=_request_specs(),
    count=st.integers(3 * BLOCK + 1, 5 * BLOCK),
    seed=st.integers(0, 2**32 - 1),
)
def test_request_stream_is_the_oracle_stream(spec, count, seed):
    """A closed-loop stream, read across at least three block boundaries,
    yields exactly the oracle's per-request draws, ``float`` costs."""
    reference = oracle.request_sampler(spec, make_rng(seed, "costs"))
    want = [reference() for _ in range(count)]
    got = list(islice(spec.request_stream(make_rng(seed, "costs")), count))
    assert got == want
    assert all(type(cost) is float for _, cost in got)


class _BoundaryRng:
    """A generator stub whose uniform draw lands exactly on a bound."""

    def random(self):
        return 0.5


def test_draw_on_a_bound_picks_the_next_choice():
    """``bisect_right`` must match ``np.searchsorted(side="right")`` when
    the uniform draw equals a cumulative weight."""
    mixture = MixtureCost([FixedCost(1.0), FixedCost(2.0)], [1.0, 1.0])
    assert mixture.sample(_BoundaryRng()) == oracle.sample(mixture, _BoundaryRng()) == 2.0
    spec = TenantSpec("B", api_costs={"a": FixedCost(1.0), "b": FixedCost(2.0)})
    apis, picks, _ = spec.sample_costs(_BoundaryRng(), 3)
    reference = oracle.request_sampler(spec, _BoundaryRng())
    assert [apis[p] for p in picks.tolist()] == [reference()[0] for _ in range(3)] == ["b"] * 3
    assert list(islice(spec.request_stream(_BoundaryRng()), 3)) == [("b", 2.0)] * 3


# -- the experiment traces ------------------------------------------------------------


@pytest.mark.parametrize("named_mode", ["open-loop", "backlogged"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_production_and_scrambled_traces_match_oracle(seed, named_mode):
    config = production_config(duration=2.0, seed=seed)
    specs = production_specs(num_random=30, seed=seed, named_mode=named_mode)
    for utilization in (0.05, 0.5, 1.2, 100.0):
        assert_rows_equal(
            production_trace(specs, config, open_loop_utilization=utilization),
            oracle.production_trace(specs, config, open_loop_utilization=utilization),
        )
        assert_rows_equal(
            _scrambled_trace(specs, config, 0.5, utilization, 1.0),
            oracle.scrambled_trace(specs, config, 0.5, utilization, 1.0),
        )


def test_production_trace_with_no_open_loop_tenant_is_empty():
    config = production_config(duration=1.0)
    specs = production_specs(num_random=0, named_mode="backlogged")
    trace = production_trace(specs, config)
    assert isinstance(trace, Trace) and trace == []


def test_keep_threshold_sums_left_to_right():
    """The thinning threshold sums costs as Python floats in trace order.
    Once a 1e16 request is in the running sum, each later 1.0 is lost;
    a pairwise sum keeps some of them, and here that would move the keep
    fraction far enough to change which records survive."""
    specs = [
        TenantSpec("N-big", {"x": FixedCost(1e16)}, arrivals=PoissonArrivals(rate=2.0)),
        TenantSpec("N-small", {"x": FixedCost(1.0)}, arrivals=PoissonArrivals(rate=2000.0)),
    ] + [
        TenantSpec(f"R{i}", {"x": FixedCost(10.0)}, arrivals=PoissonArrivals(rate=100.0))
        for i in range(3)
    ]
    config = production_config(duration=2.0, seed=1)
    rows = oracle.generate_trace(specs, config.duration, seed=config.seed)
    named = [row[3] for row in rows if not row[1].startswith("R")]
    randoms = sum(row[3] for row in rows if row[1].startswith("R"))
    assert sum(named) != float(np.sum(named))
    utilization = (sum(named) + randoms / 2) / (config.capacity * config.duration)
    assert_rows_equal(
        production_trace(specs, config, open_loop_utilization=utilization),
        oracle.production_trace(specs, config, open_loop_utilization=utilization),
    )


class TestOverBudget:
    """When the named tenants alone exceed the budget, no random tenant
    may be replayed (they used to be kept whole: 173% of capacity)."""

    def test_random_records_dropped(self):
        config = production_config(duration=3.0)
        specs = production_specs(num_random=60, seed=1)
        capacity = config.capacity * config.duration
        full = production_trace(specs, config, open_loop_utilization=100.0)
        named = [r for r in full if not r.tenant.startswith("R")]
        named_share = sum(r.cost for r in named) / capacity
        assert named_share > 0.05
        for utilization in (0.005, 0.01, 0.02, 0.05):
            trace = production_trace(specs, config, open_loop_utilization=utilization)
            assert trace == named
            assert sum(r.cost for r in trace) / capacity == pytest.approx(named_share)
        # Within budget the random tenants are thinned, not dropped.
        trace = production_trace(specs, config, open_loop_utilization=0.2)
        assert sum(r.cost for r in trace) / capacity == pytest.approx(0.2, rel=0.1)
        assert any(r.tenant.startswith("R") for r in trace)


# -- hypothesis sweep ------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["poisson", "decaying", "on-off"]),
    rate=st.floats(min_value=0.01, max_value=400.0),
    duration=st.floats(min_value=0.0, max_value=6.0),
    start=st.floats(min_value=0.0, max_value=4.0),
    shape=st.floats(min_value=0.05, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_arrivals_sweep(kind, rate, duration, start, shape, seed):
    if kind == "poisson":
        process = PoissonArrivals(rate=rate, start_time=start)
    elif kind == "decaying":
        process = DecayingBurstArrivals(
            peak_rate=rate, tau=shape, start_time=start, floor_rate=rate / 10.0
        )
    else:
        process = OnOffArrivals(
            burst_rate=rate, mean_on=shape, mean_off=shape / 2.0, start_time=start
        )
    spec = TenantSpec(
        tenant_id="H",
        api_costs={"a": LogNormalCost(500.0, 0.5, low=100.0), "b": COST_FAMILIES["mixture"]},
        arrivals=process,
    )
    got = process.arrival_times(make_rng(seed, "sweep"), duration)
    want = oracle.arrival_times(process, make_rng(seed, "sweep"), duration)
    assert got.tolist() == want.tolist()
    assert_rows_equal(
        generate_trace([spec], duration, seed=seed), oracle.generate_trace([spec], duration, seed=seed)
    )


# -- transforms --------------------------------------------------------------------------


def _population_trace(seed=4):
    specs = [
        _single(name, dist, ARRIVAL_CASES[case])
        for (name, dist), case in zip(sorted(COST_FAMILIES.items()), ACTIVE)
    ]
    return generate_trace(specs, 4.0, seed=seed), oracle.generate_trace(specs, 4.0, seed=seed)


def test_thin_and_scramble_match_oracle():
    trace, rows = _population_trace()
    for keep in (0.1, 0.5, 0.99, 1.0):
        assert_rows_equal(thin_trace(trace, keep, seed=3), oracle.thin_trace(rows, keep, seed=3))
    tenants = sorted({row[1] for row in rows})[::2]
    assert_rows_equal(scramble_trace(trace, tenants, seed=9), oracle.scramble_trace(rows, tenants, seed=9))
    # Row lists go through the same columnar path.
    listed = [TraceRecord(*row) for row in rows]
    assert_rows_equal(thin_trace(listed, 0.5, seed=3), oracle.thin_trace(rows, 0.5, seed=3))


def test_thin_only_named_tenants():
    trace, rows = _population_trace()
    chosen = {row[1] for row in rows[:1]}
    thinned = thin_trace(trace, 0.3, seed=1, tenants=chosen)
    picked = [row for row in rows if row[1] in chosen]
    kept_rows = set(oracle.thin_trace(picked, 0.3, seed=1))
    assert_rows_equal(thinned, [row for row in rows if row[1] not in chosen or row in kept_rows])


def test_merge_is_a_stable_time_tenant_sort():
    trace, rows = _population_trace()
    twice = merge_traces(trace, [TraceRecord(*row) for row in rows])
    # Equal (time, tenant) keys keep argument order, as the row sort did.
    assert_rows_equal(twice, sorted(rows + rows, key=lambda r: (r[0], r[1])))
    assert merge_traces() == []
    # Equal times order by tenant name; equal (time, tenant) keep their order.
    tied = [
        TraceRecord(1.0, "B", "x", 1.0),
        TraceRecord(1.0, "A", "y", 2.0),
        TraceRecord(0.5, "C", "x", 4.0),
        TraceRecord(1.0, "A", "x", 3.0),
    ]
    assert merge_traces(tied) == sorted(tied, key=lambda r: (r.time, r.tenant))


def test_rescale_divides_times():
    trace, rows = _population_trace()
    assert_rows_equal(
        rescale_trace(trace, 2.5), [(t / 2.5, tenant, api, c) for t, tenant, api, c in rows]
    )


class TestTraceSequence:
    def test_sequence_protocol(self):
        trace, rows = _population_trace()
        assert len(trace) == len(rows)
        assert row_of(trace[0]) == rows[0]
        assert row_of(trace[-1]) == rows[-1]
        assert row_of(trace[np.int64(3)]) == rows[3]
        assert TraceRecord(*rows[5]) in trace
        assert_rows_equal(trace[10:20], rows[10:20])
        mask = trace.costs > np.median(trace.costs)
        assert_rows_equal(trace[mask], [row for row, m in zip(rows, mask) if m])
        with pytest.raises(IndexError):
            trace[len(rows)]

    def test_equality(self):
        trace, rows = _population_trace()
        records = [TraceRecord(*row) for row in rows]
        assert trace == records and records == trace and trace == tuple(records)
        assert trace == Trace.from_records(records)
        assert trace != records[:-1]
        assert trace != rows  # tuples are not records
        assert Trace.from_records() == [] and not Trace.from_records()

    def test_columns_are_read_only(self):
        trace, _ = _population_trace()
        with pytest.raises(ValueError):
            trace.costs[0] = 1.0


# -- persistence ---------------------------------------------------------------------------


class TestLoadTrace:
    def test_roundtrip_of_a_columnar_trace(self, tmp_path):
        trace, rows = _population_trace()
        for name in ("trace.csv", "trace.csv.gz"):
            path = tmp_path / name
            save_trace(trace, path)
            loaded = load_trace(path)
            assert_rows_equal(loaded, rows)
            assert loaded.tenants == tuple(sorted({row[1] for row in rows}))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.5,A,x", "expected 4 fields"),
            ("0.5,A,x,1.0,extra", "expected 4 fields"),
            ("abc,A,x,1.0", "could not convert"),
            ("0.5,A,x,lots", "could not convert"),
            ("0.5,A,x,nan", "cost must be finite and > 0"),
            ("0.5,A,x,inf", "cost must be finite and > 0"),
            ("0.5,A,x,0", "cost must be finite and > 0"),
            ("0.5,A,x,-3.0", "cost must be finite and > 0"),
            ("inf,A,x,1.0", "time must be finite and >= 0"),
            ("nan,A,x,1.0", "time must be finite and >= 0"),
            ("-0.5,A,x,1.0", "time must be finite and >= 0"),
            ("0.1,A,x,1.0", "before the previous row"),
        ],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,tenant,api,cost\n0.2,A,x,1.0\n0.2,B,x,2.0\n{row}\n0.9,A,x,1.0\n")
        with pytest.raises(WorkloadError, match=message) as error:
            load_trace(path)
        assert f"{path}:4:" in str(error.value)

    def test_gzip_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv.gz"
        path.write_bytes(gzip.compress(b"time,tenant,api,cost\n0.5,A,x,-1\n"))
        with pytest.raises(WorkloadError, match=re.escape(f"{path}:2:")):
            load_trace(path)
