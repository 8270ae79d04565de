"""Unit tests for TenantSpec."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.simulator.rng import make_rng
from repro.workloads import Backlogged, FixedCost, PoissonArrivals, TenantSpec


class TestValidation:
    def test_requires_apis(self):
        with pytest.raises(WorkloadError):
            TenantSpec(tenant_id="T", api_costs={})

    def test_rejects_unknown_weighted_apis(self):
        with pytest.raises(WorkloadError):
            TenantSpec(
                tenant_id="T",
                api_costs={"a": FixedCost(1.0)},
                api_weights={"b": 1.0},
            )

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(WorkloadError):
            TenantSpec(
                tenant_id="T", api_costs={"a": FixedCost(1.0)}, weight=0.0
            )

    def test_rejects_zero_sum_api_weights(self):
        spec = TenantSpec(
            tenant_id="T",
            api_costs={"a": FixedCost(1.0)},
            api_weights={"a": 0.0},
        )
        with pytest.raises(WorkloadError):
            spec.sample_costs(make_rng(0, "x"), 1)
        # A closed-loop stream checks the mix when it is built, not at
        # its first request.
        with pytest.raises(WorkloadError):
            spec.request_stream(make_rng(0, "x"))


class TestSampling:
    def test_single_api_fast_path(self):
        spec = TenantSpec(tenant_id="T", api_costs={"a": FixedCost(3.0)})
        apis, picks, costs = spec.sample_costs(make_rng(1, "t"), 1)
        assert (apis[picks[0]], costs[0]) == ("a", 3.0)
        assert next(spec.request_stream(make_rng(1, "t"))) == ("a", 3.0)

    def test_api_mix_respects_weights(self):
        spec = TenantSpec(
            tenant_id="T",
            api_costs={"a": FixedCost(1.0), "b": FixedCost(2.0)},
            api_weights={"a": 0.8, "b": 0.2},
        )
        apis, picks, _ = spec.sample_costs(make_rng(2, "t"), 3000)
        share = float(np.mean(picks == apis.index("a")))
        assert share == pytest.approx(0.8, abs=0.03)

    def test_uniform_default_mix(self):
        spec = TenantSpec(
            tenant_id="T",
            api_costs={"a": FixedCost(1.0), "b": FixedCost(2.0)},
        )
        apis, picks, _ = spec.sample_costs(make_rng(3, "t"), 2000)
        share = float(np.mean(picks == apis.index("a")))
        assert share == pytest.approx(0.5, abs=0.05)

    def test_mean_cost(self):
        spec = TenantSpec(
            tenant_id="T",
            api_costs={"a": FixedCost(1.0), "b": FixedCost(3.0)},
            api_weights={"a": 0.5, "b": 0.5},
        )
        assert spec.mean_cost() == pytest.approx(2.0)

    def test_backlogged_property(self):
        closed = TenantSpec(
            tenant_id="T", api_costs={"a": FixedCost(1.0)},
            arrivals=Backlogged(),
        )
        open_loop = TenantSpec(
            tenant_id="T", api_costs={"a": FixedCost(1.0)},
            arrivals=PoissonArrivals(rate=1.0),
        )
        assert closed.backlogged and not open_loop.backlogged
