"""Validation of the Azure-like workload model against the paper's
published statistics (Figures 2, 3, 4; §3)."""

import numpy as np
import pytest

from repro.simulator.rng import make_rng
from repro.workloads.azure import (
    API_NAMES,
    NAMED_TENANT_IDS,
    api_population_distribution,
    backlogged_variant,
    named_tenant,
    named_tenants,
    random_tenant,
    random_tenants,
)
from repro.workloads.arrivals import Backlogged, OnOffArrivals
from repro.metrics.summary import coefficient_of_variation, cost_summary


@pytest.fixture
def rng():
    return make_rng(11, "azure-tests")


class TestAPIPopulation:
    def test_ten_apis(self):
        assert len(API_NAMES) == 10
        for api in API_NAMES:
            assert api_population_distribution(api) is not None

    def test_aggregate_spans_four_decades(self, rng):
        """§3.1: "request costs span four orders of magnitude"."""
        samples = np.concatenate(
            [api_population_distribution(a).sample_many(rng, 2000) for a in API_NAMES]
        )
        spread = np.log10(np.percentile(samples, 99.9) / np.percentile(samples, 0.1))
        assert spread >= 3.5

    def test_api_a_consistently_cheap(self, rng):
        """Figure 2a: API A is tight and cheap."""
        summary = cost_summary(api_population_distribution("A").sample_many(rng, 4000))
        assert summary.p99 < 2000
        assert summary.decades_of_spread() < 1.0

    def test_api_g_bimodal(self, rng):
        """Figure 2a: API G usually cheap, occasionally very expensive."""
        samples = api_population_distribution("G").sample_many(rng, 8000)
        assert np.median(samples) < 5e3
        assert np.percentile(samples, 99.5) > 1e5

    def test_api_k_varies_widely(self, rng):
        summary = cost_summary(api_population_distribution("K").sample_many(rng, 4000))
        assert summary.decades_of_spread() > 2.5


class TestNamedTenants:
    def test_all_twelve_build(self):
        specs = named_tenants()
        assert [s.tenant_id for s in specs] == list(NAMED_TENANT_IDS)

    def test_unknown_tenant(self):
        with pytest.raises(KeyError):
            named_tenant("T99")

    def test_t1_small_and_predictable(self, rng):
        """§6.1.2: T1's requests are 'between 250 and 1000 in size'."""
        spec = named_tenant("T1")
        costs = spec.sample_costs(rng, 2000)[2]
        assert costs.min() >= 250.0
        assert costs.max() <= 1000.0
        assert coefficient_of_variation(costs) < 0.5

    def test_t11_large_and_predictable(self, rng):
        """§3.1: T11 makes large requests with little variation."""
        spec = named_tenant("T11")
        costs = spec.sample_costs(rng, 2000)[2]
        assert np.median(costs) > 1e5
        assert coefficient_of_variation(costs) < 0.5

    def test_t9_mixed_small_and_large(self, rng):
        """§3.1: T9 mixes small and large with a lot of variation."""
        spec = named_tenant("T9")
        costs = spec.sample_costs(rng, 3000)[2]
        assert (costs < 1e3).any()
        assert (costs > 1e5).any()
        assert coefficient_of_variation(costs) > 1.0

    def test_t10_spans_three_decades_with_bursts(self, rng):
        """§3.2 / Figure 4c: unstable tenant; costs span > 3 decades."""
        spec = named_tenant("T10")
        assert isinstance(spec.arrivals, OnOffArrivals)
        costs = spec.sample_costs(rng, 5000)[2]
        spread = np.log10(np.percentile(costs, 99.5) / np.percentile(costs, 0.5))
        assert spread > 3.0

    def test_t3_uses_four_apis(self, rng):
        """Figure 4b: T3 spreads over APIs B, H, J, C."""
        spec = named_tenant("T3")
        assert set(spec.api_costs) == {"B", "H", "J", "C"}

    def test_backlogged_variant_preserves_costs(self):
        spec = named_tenant("T1")
        closed = backlogged_variant(spec, window=6)
        assert isinstance(closed.arrivals, Backlogged)
        assert closed.arrivals.window == 6
        assert closed.api_costs is spec.api_costs


class TestRandomTenants:
    def test_deterministic_generation(self, rng):
        a = random_tenant(3, seed=9)
        b = random_tenant(3, seed=9)
        assert set(a.api_costs) == set(b.api_costs)
        apis_a, picks_a, costs_a = a.sample_costs(make_rng(1, "x"), 20)
        apis_b, picks_b, costs_b = b.sample_costs(make_rng(1, "x"), 20)
        assert apis_a == apis_b
        assert picks_a.tolist() == picks_b.tolist()
        assert costs_a.tolist() == costs_b.tolist()

    def test_seed_changes_population(self):
        a = random_tenant(3, seed=1)
        b = random_tenant(3, seed=2)
        assert (
            set(a.api_costs) != set(b.api_costs)
            or a.arrivals != b.arrivals
        )

    def test_population_size_and_ids(self):
        specs = random_tenants(25, seed=0)
        assert len(specs) == 25
        assert specs[0].tenant_id == "R0"
        assert specs[24].tenant_id == "R24"

    def test_figure3_predictable_and_unpredictable_mix(self):
        """Figure 3: each API has low-CoV and high-CoV tenants; the
        population must contain both classes."""
        rng = make_rng(5, "fig3")
        covs = []
        for spec in random_tenants(60, seed=4):
            costs = spec.sample_costs(rng, 300)[2]
            covs.append(coefficient_of_variation(costs))
        covs = np.array(covs)
        assert (covs < 0.5).sum() >= 10, "no predictable tenants"
        assert (covs > 1.0).sum() >= 5, "no unpredictable tenants"
