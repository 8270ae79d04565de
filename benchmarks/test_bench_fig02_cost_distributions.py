"""Figure 2: per-API and per-tenant cost distributions of the workload.

Regenerates the violin-plot statistics (p1 / p50 / p99 whiskers) for the
ten APIs A..K and the twelve reference tenants T1..T12, and checks the
paper's headline facts: aggregate costs span ~4 orders of magnitude; A
is consistently cheap; G is usually cheap but occasionally very
expensive; T1 small/predictable, T11 large/predictable, T9 mixed.
"""

import numpy as np

from repro.experiments.report import format_table
from repro.metrics.summary import cost_summary
from repro.simulator.rng import make_rng
from repro.workloads.azure import (
    API_NAMES,
    NAMED_TENANT_IDS,
    api_population_distribution,
    named_tenant,
)

from conftest import emit, once

SAMPLES = 6000


def test_fig02_cost_distributions(benchmark, capsys):
    def run():
        rng = make_rng(2, "fig2")
        api_rows = []
        all_samples = []
        for api in API_NAMES:
            samples = api_population_distribution(api).sample_many(rng, SAMPLES)
            all_samples.append(samples)
            s = cost_summary(samples)
            api_rows.append((api, s.p1, s.p50, s.p99, s.decades_of_spread()))
        tenant_rows = []
        for tenant_id in NAMED_TENANT_IDS:
            samples = named_tenant(tenant_id).sample_costs(rng, 2000)[2]
            s = cost_summary(samples)
            tenant_rows.append((tenant_id, s.p1, s.p50, s.p99, s.cov))
        return api_rows, tenant_rows, np.concatenate(all_samples)

    api_rows, tenant_rows, aggregate = once(benchmark, run)

    text = "Figure 2a -- per-API cost distributions:\n"
    text += format_table(
        ["API", "p1", "p50", "p99", "decades(p99/p1)"], api_rows
    )
    text += "\n\nFigure 2b -- per-tenant cost distributions:\n"
    text += format_table(["tenant", "p1", "p50", "p99", "CoV"], tenant_rows)
    spread = np.log10(np.percentile(aggregate, 99.9) / np.percentile(aggregate, 0.1))
    text += f"\n\naggregate spread p0.1..p99.9: {spread:.2f} decades (paper: ~4)"

    api = {row[0]: row for row in api_rows}
    assert spread >= 3.5
    assert api["A"][3] < 2e3                      # A consistently cheap
    assert api["G"][3] / api["G"][2] > 50         # G bimodal tail
    tenant = {row[0]: row for row in tenant_rows}
    assert tenant["T1"][3] <= 1000.0              # T1 small
    assert tenant["T11"][2] > 1e5                 # T11 large
    assert tenant["T9"][4] > 1.0                  # T9 high variation
    emit(capsys, "fig02: cost distributions", text)
