"""Figure 2: per-API and per-tenant cost distributions of the workload.

Regenerates the violin-plot statistics (p1 / p50 / p99 whiskers) for the
ten APIs A..K and the twelve reference tenants T1..T12, and checks the
paper's headline facts: aggregate costs span ~4 orders of magnitude; A
is consistently cheap; G is usually cheap but occasionally very
expensive; T1 small/predictable, T11 large/predictable, T9 mixed.
"""

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig02_cost_distributions(benchmark, capsys):
    data = once(benchmark, FIGURES["fig02"].run)
    api_rows, tenant_rows, spread = data

    api = {row[0]: row for row in api_rows}
    assert spread >= 3.5
    assert api["A"][3] < 2e3                      # A consistently cheap
    assert api["G"][3] / api["G"][2] > 50         # G bimodal tail
    tenant = {row[0]: row for row in tenant_rows}
    assert tenant["T1"][3] <= 1000.0              # T1 small
    assert tenant["T11"][2] > 1e5                 # T11 large
    assert tenant["T9"][4] > 1.0                  # T9 high variation
    emit_figure(capsys, "fig02", data)
