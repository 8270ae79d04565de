"""Figure 12: request latencies as the workload becomes unpredictable.

Top: latency distributions (p50 / p99) for T1..T12 under each scheduler
at 0% / 33% / 66% unpredictable.  Bottom left: CDFs of per-tenant
sigma(service lag).  Bottom right: latencies of the fixed-cost probes
t1..t7.

Expected shapes: as unpredictability rises the baselines' latencies for
small predictable tenants inflate while 2DFQ^E protects them (the paper
reports up to ~100x tail-latency gaps at full scale; at CI scale the
gap is smaller but the ordering and growth direction hold); T10 -- the
genuinely unpredictable tenant -- sees no improvement.
"""

from repro.figures import FIGURES

from conftest import emit_figure, once


def test_fig12_latency_distributions(benchmark, capsys):
    sweep, p99 = data = once(benchmark, FIGURES["fig12"].run)

    low, mid, high = sweep.fractions
    # Small predictable tenants (T1, T2): at 66% unpredictable, 2DFQ^E's
    # p99 beats both baselines.
    for tenant in ("T1", "T2"):
        assert (
            p99[(high, "2dfq-e", tenant)] < p99[(high, "wfq-e", tenant)]
        ), tenant
        assert (
            p99[(high, "2dfq-e", tenant)] < p99[(high, "wf2q-e", tenant)]
        ), tenant
    # Baselines deteriorate as unpredictability rises.
    assert p99[(high, "wfq-e", "T1")] > p99[(low, "wfq-e", "T1")]
    # T10 (inherently unpredictable) is not rescued by 2DFQ^E.
    t10_gain = p99[(high, "wfq-e", "T10")] / p99[(high, "2dfq-e", "T10")]
    t1_gain = p99[(high, "wfq-e", "T1")] / p99[(high, "2dfq-e", "T1")]
    assert t1_gain > t10_gain
    emit_figure(capsys, "fig12", data)
